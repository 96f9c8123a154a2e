//! The versioned, length-prefixed binary wire protocol.
//!
//! Every message — request or response — is one *frame*:
//!
//! ```text
//! ┌────────────┬───────────┬────────┬──────────────┐
//! │ len: u32LE │ ver: u8   │ kind:u8│ body (len-2) │
//! └────────────┴───────────┴────────┴──────────────┘
//! ```
//!
//! `len` counts everything after the prefix (version byte + kind byte +
//! body). All integers are little-endian; floats are IEEE-754 bit patterns.
//! The *payload* of a frame is the `len` bytes after the prefix.
//!
//! Request bodies:
//!
//! * [`RequestKind::ComputeCds`] — `flags u8, deadline_ms u32, policy u8,
//!   schedule u8, rule2 u8, application u8, has_energy u8, n u32, m u32,
//!   edges m×(u32,u32), energy n×u64 (iff has_energy)`. Edge order on the
//!   wire is arbitrary; the server canonicalises before cache keying.
//! * [`RequestKind::GenCompute`] — `flags u8, deadline_ms u32, policy u8,
//!   schedule u8, rule2 u8, application u8, n u32, seed u64, radius f64,
//!   side f64, connected u8, has_energy_seed u8, energy_seed u64`.
//! * [`RequestKind::Stats`] — `format u8` (0 table, 1 jsonl, 2 prometheus).
//! * [`RequestKind::Ping`] — empty body.
//! * [`RequestKind::OpenGraph`] — `name_len u16, name, config 4 bytes,
//!   shards u32, radius f64, bounds 4×f64, n u32, points n×(f64,f64),
//!   energy n×u64` (energy is always present — it is churn-graph state).
//! * [`RequestKind::Mutate`] — `name_len u16, name, k u32, k × event`
//!   where an event is `kind u8` (0 Add, 1 Move, 2 Kill, 3 Drain)
//!   followed by that kind's fields ([`WireEvent`]).
//! * [`RequestKind::CloseGraph`] — `name_len u16, name`.
//! * [`RequestKind::QueryTile`] — `name_len u16, name, tile u32`.
//! * [`RequestKind::Subscribe`] — `flags u8 ([`SUB_STATS`] | [`SUB_FLIPS`]),
//!   interval_ms u32, name_len u16, name` (`name_len` 0 = all graphs).
//!
//! Response bodies:
//!
//! * [`ResponseKind::CdsResult`] — `cache_hit u8, n u32, marked u32,
//!   after_rule1 u32, gateways u32, rounds u32, mask ⌈n/8⌉ bytes` (bit `v`
//!   of the mask = host `v` is a gateway; LSB-first within each byte).
//! * [`ResponseKind::StatsResult`] — `k u32, k × (name_len u16, name,
//!   value u64), text_len u32, text` (the rendered `pacds-obs` snapshot).
//! * [`ResponseKind::Pong`] — empty body.
//! * [`ResponseKind::GraphOpened`] — `tiles u32, n u32, gateways u32`.
//! * [`ResponseKind::MutateResult`] — `applied u32, dirty_tiles u32,
//!   resolved_tiles u32, total_tiles u32, gateway_flips u64,
//!   gateways u32, n u32`.
//! * [`ResponseKind::GraphClosed`] — empty body.
//! * [`ResponseKind::TileResult`] — `tile u32, k u32, k × (node u32,
//!   flags u8)`. Deliberately carries **no** cache-hit byte, so a
//!   cache-warm response frame is byte-identical to the cache-cold one.
//! * [`ResponseKind::SubscribeAck`] — `subscriber_id u64, flags u8,
//!   interval_ms u32` (the negotiated options, echoed back).
//! * [`ResponseKind::StatsDelta`] — `seq u64, dt_us u64, requests u64,
//!   samples u64, p50_ns u64, p99_ns u64, gateway_flips u64,
//!   tiles_resolved u64, refreshes u64, push_dropped u64`. Pushed every
//!   interval while a [`SUB_STATS`] subscription is open.
//! * [`ResponseKind::FlipEvent`] — `name_len u16, name, refresh_seq u64,
//!   gateway_flips u64, gateways u32, k u32, k × tile u32` (the tiles the
//!   refresh re-solved). Pushed per Mutate-triggered refresh while a
//!   [`SUB_FLIPS`] subscription is open.
//! * [`ResponseKind::Error`] — `code u8, msg_len u32, msg` (UTF-8).
//!
//! Decoding is strict: truncated or trailing bytes, out-of-range enum
//! discriminants, self-loop or out-of-range edges all produce a typed
//! [`DecodeError`] that the server answers with an [`ErrorCode`] frame —
//! never a panic, never a hang.

use pacds_core::{Application, CdsConfig, Policy, PruneSchedule, Rule2Semantics};
use pacds_graph::VertexMask;

/// Current protocol version, first payload byte of every frame.
pub const PROTOCOL_VERSION: u8 = 1;

/// Bytes of the frame length prefix.
pub const LEN_PREFIX: usize = 4;

/// Default maximum frame length (payload bytes) either side accepts.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Maximum vertex count a server will process (a tiny frame must not be
/// able to demand gigabyte-sized masks).
pub const MAX_NODES: u32 = 2_000_000;

/// Offset of the `cache_hit` byte inside a [`ResponseKind::CdsResult`]
/// payload (version, kind, then the flag) — the cache stores responses with
/// the flag zeroed and patches this byte on a hit.
pub const CACHE_FLAG_PAYLOAD_OFFSET: usize = 2;

/// Request flag: bypass the result cache entirely (no lookup, no insert).
pub const FLAG_NO_CACHE: u8 = 0b0000_0001;

/// Request kinds (client → server).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RequestKind {
    /// Compute the gateway set of an explicit topology.
    ComputeCds = 0x01,
    /// Generate a seeded unit-disk topology server-side, then compute.
    GenCompute = 0x02,
    /// Server + obs statistics probe.
    Stats = 0x03,
    /// Liveness probe.
    Ping = 0x04,
    /// Open a persistent named churn graph (spatial instance + config).
    OpenGraph = 0x05,
    /// Apply a batch of mutation events to a named graph and refresh.
    Mutate = 0x06,
    /// Close (drop) a named graph.
    CloseGraph = 0x07,
    /// Fetch one tile's per-owned-node verdicts from a named graph.
    QueryTile = 0x08,
    /// Subscribe this connection to pushed telemetry (stats deltas and/or
    /// gateway-flip events). The connection stops being request/response:
    /// after the ack, the server pushes frames until either side closes.
    Subscribe = 0x09,
}

impl RequestKind {
    /// Decodes a wire discriminant.
    pub fn from_wire(b: u8) -> Option<Self> {
        Some(match b {
            0x01 => Self::ComputeCds,
            0x02 => Self::GenCompute,
            0x03 => Self::Stats,
            0x04 => Self::Ping,
            0x05 => Self::OpenGraph,
            0x06 => Self::Mutate,
            0x07 => Self::CloseGraph,
            0x08 => Self::QueryTile,
            0x09 => Self::Subscribe,
            _ => return None,
        })
    }
}

/// Response kinds (server → client).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ResponseKind {
    /// Gateway-set result.
    CdsResult = 0x81,
    /// Statistics snapshot.
    StatsResult = 0x83,
    /// Liveness reply.
    Pong = 0x84,
    /// A churn graph is open.
    GraphOpened = 0x85,
    /// A mutation batch was applied and refreshed.
    MutateResult = 0x86,
    /// A churn graph was closed.
    GraphClosed = 0x87,
    /// One tile's verdicts (no cache-hit byte: cache-cold and cache-warm
    /// responses are byte-identical; hits are observable via Stats only).
    TileResult = 0x88,
    /// A subscription is active (carries the subscriber id and the
    /// negotiated options).
    SubscribeAck = 0x89,
    /// Pushed: one closed telemetry window's deltas.
    StatsDelta = 0x8A,
    /// Pushed: one refresh's gateway flips on a named graph.
    FlipEvent = 0x8B,
    /// Typed failure.
    Error = 0x7F,
}

impl ResponseKind {
    /// Decodes a wire discriminant.
    pub fn from_wire(b: u8) -> Option<Self> {
        Some(match b {
            0x81 => Self::CdsResult,
            0x83 => Self::StatsResult,
            0x84 => Self::Pong,
            0x85 => Self::GraphOpened,
            0x86 => Self::MutateResult,
            0x87 => Self::GraphClosed,
            0x88 => Self::TileResult,
            0x89 => Self::SubscribeAck,
            0x8A => Self::StatsDelta,
            0x8B => Self::FlipEvent,
            0x7F => Self::Error,
            _ => return None,
        })
    }
}

/// Typed error codes carried by [`ResponseKind::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame's version byte is not [`PROTOCOL_VERSION`].
    UnsupportedVersion = 1,
    /// Unknown request kind.
    UnknownKind = 2,
    /// Frame or body fails to parse (truncated, trailing, bad enum).
    Malformed = 3,
    /// Declared frame length exceeds the server's maximum.
    Oversized = 4,
    /// Backpressure: the bounded accept queue is full; retry later.
    Rejected = 5,
    /// The request's deadline elapsed before a reply could be sent.
    DeadlineExceeded = 6,
    /// The frame parses but the content is unusable (edge out of range,
    /// self-loop, missing energy for an energy policy, n over the cap).
    BadInput = 7,
    /// Server-side failure unrelated to the request bytes.
    Internal = 8,
    /// The named churn graph is not open on this server.
    UnknownGraph = 9,
    /// An `OpenGraph` named a graph that is already open.
    GraphExists = 10,
    /// A mutation event was rejected (unknown node, dead node, out of
    /// bounds); events before it in the batch stay applied, the rejected
    /// one and everything after it do not.
    MutationRejected = 11,
    /// The subscriber fell too far behind the push stream (its bounded
    /// queue overflowed); the server sends this and closes the
    /// subscription connection. Data-path connections are unaffected.
    SubscriberLagged = 12,
}

impl ErrorCode {
    /// Decodes a wire discriminant.
    pub fn from_wire(b: u8) -> Option<Self> {
        Some(match b {
            1 => Self::UnsupportedVersion,
            2 => Self::UnknownKind,
            3 => Self::Malformed,
            4 => Self::Oversized,
            5 => Self::Rejected,
            6 => Self::DeadlineExceeded,
            7 => Self::BadInput,
            8 => Self::Internal,
            9 => Self::UnknownGraph,
            10 => Self::GraphExists,
            11 => Self::MutationRejected,
            12 => Self::SubscriberLagged,
            _ => return None,
        })
    }

    /// Whether the connection is left in an unusable state (framing lost)
    /// and the server closes it after sending this error.
    pub fn is_connection_fatal(self) -> bool {
        matches!(
            self,
            Self::UnsupportedVersion | Self::UnknownKind | Self::Malformed | Self::Oversized
        )
    }
}

/// Stats output format selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum StatsFormat {
    /// Human-readable table.
    Table = 0,
    /// One JSON object (the obs snapshot JSONL line).
    Jsonl = 1,
    /// Prometheus text exposition.
    Prometheus = 2,
    /// Counters only, empty text block: the cheap health-probe form — no
    /// obs snapshot capture, no rendering. This is what a cluster
    /// coordinator polls every few hundred milliseconds.
    Health = 3,
}

impl StatsFormat {
    /// Decodes a wire discriminant.
    pub fn from_wire(b: u8) -> Option<Self> {
        Some(match b {
            0 => Self::Table,
            1 => Self::Jsonl,
            2 => Self::Prometheus,
            3 => Self::Health,
            _ => return None,
        })
    }
}

/// A decode failure; the server maps it onto an [`ErrorCode`] reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the field being read.
    Truncated,
    /// Bytes remained after the body's last field.
    Trailing,
    /// A field held an out-of-range or inconsistent value.
    Bad(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("truncated payload"),
            DecodeError::Trailing => f.write_str("trailing bytes after body"),
            DecodeError::Bad(what) => write!(f, "bad field: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl DecodeError {
    /// The typed error a server answers this failure with. A `Bad` field
    /// is `BadInput`: the frame boundary was consistent, so the connection
    /// stays usable. A truncated or trailing body is `Malformed`, which is
    /// connection-fatal.
    pub fn wire_error(&self) -> (ErrorCode, &'static str) {
        match self {
            DecodeError::Bad(what) => (ErrorCode::BadInput, what),
            DecodeError::Truncated => (ErrorCode::Malformed, "truncated body"),
            DecodeError::Trailing => (ErrorCode::Malformed, "trailing bytes after body"),
        }
    }
}

/// Bounds-checked little-endian reader over one payload.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Next `u8`.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.bytes(1)?[0])
    }

    /// Next little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    /// Next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Next IEEE-754 `f64` (little-endian bit pattern).
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Asserts the body is fully consumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::Trailing)
        }
    }
}

/// Appends little-endian scalars to a frame under construction.
pub trait WireWrite {
    /// Appends raw bytes.
    fn put(&mut self, bytes: &[u8]);
    /// Appends a `u8`.
    fn put_u8(&mut self, v: u8) {
        self.put(&[v]);
    }
    /// Appends a little-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put(&v.to_le_bytes());
    }
    /// Appends a little-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }
    /// Appends a little-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }
    /// Appends an `f64` bit pattern.
    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

impl WireWrite for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Starts a frame in `out` (clears it, reserves the length prefix, writes
/// version + kind). Finish with [`end_frame`].
pub fn begin_frame(out: &mut Vec<u8>, kind: u8) {
    out.clear();
    out.extend_from_slice(&[0; LEN_PREFIX]);
    out.put_u8(PROTOCOL_VERSION);
    out.put_u8(kind);
}

/// Patches the length prefix of a frame begun with [`begin_frame`].
pub fn end_frame(out: &mut [u8]) {
    let len = (out.len() - LEN_PREFIX) as u32;
    out[..LEN_PREFIX].copy_from_slice(&len.to_le_bytes());
}

/// Wire encoding of a [`CdsConfig`] as a stack array (4 bytes) — also the
/// bytes folded into cache keys, so it must stay stable.
pub fn config_bytes(cfg: &CdsConfig) -> [u8; 4] {
    [
        match cfg.policy {
            Policy::NoPruning => 0,
            Policy::Id => 1,
            Policy::Degree => 2,
            Policy::Energy => 3,
            Policy::EnergyDegree => 4,
        },
        match cfg.schedule {
            PruneSchedule::SinglePass => 0,
            PruneSchedule::Fixpoint => 1,
        },
        match cfg.rule2 {
            Rule2Semantics::MinOfThree => 0,
            Rule2Semantics::CaseAnalysis => 1,
        },
        match cfg.application {
            Application::Simultaneous => 0,
            Application::Sequential => 1,
        },
    ]
}

/// Appends the 4-byte [`CdsConfig`] encoding to a frame.
pub fn put_config(out: &mut Vec<u8>, cfg: &CdsConfig) {
    out.put(&config_bytes(cfg));
}

/// Decodes the 4-byte [`CdsConfig`] encoding.
pub fn read_config(r: &mut Reader<'_>) -> Result<CdsConfig, DecodeError> {
    let policy = match r.u8()? {
        0 => Policy::NoPruning,
        1 => Policy::Id,
        2 => Policy::Degree,
        3 => Policy::Energy,
        4 => Policy::EnergyDegree,
        _ => return Err(DecodeError::Bad("policy")),
    };
    let schedule = match r.u8()? {
        0 => PruneSchedule::SinglePass,
        1 => PruneSchedule::Fixpoint,
        _ => return Err(DecodeError::Bad("schedule")),
    };
    let rule2 = match r.u8()? {
        0 => Rule2Semantics::MinOfThree,
        1 => Rule2Semantics::CaseAnalysis,
        _ => return Err(DecodeError::Bad("rule2 semantics")),
    };
    let application = match r.u8()? {
        0 => Application::Simultaneous,
        1 => Application::Sequential,
        _ => return Err(DecodeError::Bad("application")),
    };
    Ok(CdsConfig {
        policy,
        schedule,
        rule2,
        application,
    })
}

/// A decoded compute-CDS request. Edge and energy payloads stay as raw
/// borrowed bytes so the hot path can stream them without allocating.
#[derive(Debug, Clone)]
pub struct ComputeCdsRequest<'a> {
    /// Request flags ([`FLAG_NO_CACHE`]).
    pub flags: u8,
    /// Per-request deadline in milliseconds from frame receipt; 0 = none.
    pub deadline_ms: u32,
    /// CDS configuration to run.
    pub cfg: CdsConfig,
    /// Vertex count.
    pub n: u32,
    /// Edge count as declared (pre-dedup).
    pub m: u32,
    /// `m × 8` raw bytes: each edge as two little-endian `u32`s.
    pub edges_raw: &'a [u8],
    /// `n × 8` raw bytes of little-endian `u64` energies, if present.
    pub energy_raw: Option<&'a [u8]>,
}

impl<'a> ComputeCdsRequest<'a> {
    /// Decodes a `ComputeCds` body (the payload after version + kind).
    pub fn decode(body: &'a [u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(body);
        let flags = r.u8()?;
        let deadline_ms = r.u32()?;
        let cfg = read_config(&mut r)?;
        let has_energy = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(DecodeError::Bad("has_energy")),
        };
        let n = r.u32()?;
        if n > MAX_NODES {
            return Err(DecodeError::Bad("n exceeds MAX_NODES"));
        }
        let m = r.u32()?;
        let edge_bytes = (m as usize)
            .checked_mul(8)
            .ok_or(DecodeError::Bad("edge count overflow"))?;
        let edges_raw = r.bytes(edge_bytes)?;
        let energy_raw = if has_energy {
            Some(r.bytes(n as usize * 8)?)
        } else {
            None
        };
        r.finish()?;
        if cfg.policy.needs_energy() && energy_raw.is_none() {
            return Err(DecodeError::Bad("energy required by policy"));
        }
        Ok(Self {
            flags,
            deadline_ms,
            cfg,
            n,
            m,
            edges_raw,
            energy_raw,
        })
    }

    /// Iterates the raw edges in wire order (no validation).
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + 'a {
        self.edges_raw.chunks_exact(8).map(|c| {
            (
                u32::from_le_bytes(c[0..4].try_into().unwrap()),
                u32::from_le_bytes(c[4..8].try_into().unwrap()),
            )
        })
    }

    /// Iterates the raw energies in host order, if present.
    pub fn energies(&self) -> Option<impl Iterator<Item = u64> + 'a> {
        self.energy_raw
            .map(|raw| raw.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())))
    }

    /// Validates the edges (endpoints below `n`, no self-loops) and writes
    /// them into `out` canonicalised — the form the cache and routing keys
    /// fold, so server and coordinator agree on key and `BadInput` alike.
    pub fn canonical_edges(&self, out: &mut Vec<(u32, u32)>) -> Result<(), DecodeError> {
        out.clear();
        for (u, v) in self.edges() {
            if u >= self.n || v >= self.n {
                return Err(DecodeError::Bad("edge endpoint out of range"));
            }
            if u == v {
                return Err(DecodeError::Bad("self-loop"));
            }
            out.push((u, v));
        }
        pacds_graph::canonicalize_edges(out);
        Ok(())
    }
}

/// A decoded generate-and-compute request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenComputeRequest {
    /// Request flags ([`FLAG_NO_CACHE`]).
    pub flags: u8,
    /// Per-request deadline in milliseconds from frame receipt; 0 = none.
    pub deadline_ms: u32,
    /// CDS configuration to run.
    pub cfg: CdsConfig,
    /// Host count.
    pub n: u32,
    /// Placement RNG seed.
    pub seed: u64,
    /// Transmission radius.
    pub radius: f64,
    /// Arena side length (square arena).
    pub side: f64,
    /// Resample placements until connected (up to a bounded retry count).
    pub connected: bool,
    /// Seed for random per-host energies; `None` = uniform full energy.
    pub energy_seed: Option<u64>,
}

impl GenComputeRequest {
    /// Decodes a `GenCompute` body.
    pub fn decode(body: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(body);
        let flags = r.u8()?;
        let deadline_ms = r.u32()?;
        let cfg = read_config(&mut r)?;
        let n = r.u32()?;
        if n > MAX_NODES {
            return Err(DecodeError::Bad("n exceeds MAX_NODES"));
        }
        let seed = r.u64()?;
        let radius = r.f64()?;
        let side = r.f64()?;
        if !radius.is_finite() || radius <= 0.0 || !side.is_finite() || side <= 0.0 {
            return Err(DecodeError::Bad("radius/side must be finite and positive"));
        }
        let connected = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(DecodeError::Bad("connected")),
        };
        let energy_seed = match r.u8()? {
            0 => {
                let _ = r.u64()?; // reserved slot, must still be present
                None
            }
            1 => Some(r.u64()?),
            _ => return Err(DecodeError::Bad("has_energy_seed")),
        };
        r.finish()?;
        Ok(Self {
            flags,
            deadline_ms,
            cfg,
            n,
            seed,
            radius,
            side,
            connected,
            energy_seed,
        })
    }

    /// Encodes this request as a complete frame into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        begin_frame(out, RequestKind::GenCompute as u8);
        out.put_u8(self.flags);
        out.put_u32(self.deadline_ms);
        put_config(out, &self.cfg);
        out.put_u32(self.n);
        out.put_u64(self.seed);
        out.put_f64(self.radius);
        out.put_f64(self.side);
        out.put_u8(self.connected as u8);
        match self.energy_seed {
            None => {
                out.put_u8(0);
                out.put_u64(0);
            }
            Some(s) => {
                out.put_u8(1);
                out.put_u64(s);
            }
        }
        end_frame(out);
    }
}

/// Encodes a complete `ComputeCds` request frame from edge/energy slices.
pub fn encode_compute_cds(
    out: &mut Vec<u8>,
    flags: u8,
    deadline_ms: u32,
    cfg: &CdsConfig,
    n: u32,
    edges: &[(u32, u32)],
    energy: Option<&[u64]>,
) {
    begin_frame(out, RequestKind::ComputeCds as u8);
    out.put_u8(flags);
    out.put_u32(deadline_ms);
    put_config(out, cfg);
    out.put_u8(energy.is_some() as u8);
    out.put_u32(n);
    out.put_u32(edges.len() as u32);
    for &(u, v) in edges {
        out.put_u32(u);
        out.put_u32(v);
    }
    if let Some(levels) = energy {
        debug_assert_eq!(levels.len(), n as usize);
        for &e in levels {
            out.put_u64(e);
        }
    }
    end_frame(out);
}

/// Encodes a complete `Stats` request frame.
pub fn encode_stats_request(out: &mut Vec<u8>, format: StatsFormat) {
    begin_frame(out, RequestKind::Stats as u8);
    out.put_u8(format as u8);
    end_frame(out);
}

/// Decodes a `Stats` request body.
pub fn decode_stats_request(body: &[u8]) -> Result<StatsFormat, DecodeError> {
    let mut r = Reader::new(body);
    let format = StatsFormat::from_wire(r.u8()?).ok_or(DecodeError::Bad("stats format"))?;
    r.finish()?;
    Ok(format)
}

/// Splits a request payload into its kind and body, or names the typed,
/// connection-fatal error a server answers a bad header with.
pub fn request_header(payload: &[u8]) -> Result<(RequestKind, &[u8]), (ErrorCode, &'static str)> {
    match payload {
        [] | [_] => Err((ErrorCode::Malformed, "payload shorter than header")),
        [version, ..] if *version != PROTOCOL_VERSION => {
            Err((ErrorCode::UnsupportedVersion, "unsupported version"))
        }
        [_, kind, body @ ..] => RequestKind::from_wire(*kind)
            .map(|kind| (kind, body))
            .ok_or((ErrorCode::UnknownKind, "unknown request kind")),
    }
}

/// Encodes a complete `Ping` request frame.
pub fn encode_ping(out: &mut Vec<u8>) {
    begin_frame(out, RequestKind::Ping as u8);
    end_frame(out);
}

/// Encodes a complete `Error` response frame.
pub fn encode_error(out: &mut Vec<u8>, code: ErrorCode, msg: &str) {
    begin_frame(out, ResponseKind::Error as u8);
    out.put_u8(code as u8);
    out.put_u32(msg.len() as u32);
    out.put(msg.as_bytes());
    end_frame(out);
}

/// A decoded CDS result (client side; owns the mask).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CdsResult {
    /// Whether the server answered from its result cache.
    pub cache_hit: bool,
    /// Marked-set size (after the marking process).
    pub marked: u32,
    /// Set size after Rule 1.
    pub after_rule1: u32,
    /// Final gateway count.
    pub gateways: u32,
    /// (Rule 1; Rule 2) rounds executed.
    pub rounds: u32,
    /// The gateway mask, length `n`.
    pub mask: VertexMask,
}

/// Decodes a `CdsResult` body.
pub fn decode_cds_result(body: &[u8]) -> Result<CdsResult, DecodeError> {
    let mut r = Reader::new(body);
    let cache_hit = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(DecodeError::Bad("cache_hit")),
    };
    let n = r.u32()?;
    let marked = r.u32()?;
    let after_rule1 = r.u32()?;
    let gateways = r.u32()?;
    let rounds = r.u32()?;
    let mask_bytes = r.bytes(n.div_ceil(8) as usize)?;
    r.finish()?;
    let mut mask = vec![false; n as usize];
    let mut count = 0u32;
    for (v, slot) in mask.iter_mut().enumerate() {
        if mask_bytes[v / 8] >> (v % 8) & 1 == 1 {
            *slot = true;
            count += 1;
        }
    }
    if count != gateways {
        return Err(DecodeError::Bad("gateway count / mask mismatch"));
    }
    Ok(CdsResult {
        cache_hit,
        marked,
        after_rule1,
        gateways,
        rounds,
        mask,
    })
}

/// One decoded server statistic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatEntry {
    /// Stable counter name (e.g. `"cache_hits"`).
    pub name: String,
    /// Counter value.
    pub value: u64,
}

/// A decoded stats response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsResult {
    /// The server's always-on counters.
    pub counters: Vec<StatEntry>,
    /// Rendered `pacds-obs` snapshot in the requested format (empty body
    /// when the server was built without `--features obs`).
    pub text: String,
}

impl StatsResult {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }
}

/// Encodes a complete `StatsResult` response frame: the named counters,
/// then the rendered `text` block.
pub fn encode_stats_result<N: AsRef<str>>(out: &mut Vec<u8>, entries: &[(N, u64)], text: &[u8]) {
    begin_frame(out, ResponseKind::StatsResult as u8);
    out.put_u32(entries.len() as u32);
    for (name, value) in entries {
        let name = name.as_ref();
        out.put_u16(name.len() as u16);
        out.put(name.as_bytes());
        out.put_u64(*value);
    }
    out.put_u32(text.len() as u32);
    out.put(text);
    end_frame(out);
}

/// Decodes a `StatsResult` body.
pub fn decode_stats_result(body: &[u8]) -> Result<StatsResult, DecodeError> {
    let mut r = Reader::new(body);
    let k = r.u32()?;
    let mut counters = Vec::with_capacity(k.min(1024) as usize);
    for _ in 0..k {
        let name_len = r.u16()? as usize;
        let name = std::str::from_utf8(r.bytes(name_len)?)
            .map_err(|_| DecodeError::Bad("counter name utf-8"))?
            .to_string();
        let value = r.u64()?;
        counters.push(StatEntry { name, value });
    }
    let text_len = r.u32()? as usize;
    let text = std::str::from_utf8(r.bytes(text_len)?)
        .map_err(|_| DecodeError::Bad("stats text utf-8"))?
        .to_string();
    r.finish()?;
    Ok(StatsResult { counters, text })
}

/// A decoded error response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The typed code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

/// Decodes an `Error` body.
pub fn decode_error(body: &[u8]) -> Result<WireError, DecodeError> {
    let mut r = Reader::new(body);
    let code = ErrorCode::from_wire(r.u8()?).ok_or(DecodeError::Bad("error code"))?;
    let msg_len = r.u32()? as usize;
    let message = std::str::from_utf8(r.bytes(msg_len)?)
        .map_err(|_| DecodeError::Bad("error message utf-8"))?
        .to_string();
    r.finish()?;
    Ok(WireError { code, message })
}

// ---------------------------------------------------------------------
// Churn graph frames (OpenGraph / Mutate / CloseGraph / QueryTile)
// ---------------------------------------------------------------------

/// Maximum graph-name length in bytes.
pub const MAX_GRAPH_NAME: usize = 255;

/// Maximum events per `Mutate` frame.
pub const MAX_MUTATION_BATCH: u32 = 65_536;

/// Reads a length-prefixed (`u16`) UTF-8 graph name — the field every
/// graph-scoped request body starts with.
pub fn read_name<'a>(r: &mut Reader<'a>) -> Result<&'a str, DecodeError> {
    let len = r.u16()? as usize;
    if len == 0 || len > MAX_GRAPH_NAME {
        return Err(DecodeError::Bad("graph name length"));
    }
    std::str::from_utf8(r.bytes(len)?).map_err(|_| DecodeError::Bad("graph name utf-8"))
}

fn put_name(out: &mut Vec<u8>, name: &str) {
    debug_assert!(!name.is_empty() && name.len() <= MAX_GRAPH_NAME);
    out.put_u16(name.len() as u16);
    out.put(name.as_bytes());
}

/// A mutation event on the wire — mirrors `pacds_shard::ChurnEvent`
/// field for field (kind byte: 0 Add, 1 Move, 2 Kill, 3 Drain).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireEvent {
    /// Spawn a host at `(x, y)` with `energy` residual units.
    Add {
        /// Spawn x coordinate.
        x: f64,
        /// Spawn y coordinate.
        y: f64,
        /// Initial residual energy.
        energy: u64,
    },
    /// Move host `node` to `(x, y)`.
    Move {
        /// The moving host.
        node: u32,
        /// Destination x coordinate.
        x: f64,
        /// Destination y coordinate.
        y: f64,
    },
    /// Switch host `node` off permanently.
    Kill {
        /// The dying host.
        node: u32,
    },
    /// Set host `node`'s residual energy to the absolute level `remaining`.
    Drain {
        /// The draining host.
        node: u32,
        /// New absolute residual level.
        remaining: u64,
    },
}

impl WireEvent {
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Self::Add { x, y, energy } => {
                out.put_u8(0);
                out.put_f64(x);
                out.put_f64(y);
                out.put_u64(energy);
            }
            Self::Move { node, x, y } => {
                out.put_u8(1);
                out.put_u32(node);
                out.put_f64(x);
                out.put_f64(y);
            }
            Self::Kill { node } => {
                out.put_u8(2);
                out.put_u32(node);
            }
            Self::Drain { node, remaining } => {
                out.put_u8(3);
                out.put_u32(node);
                out.put_u64(remaining);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.u8()? {
            0 => {
                let (x, y, energy) = (r.f64()?, r.f64()?, r.u64()?);
                if !x.is_finite() || !y.is_finite() {
                    return Err(DecodeError::Bad("event coordinates must be finite"));
                }
                Self::Add { x, y, energy }
            }
            1 => {
                let (node, x, y) = (r.u32()?, r.f64()?, r.f64()?);
                if !x.is_finite() || !y.is_finite() {
                    return Err(DecodeError::Bad("event coordinates must be finite"));
                }
                Self::Move { node, x, y }
            }
            2 => Self::Kill { node: r.u32()? },
            3 => Self::Drain {
                node: r.u32()?,
                remaining: r.u64()?,
            },
            _ => return Err(DecodeError::Bad("event kind")),
        })
    }
}

/// A decoded open-graph request. Point and energy payloads stay as raw
/// borrowed bytes.
#[derive(Debug, Clone)]
pub struct OpenGraphRequest<'a> {
    /// The graph's registry name.
    pub name: &'a str,
    /// CDS configuration the graph will run (must be shardable).
    pub cfg: CdsConfig,
    /// Shard (tile) count; `0` lets the churn engine derive its grid from
    /// the radius, the domain and `n` (tiles twice the 2-hop margin wide,
    /// at least 64 hosts each on average).
    pub shards: u32,
    /// Unit-disk transmission radius.
    pub radius: f64,
    /// Tile-domain bounds as `(x0, y0, x1, y1)`.
    pub bounds: (f64, f64, f64, f64),
    /// Initial host count.
    pub n: u32,
    /// `n × 16` raw bytes: each point as two little-endian `f64`s.
    pub points_raw: &'a [u8],
    /// `n × 8` raw bytes of little-endian `u64` energies (always present;
    /// energy is churn-graph state even under energy-blind policies).
    pub energy_raw: &'a [u8],
}

impl<'a> OpenGraphRequest<'a> {
    /// Decodes an `OpenGraph` body.
    pub fn decode(body: &'a [u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(body);
        let name = read_name(&mut r)?;
        let cfg = read_config(&mut r)?;
        let shards = r.u32()?;
        let radius = r.f64()?;
        if !radius.is_finite() || radius <= 0.0 {
            return Err(DecodeError::Bad("radius must be finite and positive"));
        }
        let bounds = (r.f64()?, r.f64()?, r.f64()?, r.f64()?);
        if !(bounds.0.is_finite() && bounds.1.is_finite() && bounds.2.is_finite() && bounds.3.is_finite())
            || bounds.0 > bounds.2
            || bounds.1 > bounds.3
        {
            return Err(DecodeError::Bad("bounds must be a finite ordered rectangle"));
        }
        let n = r.u32()?;
        if n > MAX_NODES {
            return Err(DecodeError::Bad("n exceeds MAX_NODES"));
        }
        let points_raw = r.bytes(n as usize * 16)?;
        let energy_raw = r.bytes(n as usize * 8)?;
        r.finish()?;
        for c in points_raw.chunks_exact(8) {
            if !f64::from_le_bytes(c.try_into().unwrap()).is_finite() {
                return Err(DecodeError::Bad("point coordinates must be finite"));
            }
        }
        Ok(Self {
            name,
            cfg,
            shards,
            radius,
            bounds,
            n,
            points_raw,
            energy_raw,
        })
    }

    /// Iterates the points in host order.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + 'a {
        self.points_raw.chunks_exact(16).map(|c| {
            (
                f64::from_le_bytes(c[0..8].try_into().unwrap()),
                f64::from_le_bytes(c[8..16].try_into().unwrap()),
            )
        })
    }

    /// Iterates the energies in host order.
    pub fn energies(&self) -> impl Iterator<Item = u64> + 'a {
        self.energy_raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
    }
}

/// Encodes a complete `OpenGraph` request frame.
#[allow(clippy::too_many_arguments)]
pub fn encode_open_graph(
    out: &mut Vec<u8>,
    name: &str,
    cfg: &CdsConfig,
    shards: u32,
    radius: f64,
    bounds: (f64, f64, f64, f64),
    points: &[(f64, f64)],
    energy: &[u64],
) {
    debug_assert_eq!(points.len(), energy.len());
    begin_frame(out, RequestKind::OpenGraph as u8);
    put_name(out, name);
    put_config(out, cfg);
    out.put_u32(shards);
    out.put_f64(radius);
    out.put_f64(bounds.0);
    out.put_f64(bounds.1);
    out.put_f64(bounds.2);
    out.put_f64(bounds.3);
    out.put_u32(points.len() as u32);
    for &(x, y) in points {
        out.put_f64(x);
        out.put_f64(y);
    }
    for &e in energy {
        out.put_u64(e);
    }
    end_frame(out);
}

/// Decodes a `Mutate` body into the graph name and its event batch.
pub fn decode_mutate(body: &[u8]) -> Result<(&str, Vec<WireEvent>), DecodeError> {
    let mut r = Reader::new(body);
    let name = read_name(&mut r)?;
    let k = r.u32()?;
    if k > MAX_MUTATION_BATCH {
        return Err(DecodeError::Bad("mutation batch too large"));
    }
    let mut events = Vec::with_capacity(k.min(4096) as usize);
    for _ in 0..k {
        events.push(WireEvent::decode(&mut r)?);
    }
    r.finish()?;
    Ok((name, events))
}

/// Encodes a complete `Mutate` request frame.
pub fn encode_mutate(out: &mut Vec<u8>, name: &str, events: &[WireEvent]) {
    begin_frame(out, RequestKind::Mutate as u8);
    put_name(out, name);
    out.put_u32(events.len() as u32);
    for ev in events {
        ev.encode(out);
    }
    end_frame(out);
}

/// Decodes a `CloseGraph` body (just the name).
pub fn decode_close_graph(body: &[u8]) -> Result<&str, DecodeError> {
    let mut r = Reader::new(body);
    let name = read_name(&mut r)?;
    r.finish()?;
    Ok(name)
}

/// Encodes a complete `CloseGraph` request frame.
pub fn encode_close_graph(out: &mut Vec<u8>, name: &str) {
    begin_frame(out, RequestKind::CloseGraph as u8);
    put_name(out, name);
    end_frame(out);
}

/// Decodes a `QueryTile` body into the graph name and tile index.
pub fn decode_query_tile(body: &[u8]) -> Result<(&str, u32), DecodeError> {
    let mut r = Reader::new(body);
    let name = read_name(&mut r)?;
    let tile = r.u32()?;
    r.finish()?;
    Ok((name, tile))
}

/// Encodes a complete `QueryTile` request frame.
pub fn encode_query_tile(out: &mut Vec<u8>, name: &str, tile: u32) {
    begin_frame(out, RequestKind::QueryTile as u8);
    put_name(out, name);
    out.put_u32(tile);
    end_frame(out);
}

/// A decoded graph-opened response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphOpened {
    /// Tiles in the graph's fixed grid.
    pub tiles: u32,
    /// Initial host count.
    pub n: u32,
    /// Gateways after the initial full solve.
    pub gateways: u32,
}

/// Decodes a `GraphOpened` body.
pub fn decode_graph_opened(body: &[u8]) -> Result<GraphOpened, DecodeError> {
    let mut r = Reader::new(body);
    let out = GraphOpened {
        tiles: r.u32()?,
        n: r.u32()?,
        gateways: r.u32()?,
    };
    r.finish()?;
    Ok(out)
}

/// A decoded mutate response: the churn metrics of one refreshed batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutateResult {
    /// Events applied (equals the batch size on success).
    pub applied: u32,
    /// Tiles the batch dirtied.
    pub dirty_tiles: u32,
    /// Tiles actually re-solved by the refresh.
    pub resolved_tiles: u32,
    /// Total tiles in the fixed grid.
    pub total_tiles: u32,
    /// Gateway verdicts flipped by the refresh.
    pub gateway_flips: u64,
    /// Gateway count after the refresh.
    pub gateways: u32,
    /// Host-slot count after the batch (grows with Add events).
    pub n: u32,
}

/// Decodes a `MutateResult` body.
pub fn decode_mutate_result(body: &[u8]) -> Result<MutateResult, DecodeError> {
    let mut r = Reader::new(body);
    let out = MutateResult {
        applied: r.u32()?,
        dirty_tiles: r.u32()?,
        resolved_tiles: r.u32()?,
        total_tiles: r.u32()?,
        gateway_flips: r.u64()?,
        gateways: r.u32()?,
        n: r.u32()?,
    };
    r.finish()?;
    Ok(out)
}

/// A decoded tile-result response: the tile's owned hosts in ascending id
/// order with their verdict bit-sets (bit 0 marked, bit 1 after-Rule-1,
/// bit 2 gateway — dead hosts carry 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileResult {
    /// The queried tile.
    pub tile: u32,
    /// `(host id, verdict bits)` for every owned host, ascending by id.
    pub entries: Vec<(u32, u8)>,
}

/// Decodes a `TileResult` body.
pub fn decode_tile_result(body: &[u8]) -> Result<TileResult, DecodeError> {
    let mut r = Reader::new(body);
    let tile = r.u32()?;
    let k = r.u32()?;
    let mut entries = Vec::with_capacity(k.min(1 << 20) as usize);
    for _ in 0..k {
        entries.push((r.u32()?, r.u8()?));
    }
    r.finish()?;
    Ok(TileResult { tile, entries })
}

/// Subscription flag: push periodic [`ResponseKind::StatsDelta`] frames.
pub const SUB_STATS: u8 = 0b0000_0001;

/// Subscription flag: push per-refresh [`ResponseKind::FlipEvent`] frames.
pub const SUB_FLIPS: u8 = 0b0000_0010;

/// Fastest stats-delta cadence a subscriber may request.
pub const MIN_SUBSCRIBE_INTERVAL_MS: u32 = 10;

/// A decoded `Subscribe` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubscribeRequest<'a> {
    /// [`SUB_STATS`] | [`SUB_FLIPS`]; at least one bit is set.
    pub flags: u8,
    /// Stats-delta push cadence in milliseconds.
    pub interval_ms: u32,
    /// Restrict flip events to this named graph; `None` = all graphs.
    pub graph: Option<&'a str>,
}

/// Decodes a `Subscribe` body.
pub fn decode_subscribe(body: &[u8]) -> Result<SubscribeRequest<'_>, DecodeError> {
    let mut r = Reader::new(body);
    let flags = r.u8()?;
    if flags == 0 || flags & !(SUB_STATS | SUB_FLIPS) != 0 {
        return Err(DecodeError::Bad("subscribe flags"));
    }
    let interval_ms = r.u32()?;
    if flags & SUB_STATS != 0 && interval_ms < MIN_SUBSCRIBE_INTERVAL_MS {
        return Err(DecodeError::Bad("subscribe interval"));
    }
    let len = r.u16()? as usize;
    let graph = if len == 0 {
        None
    } else {
        if len > MAX_GRAPH_NAME {
            return Err(DecodeError::Bad("graph name length"));
        }
        Some(
            std::str::from_utf8(r.bytes(len)?).map_err(|_| DecodeError::Bad("graph name utf-8"))?,
        )
    };
    r.finish()?;
    Ok(SubscribeRequest {
        flags,
        interval_ms,
        graph,
    })
}

/// Encodes a complete `Subscribe` request frame.
pub fn encode_subscribe(out: &mut Vec<u8>, flags: u8, interval_ms: u32, graph: Option<&str>) {
    begin_frame(out, RequestKind::Subscribe as u8);
    out.put_u8(flags);
    out.put_u32(interval_ms);
    match graph {
        Some(name) => put_name(out, name),
        None => out.put_u16(0),
    }
    end_frame(out);
}

/// A decoded subscribe acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscribeAck {
    /// Server-assigned subscriber id (diagnostic; unique per server run).
    pub subscriber_id: u64,
    /// The accepted flags.
    pub flags: u8,
    /// The accepted stats cadence.
    pub interval_ms: u32,
}

/// Encodes a complete `SubscribeAck` response frame.
pub fn encode_subscribe_ack(out: &mut Vec<u8>, ack: SubscribeAck) {
    begin_frame(out, ResponseKind::SubscribeAck as u8);
    out.put_u64(ack.subscriber_id);
    out.put_u8(ack.flags);
    out.put_u32(ack.interval_ms);
    end_frame(out);
}

/// Decodes a `SubscribeAck` body.
pub fn decode_subscribe_ack(body: &[u8]) -> Result<SubscribeAck, DecodeError> {
    let mut r = Reader::new(body);
    let out = SubscribeAck {
        subscriber_id: r.u64()?,
        flags: r.u8()?,
        interval_ms: r.u32()?,
    };
    r.finish()?;
    Ok(out)
}

/// One pushed telemetry window: deltas since the previous push, not
/// lifetime totals. Mirrors `pacds_obs::WindowDelta` but is plain wire
/// data, so the protocol stays independent of the obs feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsDelta {
    /// Window sequence number (per subscription, 0-based).
    pub seq: u64,
    /// Window length in microseconds.
    pub dt_us: u64,
    /// Requests completed in the window.
    pub requests: u64,
    /// Latency samples behind the percentiles.
    pub samples: u64,
    /// In-window median compute latency (bucket upper bound, ns).
    pub p50_ns: u64,
    /// In-window p99 compute latency (bucket upper bound, ns).
    pub p99_ns: u64,
    /// Gateway verdict flips in the window.
    pub gateway_flips: u64,
    /// Tiles re-solved in the window.
    pub tiles_resolved: u64,
    /// Churn refreshes in the window.
    pub refreshes: u64,
    /// Push frames dropped server-wide so far (lifetime counter — lets a
    /// surviving subscriber see that *some* consumer is lagging).
    pub push_dropped: u64,
}

/// Encodes a complete `StatsDelta` push frame.
pub fn encode_stats_delta(out: &mut Vec<u8>, d: &StatsDelta) {
    begin_frame(out, ResponseKind::StatsDelta as u8);
    out.put_u64(d.seq);
    out.put_u64(d.dt_us);
    out.put_u64(d.requests);
    out.put_u64(d.samples);
    out.put_u64(d.p50_ns);
    out.put_u64(d.p99_ns);
    out.put_u64(d.gateway_flips);
    out.put_u64(d.tiles_resolved);
    out.put_u64(d.refreshes);
    out.put_u64(d.push_dropped);
    end_frame(out);
}

/// Decodes a `StatsDelta` body.
pub fn decode_stats_delta(body: &[u8]) -> Result<StatsDelta, DecodeError> {
    let mut r = Reader::new(body);
    let out = StatsDelta {
        seq: r.u64()?,
        dt_us: r.u64()?,
        requests: r.u64()?,
        samples: r.u64()?,
        p50_ns: r.u64()?,
        p99_ns: r.u64()?,
        gateway_flips: r.u64()?,
        tiles_resolved: r.u64()?,
        refreshes: r.u64()?,
        push_dropped: r.u64()?,
    };
    r.finish()?;
    Ok(out)
}

/// One pushed gateway-flip event: a named graph finished a refresh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlipEvent {
    /// The refreshed graph.
    pub name: String,
    /// The graph's refresh count after this refresh (1-based).
    pub refresh_seq: u64,
    /// Gateway verdicts the refresh flipped.
    pub gateway_flips: u64,
    /// Gateway count after the refresh.
    pub gateways: u32,
    /// The tiles the refresh re-solved (the Mutate batch's dirty set).
    pub tiles: Vec<u32>,
}

/// Encodes a complete `FlipEvent` push frame.
pub fn encode_flip_event(
    out: &mut Vec<u8>,
    name: &str,
    refresh_seq: u64,
    gateway_flips: u64,
    gateways: u32,
    tiles: &[u32],
) {
    begin_frame(out, ResponseKind::FlipEvent as u8);
    put_name(out, name);
    out.put_u64(refresh_seq);
    out.put_u64(gateway_flips);
    out.put_u32(gateways);
    out.put_u32(tiles.len() as u32);
    for &t in tiles {
        out.put_u32(t);
    }
    end_frame(out);
}

/// Decodes a `FlipEvent` body.
pub fn decode_flip_event(body: &[u8]) -> Result<FlipEvent, DecodeError> {
    let mut r = Reader::new(body);
    let name = read_name(&mut r)?.to_owned();
    let refresh_seq = r.u64()?;
    let gateway_flips = r.u64()?;
    let gateways = r.u32()?;
    let k = r.u32()?;
    let mut tiles = Vec::with_capacity(k.min(1 << 20) as usize);
    for _ in 0..k {
        tiles.push(r.u32()?);
    }
    r.finish()?;
    Ok(FlipEvent {
        name,
        refresh_seq,
        gateway_flips,
        gateways,
        tiles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(frame: &[u8]) -> &[u8] {
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - LEN_PREFIX, "length prefix consistent");
        &frame[LEN_PREFIX..]
    }

    #[test]
    fn compute_cds_round_trip() {
        let cfg = CdsConfig::sequential(Policy::EnergyDegree);
        let edges = [(0u32, 1u32), (3, 1), (2, 0)];
        let energy = [5u64, 0, 9, 7];
        let mut out = Vec::new();
        encode_compute_cds(&mut out, FLAG_NO_CACHE, 250, &cfg, 4, &edges, Some(&energy));
        let p = payload(&out);
        assert_eq!(p[0], PROTOCOL_VERSION);
        assert_eq!(RequestKind::from_wire(p[1]), Some(RequestKind::ComputeCds));
        let req = ComputeCdsRequest::decode(&p[2..]).unwrap();
        assert_eq!(req.flags, FLAG_NO_CACHE);
        assert_eq!(req.deadline_ms, 250);
        assert_eq!(req.cfg, cfg);
        assert_eq!(req.n, 4);
        assert_eq!(req.edges().collect::<Vec<_>>(), edges);
        assert_eq!(req.energies().unwrap().collect::<Vec<_>>(), energy);
    }

    #[test]
    fn gen_compute_round_trip() {
        let req = GenComputeRequest {
            flags: 0,
            deadline_ms: 0,
            cfg: CdsConfig::policy(Policy::Degree),
            n: 77,
            seed: 0xDEAD_BEEF,
            radius: 25.0,
            side: 100.0,
            connected: true,
            energy_seed: Some(42),
        };
        let mut out = Vec::new();
        req.encode(&mut out);
        let p = payload(&out);
        assert_eq!(RequestKind::from_wire(p[1]), Some(RequestKind::GenCompute));
        assert_eq!(GenComputeRequest::decode(&p[2..]).unwrap(), req);
    }

    #[test]
    fn error_round_trip() {
        let mut out = Vec::new();
        encode_error(&mut out, ErrorCode::Rejected, "queue full");
        let p = payload(&out);
        assert_eq!(ResponseKind::from_wire(p[1]), Some(ResponseKind::Error));
        let e = decode_error(&p[2..]).unwrap();
        assert_eq!(e.code, ErrorCode::Rejected);
        assert_eq!(e.message, "queue full");
    }

    #[test]
    fn truncated_and_trailing_bodies_are_rejected() {
        let cfg = CdsConfig::policy(Policy::Id);
        let mut out = Vec::new();
        encode_compute_cds(&mut out, 0, 0, &cfg, 3, &[(0, 1), (1, 2)], None);
        let body = &payload(&out)[2..];
        // Every strict prefix fails as Truncated; whole body + junk fails
        // as Trailing.
        for cut in 0..body.len() {
            assert_eq!(
                ComputeCdsRequest::decode(&body[..cut]).unwrap_err(),
                DecodeError::Truncated,
                "cut={cut}"
            );
        }
        let mut extended = body.to_vec();
        extended.push(0);
        assert_eq!(
            ComputeCdsRequest::decode(&extended).unwrap_err(),
            DecodeError::Trailing
        );
    }

    #[test]
    fn bad_discriminants_are_typed_errors() {
        let cfg = CdsConfig::policy(Policy::Energy);
        let mut out = Vec::new();
        encode_compute_cds(&mut out, 0, 0, &cfg, 2, &[(0, 1)], Some(&[1, 2]));
        let body_start = LEN_PREFIX + 2;
        // policy byte out of range
        let mut bad = out.clone();
        bad[body_start + 5] = 9;
        assert!(matches!(
            ComputeCdsRequest::decode(&bad[body_start..]).unwrap_err(),
            DecodeError::Bad("policy")
        ));
        // energy-needing policy without energy
        let mut no_energy = Vec::new();
        encode_compute_cds(&mut no_energy, 0, 0, &cfg, 2, &[(0, 1)], None);
        assert!(matches!(
            ComputeCdsRequest::decode(&no_energy[body_start..]).unwrap_err(),
            DecodeError::Bad("energy required by policy")
        ));
    }

    #[test]
    fn oversized_node_count_is_rejected_at_decode() {
        let cfg = CdsConfig::policy(Policy::Id);
        let mut out = Vec::new();
        encode_compute_cds(&mut out, 0, 0, &cfg, MAX_NODES + 1, &[], None);
        assert!(matches!(
            ComputeCdsRequest::decode(&payload(&out)[2..]).unwrap_err(),
            DecodeError::Bad("n exceeds MAX_NODES")
        ));
    }

    #[test]
    fn cds_result_round_trip_via_manual_encode() {
        // Mirror the server's encoder (handler.rs) for a 10-host mask.
        let mask: Vec<bool> = (0..10).map(|v| v % 3 == 0).collect();
        let mut out = Vec::new();
        begin_frame(&mut out, ResponseKind::CdsResult as u8);
        out.put_u8(0);
        out.put_u32(10);
        out.put_u32(8);
        out.put_u32(6);
        out.put_u32(4);
        out.put_u32(1);
        let mut byte = 0u8;
        for (v, &g) in mask.iter().enumerate() {
            if g {
                byte |= 1 << (v % 8);
            }
            if v % 8 == 7 {
                out.put_u8(byte);
                byte = 0;
            }
        }
        out.put_u8(byte);
        end_frame(&mut out);
        let r = decode_cds_result(&payload(&out)[2..]).unwrap();
        assert!(!r.cache_hit);
        assert_eq!(r.mask, mask);
        assert_eq!(r.gateways, 4);
        assert_eq!(r.rounds, 1);
    }

    #[test]
    fn stats_result_round_trip() {
        let mut out = Vec::new();
        begin_frame(&mut out, ResponseKind::StatsResult as u8);
        out.put_u32(2);
        for (name, value) in [("requests", 17u64), ("cache_hits", 9)] {
            out.put_u16(name.len() as u16);
            out.put(name.as_bytes());
            out.put_u64(value);
        }
        let text = "# HELP pacds nothing\n";
        out.put_u32(text.len() as u32);
        out.put(text.as_bytes());
        end_frame(&mut out);
        let s = decode_stats_result(&payload(&out)[2..]).unwrap();
        assert_eq!(s.counter("requests"), Some(17));
        assert_eq!(s.counter("cache_hits"), Some(9));
        assert_eq!(s.counter("absent"), None);
        assert_eq!(s.text, text);
    }

    #[test]
    fn connection_fatal_codes() {
        for code in [
            ErrorCode::UnsupportedVersion,
            ErrorCode::UnknownKind,
            ErrorCode::Malformed,
            ErrorCode::Oversized,
        ] {
            assert!(code.is_connection_fatal(), "{code:?}");
        }
        for code in [
            ErrorCode::Rejected,
            ErrorCode::DeadlineExceeded,
            ErrorCode::BadInput,
            ErrorCode::Internal,
            ErrorCode::UnknownGraph,
            ErrorCode::GraphExists,
            ErrorCode::MutationRejected,
            ErrorCode::SubscriberLagged,
        ] {
            assert!(!code.is_connection_fatal(), "{code:?}");
        }
    }

    #[test]
    fn subscribe_round_trip() {
        let mut out = Vec::new();
        encode_subscribe(&mut out, SUB_STATS | SUB_FLIPS, 250, Some("fleet-a"));
        let p = payload(&out);
        assert_eq!(RequestKind::from_wire(p[1]), Some(RequestKind::Subscribe));
        let req = decode_subscribe(&p[2..]).unwrap();
        assert_eq!(req.flags, SUB_STATS | SUB_FLIPS);
        assert_eq!(req.interval_ms, 250);
        assert_eq!(req.graph, Some("fleet-a"));

        // Flips-only needs no cadence; empty name = all graphs.
        encode_subscribe(&mut out, SUB_FLIPS, 0, None);
        let req = decode_subscribe(&payload(&out)[2..]).unwrap();
        assert_eq!(req.flags, SUB_FLIPS);
        assert_eq!(req.graph, None);
    }

    #[test]
    fn subscribe_rejects_bad_options() {
        let mut out = Vec::new();
        // No flags at all.
        encode_subscribe(&mut out, 0, 100, None);
        assert!(matches!(
            decode_subscribe(&payload(&out)[2..]).unwrap_err(),
            DecodeError::Bad("subscribe flags")
        ));
        // Unknown flag bits.
        encode_subscribe(&mut out, 0b1000_0000, 100, None);
        assert!(matches!(
            decode_subscribe(&payload(&out)[2..]).unwrap_err(),
            DecodeError::Bad("subscribe flags")
        ));
        // Stats cadence below the floor.
        encode_subscribe(&mut out, SUB_STATS, MIN_SUBSCRIBE_INTERVAL_MS - 1, None);
        assert!(matches!(
            decode_subscribe(&payload(&out)[2..]).unwrap_err(),
            DecodeError::Bad("subscribe interval")
        ));
        // Truncated body.
        assert!(matches!(
            decode_subscribe(&[SUB_STATS]).unwrap_err(),
            DecodeError::Truncated
        ));
    }

    #[test]
    fn subscribe_ack_round_trip() {
        let ack = SubscribeAck {
            subscriber_id: 42,
            flags: SUB_STATS,
            interval_ms: 500,
        };
        let mut out = Vec::new();
        encode_subscribe_ack(&mut out, ack);
        let p = payload(&out);
        assert_eq!(
            ResponseKind::from_wire(p[1]),
            Some(ResponseKind::SubscribeAck)
        );
        assert_eq!(decode_subscribe_ack(&p[2..]).unwrap(), ack);
    }

    #[test]
    fn stats_delta_round_trip() {
        let d = StatsDelta {
            seq: 3,
            dt_us: 250_000,
            requests: 120,
            samples: 118,
            p50_ns: 16_384,
            p99_ns: 524_288,
            gateway_flips: 7,
            tiles_resolved: 12,
            refreshes: 4,
            push_dropped: 1,
        };
        let mut out = Vec::new();
        encode_stats_delta(&mut out, &d);
        let p = payload(&out);
        assert_eq!(
            ResponseKind::from_wire(p[1]),
            Some(ResponseKind::StatsDelta)
        );
        assert_eq!(decode_stats_delta(&p[2..]).unwrap(), d);
        assert!(matches!(
            decode_stats_delta(&p[2..p.len() - 1]).unwrap_err(),
            DecodeError::Truncated
        ));
    }

    #[test]
    fn flip_event_round_trip() {
        let mut out = Vec::new();
        encode_flip_event(&mut out, "fleet-a", 9, 15, 230, &[0, 3, 7]);
        let p = payload(&out);
        assert_eq!(ResponseKind::from_wire(p[1]), Some(ResponseKind::FlipEvent));
        let ev = decode_flip_event(&p[2..]).unwrap();
        assert_eq!(ev.name, "fleet-a");
        assert_eq!(ev.refresh_seq, 9);
        assert_eq!(ev.gateway_flips, 15);
        assert_eq!(ev.gateways, 230);
        assert_eq!(ev.tiles, vec![0, 3, 7]);
        // Trailing garbage is rejected.
        let mut frame = out.clone();
        frame.push(0);
        end_frame(&mut frame);
        assert!(matches!(
            decode_flip_event(&payload(&frame)[2..]).unwrap_err(),
            DecodeError::Trailing
        ));
    }

    #[test]
    fn open_graph_round_trip() {
        let cfg = CdsConfig::policy(Policy::EnergyDegree);
        let points = [(1.0, 2.0), (3.5, 4.25), (90.0, 10.0)];
        let energy = [7u64, 19, 3];
        let mut out = Vec::new();
        encode_open_graph(
            &mut out,
            "fleet-a",
            &cfg,
            9,
            25.0,
            (0.0, 0.0, 100.0, 100.0),
            &points,
            &energy,
        );
        let p = payload(&out);
        assert_eq!(RequestKind::from_wire(p[1]), Some(RequestKind::OpenGraph));
        let req = OpenGraphRequest::decode(&p[2..]).unwrap();
        assert_eq!(req.name, "fleet-a");
        assert_eq!(req.cfg, cfg);
        assert_eq!(req.shards, 9);
        assert_eq!(req.radius, 25.0);
        assert_eq!(req.bounds, (0.0, 0.0, 100.0, 100.0));
        assert_eq!(req.points().collect::<Vec<_>>(), points);
        assert_eq!(req.energies().collect::<Vec<_>>(), energy);
    }

    type BadGeometry = (f64, (f64, f64, f64, f64), &'static [(f64, f64)]);

    #[test]
    fn open_graph_rejects_bad_geometry() {
        let cfg = CdsConfig::policy(Policy::Id);
        let cases: [BadGeometry; 4] = [
            (0.0, (0.0, 0.0, 1.0, 1.0), &[]),                 // zero radius
            (f64::NAN, (0.0, 0.0, 1.0, 1.0), &[]),            // NaN radius
            (1.0, (5.0, 0.0, 1.0, 1.0), &[]),                 // inverted bounds
            (1.0, (0.0, 0.0, 1.0, 1.0), &[(f64::NAN, 0.5)]),  // NaN point
        ];
        for (radius, bounds, pts) in cases {
            let energy = vec![1u64; pts.len()];
            let mut out = Vec::new();
            encode_open_graph(&mut out, "g", &cfg, 4, radius, bounds, pts, &energy);
            assert!(
                OpenGraphRequest::decode(&payload(&out)[2..]).is_err(),
                "radius={radius} bounds={bounds:?}"
            );
        }
    }

    #[test]
    fn mutate_round_trip_all_event_kinds() {
        let events = [
            WireEvent::Add {
                x: 1.5,
                y: -2.5,
                energy: 77,
            },
            WireEvent::Move {
                node: 4,
                x: 0.25,
                y: 0.75,
            },
            WireEvent::Kill { node: 9 },
            WireEvent::Drain {
                node: 2,
                remaining: 13,
            },
        ];
        let mut out = Vec::new();
        encode_mutate(&mut out, "fleet-a", &events);
        let p = payload(&out);
        assert_eq!(RequestKind::from_wire(p[1]), Some(RequestKind::Mutate));
        let (name, decoded) = decode_mutate(&p[2..]).unwrap();
        assert_eq!(name, "fleet-a");
        assert_eq!(decoded, events);
    }

    #[test]
    fn mutate_rejects_bad_events() {
        // Unknown event kind byte.
        let mut out = Vec::new();
        encode_mutate(&mut out, "g", &[WireEvent::Kill { node: 0 }]);
        let body_start = LEN_PREFIX + 2;
        let kind_at = out.len() - 5; // kill body = kind u8 + node u32
        out[kind_at] = 4;
        assert!(matches!(
            decode_mutate(&out[body_start..]).unwrap_err(),
            DecodeError::Bad("event kind")
        ));
        // Non-finite move coordinate.
        let mut out = Vec::new();
        encode_mutate(
            &mut out,
            "g",
            &[WireEvent::Move {
                node: 1,
                x: f64::INFINITY,
                y: 0.0,
            }],
        );
        assert!(decode_mutate(&out[body_start..]).is_err());
        // Truncated mutate bodies are Truncated, never panics.
        let mut out = Vec::new();
        encode_mutate(&mut out, "g", &[WireEvent::Kill { node: 3 }]);
        let body = out[body_start..].to_vec();
        for cut in 0..body.len() {
            assert_eq!(
                decode_mutate(&body[..cut]).unwrap_err(),
                DecodeError::Truncated,
                "cut={cut}"
            );
        }
    }

    #[test]
    fn close_and_query_tile_round_trip() {
        let mut out = Vec::new();
        encode_close_graph(&mut out, "fleet-b");
        let p = payload(&out);
        assert_eq!(RequestKind::from_wire(p[1]), Some(RequestKind::CloseGraph));
        assert_eq!(decode_close_graph(&p[2..]).unwrap(), "fleet-b");

        let mut out = Vec::new();
        encode_query_tile(&mut out, "fleet-b", 12);
        let p = payload(&out);
        assert_eq!(RequestKind::from_wire(p[1]), Some(RequestKind::QueryTile));
        assert_eq!(decode_query_tile(&p[2..]).unwrap(), ("fleet-b", 12));
    }

    #[test]
    fn graph_names_are_validated() {
        // The encoders debug-assert valid names, so the invalid-length
        // bodies are crafted by hand: a zero-length name...
        let mut body = vec![0u8, 0u8];
        assert!(matches!(
            decode_close_graph(&body).unwrap_err(),
            DecodeError::Bad("graph name length")
        ));
        // ...an over-long one...
        let long = (MAX_GRAPH_NAME + 1) as u16;
        body.clear();
        body.extend_from_slice(&long.to_le_bytes());
        body.extend(std::iter::repeat_n(b'x', long as usize));
        assert!(matches!(
            decode_close_graph(&body).unwrap_err(),
            DecodeError::Bad("graph name length")
        ));
        // ...and an invalid-UTF-8 one via byte surgery on a valid frame.
        let mut out = Vec::new();
        encode_close_graph(&mut out, "ok");
        let body_start = LEN_PREFIX + 2;
        out[body_start + 2] = 0xFF;
        assert!(matches!(
            decode_close_graph(&out[body_start..]).unwrap_err(),
            DecodeError::Bad("graph name utf-8")
        ));
    }

    #[test]
    fn churn_response_round_trips_via_manual_encode() {
        // GraphOpened.
        let mut out = Vec::new();
        begin_frame(&mut out, ResponseKind::GraphOpened as u8);
        out.put_u32(16);
        out.put_u32(1000);
        out.put_u32(137);
        end_frame(&mut out);
        let g = decode_graph_opened(&payload(&out)[2..]).unwrap();
        assert_eq!((g.tiles, g.n, g.gateways), (16, 1000, 137));

        // MutateResult.
        let mut out = Vec::new();
        begin_frame(&mut out, ResponseKind::MutateResult as u8);
        out.put_u32(3);
        out.put_u32(2);
        out.put_u32(2);
        out.put_u32(16);
        out.put_u64(5);
        out.put_u32(140);
        out.put_u32(1001);
        end_frame(&mut out);
        let m = decode_mutate_result(&payload(&out)[2..]).unwrap();
        assert_eq!(m.applied, 3);
        assert_eq!(m.dirty_tiles, 2);
        assert_eq!(m.resolved_tiles, 2);
        assert_eq!(m.total_tiles, 16);
        assert_eq!(m.gateway_flips, 5);
        assert_eq!(m.gateways, 140);
        assert_eq!(m.n, 1001);

        // TileResult — note: no cache-hit byte anywhere in the frame.
        let mut out = Vec::new();
        begin_frame(&mut out, ResponseKind::TileResult as u8);
        out.put_u32(7);
        out.put_u32(2);
        out.put_u32(11);
        out.put_u8(0b101);
        out.put_u32(12);
        out.put_u8(0);
        end_frame(&mut out);
        let t = decode_tile_result(&payload(&out)[2..]).unwrap();
        assert_eq!(t.tile, 7);
        assert_eq!(t.entries, vec![(11, 0b101), (12, 0)]);
    }
}
