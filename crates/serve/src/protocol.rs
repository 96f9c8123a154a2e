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
//! * [`RequestKind::Stats`] — `format u8` (0 table, 1 jsonl, 2 prometheus,
//!   3 health).
//! * [`RequestKind::Ping`] — empty body (a server ignores any bytes there).
//! * [`RequestKind::OpenGraph`] — `name_len u16, name, config 4 bytes,
//!   shards u32 (at most [`MAX_TILES`]), radius f64, bounds 4×f64, n u32,
//!   points n×(f64,f64), energy n×u64` (energy is always present — it is
//!   churn-graph state).
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
//! ## The codec
//!
//! A body is a sequence of [`Field`]s: little-endian `u8`/`u16`/`u32`/
//! `u64`/`f64`, a strict `bool` byte, a wire enum, the 4-byte
//! [`CdsConfig`], the `u16`-length graph name, `u32`-length text, a
//! `u32`-counted list (a Mutate event list refuses a count above
//! [`MAX_MUTATION_BATCH`] before reading any event), and the GenCompute
//! energy-seed slot. Each
//! fixed-field body above is declared once with `message!`: its struct (or
//! the tuple its decoder returns), its encoder and its strict decoder all
//! come from that one field list. ComputeCds, OpenGraph and CdsResult end
//! in length-dependent raw payloads the server reads in place, so they are
//! written by hand on the same fields.
//!
//! Decoding is strict: truncated or trailing bytes, out-of-range enum
//! discriminants, self-loop or out-of-range edges all produce a typed
//! [`DecodeError`] that the server answers with an [`ErrorCode`] frame —
//! never a panic, never a hang.

use std::borrow::Cow;

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

/// Maximum tile count an `OpenGraph` may ask for: the churn engine sizes
/// its per-tile tables from it, so a tiny frame must not be able to
/// demand gigabytes. It covers the grid `shards: 0` derives for
/// [`MAX_NODES`] hosts (at most one tile per 64 hosts).
pub const MAX_TILES: u32 = 1 << 15;

const _: () = assert!(MAX_TILES >= MAX_NODES / 64);

/// Offset of the `cache_hit` byte inside a [`ResponseKind::CdsResult`]
/// payload (version, kind, then the flag) — the cache stores responses with
/// the flag zeroed and patches this byte on a hit.
pub const CACHE_FLAG_PAYLOAD_OFFSET: usize = 2;

/// Request flag: bypass the result cache entirely (no lookup, no insert).
pub const FLAG_NO_CACHE: u8 = 0b0000_0001;

/// Maximum graph-name length in bytes.
pub const MAX_GRAPH_NAME: usize = 255;

/// Maximum events per `Mutate` frame.
pub const MAX_MUTATION_BATCH: u32 = 65_536;

/// Subscription flag: push periodic [`ResponseKind::StatsDelta`] frames.
pub const SUB_STATS: u8 = 0b0000_0001;

/// Subscription flag: push per-refresh [`ResponseKind::FlipEvent`] frames.
pub const SUB_FLIPS: u8 = 0b0000_0010;

/// Fastest stats-delta cadence a subscriber may request.
pub const MIN_SUBSCRIBE_INTERVAL_MS: u32 = 10;

/// Declares a `u8` discriminant table once: the enum, its `from_wire`, and
/// its [`Field`] impl (an unknown byte is `Bad`).
macro_rules! wire_enum {
    (
        $(#[$m:meta])*
        pub enum $name:ident { $($(#[$vm:meta])* $v:ident = $b:literal,)* }
    ) => {
        $(#[$m])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum $name { $($(#[$vm])* $v = $b,)* }

        impl $name {
            /// Decodes a wire discriminant.
            pub fn from_wire(b: u8) -> Option<Self> {
                match b {
                    $($b => Some(Self::$v),)*
                    _ => None,
                }
            }
        }

        impl<'a> Field<'a> for $name {
            type Arg = Self;
            fn put(out: &mut Vec<u8>, v: Self) {
                out.push(v as u8);
            }
            fn get(r: &mut Reader<'a>) -> Result<Self, DecodeError> {
                Self::from_wire(u8::get(r)?).ok_or(DecodeError::Bad(stringify!($name)))
            }
        }
    };
}

wire_enum! {
    /// Request kinds (client → server).
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
}

wire_enum! {
    /// Response kinds (server → client).
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
}

wire_enum! {
    /// Typed error codes carried by [`ResponseKind::Error`] frames.
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
}

impl ErrorCode {
    /// Whether the connection is left in an unusable state (framing lost)
    /// and the server closes it after sending this error.
    pub fn is_connection_fatal(self) -> bool {
        matches!(
            self,
            Self::UnsupportedVersion | Self::UnknownKind | Self::Malformed | Self::Oversized
        )
    }
}

wire_enum! {
    /// Stats output format selector.
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

/// Bounds-checked reader over one body; only this module's decoders make
/// one.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Takes the next `n` raw bytes.
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() - self.pos < n {
            return Err(DecodeError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.bytes(N)?.try_into().expect("bytes(N) yields N bytes"))
    }

    /// Asserts the body is fully consumed.
    fn finish(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError::Trailing)
        }
    }
}

/// One body field's wire form: what an encoder is handed for it and how
/// the strict decoder reads it back.
pub trait Field<'a>: Sized {
    /// The encoder's argument for this field.
    type Arg: Copy;
    /// Appends `v` to a frame under construction.
    fn put(out: &mut Vec<u8>, v: Self::Arg);
    /// Reads the field; [`DecodeError::Truncated`] when the body ends first.
    fn get(r: &mut Reader<'a>) -> Result<Self, DecodeError>;
    /// The most items of this kind a counted list may carry, checked as
    /// soon as the count is read, and the `Bad` reason for more.
    const MAX_ITEMS: (u32, &'static str) = (u32::MAX, "list length");
}

macro_rules! le_fields {
    ($($t:ty),*) => {$(
        impl<'a> Field<'a> for $t {
            type Arg = $t;
            fn put(out: &mut Vec<u8>, v: $t) {
                out.extend_from_slice(&v.to_le_bytes());
            }
            fn get(r: &mut Reader<'a>) -> Result<$t, DecodeError> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

le_fields!(u8, u16, u32, u64, f64);

/// A strict boolean byte: 0 or 1.
impl<'a> Field<'a> for bool {
    type Arg = bool;
    fn put(out: &mut Vec<u8>, v: bool) {
        out.push(u8::from(v));
    }
    fn get(r: &mut Reader<'a>) -> Result<bool, DecodeError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Bad("boolean byte")),
        }
    }
}

fn utf8<'a>(bytes: &'a [u8], what: &'static str) -> Result<&'a str, DecodeError> {
    std::str::from_utf8(bytes).map_err(|_| DecodeError::Bad(what))
}

/// A graph name: `u16` length (1..=[`MAX_GRAPH_NAME`]), then UTF-8.
impl<'a> Field<'a> for &'a str {
    type Arg = &'a str;
    fn put(out: &mut Vec<u8>, name: &'a str) {
        debug_assert!(!name.is_empty() && name.len() <= MAX_GRAPH_NAME);
        u16::put(out, name.len() as u16);
        out.extend_from_slice(name.as_bytes());
    }
    fn get(r: &mut Reader<'a>) -> Result<&'a str, DecodeError> {
        let len = usize::from(u16::get(r)?);
        if len == 0 || len > MAX_GRAPH_NAME {
            return Err(DecodeError::Bad("graph name length"));
        }
        utf8(r.bytes(len)?, "graph name utf-8")
    }
}

/// An optional graph name: a zero length means none.
impl<'a> Field<'a> for Option<&'a str> {
    type Arg = Option<&'a str>;
    fn put(out: &mut Vec<u8>, name: Option<&'a str>) {
        match name {
            Some(name) => <&str>::put(out, name),
            None => u16::put(out, 0),
        }
    }
    fn get(r: &mut Reader<'a>) -> Result<Option<&'a str>, DecodeError> {
        let mut ahead = r.clone();
        if u16::get(&mut ahead)? == 0 {
            *r = ahead;
            return Ok(None);
        }
        <&str>::get(r).map(Some)
    }
}

/// Text: `u32` length, then UTF-8.
impl<'a> Field<'a> for String {
    type Arg = &'a str;
    fn put(out: &mut Vec<u8>, text: &'a str) {
        Cow::put(out, text.as_bytes());
    }
    fn get(r: &mut Reader<'a>) -> Result<String, DecodeError> {
        Cow::get(r).map(Cow::into_owned)
    }
}

/// Text as a renderer wrote it: the same layout as [`String`] text, but
/// encoded straight from the rendered bytes and read back borrowed.
impl<'a> Field<'a> for Cow<'a, str> {
    type Arg = &'a [u8];
    fn put(out: &mut Vec<u8>, text: &'a [u8]) {
        u32::put(out, text.len() as u32);
        out.extend_from_slice(text);
    }
    fn get(r: &mut Reader<'a>) -> Result<Self, DecodeError> {
        let len = u32::get(r)? as usize;
        utf8(r.bytes(len)?, "text utf-8").map(Cow::Borrowed)
    }
}

/// The GenCompute energy-seed slot: `has u8`, then a `u64` that is always
/// present (0 when there is no seed).
impl<'a> Field<'a> for Option<u64> {
    type Arg = Option<u64>;
    fn put(out: &mut Vec<u8>, seed: Option<u64>) {
        bool::put(out, seed.is_some());
        u64::put(out, seed.unwrap_or(0));
    }
    fn get(r: &mut Reader<'a>) -> Result<Option<u64>, DecodeError> {
        let has = bool::get(r)?;
        let seed = u64::get(r)?;
        Ok(has.then_some(seed))
    }
}

/// A `u32`-counted list.
impl<'a, T: Field<'a>> Field<'a> for Vec<T>
where
    T::Arg: 'a,
{
    type Arg = &'a [T::Arg];
    fn put(out: &mut Vec<u8>, items: &'a [T::Arg]) {
        u32::put(out, items.len() as u32);
        for &item in items {
            T::put(out, item);
        }
    }
    fn get(r: &mut Reader<'a>) -> Result<Vec<T>, DecodeError> {
        let k = u32::get(r)?;
        if k > T::MAX_ITEMS.0 {
            return Err(DecodeError::Bad(T::MAX_ITEMS.1));
        }
        // The count is untrusted: reserve a bounded amount and let the
        // body's length end the loop.
        let mut items = Vec::with_capacity(k.min(4096) as usize);
        for _ in 0..k {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

impl<'a, A: Field<'a>, B: Field<'a>> Field<'a> for (A, B) {
    type Arg = (A::Arg, B::Arg);
    fn put(out: &mut Vec<u8>, (a, b): Self::Arg) {
        A::put(out, a);
        B::put(out, b);
    }
    fn get(r: &mut Reader<'a>) -> Result<Self, DecodeError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// Declares the four [`CdsConfig`] byte tables once, in wire order: they
/// give both [`config_bytes`] and the config [`Field`] decoder.
macro_rules! config_tables {
    ($($field:ident: $t:ident { $($v:ident = $b:literal),* } $what:literal;)*) => {
        /// Wire encoding of a [`CdsConfig`] as a stack array (4 bytes) — also
        /// the bytes folded into cache keys, so it must stay stable.
        pub fn config_bytes(cfg: &CdsConfig) -> [u8; 4] {
            [$(match cfg.$field { $($t::$v => $b,)* }),*]
        }

        impl<'a> Field<'a> for CdsConfig {
            type Arg = CdsConfig;
            fn put(out: &mut Vec<u8>, cfg: CdsConfig) {
                out.extend_from_slice(&config_bytes(&cfg));
            }
            fn get(r: &mut Reader<'a>) -> Result<CdsConfig, DecodeError> {
                Ok(CdsConfig {
                    $($field: match u8::get(r)? {
                        $($b => $t::$v,)*
                        _ => return Err(DecodeError::Bad($what)),
                    },)*
                })
            }
        }
    };
}

config_tables! {
    policy: Policy { NoPruning = 0, Id = 1, Degree = 2, Energy = 3, EnergyDegree = 4 } "policy";
    schedule: PruneSchedule { SinglePass = 0, Fixpoint = 1 } "schedule";
    rule2: Rule2Semantics { MinOfThree = 0, CaseAnalysis = 1 } "rule2 semantics";
    application: Application { Simultaneous = 0, Sequential = 1 } "application";
}

/// Reads a raw payload of same-typed fields back in order (a decoder has
/// already checked its length).
fn raw_fields<'a, T: Field<'a>>(raw: &'a [u8]) -> impl Iterator<Item = T> + 'a {
    let mut r = Reader::new(raw);
    std::iter::from_fn(move || T::get(&mut r).ok())
}

/// Starts a frame in `out` (clears it, reserves the length prefix, writes
/// version + kind). Finish with [`end_frame`].
pub fn begin_frame(out: &mut Vec<u8>, kind: u8) {
    out.clear();
    out.extend_from_slice(&[0; LEN_PREFIX]);
    out.extend_from_slice(&[PROTOCOL_VERSION, kind]);
}

/// Patches the length prefix of a frame begun with [`begin_frame`].
pub fn end_frame(out: &mut [u8]) {
    let len = (out.len() - LEN_PREFIX) as u32;
    out[..LEN_PREFIX].copy_from_slice(&len.to_le_bytes());
}

/// Declares one fixed-field body once. The field list gives the struct
/// (or, for the `fn` form, the tuple the decoder returns — a lone field is
/// returned as itself), the encoder, which takes each field's
/// [`Field::Arg`], and the strict decoder: every field in order, then
/// `finish()`, then the `where` checks, each failing as `Bad(reason)`. A
/// field declared `T as U` is stored as `T` but travels as `U`.
macro_rules! message {
    // A struct whose encoder takes its fields as arguments.
    (
        $(#[$m:meta])*
        pub struct $name:ident $(<$lt:lifetime>)? = $kind:expr, fn $enc:ident, fn $dec:ident {
            $($(#[$fm:meta])* pub $f:ident: $ty:ty $(as $via:ty)?,)*
        }
        $(where $checks:tt)?
    ) => {
        $(#[$m])*
        pub struct $name $(<$lt>)? {
            $($(#[$fm])* pub $f: $ty,)*
        }
        message!(@encoder $kind, $enc, [$($f: message!(@wire $ty $(, $via)?)),*]);
        message!(@decoder $dec, $name $(<$lt>)?, [$($f: $ty $(as $via)?),*], [$($checks)?],
            $name { $($f),* });
    };
    // A struct of plain values, encoded from a reference to it.
    (
        $(#[$m:meta])*
        pub struct $name:ident = $kind:expr, fn $enc:ident(&Self), fn $dec:ident {
            $($(#[$fm:meta])* pub $f:ident: $ty:ty,)*
        }
    ) => {
        $(#[$m])*
        pub struct $name {
            $($(#[$fm])* pub $f: $ty,)*
        }
        #[doc = concat!("Encodes a complete `", stringify!($name), "` frame.")]
        pub fn $enc(out: &mut Vec<u8>, m: &$name) {
            begin_frame(out, $kind as u8);
            $(<$ty as Field>::put(out, m.$f);)*
            end_frame(out);
        }
        message!(@decoder $dec, $name, [$($f: $ty),*], [], $name { $($f),* });
    };
    // A struct of plain values with `encode`/`decode` methods.
    (
        $(#[$m:meta])*
        pub struct $name:ident = $kind:expr, Self {
            $($(#[$fm:meta])* pub $f:ident: $ty:ty,)*
        }
        $(where $checks:tt)?
    ) => {
        $(#[$m])*
        pub struct $name {
            $($(#[$fm])* pub $f: $ty,)*
        }
        impl $name {
            /// Decodes the body (the payload after version + kind).
            pub fn decode(body: &[u8]) -> Result<Self, DecodeError> {
                message!(@decode body, [$($f: $ty),*], [$($checks)?], Self { $($f),* })
            }

            /// Encodes this message as a complete frame into `out`.
            pub fn encode(&self, out: &mut Vec<u8>) {
                begin_frame(out, $kind as u8);
                $(<$ty as Field>::put(out, self.$f);)*
                end_frame(out);
            }
        }
    };
    // No struct: the decoder returns the fields.
    (fn $enc:ident, fn $dec:ident($($f:ident: $ty:ty),*) = $kind:expr;) => {
        message!(@encoder $kind, $enc, [$($f: $ty),*]);
        message!(@decoder $dec, ($($ty),*), [$($f: $ty),*], [], ($($f),*));
    };
    // A body nobody reads: only the encoder.
    (fn $enc:ident() = $kind:expr;) => {
        message!(@encoder $kind, $enc, []);
    };
    (@wire $ty:ty) => { $ty };
    (@wire $ty:ty, $via:ty) => { $via };
    (@encoder $kind:expr, $enc:ident, [$($f:ident: $wire:ty),*]) => {
        #[doc = concat!("Encodes a complete `", stringify!($kind), "` frame.")]
        #[allow(clippy::too_many_arguments, clippy::extra_unused_lifetimes)]
        pub fn $enc<'a>(out: &mut Vec<u8>, $($f: <$wire as Field<'a>>::Arg),*) {
            begin_frame(out, $kind as u8);
            $(<$wire as Field<'a>>::put(out, $f);)*
            end_frame(out);
        }
    };
    (@decoder $dec:ident, $ret:ty, $fields:tt, $checks:tt, $out:expr) => {
        #[doc = concat!("Decodes a `", stringify!($ret), "` body.")]
        #[allow(unused_parens, clippy::needless_lifetimes)]
        pub fn $dec<'a>(body: &'a [u8]) -> Result<$ret, DecodeError> {
            message!(@decode body, $fields, $checks, $out)
        }
    };
    (
        @decode $body:ident, [$($f:ident: $ty:ty $(as $via:ty)?),*],
        [$({$($ok:expr => $why:literal,)*})?], $out:expr
    ) => {{
        let mut r = Reader::new($body);
        $(let $f: $ty = message!(@get r, $ty $(, $via)?);)*
        r.finish()?;
        $($(if !($ok) {
            return Err(DecodeError::Bad($why));
        })*)?
        Ok($out)
    }};
    (@get $r:ident, $ty:ty) => { <$ty as Field>::get(&mut $r)? };
    (@get $r:ident, $ty:ty, $via:ty) => { <$via as Field>::get(&mut $r)?.into() };
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

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

/// The graph name every graph-scoped request body (OpenGraph, Mutate,
/// CloseGraph, QueryTile) starts with; the rest of the body is not read.
pub fn graph_name_of(body: &[u8]) -> Result<&str, DecodeError> {
    <&str>::get(&mut Reader::new(body))
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
        let flags = u8::get(&mut r)?;
        let deadline_ms = u32::get(&mut r)?;
        let cfg = CdsConfig::get(&mut r)?;
        let has_energy = bool::get(&mut r)?;
        let n = u32::get(&mut r)?;
        if n > MAX_NODES {
            return Err(DecodeError::Bad("n exceeds MAX_NODES"));
        }
        let m = u32::get(&mut r)?;
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
        raw_fields(self.edges_raw)
    }

    /// Iterates the raw energies in host order, if present.
    pub fn energies(&self) -> Option<impl Iterator<Item = u64> + 'a> {
        self.energy_raw.map(raw_fields)
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
    u8::put(out, flags);
    u32::put(out, deadline_ms);
    CdsConfig::put(out, *cfg);
    bool::put(out, energy.is_some());
    u32::put(out, n);
    <Vec<(u32, u32)>>::put(out, edges);
    if let Some(levels) = energy {
        debug_assert_eq!(levels.len(), n as usize);
        for &e in levels {
            u64::put(out, e);
        }
    }
    end_frame(out);
}

message! {
    /// A decoded generate-and-compute request.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct GenComputeRequest = RequestKind::GenCompute, Self {
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
    where {
        n <= MAX_NODES => "n exceeds MAX_NODES",
        radius.is_finite() && radius > 0.0 && side.is_finite() && side > 0.0
            => "radius/side must be finite and positive",
    }
}

message!(fn encode_stats_request, fn decode_stats_request(format: StatsFormat) = RequestKind::Stats;);

message!(fn encode_ping() = RequestKind::Ping;);

/// A decoded open-graph request. Point and energy payloads stay as raw
/// borrowed bytes.
#[derive(Debug, Clone)]
pub struct OpenGraphRequest<'a> {
    /// The graph's registry name.
    pub name: &'a str,
    /// CDS configuration the graph will run (must be shardable).
    pub cfg: CdsConfig,
    /// Shard (tile) count, at most [`MAX_TILES`]; `0` lets the churn
    /// engine derive its grid from the radius, the domain and `n` (tiles
    /// twice the 2-hop margin wide, at least 64 hosts each on average).
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
        let name = <&str>::get(&mut r)?;
        let cfg = CdsConfig::get(&mut r)?;
        let shards = u32::get(&mut r)?;
        if shards > MAX_TILES {
            return Err(DecodeError::Bad("shards exceeds MAX_TILES"));
        }
        let radius = f64::get(&mut r)?;
        if !radius.is_finite() || radius <= 0.0 {
            return Err(DecodeError::Bad("radius must be finite and positive"));
        }
        let ((x0, y0), (x1, y1)) = <((f64, f64), (f64, f64))>::get(&mut r)?;
        if ![x0, y0, x1, y1].iter().all(|v| v.is_finite()) || x0 > x1 || y0 > y1 {
            return Err(DecodeError::Bad(
                "bounds must be a finite ordered rectangle",
            ));
        }
        let n = u32::get(&mut r)?;
        if n > MAX_NODES {
            return Err(DecodeError::Bad("n exceeds MAX_NODES"));
        }
        let points_raw = r.bytes(n as usize * 16)?;
        let energy_raw = r.bytes(n as usize * 8)?;
        r.finish()?;
        if !raw_fields(points_raw).all(f64::is_finite) {
            return Err(DecodeError::Bad("point coordinates must be finite"));
        }
        Ok(Self {
            name,
            cfg,
            shards,
            radius,
            bounds: (x0, y0, x1, y1),
            n,
            points_raw,
            energy_raw,
        })
    }

    /// Iterates the points in host order.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + 'a {
        raw_fields(self.points_raw)
    }

    /// Iterates the energies in host order.
    pub fn energies(&self) -> impl Iterator<Item = u64> + 'a {
        raw_fields(self.energy_raw)
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
    <&str>::put(out, name);
    CdsConfig::put(out, *cfg);
    u32::put(out, shards);
    for v in [radius, bounds.0, bounds.1, bounds.2, bounds.3] {
        f64::put(out, v);
    }
    <Vec<(f64, f64)>>::put(out, points);
    for &e in energy {
        u64::put(out, e);
    }
    end_frame(out);
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

/// A list of events is a Mutate batch: its count is refused above
/// [`MAX_MUTATION_BATCH`] before any event is read.
impl<'a> Field<'a> for WireEvent {
    type Arg = Self;
    const MAX_ITEMS: (u32, &'static str) = (MAX_MUTATION_BATCH, "mutation batch too large");
    fn put(out: &mut Vec<u8>, ev: Self) {
        match ev {
            Self::Add { x, y, energy } => {
                u8::put(out, 0);
                <(f64, f64)>::put(out, (x, y));
                u64::put(out, energy);
            }
            Self::Move { node, x, y } => {
                u8::put(out, 1);
                u32::put(out, node);
                <(f64, f64)>::put(out, (x, y));
            }
            Self::Kill { node } => {
                u8::put(out, 2);
                u32::put(out, node);
            }
            Self::Drain { node, remaining } => {
                u8::put(out, 3);
                u32::put(out, node);
                u64::put(out, remaining);
            }
        }
    }
    fn get(r: &mut Reader<'a>) -> Result<Self, DecodeError> {
        let ev = match u8::get(r)? {
            0 => Self::Add {
                x: f64::get(r)?,
                y: f64::get(r)?,
                energy: u64::get(r)?,
            },
            1 => Self::Move {
                node: u32::get(r)?,
                x: f64::get(r)?,
                y: f64::get(r)?,
            },
            2 => Self::Kill { node: u32::get(r)? },
            3 => Self::Drain {
                node: u32::get(r)?,
                remaining: u64::get(r)?,
            },
            _ => return Err(DecodeError::Bad("event kind")),
        };
        match ev {
            Self::Add { x, y, .. } | Self::Move { x, y, .. }
                if !(x.is_finite() && y.is_finite()) =>
            {
                Err(DecodeError::Bad("event coordinates must be finite"))
            }
            _ => Ok(ev),
        }
    }
}

message!(fn encode_mutate, fn decode_mutate(name: &'a str, events: Vec<WireEvent>) = RequestKind::Mutate;);

message!(fn encode_close_graph, fn decode_close_graph(name: &'a str) = RequestKind::CloseGraph;);

message!(fn encode_query_tile, fn decode_query_tile(name: &'a str, tile: u32) = RequestKind::QueryTile;);

message! {
    /// A decoded `Subscribe` request.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SubscribeRequest<'a> = RequestKind::Subscribe, fn encode_subscribe, fn decode_subscribe {
        /// [`SUB_STATS`] | [`SUB_FLIPS`]; at least one bit is set.
        pub flags: u8,
        /// Stats-delta push cadence in milliseconds.
        pub interval_ms: u32,
        /// Restrict flip events to this named graph; `None` = all graphs.
        pub graph: Option<&'a str>,
    }
    where {
        flags != 0 && flags & !(SUB_STATS | SUB_FLIPS) == 0 => "subscribe flags",
        flags & SUB_STATS == 0 || interval_ms >= MIN_SUBSCRIBE_INTERVAL_MS => "subscribe interval",
    }
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

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

/// Encodes a complete `CdsResult` frame for a fresh computation
/// (`cache_hit = 0`; see [`mark_cache_hit`]). `n` is `mask.len()`.
pub fn encode_cds_result(
    out: &mut Vec<u8>,
    marked: u32,
    after_rule1: u32,
    gateways: u32,
    rounds: u32,
    mask: &[bool],
) {
    begin_frame(out, ResponseKind::CdsResult as u8);
    bool::put(out, false);
    for v in [mask.len() as u32, marked, after_rule1, gateways, rounds] {
        u32::put(out, v);
    }
    // LSB-first: host `8i + b` is bit `b` of byte `i`.
    out.extend(
        mask.chunks(8)
            .map(|c| c.iter().rev().fold(0u8, |byte, &g| byte << 1 | u8::from(g))),
    );
    end_frame(out);
}

/// Sets the `cache_hit` byte of a complete `CdsResult` frame.
pub fn mark_cache_hit(frame: &mut [u8]) {
    frame[LEN_PREFIX + CACHE_FLAG_PAYLOAD_OFFSET] = 1;
}

/// Decodes a `CdsResult` body.
pub fn decode_cds_result(body: &[u8]) -> Result<CdsResult, DecodeError> {
    let mut r = Reader::new(body);
    let cache_hit = bool::get(&mut r)?;
    let n = u32::get(&mut r)?;
    let marked = u32::get(&mut r)?;
    let after_rule1 = u32::get(&mut r)?;
    let gateways = u32::get(&mut r)?;
    let rounds = u32::get(&mut r)?;
    let bits = r.bytes(n.div_ceil(8) as usize)?;
    r.finish()?;
    let mask: VertexMask = (0..n as usize)
        .map(|v| bits[v / 8] >> (v % 8) & 1 == 1)
        .collect();
    if mask.iter().filter(|&&g| g).count() != gateways as usize {
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

/// A counter: `u16`-length UTF-8 name, then the `u64` value.
impl<'a> Field<'a> for StatEntry {
    type Arg = (&'a str, u64);
    fn put(out: &mut Vec<u8>, (name, value): (&'a str, u64)) {
        u16::put(out, name.len() as u16);
        out.extend_from_slice(name.as_bytes());
        u64::put(out, value);
    }
    fn get(r: &mut Reader<'a>) -> Result<Self, DecodeError> {
        let len = usize::from(u16::get(r)?);
        let name = utf8(r.bytes(len)?, "counter name utf-8")?.to_owned();
        Ok(StatEntry {
            name,
            value: u64::get(r)?,
        })
    }
}

message! {
    /// A decoded stats response.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StatsResult = ResponseKind::StatsResult, fn encode_stats_result, fn decode_stats_result {
        /// The server's always-on counters.
        pub counters: Vec<StatEntry>,
        /// Rendered `pacds-obs` snapshot in the requested format (empty body
        /// when the server was built without `--features obs`).
        pub text: String as Cow<'a, str>,
    }
}

impl StatsResult {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }
}

message!(fn encode_pong() = ResponseKind::Pong;);

message! {
    /// A decoded graph-opened response.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct GraphOpened = ResponseKind::GraphOpened, fn encode_graph_opened, fn decode_graph_opened {
        /// Tiles in the graph's fixed grid.
        pub tiles: u32,
        /// Initial host count.
        pub n: u32,
        /// Gateways after the initial full solve.
        pub gateways: u32,
    }
}

message! {
    /// A decoded mutate response: the churn metrics of one refreshed batch.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct MutateResult = ResponseKind::MutateResult, fn encode_mutate_result(&Self), fn decode_mutate_result {
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
}

message!(fn encode_graph_closed() = ResponseKind::GraphClosed;);

message! {
    /// A decoded tile-result response: the tile's owned hosts in ascending
    /// id order with their verdict bit-sets (bit 0 marked, bit 1
    /// after-Rule-1, bit 2 gateway — dead hosts carry 0).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TileResult = ResponseKind::TileResult, fn encode_tile_result, fn decode_tile_result {
        /// The queried tile.
        pub tile: u32,
        /// `(host id, verdict bits)` for every owned host, ascending by id.
        pub entries: Vec<(u32, u8)>,
    }
}

message! {
    /// A decoded subscribe acknowledgement.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SubscribeAck = ResponseKind::SubscribeAck, fn encode_subscribe_ack, fn decode_subscribe_ack {
        /// Server-assigned subscriber id (diagnostic; unique per server run).
        pub subscriber_id: u64,
        /// The accepted flags.
        pub flags: u8,
        /// The accepted stats cadence.
        pub interval_ms: u32,
    }
}

message! {
    /// One pushed telemetry window: deltas since the previous push, not
    /// lifetime totals. Mirrors `pacds_obs::WindowDelta` but is plain wire
    /// data, so the protocol stays independent of the obs feature.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct StatsDelta = ResponseKind::StatsDelta, fn encode_stats_delta(&Self), fn decode_stats_delta {
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
}

message! {
    /// One pushed gateway-flip event: a named graph finished a refresh.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct FlipEvent = ResponseKind::FlipEvent, fn encode_flip_event, fn decode_flip_event {
        /// The refreshed graph.
        pub name: String as &'a str,
        /// The graph's refresh count after this refresh (1-based).
        pub refresh_seq: u64,
        /// Gateway verdicts the refresh flipped.
        pub gateway_flips: u64,
        /// Gateway count after the refresh.
        pub gateways: u32,
        /// The tiles the refresh re-solved (the Mutate batch's dirty set).
        pub tiles: Vec<u32>,
    }
}

message! {
    /// A decoded error response.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireError = ResponseKind::Error, fn encode_error, fn decode_error {
        /// The typed code.
        pub code: ErrorCode,
        /// Human-readable detail.
        pub message: String,
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

/// Whether a complete response frame is a typed error the sender
/// considers connection-fatal: it closes its end after sending it.
pub fn response_is_fatal_error(frame: &[u8]) -> bool {
    frame.get(LEN_PREFIX + 1) == Some(&(ResponseKind::Error as u8))
        && frame
            .get(LEN_PREFIX + 2)
            .and_then(|&b| ErrorCode::from_wire(b))
            .is_some_and(ErrorCode::is_connection_fatal)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The body of a complete frame, after checking its length prefix.
    fn body(frame: &[u8]) -> &[u8] {
        let len = u32::from_le_bytes(frame[..LEN_PREFIX].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - LEN_PREFIX, "length prefix consistent");
        &frame[LEN_PREFIX + 2..]
    }

    #[test]
    fn discriminant_tables_round_trip() {
        for k in 0..=u8::MAX {
            for decoded in [
                RequestKind::from_wire(k).map(|v| v as u8),
                ResponseKind::from_wire(k).map(|v| v as u8),
                ErrorCode::from_wire(k).map(|v| v as u8),
                StatsFormat::from_wire(k).map(|v| v as u8),
            ] {
                assert!(decoded.is_none_or(|v| v == k), "{k:#04x}");
            }
        }
        let policies = [
            Policy::NoPruning,
            Policy::Id,
            Policy::Degree,
            Policy::Energy,
            Policy::EnergyDegree,
        ];
        for (i, policy) in policies.into_iter().enumerate() {
            for cfg in [CdsConfig::policy(policy), CdsConfig::sequential(policy)] {
                let bytes = config_bytes(&cfg);
                assert_eq!(bytes[0], i as u8);
                assert_eq!(CdsConfig::get(&mut Reader::new(&bytes)), Ok(cfg));
            }
        }
    }

    #[test]
    fn compute_cds_round_trip() {
        let cfg = CdsConfig::sequential(Policy::EnergyDegree);
        let edges = [(0u32, 1u32), (3, 1), (2, 0)];
        let energy = [5u64, 0, 9, 7];
        let mut out = Vec::new();
        encode_compute_cds(&mut out, FLAG_NO_CACHE, 250, &cfg, 4, &edges, Some(&energy));
        assert_eq!(
            request_header(&out[LEN_PREFIX..]).unwrap().0,
            RequestKind::ComputeCds
        );
        let req = ComputeCdsRequest::decode(body(&out)).unwrap();
        assert_eq!(
            (req.flags, req.deadline_ms, req.cfg, req.n),
            (FLAG_NO_CACHE, 250, cfg, 4)
        );
        assert_eq!(req.edges().collect::<Vec<_>>(), edges);
        assert_eq!(req.energies().unwrap().collect::<Vec<_>>(), energy);
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
        assert_eq!(
            ComputeCdsRequest::decode(&bad[body_start..]).unwrap_err(),
            DecodeError::Bad("policy")
        );
        // energy-needing policy without energy
        encode_compute_cds(&mut out, 0, 0, &cfg, 2, &[(0, 1)], None);
        assert_eq!(
            ComputeCdsRequest::decode(body(&out)).unwrap_err(),
            DecodeError::Bad("energy required by policy")
        );
        // a boolean byte that is neither 0 nor 1
        encode_compute_cds(
            &mut out,
            0,
            0,
            &CdsConfig::policy(Policy::Id),
            2,
            &[(0, 1)],
            None,
        );
        out[body_start + 9] = 2;
        assert_eq!(
            ComputeCdsRequest::decode(&out[body_start..]).unwrap_err(),
            DecodeError::Bad("boolean byte")
        );
    }

    #[test]
    fn oversized_node_count_is_rejected_at_decode() {
        let cfg = CdsConfig::policy(Policy::Id);
        let mut out = Vec::new();
        encode_compute_cds(&mut out, 0, 0, &cfg, MAX_NODES + 1, &[], None);
        assert_eq!(
            ComputeCdsRequest::decode(body(&out)).unwrap_err(),
            DecodeError::Bad("n exceeds MAX_NODES")
        );
        let mut req = GenComputeRequest {
            flags: 0,
            deadline_ms: 0,
            cfg,
            n: MAX_NODES + 1,
            seed: 1,
            radius: 25.0,
            side: 100.0,
            connected: false,
            energy_seed: None,
        };
        req.encode(&mut out);
        assert_eq!(
            GenComputeRequest::decode(body(&out)).unwrap_err(),
            DecodeError::Bad("n exceeds MAX_NODES")
        );
        req.n = 10;
        req.side = f64::INFINITY;
        req.encode(&mut out);
        assert!(matches!(
            GenComputeRequest::decode(body(&out)),
            Err(DecodeError::Bad(_))
        ));
    }

    #[test]
    fn gen_compute_round_trip() {
        for energy_seed in [Some(42), None] {
            let req = GenComputeRequest {
                flags: 0,
                deadline_ms: 0,
                cfg: CdsConfig::policy(Policy::Degree),
                n: 77,
                seed: 0xDEAD_BEEF,
                radius: 25.0,
                side: 100.0,
                connected: true,
                energy_seed,
            };
            let mut out = Vec::new();
            req.encode(&mut out);
            assert_eq!(
                request_header(&out[LEN_PREFIX..]).unwrap().0,
                RequestKind::GenCompute
            );
            assert_eq!(GenComputeRequest::decode(body(&out)).unwrap(), req);
        }
    }

    #[test]
    fn cds_result_round_trip() {
        let mask: Vec<bool> = (0..10).map(|v| v % 3 == 0).collect();
        let mut out = Vec::new();
        encode_cds_result(&mut out, 8, 6, 4, 1, &mask);
        let r = decode_cds_result(body(&out)).unwrap();
        assert_eq!(
            (r.cache_hit, r.marked, r.after_rule1, r.gateways, r.rounds),
            (false, 8, 6, 4, 1)
        );
        assert_eq!(r.mask, mask);
        mark_cache_hit(&mut out);
        assert!(decode_cds_result(body(&out)).unwrap().cache_hit);
        // A gateway count the mask does not carry is rejected.
        encode_cds_result(&mut out, 8, 6, 5, 1, &mask);
        assert_eq!(
            decode_cds_result(body(&out)).unwrap_err(),
            DecodeError::Bad("gateway count / mask mismatch")
        );
    }

    #[test]
    fn stats_result_round_trip() {
        let mut out = Vec::new();
        let text = "# HELP pacds nothing\n";
        encode_stats_result(
            &mut out,
            &[("requests", 17), ("cache_hits", 9)],
            text.as_bytes(),
        );
        let s = decode_stats_result(body(&out)).unwrap();
        assert_eq!(s.counter("requests"), Some(17));
        assert_eq!(s.counter("cache_hits"), Some(9));
        assert_eq!(s.counter("absent"), None);
        assert_eq!(s.text, text);
    }

    #[test]
    fn error_round_trip() {
        let mut out = Vec::new();
        encode_error(&mut out, ErrorCode::Rejected, "queue full");
        let e = decode_error(body(&out)).unwrap();
        assert_eq!(
            (e.code, e.message.as_str()),
            (ErrorCode::Rejected, "queue full")
        );
        assert!(!response_is_fatal_error(&out));
        encode_error(&mut out, ErrorCode::Malformed, "truncated body");
        assert!(response_is_fatal_error(&out));
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
        assert_eq!(
            request_header(&out[LEN_PREFIX..]).unwrap().0,
            RequestKind::Subscribe
        );
        let req = decode_subscribe(body(&out)).unwrap();
        assert_eq!(
            (req.flags, req.interval_ms, req.graph),
            (SUB_STATS | SUB_FLIPS, 250, Some("fleet-a"))
        );

        // Flips-only needs no cadence; empty name = all graphs.
        encode_subscribe(&mut out, SUB_FLIPS, 0, None);
        let req = decode_subscribe(body(&out)).unwrap();
        assert_eq!((req.flags, req.graph), (SUB_FLIPS, None));
    }

    #[test]
    fn subscribe_rejects_bad_options() {
        let mut out = Vec::new();
        for (flags, interval, why) in [
            (0, 100, "subscribe flags"),
            (0b1000_0000, 100, "subscribe flags"),
            (
                SUB_STATS,
                MIN_SUBSCRIBE_INTERVAL_MS - 1,
                "subscribe interval",
            ),
        ] {
            encode_subscribe(&mut out, flags, interval, None);
            assert_eq!(
                decode_subscribe(body(&out)).unwrap_err(),
                DecodeError::Bad(why)
            );
        }
        assert_eq!(
            decode_subscribe(&[SUB_STATS]).unwrap_err(),
            DecodeError::Truncated
        );
    }

    #[test]
    fn pushed_and_ack_frames_round_trip() {
        let mut out = Vec::new();
        encode_subscribe_ack(&mut out, 42, SUB_STATS, 500);
        let ack = decode_subscribe_ack(body(&out)).unwrap();
        assert_eq!(
            (ack.subscriber_id, ack.flags, ack.interval_ms),
            (42, SUB_STATS, 500)
        );

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
        encode_stats_delta(&mut out, &d);
        assert_eq!(decode_stats_delta(body(&out)).unwrap(), d);

        encode_flip_event(&mut out, "fleet-a", 9, 15, 230, &[0, 3, 7]);
        let ev = decode_flip_event(body(&out)).unwrap();
        assert_eq!(
            (
                ev.name.as_str(),
                ev.refresh_seq,
                ev.gateway_flips,
                ev.gateways
            ),
            ("fleet-a", 9, 15, 230)
        );
        assert_eq!(ev.tiles, vec![0, 3, 7]);
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
        assert_eq!(
            request_header(&out[LEN_PREFIX..]).unwrap().0,
            RequestKind::OpenGraph
        );
        assert_eq!(graph_name_of(body(&out)), Ok("fleet-a"));
        let req = OpenGraphRequest::decode(body(&out)).unwrap();
        assert_eq!(
            (req.name, req.cfg, req.shards, req.radius),
            ("fleet-a", cfg, 9, 25.0)
        );
        assert_eq!(req.bounds, (0.0, 0.0, 100.0, 100.0));
        assert_eq!(req.points().collect::<Vec<_>>(), points);
        assert_eq!(req.energies().collect::<Vec<_>>(), energy);
    }

    type BadGeometry = (u32, f64, (f64, f64, f64, f64), &'static [(f64, f64)]);

    #[test]
    fn open_graph_rejects_bad_geometry() {
        let cfg = CdsConfig::policy(Policy::Id);
        let unit = (0.0, 0.0, 1.0, 1.0);
        let cases: [BadGeometry; 6] = [
            (4, 0.0, unit, &[]),                 // zero radius
            (4, f64::NAN, unit, &[]),            // NaN radius
            (4, 1.0, (5.0, 0.0, 1.0, 1.0), &[]), // inverted bounds
            (4, 1.0, unit, &[(f64::NAN, 0.5)]),  // NaN point
            (MAX_TILES + 1, 1.0, unit, &[]),     // tile tables too large
            (u32::MAX, 1.0, unit, &[]),
        ];
        for (shards, radius, bounds, pts) in cases {
            let energy = vec![1u64; pts.len()];
            let mut out = Vec::new();
            encode_open_graph(&mut out, "g", &cfg, shards, radius, bounds, pts, &energy);
            assert!(
                matches!(
                    OpenGraphRequest::decode(body(&out)),
                    Err(DecodeError::Bad(_))
                ),
                "shards={shards} radius={radius} bounds={bounds:?}"
            );
        }
        let mut out = Vec::new();
        encode_open_graph(&mut out, "g", &cfg, MAX_TILES, 1.0, unit, &[], &[]);
        assert_eq!(
            OpenGraphRequest::decode(body(&out)).unwrap().shards,
            MAX_TILES
        );
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
        assert_eq!(
            request_header(&out[LEN_PREFIX..]).unwrap().0,
            RequestKind::Mutate
        );
        let (name, decoded) = decode_mutate(body(&out)).unwrap();
        assert_eq!(name, "fleet-a");
        assert_eq!(decoded, events);
    }

    #[test]
    fn mutate_rejects_bad_events() {
        // Unknown event kind byte.
        let mut out = Vec::new();
        encode_mutate(&mut out, "g", &[WireEvent::Kill { node: 0 }]);
        let kind_at = out.len() - 5; // kill body = kind u8 + node u32
        out[kind_at] = 4;
        assert_eq!(
            decode_mutate(body(&out)).unwrap_err(),
            DecodeError::Bad("event kind")
        );
        // Non-finite move coordinate.
        let bad_move = WireEvent::Move {
            node: 1,
            x: f64::INFINITY,
            y: 0.0,
        };
        encode_mutate(&mut out, "g", &[bad_move]);
        assert_eq!(
            decode_mutate(body(&out)).unwrap_err(),
            DecodeError::Bad("event coordinates must be finite")
        );
        // One event over the batch cap.
        let batch = vec![WireEvent::Kill { node: 0 }; MAX_MUTATION_BATCH as usize + 1];
        encode_mutate(&mut out, "g", &batch);
        assert_eq!(
            decode_mutate(body(&out)).unwrap_err(),
            DecodeError::Bad("mutation batch too large")
        );
    }

    #[test]
    fn mutate_batch_cap_is_checked_before_any_event_is_read() {
        // A name and an over-cap count, then no events at all: the count
        // alone must be refused, not read as a truncated event list.
        let mut out = Vec::new();
        encode_mutate(&mut out, "g", &[]);
        let count = body(&out).len() - 4;
        let mut b = body(&out).to_vec();
        b[count..].copy_from_slice(&(MAX_MUTATION_BATCH + 1).to_le_bytes());
        assert_eq!(
            decode_mutate(&b).unwrap_err(),
            DecodeError::Bad("mutation batch too large")
        );
        b[count..].copy_from_slice(&MAX_MUTATION_BATCH.to_le_bytes());
        assert_eq!(decode_mutate(&b).unwrap_err(), DecodeError::Truncated);
    }

    #[test]
    fn close_and_query_tile_round_trip() {
        let mut out = Vec::new();
        encode_close_graph(&mut out, "fleet-b");
        assert_eq!(
            request_header(&out[LEN_PREFIX..]).unwrap().0,
            RequestKind::CloseGraph
        );
        assert_eq!(decode_close_graph(body(&out)).unwrap(), "fleet-b");

        encode_query_tile(&mut out, "fleet-b", 12);
        assert_eq!(
            request_header(&out[LEN_PREFIX..]).unwrap().0,
            RequestKind::QueryTile
        );
        assert_eq!(decode_query_tile(body(&out)).unwrap(), ("fleet-b", 12));
        assert_eq!(graph_name_of(body(&out)), Ok("fleet-b"));
    }

    #[test]
    fn graph_names_are_validated() {
        // The encoders debug-assert valid names, so the invalid-length
        // bodies are crafted by hand: a zero-length name...
        let mut body = vec![0u8, 0u8];
        assert_eq!(
            decode_close_graph(&body).unwrap_err(),
            DecodeError::Bad("graph name length")
        );
        // ...an over-long one...
        let long = (MAX_GRAPH_NAME + 1) as u16;
        body.clear();
        body.extend_from_slice(&long.to_le_bytes());
        body.extend(std::iter::repeat_n(b'x', long as usize));
        assert_eq!(
            decode_close_graph(&body).unwrap_err(),
            DecodeError::Bad("graph name length")
        );
        assert_eq!(
            graph_name_of(&body).unwrap_err(),
            DecodeError::Bad("graph name length")
        );
        // ...and an invalid-UTF-8 one via byte surgery on a valid frame.
        let mut out = Vec::new();
        encode_close_graph(&mut out, "ok");
        let body_start = LEN_PREFIX + 2;
        out[body_start + 2] = 0xFF;
        assert_eq!(
            decode_close_graph(&out[body_start..]).unwrap_err(),
            DecodeError::Bad("graph name utf-8")
        );
    }

    #[test]
    fn churn_response_round_trips() {
        let mut out = Vec::new();
        encode_graph_opened(&mut out, 16, 1000, 137);
        let g = decode_graph_opened(body(&out)).unwrap();
        assert_eq!((g.tiles, g.n, g.gateways), (16, 1000, 137));

        let result = MutateResult {
            applied: 3,
            dirty_tiles: 2,
            resolved_tiles: 2,
            total_tiles: 16,
            gateway_flips: 5,
            gateways: 140,
            n: 1001,
        };
        encode_mutate_result(&mut out, &result);
        assert_eq!(decode_mutate_result(body(&out)).unwrap(), result);

        // TileResult — note: no cache-hit byte anywhere in the frame.
        encode_tile_result(&mut out, 7, &[(11, 0b101), (12, 0)]);
        assert_eq!(body(&out).len(), 4 + 4 + 2 * 5);
        let t = decode_tile_result(body(&out)).unwrap();
        assert_eq!((t.tile, t.entries), (7, vec![(11, 0b101), (12, 0)]));

        for (encode, kind) in [
            (encode_pong as fn(&mut Vec<u8>), ResponseKind::Pong),
            (encode_graph_closed, ResponseKind::GraphClosed),
        ] {
            encode(&mut out);
            assert_eq!((out[LEN_PREFIX + 1], body(&out)), (kind as u8, &[][..]));
        }
    }
}
