//! Request handling: one payload in, one response frame out.
//!
//! [`handle_payload`] is deliberately a pure function over byte buffers —
//! no sockets, no threads — so the server's worker loop, the conformance
//! harness, and the workspace-level zero-allocation test all drive the
//! exact same code. A worker owns one [`WorkerScratch`] for its lifetime;
//! on the cache-warm compute path every buffer the handler touches is
//! retained there, so steady-state serving performs **zero allocations**
//! (pinned by `tests/zero_alloc.rs` at the workspace root).
//!
//! ## Cache keying
//!
//! Results are keyed by a 128-bit digest (`keys`, eight bytes per step)
//! over a domain tag, the 4-byte config encoding, the energy assignment,
//! and the **canonical** edge list (`pacds_graph::digest::canonicalize_edges` — flipped to
//! `u < v`, sorted, deduplicated, in place). Two requests describing the
//! same topology in different wire orders therefore share a cache entry.
//! Generated topologies are keyed by their generation parameters instead,
//! which is cheaper and equally canonical (the generator is deterministic).
//!
//! The cache stores complete response frames with the `cache_hit` byte
//! zeroed; a hit copies the frame into the caller's buffer and patches
//! that single byte ([`protocol::mark_cache_hit`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pacds_core::{CdsConfig, CdsWorkspace};
use pacds_geom::{Point2, Rect};
use pacds_graph::digest::{Digest128, DigestSink};
use pacds_shard::{check_shardable, ChurnEngine, ChurnEvent, ShardSpec, ShardedCds, REQUIRED_HALO};

use crate::keys;
use pacds_graph::{algo, gen, Graph, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::cache::{Claim, Lookup, ShardedCache};
use crate::hub::SubscriberHub;
use crate::protocol::{
    self, encode_error, ComputeCdsRequest, DecodeError, ErrorCode, GenComputeRequest, MutateResult,
    OpenGraphRequest, RequestKind, StatsFormat, WireEvent, FLAG_NO_CACHE, MAX_WORKSPACE_NODES,
    SUB_FLIPS,
};

/// Tile results are keyed per (graph uid, tile, version) — a serve-local
/// space, so the tag stays here; the compute/gen/graph-name tags live in
/// [`keys`] where the cluster coordinator shares them.
const KEY_TAG_TILE: &[u8] = b"pacds.serve.tile.v2";

/// Maximum concurrently open churn graphs per server.
pub const MAX_OPEN_GRAPHS: usize = 64;

/// Bounded resample attempts for `connected` topology generation (matches
/// the CLI's behaviour).
const CONNECT_ATTEMPTS: usize = 200;

/// Always-on server counters (independent of the `obs` feature); these are
/// what the Stats request reports alongside the cache statistics.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Requests accepted into a worker (any kind).
    pub requests: AtomicU64,
    /// Compute-CDS requests.
    pub compute: AtomicU64,
    /// Generate-and-compute requests.
    pub gen_compute: AtomicU64,
    /// Stats probes.
    pub stats_probes: AtomicU64,
    /// Pings.
    pub pings: AtomicU64,
    /// Connections refused with `Rejected` under backpressure.
    pub rejected: AtomicU64,
    /// Frame/parse failures answered with a typed error.
    pub protocol_errors: AtomicU64,
    /// Requests answered with `BadInput`.
    pub bad_input: AtomicU64,
    /// Requests answered with `DeadlineExceeded`.
    pub deadline_exceeded: AtomicU64,
    /// Churn graphs opened.
    pub graphs_opened: AtomicU64,
    /// Churn graphs closed.
    pub graphs_closed: AtomicU64,
    /// Mutate batches applied (fully or up to a rejection).
    pub mutations: AtomicU64,
    /// Individual mutation events applied.
    pub mutation_events: AtomicU64,
    /// Mutation events rejected with `MutationRejected`.
    pub mutation_rejected: AtomicU64,
    /// Tile queries served (cold or warm).
    pub tile_queries: AtomicU64,
}

impl ServerStats {
    /// The counters as stable `(name, value)` pairs, in wire order.
    pub fn entries(&self, cache: &ShardedCache) -> [(&'static str, u64); 21] {
        let c = cache.stats();
        let v = |a: &AtomicU64| a.load(Ordering::Relaxed);
        [
            ("requests", v(&self.requests)),
            ("compute", v(&self.compute)),
            ("gen_compute", v(&self.gen_compute)),
            ("stats_probes", v(&self.stats_probes)),
            ("pings", v(&self.pings)),
            ("rejected", v(&self.rejected)),
            ("protocol_errors", v(&self.protocol_errors)),
            ("bad_input", v(&self.bad_input)),
            ("deadline_exceeded", v(&self.deadline_exceeded)),
            ("graphs_opened", v(&self.graphs_opened)),
            ("graphs_closed", v(&self.graphs_closed)),
            ("mutations", v(&self.mutations)),
            ("mutation_events", v(&self.mutation_events)),
            ("mutation_rejected", v(&self.mutation_rejected)),
            ("tile_queries", v(&self.tile_queries)),
            ("cache_hits", c.hits),
            ("cache_misses", c.misses),
            ("cache_evictions", c.evictions),
            ("cache_uncacheable", c.uncacheable),
            ("cache_entries", c.entries),
            ("cache_bytes", c.bytes),
        ]
    }
}

/// One open churn graph: the persistent engine plus the cache-invalidation
/// state. `uid` is unique per *open* (a close + reopen under the same name
/// gets a fresh uid, so stale cache entries can never be served), and
/// `tile_versions[t]` increments every time tile `t` is re-solved — tile
/// cache keys fold `(uid, tile, version)`, so a mutation invalidates
/// exactly its dirty tiles' cached responses and nothing else. Stale
/// entries age out of the LRU; no explicit removal is needed.
struct OpenGraph {
    engine: ChurnEngine,
    uid: u64,
    tile_versions: Vec<u64>,
    /// Mutate-triggered refreshes on this open (the flip-event sequence
    /// number; the open itself performs refresh 0).
    refreshes: u64,
}

/// The named-graph registry. One mutex over the whole map: churn graphs
/// are stateful and order-sensitive, so mutations on one graph serialise
/// anyway; the map is small (≤ [`MAX_OPEN_GRAPHS`]).
#[derive(Default)]
pub struct GraphRegistry {
    inner: Mutex<HashMap<String, OpenGraph>>,
    next_uid: AtomicU64,
}

impl GraphRegistry {
    /// Open graph count.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("registry poisoned").len()
    }

    /// Whether no graphs are open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for GraphRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphRegistry")
            .field("open", &self.len())
            .finish()
    }
}

/// When compute requests are routed through the sharded engine
/// ([`pacds_shard::ShardedCds`]) instead of the whole-graph workspace.
///
/// Both paths are bit-identical for shardable configurations (pinned by
/// the conformance suite), so the routing decision never changes response
/// bytes — cache entries are shared across modes. A request routed to the
/// workspace with more than [`MAX_WORKSPACE_NODES`] hosts is answered
/// `BadInput`: the workspace's neighbour bitmap takes `n²` bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardMode {
    /// Shard when the topology has at least [`ShardPolicy::threshold`]
    /// nodes, or more than [`MAX_WORKSPACE_NODES`], and the configuration
    /// is shardable.
    #[default]
    Auto,
    /// Shard every shardable request regardless of size (unshardable
    /// configurations silently fall back to the whole-graph workspace).
    Always,
    /// Never shard.
    Never,
}

impl ShardMode {
    /// Parses the CLI spelling (`auto` / `always` / `never`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(Self::Auto),
            "always" => Some(Self::Always),
            "never" => Some(Self::Never),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn label(self) -> &'static str {
        match self {
            Self::Auto => "auto",
            Self::Always => "always",
            Self::Never => "never",
        }
    }
}

/// Server-wide sharded-compute routing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPolicy {
    /// When to route through the sharded engine.
    pub mode: ShardMode,
    /// Minimum node count for [`ShardMode::Auto`] to shard.
    pub threshold: usize,
    /// Shard count handed to the engine (`0` = scale with `n`).
    pub shards: usize,
}

impl Default for ShardPolicy {
    fn default() -> Self {
        Self {
            mode: ShardMode::Auto,
            threshold: 20_000,
            shards: 0,
        }
    }
}

/// Shared (immutable / atomic) server state, one per server instance.
#[derive(Debug)]
pub struct ServeState {
    /// The sharded LRU result cache.
    pub cache: ShardedCache,
    /// Always-on counters.
    pub stats: ServerStats,
    /// Sharded-compute routing.
    pub shard: ShardPolicy,
    /// Named persistent churn graphs.
    pub graphs: GraphRegistry,
    /// Telemetry push subscribers.
    pub hub: SubscriberHub,
    /// Process start, for the `uptime_s` health field.
    pub started: Instant,
    /// Connections accepted but not yet picked up by a worker (the accept
    /// queue's fill level — `sync_channel` has no `len()`, so the acceptor
    /// increments and workers decrement).
    pub queue_depth: AtomicU64,
    /// Worker-pool size, set once at server start (0 for bare handler
    /// tests that never spawn a pool).
    pub workers: AtomicU64,
}

impl ServeState {
    /// State with a cache budget of `cache_bytes`.
    pub fn new(cache_bytes: usize) -> Self {
        Self {
            cache: ShardedCache::new(cache_bytes),
            stats: ServerStats::default(),
            shard: ShardPolicy::default(),
            graphs: GraphRegistry::default(),
            hub: SubscriberHub::default(),
            started: Instant::now(),
            queue_depth: AtomicU64::new(0),
            workers: AtomicU64::new(0),
        }
    }

    /// All Stats-frame entries: the legacy counters plus the cheap health
    /// fields appended at the tail. The wire counter list is `k`-counted,
    /// so decoders built before the health fields existed skip them
    /// without noticing — pinned by `stats_frame_backward_decodable`.
    pub fn stat_entries(&self) -> Vec<(&'static str, u64)> {
        let mut out = self.stats.entries(&self.cache).to_vec();
        out.push(("uptime_s", self.started.elapsed().as_secs()));
        out.push(("queue_depth", self.queue_depth.load(Ordering::Relaxed)));
        out.push(("open_graphs", self.graphs.len() as u64));
        out.push(("workers", self.workers.load(Ordering::Relaxed)));
        out
    }
}

/// Per-worker retained buffers. Everything the warm path touches lives
/// here and is reused request to request; nothing in this struct is
/// allocated after the buffers reach their steady-state high-water marks.
#[derive(Debug, Default)]
pub struct WorkerScratch {
    /// The retained CDS workspace (itself allocation-free on recompute).
    pub ws: CdsWorkspace,
    /// The retained sharded engine, used when [`ShardPolicy`] routes a
    /// request to it (its verdicts are bit-identical to `ws`).
    sharded: ShardedCds,
    /// Canonicalised edge buffer.
    edges: Vec<(NodeId, NodeId)>,
    /// Energy buffer.
    energy: Vec<u64>,
    /// Rebuilt topology (cold path only).
    graph: Graph,
    /// Generated placements (gen path only).
    points: Vec<Point2>,
}

impl WorkerScratch {
    /// A fresh scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// What the connection loop should do after a response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandleOutcome {
    /// Response written; keep the connection.
    KeepOpen,
    /// Response written; framing is unreliable, close after sending.
    Close,
    /// An ack was written and the connection should flip into push mode:
    /// register with [`ServeState::hub`] (the ack already carries `id`)
    /// and drain the subscription queue to the socket until the client
    /// hangs up or the subscriber lags.
    Subscribe {
        /// Hub id the ack frame promised (pre-allocated by the handler).
        id: u64,
        /// Accepted [`protocol::SUB_STATS`] | [`protocol::SUB_FLIPS`].
        flags: u8,
        /// Accepted stats cadence in milliseconds.
        interval_ms: u32,
        /// Flip-event graph filter (`None` = all graphs).
        graph: Option<String>,
    },
}

/// Handles one request payload (`version, kind, body` — the bytes after
/// the length prefix), writing exactly one complete response frame
/// (length prefix included) into `resp`. `received` is when the frame
/// arrived; deadlines are measured from it. Never panics on untrusted
/// bytes; every failure becomes a typed error frame.
pub fn handle_payload(
    state: &ServeState,
    scratch: &mut WorkerScratch,
    payload: &[u8],
    resp: &mut Vec<u8>,
    received: Instant,
) -> HandleOutcome {
    state.stats.requests.fetch_add(1, Ordering::Relaxed);
    pacds_obs::inc(pacds_obs::Counter::ServeRequests);
    let (kind, body) = match protocol::request_header(payload) {
        Ok(header) => header,
        Err((code, msg)) => return protocol_error(state, resp, code, msg),
    };
    // One trace id per request (NONE unless sampling hits); every span
    // along the request's path — cache lookup, shard dispatch, per-tile
    // solve, merge — carries it, so one JSONL trace line reconstructs
    // where the request spent its time.
    let trace = pacds_obs::next_trace_id();
    let _req_span = pacds_obs::span(trace, pacds_obs::SpanKind::Request, u32::from(payload[1]));
    let handled = match kind {
        RequestKind::ComputeCds => handle_compute(state, scratch, body, resp, received, trace),
        RequestKind::GenCompute => handle_gen(state, scratch, body, resp, received, trace),
        RequestKind::Stats => handle_stats(state, body, resp),
        RequestKind::OpenGraph => handle_open_graph(state, body, resp),
        RequestKind::Mutate => handle_mutate(state, body, resp, trace),
        RequestKind::CloseGraph => handle_close_graph(state, body, resp),
        RequestKind::QueryTile => handle_query_tile(state, body, resp),
        RequestKind::Subscribe => handle_subscribe(state, body, resp),
        RequestKind::Ping => {
            state.stats.pings.fetch_add(1, Ordering::Relaxed);
            protocol::encode_pong(resp);
            Ok(HandleOutcome::KeepOpen)
        }
    };
    handled.unwrap_or_else(|e| decode_failed(state, resp, &e))
}

/// A request handler's result: a body that fails to decode is answered by
/// [`decode_failed`].
type Handled = Result<HandleOutcome, DecodeError>;

fn protocol_error(
    state: &ServeState,
    resp: &mut Vec<u8>,
    code: ErrorCode,
    msg: &str,
) -> HandleOutcome {
    state.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
    pacds_obs::inc(pacds_obs::Counter::ServeProtocolErrors);
    encode_error(resp, code, msg);
    if code.is_connection_fatal() {
        HandleOutcome::Close
    } else {
        HandleOutcome::KeepOpen
    }
}

/// A typed error for a request that parsed but cannot be served (bad
/// field values, unknown graph, …): the connection stays usable.
fn input_error(
    state: &ServeState,
    resp: &mut Vec<u8>,
    code: ErrorCode,
    msg: &str,
) -> HandleOutcome {
    debug_assert!(!code.is_connection_fatal());
    state.stats.bad_input.fetch_add(1, Ordering::Relaxed);
    encode_error(resp, code, msg);
    HandleOutcome::KeepOpen
}

fn bad_input(state: &ServeState, resp: &mut Vec<u8>, msg: &str) -> HandleOutcome {
    input_error(state, resp, ErrorCode::BadInput, msg)
}

fn decode_failed(state: &ServeState, resp: &mut Vec<u8>, err: &DecodeError) -> HandleOutcome {
    match err.wire_error() {
        (code, msg) if code.is_connection_fatal() => protocol_error(state, resp, code, msg),
        (code, msg) => input_error(state, resp, code, msg),
    }
}

/// `Some(deadline)` for a non-zero deadline field.
fn deadline_of(received: Instant, deadline_ms: u32) -> Option<Instant> {
    (deadline_ms > 0).then(|| received + Duration::from_millis(u64::from(deadline_ms)))
}

fn deadline_hit(state: &ServeState, resp: &mut Vec<u8>, deadline: Option<Instant>) -> bool {
    if deadline.is_some_and(|d| Instant::now() > d) {
        state
            .stats
            .deadline_exceeded
            .fetch_add(1, Ordering::Relaxed);
        pacds_obs::inc(pacds_obs::Counter::ServeDeadlineExceeded);
        encode_error(resp, ErrorCode::DeadlineExceeded, "deadline elapsed");
        true
    } else {
        false
    }
}

fn handle_compute(
    state: &ServeState,
    scratch: &mut WorkerScratch,
    body: &[u8],
    resp: &mut Vec<u8>,
    received: Instant,
    trace: pacds_obs::TraceId,
) -> Handled {
    state.stats.compute.fetch_add(1, Ordering::Relaxed);
    let decode_timer = pacds_obs::phase_timer(pacds_obs::Phase::ServeDecode);
    let req = ComputeCdsRequest::decode(body)?;
    if !fits_engine(state, &req.cfg, req.n) {
        return Ok(bad_input(state, resp, WORKSPACE_TOO_SMALL));
    }
    // Validate + copy edges into the retained buffer in one streaming pass.
    req.canonical_edges(&mut scratch.edges)?;
    let n = req.n;
    drop(decode_timer);

    let deadline = deadline_of(received, req.deadline_ms);
    let key = (req.flags & FLAG_NO_CACHE == 0)
        .then(|| keys::compute_key(&req.cfg, req.energy_raw, n, &scratch.edges));
    let claim = match cached(state, key, resp, deadline, trace) {
        Ok(claim) => claim,
        Err(answered) => return Ok(answered),
    };

    // Cache miss: rebuild the topology and run the pipeline (cold path,
    // allocation is fine here).
    scratch.graph = Graph::from_edges(n as usize, &scratch.edges);
    scratch.energy.clear();
    if let Some(levels) = req.energies() {
        scratch.energy.extend(levels);
    }
    let energy = req
        .energy_raw
        .is_some()
        .then_some(scratch.energy.as_slice());
    Ok(compute_and_encode(
        state,
        scratch,
        &req.cfg,
        energy.is_some(),
        resp,
        deadline,
        claim,
        trace,
    ))
}

fn handle_gen(
    state: &ServeState,
    scratch: &mut WorkerScratch,
    body: &[u8],
    resp: &mut Vec<u8>,
    received: Instant,
    trace: pacds_obs::TraceId,
) -> Handled {
    state.stats.gen_compute.fetch_add(1, Ordering::Relaxed);
    let req = GenComputeRequest::decode(body)?;
    if !fits_engine(state, &req.cfg, req.n) {
        return Ok(bad_input(state, resp, WORKSPACE_TOO_SMALL));
    }
    let deadline = deadline_of(received, req.deadline_ms);
    let key = (req.flags & FLAG_NO_CACHE == 0).then(|| keys::gen_key(&req));
    let claim = match cached(state, key, resp, deadline, trace) {
        Ok(claim) => claim,
        Err(answered) => return Ok(answered),
    };

    // Deterministic server-side generation, mirroring the CLI: resample
    // until connected (bounded), then assign energies.
    let bounds = Rect::square(req.side);
    let mut rng = ChaCha8Rng::seed_from_u64(req.seed);
    let n = req.n as usize;
    for _ in 0..CONNECT_ATTEMPTS {
        scratch.points.clear();
        scratch
            .points
            .extend(pacds_geom::placement::uniform_points(&mut rng, bounds, n));
        scratch.graph = gen::unit_disk(bounds, req.radius, &scratch.points);
        if !req.connected || algo::is_connected(&scratch.graph) {
            break;
        }
    }
    scratch.energy.clear();
    match req.energy_seed {
        None => scratch.energy.extend(std::iter::repeat_n(10u64, n)),
        Some(seed) => {
            let mut erng = ChaCha8Rng::seed_from_u64(seed);
            scratch
                .energy
                .extend((0..n).map(|_| erng.random_range(0..=10u64)));
        }
    }
    Ok(compute_and_encode(
        state, scratch, &req.cfg, true, resp, deadline, claim, trace,
    ))
}

/// The single-flight cache step of a compute request. `Err` means `resp`
/// already holds the answer: the cached frame with its hit flag set, or a
/// deadline error. `Ok` means the caller computes — inserting through the
/// claim, when it got one, answers every request waiting on the key.
fn cached<'a>(
    state: &'a ServeState,
    key: Option<u128>,
    resp: &mut Vec<u8>,
    deadline: Option<Instant>,
    trace: pacds_obs::TraceId,
) -> Result<Option<Claim<'a>>, HandleOutcome> {
    let lookup = key.map(|key| {
        let _span = pacds_obs::span(trace, pacds_obs::SpanKind::CacheLookup, 0);
        state.cache.get_or_claim(key, resp, deadline)
    });
    if deadline_hit(state, resp, deadline) {
        return Err(HandleOutcome::KeepOpen);
    }
    match lookup {
        Some(Lookup::Hit) => {
            protocol::mark_cache_hit(resp);
            Err(HandleOutcome::KeepOpen)
        }
        Some(Lookup::Miss(claim)) => Ok(Some(claim)),
        None => Ok(None),
    }
}

/// Whether a topology of `n` hosts under `cfg` runs on the sharded
/// engine rather than the whole-graph workspace.
fn use_shard(state: &ServeState, cfg: &CdsConfig, n: usize) -> bool {
    match state.shard.mode {
        ShardMode::Never => false,
        ShardMode::Always => check_shardable(cfg).is_ok(),
        ShardMode::Auto => {
            let big = n >= state.shard.threshold || n > MAX_WORKSPACE_NODES as usize;
            big && check_shardable(cfg).is_ok()
        }
    }
}

const WORKSPACE_TOO_SMALL: &str = "n exceeds MAX_WORKSPACE_NODES on the whole-graph engine";

/// False when the request would run on the workspace past
/// [`MAX_WORKSPACE_NODES`] — its `n²`-bit bitmap would be gigabytes.
fn fits_engine(state: &ServeState, cfg: &CdsConfig, n: u32) -> bool {
    n <= MAX_WORKSPACE_NODES || use_shard(state, cfg, n as usize)
}

/// Runs the pipeline on `scratch.graph`, encodes the `CdsResult` frame,
/// inserts it into the cache through `claim` (flag zeroed), and patches
/// nothing: a fresh computation reports `cache_hit = 0`.
#[allow(clippy::too_many_arguments)]
fn compute_and_encode(
    state: &ServeState,
    scratch: &mut WorkerScratch,
    cfg: &CdsConfig,
    with_energy: bool,
    resp: &mut Vec<u8>,
    deadline: Option<Instant>,
    claim: Option<Claim<'_>>,
    trace: pacds_obs::TraceId,
) -> HandleOutcome {
    let use_shard = use_shard(state, cfg, scratch.graph.n());
    {
        let _s = pacds_obs::span(
            trace,
            pacds_obs::SpanKind::Compute,
            scratch.graph.n() as u32,
        );
        let _t = pacds_obs::phase_timer(pacds_obs::Phase::ServeCompute);
        let energy = with_energy.then_some(scratch.energy.as_slice());
        if use_shard {
            if scratch.sharded.spec().shards != state.shard.shards {
                scratch.sharded = ShardedCds::new(ShardSpec::new(state.shard.shards))
                    .expect("default halo is legal");
            }
            scratch.sharded.set_trace(trace);
            scratch
                .sharded
                .compute_graph(&scratch.graph, energy, cfg)
                .expect("shardability pre-checked");
        } else {
            scratch.ws.compute(&scratch.graph, energy, cfg);
        }
    }
    let _t = pacds_obs::phase_timer(pacds_obs::Phase::ServeEncode);
    let count = |mask: &[bool]| mask.iter().filter(|&&b| b).count() as u32;
    let (marked, after1, gateway_count, rounds, mask) = if use_shard {
        let e = &scratch.sharded;
        (
            count(e.marked()),
            count(e.after_rule1()),
            e.gateway_count(),
            e.rounds(),
            e.gateways(),
        )
    } else {
        let w = &scratch.ws;
        (
            count(w.marked()),
            count(w.after_rule1()),
            w.gateway_count(),
            w.rounds(),
            w.gateways(),
        )
    };
    protocol::encode_cds_result(
        resp,
        marked,
        after1,
        gateway_count as u32,
        rounds as u32,
        mask,
    );
    if let Some(claim) = claim {
        claim.insert(resp);
    }
    // The computation is already done and cached; if the client's deadline
    // passed while we worked, tell it so (the result stays cached for a
    // retry).
    deadline_hit(state, resp, deadline);
    HandleOutcome::KeepOpen
}

fn handle_open_graph(state: &ServeState, body: &[u8], resp: &mut Vec<u8>) -> Handled {
    let req = OpenGraphRequest::decode(body)?;
    // Build the engine inputs before taking the registry lock.
    let points: Vec<Point2> = req.points().map(|(x, y)| Point2::new(x, y)).collect();
    let energy: Vec<u64> = req.energies().collect();
    let bounds = Rect::new(req.bounds.0, req.bounds.1, req.bounds.2, req.bounds.3);
    let spec = ShardSpec {
        shards: req.shards as usize,
        halo: REQUIRED_HALO,
        threads: 1,
    };
    let mut graphs = state.graphs.inner.lock().expect("registry poisoned");
    if graphs.contains_key(req.name) {
        return Ok(input_error(
            state,
            resp,
            ErrorCode::GraphExists,
            "graph already open",
        ));
    }
    if graphs.len() >= MAX_OPEN_GRAPHS {
        state.stats.rejected.fetch_add(1, Ordering::Relaxed);
        encode_error(resp, ErrorCode::Rejected, "graph registry full");
        return Ok(HandleOutcome::KeepOpen);
    }
    let engine = match ChurnEngine::open(spec, bounds, req.radius, &points, &energy, &req.cfg) {
        Ok(engine) => engine,
        // Unshardable configs / bad halos mirror the batch engine's typed
        // rejection; the frame parsed, so the connection stays usable.
        Err(e) => return Ok(bad_input(state, resp, e.label())),
    };
    let uid = state.graphs.next_uid.fetch_add(1, Ordering::Relaxed);
    let tiles = engine.tiles();
    let n = engine.n();
    let gateways = engine.gateway_count();
    graphs.insert(
        req.name.to_string(),
        OpenGraph {
            engine,
            uid,
            tile_versions: vec![0; tiles],
            refreshes: 0,
        },
    );
    drop(graphs);
    state.stats.graphs_opened.fetch_add(1, Ordering::Relaxed);
    protocol::encode_graph_opened(resp, tiles as u32, n as u32, gateways as u32);
    Ok(HandleOutcome::KeepOpen)
}

fn handle_mutate(
    state: &ServeState,
    body: &[u8],
    resp: &mut Vec<u8>,
    trace: pacds_obs::TraceId,
) -> Handled {
    let (name, events) = protocol::decode_mutate(body)?;
    state.stats.mutations.fetch_add(1, Ordering::Relaxed);
    let mut graphs = state.graphs.inner.lock().expect("registry poisoned");
    let Some(open) = graphs.get_mut(name) else {
        return Ok(input_error(
            state,
            resp,
            ErrorCode::UnknownGraph,
            "graph not open",
        ));
    };
    let mut applied = 0u32;
    let mut rejection = None;
    for (i, ev) in events.iter().enumerate() {
        let ev = match *ev {
            WireEvent::Add { x, y, energy } => ChurnEvent::AddNode {
                pos: Point2::new(x, y),
                energy,
            },
            WireEvent::Move { node, x, y } => ChurnEvent::MoveNode {
                node,
                to: Point2::new(x, y),
            },
            WireEvent::Kill { node } => ChurnEvent::KillNode { node },
            WireEvent::Drain { node, remaining } => ChurnEvent::DrainBattery { node, remaining },
        };
        match open.engine.apply(&ev) {
            Ok(()) => applied += 1,
            Err(e) => {
                rejection = Some(format!("event {i}: {e}"));
                break;
            }
        }
    }
    // Refresh whatever was applied — even on a rejection, so the engine's
    // state always reflects exactly the applied prefix — and bump the
    // versions of every re-solved tile so their cached TileResult frames
    // can no longer be served.
    let dirty = open.engine.dirty_tiles();
    open.engine.set_trace(trace);
    let stats = open.engine.refresh();
    for &t in &dirty {
        open.tile_versions[t] += 1;
    }
    open.refreshes += 1;
    let refresh_seq = open.refreshes;
    let gateways = open.engine.gateway_count() as u32;
    let n = open.engine.n() as u32;
    drop(graphs);
    // Publish the flip event after releasing the registry lock so slow
    // subscribers can never extend the mutation's critical section.
    if !dirty.is_empty() {
        let tiles: Vec<u32> = dirty.iter().map(|&t| t as u32).collect();
        state
            .hub
            .publish_flip(name, refresh_seq, stats.gateway_flips, gateways, &tiles);
    }
    state
        .stats
        .mutation_events
        .fetch_add(u64::from(applied), Ordering::Relaxed);
    if let Some(msg) = rejection {
        state
            .stats
            .mutation_rejected
            .fetch_add(1, Ordering::Relaxed);
        encode_error(resp, ErrorCode::MutationRejected, &msg);
        return Ok(HandleOutcome::KeepOpen);
    }
    let result = MutateResult {
        applied,
        dirty_tiles: stats.dirty_tiles as u32,
        resolved_tiles: stats.resolved_tiles as u32,
        total_tiles: stats.total_tiles as u32,
        gateway_flips: stats.gateway_flips,
        gateways,
        n,
    };
    protocol::encode_mutate_result(resp, &result);
    Ok(HandleOutcome::KeepOpen)
}

fn handle_close_graph(state: &ServeState, body: &[u8], resp: &mut Vec<u8>) -> Handled {
    let name = protocol::decode_close_graph(body)?;
    let removed = state
        .graphs
        .inner
        .lock()
        .expect("registry poisoned")
        .remove(name);
    if removed.is_none() {
        return Ok(input_error(
            state,
            resp,
            ErrorCode::UnknownGraph,
            "graph not open",
        ));
    }
    state.stats.graphs_closed.fetch_add(1, Ordering::Relaxed);
    protocol::encode_graph_closed(resp);
    Ok(HandleOutcome::KeepOpen)
}

fn handle_query_tile(state: &ServeState, body: &[u8], resp: &mut Vec<u8>) -> Handled {
    let (name, tile) = protocol::decode_query_tile(body)?;
    state.stats.tile_queries.fetch_add(1, Ordering::Relaxed);
    let graphs = state.graphs.inner.lock().expect("registry poisoned");
    let Some(open) = graphs.get(name) else {
        return Ok(input_error(
            state,
            resp,
            ErrorCode::UnknownGraph,
            "graph not open",
        ));
    };
    if tile as usize >= open.engine.tiles() {
        return Ok(bad_input(state, resp, "tile out of range"));
    }
    // Key on (graph uid, tile, tile version): a mutation that re-solved
    // this tile bumped the version, so its old cached frame is simply
    // never looked up again — per-dirty-tile invalidation without a cache
    // removal primitive. The frame carries no hit flag, so cold and warm
    // responses are byte-identical.
    let mut d = Digest128::new();
    d.write(KEY_TAG_TILE);
    d.write_u64(open.uid);
    d.write_u32(tile);
    d.write_u64(open.tile_versions[tile as usize]);
    let key = d.finish();
    if state.cache.get_into(key, resp) {
        return Ok(HandleOutcome::KeepOpen);
    }
    protocol::encode_tile_result(resp, tile, open.engine.tile_result(tile as usize));
    drop(graphs);
    state.cache.insert(key, resp);
    Ok(HandleOutcome::KeepOpen)
}

fn handle_subscribe(state: &ServeState, body: &[u8], resp: &mut Vec<u8>) -> Handled {
    let req = protocol::decode_subscribe(body)?;
    // A named flip subscription must reference an open graph; stats-only
    // subscriptions are graph-independent. (The graph may still close
    // later — the subscription then simply stops receiving flip events.)
    if req.flags & SUB_FLIPS != 0 {
        if let Some(name) = req.graph {
            let graphs = state.graphs.inner.lock().expect("registry poisoned");
            if !graphs.contains_key(name) {
                return Ok(input_error(
                    state,
                    resp,
                    ErrorCode::UnknownGraph,
                    "graph not open",
                ));
            }
        }
    }
    // Pre-allocate the id so the ack frame can carry it; the server loop
    // registers the receiver with the hub *before* writing this ack, so a
    // client never misses an event it was promised.
    let id = state.hub.allocate_id();
    protocol::encode_subscribe_ack(resp, id, req.flags, req.interval_ms);
    Ok(HandleOutcome::Subscribe {
        id,
        flags: req.flags,
        interval_ms: req.interval_ms,
        graph: req.graph.map(str::to_owned),
    })
}

fn handle_stats(state: &ServeState, body: &[u8], resp: &mut Vec<u8>) -> Handled {
    state.stats.stats_probes.fetch_add(1, Ordering::Relaxed);
    let format = protocol::decode_stats_request(body)?;
    let entries = state.stat_entries();
    let mut text = Vec::new();
    // The health form answers from the always-on atomics alone — no obs
    // snapshot capture, no text rendering — so a coordinator probing every
    // few hundred milliseconds costs the backend next to nothing.
    if format != StatsFormat::Health {
        let snap = pacds_obs::Snapshot::capture();
        match format {
            StatsFormat::Health => unreachable!("skipped above"),
            StatsFormat::Table => {
                for (name, value) in &entries {
                    text.extend_from_slice(format!("{name:<20} {value}\n").as_bytes());
                }
                for c in &snap.counters {
                    text.extend_from_slice(format!("{:<20} {}\n", c.name, c.value).as_bytes());
                }
                for p in &snap.phases {
                    text.extend_from_slice(
                        format!("{:<20} {} calls, {} ns\n", p.name, p.count, p.total_ns).as_bytes(),
                    );
                }
            }
            StatsFormat::Jsonl => {
                let _ = pacds_obs::write_jsonl(&snap, &mut text);
            }
            StatsFormat::Prometheus => {
                let _ = pacds_obs::write_prometheus(&snap, &mut text);
            }
        }
    }
    protocol::encode_stats_result(resp, &entries, &text);
    Ok(HandleOutcome::KeepOpen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ResponseKind, LEN_PREFIX, PROTOCOL_VERSION};
    use pacds_core::Policy;
    use pacds_graph::mask_to_vec;

    fn compute_via_handler(
        state: &ServeState,
        scratch: &mut WorkerScratch,
        cfg: &CdsConfig,
        n: u32,
        edges: &[(u32, u32)],
        energy: Option<&[u64]>,
        flags: u8,
    ) -> (Vec<u8>, HandleOutcome) {
        let mut frame = Vec::new();
        protocol::encode_compute_cds(&mut frame, flags, 0, cfg, n, edges, energy);
        let mut resp = Vec::new();
        let outcome = handle_payload(
            state,
            scratch,
            &frame[LEN_PREFIX..],
            &mut resp,
            Instant::now(),
        );
        (resp, outcome)
    }

    fn resp_payload(resp: &[u8]) -> &[u8] {
        let len = u32::from_le_bytes(resp[..4].try_into().unwrap()) as usize;
        assert_eq!(len, resp.len() - LEN_PREFIX);
        &resp[LEN_PREFIX..]
    }

    #[test]
    fn compute_matches_direct_pipeline() {
        let state = ServeState::new(1 << 20);
        let mut scratch = WorkerScratch::new();
        let edges = [(0u32, 1), (1, 2), (2, 3), (3, 4), (1, 3)];
        let cfg = CdsConfig::sequential(Policy::Degree);
        let (resp, outcome) = compute_via_handler(&state, &mut scratch, &cfg, 5, &edges, None, 0);
        assert_eq!(outcome, HandleOutcome::KeepOpen);
        let p = resp_payload(&resp);
        assert_eq!(ResponseKind::from_wire(p[1]), Some(ResponseKind::CdsResult));
        let result = protocol::decode_cds_result(&p[2..]).unwrap();
        assert!(!result.cache_hit);

        let g = Graph::from_edges(5, &edges);
        let mut ws = CdsWorkspace::new();
        let direct = ws.compute(&g, None, &cfg).clone();
        assert_eq!(result.mask, direct);
        assert_eq!(result.gateways as usize, ws.gateway_count());
        assert_eq!(result.rounds as usize, ws.rounds());
    }

    #[test]
    fn cache_hit_on_permuted_edges() {
        let state = ServeState::new(1 << 20);
        let mut scratch = WorkerScratch::new();
        let cfg = CdsConfig::policy(Policy::Id);
        let edges = [(0u32, 1), (1, 2), (2, 3)];
        let permuted = [(3u32, 2), (1, 0), (2, 1)];
        let (first, _) = compute_via_handler(&state, &mut scratch, &cfg, 4, &edges, None, 0);
        let (second, _) = compute_via_handler(&state, &mut scratch, &cfg, 4, &permuted, None, 0);
        let a = protocol::decode_cds_result(&resp_payload(&first)[2..]).unwrap();
        let b = protocol::decode_cds_result(&resp_payload(&second)[2..]).unwrap();
        assert!(!a.cache_hit);
        assert!(
            b.cache_hit,
            "permuted wire order must share the cache entry"
        );
        assert_eq!(a.mask, b.mask);
        assert_eq!(state.cache.stats().hits, 1);
        // Identical except the cache flag byte.
        let mut patched = first.clone();
        protocol::mark_cache_hit(&mut patched);
        assert_eq!(
            patched, second,
            "cached bytes identical modulo the hit flag"
        );
    }

    #[test]
    fn no_cache_flag_bypasses_the_cache() {
        let state = ServeState::new(1 << 20);
        let mut scratch = WorkerScratch::new();
        let cfg = CdsConfig::policy(Policy::Degree);
        let edges = [(0u32, 1), (1, 2)];
        for _ in 0..2 {
            let (resp, _) =
                compute_via_handler(&state, &mut scratch, &cfg, 3, &edges, None, FLAG_NO_CACHE);
            let r = protocol::decode_cds_result(&resp_payload(&resp)[2..]).unwrap();
            assert!(!r.cache_hit);
        }
        let s = state.cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
    }

    #[test]
    fn different_config_different_cache_entry() {
        let state = ServeState::new(1 << 20);
        let mut scratch = WorkerScratch::new();
        let edges = [(0u32, 1), (1, 2), (2, 3), (0, 3), (1, 3)];
        let (_, _) = compute_via_handler(
            &state,
            &mut scratch,
            &CdsConfig::policy(Policy::Id),
            4,
            &edges,
            None,
            0,
        );
        let (resp, _) = compute_via_handler(
            &state,
            &mut scratch,
            &CdsConfig::sequential(Policy::Id),
            4,
            &edges,
            None,
            0,
        );
        let r = protocol::decode_cds_result(&resp_payload(&resp)[2..]).unwrap();
        assert!(!r.cache_hit, "different schedule must not share an entry");
        assert_eq!(state.cache.stats().entries, 2);
    }

    #[test]
    fn bad_edges_yield_typed_errors_not_panics() {
        let state = ServeState::new(1 << 20);
        let mut scratch = WorkerScratch::new();
        let cfg = CdsConfig::policy(Policy::Id);
        for (edges, what) in [
            (&[(0u32, 9u32)][..], "out of range"),
            (&[(1, 1)][..], "self-loop"),
        ] {
            let (resp, outcome) =
                compute_via_handler(&state, &mut scratch, &cfg, 3, edges, None, 0);
            assert_eq!(
                outcome,
                HandleOutcome::KeepOpen,
                "{what}: BadInput keeps the connection"
            );
            let p = resp_payload(&resp);
            assert_eq!(ResponseKind::from_wire(p[1]), Some(ResponseKind::Error));
            let e = protocol::decode_error(&p[2..]).unwrap();
            assert_eq!(e.code, ErrorCode::BadInput, "{what}");
        }
        assert_eq!(state.stats.bad_input.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn version_and_kind_failures_close_the_connection() {
        let state = ServeState::new(1 << 20);
        let mut scratch = WorkerScratch::new();
        let mut resp = Vec::new();
        for payload in [&[99u8, 1][..], &[PROTOCOL_VERSION, 0x7E][..], &[1u8][..]] {
            let outcome = handle_payload(&state, &mut scratch, payload, &mut resp, Instant::now());
            assert_eq!(outcome, HandleOutcome::Close);
            let p = resp_payload(&resp);
            let e = protocol::decode_error(&p[2..]).unwrap();
            assert!(e.code.is_connection_fatal());
        }
        assert_eq!(state.stats.protocol_errors.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn gen_compute_is_deterministic_and_cached() {
        let state = ServeState::new(1 << 20);
        let mut scratch = WorkerScratch::new();
        let req = GenComputeRequest {
            flags: 0,
            deadline_ms: 0,
            cfg: CdsConfig::sequential(Policy::EnergyDegree),
            n: 30,
            seed: 11,
            radius: 30.0,
            side: 100.0,
            connected: true,
            energy_seed: Some(7),
        };
        let mut frame = Vec::new();
        req.encode(&mut frame);
        let mut first = Vec::new();
        let mut second = Vec::new();
        handle_payload(
            &state,
            &mut scratch,
            &frame[LEN_PREFIX..],
            &mut first,
            Instant::now(),
        );
        handle_payload(
            &state,
            &mut scratch,
            &frame[LEN_PREFIX..],
            &mut second,
            Instant::now(),
        );
        let a = protocol::decode_cds_result(&resp_payload(&first)[2..]).unwrap();
        let b = protocol::decode_cds_result(&resp_payload(&second)[2..]).unwrap();
        assert!(!a.cache_hit);
        assert!(b.cache_hit);
        assert_eq!(a.mask, b.mask);
        assert!(a.gateways > 0, "a connected 30-host topology has gateways");
        assert!(mask_to_vec(&a.mask).len() == a.gateways as usize);
    }

    #[test]
    fn expired_deadline_is_a_typed_error() {
        let state = ServeState::new(1 << 20);
        let mut scratch = WorkerScratch::new();
        let cfg = CdsConfig::policy(Policy::Id);
        let mut frame = Vec::new();
        protocol::encode_compute_cds(&mut frame, 0, 1, &cfg, 3, &[(0, 1), (1, 2)], None);
        let stale = Instant::now() - Duration::from_millis(50);
        let mut resp = Vec::new();
        let outcome = handle_payload(&state, &mut scratch, &frame[LEN_PREFIX..], &mut resp, stale);
        assert_eq!(outcome, HandleOutcome::KeepOpen);
        let e = protocol::decode_error(&resp_payload(&resp)[2..]).unwrap();
        assert_eq!(e.code, ErrorCode::DeadlineExceeded);
        assert_eq!(state.stats.deadline_exceeded.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn ping_and_stats_respond() {
        let state = ServeState::new(1 << 20);
        let mut scratch = WorkerScratch::new();
        let mut frame = Vec::new();
        protocol::encode_ping(&mut frame);
        let mut resp = Vec::new();
        handle_payload(
            &state,
            &mut scratch,
            &frame[LEN_PREFIX..],
            &mut resp,
            Instant::now(),
        );
        assert_eq!(resp_payload(&resp)[1], ResponseKind::Pong as u8);

        // One compute so the counters are non-trivial.
        let cfg = CdsConfig::policy(Policy::Degree);
        compute_via_handler(&state, &mut scratch, &cfg, 3, &[(0, 1), (1, 2)], None, 0);
        for format in [
            StatsFormat::Table,
            StatsFormat::Jsonl,
            StatsFormat::Prometheus,
        ] {
            protocol::encode_stats_request(&mut frame, format);
            handle_payload(
                &state,
                &mut scratch,
                &frame[LEN_PREFIX..],
                &mut resp,
                Instant::now(),
            );
            let p = resp_payload(&resp);
            assert_eq!(
                ResponseKind::from_wire(p[1]),
                Some(ResponseKind::StatsResult)
            );
            let s = protocol::decode_stats_result(&p[2..]).unwrap();
            assert_eq!(s.counter("compute"), Some(1));
            assert_eq!(s.counter("cache_misses"), Some(1));
            assert!(s.counter("requests").unwrap() >= 2);
        }
    }

    #[test]
    fn sharded_and_whole_graph_paths_serve_identical_bytes() {
        // A moderate unit-disk topology so the rules actually fire.
        let bounds = Rect::square(100.0);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let points = pacds_geom::placement::uniform_points(&mut rng, bounds, 80);
        let g = gen::unit_disk(bounds, 25.0, &points);
        let edges: Vec<(u32, u32)> = g.edges().collect();
        let energy: Vec<u64> = (0..80).map(|i| (i * 37) % 100).collect();

        let mut never = ServeState::new(1 << 20);
        never.shard.mode = ShardMode::Never;
        let mut always = ServeState::new(1 << 20);
        always.shard.mode = ShardMode::Always;
        always.shard.shards = 4;

        for policy in [Policy::Id, Policy::Degree, Policy::EnergyDegree] {
            let cfg = CdsConfig::policy(policy);
            let mut ws_scratch = WorkerScratch::new();
            let mut sh_scratch = WorkerScratch::new();
            let (a, _) = compute_via_handler(
                &never,
                &mut ws_scratch,
                &cfg,
                80,
                &edges,
                Some(&energy),
                FLAG_NO_CACHE,
            );
            let (b, _) = compute_via_handler(
                &always,
                &mut sh_scratch,
                &cfg,
                80,
                &edges,
                Some(&energy),
                FLAG_NO_CACHE,
            );
            assert_eq!(a, b, "{policy:?}: response frames must be byte-identical");
            // The sharded engine really ran (its stats are per-compute).
            assert!(sh_scratch.sharded.stats().tiles > 0, "Always must shard");
            assert_eq!(ws_scratch.sharded.stats().tiles, 0, "Never must not");
        }
    }

    #[test]
    fn always_mode_falls_back_on_unshardable_configs() {
        let mut state = ServeState::new(1 << 20);
        state.shard.mode = ShardMode::Always;
        let mut scratch = WorkerScratch::new();
        // Sequential application is unshardable: the request must still be
        // answered, by the whole-graph workspace.
        let cfg = CdsConfig::sequential(Policy::Degree);
        let edges = [(0u32, 1), (1, 2), (2, 3), (1, 3), (3, 4)];
        let (resp, outcome) = compute_via_handler(&state, &mut scratch, &cfg, 5, &edges, None, 0);
        assert_eq!(outcome, HandleOutcome::KeepOpen);
        let r = protocol::decode_cds_result(&resp_payload(&resp)[2..]).unwrap();
        let g = Graph::from_edges(5, &edges);
        let mut ws = CdsWorkspace::new();
        assert_eq!(&r.mask, ws.compute(&g, None, &cfg));
        assert_eq!(scratch.sharded.stats().tiles, 0, "fallback must not shard");
    }

    #[test]
    fn auto_mode_respects_the_node_threshold() {
        let mut state = ServeState::new(1 << 20);
        state.shard.threshold = 4;
        let mut scratch = WorkerScratch::new();
        let cfg = CdsConfig::policy(Policy::Degree);
        let small = [(0u32, 1), (1, 2)];
        compute_via_handler(&state, &mut scratch, &cfg, 3, &small, None, FLAG_NO_CACHE);
        assert_eq!(
            scratch.sharded.stats().tiles,
            0,
            "below threshold: whole-graph"
        );
        let big = [(0u32, 1), (1, 2), (2, 3), (3, 4)];
        compute_via_handler(&state, &mut scratch, &cfg, 5, &big, None, FLAG_NO_CACHE);
        assert!(scratch.sharded.stats().tiles > 0, "at threshold: sharded");
        // Past the workspace's ceiling a shardable request shards whatever
        // the threshold.
        state.shard.threshold = usize::MAX;
        let mut scratch = WorkerScratch::new();
        let n = MAX_WORKSPACE_NODES + 1;
        compute_via_handler(&state, &mut scratch, &cfg, n, &[], None, FLAG_NO_CACHE);
        assert!(
            scratch.sharded.stats().tiles > 0,
            "past MAX_WORKSPACE_NODES: sharded"
        );
    }

    #[test]
    fn shard_mode_labels_round_trip() {
        for mode in [ShardMode::Auto, ShardMode::Always, ShardMode::Never] {
            assert_eq!(ShardMode::parse(mode.label()), Some(mode));
        }
        assert_eq!(ShardMode::parse("sometimes"), None);
    }

    #[test]
    fn open_graph_over_max_tiles_is_bad_input() {
        // The churn engine sizes its per-tile tables from the tile count:
        // u32::MAX tiles would ask for about 100 GB.
        let state = ServeState::new(1 << 20);
        let mut scratch = WorkerScratch::new();
        let cfg = CdsConfig::policy(Policy::Degree);
        let mut frame = Vec::new();
        let bounds = (0.0, 0.0, 100.0, 100.0);
        protocol::encode_open_graph(
            &mut frame,
            "g",
            &cfg,
            u32::MAX,
            25.0,
            bounds,
            &[(1.0, 1.0)],
            &[10],
        );
        let mut resp = Vec::new();
        let outcome = handle_payload(
            &state,
            &mut scratch,
            &frame[LEN_PREFIX..],
            &mut resp,
            Instant::now(),
        );
        assert_eq!(outcome, HandleOutcome::KeepOpen);
        let e = protocol::decode_error(&resp_payload(&resp)[2..]).unwrap();
        assert_eq!(e.code, ErrorCode::BadInput);
        assert!(state.graphs.is_empty());
    }

    #[test]
    fn warm_path_reuses_buffers() {
        // Not the allocator-level pin (that lives in tests/zero_alloc.rs);
        // this checks the observable proxy: response pointer stability.
        let state = ServeState::new(1 << 20);
        let mut scratch = WorkerScratch::new();
        let cfg = CdsConfig::policy(Policy::Degree);
        let edges = [(0u32, 1), (1, 2), (2, 3), (3, 4)];
        let mut frame = Vec::new();
        protocol::encode_compute_cds(&mut frame, 0, 0, &cfg, 5, &edges, None);
        let mut resp = Vec::with_capacity(4096);
        handle_payload(
            &state,
            &mut scratch,
            &frame[LEN_PREFIX..],
            &mut resp,
            Instant::now(),
        );
        let ptr = resp.as_ptr();
        for _ in 0..10 {
            handle_payload(
                &state,
                &mut scratch,
                &frame[LEN_PREFIX..],
                &mut resp,
                Instant::now(),
            );
            assert_eq!(
                resp.as_ptr(),
                ptr,
                "warm hit must reuse the response buffer"
            );
        }
        assert_eq!(state.cache.stats().hits, 10);
    }
}
