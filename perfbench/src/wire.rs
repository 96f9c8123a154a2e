//! `wire-mixed` and `wire-cluster`: the query service over loopback.
//!
//! `wire-mixed` starts an in-process `pacds-serve` with one worker and
//! drives it from one closed-loop connection. `wire-cluster` sends the same
//! mix, from the same seed, through an in-process `pacds-cluster`
//! coordinator fronting two in-process backends. The backends follow the
//! coordinator's worker-sizing rule: more workers than the coordinator's
//! pooled relays plus its prober plus the benchmark's direct connection.
//!
//! Each round sends, in a fixed order, 4 cache-warm `ComputeCds` repeats of
//! one n = 200 topology and one cache-cold `GenCompute` (a fresh seed at
//! n = 2000, below the shard threshold), one 8-event `Mutate` of a named
//! graph of 10⁴ hosts, then `QueryTile` of a tile the mutation dirtied and
//! of one it left clean. Five computes per `Mutate` is the repository's
//! documented mixed load (`loadgen --mutate-every 7 --query-every 5`: 24
//! computes per 5 mutates) rounded to whole requests; the two queries per
//! `Mutate` are the dirty/clean pair. Checks, outside the timed requests:
//!
//! * warm replies equal the first (cold) reply byte for byte, apart from
//!   the cache-hit flag;
//! * cold replies equal a `CdsWorkspace` run on the regenerated topology;
//! * `Mutate` and `QueryTile` replies equal a local `ChurnEngine` replica
//!   fed the same events.
//!
//! End-to-end slots: `ops_per_s` = requests per second (`wire.rps`),
//! `update_ms` = `Mutate` (`wire.mutate_ms`), `scratch_ms` = cold
//! `GenCompute` (`wire.cold_ms.p50`), `response_ms` = warm `ComputeCds`
//! (`wire.warm_us.p50`).

use crate::churn::step_events;
use crate::metrics::Outcome;
use crate::stats::{tail, Rate, Samples};
use crate::trace::{Tracer, CHECK, PROBE};
use crate::Opts;
use pacds_cluster::{cluster, BackendSpec, ClusterConfig, ClusterHandle};
use pacds_core::{CdsConfig, CdsWorkspace, Policy};
use pacds_geom::{Point2, Rect};
use pacds_graph::{gen, Graph};
use pacds_serve::protocol::{
    self, decode_cds_result, decode_mutate_result, decode_tile_result, GenComputeRequest,
    RequestKind, WireEvent, LEN_PREFIX,
};
use pacds_serve::{
    handle_payload, keys, serve, ResponseKind, ServeState, ServerConfig, ServerHandle,
    WorkerScratch,
};
use pacds_shard::{ChurnEngine, ChurnEvent, ShardSpec, REQUIRED_HALO};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub const WARM_N: usize = 200;
pub const COLD_N: usize = 2000;
pub const GRAPH_N: usize = 10_000;
pub const RADIUS: f64 = 25.0;
pub const EVENTS_PER_MUTATE: usize = 8;
const GRAPH: &str = "bench";
const CACHE_BYTES: usize = 64 << 20;
/// `Mutate`s an untraced run measures at least (fixes the tail
/// percentile).
pub const MIN_MUTATES: usize = 100;
const SETUP_REPS: usize = 5;
/// Coordinator: one proxy worker for the one client connection.
const COORD_WORKERS: usize = 1;
/// Backend workers: the coordinator's pooled relays (`max_idle`) plus its
/// prober plus the benchmark's direct connection, plus one spare.
fn backend_workers(cfg: &ClusterConfig) -> usize {
    cfg.max_idle + 3
}
/// Rounds per rate block; `wire.rps` is the median block's.
const BLOCK_ROUNDS: u64 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Warm,
    Cold,
    Mutate,
    QueryDirty,
    QueryClean,
}

/// One round of the mix.
pub const ROUND: [Kind; 8] = [
    Kind::Warm,
    Kind::Warm,
    Kind::Cold,
    Kind::Warm,
    Kind::Warm,
    Kind::Mutate,
    Kind::QueryDirty,
    Kind::QueryClean,
];

fn cds_config() -> CdsConfig {
    CdsConfig::policy(Policy::EnergyDegree)
}

fn side(n: usize) -> f64 {
    100.0 * (n as f64 / 100.0).sqrt()
}

/// A closed-loop connection: one frame out, one frame back.
pub struct Conn {
    stream: TcpStream,
    resp: Vec<u8>,
    ping: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            resp: Vec::new(),
            ping: Vec::new(),
        })
    }

    /// Round trip of a `Ping` padded to `len` frame bytes: the transport
    /// cost of a request frame of that length on this connection, without
    /// its handling. A server or coordinator reads every byte of the frame
    /// and answers `Pong` without looking at the body.
    pub fn ping(&mut self, len: usize) -> io::Result<Duration> {
        let mut frame = std::mem::take(&mut self.ping);
        protocol::begin_frame(&mut frame, RequestKind::Ping as u8);
        frame.resize(len.max(frame.len()), 0);
        protocol::end_frame(&mut frame);
        let t = Instant::now();
        let kind = self.exchange(&frame).map(|r| r[1]);
        let dt = t.elapsed();
        self.ping = frame;
        if kind? != ResponseKind::Pong as u8 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "not a Pong"));
        }
        Ok(dt)
    }

    /// Sends a complete frame; returns the response payload (version,
    /// kind, body).
    pub fn exchange(&mut self, frame: &[u8]) -> io::Result<&[u8]> {
        self.stream.write_all(frame)?;
        let mut prefix = [0u8; LEN_PREFIX];
        self.stream.read_exact(&mut prefix)?;
        let len = u32::from_le_bytes(prefix) as usize;
        if len < 2 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "short frame"));
        }
        self.resp.resize(len, 0);
        self.stream.read_exact(&mut self.resp)?;
        Ok(&self.resp)
    }
}

/// The deterministic inputs of one run.
pub struct Inputs {
    pub warm_edges: Vec<(u32, u32)>,
    pub warm_energy: Vec<u64>,
    pub graph_bounds: Rect,
    pub graph_points: Vec<Point2>,
    pub graph_energy: Vec<u64>,
    pub rng: StdRng,
}

pub fn inputs(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let warm_bounds = Rect::square(side(WARM_N));
    let pts = pacds_geom::placement::uniform_points(&mut rng, warm_bounds, WARM_N);
    let warm_edges = gen::unit_disk(warm_bounds, RADIUS, &pts).edges().collect();
    let warm_energy = (0..WARM_N).map(|_| rng.random_range(1..=10u64)).collect();
    let graph_bounds = Rect::square(side(GRAPH_N));
    let graph_points = pacds_geom::placement::uniform_points(&mut rng, graph_bounds, GRAPH_N);
    let graph_energy = (0..GRAPH_N).map(|_| rng.random_range(1..=100u64)).collect();
    Inputs {
        warm_edges,
        warm_energy,
        graph_bounds,
        graph_points,
        graph_energy,
        rng,
    }
}

fn open_frame(inp: &Inputs, out: &mut Vec<u8>) {
    let b = inp.graph_bounds;
    let points: Vec<(f64, f64)> = inp.graph_points.iter().map(|p| (p.x, p.y)).collect();
    protocol::encode_open_graph(
        out,
        GRAPH,
        &cds_config(),
        0,
        RADIUS,
        (b.x0, b.y0, b.x1, b.y1),
        &points,
        &inp.graph_energy,
    );
}

/// The local replica of the named graph, opened exactly as the server
/// opens it.
fn replica(inp: &Inputs) -> Result<ChurnEngine, String> {
    let spec = ShardSpec {
        shards: 0,
        halo: REQUIRED_HALO,
        threads: 1,
    };
    ChurnEngine::open(
        spec,
        inp.graph_bounds,
        RADIUS,
        &inp.graph_points,
        &inp.graph_energy,
        &cds_config(),
    )
    .map_err(|e| format!("replica open: {e}"))
}

fn cold_request(seed: u64, k: u64) -> GenComputeRequest {
    GenComputeRequest {
        flags: 0,
        deadline_ms: 0,
        cfg: cds_config(),
        n: COLD_N as u32,
        seed: seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(k),
        radius: RADIUS,
        side: side(COLD_N),
        connected: false,
        energy_seed: Some(k ^ 0x5EED),
    }
}

/// The gateway computation a `GenCompute` request asks for, done
/// in-process the way the server generates its topology.
pub fn regenerate(req: &GenComputeRequest) -> (Graph, CdsWorkspace) {
    let bounds = Rect::square(req.side);
    let mut rng = ChaCha8Rng::seed_from_u64(req.seed);
    let pts = pacds_geom::placement::uniform_points(&mut rng, bounds, req.n as usize);
    let g = gen::unit_disk(bounds, req.radius, &pts);
    let energy: Vec<u64> = match req.energy_seed {
        None => vec![10; req.n as usize],
        Some(s) => {
            let mut erng = ChaCha8Rng::seed_from_u64(s);
            (0..req.n).map(|_| erng.random_range(0..=10u64)).collect()
        }
    };
    let mut ws = CdsWorkspace::new();
    ws.compute(&g, Some(&energy), &req.cfg);
    (g, ws)
}

/// A `CdsResult` payload agrees with a workspace run.
pub fn cds_reply_matches(payload: &[u8], ws: &CdsWorkspace, cache_hit: bool) -> bool {
    if payload.get(1) != Some(&(ResponseKind::CdsResult as u8)) {
        return false;
    }
    let count = |m: &[bool]| m.iter().filter(|&&b| b).count() as u32;
    decode_cds_result(&payload[2..]).is_ok_and(|r| {
        r.cache_hit == cache_hit
            && r.mask == *ws.gateways()
            && r.marked == count(ws.marked())
            && r.after_rule1 == count(ws.after_rule1())
            && r.rounds == ws.rounds() as u32
    })
}

/// A warm reply equals the first reply apart from the cache-hit flag.
pub fn warm_reply_matches(payload: &[u8], first: &[u8]) -> bool {
    let flag = protocol::CACHE_FLAG_PAYLOAD_OFFSET;
    payload.len() == first.len()
        && payload.get(flag) == Some(&1)
        && payload[..flag] == first[..flag]
        && payload[flag + 1..] == first[flag + 1..]
}

fn to_wire(ev: &ChurnEvent) -> WireEvent {
    match *ev {
        ChurnEvent::AddNode { pos, energy } => WireEvent::Add {
            x: pos.x,
            y: pos.y,
            energy,
        },
        ChurnEvent::MoveNode { node, to } => WireEvent::Move {
            node,
            x: to.x,
            y: to.y,
        },
        ChurnEvent::KillNode { node } => WireEvent::Kill { node },
        ChurnEvent::DrainBattery { node, remaining } => WireEvent::Drain { node, remaining },
    }
}

/// The in-process servers and the client side of one run.
/// Fields drop in order: client connections close before the coordinator
/// and the servers shut down.
struct Rig {
    conn: Conn,
    /// Straight to the warm key's owning backend (traced cluster run).
    direct: Option<Conn>,
    coord: Option<ClusterHandle>,
    servers: Vec<ServerHandle>,
    /// The same-process twin the traced run replays every frame through.
    twin: Option<(ServeState, WorkerScratch)>,
}

impl Rig {
    fn start(clustered: bool) -> Result<Self, String> {
        let err = |e: io::Error| format!("start: {e}");
        let server = |workers| {
            serve(
                "127.0.0.1:0",
                ServerConfig {
                    workers,
                    queue: 0,
                    cache_bytes: CACHE_BYTES,
                    shard: Default::default(),
                    metrics_addr: None,
                },
            )
        };
        if !clustered {
            let s = server(1).map_err(err)?;
            let conn = Conn::connect(s.addr()).map_err(err)?;
            return Ok(Self {
                servers: vec![s],
                coord: None,
                conn,
                twin: None,
                direct: None,
            });
        }
        let cfg = ClusterConfig {
            workers: COORD_WORKERS,
            ..ClusterConfig::default()
        };
        let servers = (0..2)
            .map(|_| server(backend_workers(&cfg)))
            .collect::<io::Result<Vec<_>>>()
            .map_err(err)?;
        let specs: Vec<BackendSpec> = servers
            .iter()
            .enumerate()
            .map(|(i, s)| BackendSpec::new(format!("b{i}"), s.addr().to_string()))
            .collect();
        let coord = cluster("127.0.0.1:0", &specs, cfg).map_err(err)?;
        let conn = Conn::connect(coord.addr()).map_err(err)?;
        Ok(Self {
            servers,
            coord: Some(coord),
            conn,
            twin: None,
            direct: None,
        })
    }

    /// Replays a request frame through the twin's handler; returns its
    /// response payload and the handler time.
    fn replay(&mut self, frame: &[u8], resp: &mut Vec<u8>) -> Option<Duration> {
        let (state, scratch) = self.twin.as_mut()?;
        let t = Instant::now();
        handle_payload(state, scratch, &frame[LEN_PREFIX..], resp, t);
        Some(t.elapsed())
    }

    fn cache_stats(&self) -> (u64, u64, u64) {
        self.servers.iter().fold((0, 0, 0), |(h, m, b), s| {
            let c = s.state().cache.stats();
            (h + c.hits, m + c.misses, b + c.bytes)
        })
    }
}

/// Per-kind request latencies (µs) and counters of one pass.
#[derive(Debug, Default)]
pub struct Pass {
    pub warm_us: Samples,
    pub cold_us: Samples,
    pub mutate_us: Samples,
    pub query_us: Samples,
    /// Request rate of untraced and traced rounds, indexed by whether the
    /// round was traced.
    pub by_trace: [Rate; 2],
    /// Requests per second of each block of `BLOCK_ROUNDS` rounds.
    pub block_rates: Samples,
    pub resolved: u64,
    pub total_tiles: u64,
    /// Traced run: handler replay times per kind (µs).
    pub handle_us: [Samples; 4],
    pub exchange_warm_us: Samples,
    /// Traced run: round trip of a `Ping` of the warm frame's length on
    /// the connection to the server that handles it (µs).
    pub transport_warm_us: Samples,
    pub direct_warm_us: Samples,
    pub encode_warm_us: Samples,
    pub decode_warm_us: Samples,
}

impl Pass {
    /// The median block's request rate: robust to the machine pausing the
    /// process for part of the run.
    pub fn rps(&self) -> f64 {
        self.block_rates.p50()
    }
}

/// Mutable state the rounds carry across passes.
struct Mix {
    seed: u64,
    inp: Inputs,
    replica: ChurnEngine,
    first_warm: Vec<u8>,
    cold_k: u64,
    round: u64,
    dirty: Vec<usize>,
}

fn kind_index(kind: Kind) -> usize {
    match kind {
        Kind::Warm => 0,
        Kind::Cold => 1,
        Kind::Mutate => 2,
        Kind::QueryDirty | Kind::QueryClean => 3,
    }
}

/// Rounds until `budget` has passed and at least `min_mutates` mutations
/// ran. With `alternate`, every odd round is traced.
///
/// In the traced run the request's exchange span gets children for the
/// parts it is made of: the server's handling (the same frame replayed
/// through the in-process twin, layer `serve`) and each hop's transport (a
/// `Ping` of the request frame's length, round trip on the same connection,
/// layer `transport`).
/// The exchange's own layer is `transport` for one server and `cluster`
/// through the coordinator, so its self time is the rest: socket cost the
/// `Ping` missed, or the coordinator's own relay work. Replays, pings and
/// the direct probe run in every round of the traced run, traced or not,
/// so the two kinds of round differ only in span recording.
fn run_pass(
    rig: &mut Rig,
    mix: &mut Mix,
    budget: Duration,
    min_mutates: usize,
    alternate: bool,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<Pass, String> {
    let (layer, exchange_layer) = if rig.coord.is_some() {
        ("cluster", "cluster")
    } else {
        ("serve", "transport")
    };
    let cfg = cds_config();
    let start = Instant::now();
    let mut pass = Pass::default();
    let (mut frame, mut twin_resp) = (Vec::new(), Vec::new());
    let mut block = Rate::default();
    while pass.mutate_us.len() < min_mutates || start.elapsed() < budget {
        mix.round += 1;
        if alternate {
            tr.set_on(mix.round % 2 == 1);
        }
        let traced = usize::from(tr.on());
        for kind in ROUND {
            // Untimed request inputs: events and tiles come from the replica.
            let mut events = Vec::new();
            let mut tile = 0u32;
            let mut cold = None;
            match kind {
                Kind::Mutate => {
                    events = step_events(
                        &mut mix.inp.rng,
                        &mix.replica,
                        mix.inp.graph_bounds,
                        EVENTS_PER_MUTATE,
                    );
                }
                Kind::QueryDirty => {
                    let k = mix.round as usize % mix.dirty.len().max(1);
                    tile = mix.dirty.get(k).copied().unwrap_or(0) as u32;
                }
                Kind::QueryClean => {
                    tile = (0..mix.replica.tiles())
                        .find(|t| !mix.dirty.contains(t))
                        .unwrap_or(0) as u32;
                }
                Kind::Cold => {
                    mix.cold_k += 1;
                    cold = Some(cold_request(mix.seed, mix.cold_k));
                }
                Kind::Warm => {}
            }
            let wire_events: Vec<WireEvent> = events.iter().map(to_wire).collect();

            let t = Instant::now();
            let root = tr.open(0, layer, "request");
            let te = Instant::now();
            tr.time(root, "serve", "encode", || match kind {
                Kind::Warm => protocol::encode_compute_cds(
                    &mut frame,
                    0,
                    0,
                    &cfg,
                    WARM_N as u32,
                    &mix.inp.warm_edges,
                    Some(&mix.inp.warm_energy),
                ),
                Kind::Cold => cold.as_ref().expect("cold request").encode(&mut frame),
                Kind::Mutate => protocol::encode_mutate(&mut frame, GRAPH, &wire_events),
                Kind::QueryDirty | Kind::QueryClean => {
                    protocol::encode_query_tile(&mut frame, GRAPH, tile)
                }
            });
            let encode = te.elapsed();
            let tx = Instant::now();
            let xid = tr.open(root, exchange_layer, "exchange");
            let reply = rig
                .conn
                .exchange(&frame)
                .map_err(|e| format!("{kind:?} request: {e}"))?;
            tr.close(xid);
            let exchange = tx.elapsed();
            let td = Instant::now();
            let body = &reply[2..];
            let decoded = tr.time(root, "serve", "decode", || match kind {
                Kind::Warm | Kind::Cold => decode_cds_result(body).map(|_| ()),
                Kind::Mutate => decode_mutate_result(body).map(|_| ()),
                Kind::QueryDirty | Kind::QueryClean => decode_tile_result(body).map(|_| ()),
            });
            let decode = td.elapsed();
            tr.close(root);
            let dt = t.elapsed();
            let payload = reply.to_vec();
            let body = &payload[2..];

            pass.by_trace[traced].add(1, dt.as_nanos());
            block.add(1, dt.as_nanos());
            let us = dt.as_secs_f64() * 1e6;
            match kind {
                Kind::Warm => {
                    pass.warm_us.push(us);
                    pass.exchange_warm_us.push(exchange.as_secs_f64() * 1e6);
                    pass.encode_warm_us.push(encode.as_secs_f64() * 1e6);
                    pass.decode_warm_us.push(decode.as_secs_f64() * 1e6);
                }
                Kind::Cold => pass.cold_us.push(us),
                Kind::Mutate => pass.mutate_us.push(us),
                Kind::QueryDirty | Kind::QueryClean => pass.query_us.push(us),
            }

            // Checks, outside the timed request.
            let ok = decoded.is_ok()
                && tr.time(0, CHECK, "reply", || match kind {
                    Kind::Warm => warm_reply_matches(&payload, &mix.first_warm),
                    Kind::Cold => {
                        let req = cold.as_ref().expect("cold request");
                        cds_reply_matches(&payload, &regenerate(req).1, false)
                    }
                    Kind::Mutate => {
                        for ev in &events {
                            if mix.replica.apply(ev).is_err() {
                                return false;
                            }
                        }
                        mix.dirty = mix.replica.dirty_tiles();
                        let s = mix.replica.refresh();
                        decode_mutate_result(body).is_ok_and(|r| {
                            pass.resolved += u64::from(r.resolved_tiles);
                            pass.total_tiles += u64::from(r.total_tiles);
                            r.applied as usize == events.len()
                                && r.dirty_tiles as usize == s.dirty_tiles
                                && r.resolved_tiles as usize == s.resolved_tiles
                                && r.total_tiles as usize == s.total_tiles
                                && r.gateway_flips == s.gateway_flips
                                && r.gateways as usize == mix.replica.gateway_count()
                                && r.n as usize == mix.replica.n()
                        })
                    }
                    Kind::QueryDirty | Kind::QueryClean => {
                        decode_tile_result(body).is_ok_and(|r| {
                            r.tile == tile && r.entries == mix.replica.tile_result(tile as usize)
                        })
                    }
                });
            out.check(ok);

            // Traced run: the exchange's parts, as children of its span.
            if let Some(handle) = rig.replay(&frame, &mut twin_resp) {
                out.check(twin_resp[LEN_PREFIX..] == payload[..]);
                tr.record(xid, "serve", "handle_payload", tx, handle);
                pass.handle_us[kind_index(kind)].push(handle.as_secs_f64() * 1e6);
                let len = frame.len();
                let mut hop = rig.conn.ping(len).map_err(|e| format!("ping: {e}"))?;
                tr.record(xid, "transport", "ping", tx, hop);
                if let Some(direct) = rig.direct.as_mut() {
                    hop = direct.ping(len).map_err(|e| format!("direct ping: {e}"))?;
                    tr.record(xid, "transport", "backend_ping", tx, hop);
                }
                if kind == Kind::Warm {
                    pass.transport_warm_us.push(hop.as_secs_f64() * 1e6);
                }
            }
            // Traced cluster run: the warm frame straight to its owning
            // backend, a probe no user request makes.
            if kind == Kind::Warm {
                if let Some(direct) = rig.direct.as_mut() {
                    let t = Instant::now();
                    let reply = direct
                        .exchange(&frame)
                        .map_err(|e| format!("direct request: {e}"))?;
                    let dt = t.elapsed();
                    tr.record(0, PROBE, "direct_exchange", t, dt);
                    pass.direct_warm_us.push(dt.as_secs_f64() * 1e6);
                    out.check(warm_reply_matches(reply, &mix.first_warm));
                }
            }
        }
        if mix.round.is_multiple_of(BLOCK_ROUNDS) {
            pass.block_rates.push(block.per_s());
            block = Rate::default();
        }
    }
    Ok(pass)
}

pub fn run(opts: &Opts, clustered: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rig = Rig::start(clustered)?;
    let mut frame = Vec::new();

    // Set-up: generate the inputs and open the named graph, several times
    // (closing the previous copy untimed).
    let (mut setup, mut open_ms) = (Samples::default(), Samples::default());
    let mut inp = None;
    for rep in 0..SETUP_REPS {
        if rep > 0 {
            protocol::encode_close_graph(&mut frame, GRAPH);
            rig.conn
                .exchange(&frame)
                .map_err(|e| format!("close: {e}"))?;
        }
        let t = Instant::now();
        let i = inputs(opts.seed);
        open_frame(&i, &mut frame);
        let to = Instant::now();
        let reply = rig
            .conn
            .exchange(&frame)
            .map_err(|e| format!("open: {e}"))?;
        let opened = reply[1] == ResponseKind::GraphOpened as u8;
        open_ms.push(to.elapsed().as_secs_f64() * 1e3);
        setup.push(t.elapsed().as_secs_f64());
        out.check(opened);
        inp = Some(i);
    }
    let inp = inp.expect("at least one set-up");
    out.set("setup_s", setup.p50());
    out.set("serve.open_graph_ms", open_ms.p50());
    let replica = replica(&inp)?;

    // The first warm request is the cold miss every later warm reply must
    // repeat; it is checked against an in-process workspace run.
    let cfg = cds_config();
    protocol::encode_compute_cds(
        &mut frame,
        0,
        0,
        &cfg,
        WARM_N as u32,
        &inp.warm_edges,
        Some(&inp.warm_energy),
    );
    let first_warm = rig
        .conn
        .exchange(&frame)
        .map_err(|e| format!("first request: {e}"))?
        .to_vec();
    let mut ws = CdsWorkspace::new();
    ws.compute(
        &Graph::from_edges(WARM_N, &inp.warm_edges),
        Some(&inp.warm_energy),
        &cfg,
    );
    out.check(cds_reply_matches(&first_warm, &ws, false));

    if opts.trace {
        // The twin sees every frame the servers saw.
        let mut twin = (ServeState::new(CACHE_BYTES), WorkerScratch::new());
        let mut resp = Vec::new();
        let mut replay = |f: &mut Vec<u8>, twin: &mut (ServeState, WorkerScratch)| {
            handle_payload(
                &twin.0,
                &mut twin.1,
                &f[LEN_PREFIX..],
                &mut resp,
                Instant::now(),
            );
        };
        open_frame(&inp, &mut frame);
        replay(&mut frame, &mut twin);
        protocol::encode_compute_cds(
            &mut frame,
            0,
            0,
            &cfg,
            WARM_N as u32,
            &inp.warm_edges,
            Some(&inp.warm_energy),
        );
        replay(&mut frame, &mut twin);
        rig.twin = Some(twin);
        if let Some(coord) = &rig.coord {
            let mut canonical = inp.warm_edges.clone();
            pacds_graph::canonicalize_edges(&mut canonical);
            let energy_raw: Vec<u8> = inp
                .warm_energy
                .iter()
                .flat_map(|e| e.to_le_bytes())
                .collect();
            let key = keys::compute_key(&cfg, Some(&energy_raw), WARM_N as u32, &canonical);
            let owner = coord
                .state()
                .owner(key, None)
                .ok_or("no backend owns the warm key")?;
            let addr: SocketAddr = owner
                .addr
                .parse()
                .map_err(|e| format!("owner address: {e}"))?;
            rig.direct = Some(Conn::connect(addr).map_err(|e| format!("direct connect: {e}"))?);
        }
    }

    let mut mix = Mix {
        seed: opts.seed,
        inp,
        replica,
        first_warm,
        cold_k: 0,
        round: 0,
        dirty: Vec::new(),
    };
    let workload = if clustered {
        "wire-cluster"
    } else {
        "wire-mixed"
    };
    if !opts.trace {
        let p = run_pass(
            &mut rig,
            &mut mix,
            opts.budget(1.0),
            MIN_MUTATES,
            false,
            &mut Tracer::new(false),
            &mut out,
        )?;
        let t = tail(&p.mutate_us, MIN_MUTATES);
        out.set("ops_per_s", p.rps());
        out.set("update_ms.p50", p.mutate_us.p50() / 1e3);
        out.set("update_ms.tail", t.value / 1e3);
        out.set("scratch_ms.p50", p.cold_us.p50() / 1e3);
        out.set("response_ms.p50", p.warm_us.p50() / 1e3);
        out.note("wire.rps", p.rps(), "1/s");
        out.note("wire.warm_us.p50", p.warm_us.p50(), "us");
        out.note("wire.cold_ms.p50", p.cold_us.p50() / 1e3, "ms");
        out.note("wire.mutate_ms.p50", p.mutate_us.p50() / 1e3, "ms");
        out.note_tail("wire.mutate_ms.tail", &t, 1e-3, "ms");
        out.note("setup_s", out.get("setup_s").unwrap_or(0.0), "s");
        return Ok(out);
    }

    // Traced run: rounds alternate traced and untraced; the difference in
    // requests per second is the tracing overhead.
    let mut tr = Tracer::new(true);
    let p = run_pass(
        &mut rig,
        &mut mix,
        opts.budget(1.0),
        0,
        true,
        &mut tr,
        &mut out,
    )?;

    let handle_names = [
        "serve.handle_us.warm",
        "serve.handle_us.cold",
        "serve.handle_us.mutate",
        "serve.handle_us.query",
    ];
    for (name, s) in handle_names.into_iter().zip(&p.handle_us) {
        out.set(name, s.p50());
    }
    out.set("serve.transport_us.warm", p.transport_warm_us.p50());
    out.set("serve.encode_us.warm", p.encode_warm_us.p50());
    out.set("serve.decode_us.warm", p.decode_warm_us.p50());
    out.set("wire.query_us.p50", p.query_us.p50());
    let (hits, misses, bytes) = rig.cache_stats();
    out.set(
        "serve.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set("serve.cache_mb", bytes as f64 / f64::from(1 << 20));
    out.set(
        "serve.mutate_resolved_frac",
        p.resolved as f64 / p.total_tiles.max(1) as f64,
    );
    if let Some(coord) = &rig.coord {
        out.set(
            "cluster.relay_us.warm",
            p.exchange_warm_us.p50() - p.direct_warm_us.p50(),
        );
        let routed: Vec<u64> = coord
            .state()
            .backends
            .iter()
            .map(|b| b.routed.load(std::sync::atomic::Ordering::Relaxed))
            .collect();
        let max = routed.iter().copied().max().unwrap_or(0);
        out.set(
            "cluster.max_backend_share",
            max as f64 / routed.iter().sum::<u64>().max(1) as f64,
        );
    }
    out.set_self_pct(&tr);

    let overhead = 100.0 * (p.by_trace[0].per_s() / p.by_trace[1].per_s() - 1.0);
    out.set("trace.overhead_pct", overhead);
    out.note("trace.overhead_pct (wire.rps)", overhead, "%");
    // Client encode/decode + the handler replay + the handling server's
    // same-length Ping round trip (+ the coordinator's relay: its warm exchange minus
    // the direct one) against the whole warm request, as means. A handler
    // replay or a transport figure that misses part of the exchange shows
    // as the residual.
    let relay = if rig.coord.is_some() {
        p.exchange_warm_us.mean() - p.direct_warm_us.mean()
    } else {
        0.0
    };
    let parts = p.encode_warm_us.mean()
        + p.handle_us[0].mean()
        + p.transport_warm_us.mean()
        + relay
        + p.decode_warm_us.mean();
    out.set_addup(
        "encode + handle + transport + relay + decode",
        parts,
        "wire warm request (means)",
        p.warm_us.mean(),
        "us",
    );
    out.set_tail_floor(MIN_MUTATES);
    crate::trace::write_spans(&tr, workload);
    Ok(out)
}
