//! Closed- and open-loop load generation against a running server.
//!
//! * **Closed loop** — `concurrency` connections, each firing its next
//!   request the moment the previous response lands. Measures the server's
//!   sustainable throughput at a fixed concurrency level.
//! * **Open loop** — requests are *scheduled* at a fixed aggregate rate
//!   (split across the connections) and latency is measured **from the
//!   scheduled send time**, not the actual one. A server that stalls
//!   therefore accrues queueing delay in the recorded tail instead of
//!   silently slowing the generator down (the classic coordinated-omission
//!   correction).
//!
//! Every worker replays the same request — a seeded unit-disk topology
//! generated client-side once — so a run with caching enabled measures the
//! cache-warm hot path, and `no_cache` measures full recomputes. The
//! report lands in [`LoadReport`], which renders itself as the JSON object
//! CI stores as `BENCH_serve.json`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pacds_core::{CdsConfig, Policy};
use pacds_geom::Rect;
use pacds_graph::gen;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::client::{Client, ClientError};
use crate::protocol::{ErrorCode, GenComputeRequest, WireEvent, FLAG_NO_CACHE};

/// Name of the churn graph the mixed workload mutates and queries.
const MIX_GRAPH: &str = "loadgen-mix";

/// Arrival discipline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Fire-on-response at fixed concurrency.
    Closed,
    /// Fixed aggregate arrival rate (requests/second).
    Open {
        /// Target request rate across all connections.
        rate: f64,
    },
}

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address.
    pub addr: String,
    /// Concurrent connections.
    pub concurrency: usize,
    /// Measurement duration.
    pub duration: Duration,
    /// Arrival discipline.
    pub mode: Mode,
    /// CDS configuration each request carries.
    pub cds: CdsConfig,
    /// Topology size.
    pub n: usize,
    /// Unit-disk radius.
    pub radius: f64,
    /// Arena side.
    pub side: f64,
    /// Placement seed.
    pub seed: u64,
    /// Send [`FLAG_NO_CACHE`] (measure full recomputes).
    pub no_cache: bool,
    /// Per-request deadline in ms (0 = none).
    pub deadline_ms: u32,
    /// Every Nth request per worker is a Mutate batch against a shared
    /// churn graph (0 = pure compute workload). Requires a shardable
    /// `cds` configuration (the graph open is rejected otherwise).
    pub mutate_every: usize,
    /// Every Nth request per worker is a QueryTile against the shared
    /// churn graph (0 = never).
    pub query_every: usize,
    /// Cluster mode's key diversity: when > 0, compute slots send
    /// `GenCompute` frames cycling through this many placement seeds
    /// (`seed .. seed + gen_seeds`) instead of replaying one `ComputeCds`.
    /// One request replayed forever hashes to one ring position — i.e. one
    /// backend; a seed wheel spreads the keyspace across the whole ring,
    /// which is what an aggregate-throughput measurement needs. All seeds
    /// are warmed before the clock starts, so the run stays cache-warm.
    pub gen_seeds: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7311".into(),
            concurrency: 8,
            duration: Duration::from_secs(10),
            mode: Mode::Closed,
            cds: CdsConfig::paper(Policy::Degree),
            n: 200,
            radius: 15.0,
            side: 100.0,
            seed: 1,
            no_cache: false,
            deadline_ms: 0,
            mutate_every: 0,
            query_every: 0,
            gen_seeds: 0,
        }
    }
}

/// Latency summary for one frame kind within a mixed run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KindStats {
    /// Successful requests of this kind.
    pub requests: u64,
    /// Median latency (µs).
    pub p50_us: f64,
    /// 99th percentile latency (µs).
    pub p99_us: f64,
    /// Mean latency (µs).
    pub mean_us: f64,
    /// Maximum observed latency (µs).
    pub max_us: f64,
}

impl KindStats {
    fn from_latencies(lat: &mut [u64]) -> Self {
        lat.sort_unstable();
        if lat.is_empty() {
            return Self::default();
        }
        let pct = |q: f64| {
            let idx = ((lat.len() as f64 - 1.0) * q).round() as usize;
            lat[idx] as f64 / 1_000.0
        };
        Self {
            requests: lat.len() as u64,
            p50_us: pct(0.50),
            p99_us: pct(0.99),
            mean_us: lat.iter().sum::<u64>() as f64 / lat.len() as f64 / 1_000.0,
            max_us: *lat.last().unwrap() as f64 / 1_000.0,
        }
    }

    fn to_json(self) -> String {
        format!(
            "{{\"requests\":{},\"p50_us\":{:.1},\"p99_us\":{:.1},\"mean_us\":{:.1},\"max_us\":{:.1}}}",
            self.requests, self.p50_us, self.p99_us, self.mean_us, self.max_us
        )
    }
}

/// Aggregated results of one load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Completed requests (successful CDS responses).
    pub requests: u64,
    /// Cache hits among them (server-reported flag).
    pub cache_hits: u64,
    /// Typed `Rejected` responses (backpressure).
    pub rejected: u64,
    /// Typed `DeadlineExceeded` responses.
    pub deadline_exceeded: u64,
    /// Other typed wire errors + decode failures — protocol errors.
    pub protocol_errors: u64,
    /// Socket-level failures (reconnects).
    pub io_errors: u64,
    /// Wall-clock measurement window in seconds.
    pub duration_s: f64,
    /// Successful requests per second.
    pub throughput_rps: f64,
    /// Latency percentiles over successful requests, microseconds.
    pub p50_us: f64,
    /// 99th percentile latency (µs).
    pub p99_us: f64,
    /// 99.9th percentile latency (µs).
    pub p999_us: f64,
    /// Mean latency (µs).
    pub mean_us: f64,
    /// Maximum observed latency (µs).
    pub max_us: f64,
    /// Echo of the run shape for the JSON artifact.
    pub concurrency: usize,
    /// `"closed"` or `"open"`.
    pub mode: &'static str,
    /// Topology size requested.
    pub n: usize,
    /// Whether the cache was bypassed.
    pub no_cache: bool,
    /// ComputeCds latency breakdown (equal to the overall numbers in a
    /// pure compute run).
    pub compute: KindStats,
    /// Mutate latency breakdown (all-zero unless `mutate_every` was set).
    pub mutate: KindStats,
    /// QueryTile latency breakdown (all-zero unless `query_every` was set).
    pub query: KindStats,
}

impl LoadReport {
    /// Renders the report as a single JSON object (the `BENCH_serve.json`
    /// schema). Hand-rolled: every field is a number/bool/short string.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"bench\":\"serve_loadgen\",\"mode\":\"{}\",\"concurrency\":{},",
                "\"n\":{},\"no_cache\":{},\"duration_s\":{:.3},\"requests\":{},",
                "\"throughput_rps\":{:.1},\"cache_hits\":{},\"rejected\":{},",
                "\"deadline_exceeded\":{},\"protocol_errors\":{},\"io_errors\":{},",
                "\"p50_us\":{:.1},\"p99_us\":{:.1},\"p999_us\":{:.1},",
                "\"mean_us\":{:.1},\"max_us\":{:.1},",
                "\"by_kind\":{{\"compute_cds\":{},\"mutate\":{},\"query_tile\":{}}}}}"
            ),
            self.mode,
            self.concurrency,
            self.n,
            self.no_cache,
            self.duration_s,
            self.requests,
            self.throughput_rps,
            self.cache_hits,
            self.rejected,
            self.deadline_exceeded,
            self.protocol_errors,
            self.io_errors,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.mean_us,
            self.max_us,
            self.compute.to_json(),
            self.mutate.to_json(),
            self.query.to_json(),
        )
    }
}

/// Frame kinds the mixed workload interleaves.
#[derive(Clone, Copy, PartialEq)]
enum ReqKind {
    Compute = 0,
    Mutate = 1,
    Query = 2,
}

#[derive(Default)]
struct WorkerTotals {
    requests: u64,
    cache_hits: u64,
    rejected: u64,
    deadline_exceeded: u64,
    protocol_errors: u64,
    io_errors: u64,
    latencies_ns: Vec<u64>,
    /// Per-kind latencies, indexed by [`ReqKind`].
    kind_ns: [Vec<u64>; 3],
}

/// The seed-wheel `GenCompute` request for one seed (cluster mode's
/// key-diverse compute slot).
fn gen_request(cfg: &LoadgenConfig, seed: u64, flags: u8) -> GenComputeRequest {
    GenComputeRequest {
        flags,
        deadline_ms: 0,
        cfg: cfg.cds,
        n: cfg.n as u32,
        seed,
        radius: cfg.radius,
        side: cfg.side,
        connected: false,
        energy_seed: None,
    }
}

/// Runs the load and aggregates the report. Blocks for `cfg.duration`
/// plus connection teardown.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadReport, ClientError> {
    // Generate the request topology once, client-side, deterministically.
    let bounds = Rect::square(cfg.side);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let pts = pacds_geom::placement::uniform_points(&mut rng, bounds, cfg.n);
    let g = gen::unit_disk(bounds, cfg.radius, &pts);
    let edges: Arc<Vec<(u32, u32)>> = Arc::new(g.edges().collect());
    let n = g.n() as u32;
    let flags = if cfg.no_cache { FLAG_NO_CACHE } else { 0 };

    // Fail fast (and warm the cache) with one synchronous request. In
    // seed-wheel mode, warm every seed the workers will cycle through so
    // the measured window is cache-warm on every backend of a cluster.
    let mut probe = Client::connect(&cfg.addr)?;
    probe.compute_cds(&cfg.cds, n, &edges, None, flags, 0)?;
    for s in 0..cfg.gen_seeds as u64 {
        probe.gen_compute(&gen_request(cfg, cfg.seed + s, flags))?;
    }

    // A mixed workload additionally needs a shared churn graph to mutate
    // and query; open it (and learn its tile count) before the clock runs.
    let mixed = cfg.mutate_every > 0 || cfg.query_every > 0;
    let mix_tiles = if mixed {
        let flat: Vec<(f64, f64)> = pts.iter().map(|p| (p.x, p.y)).collect();
        let energy = vec![1_000u64; flat.len()];
        let opened = probe.open_graph(
            MIX_GRAPH,
            &cfg.cds,
            4,
            cfg.radius,
            (0.0, 0.0, cfg.side, cfg.side),
            &flat,
            &energy,
        )?;
        opened.tiles.max(1)
    } else {
        0
    };
    drop(probe);

    let stop = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicU64::new(0)); // workers that finished connecting
    let workers = cfg.concurrency.max(1);
    let per_conn_interval = match cfg.mode {
        Mode::Closed => None,
        Mode::Open { rate } => {
            let per = rate / workers as f64;
            Some(Duration::from_secs_f64(1.0 / per.max(1e-9)))
        }
    };

    let mut handles = Vec::with_capacity(workers);
    for w in 0..workers {
        let addr = cfg.addr.clone();
        let cds = cfg.cds;
        let edges = Arc::clone(&edges);
        let stop = Arc::clone(&stop);
        let started = Arc::clone(&started);
        let deadline_ms = cfg.deadline_ms;
        let (mutate_every, query_every) = (cfg.mutate_every, cfg.query_every);
        let (side, graph_n) = (cfg.side, cfg.n as u32);
        let (gen_seeds, seed0) = (cfg.gen_seeds, cfg.seed);
        let gen_cfg = cfg.clone();
        handles.push(std::thread::spawn(move || {
            let mut totals = WorkerTotals::default();
            let mut client = match Client::connect(&addr) {
                Ok(c) => Some(c),
                Err(_) => {
                    totals.io_errors += 1;
                    None
                }
            };
            started.fetch_add(1, Ordering::SeqCst);
            let mut seq = 0usize;
            // Spread open-loop ticks across workers.
            let mut next_tick =
                per_conn_interval.map(|iv| Instant::now() + iv.mul_f64(w as f64 / workers as f64));
            while !stop.load(Ordering::Relaxed) {
                let scheduled = match next_tick {
                    None => Instant::now(),
                    Some(tick) => {
                        let now = Instant::now();
                        if tick > now {
                            std::thread::sleep(tick - now);
                        }
                        next_tick = Some(tick + per_conn_interval.unwrap());
                        tick
                    }
                };
                let Some(c) = client.as_mut() else {
                    // Lost the connection; try to re-establish.
                    match Client::connect(&addr) {
                        Ok(c) => client = Some(c),
                        Err(_) => {
                            totals.io_errors += 1;
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                    continue;
                };
                // Mixed workload: every Nth slot per worker is a Mutate /
                // QueryTile; everything else stays ComputeCds. `seq` is
                // per-worker, so the mix ratio is exact, not stochastic.
                seq += 1;
                let kind = if mutate_every > 0 && seq.is_multiple_of(mutate_every) {
                    ReqKind::Mutate
                } else if query_every > 0 && seq.is_multiple_of(query_every) {
                    ReqKind::Query
                } else {
                    ReqKind::Compute
                };
                let mut cache_hit = false;
                let sent = match kind {
                    ReqKind::Compute if gen_seeds > 0 => {
                        let mut req =
                            gen_request(&gen_cfg, seed0 + (seq % gen_seeds) as u64, flags);
                        req.deadline_ms = deadline_ms;
                        c.gen_compute(&req).map(|r| cache_hit = r.cache_hit)
                    }
                    ReqKind::Compute => c
                        .compute_cds(&cds, n, &edges, None, flags, deadline_ms)
                        .map(|r| cache_hit = r.cache_hit),
                    ReqKind::Mutate => {
                        // An always-valid move: shuffle one owned node to a
                        // deterministic in-bounds position.
                        let node = (w as u32 * 31 + seq as u32) % graph_n;
                        let f = ((seq * 61 + w * 17) % 997) as f64 / 997.0;
                        let ev = [WireEvent::Move {
                            node,
                            x: f * side,
                            y: (1.0 - f) * side,
                        }];
                        c.mutate(MIX_GRAPH, &ev).map(drop)
                    }
                    ReqKind::Query => {
                        let tile = (seq % mix_tiles as usize) as u32;
                        c.query_tile(MIX_GRAPH, tile).map(drop)
                    }
                };
                match sent {
                    Ok(()) => {
                        totals.requests += 1;
                        totals.cache_hits += u64::from(cache_hit);
                        let ns = scheduled.elapsed().as_nanos() as u64;
                        totals.latencies_ns.push(ns);
                        totals.kind_ns[kind as usize].push(ns);
                    }
                    Err(ClientError::Wire(e)) => match e.code {
                        ErrorCode::Rejected => totals.rejected += 1,
                        ErrorCode::DeadlineExceeded => totals.deadline_exceeded += 1,
                        _ => totals.protocol_errors += 1,
                    },
                    Err(e) if e.is_connection_lost() => {
                        // The client marked itself stale and re-dials once
                        // on the next request; keep it.
                        totals.io_errors += 1;
                    }
                    Err(ClientError::Io(_)) => {
                        totals.io_errors += 1;
                        client = None;
                    }
                    Err(_) => totals.protocol_errors += 1,
                }
            }
            totals
        }));
    }

    // Start timing once every worker is connected (or has failed once).
    while (started.load(Ordering::SeqCst) as usize) < workers {
        std::thread::sleep(Duration::from_millis(1));
    }
    let t0 = Instant::now();
    std::thread::sleep(cfg.duration);
    stop.store(true, Ordering::Relaxed);
    let elapsed = t0.elapsed();

    let mut all = WorkerTotals::default();
    for h in handles {
        let t = h.join().expect("loadgen worker panicked");
        all.requests += t.requests;
        all.cache_hits += t.cache_hits;
        all.rejected += t.rejected;
        all.deadline_exceeded += t.deadline_exceeded;
        all.protocol_errors += t.protocol_errors;
        all.io_errors += t.io_errors;
        all.latencies_ns.extend(t.latencies_ns);
        for (dst, src) in all.kind_ns.iter_mut().zip(t.kind_ns) {
            dst.extend(src);
        }
    }
    if mixed {
        // Best-effort cleanup so repeated runs against one server reopen
        // the mix graph from a fresh state.
        if let Ok(mut c) = Client::connect(&cfg.addr) {
            let _ = c.close_graph(MIX_GRAPH);
        }
    }
    let [mut compute_ns, mut mutate_ns, mut query_ns] = all.kind_ns;
    all.latencies_ns.sort_unstable();
    let pct = |q: f64| -> f64 {
        if all.latencies_ns.is_empty() {
            return 0.0;
        }
        let idx = ((all.latencies_ns.len() as f64 - 1.0) * q).round() as usize;
        all.latencies_ns[idx] as f64 / 1_000.0
    };
    let mean_us = if all.latencies_ns.is_empty() {
        0.0
    } else {
        all.latencies_ns.iter().sum::<u64>() as f64 / all.latencies_ns.len() as f64 / 1_000.0
    };
    let duration_s = elapsed.as_secs_f64();
    Ok(LoadReport {
        requests: all.requests,
        cache_hits: all.cache_hits,
        rejected: all.rejected,
        deadline_exceeded: all.deadline_exceeded,
        protocol_errors: all.protocol_errors,
        io_errors: all.io_errors,
        duration_s,
        throughput_rps: all.requests as f64 / duration_s.max(1e-9),
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        p999_us: pct(0.999),
        mean_us,
        max_us: all.latencies_ns.last().map_or(0.0, |&v| v as f64 / 1_000.0),
        concurrency: workers,
        mode: match cfg.mode {
            Mode::Closed => "closed",
            Mode::Open { .. } => "open",
        },
        n: cfg.n,
        no_cache: cfg.no_cache,
        compute: KindStats::from_latencies(&mut compute_ns),
        mutate: KindStats::from_latencies(&mut mutate_ns),
        query: KindStats::from_latencies(&mut query_ns),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_shape() {
        let r = LoadReport {
            requests: 1000,
            cache_hits: 990,
            rejected: 3,
            deadline_exceeded: 0,
            protocol_errors: 0,
            io_errors: 0,
            duration_s: 2.0,
            throughput_rps: 500.0,
            p50_us: 80.0,
            p99_us: 200.0,
            p999_us: 450.0,
            mean_us: 95.5,
            max_us: 900.0,
            concurrency: 8,
            mode: "closed",
            n: 200,
            no_cache: false,
            compute: KindStats {
                requests: 900,
                p50_us: 75.0,
                p99_us: 190.0,
                mean_us: 90.0,
                max_us: 850.0,
            },
            mutate: KindStats {
                requests: 50,
                p50_us: 300.0,
                p99_us: 700.0,
                mean_us: 340.0,
                max_us: 900.0,
            },
            query: KindStats {
                requests: 50,
                p50_us: 40.0,
                p99_us: 90.0,
                mean_us: 45.0,
                max_us: 120.0,
            },
        };
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        for key in [
            "\"bench\":\"serve_loadgen\"",
            "\"throughput_rps\":500.0",
            "\"p99_us\":200.0",
            "\"p999_us\":450.0",
            "\"requests\":1000",
            "\"mode\":\"closed\"",
            "\"by_kind\":{\"compute_cds\":{\"requests\":900",
            "\"mutate\":{\"requests\":50,\"p50_us\":300.0",
            "\"query_tile\":{\"requests\":50,\"p50_us\":40.0",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn kind_stats_handles_empty_and_computes_percentiles() {
        assert_eq!(
            KindStats::from_latencies(&mut Vec::new()),
            KindStats::default()
        );
        let mut lat: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        let s = KindStats::from_latencies(&mut lat);
        assert_eq!(s.requests, 100);
        assert!(
            (s.p50_us - 51.0).abs() < 1.5,
            "p50 ~ median, got {}",
            s.p50_us
        );
        assert!(
            (s.p99_us - 99.0).abs() < 1.5,
            "p99 near top, got {}",
            s.p99_us
        );
        assert_eq!(s.max_us, 100.0);
    }
}
