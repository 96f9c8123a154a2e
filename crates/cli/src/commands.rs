//! The CLI subcommands.

use crate::args::Args;
use pacds_bench::Instance;
use pacds_core::{compute_cds_trace, verify_cds, CdsConfig, CdsInput, Policy};
use pacds_energy::DrainModel;
use pacds_geom::Rect;
use pacds_graph::{algo, gen, io, mask_to_vec, Graph};
use pacds_routing::BackboneRoutes;
use pacds_shard::ShardSpec;
use pacds_sim::{SimConfig, Simulation};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

pub type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Top-level usage text.
pub const HELP: &str = "\
pacds — power-aware connected dominating sets (Wu/Gao/Stojmenovic, ICPP'01)

USAGE: pacds <command> [--option value ...]

COMMANDS:
  gen       Generate a unit-disk topology.
              --n <int=40> --radius <f=25> --side <f=100> --seed <int=1>
              --format <edges|dot|json =edges> --connected
  cds       Compute the gateway set of a topology.
              topology: --input <edge-list file> | (--n/--radius/--seed as gen)
              --policy <nr|id|nd|el1|el2 =id> --semantics <safe|literal|seq =safe>
              --energy-seed <int> (random levels; default: uniform full)
              --dot (emit DOT with gateways highlighted)
  route     Route between two hosts over the gateway overlay.
              topology options as cds, plus --from <id> --to <id>
  simulate  Run the update-interval lifetime simulation.
              --n <int=50> --policy <..=el1> --model <1|2|3|d2 =2>
              --trials <int=10> --seed <int=1>
  compare   All five policies on one topology: set sizes + verification.
              topology options as cds
  trace     Run a simulation and emit a JSON-lines trace (one interval/line).
              --n <int=30> --policy <..=el1> --model <..=2> --seed <int=1>
              --max <int=200> --out <file; default stdout>
  watch     ASCII animation of the arena over a few intervals.
              --n <int=30> --policy <..=el1> --intervals <int=8> --seed <int=1>
  robustness  Backbone robustness (cut vertices / bridges / sole dominators).
              topology options as cds, plus --policy/--semantics/--energy-seed
  explain   Why is a host a gateway (or not) under a policy?
              topology options as cds, plus --host <id> (omit: all hosts)
  run       Execute a scenario file and print the JSON result.
              --scenario <file.json>
  scenario-template
            Print an editable scenario JSON to stdout.
  obs-report
            Run an instrumented lifetime simulation and print the phase
            timer / rule-counter breakdown (build with --features obs for
            populated numbers).
              --n <int=50> --policy <..=el1> --model <..=2> --seed <int=1>
              --intervals <int=50> --semantics <..=safe>
              --format <table|jsonl|prometheus =table>
              --workload <sim|shard =sim> (shard: one sharded unit-disk
              compute at --n with --shards/--threads, reporting the
              shard.* phases and counters instead of a simulation)
              --trace-jsonl <file> (write sampled span traces after the
              workload; --trace-sample <N=1> traces every Nth candidate;
              needs --features trace)
              --diff <old.jsonl> <new.jsonl> (no workload: print the
              counter/phase deltas between two snapshot JSONL files)
              --live <host:port> (no workload: subscribe to a running
              server's stats stream and print one row per window;
              --interval-ms <int=1000>, --windows <int; 0 = forever>)
  shard     Compute the gateway set of a large unit-disk instance on the
            spatially-sharded engine (bit-identical to the whole-graph
            pipeline; the full adjacency never materialises).
              --n <int=50000> --radius <f=25> --seed <int=1>
              --side <f; default scales with n for constant density>
              --shards <int; 0 = scale with n> --halo <hops=2>
              --threads <int; 0 = all cores> --policy <..=nd>
              --semantics <safe|literal|seq =safe> --energy-seed <int>
              --check (also run the whole-graph pipeline and assert
              bit-identity; needs the O(n²)-bit bitmap, so n <= 100000)
              --compare (same as --check, which reports the speedup)
              --expect-workers <int=0> (fail unless at least this many
              executors solved >= 1 tile — the work-distribution gate
              CI uses where wall-clock scaling cannot be trusted)
              --json <file> (write stats as one JSON object)
              --fail-on-errors (exit non-zero if a requested check could
              not run, e.g. --check skipped because n is too large)
  churn     Replay a synthetic churn workload (mobility walk, battery
            drain, host deaths and arrivals) through the incremental
            ChurnEngine: dirty tiles from the 2-hop halo licence, only
            those re-solved per step.
              --n <int=5000> --seed <int=1> --radius <f=25>
              --side <f; default scales with n for constant density>
              --shards <int; 0 = scale with n> --threads <int; 0 = all>
              --policy <..=nd> --semantics <safe|literal =safe>
              --energy-seed <int> --steps <int=20>
              --events <int; per step; default max(n/100, 4)>
              --trace-jsonl <file> (one trace per step: refresh + dirty
              tile spans; --trace-sample <N=1>; needs --features trace)
              --check (after every step, not only the last, re-solve from
              scratch in masked mode and assert bit-identity)
              --max-resolved-frac <f=1.0> (fail if the mean re-solved
              tile fraction across steps exceeds this — the locality
              gate CI uses where wall-clock cannot be trusted)
              --json <file> (write totals as one JSON object)
  dataplane Drive packet traffic over the backbone forwarding engine:
            source-routed unicast flows plus blind/gateway broadcasts,
            with optional gateway kills to exercise the NACK → refresh →
            retransmit path.
              --n <int=5000> --seed <int=1> --radius <f=25>
              --side <f; default scales with n for constant density>
              --shards <int; 0 = scale with n> --threads <int; 0 = all>
              --policy <..=nd> --semantics <safe|literal =safe>
              --energy-seed <int> --flows <int=64> --packets <int=16;
              per flow per wave> --waves <int=10>
              --kill-every <int=0; kill one gateway every Nth wave>
              --broadcast <none|blind|gateway|both =both>
              --trace-jsonl <file> (one trace per wave; --trace-sample
              <N=1>; needs --features trace)
              --json <file> (write totals as one JSON object, with the
              destination trees built in full and repaired in place)
              --fail-on-errors (exit non-zero on misroutes, drops, or
              packets left undelivered)
  serve     Run the CDS query service (length-prefixed binary protocol
            over TCP, sharded result cache, bounded worker pool).
              --addr <host:port =127.0.0.1:7311> --workers <int=cores>
              --queue <int=4*workers> --cache-mb <int=64>
              --duration <secs; 0 = run until killed>
              --shard <auto|always|never =auto> (route compute requests
              through the sharded engine; responses are bit-identical)
              --shard-threshold <nodes=20000> --shards <int; 0 = auto>
              --metrics-addr <host:port> (plain-HTTP Prometheus scrape
              endpoint) --trace-sample <int=0> (span sampling rate;
              needs --features trace)
  loadgen   Drive closed- or open-loop load at a running server and
            report throughput and p50/p99/p999 latency.
              --addr <host:port =127.0.0.1:7311> --duration <secs=10>
              --concurrency <int=8> --mode <closed|open =closed>
              --rate <req/s; open mode> --n <int=200> --radius <f=15>
              --side <f=100> --seed <int=1> --policy <..=nd>
              --semantics <..=safe> --no-cache --deadline-ms <int=0>
              --gen-seeds <int=0> (cycle GenCompute requests over this
              many seeds instead of replaying one ComputeCds — the
              keyspace-spreading workload `cluster --loadgen` uses)
              --mutate-every <int=0> / --query-every <int=0> (mix in a
              Mutate / QueryTile request every Nth request per worker;
              the report then breaks latency down per frame kind)
              --json <file> (write the report as one JSON object)
              --obs-jsonl <file> (write an obs snapshot after the run;
              pairs with --self-host to capture the server's counters)
              --fail-on-errors (exit non-zero on any protocol/io error)
              --self-host (spin up an in-process server on an ephemeral
              port and aim the load at it; --workers/--cache-mb and the
              --shard/--shard-threshold/--shards routing flags apply)
  cluster   Front several pacds-serve backends with one consistent-hash
            coordinator: requests route by canonical digest, health
            probes evict dead backends, affected keys fail over to the
            survivors (cold, never wrong).
              --addr <host:port =127.0.0.1:7411>
              --backends <host:port,host:port,...> (external backends)
              --self-host <int=0> (also spawn N in-process backends;
              --backend-workers <int=8> --cache-mb <int=64> shape them)
              --workers <int=4> --queue <int=4*workers> (proxy pool)
              --vnodes <int=256> --probe-interval-ms <int=200>
              --fail-threshold <int=2> --rise-threshold <int=2>
              --duration <secs; 0 = run until killed>
              --loadgen (drive the built-in load generator at the
              coordinator for --duration instead of parking; the
              loadgen topology/policy flags apply, --gen-seeds <int=64>)
              --kill-after <secs=0> (self-host drill: shut down the last
              backend mid-run) --drain-after <secs=0> (drain b0 mid-run)
              --expect-failover (exit non-zero unless a failover was
              observed in the coordinator counters)
              --json <file> (write loadgen report + cluster counters)
              --fail-on-errors (exit non-zero on any protocol/io error)
  help      Show this message.

GLOBAL OPTIONS (all commands):
  --log-level <off|error|warn|info|debug|trace>
            Diagnostic logging on stderr; the PACDS_LOG environment
            variable sets the default.
";

fn policy_of(name: &str) -> Result<Policy, String> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "nr" => Policy::NoPruning,
        "id" => Policy::Id,
        "nd" => Policy::Degree,
        "el1" => Policy::Energy,
        "el2" => Policy::EnergyDegree,
        other => return Err(format!("unknown policy '{other}' (nr|id|nd|el1|el2)")),
    })
}

fn cds_config_of(policy: Policy, semantics: &str) -> Result<CdsConfig, String> {
    Ok(match semantics.to_ascii_lowercase().as_str() {
        "safe" => CdsConfig::policy(policy),
        "literal" => CdsConfig::paper(policy),
        "seq" | "sequential" => CdsConfig::sequential(policy),
        other => return Err(format!("unknown semantics '{other}' (safe|literal|seq)")),
    })
}

fn model_of(name: &str) -> Result<DrainModel, String> {
    Ok(match name {
        "1" => DrainModel::ConstantTotal,
        "2" => DrainModel::LinearInN,
        "3" => DrainModel::QuadraticInN,
        "d2" => DrainModel::ConstantPerGateway { value: 2.0 },
        other => return Err(format!("unknown drain model '{other}' (1|2|3|d2)")),
    })
}

/// Builds a topology from `--input` or generation options.
fn topology(args: &Args) -> Result<Graph, Box<dyn std::error::Error>> {
    if let Some(path) = args.get("input") {
        let text = std::fs::read_to_string(path)?;
        return Ok(io::from_edge_list(&text)?);
    }
    let n: usize = args.get_or("n", 40)?;
    let radius: f64 = args.get_or("radius", 25.0)?;
    let side: f64 = args.get_or("side", 100.0)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let bounds = Rect::square(side);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut last = Graph::new(0);
    for _ in 0..200 {
        let pts = pacds_geom::placement::uniform_points(&mut rng, bounds, n);
        last = gen::unit_disk(bounds, radius, &pts);
        if !args.flag("connected") || algo::is_connected(&last) {
            return Ok(last);
        }
    }
    eprintln!("warning: no connected placement found in 200 draws; using the last one");
    Ok(last)
}

/// Energy levels for the topology: random under `--energy-seed`, else full.
fn energy_levels(args: &Args, n: usize) -> Result<Vec<u64>, Box<dyn std::error::Error>> {
    match args.get("energy-seed") {
        None => Ok(vec![10; n]),
        Some(_) => {
            let seed: u64 = args.require("energy-seed")?;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            use rand::Rng;
            Ok((0..n).map(|_| rng.random_range(0..=10u64)).collect())
        }
    }
}

const TOPOLOGY_OPTS: &str = "input n radius side seed connected";

/// `pacds gen`
pub fn gen(args: &Args) -> CliResult {
    args.check_known(&format!("{TOPOLOGY_OPTS} format"))?;
    let g = topology(args)?;
    match args.get("format").unwrap_or("edges") {
        "edges" => print!("{}", io::to_edge_list(&g)),
        "dot" => print!("{}", io::to_dot(&g, None)),
        "json" => {
            let edges: Vec<_> = g.edges().collect();
            let edges = serde_json::to_string(&edges)?;
            println!("{{\"n\":{},\"edges\":{edges}}}", g.n());
        }
        other => return Err(format!("unknown format '{other}' (edges|dot|json)").into()),
    }
    Ok(())
}

/// `pacds cds`
pub fn cds(args: &Args) -> CliResult {
    args.check_known(&format!("{TOPOLOGY_OPTS} policy semantics energy-seed dot"))?;
    let g = topology(args)?;
    let policy = policy_of(args.get("policy").unwrap_or("id"))?;
    let cfg = cds_config_of(policy, args.get("semantics").unwrap_or("safe"))?;
    let energy = energy_levels(args, g.n())?;
    let trace = compute_cds_trace(&CdsInput::with_energy(&g, &energy), &cfg);
    if args.flag("dot") {
        print!("{}", io::to_dot(&g, Some(&trace.after_rule2)));
        return Ok(());
    }
    println!(
        "hosts: {}   links: {}   connected: {}",
        g.n(),
        g.m(),
        algo::is_connected(&g)
    );
    println!(
        "policy {} ({:?}/{:?}): marked {} -> rule1 {} -> gateways {}",
        policy.label(),
        cfg.rule2,
        cfg.application,
        trace.marked.iter().filter(|&&b| b).count(),
        trace.after_rule1.iter().filter(|&&b| b).count(),
        trace.gateway_count(),
    );
    println!("gateways: {:?}", mask_to_vec(&trace.after_rule2));
    match verify_cds(&g, &trace.after_rule2) {
        Ok(()) => println!("verification: connected dominating set ✓"),
        Err(e) => println!("verification: FAILED — {e}"),
    }
    Ok(())
}

/// `pacds route`
pub fn route(args: &Args) -> CliResult {
    args.check_known(&format!(
        "{TOPOLOGY_OPTS} policy semantics energy-seed from to"
    ))?;
    let g = topology(args)?;
    let policy = policy_of(args.get("policy").unwrap_or("id"))?;
    let cfg = cds_config_of(policy, args.get("semantics").unwrap_or("safe"))?;
    let energy = energy_levels(args, g.n())?;
    let from: u32 = args.require("from")?;
    let to: u32 = args.require("to")?;
    let gateways = pacds_core::compute_cds(&CdsInput::with_energy(&g, &energy), &cfg);
    let mut routes = BackboneRoutes::new();
    routes.install(&gateways, &vec![true; g.n()]);
    let mut path = Vec::new();
    routes.assemble(&g, from, to, &mut path)?;
    let shortest = algo::shortest_path(&g, from, to)?;
    println!("route ({} hops): {:?}", path.len() - 1, path);
    println!(
        "shortest path has {} hops; stretch +{}",
        shortest.len() - 1,
        path.len() - shortest.len()
    );
    Ok(())
}

/// `pacds simulate`
pub fn simulate(args: &Args) -> CliResult {
    args.check_known("n policy model trials seed semantics")?;
    let n: usize = args.get_or("n", 50)?;
    let policy = policy_of(args.get("policy").unwrap_or("el1"))?;
    let model = model_of(args.get("model").unwrap_or("2"))?;
    let trials: usize = args.get_or("trials", 10)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let mut cfg = SimConfig::paper(n, policy, model);
    if let Some(sem) = args.get("semantics") {
        cfg.cds = cds_config_of(policy, sem)?;
    }

    println!(
        "simulating n={n} policy={} model={} trials={trials}",
        policy.label(),
        model.label()
    );
    let outcomes = pacds_sim::montecarlo::run_trials(seed, trials, |_, rng| {
        let sim = Simulation::new(cfg, rng).without_verification();
        sim.run_lifetime(rng)
    });
    let lives: Vec<f64> = outcomes.iter().map(|o| f64::from(o.intervals)).collect();
    let gws: Vec<f64> = outcomes.iter().map(|o| o.mean_gateways).collect();
    let life = pacds_sim::Summary::from_slice(&lives);
    let gw = pacds_sim::Summary::from_slice(&gws);
    println!("lifetime: {life}");
    println!("mean gateways: {gw}");
    Ok(())
}

/// `pacds compare`
pub fn compare(args: &Args) -> CliResult {
    args.check_known(&format!("{TOPOLOGY_OPTS} semantics energy-seed"))?;
    let g = topology(args)?;
    let energy = energy_levels(args, g.n())?;
    let semantics = args.get("semantics").unwrap_or("safe").to_string();
    println!(
        "{} hosts, {} links, avg degree {:.1}, connected: {}",
        g.n(),
        g.m(),
        g.avg_degree(),
        algo::is_connected(&g)
    );
    println!(
        "{:>6} {:>8} {:>8} {:>9}  verification",
        "policy", "marked", "final", "reduction"
    );
    for policy in Policy::ALL {
        let cfg = cds_config_of(policy, &semantics)?;
        let trace = compute_cds_trace(&CdsInput::with_energy(&g, &energy), &cfg);
        let marked = trace.marked.iter().filter(|&&b| b).count();
        let fin = trace.gateway_count();
        let reduction = if marked == 0 {
            0.0
        } else {
            100.0 * (marked - fin) as f64 / marked as f64
        };
        let verdict = match verify_cds(&g, &trace.after_rule2) {
            Ok(()) => "ok".to_string(),
            Err(e) => format!("FAILED: {e}"),
        };
        println!(
            "{:>6} {:>8} {:>8} {:>8.1}%  {verdict}",
            policy.label(),
            marked,
            fin,
            reduction
        );
    }
    Ok(())
}

/// `pacds trace`
pub fn trace(args: &Args) -> CliResult {
    args.check_known("n policy model seed max out semantics")?;
    let n: usize = args.get_or("n", 30)?;
    let policy = policy_of(args.get("policy").unwrap_or("el1"))?;
    let model = model_of(args.get("model").unwrap_or("2"))?;
    let seed: u64 = args.get_or("seed", 1)?;
    let max: u32 = args.get_or("max", 200)?;
    let mut cfg = SimConfig::paper(n, policy, model);
    if let Some(sem) = args.get("semantics") {
        cfg.cds = cds_config_of(policy, sem)?;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let recorder = pacds_sim::TraceRecorder::record(cfg, max, &mut rng);
    let jsonl = recorder.to_jsonl();
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, jsonl)?;
            eprintln!("wrote {} records to {path}", recorder.records().len());
        }
        None => print!("{jsonl}"),
    }
    Ok(())
}

/// `pacds watch`
pub fn watch(args: &Args) -> CliResult {
    args.check_known("n policy intervals seed model")?;
    let n: usize = args.get_or("n", 30)?;
    let policy = policy_of(args.get("policy").unwrap_or("el1"))?;
    let model = model_of(args.get("model").unwrap_or("2"))?;
    let intervals: u32 = args.get_or("intervals", 8)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let cfg = SimConfig::paper(n, policy, model);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let recorder = pacds_sim::TraceRecorder::record(cfg, intervals, &mut rng);
    for r in recorder.records() {
        let positions: Vec<pacds_geom::Point2> = r
            .positions
            .iter()
            .map(|&(x, y)| pacds_geom::Point2::new(x, y))
            .collect();
        let mut gw = vec![false; n];
        for &g in &r.gateways {
            gw[g as usize] = true;
        }
        println!(
            "interval {} — {} gateways, {} links, connected: {}",
            r.interval,
            r.gateways.len(),
            r.links,
            r.connected
        );
        print!(
            "{}",
            pacds_sim::render_ascii(cfg.bounds, &positions, &gw, None, 50, 16)
        );
    }
    println!("legend: # gateway   o host");
    Ok(())
}

/// `pacds robustness`
pub fn robustness(args: &Args) -> CliResult {
    args.check_known(&format!("{TOPOLOGY_OPTS} policy semantics energy-seed"))?;
    let g = topology(args)?;
    let energy = energy_levels(args, g.n())?;
    let semantics = args.get("semantics").unwrap_or("safe").to_string();
    println!(
        "{:>6} {:>9} {:>6} {:>8} {:>6} {:>8}",
        "policy", "gateways", "cuts", "bridges", "sole", "spof"
    );
    for policy in Policy::ALL {
        let cfg = cds_config_of(policy, &semantics)?;
        let gw = pacds_core::compute_cds(&CdsInput::with_energy(&g, &energy), &cfg);
        let r = pacds_routing::backbone_robustness(&g, &gw);
        println!(
            "{:>6} {:>9} {:>6} {:>8} {:>6} {:>7.1}%",
            policy.label(),
            r.gateways,
            r.backbone_cut_vertices.len(),
            r.backbone_bridges,
            r.sole_dominators.len(),
            100.0 * r.spof_fraction
        );
    }
    Ok(())
}

/// `pacds explain`
pub fn explain(args: &Args) -> CliResult {
    args.check_known(&format!(
        "{TOPOLOGY_OPTS} policy semantics energy-seed host"
    ))?;
    let g = topology(args)?;
    let policy = policy_of(args.get("policy").unwrap_or("id"))?;
    let cfg = cds_config_of(policy, args.get("semantics").unwrap_or("safe"))?;
    let energy = energy_levels(args, g.n())?;
    let input = CdsInput::with_energy(&g, &energy);
    let hosts: Vec<u32> = match args.get("host") {
        Some(_) => vec![args.require("host")?],
        None => (0..g.n() as u32).collect(),
    };
    for v in hosts {
        if (v as usize) >= g.n() {
            return Err(format!("host {v} out of range (n = {})", g.n()).into());
        }
        println!("host {v:>3}: {}", pacds_core::explain(&input, &cfg, v));
    }
    Ok(())
}

/// `pacds run`
pub fn run_scenario(args: &Args) -> CliResult {
    args.check_known("scenario")?;
    let path: String = args.require("scenario")?;
    let text = std::fs::read_to_string(&path)?;
    let scenario: pacds_sim::Scenario =
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let result = scenario.run();
    println!("{}", serde_json::to_string_pretty(&result)?);
    Ok(())
}

/// `pacds obs-report`
pub fn obs_report(args: &Args) -> CliResult {
    // `--diff old.jsonl new.jsonl` parses as option "diff"=old plus one
    // positional (the new path); everything else takes no positionals.
    args.check_known_with_positionals(
        "n policy model seed intervals semantics format workload shards threads diff live \
         interval-ms windows trace-jsonl trace-sample",
        1,
    )?;
    if args.get("diff").is_some() {
        return obs_diff(args);
    }
    if let Some(addr) = args.get("live") {
        return obs_live(addr, args);
    }
    if !args.positionals.is_empty() {
        return Err(format!(
            "unexpected positional argument '{}' (only --diff takes positionals)",
            args.positionals[0]
        )
        .into());
    }
    let policy = policy_of(args.get("policy").unwrap_or("el1"))?;
    let seed: u64 = args.get_or("seed", 1)?;
    if !pacds_obs::enabled() {
        eprintln!(
            "note: metrics are compiled out in this build; rebuild with \
             `--features obs` for a populated report"
        );
    }
    pacds_obs::reset();
    let trace = trace_start(args)?;
    let header = match args.get("workload").unwrap_or("sim") {
        "sim" => {
            let n: usize = args.get_or("n", 50)?;
            let model = model_of(args.get("model").unwrap_or("2"))?;
            let intervals: u32 = args.get_or("intervals", 50)?;
            let mut cfg = SimConfig::paper(n, policy, model);
            if let Some(sem) = args.get("semantics") {
                cfg.cds = cds_config_of(policy, sem)?;
            }
            cfg.max_intervals = intervals;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let outcome = Simulation::new(cfg, &mut rng).run_lifetime(&mut rng);
            format!(
                "obs-report: n={n} policy={} model={} seed={seed} — \
                 {} intervals simulated, {:.1} mean gateways",
                policy.label(),
                model.label(),
                outcome.intervals,
                outcome.mean_gateways,
            )
        }
        "shard" => {
            let n: usize = args.get_or("n", 2000)?;
            let (inst, cfg, _) = large_instance(args, n, "el1")?;
            let p = pacds_bench::shard::ShardParams {
                spec: spec_of(args, pacds_shard::REQUIRED_HALO)?,
                cfg,
                reps: 1,
                check: false,
                expect_workers: 0,
            };
            // The driver's summary would corrupt the jsonl and prometheus
            // formats; the report prints its own header.
            let (_, engine) = pacds_bench::shard::run(&inst, &p, &mut std::io::sink())?;
            format!(
                "obs-report: n={n} policy={} seed={seed} — sharded compute, \
                 {} tiles, {} gateways",
                policy.label(),
                engine.stats().tiles,
                engine.gateway_count(),
            )
        }
        other => return Err(format!("unknown workload '{other}' (sim|shard)").into()),
    };
    let snap = pacds_obs::Snapshot::capture();
    trace_finish(trace)?;

    match args.get("format").unwrap_or("table") {
        "table" => {
            println!("{header}");
            if snap.phases.is_empty() && snap.counters.is_empty() {
                println!("(no instrumentation data: metrics are compiled out)");
                return Ok(());
            }
            println!();
            println!(
                "{:>16} {:>10} {:>14} {:>12}",
                "phase", "count", "total ms", "mean µs"
            );
            for p in &snap.phases {
                println!(
                    "{:>16} {:>10} {:>14.3} {:>12.2}",
                    p.name,
                    p.count,
                    p.total_ns as f64 / 1e6,
                    p.mean_ns() / 1e3
                );
            }
            println!();
            println!("{:>28} {:>14}", "counter", "value");
            for c in &snap.counters {
                println!("{:>28} {:>14}", c.name, c.value);
            }
        }
        "jsonl" => println!("{}", snap.to_json_line()),
        "prometheus" => {
            let mut out = Vec::new();
            pacds_obs::write_prometheus(&snap, &mut out)?;
            print!("{}", String::from_utf8(out)?);
        }
        other => return Err(format!("unknown format '{other}' (table|jsonl|prometheus)").into()),
    }
    Ok(())
}

/// Loads the last `obs_snapshot` line of a JSONL file (snapshots may
/// interleave with window/trace lines in one stream).
fn load_snapshot(path: &str) -> Result<pacds_obs::Snapshot, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    text.lines()
        .rev()
        .find_map(|l| serde_json::from_str::<pacds_obs::Snapshot>(l.trim()).ok())
        .ok_or_else(|| format!("{path}: no obs_snapshot line found").into())
}

/// `pacds obs-report --diff old.jsonl new.jsonl`
fn obs_diff(args: &Args) -> CliResult {
    let old_path: String = args.require("diff")?;
    let new_path = args
        .positionals
        .first()
        .ok_or("--diff takes two snapshot files: --diff <old.jsonl> <new.jsonl>")?;
    let old = load_snapshot(&old_path)?;
    let new = load_snapshot(new_path)?;
    println!("obs-diff: {old_path} -> {new_path}");

    // Union of counter names in new-snapshot order, then old-only extras.
    let mut names: Vec<&str> = new.counters.iter().map(|c| c.name.as_str()).collect();
    for c in &old.counters {
        if !names.contains(&c.name.as_str()) {
            names.push(&c.name);
        }
    }
    let mut changed = 0usize;
    println!();
    println!(
        "{:>28} {:>14} {:>14} {:>15}",
        "counter", "old", "new", "delta"
    );
    for name in names {
        let (o, n) = (old.counter(name), new.counter(name));
        if o == n {
            continue;
        }
        changed += 1;
        println!(
            "{:>28} {:>14} {:>14} {:>+15}",
            name,
            o,
            n,
            n as i128 - o as i128
        );
    }
    if changed == 0 {
        println!("{:>28}", "(no counter changed)");
    }

    let mut phase_names: Vec<&str> = new.phases.iter().map(|p| p.name.as_str()).collect();
    for p in &old.phases {
        if !phase_names.contains(&p.name.as_str()) {
            phase_names.push(&p.name);
        }
    }
    if !phase_names.is_empty() {
        println!();
        println!(
            "{:>16} {:>12} {:>14} {:>14}",
            "phase", "Δcount", "Δtotal ms", "Δmean µs"
        );
        for name in phase_names {
            let (oc, ot) = old.phase(name).map_or((0, 0), |p| (p.count, p.total_ns));
            let (nc, nt) = new.phase(name).map_or((0, 0), |p| (p.count, p.total_ns));
            if oc == nc && ot == nt {
                continue;
            }
            let dc = nc as i128 - oc as i128;
            let dt = nt as i128 - ot as i128;
            let mean_us = if dc > 0 {
                dt as f64 / dc as f64 / 1e3
            } else {
                0.0
            };
            println!(
                "{:>16} {:>+12} {:>14.3} {:>14.2}",
                name,
                dc,
                dt as f64 / 1e6,
                mean_us
            );
        }
    }
    Ok(())
}

/// `pacds obs-report --live host:port`
fn obs_live(addr: &str, args: &Args) -> CliResult {
    let interval: u32 = args.get_or("interval-ms", 1000)?;
    let windows: u64 = args.get_or("windows", 0)?;
    let mut client = pacds_serve::Client::connect(addr)?;
    let ack = client.subscribe(pacds_serve::SUB_STATS, interval, None)?;
    println!(
        "live: subscriber #{} at {addr}, one row per {}ms window \
         (ctrl-c to stop)",
        ack.subscriber_id, ack.interval_ms,
    );
    println!(
        "{:>6} {:>8} {:>8} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "seq", "dt s", "reqs", "req/s", "p50 µs", "p99 µs", "flips", "tiles", "refresh", "dropped"
    );
    let mut seen = 0u64;
    while windows == 0 || seen < windows {
        match client.next_push()? {
            pacds_serve::Push::Stats(w) => {
                let dt_s = w.dt_us as f64 / 1e6;
                println!(
                    "{:>6} {:>8.2} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>8} {:>8} {:>8} {:>8}",
                    w.seq,
                    dt_s,
                    w.requests,
                    w.requests as f64 / dt_s.max(1e-9),
                    w.p50_ns as f64 / 1e3,
                    w.p99_ns as f64 / 1e3,
                    w.gateway_flips,
                    w.tiles_resolved,
                    w.refreshes,
                    w.push_dropped,
                );
                seen += 1;
            }
            // Stats-only subscription: flips shouldn't arrive, but a
            // server-side change of heart is not an error.
            pacds_serve::Push::Flip(_) => {}
        }
    }
    Ok(())
}

/// Options of the large-scale commands (`shard`, `churn`, `dataplane`).
const LARGE_OPTS: &str = "n seed radius side shards threads policy semantics energy-seed json";

/// The instance, configuration and RNG the large-scale commands share:
/// `n` hosts placed by `--seed` on a `--side` square (default: the
/// paper's density), `--radius`, `--energy-seed`, `--policy` (default
/// `policy`) and `--semantics`. The RNG continues the placement stream.
fn large_instance(
    args: &Args,
    n: usize,
    policy: &str,
) -> Result<(Instance, CdsConfig, ChaCha8Rng), Box<dyn std::error::Error>> {
    let seed: u64 = args.get_or("seed", 1)?;
    let radius: f64 = args.get_or("radius", 25.0)?;
    let side: f64 = args.get_or("side", pacds_bench::density_side(n))?;
    let policy = policy_of(args.get("policy").unwrap_or(policy))?;
    let cfg = cds_config_of(policy, args.get("semantics").unwrap_or("safe"))?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let inst = Instance::uniform(&mut rng, side, radius, energy_levels(args, n)?);
    Ok((inst, cfg, rng))
}

/// `--shards`/`--threads` at `halo`.
fn spec_of(args: &Args, halo: usize) -> Result<ShardSpec, Box<dyn std::error::Error>> {
    let (shards, threads) = (args.get_or("shards", 0)?, args.get_or("threads", 0)?);
    Ok(ShardSpec {
        shards,
        halo,
        threads,
    })
}

/// Starts span sampling for `--trace-jsonl <file>` (every
/// `--trace-sample`th trace; default all when a file is given).
fn trace_start(args: &Args) -> Result<Option<(String, u64)>, Box<dyn std::error::Error>> {
    let path = args.get("trace-jsonl");
    let sample: u64 = args.get_or("trace-sample", u64::from(path.is_some()))?;
    if path.is_some() && !pacds_obs::trace_enabled() {
        eprintln!(
            "note: span tracing is compiled out in this build; rebuild with \
             `--features trace` for a populated --trace-jsonl"
        );
    }
    pacds_obs::trace::reset_tracing();
    pacds_obs::set_sampling(sample);
    Ok(path.map(|p| (p.to_string(), sample)))
}

/// Stops sampling and writes the traces [`trace_start`] asked for.
fn trace_finish(trace: Option<(String, u64)>) -> CliResult {
    pacds_obs::set_sampling(0);
    if let Some((path, sample)) = trace {
        let jsonl = pacds_obs::traces_jsonl();
        std::fs::write(&path, &jsonl)?;
        let traces = jsonl.lines().count();
        println!("{traces} trace(s) written to {path} (sampling 1/{sample})");
    }
    Ok(())
}

/// Writes `row` as one JSON line to `--json <file>`, if given.
fn write_json(args: &Args, row: &pacds_bench::row::Row) -> CliResult {
    if let Some(path) = args.get("json") {
        std::fs::write(path, row.json() + "\n")?;
        println!("stats written to {path}");
    }
    Ok(())
}

/// `pacds shard`
pub fn shard(args: &Args) -> CliResult {
    use pacds_bench::shard::{ShardParams, WHOLE_GRAPH_LIMIT};
    let known = "halo check compare expect-workers fail-on-errors";
    args.check_known(&format!("{LARGE_OPTS} {known}"))?;
    let n: usize = args.get_or("n", 50_000)?;
    let check = args.flag("check") || args.flag("compare");
    if check && n > WHOLE_GRAPH_LIMIT {
        let msg = format!(
            "--check needs the whole-graph bitmap (n² bits); n={n} exceeds the \
             {WHOLE_GRAPH_LIMIT} limit"
        );
        if args.flag("fail-on-errors") {
            return Err(msg.into());
        }
        eprintln!("warning: {msg}; skipped");
    }
    let (inst, cfg, _) = large_instance(args, n, "nd")?;
    let p = ShardParams {
        spec: spec_of(args, args.get_or("halo", pacds_shard::REQUIRED_HALO)?)?,
        cfg,
        reps: 1,
        check,
        expect_workers: args.get_or("expect-workers", 0)?,
    };
    // An identity failure is always fatal (the over-sized skip was
    // handled above).
    let (row, _) = pacds_bench::shard::run(&inst, &p, &mut std::io::stdout())?;
    write_json(args, &row)
}

/// `pacds churn`
pub fn churn(args: &Args) -> CliResult {
    let known = "steps events check max-resolved-frac trace-jsonl trace-sample";
    args.check_known(&format!("{LARGE_OPTS} {known}"))?;
    let n: usize = args.get_or("n", 5000)?;
    let (inst, cfg, mut rng) = large_instance(args, n, "nd")?;
    let p = pacds_bench::churn::ChurnParams {
        spec: spec_of(args, pacds_shard::REQUIRED_HALO)?,
        cfg,
        steps: args.get_or("steps", 20)?,
        events: args.get_or("events", (n / 100).max(4))?,
        check_every_step: args.flag("check"),
        max_resolved_frac: args.get_or("max-resolved-frac", 1.0)?,
    };
    let trace = trace_start(args)?;
    let row = pacds_bench::churn::run(&inst, &p, &mut rng, &mut std::io::stdout());
    trace_finish(trace)?;
    write_json(args, &row?)
}

/// `pacds dataplane`
pub fn dataplane(args: &Args) -> CliResult {
    use pacds_bench::dataplane::{broadcast_of, DpParams};
    let known = "flows packets waves kill-every broadcast fail-on-errors trace-jsonl trace-sample";
    args.check_known(&format!("{LARGE_OPTS} {known}"))?;
    let broadcast = broadcast_of(args.get("broadcast").unwrap_or("both"))?;
    let n: usize = args.get_or("n", 5000)?;
    let (inst, cfg, mut rng) = large_instance(args, n, "nd")?;
    let p = DpParams {
        spec: spec_of(args, pacds_shard::REQUIRED_HALO)?,
        cfg,
        flows: args.get_or("flows", 64)?,
        packets: args.get_or("packets", 16)?,
        waves: args.get_or("waves", 10)?,
        kill_every: args.get_or("kill-every", 0)?,
        broadcast,
        stretch_pairs: 0,
        drill: false,
        min_hops_per_s: 0.0,
        min_flood_reduction: 0.0,
        fail_on_errors: args.flag("fail-on-errors"),
    };
    let trace = trace_start(args)?;
    let row = pacds_bench::dataplane::run(&inst, &p, &mut rng, &mut std::io::stdout());
    trace_finish(trace)?;
    write_json(args, &row?)
}

/// Server shape shared by `serve` and `loadgen --self-host`.
fn server_config_of(args: &Args) -> Result<pacds_serve::ServerConfig, Box<dyn std::error::Error>> {
    let mut cfg = pacds_serve::ServerConfig::default();
    if args.get("workers").is_some() {
        cfg.workers = args.require("workers")?;
    }
    cfg.queue = args.get_or("queue", 0)?;
    let cache_mb: usize = args.get_or("cache-mb", 64)?;
    cfg.cache_bytes = cache_mb << 20;
    if let Some(mode) = args.get("shard") {
        cfg.shard.mode = pacds_serve::ShardMode::parse(mode)
            .ok_or_else(|| format!("unknown shard mode '{mode}' (auto|always|never)"))?;
    }
    cfg.shard.threshold = args.get_or("shard-threshold", cfg.shard.threshold)?;
    cfg.shard.shards = args.get_or("shards", 0)?;
    Ok(cfg)
}

/// `pacds serve`
pub fn serve(args: &Args) -> CliResult {
    args.check_known(
        "addr workers queue cache-mb duration shard shard-threshold shards metrics-addr \
         trace-sample",
    )?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7311");
    let mut cfg = server_config_of(args)?;
    cfg.metrics_addr = args.get("metrics-addr").map(str::to_string);
    let trace_sample: u64 = args.get_or("trace-sample", 0)?;
    if trace_sample > 0 && !pacds_obs::trace_enabled() {
        eprintln!(
            "note: span tracing is compiled out in this build; rebuild with \
             `--features trace` for --trace-sample to record spans"
        );
    }
    pacds_obs::set_sampling(trace_sample);
    let duration: u64 = args.get_or("duration", 0)?;
    let workers = cfg.workers.max(1);
    let mut handle = pacds_serve::serve(addr, cfg)?;
    println!(
        "pacds-serve listening on {} ({} workers); protocol v{}",
        handle.addr(),
        workers,
        pacds_serve::PROTOCOL_VERSION,
    );
    if let Some(m) = handle.metrics_addr() {
        println!("metrics scrape on http://{m}/metrics");
    }
    if duration > 0 {
        std::thread::sleep(std::time::Duration::from_secs(duration));
        handle.shutdown();
        let entries = handle.state().stat_entries();
        for (name, value) in entries {
            println!("{name:<20} {value}");
        }
    } else {
        // Run until the process is killed; workers own the listener.
        loop {
            std::thread::park();
        }
    }
    Ok(())
}

/// `pacds loadgen`
pub fn loadgen(args: &Args) -> CliResult {
    args.check_known(
        "addr duration concurrency mode rate n radius side seed gen-seeds policy semantics \
         no-cache deadline-ms json fail-on-errors self-host workers queue cache-mb shard \
         shard-threshold shards mutate-every query-every obs-jsonl",
    )?;
    // Optionally host the target server in-process (CI smoke runs).
    let hosted = if args.flag("self-host") {
        Some(pacds_serve::serve("127.0.0.1:0", server_config_of(args)?)?)
    } else {
        None
    };
    let addr = match &hosted {
        Some(h) => h.addr().to_string(),
        None => args.get("addr").unwrap_or("127.0.0.1:7311").to_string(),
    };
    let policy = policy_of(args.get("policy").unwrap_or("nd"))?;
    let mode = match args.get("mode").unwrap_or("closed") {
        "closed" => pacds_serve::Mode::Closed,
        "open" => pacds_serve::Mode::Open {
            rate: args.require("rate")?,
        },
        other => return Err(format!("unknown mode '{other}' (closed|open)").into()),
    };
    let cfg = pacds_serve::LoadgenConfig {
        addr,
        concurrency: args.get_or("concurrency", 8)?,
        duration: std::time::Duration::from_secs_f64(args.get_or("duration", 10.0)?),
        mode,
        cds: cds_config_of(policy, args.get("semantics").unwrap_or("safe"))?,
        n: args.get_or("n", 200)?,
        radius: args.get_or("radius", 15.0)?,
        side: args.get_or("side", 100.0)?,
        seed: args.get_or("seed", 1)?,
        gen_seeds: args.get_or("gen-seeds", 0)?,
        no_cache: args.flag("no-cache"),
        deadline_ms: args.get_or("deadline-ms", 0)?,
        mutate_every: args.get_or("mutate-every", 0)?,
        query_every: args.get_or("query-every", 0)?,
    };
    let mixed = cfg.mutate_every > 0 || cfg.query_every > 0;
    let report = pacds_serve::loadgen::run(&cfg)?;
    println!(
        "loadgen: {} mode, {} conns, {:.1}s — {} requests, {:.0} req/s \
         ({} cache hits, {} rejected, {} deadline, {} protocol err, {} io err)",
        report.mode,
        report.concurrency,
        report.duration_s,
        report.requests,
        report.throughput_rps,
        report.cache_hits,
        report.rejected,
        report.deadline_exceeded,
        report.protocol_errors,
        report.io_errors,
    );
    println!(
        "latency µs: p50={:.1} p99={:.1} p999={:.1} mean={:.1} max={:.1}",
        report.p50_us, report.p99_us, report.p999_us, report.mean_us, report.max_us,
    );
    if mixed {
        for (label, k) in [
            ("compute_cds", &report.compute),
            ("mutate", &report.mutate),
            ("query_tile", &report.query),
        ] {
            println!(
                "  {label:<12} {:>8} req  p50={:.1} p99={:.1} mean={:.1} max={:.1} µs",
                k.requests, k.p50_us, k.p99_us, k.mean_us, k.max_us,
            );
        }
    }
    if let Some(path) = args.get("json") {
        std::fs::write(path, report.to_json() + "\n")?;
        println!("report written to {path}");
    }
    if let Some(path) = args.get("obs-jsonl") {
        let mut f = std::fs::File::create(path)?;
        pacds_obs::write_jsonl(&pacds_obs::Snapshot::capture(), &mut f)?;
        println!("obs snapshot written to {path}");
    }
    drop(hosted);
    if args.flag("fail-on-errors") && report.protocol_errors + report.io_errors > 0 {
        return Err(format!(
            "loadgen saw {} protocol and {} io errors",
            report.protocol_errors, report.io_errors
        )
        .into());
    }
    Ok(())
}

/// `pacds cluster`
pub fn cluster(args: &Args) -> CliResult {
    args.check_known(
        "addr backends self-host workers queue vnodes probe-interval-ms fail-threshold \
         rise-threshold backend-workers cache-mb duration loadgen concurrency n radius \
         side seed gen-seeds policy semantics deadline-ms kill-after drain-after \
         expect-failover json fail-on-errors",
    )?;

    // Backends: external addresses, in-process ones, or a mix. Ids are
    // positional (`b0`, `b1`, …) — stable ids keep ring arcs (and cache
    // locality) stable across restarts.
    let mut hosted: Vec<pacds_serve::ServerHandle> = Vec::new();
    let mut specs: Vec<pacds_cluster::BackendSpec> = Vec::new();
    if let Some(list) = args.get("backends") {
        for addr in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            specs.push(pacds_cluster::BackendSpec::new(
                format!("b{}", specs.len()),
                addr,
            ));
        }
    }
    let self_host: usize = args.get_or("self-host", 0)?;
    // Backends fronting a coordinator need workers to spare: pacds-serve
    // parks one worker per open connection, and the coordinator holds
    // persistent ones (pooled relays + the prober) — see the sizing note
    // in ARCHITECTURE.md.
    let backend_workers: usize = args.get_or("backend-workers", 8)?;
    let cache_mb: usize = args.get_or("cache-mb", 64)?;
    for _ in 0..self_host {
        let h = pacds_serve::serve(
            "127.0.0.1:0",
            pacds_serve::ServerConfig {
                workers: backend_workers,
                queue: 0,
                cache_bytes: cache_mb << 20,
                shard: Default::default(),
                metrics_addr: None,
            },
        )?;
        specs.push(pacds_cluster::BackendSpec::new(
            format!("b{}", specs.len()),
            h.addr().to_string(),
        ));
        hosted.push(h);
    }
    if specs.is_empty() {
        return Err("no backends: pass --backends <host:port,...> and/or --self-host <n>".into());
    }

    let ccfg = pacds_cluster::ClusterConfig {
        workers: args.get_or("workers", 0)?,
        queue: args.get_or("queue", 0)?,
        vnodes: args.get_or("vnodes", 0)?,
        probe_interval: std::time::Duration::from_millis(args.get_or("probe-interval-ms", 200)?),
        fail_threshold: args.get_or("fail-threshold", 2)?,
        rise_threshold: args.get_or("rise-threshold", 2)?,
        ..Default::default()
    };
    let addr = args.get("addr").unwrap_or("127.0.0.1:7411");
    let mut coord = pacds_cluster::cluster(addr, &specs, ccfg)?;
    println!(
        "pacds-cluster coordinating {} backend(s) on {}; protocol v{}",
        specs.len(),
        coord.addr(),
        pacds_serve::PROTOCOL_VERSION,
    );
    for s in &specs {
        println!("  {:<6} {}", s.id, s.addr);
    }

    // Failure drills for smoke runs: kill the last self-hosted backend
    // and/or drain `b0` partway through a --loadgen window.
    let kill_after: f64 = args.get_or("kill-after", 0.0)?;
    let mut killer = None;
    if kill_after > 0.0 {
        let mut victim = hosted
            .pop()
            .ok_or("--kill-after needs at least one --self-host backend")?;
        println!(
            "  (killing {} after {kill_after}s)",
            specs.last().map(|s| s.id.as_str()).unwrap_or("?")
        );
        killer = Some(std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_secs_f64(kill_after));
            victim.shutdown();
        }));
    }
    let drain_after: f64 = args.get_or("drain-after", 0.0)?;
    if drain_after > 0.0 {
        let state = std::sync::Arc::clone(coord.state());
        println!("  (draining b0 after {drain_after}s)");
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_secs_f64(drain_after));
            state.drain("b0");
        });
    }

    let report = if args.flag("loadgen") {
        let policy = policy_of(args.get("policy").unwrap_or("nd"))?;
        let lcfg = pacds_serve::LoadgenConfig {
            addr: coord.addr().to_string(),
            concurrency: args.get_or("concurrency", 8)?,
            duration: std::time::Duration::from_secs_f64(args.get_or("duration", 10.0)?),
            mode: pacds_serve::Mode::Closed,
            cds: cds_config_of(policy, args.get("semantics").unwrap_or("safe"))?,
            n: args.get_or("n", 200)?,
            radius: args.get_or("radius", 15.0)?,
            side: args.get_or("side", 100.0)?,
            seed: args.get_or("seed", 1)?,
            // Distinct GenCompute digests spread the keyspace across the
            // ring; a single replayed request would pin to one backend.
            gen_seeds: args.get_or("gen-seeds", 64)?,
            no_cache: false,
            deadline_ms: args.get_or("deadline-ms", 0)?,
            mutate_every: 0,
            query_every: 0,
        };
        let report = pacds_serve::loadgen::run(&lcfg)?;
        println!(
            "loadgen via coordinator: {} conns, {:.1}s — {} requests, {:.0} req/s \
             ({} cache hits, {} rejected, {} protocol err, {} io err)",
            report.concurrency,
            report.duration_s,
            report.requests,
            report.throughput_rps,
            report.cache_hits,
            report.rejected,
            report.protocol_errors,
            report.io_errors,
        );
        println!(
            "latency µs: p50={:.1} p99={:.1} p999={:.1} mean={:.1} max={:.1}",
            report.p50_us, report.p99_us, report.p999_us, report.mean_us, report.max_us,
        );
        Some(report)
    } else {
        let duration: f64 = args.get_or("duration", 0.0)?;
        if duration > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(duration));
        } else {
            // Run until the process is killed, like `pacds serve`.
            loop {
                std::thread::park();
            }
        }
        None
    };

    if let Some(k) = killer {
        let _ = k.join();
    }
    let entries = coord.state().stats.entries(&coord.state().backends);
    coord.shutdown();
    drop(hosted);
    for (name, value) in &entries {
        println!("{name:<32} {value}");
    }

    if let Some(path) = args.get("json") {
        // Counter names are plain identifiers, so the object composes
        // textually — the same way LoadReport::to_json builds its body.
        let fields: Vec<String> = entries
            .iter()
            .map(|(n, v)| format!("\"{n}\":{v}"))
            .collect();
        let mut out = String::from("{");
        if let Some(r) = &report {
            out.push_str("\"loadgen\":");
            out.push_str(&r.to_json());
            out.push(',');
        }
        out.push_str("\"cluster\":{");
        out.push_str(&fields.join(","));
        out.push_str("}}\n");
        std::fs::write(path, out)?;
        println!("report written to {path}");
    }

    let counter = |name: &str| {
        entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    if args.flag("expect-failover") && counter("cluster.failed_over") == 0 {
        return Err("expected a failover, but cluster.failed_over is 0".into());
    }
    if args.flag("fail-on-errors") {
        if let Some(r) = &report {
            if r.protocol_errors + r.io_errors > 0 {
                return Err(format!(
                    "cluster loadgen saw {} protocol and {} io errors",
                    r.protocol_errors, r.io_errors
                )
                .into());
            }
        }
        if counter("cluster.protocol_errors") > 0 {
            return Err("coordinator counted protocol errors".into());
        }
    }
    Ok(())
}

/// `pacds scenario-template`
pub fn scenario_template(args: &Args) -> CliResult {
    args.check_known("")?;
    println!(
        "{}",
        serde_json::to_string_pretty(&pacds_sim::Scenario::template())?
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    /// Serialises tests that reset or sample the process-global obs state
    /// (counter table, span ring) against each other.
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn policy_names_round_trip() {
        for (name, policy) in [
            ("nr", Policy::NoPruning),
            ("id", Policy::Id),
            ("nd", Policy::Degree),
            ("el1", Policy::Energy),
            ("EL2", Policy::EnergyDegree),
        ] {
            assert_eq!(policy_of(name).unwrap(), policy);
        }
        assert!(policy_of("bogus").is_err());
    }

    #[test]
    fn model_names() {
        assert_eq!(model_of("1").unwrap(), DrainModel::ConstantTotal);
        assert_eq!(model_of("2").unwrap(), DrainModel::LinearInN);
        assert_eq!(model_of("3").unwrap(), DrainModel::QuadraticInN);
        assert!(matches!(
            model_of("d2").unwrap(),
            DrainModel::ConstantPerGateway { .. }
        ));
        assert!(model_of("x").is_err());
    }

    #[test]
    fn topology_generation_is_deterministic() {
        let a = topology(&args("gen --n 20 --seed 9")).unwrap();
        let b = topology(&args("gen --n 20 --seed 9")).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.n(), 20);
    }

    #[test]
    fn connected_flag_yields_connected_graph() {
        let g = topology(&args("gen --n 30 --seed 2 --connected")).unwrap();
        assert!(algo::is_connected(&g));
    }

    /// The [`RouteError`](pacds_routing::RouteError) a failed `route`
    /// command returned.
    fn route_error(line: &str) -> pacds_routing::RouteError {
        let err = route(&args(line)).expect_err(line);
        *err.downcast_ref::<pacds_routing::RouteError>()
            .unwrap_or_else(|| panic!("{line}: untyped error {err}"))
    }

    #[test]
    fn route_crosses_a_connected_topology() {
        route(&args("route --n 30 --seed 2 --connected --from 0 --to 29")).unwrap();
    }

    #[test]
    fn route_to_an_out_of_range_host_is_a_typed_error() {
        assert_eq!(
            route_error("route --n 30 --seed 2 --connected --from 0 --to 30"),
            pacds_routing::RouteError::OutOfRange
        );
    }

    #[test]
    fn route_from_an_undominated_host_is_a_typed_error() {
        // Path 0-1-2 plus isolated 3: no gateway is adjacent to 3.
        let path = std::env::temp_dir().join("pacds_cli_route_isolated.txt");
        std::fs::write(&path, "4 2\n0 1\n1 2\n").unwrap();
        let input = path.display();
        assert_eq!(
            route_error(&format!("route --input {input} --from 3 --to 0")),
            pacds_routing::RouteError::SourceNotDominated
        );
        assert_eq!(
            route_error(&format!("route --input {input} --from 0 --to 3")),
            pacds_routing::RouteError::DestinationNotDominated
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn energy_levels_default_uniform() {
        let a = args("cds");
        assert_eq!(energy_levels(&a, 3).unwrap(), vec![10, 10, 10]);
        let b = args("cds --energy-seed 5");
        let levels = energy_levels(&b, 50).unwrap();
        assert!(levels.iter().any(|&l| l != levels[0]));
    }

    #[test]
    fn commands_run_end_to_end() {
        gen(&args("gen --n 15 --seed 3")).unwrap();
        gen(&args("gen --n 15 --seed 3 --format json")).unwrap();
        cds(&args(
            "cds --n 25 --seed 3 --connected --policy el2 --energy-seed 1",
        ))
        .unwrap();
        compare(&args("compare --n 25 --seed 3 --connected")).unwrap();
        route(&args("route --n 25 --seed 3 --connected --from 0 --to 7")).unwrap();
        simulate(&args("simulate --n 15 --trials 2 --model 3")).unwrap();
    }

    #[test]
    fn trace_and_watch_and_robustness_run() {
        let dir = std::env::temp_dir().join("pacds_cli_test_trace.jsonl");
        let out = format!("trace --n 12 --max 5 --out {}", dir.display());
        trace(&args(&out)).unwrap();
        assert!(dir.exists());
        let text = std::fs::read_to_string(&dir).unwrap();
        assert!(text.lines().count() >= 1);
        let _ = std::fs::remove_file(&dir);
        watch(&args("watch --n 12 --intervals 2")).unwrap();
        robustness(&args("robustness --n 25 --seed 3 --connected")).unwrap();
    }

    #[test]
    fn explain_runs_for_all_hosts_and_single_host() {
        explain(&args(
            "explain --n 20 --seed 3 --connected --policy el1 --energy-seed 2",
        ))
        .unwrap();
        explain(&args("explain --n 20 --seed 3 --host 5")).unwrap();
        assert!(explain(&args("explain --n 10 --seed 1 --host 99")).is_err());
    }

    #[test]
    fn scenario_round_trip_through_cli() {
        scenario_template(&args("scenario-template")).unwrap();
        // Write a small scenario and run it.
        let mut sc = pacds_sim::Scenario::template();
        sc.trials = 2;
        sc.sim.n = 12;
        let path = std::env::temp_dir().join("pacds_cli_scenario.json");
        std::fs::write(&path, serde_json::to_string(&sc).unwrap()).unwrap();
        run_scenario(&args(&format!("run --scenario {}", path.display()))).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn obs_report_runs_in_all_formats() {
        // One test fn for every invocation: obs_report resets the global
        // counters, so concurrent calls from separate tests would race.
        let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        obs_report(&args("obs-report --n 12 --intervals 3")).unwrap();
        obs_report(&args("obs-report --n 12 --intervals 3 --format jsonl")).unwrap();
        obs_report(&args("obs-report --n 12 --intervals 3 --format prometheus")).unwrap();
        let tpath = std::env::temp_dir().join("pacds_cli_obs_traces.jsonl");
        obs_report(&args(&format!(
            "obs-report --n 12 --intervals 3 --trace-jsonl {}",
            tpath.display()
        )))
        .unwrap();
        let traces = std::fs::read_to_string(&tpath).unwrap();
        let _ = std::fs::remove_file(&tpath);
        if pacds_obs::trace_enabled() {
            assert!(
                traces.lines().any(|l| l.contains("sim.interval")),
                "trace build must record interval spans: {traces}"
            );
        } else {
            assert!(traces.is_empty());
        }
        assert!(obs_report(&args("obs-report --n 12 --intervals 3 --format bogus")).is_err());
        assert!(obs_report(&args("obs-report --bogus 1")).is_err());
        #[cfg(feature = "obs")]
        {
            // The instrumented build must produce a non-empty breakdown for
            // the paper-default scenario.
            let snap = pacds_obs::Snapshot::capture();
            assert!(!snap.phases.is_empty(), "obs build must report phases");
            assert!(snap.counter("sim.intervals") >= 1);
        }
        // The shard workload runs the shared driver, whose summary must
        // stay out of the report.
        obs_report(&args("obs-report --workload shard --n 2000")).unwrap();
        obs_report(&args("obs-report --workload shard --n 2000 --format jsonl")).unwrap();
        #[cfg(feature = "obs")]
        {
            let snap = pacds_obs::Snapshot::capture();
            assert_eq!(snap.counter("shard.computes"), 1);
            assert_eq!(snap.counter("shard.owned_nodes"), 2000);
        }
    }

    #[test]
    fn unknown_options_are_rejected() {
        assert!(gen(&args("gen --bogus 3")).is_err());
        assert!(simulate(&args("simulate --radius 3")).is_err());
    }

    #[test]
    fn simulate_no_longer_takes_incremental() {
        let err = simulate(&args("simulate --n 10 --trials 1 --incremental")).unwrap_err();
        assert!(
            err.to_string().starts_with("unknown option --incremental"),
            "{err}"
        );
    }

    #[test]
    fn bad_route_endpoints_error() {
        assert!(route(&args("route --n 10 --seed 3 --from 0 --to 999")).is_err());
    }

    #[test]
    fn server_config_parses_flags() {
        let cfg = server_config_of(&args("serve --workers 3 --queue 7 --cache-mb 2")).unwrap();
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.queue, 7);
        assert_eq!(cfg.cache_bytes, 2 << 20);
        assert_eq!(cfg.shard, pacds_serve::ShardPolicy::default());
        assert!(server_config_of(&args("serve --workers zero")).is_err());

        let cfg = server_config_of(&args(
            "serve --shard always --shard-threshold 500 --shards 8",
        ))
        .unwrap();
        assert_eq!(cfg.shard.mode, pacds_serve::ShardMode::Always);
        assert_eq!(cfg.shard.threshold, 500);
        assert_eq!(cfg.shard.shards, 8);
        assert!(server_config_of(&args("serve --shard sometimes")).is_err());
    }

    #[test]
    fn shard_command_checks_identity_and_writes_json() {
        let path = std::env::temp_dir().join("pacds_cli_shard.json");
        shard(&args(&format!(
            "shard --n 400 --seed 7 --shards 4 --threads 1 --policy el2 \
             --energy-seed 3 --check --compare --fail-on-errors --json {}",
            path.display()
        )))
        .unwrap();
        let stats = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(stats.contains("\"n\":400"));
        assert!(stats.contains("\"tiles\":4"));
        assert!(stats.contains("\"solve_ns\":"));
        assert!(!stats.contains("\"whole_graph_s\":null"), "--compare ran");
    }

    #[test]
    fn shard_command_rejects_bad_halo_and_unshardable_semantics() {
        assert!(
            shard(&args("shard --n 50 --halo 1")).is_err(),
            "halo below minimum"
        );
        assert!(
            shard(&args("shard --n 50 --semantics seq")).is_err(),
            "sequential semantics are typed-rejected"
        );
        // Oversized --check is only fatal under --fail-on-errors.
        assert!(shard(&args("shard --n 200000 --check --fail-on-errors")).is_err());
    }

    #[test]
    fn churn_command_checks_identity_and_writes_json() {
        let path = std::env::temp_dir().join("pacds_cli_churn.json");
        churn(&args(&format!(
            "churn --n 300 --seed 5 --shards 9 --threads 1 --policy el2 \
             --energy-seed 3 --steps 4 --events 12 --check --json {}",
            path.display()
        )))
        .unwrap();
        let stats = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(stats.contains("\"n\":300"));
        assert!(stats.contains("\"checked\":true"));
        assert!(stats.contains("\"gateway_flips\":"));
    }

    #[test]
    fn churn_command_rejects_unshardable_semantics_and_bad_locality_gates() {
        assert!(
            churn(&args("churn --n 40 --semantics seq --steps 1")).is_err(),
            "sequential semantics are typed-rejected"
        );
        // An impossible locality gate must fail the run: with every tile
        // dirty on the initial solve, a later step touching most of a tiny
        // grid cannot stay under a 0-fraction ceiling.
        assert!(churn(&args(
            "churn --n 120 --shards 4 --threads 1 --steps 2 --events 40 \
             --max-resolved-frac 0.0"
        ))
        .is_err());
    }

    #[test]
    fn loadgen_rejects_bad_modes_and_options() {
        assert!(loadgen(&args("loadgen --mode sideways")).is_err());
        // Open mode requires --rate.
        assert!(loadgen(&args("loadgen --mode open")).is_err());
        assert!(loadgen(&args("loadgen --bogus 1")).is_err());
    }

    #[test]
    fn obs_diff_reports_counter_and_phase_deltas() {
        use pacds_obs::{PhaseSnapshot, Snapshot};
        let dir = std::env::temp_dir();
        let (old_path, new_path) = (
            dir.join("pacds_cli_diff_old.jsonl"),
            dir.join("pacds_cli_diff_new.jsonl"),
        );
        let mut old = Snapshot::empty();
        old.counters.push(pacds_obs::export::CounterEntry {
            name: "serve.requests".into(),
            value: 10,
        });
        let mut new = old.clone();
        new.counters[0].value = 25;
        new.phases.push(PhaseSnapshot {
            name: "serve.compute".into(),
            count: 4,
            total_ns: 8_000,
            buckets: vec![4],
        });
        // An interleaved non-snapshot line must be skipped, not fatal.
        std::fs::write(&old_path, old.to_json_line() + "\n").unwrap();
        std::fs::write(
            &new_path,
            format!(
                "{}\n{{\"kind\":\"obs_window\",\"seq\":1}}\n",
                new.to_json_line()
            ),
        )
        .unwrap();
        obs_report(&args(&format!(
            "obs-report --diff {} {}",
            old_path.display(),
            new_path.display()
        )))
        .unwrap();
        // Missing second path and over-long positional lists are rejected.
        assert!(obs_report(&args(&format!("obs-report --diff {}", old_path.display()))).is_err());
        assert!(obs_report(&args("obs-report --diff a.jsonl b.jsonl c.jsonl")).is_err());
        // A positional without --diff is rejected too.
        assert!(obs_report(&args("obs-report stray.jsonl")).is_err());
        let _ = std::fs::remove_file(&old_path);
        let _ = std::fs::remove_file(&new_path);
    }

    #[test]
    fn obs_live_tails_a_stats_subscription() {
        let cfg = pacds_serve::ServerConfig {
            workers: 1,
            ..Default::default()
        };
        let mut server = pacds_serve::serve("127.0.0.1:0", cfg).unwrap();
        obs_live(
            &server.addr().to_string(),
            &args("obs-report --interval-ms 20 --windows 2"),
        )
        .unwrap();
        server.shutdown();
    }

    #[test]
    fn churn_trace_jsonl_writes_a_file() {
        let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let path = std::env::temp_dir().join("pacds_cli_churn_traces.jsonl");
        churn(&args(&format!(
            "churn --n 120 --shards 4 --threads 1 --steps 2 --events 8 \
             --trace-jsonl {}",
            path.display()
        )))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        if pacds_obs::trace_enabled() {
            assert!(
                text.lines().any(|l| l.contains("churn.refresh")),
                "trace build must record refresh spans: {text}"
            );
        } else {
            assert!(text.is_empty(), "disabled build writes an empty trace file");
        }
    }

    #[test]
    fn self_hosted_loadgen_round_trips() {
        // End-to-end smoke: in-process server on an ephemeral port, a short
        // closed-loop burst, JSON report on disk, zero protocol errors.
        let path = std::env::temp_dir().join("pacds_cli_loadgen.json");
        loadgen(&args(&format!(
            "loadgen --self-host --workers 2 --cache-mb 8 --n 30 --radius 30 \
             --duration 0.3 --concurrency 2 --fail-on-errors --json {}",
            path.display()
        )))
        .unwrap();
        let report = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(report.contains("\"bench\":\"serve_loadgen\""));
        assert!(report.contains("\"protocol_errors\":0"));
    }
}
