//! Packet forwarding over the CDS backbone (`pacds-dataplane`).
//!
//! For each size in `PACDS_DP_SIZES` (default `100000,1000000`) the binary
//! places a constant-density unit-disk instance, opens a [`ChurnNet`]
//! (churn control plane + retained CSR adjacency), registers
//! `PACDS_DP_FLOWS` (default `256`) routable unicast flows, and drives
//! `PACDS_DP_WAVES` (default `20`) waves of `PACDS_DP_PACKETS` (default
//! `32`) packets per flow through the vector-dispatch engine. It measures:
//!
//! * **hops/s** — aggregate per-hop forwarding operations per second over
//!   the warm waves, gated by `PACDS_DP_MIN_PPS` (default `1000000`),
//! * **path stretch** — routed hop count vs a true shortest-path BFS on
//!   `PACDS_DP_STRETCH_PAIRS` (default `32`) sampled flows,
//! * **broadcast reduction** — gateway-relayed vs blind flood
//!   transmissions from the same source, gated by
//!   `PACDS_DP_MIN_FLOOD_REDUCTION` (default `0.60`),
//! * **kill → reroute** — one gateway on an active route is killed; the
//!   stale wave must NACK (never deliver into the dead node), and the
//!   refresh → reinstall → retransmit → redelivery sequence is timed end
//!   to end. `adjacency_ns` is the part of the refresh the churn engine
//!   does not account for (refresh minus its halo + solve + scatter
//!   time): the dataplane's adjacency upkeep. The engine's times are
//!   summed over its pool workers, so the engine runs one pool thread
//!   (as in perfbench's churn-reroute) to keep that difference exact.
//!
//! The `misroutes` counter — packets forwarded into a dead node — is
//! asserted **zero** at exit; this is the structural NACK guarantee, not
//! a statistical observation. Exits non-zero on any gate failure.
//!
//! Writes `BENCH_dataplane.json` (override: `PACDS_BENCH_OUT`).
//! Hand-written JSON: the bench crate deliberately takes no serde
//! dependency.

use pacds_core::{CdsConfig, Policy};
use pacds_dataplane::{ChurnNet, Dataplane};
use pacds_graph::{CsrGraph, NodeId};
use pacds_shard::ShardSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

// Denser than bench_churn's radius-25 regime (~28.3 vs ~19.6 expected
// neighbours): the paper's ≈70% broadcast-saving claim is made for dense
// networks, where the Degree-rule backbone covers a smaller host fraction.
const RADIUS: f64 = 30.0;

fn arena(n: usize) -> pacds_geom::Rect {
    pacds_geom::Rect::square((100.0 * (n as f64 / 100.0).sqrt()).max(1.0))
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn sizes() -> Vec<usize> {
    match std::env::var("PACDS_DP_SIZES") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("PACDS_DP_SIZES: integers"))
            .collect(),
        Err(_) => vec![100_000, 1_000_000],
    }
}

/// Whole-graph BFS hop distances from `src` (the shortest-path oracle the
/// dense-table `stretch.rs` uses, restated over the CSR adjacency so it
/// scales to n = 10⁶).
fn bfs_distances(g: &CsrGraph, src: NodeId, dist: &mut Vec<u32>, queue: &mut Vec<NodeId>) {
    dist.clear();
    dist.resize(g.n(), u32::MAX);
    queue.clear();
    dist[src as usize] = 0;
    queue.push(src);
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        let dv = dist[v as usize];
        for &u in g.neighbors(v) {
            if dist[u as usize] == u32::MAX {
                dist[u as usize] = dv + 1;
                queue.push(u);
            }
        }
    }
}

fn main() -> ExitCode {
    // Degree rule: the smallest backbone of the paper's tie-break rules,
    // hence the strongest broadcast-reduction case (EnergyDegree trades
    // a few points of reduction for lifetime, which bench_churn covers).
    let cfg = CdsConfig::policy(Policy::Degree);
    let flows = env_usize("PACDS_DP_FLOWS", 256);
    let packets = env_usize("PACDS_DP_PACKETS", 32);
    let waves = env_usize("PACDS_DP_WAVES", 20);
    let stretch_pairs = env_usize("PACDS_DP_STRETCH_PAIRS", 32);
    let min_pps = env_f64("PACDS_DP_MIN_PPS", 1e6);
    let min_reduction = env_f64("PACDS_DP_MIN_FLOOD_REDUCTION", 0.60);
    let machine_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let spec = ShardSpec {
        threads: 1,
        ..ShardSpec::all_cores()
    };
    let mut rows = Vec::new();

    for n in sizes() {
        let bounds = arena(n);
        let mut rng = StdRng::seed_from_u64(42);
        let points = pacds_geom::placement::uniform_points(&mut rng, bounds, n);
        let energy: Vec<u64> = (0..n).map(|i| (i as u64 * 7919) % 100 + 1).collect();

        let t = Instant::now();
        let mut net = ChurnNet::open(spec, bounds, RADIUS, &points, &energy, &cfg)
            .expect("benchmark config is shardable");
        let open_ns = t.elapsed().as_nanos() as f64;
        let gateways = net.gateway_count();

        let mut dp = Dataplane::new();
        dp.install_tables(net.gateway(), net.alive());

        // Routable flows only; endpoints are protected from the kill so
        // every flow stays deliverable for the whole run.
        let mut protected = vec![false; n];
        let mut flow_ids = Vec::with_capacity(flows);
        let mut endpoints = Vec::with_capacity(flows);
        let mut probe = Vec::new();
        while flow_ids.len() < flows {
            let s = rng.random_range(0..n as u32);
            let t = rng.random_range(0..n as u32);
            if s == t || dp.routes_mut().assemble(net.graph(), s, t, &mut probe).is_err() {
                continue; // self-flow, disconnected, or undominated pick: redraw
            }
            protected[s as usize] = true;
            protected[t as usize] = true;
            endpoints.push((s, t));
            flow_ids.push(dp.add_flow(s, t));
        }

        // Warm wave: resolve every flow's route, grow every retained
        // buffer to its high-water mark.
        for &f in &flow_ids {
            dp.inject(f, 1);
        }
        dp.pump(net.graph(), net.alive());
        dp.reset_packets();
        let warm = dp.stats();
        assert_eq!(warm.delivered, flows as u64, "warm wave must deliver fully");

        // Timed forwarding waves (routes cached; the steady state).
        let t = Instant::now();
        for _ in 0..waves {
            for &f in &flow_ids {
                dp.inject(f, packets);
            }
            black_box(dp.pump(net.graph(), net.alive()));
            dp.reset_packets();
        }
        let forward_ns = t.elapsed().as_nanos() as f64;
        let steady = dp.stats();
        let hops = steady.forwarded_hops - warm.forwarded_hops;
        let delivered = steady.delivered - warm.delivered;
        let hops_per_s = hops as f64 * 1e9 / forward_ns.max(1.0);
        let delivered_per_s = delivered as f64 * 1e9 / forward_ns.max(1.0);
        let mean_hops = hops as f64 / delivered.max(1) as f64;

        // Path stretch vs the shortest-path oracle on sampled flows.
        let mut dist = Vec::new();
        let mut queue = Vec::new();
        let mut extra_sum = 0u64;
        let mut ratio_sum = 0.0f64;
        let mut max_extra = 0u32;
        let sampled = stretch_pairs.min(endpoints.len());
        for &(s, t) in endpoints.iter().take(sampled) {
            bfs_distances(net.graph(), s, &mut dist, &mut queue);
            let shortest = dist[t as usize];
            assert_ne!(shortest, u32::MAX, "flow endpoints are connected");
            dp.routes_mut()
                .assemble(net.graph(), s, t, &mut probe)
                .expect("probed routable at registration");
            let routed = (probe.len() - 1) as u32;
            let extra = routed - shortest;
            extra_sum += u64::from(extra);
            ratio_sum += f64::from(routed) / f64::from(shortest.max(1));
            max_extra = max_extra.max(extra);
        }
        let mean_extra = extra_sum as f64 / sampled.max(1) as f64;
        let mean_ratio = ratio_sum / sampled.max(1) as f64;

        // Broadcast: blind vs gateway-relayed flood from one flow source.
        let src = endpoints[0].0;
        dp.inject_broadcast(src, true);
        dp.pump(net.graph(), net.alive());
        let blind = dp.last_flood().expect("flood ran");
        dp.inject_broadcast(src, false);
        dp.pump(net.graph(), net.alive());
        let gateway_flood = dp.last_flood().expect("flood ran");
        dp.reset_packets();
        assert_eq!(
            blind.reached, gateway_flood.reached,
            "gateway flood must keep full coverage"
        );
        let reduction = 1.0 - gateway_flood.transmissions as f64 / blind.transmissions.max(1) as f64;

        // Kill → reroute: take one interior hop of an active route (a
        // gateway by construction), kill it, and drive the NACK →
        // refresh → retransmit → redelivery sequence.
        let victim = endpoints
            .iter()
            .find_map(|&(s, t)| {
                dp.routes_mut()
                    .assemble(net.graph(), s, t, &mut probe)
                    .expect("probed routable at registration");
                probe
                    .get(1..probe.len() - 1)
                    .unwrap_or(&[])
                    .iter()
                    .copied()
                    .find(|&v| !protected[v as usize])
            })
            .expect("some flow has an unprotected interior hop");
        net.kill(victim).expect("victim is alive");
        let before_kill = dp.stats();
        for &f in &flow_ids {
            dp.inject(f, packets);
        }
        dp.pump(net.graph(), net.alive());
        let stale = dp.stats();
        let nacked = stale.nacked - before_kill.nacked;
        assert!(nacked > 0, "the kill must strand at least flow 0's route");
        let t = Instant::now();
        let cs = net.refresh();
        let refresh_ns = t.elapsed().as_nanos() as f64;
        let adjacency_ns = refresh_ns - (cs.halo_build_ns + cs.solve_ns + cs.scatter_ns) as f64;
        dp.install_tables(net.gateway(), net.alive());
        let requeued = dp.requeue_nacked();
        dp.pump(net.graph(), net.alive());
        let reroute_ns = t.elapsed().as_nanos() as f64;
        let rerouted = dp.stats();
        assert_eq!(dp.nacked_pending(), 0, "every NACKed packet redelivered");
        assert_eq!(
            rerouted.delivered - before_kill.delivered,
            (flows * packets) as u64,
            "the post-kill wave must deliver fully after the reroute"
        );
        dp.reset_packets();

        // The structural guarantee this subsystem exists for.
        assert_eq!(rerouted.misroutes, 0, "packets were forwarded into a dead node");

        println!(
            "n={n:>8}  gateways={gateways:>7}  {hops_per_s:>12.0} hops/s  \
             {delivered_per_s:>9.0} pkts/s  {mean_hops:>6.1} hops/pkt  \
             stretch +{mean_extra:.2} ({mean_ratio:.3}x)  \
             flood -{:.1}%  reroute {:.1} ms (adjacency {:.2} ms, {requeued} retransmits)",
            100.0 * reduction,
            reroute_ns / 1e6,
            adjacency_ns / 1e6,
        );
        rows.push(format!(
            concat!(
                "    {{\n",
                "      \"n\": {}, \"gateways\": {}, \"flows\": {}, ",
                "\"packets_per_flow_per_wave\": {}, \"waves\": {},\n",
                "      \"open_ns\": {:.0}, \"forward_ns\": {:.0},\n",
                "      \"delivered\": {}, \"forwarded_hops\": {}, ",
                "\"mean_hops_per_packet\": {:.2},\n",
                "      \"hops_per_s\": {:.0}, \"delivered_per_s\": {:.0},\n",
                "      \"stretch_sampled_pairs\": {}, \"stretch_mean_extra_hops\": {:.3}, ",
                "\"stretch_mean_ratio\": {:.4}, \"stretch_max_extra_hops\": {},\n",
                "      \"blind_transmissions\": {}, \"gateway_transmissions\": {}, ",
                "\"flood_reached\": {}, \"flood_reduction\": {:.4},\n",
                "      \"kill_nacked\": {}, \"kill_retransmits\": {}, ",
                "\"refresh_ns\": {:.0}, \"adjacency_ns\": {:.0}, \"reroute_ns\": {:.0}, ",
                "\"misroutes\": {}\n",
                "    }}"
            ),
            n,
            gateways,
            flows,
            packets,
            waves,
            open_ns,
            forward_ns,
            delivered,
            hops,
            mean_hops,
            hops_per_s,
            delivered_per_s,
            sampled,
            mean_extra,
            mean_ratio,
            max_extra,
            blind.transmissions,
            gateway_flood.transmissions,
            blind.reached,
            reduction,
            nacked,
            requeued,
            refresh_ns,
            adjacency_ns,
            reroute_ns,
            rerouted.misroutes,
        ));

        if hops_per_s < min_pps {
            eprintln!(
                "error: n={n}: {hops_per_s:.0} hops/s is below the \
                 PACDS_DP_MIN_PPS={min_pps:.0} gate"
            );
            return ExitCode::FAILURE;
        }
        if reduction < min_reduction {
            eprintln!(
                "error: n={n}: flood reduction {reduction:.3} is below the \
                 PACDS_DP_MIN_FLOOD_REDUCTION={min_reduction} gate"
            );
            return ExitCode::FAILURE;
        }
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"dataplane_forwarding\",\n",
            "  \"description\": \"pacds-dataplane vector-dispatch forwarding engine on ",
            "constant-density unit-disk instances (radius 30, ~28.3 expected neighbours), ",
            "Degree-rule backbone: {} unicast flows x {} packets x {} timed waves with ",
            "routes cached after a warm wave. Schema per result: hops_per_s counts ",
            "per-hop forwarding operations (the aggregate rate the >=1e6 gate applies ",
            "to); stretch_* compare routed hop counts to a shortest-path BFS oracle on ",
            "sampled flows; flood_reduction = 1 - gateway/blind transmissions from the ",
            "same source at full coverage; kill_* time the gateway-death NACK -> churn ",
            "refresh -> table reinstall -> retransmit -> redelivery sequence end to end ",
            "(reroute_ns includes refresh_ns; adjacency_ns is refresh_ns minus the churn ",
            "engine's halo + solve + scatter time, i.e. the adjacency upkeep, exact because ",
            "the engine runs one pool thread); misroutes counts packets forwarded into a ",
            "dead node and is asserted zero — the structural liveness-check guarantee. ",
            "Wall times depend on machine_threads\",\n",
            "  \"unit\": \"hops/s\",\n",
            "  \"machine_threads\": {},\n",
            "  \"results\": [\n{}\n  ]\n",
            "}}\n"
        ),
        flows,
        packets,
        waves,
        machine_threads,
        rows.join(",\n")
    );
    let out = std::env::var("PACDS_BENCH_OUT").unwrap_or_else(|_| "BENCH_dataplane.json".into());
    match std::fs::write(&out, &json) {
        Ok(()) => {
            eprintln!("wrote {out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot write {out}: {e}");
            ExitCode::FAILURE
        }
    }
}
