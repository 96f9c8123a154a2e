//! Packet forwarding over the churning backbone, driven by
//! `pacds dataplane` and `bench_dataplane`.
//!
//! [`run`] opens a [`ChurnNet`] on the instance, registers routable
//! unicast flows whose endpoints are protected from every kill, sends one
//! warm wave, then `waves` timed waves, and more waves without kills until
//! [`MIN_TIMED_S`] has passed. A wave may first kill a gateway;
//! packets on routes through it NACK, and the wave then reroutes them:
//! churn refresh → table install → requeue → pump. Broadcasts compare a
//! blind flood with a gateway-relayed one from the first flow's source.
//! Two tail phases serve the bench: path stretch against a BFS oracle on
//! sampled flows, and the drill — one flood comparison at full coverage,
//! then a kill of an interior hop of a live route, which must be
//! rerouted by repairing destination trees, not rebuilding them.

use crate::row::Row;
use crate::{meta, Error, Instance};
use pacds_core::CdsConfig;
use pacds_dataplane::{ChurnNet, Dataplane};
use pacds_graph::{Graph, NodeId};
use pacds_shard::ShardSpec;
use rand::Rng;
use std::io::Write;
use std::time::Instant;

/// The shortest timed window: waves past `waves` (without kills) are sent
/// until it has passed, so the forwarding rate at small sizes is not a
/// few milliseconds of noise.
pub const MIN_TIMED_S: f64 = 0.2;

/// Which broadcasts each wave sends: `(blind, gateway-relayed)`.
pub type Broadcast = (bool, bool);

/// Parses `none|blind|gateway|both`.
pub fn broadcast_of(s: &str) -> Result<Broadcast, Error> {
    Ok(match s {
        "none" => (false, false),
        "blind" => (true, false),
        "gateway" => (false, true),
        "both" => (true, true),
        other => {
            return Err(
                format!("unknown broadcast mode '{other}' (none|blind|gateway|both)").into(),
            )
        }
    })
}

/// What one dataplane run drives.
#[derive(Debug, Clone, Copy)]
pub struct DpParams {
    pub spec: ShardSpec,
    pub cfg: CdsConfig,
    pub flows: usize,
    /// Packets per flow per wave.
    pub packets: usize,
    /// Timed waves at least; the kill schedule covers these.
    pub waves: usize,
    /// Kill one random unprotected gateway every this many waves (0:
    /// never).
    pub kill_every: usize,
    pub broadcast: Broadcast,
    /// Flows sampled for path stretch (0: skip).
    pub stretch_pairs: usize,
    /// Run the drill after the waves.
    pub drill: bool,
    /// Gates: forwarding rate over the waves and flood reduction, each
    /// skipped when not measured.
    pub min_hops_per_s: f64,
    pub min_flood_reduction: f64,
    /// Gate: no misroute, drop, packet left parked or unaccounted for.
    pub fail_on_errors: bool,
}

/// One reroute: refresh → install → requeue → pump.
#[derive(Debug, Clone, Copy)]
struct Reroute {
    requeued: usize,
    refresh_ns: f64,
    /// Refresh minus the churn engine's halo + solve + scatter time: the
    /// adjacency upkeep. Exact only with one pool thread, since the
    /// engine's times are summed over workers.
    adjacency_ns: f64,
    /// Refresh through redelivery.
    ns: f64,
    /// Destination trees the redelivery built in full / repaired.
    trees: (usize, usize),
}

/// The live workload: network, engine, flows and running totals.
struct Traffic {
    net: ChurnNet,
    dp: Dataplane,
    flows: Vec<(u32, NodeId, NodeId)>,
    protected: Vec<bool>,
    probe: Vec<NodeId>,
    kills: u64,
    reroutes: u64,
    reroute_ns: f64,
    /// Trees of the installs before the current one.
    trees: (usize, usize),
    /// Transmissions and hosts reached, summed over blind / gateway floods.
    floods: [(u64, u64); 2],
}

impl Traffic {
    /// Destination trees built / repaired over every install so far.
    fn trees(&self) -> (usize, usize) {
        let (r, (built, repaired)) = (self.dp.routes(), self.trees);
        (built + r.trees_built(), repaired + r.trees_repaired())
    }

    /// The current route from `src` to `dst`, hop by hop, into `probe`.
    fn route(&mut self, src: NodeId, dst: NodeId) -> Result<(), Error> {
        let (g, probe) = (self.net.graph(), &mut self.probe);
        Ok(self.dp.routes_mut().assemble(g, src, dst, probe)?)
    }

    fn pump(&mut self) {
        self.dp.pump(self.net.graph(), self.net.alive());
    }

    /// Adds the last flood to the blind (0) or gateway (1) totals.
    fn tally_flood(&mut self, kind: usize) -> Result<(), Error> {
        let c = self.dp.last_flood().ok_or("the flood did not run")?;
        let sum = &mut self.floods[kind];
        *sum = (sum.0 + c.transmissions as u64, sum.1 + c.reached as u64);
        Ok(())
    }

    /// Kills `victim`, injects `packets` per flow and the broadcasts,
    /// pumps, and reroutes whatever NACKed.
    fn wave(
        &mut self,
        victim: Option<NodeId>,
        packets: usize,
        (blind, gateway): Broadcast,
    ) -> Result<Option<Reroute>, Error> {
        self.dp.set_trace(pacds_obs::next_trace_id());
        if let Some(v) = victim {
            self.net.kill(v)?;
            self.kills += 1;
        }
        for &(f, _, _) in &self.flows {
            self.dp.inject(f, packets);
        }
        let src = self.flows.first().map_or(0, |f| f.1);
        if blind {
            self.dp.inject_broadcast(src, true);
        }
        self.pump();
        if blind {
            self.tally_flood(0)?;
        }
        if gateway {
            self.dp.inject_broadcast(src, false);
            self.pump();
            self.tally_flood(1)?;
        }
        let reroute = (self.dp.nacked_pending() > 0).then(|| self.reroute());
        if self.dp.nacked_pending() == 0 {
            self.dp.reset_packets();
        }
        Ok(reroute)
    }

    fn reroute(&mut self) -> Reroute {
        let t = Instant::now();
        let cs = self.net.refresh();
        let refresh_ns = t.elapsed().as_nanos() as f64;
        // The tree counters restart at each install.
        self.trees = self.trees();
        self.dp.install_tables(self.net.gateway(), self.net.alive());
        let requeued = self.dp.requeue_nacked();
        self.pump();
        let ns = t.elapsed().as_nanos() as f64;
        (self.reroutes, self.reroute_ns) = (self.reroutes + 1, self.reroute_ns + ns);
        let r = self.dp.routes();
        Reroute {
            requeued,
            refresh_ns,
            adjacency_ns: refresh_ns - (cs.halo_build_ns + cs.solve_ns + cs.scatter_ns) as f64,
            ns,
            trees: (r.trees_built(), r.trees_repaired()),
        }
    }

    /// Routed hop counts of the first `pairs` flows against BFS
    /// shortest paths.
    fn stretch(&mut self, pairs: usize, out: &mut dyn Write) -> Result<Row, Error> {
        let (mut extra, mut ratio, mut max_extra) = (0, 0.0, 0);
        for k in 0..pairs {
            let (_, src, dst) = self.flows[k];
            let shortest = bfs_hops(self.net.graph(), src, dst).ok_or("flow is disconnected")?;
            self.route(src, dst)?;
            let routed = (self.probe.len() - 1) as u32;
            (extra, max_extra) = (extra + routed - shortest, max_extra.max(routed - shortest));
            ratio += f64::from(routed) / f64::from(shortest.max(1));
        }
        let (extra, ratio) = (f64::from(extra) / pairs as f64, ratio / pairs as f64);
        writeln!(
            out,
            "stretch: +{extra:.2} hops ({ratio:.3}x) over BFS on {pairs} flows"
        )?;
        Ok(Row::new()
            .with("stretch_sampled_pairs", pairs)
            .fixed("stretch_mean_extra_hops", extra, 3)
            .fixed("stretch_mean_ratio", ratio, 4)
            .with("stretch_max_extra_hops", max_extra))
    }

    /// A flood comparison at full coverage, then a kill of the first
    /// unprotected interior hop on a live route, whose reroute must
    /// repair trees and rebuild none.
    fn drill(&mut self, packets: usize, out: &mut dyn Write) -> Result<Row, Error> {
        let reached = self.floods.map(|f| f.1);
        self.wave(None, 0, (true, true))?;
        if self.floods[0].1 - reached[0] != self.floods[1].1 - reached[1] {
            return Err("the gateway flood lost coverage".into());
        }
        let mut victim = None;
        for k in 0..self.flows.len() {
            let (_, src, dst) = self.flows[k];
            self.route(src, dst)?;
            let inner = self.probe.get(1..self.probe.len() - 1).unwrap_or(&[]);
            victim = inner.iter().copied().find(|&v| !self.protected[v as usize]);
            if victim.is_some() {
                break;
            }
        }
        let victim = victim.ok_or("no flow has an unprotected interior hop")?;
        let before = self.dp.stats();
        let r = self.wave(Some(victim), packets, (false, false))?;
        let r = r.ok_or("the kill stranded no route")?;
        let after = self.dp.stats();
        if after.delivered - before.delivered != (self.flows.len() * packets) as u64 {
            return Err("the post-kill wave did not deliver fully after the reroute".into());
        }
        // Deterministic for a given instance: the kill leaves every
        // destination gateway in place.
        let (built, repaired) = r.trees;
        if repaired == 0 || built > 0 {
            return Err(
                format!("the reroute repaired {repaired} trees and rebuilt {built}").into(),
            );
        }
        writeln!(
            out,
            "drill: {} NACKed, rerouted in {:.1} ms (adjacency {:.2} ms), {repaired} trees \
             repaired",
            after.nacked - before.nacked,
            r.ns / 1e6,
            r.adjacency_ns / 1e6
        )?;
        Ok(Row::new()
            .with("kill_nacked", after.nacked - before.nacked)
            .with("kill_retransmits", r.requeued)
            .fixed("refresh_ns", r.refresh_ns, 0)
            .fixed("adjacency_ns", r.adjacency_ns, 0)
            .fixed("reroute_ns", r.ns, 0)
            .with("trees_rebuilt", built)
            .with("trees_repaired", repaired))
    }
}

/// BFS hop count from `src` to `dst` over the CSR adjacency.
fn bfs_hops(g: &Graph, src: NodeId, dst: NodeId) -> Option<u32> {
    let mut dist = vec![u32::MAX; g.n()];
    let mut queue = vec![src];
    dist[src as usize] = 0;
    let mut head = 0;
    while let Some(&v) = queue.get(head) {
        head += 1;
        for &u in g.neighbors(v) {
            if dist[u as usize] == u32::MAX {
                dist[u as usize] = dist[v as usize] + 1;
                queue.push(u);
            }
        }
    }
    (dist[dst as usize] != u32::MAX).then_some(dist[dst as usize])
}

/// Opens the network on `inst` and drives the traffic, with flow and
/// kill picks drawn from `rng`; writes a summary to `out` and applies the
/// gates. Packet, kill and refresh counts in the row cover the timed
/// waves, `timed_waves` of them.
pub fn run(
    inst: &Instance,
    p: &DpParams,
    rng: &mut impl Rng,
    out: &mut dyn Write,
) -> Result<Row, Error> {
    let n = inst.n();
    let t = Instant::now();
    let (bounds, radius) = (inst.bounds, inst.radius);
    let net = ChurnNet::open(p.spec, bounds, radius, &inst.points, &inst.energy, &p.cfg)?;
    let open_ns = t.elapsed().as_nanos() as f64;
    let mut tr = Traffic {
        net,
        dp: Dataplane::new(),
        flows: Vec::with_capacity(p.flows),
        protected: vec![false; n],
        probe: Vec::new(),
        kills: 0,
        reroutes: 0,
        reroute_ns: 0.0,
        trees: (0, 0),
        floods: [(0, 0); 2],
    };
    tr.dp.install_tables(tr.net.gateway(), tr.net.alive());
    while tr.flows.len() < p.flows {
        let (src, dst) = (rng.random_range(0..n as u32), rng.random_range(0..n as u32));
        if src == dst || tr.route(src, dst).is_err() {
            continue; // self-flow, disconnected or undominated pick: redraw
        }
        tr.protected[src as usize] = true;
        tr.protected[dst as usize] = true;
        tr.flows.push((tr.dp.add_flow(src, dst), src, dst));
    }
    writeln!(
        out,
        "dataplane: {} — {} gateways, {} flows x {} packets x {} waves",
        inst.label(&p.cfg),
        tr.net.gateway_count(),
        p.flows,
        p.packets,
        p.waves
    )?;

    // Warm wave: resolve every flow's route, grow every retained buffer.
    tr.wave(None, 1, (false, false))?;
    let warm = tr.dp.stats();
    if warm.delivered != p.flows as u64 {
        return Err("the warm wave did not deliver fully".into());
    }
    let t = Instant::now();
    let mut timed_waves = 0;
    while timed_waves < p.waves || (p.waves > 0 && t.elapsed().as_secs_f64() < MIN_TIMED_S) {
        timed_waves += 1;
        let wave = timed_waves;
        let kill =
            p.kill_every > 0 && wave > 1 && wave <= p.waves && (wave - 1) % p.kill_every == 0;
        let (alive, gateway) = (tr.net.alive(), tr.net.gateway());
        let live_gateway = |&v: &NodeId| {
            let v = v as usize;
            alive[v] && gateway[v] && !tr.protected[v]
        };
        let victim = match kill {
            true => (0..10 * n)
                .map(|_| rng.random_range(0..n as u32))
                .find(live_gateway),
            false => None,
        };
        if let Some(r) = tr.wave(victim, p.packets, p.broadcast)? {
            writeln!(
                out,
                "wave {wave:>3}: {} packets NACKed on stale routes, redelivered after refresh \
                 ({} gateways)",
                r.requeued,
                tr.net.gateway_count()
            )?;
        }
    }
    let wall_s = t.elapsed().as_secs_f64();
    let end = tr.dp.stats();
    let injected = end.injected - warm.injected;
    let (delivered, dropped) = (end.delivered - warm.delivered, end.dropped - warm.dropped);
    let (nacked, retransmits) = (end.nacked - warm.nacked, end.retransmits - warm.retransmits);
    let hops = end.forwarded_hops - warm.forwarded_hops;
    let hops_per_s = hops as f64 / wall_s.max(1e-9);
    let parked = tr.dp.nacked_pending();
    let (trees, kills, reroutes) = (tr.trees(), tr.kills, tr.reroutes);
    let mean_reroute_ms = tr.reroute_ns / 1e6 / reroutes.max(1) as f64;
    let pairs = p.stretch_pairs.min(p.flows);
    let stretch = (pairs > 0).then(|| tr.stretch(pairs, out)).transpose()?;
    let drill = p.drill.then(|| tr.drill(p.packets, out)).transpose()?;
    let misroutes = tr.dp.stats().misroutes;
    let [(blind, reached), (gateway, _)] = tr.floods;
    let reduction = match (blind, gateway) {
        (0, _) | (_, 0) => f64::NAN,
        (b, g) => 1.0 - g as f64 / b as f64,
    };
    writeln!(
        out,
        "totals: {injected} injected, {delivered} delivered, {dropped} dropped, {nacked} NACKed \
         ({retransmits} retransmits), {hops} hops in {wall_s:.3}s ({hops_per_s:.0} hops/s), \
         {misroutes} misroutes"
    )?;
    if kills > 0 {
        writeln!(
            out,
            "churn: {kills} gateway kills, {reroutes} refreshes, mean reroute \
             {mean_reroute_ms:.1} ms; destination trees: {} built in full, {} repaired",
            trees.0, trees.1
        )?;
    }
    if !reduction.is_nan() {
        let pct = 100.0 * reduction;
        writeln!(
            out,
            "broadcast: {blind} blind vs {gateway} gateway transmissions ({pct:.1}% reduction)"
        )?;
    }

    let mut errors = Vec::new();
    if p.waves > 0 && hops_per_s < p.min_hops_per_s {
        errors.push(format!(
            "{hops_per_s:.0} hops/s is below the {} gate",
            p.min_hops_per_s
        ));
    }
    // NaN (no flood compared) never trips.
    if reduction < p.min_flood_reduction {
        let min = p.min_flood_reduction;
        errors.push(format!(
            "flood reduction {reduction:.3} is below the {min} gate"
        ));
    }
    let unaccounted = (delivered + dropped).abs_diff(injected);
    for (count, what) in [
        (misroutes, "misrouted into dead nodes"),
        (dropped, "terminally dropped"),
        (parked as u64, "still parked for retransmission at exit"),
        (unaccounted, "unaccounted for"),
    ] {
        if p.fail_on_errors && count > 0 {
            errors.push(format!("{count} packets {what}"));
        }
    }
    if !errors.is_empty() {
        return Err(errors.join("; ").into());
    }
    // Without the drill, the tree counts cover every install of the run.
    let trees = Row::new()
        .with("trees_rebuilt", trees.0)
        .with("trees_repaired", trees.1);
    Ok(meta(inst, &p.cfg)
        .with("gateways", tr.net.gateway_count())
        .with("flows", p.flows)
        .with("packets_per_flow", p.packets)
        .with("packets_per_flow_per_wave", p.packets)
        .with("waves", p.waves)
        .with("timed_waves", timed_waves)
        .with("injected", injected)
        .with("delivered", delivered)
        .with("dropped", dropped)
        .with("nacked", nacked)
        .with("retransmits", retransmits)
        .with("forwarded_hops", hops)
        .fixed(
            "mean_hops_per_packet",
            hops as f64 / delivered.max(1) as f64,
            2,
        )
        .with("misroutes", misroutes)
        .fixed("open_ns", open_ns, 0)
        .fixed("forward_ns", wall_s * 1e9, 0)
        .with("wall_s", wall_s)
        .with("hops_per_s", hops_per_s)
        .fixed("delivered_per_s", delivered as f64 / wall_s.max(1e-9), 0)
        .with("kills", kills)
        .with("refreshes", reroutes)
        .with("blind_transmissions", blind)
        .with("gateway_transmissions", gateway)
        .with("flood_reached", reached)
        .with("flood_reduction", reduction)
        .extend(stretch.unwrap_or_default())
        .extend(drill.unwrap_or(trees)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacds_core::Policy;
    use rand::SeedableRng;

    fn traffic(p: DpParams) -> Result<Row, Error> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        run(
            &crate::tests::instance(3000, 30.0),
            &p,
            &mut rng,
            &mut std::io::sink(),
        )
    }

    /// The bench's shape at a small size.
    fn bench() -> DpParams {
        DpParams {
            spec: ShardSpec {
                threads: 1,
                ..ShardSpec::all_cores()
            },
            cfg: CdsConfig::policy(Policy::Degree),
            flows: 16,
            packets: 4,
            waves: 3,
            kill_every: 0,
            broadcast: (false, false),
            stretch_pairs: 8,
            drill: true,
            min_hops_per_s: 0.0,
            min_flood_reduction: 0.0,
            fail_on_errors: true,
        }
    }

    #[test]
    fn the_drill_and_a_kill_schedule_reroute_every_stranded_packet() {
        let row = traffic(bench()).unwrap();
        // 16 flows x 4 packets per timed wave, at least the 3 asked for.
        let waves = row.num("timed_waves");
        assert!(waves >= 3.0 && row.num("delivered") == 64.0 * waves);
        assert!(row.num("forward_ns") >= MIN_TIMED_S * 1e9);
        let json = row.json();
        assert!(json.contains("\"misroutes\":0,"));
        assert!(json.contains("\"kill_nacked\":") && json.contains("\"stretch_mean_ratio\":"));
        let p = DpParams {
            kill_every: 1,
            broadcast: (true, true),
            stretch_pairs: 0,
            drill: false,
            ..bench()
        };
        let json = traffic(p).unwrap().json();
        assert!(json.contains("\"kills\":2,") && !json.contains("\"kill_nacked\""));
    }

    #[test]
    fn the_rate_and_flood_gates_trip() {
        assert!(traffic(DpParams {
            min_hops_per_s: f64::INFINITY,
            ..bench()
        })
        .is_err());
        assert!(traffic(DpParams {
            min_flood_reduction: 1.0,
            ..bench()
        })
        .is_err());
    }
}
