//! The protocol engine: per-host state machines driven by one message
//! scheduler.
//!
//! A host acts only when a message is delivered to it. Messages travel on
//! directed links between radio neighbours, each link a FIFO queue, so a
//! neighbour's messages arrive in the order it sent them. The
//! [`Schedule`] picks which link delivers next, one delivery at a time,
//! and the same schedule always replays the same delivery order.

use crate::node::{LocalView, NeighborInfo, NodeState};
use crate::stats::ProtocolStats;
use pacds_core::{Application, CdsConfig, EnergyLevel, PruneSchedule};
use pacds_graph::{Graph, NodeId, VertexMask};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};

/// The order in which pending messages are delivered. Under either one
/// every link stays FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Send order: every host completes a round before any host receives
    /// a message of the next one (lockstep rounds).
    Fifo,
    /// Each delivery is a seeded random pick among the pending messages.
    /// Host `seed % n`'s sends are held back until nothing else is
    /// pending, so hosts two hops from it run a round ahead of its
    /// neighbours and their markers arrive early.
    Shuffled(u64),
}

/// The outcome of one protocol execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    /// Each host's final marker: the gateway mask.
    pub gateways: VertexMask,
    /// The messages the hosts put on links.
    pub sent: ProtocolStats,
}

/// A protocol message; the link it travels on names the sender.
#[derive(Debug, Clone)]
enum Message {
    /// Round 1: the sender's neighbour set and energy level.
    Hello {
        neighbors: Vec<NodeId>,
        energy: EnergyLevel,
    },
    /// Rounds 2–3: the sender's marker after marking / after Rule 1,
    /// tagged with its round.
    Marker { round: u8, marked: bool },
}

/// The links, their queues and the delivery order.
struct Net {
    /// `(sender, receiver)` of each link; host `v` sends on links
    /// `out[v]..out[v + 1]`.
    ends: Vec<(NodeId, NodeId)>,
    out: Vec<usize>,
    queues: Vec<VecDeque<Message>>,
    /// One entry per message in flight, naming its link.
    pending: VecDeque<usize>,
    /// Entries of the held-back host's messages, released into `pending`
    /// once it empties.
    held: VecDeque<usize>,
    held_host: Option<NodeId>,
    /// Picks deliveries under [`Schedule::Shuffled`]; `None` is FIFO.
    rng: Option<StdRng>,
    hello: u64,
    marker: u64,
    payload: u64,
}

impl Net {
    fn new(g: &Graph, schedule: Schedule) -> Self {
        let mut ends = Vec::with_capacity(2 * g.m());
        let mut out = vec![0];
        for v in g.vertices() {
            ends.extend(g.neighbors(v).iter().map(|&u| (v, u)));
            out.push(ends.len());
        }
        let (rng, held_host) = match schedule {
            Schedule::Fifo => (None, None),
            Schedule::Shuffled(seed) => (
                Some(StdRng::seed_from_u64(seed)),
                seed.checked_rem(g.n() as u64).map(|h| h as NodeId),
            ),
        };
        Net {
            queues: ends.iter().map(|_| VecDeque::new()).collect(),
            ends,
            out,
            pending: VecDeque::new(),
            held: VecDeque::new(),
            held_host,
            rng,
            hello: 0,
            marker: 0,
            payload: 0,
        }
    }

    /// Puts `msg` on every link out of `from`, counting each send.
    fn broadcast(&mut self, from: NodeId, msg: Message) {
        for link in self.out[from as usize]..self.out[from as usize + 1] {
            match &msg {
                Message::Hello { neighbors, .. } => {
                    self.hello += 1;
                    self.payload += neighbors.len() as u64;
                    pacds_obs::inc(pacds_obs::Counter::DistHelloMessages);
                }
                Message::Marker { .. } => {
                    self.marker += 1;
                    pacds_obs::inc(pacds_obs::Counter::DistMarkerMessages);
                }
            }
            self.queues[link].push_back(msg.clone());
            if self.held_host == Some(from) {
                self.held.push_back(link);
            } else {
                self.pending.push_back(link);
            }
        }
    }

    /// Takes the next message off its link as `(sender, receiver,
    /// message)`, or `None` once no message is in flight.
    fn deliver(&mut self) -> Option<(NodeId, NodeId, Message)> {
        if self.pending.is_empty() {
            std::mem::swap(&mut self.pending, &mut self.held);
        }
        let pick = match &mut self.rng {
            Some(rng) if !self.pending.is_empty() => rng.random_range(0..self.pending.len()),
            _ => 0,
        };
        let link = self.pending.swap_remove_front(pick)?;
        let (from, to) = self.ends[link];
        let msg = self.queues[link]
            .pop_front()
            .expect("a pending entry names a link with a queued message");
        Some((from, to, msg))
    }
}

/// One host's protocol state machine.
struct Host {
    state: NodeState,
    /// The round whose messages the host collects: 1 (hellos), 2 and 3
    /// (markers); past the last round once it has decided.
    round: u8,
    /// Messages of `round` received so far.
    got: usize,
    /// Markers of round `round + 1` that arrived before this host
    /// completed `round`. Per-link FIFO lets none arrive earlier: a
    /// neighbour sends its next marker only after hearing this host's.
    early: Vec<(NodeId, bool)>,
}

impl Host {
    fn receive(&mut self, from: NodeId, msg: Message) {
        match msg {
            Message::Hello { neighbors, energy } => {
                let info = NeighborInfo { neighbors, energy };
                self.state.view.neighbor_info.insert(from, info);
                self.got += 1;
            }
            Message::Marker { round, marked } if round == self.round => {
                self.state.neighbor_marked.insert(from, marked);
                self.got += 1;
            }
            Message::Marker { round, marked } => {
                assert_eq!(round, self.round + 1, "a marker out of round");
                self.early.push((from, marked));
            }
        }
    }

    /// Acts on each round the host has all `deg(v)` messages of: decides,
    /// broadcasts its marker for the next round and takes that round's
    /// early markers.
    fn advance(&mut self, cfg: &CdsConfig, last: u8, net: &mut Net) {
        while self.round <= last && self.got == self.state.view.neighbors.len() {
            let s = &mut self.state;
            match self.round {
                1 => s.marked = s.view.decide_marker(),
                2 if last == 3 => s.marked &= !s.rule1_decides_unmark(cfg.policy),
                3 => s.marked &= !s.rule2_decides_unmark(cfg.policy, cfg.rule2_semantics()),
                _ => {}
            }
            self.round += 1;
            if self.round <= last {
                let marker = Message::Marker {
                    round: self.round,
                    marked: s.marked,
                };
                net.broadcast(s.view.id, marker);
            }
            self.got = self.early.len();
            for (from, marked) in self.early.drain(..) {
                s.neighbor_marked.insert(from, marked);
            }
        }
    }
}

/// Runs the localized protocol: every host exchanges hellos, then
/// markers after marking and, for pruning policies, after Rule 1, and
/// decides Rule 2 on the post-Rule-1 markers. No host reads the graph
/// beyond its own neighbour list.
///
/// `energy[v]` defaults to 0 for all hosts when `None` (only consulted by
/// the energy-aware policies).
///
/// # Panics
/// Panics unless `cfg` is the single-pass, simultaneous procedure:
/// fixpoint iteration needs global termination detection and a
/// sequential sweep needs every lower-priority host's removal, neither of
/// which a localized protocol has.
pub fn run_distributed(
    g: &Graph,
    energy: Option<&[EnergyLevel]>,
    cfg: &CdsConfig,
    schedule: Schedule,
) -> Run {
    assert_eq!(
        cfg.schedule,
        PruneSchedule::SinglePass,
        "the distributed protocol runs the paper's single-pass schedule"
    );
    assert_eq!(
        cfg.application,
        Application::Simultaneous,
        "a sequential in-place sweep has no localized implementation"
    );
    pacds_obs::inc(pacds_obs::Counter::DistRuns);
    let last = if cfg.policy.prunes() { 3 } else { 2 };
    let mut net = Net::new(g, schedule);
    let mut hosts: Vec<Host> = g
        .vertices()
        .map(|v| Host {
            state: NodeState::new(LocalView {
                id: v,
                energy: energy.map_or(0, |e| e[v as usize]),
                neighbors: g.neighbors(v).to_vec(),
                neighbor_info: HashMap::with_capacity(g.degree(v)),
            }),
            round: 1,
            got: 0,
            early: Vec::new(),
        })
        .collect();
    // Round 1: every host says hello; one without neighbours decides at
    // once.
    for host in &mut hosts {
        let view = &host.state.view;
        let hello = Message::Hello {
            neighbors: view.neighbors.clone(),
            energy: view.energy,
        };
        net.broadcast(view.id, hello);
        host.advance(cfg, last, &mut net);
    }
    while let Some((from, to, msg)) = net.deliver() {
        let host = &mut hosts[to as usize];
        host.receive(from, msg);
        host.advance(cfg, last, &mut net);
    }
    assert!(hosts.iter().all(|h| h.round > last), "a host stalled");
    Run {
        gateways: hosts.iter().map(|h| h.state.marked).collect(),
        sent: ProtocolStats::new(net.hello, net.marker, net.payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacds_core::{compute_cds, CdsInput, Policy};
    use pacds_graph::gen;

    const SCHEDULES: [Schedule; 3] = [Schedule::Fifo, Schedule::Shuffled(0), Schedule::Shuffled(9)];

    fn energies(n: usize, seed: u64) -> Vec<u64> {
        (0..n)
            .map(|i| (seed.wrapping_mul(i as u64 + 1) >> 11) % 10)
            .collect()
    }

    #[test]
    fn every_schedule_matches_centralized_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..30 {
            let n = 5 + (trial % 40);
            let g = gen::connected_gnp(&mut rng, n, 0.15, 8);
            let e = energies(n, trial as u64);
            for policy in Policy::ALL {
                for cfg in [CdsConfig::policy(policy), CdsConfig::paper(policy)] {
                    let central = compute_cds(&CdsInput::with_energy(&g, &e), &cfg);
                    for schedule in SCHEDULES {
                        let dist = run_distributed(&g, Some(&e), &cfg, schedule).gateways;
                        assert_eq!(central, dist, "trial {trial} {policy:?} {schedule:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn handles_disconnected_unit_disk_topologies() {
        let mut rng = StdRng::seed_from_u64(3);
        let bounds = pacds_geom::Rect::paper_arena();
        let pts = pacds_geom::placement::uniform_points(&mut rng, bounds, 60);
        let g = gen::unit_disk(bounds, 25.0, &pts);
        let e = energies(g.n(), 5);
        let cfg = CdsConfig::paper(Policy::EnergyDegree);
        // The protocol is local, so isolated hosts and separate
        // components need nothing special.
        let central = compute_cds(&CdsInput::with_energy(&g, &e), &cfg);
        for schedule in SCHEDULES {
            assert_eq!(
                central,
                run_distributed(&g, Some(&e), &cfg, schedule).gateways
            );
        }
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let cfg = CdsConfig::policy(Policy::Id);
        for schedule in SCHEDULES {
            let empty = run_distributed(&Graph::new(0), None, &cfg, schedule);
            assert!(empty.gateways.is_empty());
            assert_eq!(empty.sent, ProtocolStats::new(0, 0, 0));
            let one = run_distributed(&Graph::new(1), None, &cfg, schedule);
            assert_eq!(one.gateways, vec![false]);
        }
    }

    #[test]
    #[should_panic]
    fn fixpoint_schedule_is_rejected() {
        let g = gen::path(4);
        run_distributed(&g, None, &CdsConfig::fixpoint(Policy::Id), Schedule::Fifo);
    }
}
