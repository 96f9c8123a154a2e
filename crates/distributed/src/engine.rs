//! Protocol execution engines.
//!
//! [`run_distributed`] spawns one OS thread per host, connected by
//! `std::sync::mpsc` channels — a real concurrent actor system in which
//! the only information flow is explicit messages between radio
//! neighbours.
//! [`run_distributed_sequential`] runs the identical per-node code
//! round-robin on one thread (useful inside tight simulation loops and for
//! deterministic debugging).

use crate::node::{LocalView, NeighborInfo, NodeState};
use pacds_core::{CdsConfig, EnergyLevel, Policy, PruneSchedule, Rule2Semantics};
use pacds_graph::{Graph, NodeId, VertexMask};
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;

/// A protocol message between radio neighbours.
#[derive(Debug, Clone)]
enum Message {
    /// Round 1: neighbour set + energy level.
    Hello {
        from: NodeId,
        neighbors: Vec<NodeId>,
        energy: EnergyLevel,
    },
    /// Rounds 2–3: marker status after marking / after Rule 1. Tagged with
    /// the round number: a fast neighbour may send its round-3 marker
    /// before a slow one sends round-2, and both land in the same mailbox.
    Marker {
        from: NodeId,
        round: u8,
        marked: bool,
    },
}

fn effective_semantics(cfg: &CdsConfig) -> Rule2Semantics {
    match cfg.policy {
        Policy::Id => Rule2Semantics::MinOfThree,
        _ => cfg.rule2,
    }
}

/// Runs the full protocol with one thread per host.
///
/// `energy[v]` defaults to 0 for all hosts when `None` (only consulted by
/// the energy-aware policies).
///
/// # Panics
/// Panics if `cfg.schedule` is [`PruneSchedule::Fixpoint`]: fixpoint
/// iteration needs global termination detection, which the localized
/// protocol deliberately does not have.
pub fn run_distributed(g: &Graph, energy: Option<&[EnergyLevel]>, cfg: &CdsConfig) -> VertexMask {
    assert_eq!(
        cfg.schedule,
        PruneSchedule::SinglePass,
        "the distributed protocol runs the paper's single-pass schedule"
    );
    assert_eq!(
        cfg.application,
        pacds_core::Application::Simultaneous,
        "a sequential in-place sweep has no localized implementation: every \
         host would need to observe removals by all lower-priority hosts"
    );
    run_distributed_counted(g, energy, cfg).0
}

/// Like [`run_distributed`], additionally returning the total number of
/// messages the hosts actually sent (used to validate the analytic
/// [`crate::stats::protocol_stats`]).
pub fn run_distributed_counted(
    g: &Graph,
    energy: Option<&[EnergyLevel]>,
    cfg: &CdsConfig,
) -> (VertexMask, u64) {
    let n = g.n();
    pacds_obs::inc(pacds_obs::Counter::DistRuns);
    if n == 0 {
        return (Vec::new(), 0);
    }
    // Wire the mailboxes: one channel per host; every host gets the Senders
    // of its radio neighbours and nothing else.
    let mut senders: Vec<Sender<Message>> = Vec::with_capacity(n);
    let mut receivers: Vec<Option<Receiver<Message>>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel();
        senders.push(tx);
        receivers.push(Some(rx));
    }

    let cfg = *cfg;
    let sent = std::sync::atomic::AtomicU64::new(0);
    let results = Mutex::new(vec![false; n]);
    std::thread::scope(|scope| {
        for v in 0..n as NodeId {
            let inbox = receivers[v as usize].take().expect("receiver taken once");
            let outboxes: Vec<(NodeId, Sender<Message>)> = g
                .neighbors(v)
                .iter()
                .map(|&u| (u, senders[u as usize].clone()))
                .collect();
            let my_neighbors = g.neighbors(v).to_vec();
            let my_energy = energy.map_or(0, |e| e[v as usize]);
            let results = &results;
            let sent = &sent;
            scope.spawn(move || {
                let (marked, count) =
                    host_main(v, my_neighbors, my_energy, inbox, &outboxes, &cfg);
                sent.fetch_add(count, std::sync::atomic::Ordering::Relaxed);
                results.lock().expect("no host panics")[v as usize] = marked;
            });
        }
    });
    (
        results.into_inner().expect("no host panics"),
        sent.load(std::sync::atomic::Ordering::Relaxed),
    )
}

/// The per-host protocol body. Receives exactly `deg(v)` messages per
/// round, so rounds self-synchronise through the channels.
fn host_main(
    id: NodeId,
    neighbors: Vec<NodeId>,
    energy: EnergyLevel,
    inbox: Receiver<Message>,
    outboxes: &[(NodeId, Sender<Message>)],
    cfg: &CdsConfig,
) -> (bool, u64) {
    let deg = neighbors.len();
    let sent = std::cell::Cell::new(0u64);
    let broadcast = |msg: Message| {
        for (_, tx) in outboxes {
            // A send can only fail if the peer already finished — which
            // cannot happen before it has received all our messages.
            let _ = tx.send(msg.clone());
            sent.set(sent.get() + 1);
        }
    };

    // Round 1: hello.
    broadcast(Message::Hello {
        from: id,
        neighbors: neighbors.clone(),
        energy,
    });
    pacds_obs::add(pacds_obs::Counter::DistHelloMessages, deg as u64);
    // Early markers from fast neighbours (who finished their hello round
    // before we did) are stashed until their round is processed.
    let mut stash: Vec<Message> = Vec::new();
    let mut neighbor_info = HashMap::with_capacity(deg);
    let mut hellos = 0usize;
    while hellos < deg {
        match inbox.recv().expect("hello round") {
            Message::Hello {
                from,
                neighbors,
                energy,
            } => {
                neighbor_info.insert(from, NeighborInfo { neighbors, energy });
                hellos += 1;
            }
            marker @ Message::Marker { .. } => stash.push(marker),
        }
    }

    let view = LocalView {
        id,
        energy,
        neighbors,
        neighbor_info,
    };
    let mut state = NodeState::new(view);

    // Round 2: marking + marker exchange.
    state.marked = state.view.decide_marker();
    broadcast(Message::Marker {
        from: id,
        round: 2,
        marked: state.marked,
    });
    pacds_obs::add(pacds_obs::Counter::DistMarkerMessages, deg as u64);
    receive_markers(&inbox, deg, 2, &mut stash, &mut state);

    if !cfg.policy.prunes() {
        return (state.marked, sent.get());
    }

    // Round 3: Rule 1 on the snapshot, then exchange updated markers.
    let unmark1 = state.rule1_decides_unmark(cfg.policy);
    if unmark1 {
        state.marked = false;
    }
    broadcast(Message::Marker {
        from: id,
        round: 3,
        marked: state.marked,
    });
    pacds_obs::add(pacds_obs::Counter::DistMarkerMessages, deg as u64);
    receive_markers(&inbox, deg, 3, &mut stash, &mut state);

    // Round 4: Rule 2 on the post-Rule-1 markers. No further exchange is
    // needed: the decision is final for this update interval.
    if state.rule2_decides_unmark(cfg.policy, effective_semantics(cfg)) {
        state.marked = false;
    }
    (state.marked, sent.get())
}

/// Consumes exactly `deg` markers of round `want`, applying them to
/// `state`. Markers of *later* rounds that arrive early (per-sender FIFO
/// only orders messages from the same neighbour) are stashed and replayed
/// when their round comes up.
fn receive_markers(
    inbox: &Receiver<Message>,
    deg: usize,
    want: u8,
    stash: &mut Vec<Message>,
    state: &mut NodeState,
) {
    let mut got = 0usize;
    // Replay stashed messages for this round first.
    let mut i = 0;
    while i < stash.len() {
        if let Message::Marker { round, .. } = &stash[i] {
            if *round == want {
                if let Message::Marker { from, marked, .. } = stash.swap_remove(i) {
                    state.neighbor_marked.insert(from, marked);
                    got += 1;
                }
                continue;
            }
        }
        i += 1;
    }
    while got < deg {
        match inbox.recv().expect("marker round") {
            Message::Marker {
                from,
                round,
                marked,
            } => {
                if round == want {
                    state.neighbor_marked.insert(from, marked);
                    got += 1;
                } else {
                    debug_assert!(round > want, "a past round cannot reappear");
                    stash.push(Message::Marker {
                        from,
                        round,
                        marked,
                    });
                }
            }
            other => unreachable!("unexpected message in marker round: {other:?}"),
        }
    }
}

/// Runs the identical per-node logic deterministically on one thread.
///
/// Every host still only reads its own [`LocalView`] and its neighbours'
/// broadcast markers — the information flow is the same as
/// [`run_distributed`], just scheduled round-robin.
pub fn run_distributed_sequential(
    g: &Graph,
    energy: Option<&[EnergyLevel]>,
    cfg: &CdsConfig,
) -> VertexMask {
    assert_eq!(cfg.schedule, PruneSchedule::SinglePass);
    assert_eq!(cfg.application, pacds_core::Application::Simultaneous);
    let n = g.n();

    // Round 1 (hello): build each host's local view from its neighbours'
    // broadcasts.
    let mut states: Vec<NodeState> = (0..n as NodeId)
        .map(|v| {
            let mut neighbor_info = HashMap::new();
            for &u in g.neighbors(v) {
                neighbor_info.insert(
                    u,
                    NeighborInfo {
                        neighbors: g.neighbors(u).to_vec(),
                        energy: energy.map_or(0, |e| e[u as usize]),
                    },
                );
            }
            NodeState::new(LocalView {
                id: v,
                energy: energy.map_or(0, |e| e[v as usize]),
                neighbors: g.neighbors(v).to_vec(),
                neighbor_info,
            })
        })
        .collect();

    // Round 2: marking, then marker exchange.
    let markers: Vec<bool> = states.iter().map(|s| s.view.decide_marker()).collect();
    for (v, s) in states.iter_mut().enumerate() {
        s.marked = markers[v];
        for &u in g.neighbors(v as NodeId) {
            s.neighbor_marked.insert(u, markers[u as usize]);
        }
    }
    if !cfg.policy.prunes() {
        return markers;
    }

    // Round 3: Rule 1 (simultaneous), exchange.
    let after1: Vec<bool> = states
        .iter()
        .map(|s| s.marked && !s.rule1_decides_unmark(cfg.policy))
        .collect();
    for (v, s) in states.iter_mut().enumerate() {
        s.marked = after1[v];
        for &u in g.neighbors(v as NodeId) {
            s.neighbor_marked.insert(u, after1[u as usize]);
        }
    }

    // Round 4: Rule 2 (simultaneous).
    let semantics = effective_semantics(cfg);
    states
        .iter()
        .map(|s| s.marked && !s.rule2_decides_unmark(cfg.policy, semantics))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacds_core::{compute_cds, CdsInput};
    use pacds_graph::gen;
    use rand::SeedableRng;

    fn energies(n: usize, seed: u64) -> Vec<u64> {
        (0..n).map(|i| (seed.wrapping_mul(i as u64 + 1) >> 11) % 10).collect()
    }

    #[test]
    fn sequential_matches_centralized_on_random_graphs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for trial in 0..30 {
            let n = 5 + (trial % 40);
            let g = gen::connected_gnp(&mut rng, n, 0.15, 8);
            let e = energies(n, trial as u64);
            for policy in Policy::ALL {
                for cfg in [CdsConfig::policy(policy), CdsConfig::paper(policy)] {
                    let central = compute_cds(&CdsInput::with_energy(&g, &e), &cfg);
                    let dist = run_distributed_sequential(&g, Some(&e), &cfg);
                    assert_eq!(central, dist, "trial {trial} policy {policy:?}");
                }
            }
        }
    }

    #[test]
    fn threaded_matches_centralized() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for trial in 0..5 {
            let n = 20 + trial * 10;
            let g = gen::connected_gnp(&mut rng, n, 0.12, 8);
            let e = energies(n, trial as u64);
            for policy in [Policy::Id, Policy::Degree, Policy::Energy, Policy::EnergyDegree] {
                let cfg = CdsConfig::paper(policy);
                let central = compute_cds(&CdsInput::with_energy(&g, &e), &cfg);
                let dist = run_distributed(&g, Some(&e), &cfg);
                assert_eq!(central, dist, "trial {trial} policy {policy:?}");
            }
        }
    }

    #[test]
    fn threaded_handles_unit_disk_topologies() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let bounds = pacds_geom::Rect::paper_arena();
        let pts = pacds_geom::placement::uniform_points(&mut rng, bounds, 60);
        let g = gen::unit_disk(bounds, 25.0, &pts);
        let e = energies(g.n(), 5);
        let cfg = CdsConfig::paper(Policy::EnergyDegree);
        // Works on possibly-disconnected graphs too: the protocol is local.
        let central = compute_cds(&CdsInput::with_energy(&g, &e), &cfg);
        let dist = run_distributed(&g, Some(&e), &cfg);
        assert_eq!(central, dist);
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let cfg = CdsConfig::policy(Policy::Id);
        assert!(run_distributed(&Graph::new(0), None, &cfg).is_empty());
        assert_eq!(run_distributed(&Graph::new(1), None, &cfg), vec![false]);
        assert_eq!(
            run_distributed_sequential(&Graph::new(1), None, &cfg),
            vec![false]
        );
    }

    #[test]
    #[should_panic]
    fn fixpoint_schedule_is_rejected() {
        let g = gen::path(4);
        run_distributed(&g, None, &CdsConfig::fixpoint(Policy::Id));
    }
}
