//! Self-tests of the benchmark: its checkers catch corrupted answers, its
//! derived metrics stay non-negative, its tails rest on at least ten
//! samples, its traced trials cover the untraced trials' mix, and its
//! metric registry matches `BENCHMARK.json`.

use pacds_core::CdsWorkspace;
use pacds_graph::VertexMask;
use pacds_perfbench::metrics::{Outcome, END_TO_END, PER_LAYER};
use pacds_perfbench::stats::{beyond, tail, tail_quantile, TAIL_MIN_BEYOND};
use pacds_perfbench::trace::Tracer;
use pacds_perfbench::{churn, paper, run_workload, wire, Opts};
use pacds_serve::protocol::{self, LEN_PREFIX};
use pacds_serve::{handle_payload, ServeState, WorkerScratch};
use pacds_sim::NetworkState;
use std::time::{Duration, Instant};

/// A `CdsResult` reply from the in-process handler for a warm-sized
/// topology, with the workspace run it must equal.
fn handler_reply() -> (Vec<u8>, CdsWorkspace) {
    let inp = wire::inputs(3);
    let cfg = pacds_core::CdsConfig::policy(pacds_core::Policy::EnergyDegree);
    let mut frame = Vec::new();
    protocol::encode_compute_cds(
        &mut frame,
        0,
        0,
        &cfg,
        wire::WARM_N as u32,
        &inp.warm_edges,
        Some(&inp.warm_energy),
    );
    let (state, mut scratch, mut resp) =
        (ServeState::new(1 << 20), WorkerScratch::new(), Vec::new());
    handle_payload(
        &state,
        &mut scratch,
        &frame[LEN_PREFIX..],
        &mut resp,
        Instant::now(),
    );
    let g = pacds_graph::Graph::from_edges(wire::WARM_N, &inp.warm_edges);
    let mut ws = CdsWorkspace::new();
    ws.compute(&g, Some(&inp.warm_energy), &cfg);
    (resp[LEN_PREFIX..].to_vec(), ws)
}

#[test]
fn corrupted_cds_reply_is_a_failure() {
    let (reply, ws) = handler_reply();
    assert!(wire::cds_reply_matches(&reply, &ws, false));
    let mask_start = reply.len() - wire::WARM_N.div_ceil(8);
    let mut corrupted = reply.clone();
    corrupted[mask_start] ^= 1;
    assert!(!wire::cds_reply_matches(&corrupted, &ws, false));

    // A warm reply is the first reply with the cache-hit flag set.
    let mut warm = reply.clone();
    warm[protocol::CACHE_FLAG_PAYLOAD_OFFSET] = 1;
    assert!(wire::warm_reply_matches(&warm, &reply));
    let last = warm.len() - 1;
    warm[last] ^= 0x80;
    assert!(!wire::warm_reply_matches(&warm, &reply));

    let mut out = Outcome::default();
    out.check(wire::cds_reply_matches(&reply, &ws, false));
    out.check(wire::cds_reply_matches(&corrupted, &ws, false));
    assert_eq!((out.attempted, out.failed), (2, 1));
    for m in END_TO_END {
        out.set(m.name, 1.0);
    }
    assert!(out
        .result_json(false)
        .unwrap()
        .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
}

#[test]
fn cold_reply_matches_the_regenerated_topology() {
    let req = protocol::GenComputeRequest {
        flags: 0,
        deadline_ms: 0,
        cfg: pacds_core::CdsConfig::policy(pacds_core::Policy::EnergyDegree),
        n: 300,
        seed: 9,
        radius: 25.0,
        side: 170.0,
        connected: false,
        energy_seed: Some(4),
    };
    let mut frame = Vec::new();
    req.encode(&mut frame);
    let (state, mut scratch, mut resp) =
        (ServeState::new(1 << 20), WorkerScratch::new(), Vec::new());
    handle_payload(
        &state,
        &mut scratch,
        &frame[LEN_PREFIX..],
        &mut resp,
        Instant::now(),
    );
    let (_, ws) = wire::regenerate(&req);
    assert!(wire::cds_reply_matches(&resp[LEN_PREFIX..], &ws, false));
    let (_, other) = wire::regenerate(&protocol::GenComputeRequest { seed: 10, ..req });
    assert!(!wire::cds_reply_matches(&resp[LEN_PREFIX..], &other, false));
}

#[test]
fn corrupted_gateway_bit_is_a_failure() {
    // paper-lifetime: the reference pipeline rejects a flipped bit.
    let cfg = paper::config(3);
    let mut st = NetworkState::init(cfg, &mut paper::trial_rng(5, 3));
    let mut gw = VertexMask::new();
    st.compute_gateways_into(&mut gw);
    assert!(paper::pipeline_agrees(&st, &cfg.cds, &gw));
    gw[7] = !gw[7];
    assert!(!paper::pipeline_agrees(&st, &cfg.cds, &gw));

    // churn-reroute: a scratch solve that differs in one host is caught.
    let mut w = churn::build(5, 4000, 4).unwrap();
    let mut off = w.engine.off_mask();
    let solve = |w: &mut churn::World, off: &[bool]| {
        w.oracle
            .compute_unit_disk_masked(
                w.bounds,
                churn::RADIUS,
                w.engine.positions(),
                Some(off),
                Some(w.engine.energy()),
                &churn::cds_config(),
            )
            .unwrap();
    };
    solve(&mut w, &off);
    assert!(churn::same_solution(&w.engine, &w.oracle));
    let gateway = w.engine.gateways().iter().position(|&g| g).unwrap();
    off[gateway] = true;
    solve(&mut w, &off);
    assert!(!churn::same_solution(&w.engine, &w.oracle));
}

#[test]
fn reroute_adjacency_is_never_negative() {
    let mut w = churn::build(7, 20_000, 32).unwrap();
    let mut out = Outcome::default();
    let mut tr = Tracer::new(true);
    let f = churn::forward_pass(&mut w, Duration::ZERO, 3, &mut tr, &mut out);
    assert_eq!(out.failed, 0);
    assert!(f.adjacency_ms.len() >= 3);
    assert!(f.adjacency_ms.quantile(0.0) >= 0.0);
}

#[test]
fn wire_derived_metrics_are_never_negative() {
    for workload in ["wire-mixed", "wire-cluster"] {
        let out = run_workload(
            workload,
            &Opts {
                seed: 2,
                seconds: 1.0,
                trace: true,
            },
        )
        .unwrap();
        assert_eq!(out.failed, 0, "{workload}");
        assert!(
            out.get("serve.transport_us.warm").unwrap() >= 0.0,
            "{workload}"
        );
        assert!(out.get("serve.handle_us.warm").unwrap() > 0.0, "{workload}");
        if workload == "wire-cluster" {
            assert!(out.get("cluster.relay_us.warm").unwrap() >= 0.0);
        }
    }
}

#[test]
fn every_tail_has_ten_samples_beyond() {
    for floor in [paper::MIN_INTERVALS, churn::MIN_STEPS, wire::MIN_MUTATES] {
        assert!(
            beyond(floor, tail_quantile(floor)) >= TAIL_MIN_BEYOND,
            "floor {floor}"
        );
    }
    // A run stops only once its floor is reached, however short the run.
    let pass = paper::run_pass(
        1,
        Duration::ZERO,
        paper::MIN_INTERVALS,
        false,
        &mut Tracer::new(false),
    );
    let t = tail(&pass.interval_ms, paper::MIN_INTERVALS);
    assert!(t.samples >= paper::MIN_INTERVALS && t.beyond >= TAIL_MIN_BEYOND);
    assert_eq!(pass.failed, 0);
}

#[test]
fn traced_trials_cover_every_policy_and_model() {
    // A traced pass traces whole cycles and ends on a pair of them, so the
    // traced and untraced trials run the same policy × drain-model mix.
    let mut tr = Tracer::new(true);
    let pass = paper::run_pass(1, Duration::ZERO, 0, true, &mut tr);
    assert_eq!(pass.failed, 0);
    assert_eq!(tr.durations("sim", "trial", 1.0).len() as u64, paper::CYCLE);
    assert!(pass.by_trace.iter().all(|r| r.ops > 0));
}

#[test]
fn registry_matches_benchmark_json() {
    let json =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    let compact: String = json.split_whitespace().collect();
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\":\"{}\",\"unit\":\"{}\"", m.name, m.unit);
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        compact.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
    for w in pacds_perfbench::WORKLOADS {
        assert!(
            compact.contains(&format!("\"name\":\"{w}\"")),
            "BENCHMARK.json lacks {w}"
        );
    }
}

#[test]
fn inputs_depend_on_the_seed_alone() {
    let (a, b, c) = (wire::inputs(11), wire::inputs(11), wire::inputs(12));
    assert_eq!(a.warm_edges, b.warm_edges);
    assert_eq!(a.graph_points, b.graph_points);
    assert_ne!(a.graph_points, c.graph_points);
}
