//! Protocol overhead: messages and hello-payload entries per update
//! interval, as a function of network size — the cost side of the
//! marking process's locality story.

use pacds_bench::sweep_from_env;
use pacds_core::{CdsConfig, Policy};
use pacds_distributed::protocol_stats;
use pacds_geom::Rect;
use pacds_graph::gen;
use pacds_sim::montecarlo::run_trials;
use pacds_sim::Summary;

fn main() {
    let sweep = sweep_from_env();
    eprintln!(
        "protocol_overhead: sizes={:?} trials={}",
        sweep.sizes, sweep.trials
    );
    println!("# Marking-protocol overhead per update interval (paper arena)");
    println!(
        "{:>6} {:>12} {:>12} {:>16} {:>14}",
        "n", "hello msgs", "marker msgs", "payload entries", "msgs/host"
    );
    let cfg = CdsConfig::policy(Policy::Id);
    for &n in &sweep.sizes {
        let stats = run_trials(sweep.seed ^ n as u64, sweep.trials, |_, rng| {
            let bounds = Rect::paper_arena();
            let pts = pacds_geom::placement::uniform_points(rng, bounds, n);
            let g = gen::unit_disk(bounds, 25.0, &pts);
            let s = protocol_stats(&g, &cfg);
            (
                s.hello_messages as f64,
                s.marker_messages as f64,
                s.hello_payload_entries as f64,
            )
        });
        let hello = Summary::from_slice(&stats.iter().map(|s| s.0).collect::<Vec<_>>());
        let marker = Summary::from_slice(&stats.iter().map(|s| s.1).collect::<Vec<_>>());
        let payload = Summary::from_slice(&stats.iter().map(|s| s.2).collect::<Vec<_>>());
        println!(
            "{:>6} {:>12.1} {:>12.1} {:>16.1} {:>14.2}",
            n,
            hello.mean,
            marker.mean,
            payload.mean,
            (hello.mean + marker.mean) / n as f64
        );
    }
}
