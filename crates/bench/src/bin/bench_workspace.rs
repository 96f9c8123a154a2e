//! Records the workspace-reuse speedup as a committed JSON artifact.
//!
//! Times one Monte-Carlo interval (mobility step + topology rebuild + CDS
//! recomputation + verification) under the v0 allocate-per-call pipeline
//! ([`pacds_bench::seed_baseline`]: fresh Graph/bitmap/key/masks, full-word
//! coverage scans) and under the retained [`CdsWorkspace`] + in-place graph
//! rebuild hot path, at n in {100, 1000, 10000}, and writes `BENCH_workspace.json`
//! (override the path with `PACDS_BENCH_OUT`). Run with `--release`; the
//! acceptance target is a >= 2x speedup at n >= 1000.

use pacds_bench::row::{self, Row};
use pacds_bench::seed_baseline::compute_cds_seed;
use pacds_bench::{time_ns, Interval};
use pacds_core::{verify_cds, CdsConfig, CdsWorkspace, Policy};
use pacds_graph::{gen, Graph};
use std::hint::black_box;

const RADIUS: f64 = 25.0;

fn main() {
    let cfg = CdsConfig::policy(Policy::EnergyDegree);
    let iters_for = |n: usize| (200_000 / n).clamp(8, 400);
    let mut rows = Vec::new();

    for n in [100usize, 1000, 10000] {
        let iters = iters_for(n);

        let mut iv = Interval::new(n, 42);
        let alloc_ns = time_ns(5, iters, || {
            iv.step();
            let g = gen::unit_disk(iv.bounds, RADIUS, &iv.positions);
            let cds = compute_cds_seed(&g, Some(&iv.energy), &cfg);
            let _ = black_box(verify_cds(&g, &cds));
            black_box(cds);
        });

        let mut iv = Interval::new(n, 42);
        let mut csr = Graph::default();
        let mut scratch = gen::UnitDiskScratch::new();
        let mut ws = CdsWorkspace::with_capacity(n);
        let reuse_ns = time_ns(5, iters, || {
            iv.step();
            gen::unit_disk_csr(
                iv.bounds,
                RADIUS,
                &iv.positions,
                None,
                &mut csr,
                &mut scratch,
            );
            ws.compute(&csr, Some(&iv.energy), &cfg);
            let _ = black_box(ws.verify_last(&csr));
            black_box(ws.gateway_count());
        });

        let speedup = alloc_ns / reuse_ns;
        println!(
            "n={n:>6}  alloc {:>12.0} ns/interval  reuse {:>12.0} ns/interval  speedup {speedup:.2}x",
            alloc_ns, reuse_ns
        );
        rows.push(
            Row::new()
                .with("n", n)
                .with("iters", iters)
                .fixed("alloc_ns_per_interval", alloc_ns, 0)
                .fixed("reuse_ns_per_interval", reuse_ns, 0)
                .fixed("speedup", speedup, 3),
        );
    }

    let text = row::file(
        "workspace",
        "one Monte-Carlo interval: mobility step + topology rebuild + CDS (EnergyDegree, \
         single-pass) + verification; alloc = v0 passes (fresh CSR Graph, bitmap, key and \
         masks + full-word-scan passes; rows before the one-graph-type change also copied \
         the graph into adjacency lists), reuse = in-place graph rebuild + CdsWorkspace",
        "ns/interval",
        Row::new(),
        rows,
    );
    if let Err(e) = row::write(&pacds_bench::bench_out("BENCH_workspace.json"), &text) {
        eprintln!("warning: {e}");
    }
}
