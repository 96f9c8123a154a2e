//! Shrinking a panicking case stays quiet.
//!
//! The harness re-runs a failing case once per shrink candidate; a
//! panicking implementation must reach the panic hook once (its first run)
//! and keep its message in the case file, while the re-runs print nothing
//! and panics outside the shrinker still reach the previous hook. One test
//! in its own binary: the panic hook is process-wide.

use pacds_core::{CdsConfig, Policy};
use pacds_graph::gen;
use pacds_testkit::casefile::CaseFile;
use pacds_testkit::harness::{check_impl, run_impl_caught, ImplKind};
use pacds_testkit::oracle;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};

static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

#[test]
fn shrinking_a_panicking_case_reaches_the_hook_once() {
    // Count the panics that reach this hook, then print them as usual (so
    // a failing assertion below still shows its message).
    let default = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
        default(info);
    }));
    // The distributed protocol panics under sequential application, on
    // every graph, so every shrink candidate panics.
    let g = gen::cycle(9);
    let energy = vec![2u64; 9];
    let cfg = CdsConfig::sequential(Policy::Degree);
    let kind = ImplKind::DistributedFifo;
    let expected = oracle::compute_cds_oracle(&g, Some(&energy), &cfg);
    let path = check_impl("quiet-shrink", kind, &g, &energy, &cfg, &expected)
        .expect("a panic is a failing case");
    let file: CaseFile =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).expect("case file parses");
    std::fs::remove_file(&path).ok();
    assert!(file.n < g.n(), "the case shrank (n={})", file.n);
    assert!(file.panic.is_some_and(|m| !m.is_empty()));
    assert_eq!(HOOK_CALLS.load(Ordering::SeqCst), 1, "only the first run");

    // Outside the shrinker, panics reach the previous hook again, on this
    // thread and on others.
    run_impl_caught(kind, &g, Some(&energy), &cfg).expect_err("it panics");
    assert_eq!(HOOK_CALLS.load(Ordering::SeqCst), 2);
    std::thread::spawn(|| panic!("another thread"))
        .join()
        .expect_err("it panicked");
    assert_eq!(HOOK_CALLS.load(Ordering::SeqCst), 3);
}
