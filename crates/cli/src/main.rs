//! `pacds` — command-line interface to the PACDS workspace.
//!
//! ```text
//! pacds gen        generate a unit-disk topology (edge list / DOT / JSON)
//! pacds cds        compute the gateway set of a topology under a policy
//! pacds route      route a packet with the 3-step procedure
//! pacds simulate   run a network-lifetime simulation
//! pacds compare    compare all policies on one network
//! pacds obs-report run instrumented and print the phase/counter breakdown
//! pacds shard      compute a large unit-disk CDS on the sharded engine
//! pacds churn      replay a churn workload through the incremental engine
//! pacds dataplane  drive packet traffic over the backbone forwarding engine
//! pacds serve      run the TCP query service (binary protocol + cache)
//! pacds loadgen    drive load at a server; throughput + latency report
//! pacds cluster    front several servers with a consistent-hash coordinator
//! ```
//!
//! Run `pacds help [command]` for options. Every command accepts
//! `--log-level <off|error|warn|info|debug|trace>` (or the `PACDS_LOG`
//! environment variable) for diagnostic logging on stderr.

mod args;
mod commands;

use args::Args;
use std::process::ExitCode;

/// Runs one subcommand under a log span so `--log-level debug` reports
/// entry, exit, and wall time for every entry point.
fn dispatch(name: &'static str, f: impl FnOnce() -> commands::CliResult) -> commands::CliResult {
    let _span = pacds_obs::log::span(name);
    f()
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Environment first, then the flag, so `--log-level` wins.
    pacds_obs::log::init_from_env();
    if let Some(raw) = args.get("log-level") {
        match pacds_obs::log::parse_level(raw) {
            Some(l) => pacds_obs::log::set_level(l),
            None => {
                eprintln!(
                    "error: --log-level: unknown level '{raw}' \
                     (off|error|warn|info|debug|trace)"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let command = args.command.clone().unwrap_or_else(|| "help".to_string());
    let result = match command.as_str() {
        "gen" => dispatch("cli.gen", || commands::gen(&args)),
        "cds" => dispatch("cli.cds", || commands::cds(&args)),
        "route" => dispatch("cli.route", || commands::route(&args)),
        "simulate" => dispatch("cli.simulate", || commands::simulate(&args)),
        "compare" => dispatch("cli.compare", || commands::compare(&args)),
        "trace" => dispatch("cli.trace", || commands::trace(&args)),
        "watch" => dispatch("cli.watch", || commands::watch(&args)),
        "robustness" => dispatch("cli.robustness", || commands::robustness(&args)),
        "explain" => dispatch("cli.explain", || commands::explain(&args)),
        "run" => dispatch("cli.run", || commands::run_scenario(&args)),
        "scenario-template" => dispatch("cli.scenario-template", || {
            commands::scenario_template(&args)
        }),
        "obs-report" => dispatch("cli.obs-report", || commands::obs_report(&args)),
        "shard" => dispatch("cli.shard", || commands::shard(&args)),
        "churn" => dispatch("cli.churn", || commands::churn(&args)),
        "dataplane" => dispatch("cli.dataplane", || commands::dataplane(&args)),
        "serve" => dispatch("cli.serve", || commands::serve(&args)),
        "loadgen" => dispatch("cli.loadgen", || commands::loadgen(&args)),
        "cluster" => dispatch("cli.cluster", || commands::cluster(&args)),
        "help" | "--help" | "-h" => {
            print!("{}", commands::HELP);
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{}", commands::HELP).into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
