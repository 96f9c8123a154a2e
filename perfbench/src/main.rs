//! `pacds-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

use pacds_perfbench::{run_workload, Opts};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 12.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => opts.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = run_workload(&workload, &opts)
        .and_then(|out| out.result_json(opts.trace).map(|json| (out, json)));
    match result {
        Ok((out, json)) => {
            println!(
                "{workload} (seed {}, trace {}):",
                opts.seed,
                u8::from(opts.trace)
            );
            for line in &out.notes {
                println!("{line}");
            }
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
