//! The optimizer's benchmark: one workload per process.
//!
//! ```text
//! mpq-perfbench --workload compile|serve|net --seed N --seconds S --trace 0|1
//! mpq-perfbench --faults
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
//! `--faults` lists the `compile` queries whose reference check fails.
//! See README.md for the workloads and what each metric should move.

mod calibrate;
mod compile;
mod net;
mod report;
mod serve;
mod traffic;

use std::process::ExitCode;

/// Command-line settings of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: mpq-perfbench --workload compile|serve|net --seed N --seconds S --trace 0|1\n       mpq-perfbench --faults";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        if flag == "--faults" {
            return Ok(None);
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => match value.as_str() {
                "compile" | "serve" | "net" => workload = Some(value.clone()),
                _ => return Err(bad("unknown workload")),
            },
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("not a whole number"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must lie in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("must be 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            compile::list_faults();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (tally, correct, metrics) = match args.workload.as_str() {
        "compile" => compile::run(&args),
        "serve" => serve::run(&args),
        _ => net::run(&args),
    };
    let names: &[(&str, &str)] = if args.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    report::print_result(&tally, correct, names, &metrics);
    ExitCode::SUCCESS
}
