//! `qcbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload, checks its outputs, prints a metric table and, as
//! the last line of standard output, one JSON object with the metrics.
//! Exits non-zero, printing no metrics, when a correctness check fails.

use std::process::ExitCode;

use qcbench::bench::{run_bench, Settings};
use qcbench::workload::Workload;

const USAGE: &str =
    "usage: qcbench --workload grid_rowa_failover|sharded_zipf_elastic|nested_banking \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<Settings, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Settings {
        workload,
        seed: seed.unwrap_or_else(|| workload.default_seed()),
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "qcbench: workload {} seed {} seconds {} trace {}",
        settings.workload.name(),
        settings.seed,
        settings.seconds,
        u8::from(settings.trace)
    );
    let result = run_bench(&settings).and_then(|r| Ok((r.table(), r.json()?)));
    match result {
        Ok((table, json)) => {
            print!("{table}");
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("qcbench: correctness check failed: {e}");
            ExitCode::FAILURE
        }
    }
}
