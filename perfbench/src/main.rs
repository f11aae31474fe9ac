//! `hwm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a summary of every metric measured, then, as the last line of
//! standard output, one JSON object with the verdict and the metrics
//! `BENCHMARK.json` lists (end-to-end, or per-layer with `--trace 1`).

use hwm_perfbench::report::{END_TO_END, PER_LAYER};
use hwm_perfbench::Opts;
use std::process::ExitCode;

fn parse() -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts::new(1, 10.0, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("hwm-perfbench: {e}");
            eprintln!(
                "usage: hwm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    hwm_perfbench::util::pin_to_one_cpu();
    match hwm_perfbench::run(&workload, &opts) {
        Ok(report) => {
            print!("{}", report.summary());
            let names = if opts.trace { PER_LAYER } else { END_TO_END };
            println!("{}", report.json_line(names));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hwm-perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
