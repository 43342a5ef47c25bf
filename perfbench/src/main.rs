//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cas_pool --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The lines
//! before it give every timing's median, tail percentile and sample count.
//! The exit code is non-zero when any output check failed.

use perfbench::{cas_pool, pool_reports, result_json, wire_clients, Budget, RunOptions};
use std::process::ExitCode;
use std::time::Duration;

/// Least set-up repetitions per untraced run (more run until
/// `perfbench::SETUP_MIN_SECS` passed); `setup_s` reports their median.
const SETUP_REPS: usize = 3;
/// Length of a measured phase when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`, the length its bounds were set on.
const DEFAULT_SECONDS: f64 = 25.0;

struct Args {
    workload: String,
    opts: RunOptions,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, DEFAULT_SECONDS, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        opts: RunOptions {
            seed,
            budget: Budget::Time(Duration::from_secs_f64(seconds)),
            trace,
            setup_reps: if trace { 1 } else { SETUP_REPS },
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "cas_pool" => cas_pool::run(&args.opts),
        "pool_reports" => pool_reports::run(&args.opts),
        "wire_clients" => wire_clients::run(&args.opts),
        other => Err(format!("unknown workload {other}")),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    println!("workload {} seed {}", args.workload, args.opts.seed);
    for note in &out.notes {
        println!("  {note}");
    }
    for failure in &out.failures {
        println!("  FAILED: {failure}");
    }
    let metrics = if args.opts.trace {
        match perfbench::all_per_layer(&out.per_layer) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        out.end_to_end.clone()
    };
    for m in &metrics {
        println!("  {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "  fail_ratio = {} ({} of {} operations)",
        perfbench::ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{}",
        result_json(correct, out.attempted, out.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
