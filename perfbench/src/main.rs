//! `utp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — every end-to-end metric untraced, every per-layer metric
//! traced. The line before it reports the host calibration kernel. Exits
//! 1 when any outcome was wrong and 2 on a usage error.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Duration;
use utp_perfbench::confirm::Confirm;
use utp_perfbench::fleet::Fleet;
use utp_perfbench::report::{render, END_TO_END, PER_LAYER};
use utp_perfbench::settle::Settle;
use utp_perfbench::{run_traced, run_untraced, span_path, Bench, Outcome, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run<B: Bench>(b: &B, a: &Args) -> Outcome {
    let seconds = Duration::from_secs(a.seconds);
    if a.trace {
        run_traced(b, a.seed, seconds, Some(span_path(&a.workload, a.seed)))
    } else {
        run_untraced(b, a.seed, seconds)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("utp-perfbench: {e}");
            eprintln!(
                "usage: utp-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "confirm_e2e" => run(&Confirm, &args),
        "settle_hot" => run(&Settle::HOT, &args),
        "settle_cold" => run(&Settle::COLD, &args),
        _ => run(&Fleet, &args),
    };
    for v in &outcome.violations {
        eprintln!("utp-perfbench: {}: {v}", args.workload);
    }
    let [before, after] = outcome.calib_us;
    println!("host.calib_us before={before:.1} after={after:.1}");
    let specs = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{}",
        render(
            outcome.correct(),
            outcome.attempted,
            outcome.failed,
            specs,
            &outcome.metrics
        )
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
