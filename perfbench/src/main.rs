//! `perfbench`: the verdict server's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload json_single --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Every workload runs an in-process `VerdictServer` over loopback and
//! drives it from one open-loop generator thread. `--trace 0` prints the
//! end-to-end metrics, `--trace 1` the per-layer ones from a traced run;
//! `--smoke` runs a short version of every workload and checks that each
//! metric is emitted with its unit and that nothing failed. The last line
//! of standard output is the result as one JSON object.

mod gen;
mod plan;
mod stats;
mod trace;
mod work;

use std::process::ExitCode;
use work::Kind;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 12.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return if plan::smoke(args.seed) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(kind) = args.workload.as_deref().and_then(Kind::parse) else {
        eprintln!(
            "perfbench: --workload must be one of {}",
            Kind::ALL.join(", ")
        );
        return ExitCode::from(2);
    };
    let result = if args.trace {
        trace::run(kind, args.seed, args.seconds, false)
    } else {
        plan::run(kind, args.seed, args.seconds, false)
    };
    println!("{}", result.info);
    println!("{}", result.render());
    ExitCode::SUCCESS
}
