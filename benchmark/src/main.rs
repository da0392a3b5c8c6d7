//! The one performance ledger of the JavaSplit reproduction.
//!
//! ```text
//! benchmark/run.sh [--seed 42] [--reps 7] [--smoke] [--selfcheck]   all workloads, one process
//! benchmark/run.sh --workload W --seed N --seconds S --trace 0|1    one workload (the driver's call)
//! benchmark/run.sh --manifest                                        print BENCHMARK.json
//! ```
//!
//! See `benchmark/README.md` for the metric glossary and the method.

mod host;
mod json;
mod kernels;
mod ledger;
mod probes;
mod run;
mod single;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;
use suite::SuiteArgs;

#[derive(Debug, PartialEq)]
enum Mode {
    /// A sockets-backend node: the coordinator re-executes this binary
    /// with `worker …` once per node.
    Worker(Vec<String>),
    Single {
        workload: String,
        seed: u64,
        seconds: u64,
        trace: bool,
    },
    Suite(SuiteArgs),
    Manifest,
}

/// `worker` is recognised before anything else is looked at: a worker's
/// remaining arguments belong to `jsplit_runtime::sockets::worker_main`,
/// and a node that fell into benchmark mode would recurse.
fn parse_mode(args: &[String]) -> Result<Mode, String> {
    if args.first().map(String::as_str) == Some("worker") {
        return Ok(Mode::Worker(args[1..].to_vec()));
    }
    let mut workload = None;
    let mut seconds = None;
    let mut trace = None;
    let mut seed = None;
    let mut reps = None;
    let (mut smoke, mut selfcheck, mut manifest) = (false, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut number = |what: &str| -> Result<u64, String> {
            let v = it.next().ok_or(format!("{what} needs a value"))?;
            v.parse()
                .map_err(|_| format!("{what} needs a whole number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(it.next().ok_or("--workload needs a name")?.clone()),
            // Any whole number is a seed; a negative one wraps.
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = Some(
                    v.parse::<u64>()
                        .or_else(|_| v.parse::<i64>().map(|x| x as u64))
                        .map_err(|_| format!("--seed needs a whole number, got {v:?}"))?,
                );
            }
            "--seconds" => seconds = Some(number("--seconds")?),
            "--trace" => trace = Some(number("--trace")?),
            "--reps" => reps = Some(number("--reps")?),
            "--smoke" => smoke = true,
            "--selfcheck" => selfcheck = true,
            "--manifest" => manifest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if manifest {
        return Ok(Mode::Manifest);
    }
    if let Some(workload) = workload {
        let trace = match trace {
            Some(0) | None => false,
            Some(1) => true,
            Some(n) => return Err(format!("--trace is 0 or 1, got {n}")),
        };
        let seconds = seconds.unwrap_or(ledger::RUN_SECONDS);
        if !(1..=60).contains(&seconds) {
            return Err(format!("--seconds is 1 to 60, got {seconds}"));
        }
        return Ok(Mode::Single {
            workload,
            seed: seed.unwrap_or(42),
            seconds,
            trace,
        });
    }
    if seconds.is_some() || trace.is_some() {
        return Err("--seconds and --trace go with --workload".into());
    }
    // Fewer than five timed repetitions cannot carry quartiles; `--smoke`
    // checks the plumbing, not the numbers, and runs two.
    let reps = reps.unwrap_or(if smoke { 2 } else { 7 }) as usize;
    if !smoke && reps < 5 {
        return Err(format!("--reps is at least 5, got {reps}"));
    }
    Ok(Mode::Suite(SuiteArgs {
        seed: seed.unwrap_or(42),
        reps: reps.max(1),
        smoke,
        selfcheck,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_mode(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("jsplit-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match mode {
        Mode::Worker(rest) => jsplit_runtime::sockets::worker_main(&rest)
            .map(|()| true)
            .map_err(|e| format!("worker: {e}")),
        Mode::Manifest => {
            print!("{}", ledger::manifest().pretty());
            Ok(true)
        }
        Mode::Single {
            workload,
            seed,
            seconds,
            trace,
        } => match workloads::find(&workload) {
            // A printed result carries its own verdict (`correct`), so the
            // exit code only says whether there is a result.
            Some(w) => single::run(w, seed, seconds, trace).map(|()| true),
            None => Err(format!(
                "unknown workload {workload:?}; known: {}",
                workloads::WORKLOADS.map(|w| w.name).join(", ")
            )),
        },
        Mode::Suite(args) => suite::run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("jsplit-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn worker_dispatch_comes_before_any_other_parsing() {
        // Arguments that would be errors in every other mode pass through
        // untouched.
        let m = parse_mode(&args(
            "worker --connect 127.0.0.1:9 --node-id 1 --workload nope --bogus",
        ))
        .unwrap();
        assert_eq!(
            m,
            Mode::Worker(args(
                "--connect 127.0.0.1:9 --node-id 1 --workload nope --bogus"
            ))
        );
        // Only in first position.
        assert!(parse_mode(&args("--smoke worker")).is_err());
    }

    #[test]
    fn the_drivers_call_parses() {
        let m = parse_mode(&args("--workload bulk-sim8 --seed 7 --seconds 8 --trace 1")).unwrap();
        assert_eq!(
            m,
            Mode::Single {
                workload: "bulk-sim8".into(),
                seed: 7,
                seconds: 8,
                trace: true
            }
        );
        assert!(parse_mode(&args("--workload bulk-sim8 --trace 2")).is_err());
        assert!(parse_mode(&args("--workload bulk-sim8 --seconds 0")).is_err());
        assert!(parse_mode(&args("--seconds 5")).is_err());
        let m = parse_mode(&args("--workload bulk-sim8 --seed -1")).unwrap();
        assert_eq!(
            m,
            Mode::Single {
                workload: "bulk-sim8".into(),
                seed: u64::MAX,
                seconds: ledger::RUN_SECONDS,
                trace: false
            }
        );
    }

    #[test]
    fn suite_defaults_and_limits() {
        assert_eq!(
            parse_mode(&[]).unwrap(),
            Mode::Suite(SuiteArgs {
                seed: 42,
                reps: 7,
                smoke: false,
                selfcheck: false
            })
        );
        assert_eq!(
            parse_mode(&args("--smoke --selfcheck --seed 3")).unwrap(),
            Mode::Suite(SuiteArgs {
                seed: 3,
                reps: 2,
                smoke: true,
                selfcheck: true
            })
        );
        assert!(
            parse_mode(&args("--reps 4")).is_err(),
            "never below five repetitions"
        );
        assert!(parse_mode(&args("--reps x")).is_err());
    }
}
