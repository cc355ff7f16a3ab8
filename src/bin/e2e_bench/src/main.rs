//! `e2e_bench`: one seeded ruler for the whole stack.
//!
//! ```text
//! e2e_bench --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--quick] [--out <dir>]
//! e2e_bench --seed <n> --out <dir> [--seconds <s>] [--quick]     every workload, each in its own process
//! e2e_bench --compare <dirA> <dirB>                              verdict per (metric, workload)
//! e2e_bench --list | --manifest                                  declared metrics | BENCHMARK.json
//! ```
//!
//! A single-workload run prints every metric by name with its unit and,
//! as the last line of standard output, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Any failed check makes the exit code non-zero. See `README.md`.

mod affinity;
mod compare;
mod drive;
mod gen;
mod json;
mod metrics;
mod report;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    list: bool,
    manifest: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a u64".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                // `--trace`, `--trace 0` and `--trace 1` are all accepted.
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--compare" => {
                let a = PathBuf::from(value("--compare")?);
                let b = PathBuf::from(value("--compare")?);
                parsed.compare = Some((a, b));
            }
            "--list" => parsed.list = true,
            "--manifest" => parsed.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", metrics::manifest().to_pretty());
        return ExitCode::SUCCESS;
    }
    if args.list {
        report::print_declared();
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b);
    }

    // Guards: the ruler measures the default executor of an optimised
    // build, nothing else.
    if std::env::var_os("SC_EXEC_MODE").is_some() {
        eprintln!("e2e_bench: SC_EXEC_MODE is set; unset it (the benchmark measures the default executor)");
        return ExitCode::from(2);
    }
    if cfg!(debug_assertions) && !args.quick {
        eprintln!("e2e_bench: this is a debug build; build with --release (or pass --quick for a smoke run)");
        return ExitCode::from(2);
    }
    let cfg = workloads::Config {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.quick {
            1.0
        } else {
            metrics::RUN_SECONDS as f64
        }),
        trace: args.trace,
        quick: args.quick,
    };
    match (&args.workload, &args.out) {
        (Some(workload), out) => report::run_one(workload, &cfg, out.as_deref()),
        (None, Some(out)) => report::run_all(&cfg, out),
        (None, None) => {
            eprintln!("e2e_bench: give --workload <name>, or --out <dir> to run every workload");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let a = args("--workload mixed256 --seed 7 --seconds 12 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("mixed256"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(12.0), false));
        assert!(args("--workload x --trace 1").unwrap().trace);
        assert!(args("--trace --quick").unwrap().trace);
        assert!(args("--trace --quick").unwrap().quick);
        let c = args("--compare a b").unwrap();
        assert_eq!(c.compare, Some((PathBuf::from("a"), PathBuf::from("b"))));
        for bad in [
            "--seed",
            "--seed x",
            "--seconds 0",
            "--seconds -1",
            "--bogus",
            "--compare a",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
