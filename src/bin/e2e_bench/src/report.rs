//! Printing and files: the result line the harness reads, the per-run
//! detail, `results.json` with its `env` block, and `trace.jsonl`.

use crate::json::{self, Json};
use crate::metrics;
use crate::trace;
use crate::workloads::{self, Config, Outcome};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `--list`: everything the benchmark declares.
pub fn print_declared() {
    println!("workloads");
    for w in &metrics::WORKLOADS {
        println!("  {:<18} {}", w.name, w.why);
    }
    println!("end-to-end metrics (every workload; --trace 0)");
    for m in &metrics::END_TO_END {
        println!(
            "  {:<14} {:<5} {:<6} may worsen by {:>3.0} %  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    println!("per-layer metrics (--trace 1; 0 = not exercised by the workload)");
    for m in &metrics::PER_LAYER {
        println!(
            "  {:<40} {:<7} {:<6} {:<5} -> {}",
            m.name,
            m.unit,
            m.better.as_str(),
            if m.exact { "exact" } else { "" },
            m.moves
        );
    }
}

/// The metrics of one run, by name, with unit and spread.
fn metrics_json(out: &Outcome, trace: bool) -> Json {
    let fields = if trace {
        out.per_layer
            .iter()
            .map(|(&name, &value)| {
                let unit = metrics::layer(name).map_or("", |m| m.unit);
                (
                    name.to_string(),
                    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect()
    } else {
        out.end_to_end
            .iter()
            .map(|m| {
                let unit = metrics::end_to_end(m.name).map_or("", |d| d.unit);
                let s = &m.summary;
                (
                    m.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(unit)),
                        ("n", Json::Num(s.n as f64)),
                        ("min", Json::Num(s.min)),
                        ("q1", Json::Num(s.q1)),
                        ("median", Json::Num(s.median)),
                        ("q3", Json::Num(s.q3)),
                        ("max", Json::Num(s.max)),
                    ]),
                )
            })
            .collect()
    };
    Json::Obj(fields)
}

/// The last line of standard output: exactly the four keys, each metric
/// exactly `{value, unit}`.
fn result_line(out: &Outcome, trace: bool) -> Json {
    let metric = |name: &str, value: f64, unit: &str| {
        (
            name.to_string(),
            Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    };
    let metrics = if trace {
        out.per_layer
            .iter()
            .map(|(&name, &value)| metric(name, value, metrics::layer(name).map_or("", |m| m.unit)))
            .collect()
    } else {
        out.end_to_end
            .iter()
            .map(|m| {
                metric(
                    m.name,
                    m.value,
                    metrics::end_to_end(m.name).map_or("", |d| d.unit),
                )
            })
            .collect()
    };
    Json::obj(vec![
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn detail_json(workload: &str, cfg: &Config, pinned: bool, out: &Outcome) -> Json {
    Json::obj(vec![
        ("workload", Json::str(workload)),
        ("trace", Json::Num(f64::from(u8::from(cfg.trace)))),
        ("pinned_to_one_cpu", Json::Bool(pinned)),
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("result_digest", Json::str(&hex(&out.digest))),
        (
            "problems",
            Json::Arr(out.problems.iter().map(|p| Json::str(p)).collect()),
        ),
        ("metrics", metrics_json(out, cfg.trace)),
    ])
}

fn detail_path(dir: &Path, workload: &str, trace: bool) -> std::path::PathBuf {
    dir.join(format!("{workload}.trace{}.json", u8::from(trace)))
}

fn trace_part_path(dir: &Path, workload: &str) -> std::path::PathBuf {
    dir.join(format!("{workload}.trace.jsonl"))
}

/// Runs one workload in this process, prints every metric and the
/// result line, and (with `--out`) writes the detail and the spans.
pub fn run_one(workload: &str, cfg: &Config, out_dir: Option<&Path>) -> ExitCode {
    // Before anything runs: see `affinity.rs` for why.
    let pinned = crate::affinity::pin_to_one_cpu();
    let Some(out) = workloads::run(workload, cfg) else {
        eprintln!(
            "e2e_bench: unknown workload {workload}; one of {}",
            metrics::WORKLOADS.map(|w| w.name).join(", ")
        );
        return ExitCode::from(2);
    };
    println!(
        "workload {workload}  seed {}  seconds {}  trace {}  {}{}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        if pinned {
            "pinned to one CPU"
        } else {
            "NOT pinned (sched_setaffinity refused)"
        },
        if cfg.quick { "  (quick: 1/8 size)" } else { "" }
    );
    if cfg.trace {
        for (name, value) in &out.per_layer {
            let unit = metrics::layer(name).map_or("", |m| m.unit);
            println!("  {name:<40} {value:>16.4} {unit}");
        }
        println!("  span self time (span minus its children), ms:");
        for (name, (count, total_ns, self_ns)) in trace::self_times(&out.spans) {
            println!(
                "    {name:<38} n={count:<6} total {:>10.3}  self {:>10.3}",
                total_ns as f64 / 1e6,
                self_ns as f64 / 1e6
            );
        }
    } else {
        for m in &out.end_to_end {
            let unit = metrics::end_to_end(m.name).map_or("", |d| d.unit);
            let s = &m.summary;
            println!(
                "  {:<14} {:>14.4} {:<4} n={} q1={:.4} q3={:.4} min={:.4}",
                m.name, m.value, unit, s.n, s.q1, s.q3, s.min
            );
        }
    }
    println!(
        "  attempted {}  failed {}  result_digest {}",
        out.attempted,
        out.failed,
        hex(&out.digest)
    );
    for p in &out.problems {
        println!("  CHECK FAILED: {p}");
    }
    if let Some(dir) = out_dir {
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| {
                std::fs::write(
                    detail_path(dir, workload, cfg.trace),
                    detail_json(workload, cfg, pinned, &out).to_pretty(),
                )
            })
            .and_then(|()| {
                if cfg.trace {
                    std::fs::write(
                        trace_part_path(dir, workload),
                        trace::to_jsonl(workload, &out.spans),
                    )
                } else {
                    Ok(())
                }
            });
        if let Err(e) = written {
            eprintln!("e2e_bench: cannot write under {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", result_line(&out, cfg.trace).to_line());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Where and how the numbers were taken. Absolute numbers only: the
/// benchmark never reports a speed-up ratio.
fn env_json(cfg: &Config) -> Json {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let nproc = read("/proc/cpuinfo")
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        (
            "available_parallelism_before_pinning",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "git_head",
            Json::str(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(&command_line("rustc", &["-V"]))),
        ("loadavg_at_start", Json::str(read("/proc/loadavg").trim())),
        ("seed", Json::str(&cfg.seed.to_string())),
        ("seconds", Json::Num(cfg.seconds)),
        ("quick", Json::Bool(cfg.quick)),
        ("min_iterations", Json::Num(cfg.min_repeats() as f64)),
        (
            "sizes",
            Json::Obj(
                cfg.sizes()
                    .pairs()
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(v as f64)))
                    .collect(),
            ),
        ),
    ])
}

/// Runs every workload, each in its own process (so `peak_rss_mb` is
/// per workload), untraced then traced; echoes the children's output
/// and writes `<out>/results.json` and `<out>/trace.jsonl`.
pub fn run_all(cfg: &Config, dir: &Path) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("e2e_bench: cannot find my own executable: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("e2e_bench: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let env = env_json(cfg);
    let mut all_correct = true;
    let mut workloads_json = Vec::new();
    let mut trace_lines = String::new();
    for w in &metrics::WORKLOADS {
        let mut merged = vec![];
        for trace in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--seed", &cfg.seed.to_string()])
                .args(["--seconds", &cfg.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(dir)
                .stdin(Stdio::null());
            if cfg.quick {
                cmd.arg("--quick");
            }
            // `status` inherits stdout/stderr and waits for the child.
            let ok = cmd.status().is_ok_and(|s| s.success());
            let detail = std::fs::read_to_string(detail_path(dir, w.name, trace))
                .ok()
                .and_then(|text| json::parse(&text).ok());
            all_correct &= ok && detail.is_some();
            let _ = std::fs::remove_file(detail_path(dir, w.name, trace));
            merged.push(detail.unwrap_or(Json::Null));
        }
        if let Ok(part) = std::fs::read_to_string(trace_part_path(dir, w.name)) {
            trace_lines.push_str(&part);
        }
        let _ = std::fs::remove_file(trace_part_path(dir, w.name));
        let (untraced, traced) = (&merged[0], &merged[1]);
        let both = |key: &str| -> Json {
            Json::Arr(vec![
                untraced.get(key).cloned().unwrap_or(Json::Null),
                traced.get(key).cloned().unwrap_or(Json::Null),
            ])
        };
        let correct = [untraced, traced]
            .iter()
            .all(|d| d.get("correct").and_then(Json::as_bool) == Some(true));
        workloads_json.push((
            w.name.to_string(),
            Json::obj(vec![
                ("correct", Json::Bool(correct)),
                ("pinned_to_one_cpu", both("pinned_to_one_cpu")),
                ("attempted", both("attempted")),
                ("failed", both("failed")),
                ("result_digest", both("result_digest")),
                ("problems", both("problems")),
                (
                    "end_to_end",
                    untraced.get("metrics").cloned().unwrap_or(Json::Null),
                ),
                (
                    "per_layer",
                    traced.get("metrics").cloned().unwrap_or(Json::Null),
                ),
            ]),
        ));
    }
    let results = Json::obj(vec![("env", env), ("workloads", Json::Obj(workloads_json))]);
    let written = std::fs::write(dir.join("results.json"), results.to_pretty())
        .and_then(|()| std::fs::write(dir.join("trace.jsonl"), trace_lines));
    if let Err(e) = written {
        eprintln!("e2e_bench: cannot write under {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    println!(
        "wrote {} and {}",
        dir.join("results.json").display(),
        dir.join("trace.jsonl").display()
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("e2e_bench: at least one workload failed its checks");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::summarize;
    use crate::workloads::Reported;

    fn sample_outcome() -> Outcome {
        let mut out = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for m in &metrics::END_TO_END {
            out.end_to_end.push(Reported {
                name: m.name,
                value: 1.25,
                summary: summarize(&[1.0, 1.25, 1.5]),
            });
        }
        for m in &metrics::PER_LAYER {
            out.per_layer.insert(m.name, 2.5);
        }
        out
    }

    #[test]
    fn result_line_has_exactly_the_contract_shape() {
        let out = sample_outcome();
        for trace in [false, true] {
            let line = result_line(&out, trace).to_line();
            assert!(!line.contains('\n'));
            let back = json::parse(&line).expect("own output parses");
            let keys: Vec<&str> = back
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(back.get("correct"), Some(&Json::Bool(true)));
            let emitted: Vec<&str> = back
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap()
                .iter()
                .map(|(k, m)| {
                    let fields: Vec<&str> = m
                        .as_obj()
                        .unwrap()
                        .iter()
                        .map(|(f, _)| f.as_str())
                        .collect();
                    assert_eq!(fields, ["value", "unit"], "{k}");
                    k.as_str()
                })
                .collect();
            let mut declared: Vec<&str> = if trace {
                metrics::PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                metrics::END_TO_END.iter().map(|m| m.name).collect()
            };
            let mut emitted_sorted = emitted.clone();
            emitted_sorted.sort_unstable();
            declared.sort_unstable();
            assert_eq!(
                emitted_sorted, declared,
                "nothing missing, nothing undeclared"
            );
        }
    }

    #[test]
    fn a_failed_check_shows_in_the_line_and_the_detail() {
        let mut out = sample_outcome();
        out.problems.push("heads differ".to_string());
        let cfg = Config {
            seed: 1,
            seconds: 1.0,
            trace: false,
            quick: true,
        };
        assert_eq!(
            result_line(&out, false).get("correct"),
            Some(&Json::Bool(false))
        );
        let detail = detail_json("mixed256", &cfg, true, &out);
        let back = json::parse(&detail.to_pretty()).unwrap();
        assert_eq!(back, detail);
        assert_eq!(
            back.get("problems")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(
            back.get("result_digest")
                .and_then(Json::as_str)
                .map(str::len),
            Some(64)
        );
    }
}
