//! `--compare <dirA> <dirB>`: one row per (metric, workload) with both
//! values, the quartiles of their repeats and a verdict.
//!
//! * end-to-end metrics are judged against the bound the benchmark
//!   fixes for them (`setup_s` also gets an absolute 0.05 s floor):
//!   `same`, `better`, `worse`, or `unresolved` when the repeats'
//!   inter-quartile spread is wider than the bound and the two runs
//!   overlap — a difference that cannot be told from noise is not
//!   reported as "unchanged";
//! * exact counts (gas, bytes, counts, the result digest) must be
//!   equal: any difference is `better` or `worse` by direction;
//! * per-layer timings carry no bound and are listed unjudged (`-`).
//!
//! The exit code is non-zero when any row is `worse` or `unresolved`.

use crate::json::{self, Json};
use crate::metrics::{self, Better};
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A run's value for one metric with the quartiles of its repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

/// Direction-aware relative worsening of `b` against `a` (positive =
/// worse).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == 0.0 {
            0.0
        } else if (b > 0.0) == (better == Better::Lower) {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Judges a timing metric. `floor` is an absolute tolerance in the
/// metric's unit, for metrics so small that a relative bound alone
/// would flag scheduler jitter.
pub fn judge_timing(better: Better, bound: f64, floor: f64, a: Stat, b: Stat) -> Verdict {
    let scale = a.value.abs().max(f64::MIN_POSITIVE);
    let tolerance = bound.max(floor / scale);
    let spread = |s: Stat| (s.q3 - s.q1) / s.value.abs().max(f64::MIN_POSITIVE);
    let wide = spread(a).max(spread(b)) > tolerance;
    let overlap = a.q1 <= b.q3 && b.q1 <= a.q3;
    let w = worsening(better, a.value, b.value);
    if wide && overlap {
        Verdict::Unresolved
    } else if w > tolerance {
        Verdict::Worse
    } else if w < -tolerance {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Judges an exact count: equal or not.
pub fn judge_exact(better: Better, a: f64, b: f64) -> Verdict {
    let w = worsening(better, a, b);
    if w == 0.0 {
        Verdict::Same
    } else if w > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    }
}

fn load(dir: &Path) -> Result<Json, String> {
    let path = dir.join("results.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn stat(metric: &Json) -> Option<Stat> {
    let value = metric.get("value")?.as_f64()?;
    let field = |k: &str| metric.get(k).and_then(Json::as_f64).unwrap_or(value);
    Some(Stat {
        value,
        q1: field("q1"),
        q3: field("q3"),
    })
}

/// Prints one row; true when its verdict fails the comparison.
fn row(workload: &str, name: &str, a: Stat, b: Stat, v: Option<Verdict>) -> bool {
    let change = if a.value == 0.0 {
        0.0
    } else {
        (b.value - a.value) / a.value
    };
    println!(
        "{workload:<16} {name:<40} {:>16.4} {:>16.4} {:>+8.1}%  {:<24} {}",
        a.value,
        b.value,
        change * 100.0,
        format!("{:.4}..{:.4} | {:.4}..{:.4}", a.q1, a.q3, b.q1, b.q3),
        v.map_or("-", Verdict::as_str)
    );
    matches!(v, Some(Verdict::Worse | Verdict::Unresolved))
}

pub fn run(dir_a: &Path, dir_b: &Path) -> ExitCode {
    let (a, b) = match (load(dir_a), load(dir_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("e2e_bench: {e}");
            }
            return ExitCode::from(2);
        }
    };
    for (label, results) in [("A", &a), ("B", &b)] {
        let env = results.get("env").map_or_else(String::new, Json::to_line);
        println!("{label}: {env}");
    }
    println!(
        "{:<16} {:<40} {:>16} {:>16} {:>9}  {:<24} verdict",
        "workload", "metric", "A", "B", "change", "quartiles A | B"
    );
    let mut bad = 0usize;
    for w in &metrics::WORKLOADS {
        let side = |r: &Json, section: &str, name: &str| {
            r.get("workloads")
                .and_then(|ws| ws.get(w.name))
                .and_then(|wl| wl.get(section))
                .and_then(|s| s.get(name))
                .and_then(stat)
        };
        for m in &metrics::END_TO_END {
            let (Some(sa), Some(sb)) = (
                side(&a, "end_to_end", m.name),
                side(&b, "end_to_end", m.name),
            ) else {
                println!(
                    "{:<16} {:<40} missing in one of the result sets",
                    w.name, m.name
                );
                bad += 1;
                continue;
            };
            let floor = if m.name == "setup_s" { 0.05 } else { 0.0 };
            let v = judge_timing(m.better, m.bound, floor, sa, sb);
            bad += usize::from(row(w.name, m.name, sa, sb, Some(v)));
        }
        for m in &metrics::PER_LAYER {
            let (Some(sa), Some(sb)) =
                (side(&a, "per_layer", m.name), side(&b, "per_layer", m.name))
            else {
                continue;
            };
            if sa.value == 0.0 && sb.value == 0.0 {
                continue;
            }
            let v = m.exact.then(|| judge_exact(m.better, sa.value, sb.value));
            bad += usize::from(row(w.name, m.name, sa, sb, v));
        }
        let digest = |r: &Json| {
            r.get("workloads")
                .and_then(|ws| ws.get(w.name))
                .and_then(|wl| wl.get("result_digest"))
                .map(Json::to_line)
        };
        let same = digest(&a).is_some() && digest(&a) == digest(&b);
        if !same {
            bad += 1;
        }
        println!(
            "{:<16} {:<40} {}",
            w.name,
            "result_digest",
            if same {
                "same"
            } else {
                "worse (digests differ)"
            }
        );
    }
    if bad == 0 {
        println!("no row is worse or unresolved");
        ExitCode::SUCCESS
    } else {
        println!("{bad} row(s) worse, unresolved or missing");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(value: f64) -> Stat {
        Stat {
            value,
            q1: value * 0.99,
            q3: value * 1.01,
        }
    }

    #[test]
    fn timing_verdicts() {
        use Better::{Higher, Lower};
        assert_eq!(
            judge_timing(Lower, 0.10, 0.0, tight(100.0), tight(105.0)),
            Verdict::Same
        );
        assert_eq!(
            judge_timing(Lower, 0.10, 0.0, tight(100.0), tight(115.0)),
            Verdict::Worse
        );
        assert_eq!(
            judge_timing(Lower, 0.10, 0.0, tight(100.0), tight(85.0)),
            Verdict::Better
        );
        assert_eq!(
            judge_timing(Higher, 0.10, 0.0, tight(100.0), tight(85.0)),
            Verdict::Worse
        );
        assert_eq!(
            judge_timing(Higher, 0.10, 0.0, tight(100.0), tight(115.0)),
            Verdict::Better
        );
        // Spread wider than the bound and overlapping: cannot tell.
        let noisy = |v: f64| Stat {
            value: v,
            q1: v * 0.85,
            q3: v * 1.15,
        };
        assert_eq!(
            judge_timing(Lower, 0.10, 0.0, noisy(100.0), noisy(104.0)),
            Verdict::Unresolved
        );
        // Wide but disjoint: every repeat of B beats every repeat of A.
        assert_eq!(
            judge_timing(Lower, 0.10, 0.0, noisy(100.0), noisy(50.0)),
            Verdict::Better
        );
        // The absolute floor forgives jitter on a tiny set-up time.
        assert_eq!(
            judge_timing(Lower, 0.25, 0.05, tight(0.02), tight(0.04)),
            Verdict::Same
        );
        assert_eq!(
            judge_timing(Lower, 0.25, 0.0, tight(0.02), tight(0.04)),
            Verdict::Worse
        );
    }

    #[test]
    fn exact_counts_must_be_equal() {
        assert_eq!(
            judge_exact(Better::Lower, 994117.0, 994117.0),
            Verdict::Same
        );
        assert_eq!(
            judge_exact(Better::Lower, 994117.0, 994118.0),
            Verdict::Worse
        );
        assert_eq!(
            judge_exact(Better::Lower, 994117.0, 994116.0),
            Verdict::Better
        );
        assert_eq!(judge_exact(Better::Lower, 0.0, 0.0), Verdict::Same);
        assert_eq!(judge_exact(Better::Lower, 0.0, 3.0), Verdict::Worse);
        assert_eq!(judge_exact(Better::Higher, 0.0, 3.0), Verdict::Better);
    }

    #[test]
    fn worsening_is_direction_aware() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 11.0) + 0.1).abs() < 1e-12);
    }
}
