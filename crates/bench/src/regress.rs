//! Bench-regression gate: compares freshly produced `BENCH_*.json`
//! artifacts against the baselines committed at the repository root.
//!
//! Every artifact is hand-rolled JSON (the workspace is std-only), so
//! this module carries its own minimal recursive-descent parser — just
//! enough for objects, arrays, strings, numbers and literals. On top of
//! it sits a registry of *gated metrics*, each with a directional
//! tolerance:
//!
//! * ratios that must not sink (admission speedup), and
//! * costs that must not blow an absolute budget (conflict-light abort
//!   rate, flat-read ratio, trie-node plateau).
//!
//! Raw nanosecond timings are deliberately *not* gated — CI machines
//! vary too much — the gated numbers are ratios measured inside one
//! process, which are stable. `cargo run -p sc-bench --bin bench_check
//! -- <baseline_dir> <fresh_dir>` renders a per-metric table and fails
//! if any row does.

use std::fmt::Write as _;
use std::path::Path;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (all benches emit f64-representable values).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// First array element under `key` for which `pred` holds.
    pub fn find_in(&self, key: &str, pred: impl Fn(&Json) -> bool) -> Option<&Json> {
        self.get(key)?.as_arr()?.iter().find(|item| pred(item))
    }
}

/// Parses a complete JSON document.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            b as char,
            *pos,
            bytes.get(*pos).map(|&c| c as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let token = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    token
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number {token:?} at byte {start}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let escaped = match bytes.get(*pos) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'n') => '\n',
                    Some(b't') => '\t',
                    Some(b'r') => '\r',
                    other => return Err(format!("unsupported escape {other:?}")),
                };
                out.push(escaped);
                *pos += 1;
            }
            Some(&b) => {
                out.push(b as char);
                *pos += 1;
            }
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected ',' or ']', found {other:?}")),
        }
    }
}

/// How a gated metric is allowed to move between baseline and fresh.
#[derive(Debug, Clone, Copy)]
pub enum Tolerance {
    /// Bigger is better; fresh may sink at most this many percent below
    /// the baseline (it may rise freely).
    MaxDropPct(f64),
    /// Smaller is better; fresh may rise at most this many percent
    /// above the baseline (it may sink freely).
    MaxRisePct(f64),
    /// The fresh value must not exceed this absolute cap — the
    /// baseline is shown for context only.
    AbsoluteMax(f64),
}

impl Tolerance {
    fn passes(self, baseline: f64, fresh: f64) -> bool {
        match self {
            Tolerance::MaxDropPct(pct) => fresh >= baseline * (1.0 - pct / 100.0),
            Tolerance::MaxRisePct(pct) => fresh <= baseline * (1.0 + pct / 100.0),
            Tolerance::AbsoluteMax(cap) => fresh <= cap,
        }
    }

    fn describe(self) -> String {
        match self {
            Tolerance::MaxDropPct(pct) => format!("may drop ≤ {pct:.0}%"),
            Tolerance::MaxRisePct(pct) => format!("may rise ≤ {pct:.0}%"),
            Tolerance::AbsoluteMax(cap) => format!("must be ≤ {cap:.1}"),
        }
    }
}

/// One gated metric: where it lives, how to pull it out of the parsed
/// artifact, and how far it may move.
pub struct Metric {
    /// Artifact file name (same at the baseline and fresh roots).
    pub file: &'static str,
    /// Human-readable metric name for the table.
    pub name: &'static str,
    /// Pulls the value out of a parsed artifact.
    pub extract: fn(&Json) -> Option<f64>,
    /// The allowed movement.
    pub tolerance: Tolerance,
}

fn pipeline_admission_speedup(doc: &Json) -> Option<f64> {
    doc.get("admission_speedup")?.as_f64()
}

fn parallel_light_abort_rate_256(doc: &Json) -> Option<f64> {
    doc.find_in("points", |p| {
        p.get("workload").and_then(Json::as_str) == Some("conflict_light")
            && p.get("n").and_then(Json::as_f64) == Some(256.0)
    })?
    .get("abort_rate")?
    .as_f64()
}

fn network_point_at<'a>(doc: &'a Json, section: &str, nodes: f64) -> Option<&'a Json> {
    doc.find_in(section, |p| {
        p.get("nodes").and_then(Json::as_f64) == Some(nodes)
    })
}

fn network_convergence_rounds_8(doc: &Json) -> Option<f64> {
    network_point_at(doc, "convergence", 8.0)?
        .get("rounds_to_converge")?
        .as_f64()
}

fn network_orphan_rate_8(doc: &Json) -> Option<f64> {
    network_point_at(doc, "convergence", 8.0)?
        .get("orphan_rate")?
        .as_f64()
}

fn light_fleet_convergence_rounds_1000(doc: &Json) -> Option<f64> {
    doc.find_in("light_fleet", |p| {
        p.get("clients").and_then(Json::as_f64) == Some(1000.0)
    })?
    .get("rounds_to_converge")?
    .as_f64()
}

fn light_witness_bytes_per_session_8(doc: &Json) -> Option<f64> {
    doc.find_in("light_sessions", |p| {
        p.get("sessions").and_then(Json::as_f64) == Some(8.0)
    })?
    .get("witness_bytes_per_session")?
    .as_f64()
}

fn state_read_ratio(doc: &Json) -> Option<f64> {
    doc.get("read_ratio_largest_over_smallest")?.as_f64()
}

fn state_plateau_ratio(doc: &Json) -> Option<f64> {
    doc.get("seal")?.get("plateau_ratio")?.as_f64()
}

fn confidential_deposit_gas(doc: &Json) -> Option<f64> {
    doc.get("lifecycle")?.get("deposit_committed_gas")?.as_f64()
}

fn confidential_settle_gas(doc: &Json) -> Option<f64> {
    doc.get("lifecycle")?.get("settle_gas")?.as_f64()
}

fn confidential_gas_ratio(doc: &Json) -> Option<f64> {
    doc.get("lifecycle")?
        .get("gas_ratio_vs_monolithic")?
        .as_f64()
}

/// Every metric the CI gate enforces.
pub fn registry() -> Vec<Metric> {
    vec![
        Metric {
            file: "BENCH_pipeline.json",
            name: "pipeline admission_speedup",
            extract: pipeline_admission_speedup,
            tolerance: Tolerance::MaxDropPct(25.0),
        },
        Metric {
            file: "BENCH_parallel_evm.json",
            name: "parallel light abort_rate @256",
            extract: parallel_light_abort_rate_256,
            tolerance: Tolerance::AbsoluteMax(0.0),
        },
        // Deterministic network numbers: convergence is a pure function
        // of the round protocol, so any rise means gossip or fork
        // choice regressed, not the machine.
        Metric {
            file: "BENCH_network.json",
            name: "network convergence rounds @8",
            extract: network_convergence_rounds_8,
            tolerance: Tolerance::MaxRisePct(50.0),
        },
        Metric {
            file: "BENCH_network.json",
            name: "network orphan_rate @8",
            extract: network_orphan_rate_8,
            tolerance: Tolerance::AbsoluteMax(0.6),
        },
        // Light clients: fleet convergence is deterministic (headers +
        // fork choice only), and witness bytes per stateless session
        // are a pure function of the protocol's read pattern — a rise
        // means reads got heavier or proofs got fatter.
        Metric {
            file: "BENCH_network.json",
            name: "light fleet convergence rounds @1000",
            extract: light_fleet_convergence_rounds_1000,
            tolerance: Tolerance::MaxRisePct(50.0),
        },
        Metric {
            file: "BENCH_network.json",
            name: "light witness bytes/session @8",
            extract: light_witness_bytes_per_session_8,
            tolerance: Tolerance::MaxRisePct(50.0),
        },
        // Flat-state engine: reads must stay O(1) in account count and
        // the pruning window must bound trie-node memory.
        Metric {
            file: "BENCH_state.json",
            name: "state flat-read ratio 1M/10k",
            extract: state_read_ratio,
            tolerance: Tolerance::AbsoluteMax(1.5),
        },
        Metric {
            file: "BENCH_state.json",
            name: "state trie-node plateau ratio",
            extract: state_plateau_ratio,
            tolerance: Tolerance::AbsoluteMax(1.5),
        },
        // Confidential channel: the gas figures are deterministic
        // (fixed contract, fixed proofs), so any rise means the
        // compiler, the precompile pricing, or the range-proof encoding
        // regressed. Wall-clock crypto timings are deliberately ungated.
        Metric {
            file: "BENCH_confidential.json",
            name: "confidential depositCommitted gas",
            extract: confidential_deposit_gas,
            tolerance: Tolerance::MaxRisePct(10.0),
        },
        Metric {
            file: "BENCH_confidential.json",
            name: "confidential settle gas",
            extract: confidential_settle_gas,
            tolerance: Tolerance::MaxRisePct(10.0),
        },
        Metric {
            file: "BENCH_confidential.json",
            name: "confidential gas ratio vs monolithic",
            extract: confidential_gas_ratio,
            tolerance: Tolerance::MaxRisePct(15.0),
        },
    ]
}

/// One row of the comparison table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Metric name.
    pub name: &'static str,
    /// Baseline value, or the reason it is unavailable.
    pub baseline: Result<f64, String>,
    /// Fresh value, or the reason it is unavailable.
    pub fresh: Result<f64, String>,
    /// The tolerance applied.
    pub tolerance: Tolerance,
    /// Whether the row passes the gate.
    pub pass: bool,
}

/// Outcome of a full baseline-vs-fresh comparison.
#[derive(Debug, Clone)]
pub struct RegressionReport {
    /// One row per registry metric.
    pub rows: Vec<Row>,
}

impl RegressionReport {
    /// True iff every metric passed.
    pub fn pass(&self) -> bool {
        self.rows.iter().all(|r| r.pass)
    }

    /// Renders the per-metric table shown in CI logs.
    pub fn render(&self) -> String {
        let name_w = self
            .rows
            .iter()
            .map(|r| r.name.len())
            .max()
            .unwrap_or(0)
            .max("metric".len());
        let fmt_val = |v: &Result<f64, String>| match v {
            Ok(n) => format!("{n:>10.3}"),
            Err(reason) => format!("{reason:>10}"),
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>10}  {:>10}  {:<16}  result",
            "metric", "baseline", "fresh", "tolerance"
        );
        let _ = writeln!(out, "{}", "-".repeat(name_w + 16 + 26 + 12));
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:<name_w$}  {}  {}  {:<16}  {}",
                row.name,
                fmt_val(&row.baseline),
                fmt_val(&row.fresh),
                row.tolerance.describe(),
                if row.pass { "ok" } else { "FAIL" },
            );
        }
        out
    }
}

fn load_metric(dir: &Path, metric: &Metric) -> Result<f64, String> {
    let path = dir.join(metric.file);
    let text = std::fs::read_to_string(&path).map_err(|_| "missing".to_string())?;
    let doc = parse(&text).map_err(|_| "unparsable".to_string())?;
    (metric.extract)(&doc).ok_or_else(|| "absent".to_string())
}

/// Compares every registry metric between the two artifact directories.
pub fn compare(baseline_dir: &Path, fresh_dir: &Path) -> RegressionReport {
    let rows = registry()
        .into_iter()
        .map(|metric| {
            let baseline = load_metric(baseline_dir, &metric);
            let fresh = load_metric(fresh_dir, &metric);
            let pass = match (&baseline, &fresh) {
                (Ok(b), Ok(f)) => metric.tolerance.passes(*b, *f),
                // An absolute cap needs no baseline — gate on fresh alone.
                (Err(_), Ok(f)) => {
                    matches!(metric.tolerance, Tolerance::AbsoluteMax(cap) if *f <= cap)
                }
                _ => false,
            };
            Row {
                name: metric.name,
                baseline,
                fresh,
                tolerance: metric.tolerance,
                pass,
            }
        })
        .collect();
    RegressionReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_artifact_shapes() {
        let doc = parse(
            r#"{
              "bench": "demo",
              "neg": -6.39,
              "flag": true,
              "nothing": null,
              "points": [ {"n": 1, "v": 2.5}, {"n": 256, "v": 9.952} ]
            }"#,
        )
        .expect("parses");
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("demo"));
        assert_eq!(doc.get("neg").and_then(Json::as_f64), Some(-6.39));
        assert_eq!(doc.get("flag"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("nothing"), Some(&Json::Null));
        let p256 = doc
            .find_in("points", |p| {
                p.get("n").and_then(Json::as_f64) == Some(256.0)
            })
            .expect("found");
        assert_eq!(p256.get("v").and_then(Json::as_f64), Some(9.952));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("123 456").is_err());
    }

    #[test]
    fn tolerances_gate_directionally() {
        assert!(Tolerance::MaxDropPct(25.0).passes(2.0, 1.6));
        assert!(!Tolerance::MaxDropPct(25.0).passes(2.0, 1.4));
        assert!(Tolerance::MaxDropPct(25.0).passes(2.0, 99.0));
        assert!(Tolerance::MaxRisePct(10.0).passes(100.0, 109.0));
        assert!(!Tolerance::MaxRisePct(10.0).passes(100.0, 120.0));
        assert!(Tolerance::AbsoluteMax(25.0).passes(0.0, 24.9));
        assert!(!Tolerance::AbsoluteMax(25.0).passes(0.0, 25.1));
    }

    #[test]
    fn registry_extracts_from_committed_baselines() {
        // The committed repo-root artifacts must satisfy every
        // extractor — otherwise the CI gate would report "absent".
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for metric in registry() {
            let value = load_metric(&root, &metric);
            assert!(
                value.is_ok(),
                "{} not extractable from committed {}: {:?}",
                metric.name,
                metric.file,
                value
            );
        }
    }

    #[test]
    fn compare_of_identical_dirs_passes() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = compare(&root, &root);
        assert!(
            report.pass(),
            "self-comparison failed:\n{}",
            report.render()
        );
        let table = report.render();
        assert!(table.contains("pipeline admission_speedup"));
        assert!(table.contains("ok"));
    }

    #[test]
    fn regressions_fail_and_render() {
        let tmp = std::env::temp_dir().join("sc_bench_regress_test");
        let _ = std::fs::create_dir_all(&tmp);
        std::fs::write(
            tmp.join("BENCH_pipeline.json"),
            r#"{"bench": "pipeline", "admission_speedup": 1.0}"#,
        )
        .expect("write fresh artifact");
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = compare(&root, &tmp);
        assert!(!report.pass());
        let pipeline_row = report
            .rows
            .iter()
            .find(|r| r.name == "pipeline admission_speedup")
            .expect("row present");
        assert!(!pipeline_row.pass, "1.0 must fail the 25% gate");
        assert!(report.render().contains("FAIL"));
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
