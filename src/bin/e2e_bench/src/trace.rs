//! In-memory spans around the benchmark's own calls into the product.
//!
//! The load generator is single-threaded, so the tracer is a
//! thread-local: `timed` always returns the wall time of the call (the
//! direct-span metrics need it with tracing off too) and, when tracing
//! is on, also records `(name, start, end, parent, repeat)`. Spans stay
//! in memory until the run ends; `take` hands them over for
//! `trace.jsonl` and the self-time table.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub repeat: u32,
}

struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    repeat: u32,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        repeat: 0,
    });
}

/// Turns recording on or off; `repeat` labels the spans that follow.
pub fn set_enabled(enabled: bool, repeat: u32) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.enabled = enabled;
        t.repeat = repeat;
    });
}

/// Runs `f`, returning its value and wall time in nanoseconds; records
/// a span when tracing is on. Nested calls become child spans.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    let opened = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return None;
        }
        let id = t.spans.len() as u32;
        let span = Span {
            id,
            parent: t.open.last().copied(),
            name,
            start_ns: t.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            repeat: t.repeat,
        };
        t.spans.push(span);
        t.open.push(id);
        Some(id)
    });
    let start = Instant::now();
    let value = f();
    let elapsed = start.elapsed().as_nanos() as u64;
    if let Some(id) = opened {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let span = &mut t.spans[id as usize];
            span.end_ns = span.start_ns + elapsed;
            t.open.pop();
        });
    }
    (value, elapsed)
}

/// Hands over every recorded span and clears the buffer.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Per span name: `(count, total_ns, self_ns)` where self time is the
/// span's duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut table: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns - s.start_ns;
        let entry = table.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += total;
        entry.2 += total.saturating_sub(child_ns[s.id as usize]);
    }
    table
}

/// One JSON object per span, for `<out>/trace.jsonl`.
pub fn to_jsonl(workload: &str, spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"workload\":\"{workload}\",\"repeat\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.repeat, s.id, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_and_self_time() {
        set_enabled(true, 7);
        let ((), outer) = timed("outer", || {
            timed("inner", || std::hint::black_box(1 + 1));
            timed("inner", || std::hint::black_box(2 + 2));
        });
        set_enabled(false, 0);
        let (_, off) = timed("ignored", || ());
        let spans = take();
        assert_eq!(spans.len(), 3, "disabled spans are not recorded");
        assert!(off < 1_000_000_000);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.repeat == 7));
        assert_eq!(spans[0].end_ns - spans[0].start_ns, outer);

        let table = self_times(&spans);
        let (n, total, own) = table["outer"];
        let (inner_n, inner_total, inner_own) = table["inner"];
        assert_eq!((n, inner_n), (1, 2));
        assert_eq!(inner_total, inner_own, "leaves have no children");
        assert_eq!(own, total - inner_total);

        let jsonl = to_jsonl("w", &spans);
        assert_eq!(jsonl.lines().count(), 3);
        for line in jsonl.lines() {
            crate::json::parse(line).expect("each line is one JSON object");
        }
        assert!(take().is_empty());
    }
}
