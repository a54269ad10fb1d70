//! In-memory span recorder for traced runs. Spans are recorded around the
//! benchmark's calls into each layer, kept in memory, and written out when
//! the run ends: as Chrome trace-event JSON (opens in Perfetto or
//! `chrome://tracing`) and as a per-layer self-time table.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Root span names. They frame a run's phases and are not layers.
pub const PASS: &str = "pass";
pub const SETUP: &str = "setup";
pub const PROBE: &str = "probe";
/// Structural spans of the snapshot fan-out. Not layers either: the
/// library calls inside them are.
pub const FANOUT: &str = "parallel.fanout";
pub const TASK: &str = "parallel.task";

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub snapshot: Option<usize>,
    pub thread: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn is_layer(&self) -> bool {
        ![PASS, SETUP, PROBE, FANOUT, TASK].contains(&self.name)
    }
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD: Cell<u32> = const { Cell::new(0) };
}

fn thread_number() -> u32 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Run `f` inside a span; `f` receives the span's id so it can parent
    /// spans of its own, on this thread or on workers.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        snapshot: Option<usize>,
        f: impl FnOnce(u32) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.lock().expect("span list").push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            snapshot,
            thread: thread_number(),
        });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Span around `f` when tracing, a plain call otherwise.
pub fn span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<u32>,
    snapshot: Option<usize>,
    f: impl FnOnce(Option<u32>) -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, parent, snapshot, |id| f(Some(id))),
        None => f(None),
    }
}

/// Total length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Per-layer aggregate over a run's spans.
#[derive(Debug, Clone, Default)]
pub struct LayerRow {
    pub spans: usize,
    /// Sum of span durations minus the part each span's children cover.
    pub self_ns: u64,
}

/// Self time per (phase, span name), where the phase is the name of the
/// span's root (`setup`, `pass` or `probe`). Children may run on other
/// threads; their union inside the parent's interval is what the parent
/// did not do itself.
pub fn self_times(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), LayerRow> {
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut rows: BTreeMap<(&'static str, &'static str), LayerRow> = BTreeMap::new();
    for s in spans {
        let kids = children.remove(&s.id).unwrap_or_default();
        let covered = covered_ns(kids, s.start_ns, s.end_ns);
        let row = rows.entry((phase(&by_id, s), s.name)).or_default();
        row.spans += 1;
        row.self_ns += s.dur_ns() - covered;
    }
    rows
}

/// Name of the root span above `s`.
fn phase<'a>(by_id: &HashMap<u32, &'a Span>, mut s: &'a Span) -> &'static str {
    while let Some(&p) = s.parent.and_then(|p| by_id.get(&p)) {
        s = p;
    }
    s.name
}

/// Idle worker time of every snapshot fan-out: `threads` × its wall time
/// minus the busy time of its tasks.
pub fn fanout_idle_ns(spans: &[Span], threads: usize) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == FANOUT)
        .map(|f| {
            let busy: u64 = spans
                .iter()
                .filter(|s| s.name == TASK && s.parent == Some(f.id))
                .map(Span::dur_ns)
                .sum();
            (threads as u64 * f.dur_ns()).saturating_sub(busy)
        })
        .sum()
}

/// Wall time of every `pass` root, and the share of it that no layer span
/// covers (bench glue, fan-out scheduling, idle workers).
pub fn pass_coverage(spans: &[Span]) -> (u64, f64) {
    let mut wall = 0;
    let mut uncovered = 0;
    for root in spans.iter().filter(|s| s.name == PASS) {
        let inside: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.is_layer() && s.start_ns >= root.start_ns && s.end_ns <= root.end_ns)
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        wall += root.dur_ns();
        uncovered += root.dur_ns() - covered_ns(inside, root.start_ns, root.end_ns);
    }
    let share = if wall == 0 {
        0.0
    } else {
        uncovered as f64 / wall as f64
    };
    (wall, share)
}

/// Chrome trace-event JSON ("X" complete events, microsecond clock).
pub fn chrome_json(spans: &[Span], process: &str) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":{}}}}}",
        crate::spec::quote(process)
    ));
    for s in spans {
        let mut args = format!("\"id\":{}", s.id);
        if let Some(p) = s.parent {
            args.push_str(&format!(",\"parent\":{p}"));
        }
        if let Some(t) = s.snapshot {
            args.push_str(&format!(",\"snapshot\":{t}"));
        }
        let cat = s.name.split('.').next().unwrap_or(s.name);
        out.push_str(&format!(
            ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{}}}}}",
            s.name,
            cat,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            args
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            snapshot: None,
            thread: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, PASS, 0, 100),
            span(2, Some(1), "a.x", 10, 50),
            span(3, Some(1), "a.y", 40, 60),
            span(4, Some(2), "b.z", 20, 30),
        ];
        let rows = self_times(&spans);
        assert_eq!(rows[&(PASS, PASS)].self_ns, 50);
        assert_eq!(rows[&(PASS, "a.x")].self_ns, 30);
        assert_eq!(rows[&(PASS, "a.y")].self_ns, 20);
        assert_eq!(rows[&(PASS, "b.z")].self_ns, 10);
    }

    #[test]
    fn fanout_idle_is_worker_time_not_spent_in_tasks() {
        let spans = vec![
            span(1, None, FANOUT, 0, 100),
            span(2, Some(1), TASK, 0, 100),
            span(3, Some(1), TASK, 0, 60),
        ];
        assert_eq!(fanout_idle_ns(&spans, 2), 40);
    }

    #[test]
    fn coverage_counts_only_layer_spans_inside_passes() {
        let spans = vec![
            span(1, None, PASS, 0, 100),
            span(2, Some(1), FANOUT, 0, 100),
            span(3, Some(2), "scanner.observe", 10, 40),
            span(4, Some(2), "corpus.build", 30, 70),
            span(5, None, PROBE, 100, 200),
            span(6, Some(5), "query.read", 120, 180),
        ];
        let (wall, share) = pass_coverage(&spans);
        assert_eq!(wall, 100);
        assert!((share - 0.4).abs() < 1e-12);
    }

    #[test]
    fn chrome_export_lists_every_span() {
        let t = Tracer::default();
        t.span(PASS, None, None, |id| {
            t.span("scanner.observe", Some(id), Some(3), |_| ());
        });
        let json = chrome_json(&t.spans(), "unit");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"snapshot\":3"));
    }
}
