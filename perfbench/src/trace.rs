//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records name, start, end, the span that caused it (its parent
//! on the same thread) and a shared id (the publication sequence number,
//! a collector pass or a replay iteration). Spans stay in per-thread
//! buffers while tracing is on; [`collect`] gathers them and
//! [`write_jsonl`] writes them out when the benchmark ends. Off (the
//! untraced run), [`span`] is one relaxed load and a direct call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static FINISHED: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call this span wraps, e.g. `core.index.match`.
    pub name: &'static str,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's buffer.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one request.
    pub id: u64,
}

#[derive(Default)]
struct Local {
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name` with request id `id`.
#[inline]
pub fn span<R>(name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let idx = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.open.last().copied();
        let idx = l.spans.len();
        l.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            id,
        });
        l.open.push(idx);
        idx
    });
    let out = f();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.spans[idx].end_ns = now_ns();
        l.open.pop();
    });
    out
}

/// Hands this thread's spans to the global store; call before a traced
/// thread exits.
pub fn flush_thread() {
    let spans = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans));
    if !spans.is_empty() {
        FINISHED.lock().expect("trace store poisoned").push(spans);
    }
}

/// Every flushed buffer, one per thread (the caller's own included).
pub fn collect() -> Vec<Vec<Span>> {
    flush_thread();
    std::mem::take(&mut *FINISHED.lock().expect("trace store poisoned"))
}

/// Per-name totals over a set of thread buffers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of self times (duration minus the part child spans cover), ns.
    pub self_ns: u64,
}

impl Totals {
    /// Mean self time, ns.
    pub fn mean_self_ns(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64
    }
}

/// Count and self time per span name. Children of one span run one
/// after another on its thread, so the part of its interval they cover
/// is the sum of their durations.
pub fn totals(threads: &[Vec<Span>]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for spans in threads {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        for (s, c) in spans.iter().zip(child_ns) {
            let d = s.end_ns.saturating_sub(s.start_ns);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.self_ns += d.saturating_sub(c);
        }
    }
    out
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (t, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"thread\":{t},\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 7,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            sp("outer", 0, 100, None),
            sp("inner", 10, 40, Some(0)),
            sp("inner", 50, 70, Some(0)),
            sp("leaf", 12, 20, Some(1)),
        ];
        let t = totals(&[spans]);
        assert_eq!(t["outer"].count, 1);
        assert_eq!(t["outer"].self_ns, 50);
        assert_eq!(t["inner"].count, 2);
        assert_eq!(t["inner"].self_ns, 42);
        assert_eq!(t["leaf"].self_ns, 8);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        // Runs on its own thread so no other test's buffer interferes.
        std::thread::spawn(|| {
            set_enabled(true);
            span("a", 1, || span("b", 1, || ()));
            let spans = LOCAL.with(|l| l.borrow().spans.clone());
            assert_eq!(spans.len(), 2);
            assert_eq!(spans[0].name, "a");
            assert_eq!(spans[1].parent, Some(0));
            assert!(spans[0].end_ns >= spans[1].end_ns);
        })
        .join()
        .unwrap();
    }
}
