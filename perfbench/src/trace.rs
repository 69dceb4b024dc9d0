//! In-memory spans recorded by the benchmark around its calls into the
//! workspace crates. Spans are kept in memory and written out once, when
//! the run ends; with tracing off every call is a plain pass-through, so
//! the end-to-end figures are measured without it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Pass index the span belongs to (every span of one pass shares it).
    pub pass: usize,
    /// Request identifier on `service_mix`; spans of one job share it.
    pub job: Option<u64>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

thread_local! {
    /// Open spans of this thread, innermost last: the parent of a new span.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    next_id: AtomicUsize,
    pass: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            origin: Instant::now(),
            next_id: AtomicUsize::new(0),
            pass: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Starts pass `pass`, recording spans during it only when `enabled`;
    /// spans recorded from now on carry its index.
    pub fn begin_pass(&self, pass: usize, enabled: bool) {
        self.pass.store(pass, Ordering::Relaxed);
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// span open on this thread.
    pub fn span<T>(&self, name: &'static str, job: Option<u64>, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        OPEN.with(|open| open.borrow_mut().pop());
        self.push(Span {
            id,
            parent,
            name,
            pass: self.pass.load(Ordering::Relaxed),
            job,
            start,
            end,
        });
        out
    }

    /// Records a span for an interval the caller timed itself (a
    /// milestone between two events of a streamed job), as a child of the
    /// innermost span open on this thread.
    pub fn record(&self, name: &'static str, job: Option<u64>, start: Instant, end: Instant) {
        if !self.enabled() {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current();
        let start = start.saturating_duration_since(self.origin);
        let end = end.saturating_duration_since(self.origin);
        self.push(Span {
            id,
            parent,
            name,
            pass: self.pass.load(Ordering::Relaxed),
            job,
            start,
            end,
        });
    }

    /// The innermost span open on this thread.
    pub fn current(&self) -> Option<usize> {
        OPEN.with(|open| open.borrow().last().copied())
    }

    /// Makes `parent` (a span open on another thread) the parent of the
    /// spans this thread records; call once at the start of a worker thread.
    pub fn adopt(&self, parent: Option<usize>) {
        if let Some(p) = parent {
            OPEN.with(|open| open.borrow_mut().push(p));
        }
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span list lock poisoned by a panicking worker").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned by a panicking worker").clone()
    }
}

/// Median over passes of the summed duration of the spans named `name`
/// in each pass that has any (0 when no pass has one).
pub fn per_pass_median(spans: &[Span], name: &str) -> f64 {
    let mut per_pass: BTreeMap<usize, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *per_pass.entry(s.pass).or_default() += s.secs();
    }
    crate::stats::median(&per_pass.into_values().collect::<Vec<_>>())
}

/// Every duration of the spans named `name`, in seconds.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
}

/// Per span name: (count, total seconds, self seconds). Self time is the
/// span's duration minus the part of its interval its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut children: BTreeMap<usize, Vec<(Duration, Duration)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let mut kids = children.remove(&s.id).unwrap_or_default();
        kids.sort();
        let (mut covered, mut reach) = (Duration::ZERO, s.start);
        for (a, b) in kids {
            let (a, b) = (a.max(reach).min(s.end), b.min(s.end));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.secs();
        e.2 += s.secs() - covered.as_secs_f64();
    }
    out
}

/// The spans as a JSON array (start and end in nanoseconds since the
/// tracer was created).
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"pass\":{},\"job\":{},\"start_ns\":{},\"end_ns\":{}}}{}\n",
            s.id,
            opt(s.parent.map(|p| p as u64)),
            s.name,
            s.pass,
            opt(s.job),
            s.start.as_nanos(),
            s.end.as_nanos(),
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}
