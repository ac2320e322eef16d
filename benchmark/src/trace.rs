//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the
//! program's public entry points (spans inside the program are out of
//! scope). Each span carries its parent, so a layer's *self* time is its
//! duration minus the part of it that child spans cover. Recording is
//! off unless [`enable`] was called, and then costs one clock read and
//! one mutex push per span.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Pass id of spans recorded outside any measured pass.
pub const NO_PASS: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based; 0 means "no parent").
    pub id: u64,
    /// Id of the enclosing span, or 0.
    pub parent: u64,
    /// Call name, `layer:call`.
    pub name: &'static str,
    /// Measured pass the span belongs to, or [`NO_PASS`].
    pub pass: u32,
    /// Start, ns since the recorder's epoch.
    pub start: u64,
    /// End, ns since the recorder's epoch.
    pub end: u64,
}

impl Span {
    /// The layer prefix of the span's name.
    pub fn layer(&self) -> &'static str {
        self.name.split(':').next().unwrap_or(self.name)
    }

    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static PASS: AtomicU32 = AtomicU32::new(NO_PASS);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Spans the store holds before it first grows. Growing copies the
/// whole store after a span has closed, which would show as uncovered
/// time in its parent.
const RESERVE: usize = 1 << 18;

/// Turn recording on or off.
pub fn enable(on: bool) {
    EPOCH.get_or_init(Instant::now);
    if on {
        let mut spans = SPANS.lock().expect("span store poisoned");
        if spans.capacity() == 0 {
            spans.reserve(RESERVE);
        }
    }
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether recording is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tag spans recorded from now on with `pass` ([`NO_PASS`] to clear).
pub fn set_pass(pass: u32) {
    PASS.store(pass, Ordering::SeqCst);
}

/// Id of the innermost open span on this thread (0 if none). Hand it to
/// [`with_parent`] on a worker thread so its spans nest correctly.
pub fn current() -> u64 {
    CURRENT.with(Cell::get)
}

/// Run `f` with `parent` as this thread's enclosing span.
pub fn with_parent<T>(parent: u64, f: impl FnOnce() -> T) -> T {
    let saved = CURRENT.with(|c| c.replace(parent));
    let out = f();
    CURRENT.with(|c| c.set(saved));
    out
}

/// Run `f` inside a span named `name` (`layer:call`).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| c.replace(id));
    let start = now_ns();
    let out = f();
    let end = now_ns();
    CURRENT.with(|c| c.set(parent));
    let pass = PASS.load(Ordering::Relaxed);
    SPANS.lock().expect("span store poisoned").push(Span {
        id,
        parent,
        name,
        pass,
        start,
        end,
    });
    out
}

/// Take every span recorded so far, sorted by id.
pub fn drain() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *SPANS.lock().expect("span store poisoned"));
    spans.sort_by_key(|s| s.id);
    spans
}

/// Length of the union of `intervals` (ns), each clipped to `[lo, hi]`.
fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    covered
}

/// Self and inclusive time (ns) per layer. A span's self time is its
/// duration minus the union of its children's intervals; inclusive time
/// counts only spans whose parent is in another layer, so nested calls
/// within one layer are not counted twice.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).cloned().unwrap_or_default();
        let self_ns = s.dur() - union_len(kids, s.start, s.end);
        let outer = by_id.get(&s.parent).is_none_or(|p| p.layer() != s.layer());
        let e = out.entry(s.layer()).or_default();
        e.0 += self_ns;
        if outer {
            e.1 += s.dur();
        }
    }
    out
}

/// Share of each pass span's wall time covered by its children; the
/// minimum over all spans named `pass_name`.
pub fn min_coverage(spans: &[Span], pass_name: &str) -> f64 {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .filter(|s| s.name == pass_name && s.dur() > 0)
        .map(|s| {
            let kids = children.get(&s.id).cloned().unwrap_or_default();
            union_len(kids, s.start, s.end) as f64 / s.dur() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Share of the total time of the spans named `name` that their
/// children cover.
pub fn total_coverage(spans: &[Span], name: &str) -> f64 {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let (mut covered, mut total) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.name == name) {
        let kids = children.get(&s.id).cloned().unwrap_or_default();
        covered += union_len(kids, s.start, s.end);
        total += s.dur();
    }
    covered as f64 / total.max(1) as f64
}

/// Write `spans` as a Chrome trace-event document (viewable in
/// Perfetto); thread lanes are approximated by nesting depth.
pub fn write_chrome_trace(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    fn depth<'a>(by_id: &BTreeMap<u64, &'a Span>, mut s: &'a Span) -> usize {
        let mut d = 0;
        while let Some(p) = by_id.get(&s.parent) {
            d += 1;
            s = p;
        }
        d
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"traceEvents\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"pass\": {}}}}}{sep}",
            s.name,
            s.layer(),
            depth(&by_id, s),
            s.start as f64 / 1e3,
            s.dur() as f64 / 1e3,
            s.id,
            s.parent,
            if s.pass == NO_PASS { -1 } else { s.pass as i64 },
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            pass: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = vec![
            sp(1, 0, "bench:pass", 0, 100),
            sp(2, 1, "sweep:map", 10, 90),
            sp(3, 2, "run:naive", 10, 50),
            sp(4, 2, "run:naive", 20, 60),
            sp(5, 2, "run:buffer", 70, 80),
            sp(6, 3, "run:inner", 15, 25),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["bench"], (20, 100));
        assert_eq!(t["sweep"], (80 - 50 - 10, 80));
        // A same-layer child adds self time but no inclusive time.
        assert_eq!(t["run"], (30 + 40 + 10 + 10, 90));
        assert!((min_coverage(&spans, "bench:pass") - 0.8).abs() < 1e-12);
        // Two run:naive spans of 40 ns each; run:inner covers 10 ns of one.
        assert!((total_coverage(&spans, "run:naive") - 10.0 / 80.0).abs() < 1e-12);
    }
}
