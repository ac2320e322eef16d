//! Timeline tooling: ASCII Gantt rendering, utilization summaries, and
//! Chrome-trace export.
//!
//! The paper diagnosed its results with the NVIDIA Visual Profiler and
//! the AMD APP Profiler; these helpers are the simulator's equivalents —
//! they make the overlap (or its absence) visible:
//!
//! ```text
//! H2D     |██████░░████░░████░░████                       | 62.1% busy
//! D2H     |      ░░░░██████░░████░░██████                 | 48.3% busy
//! Kernel  |      ████░░░░████░░██████                     | 41.0% busy
//! ```

use std::fmt::Write as _;

use crate::counters::{HostSpan, TimelineEntry, TimelineKind, WaitRecord};
use crate::time::SimTime;

/// Per-engine busy statistics over a timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Utilization {
    /// Busy fraction of the H2D engine over the makespan, in `[0, 1]`.
    pub h2d: f64,
    /// Busy fraction of the D2H engine.
    pub d2h: f64,
    /// Busy fraction of the compute engine.
    pub kernel: f64,
    /// End of the last command (ns) minus start of the first.
    pub makespan: SimTime,
    /// Number of engines with at least one command in the timeline.
    pub engines_active: usize,
}

impl Utilization {
    /// Aggregate busy fraction: total busy time across engines divided
    /// by `engines_active × makespan`. Engines with no work at all
    /// (e.g. a region with no D2H) do not dilute the figure.
    pub fn aggregate(&self) -> f64 {
        (self.h2d + self.d2h + self.kernel) / self.engines_active.max(1) as f64
    }
}

fn span(timeline: &[TimelineEntry]) -> Option<(u64, u64)> {
    let start = timeline.iter().map(|t| t.start_ns).min()?;
    let end = timeline.iter().map(|t| t.end_ns).max()?;
    Some((start, end))
}

/// Compute per-engine utilization over a timeline. Returns zeroes for an
/// empty timeline.
pub fn utilization(timeline: &[TimelineEntry]) -> Utilization {
    let Some((start, end)) = span(timeline) else {
        return Utilization {
            h2d: 0.0,
            d2h: 0.0,
            kernel: 0.0,
            makespan: SimTime::ZERO,
            engines_active: 0,
        };
    };
    let makespan = (end - start).max(1);
    let busy = |kind: TimelineKind| -> f64 {
        let ns: u64 = timeline
            .iter()
            .filter(|t| t.kind == kind)
            .map(|t| t.end_ns - t.start_ns)
            .sum();
        ns as f64 / makespan as f64
    };
    let engines_active = [TimelineKind::H2D, TimelineKind::D2H, TimelineKind::Kernel]
        .iter()
        .filter(|k| timeline.iter().any(|t| t.kind == **k))
        .count();
    Utilization {
        h2d: busy(TimelineKind::H2D),
        d2h: busy(TimelineKind::D2H),
        kernel: busy(TimelineKind::Kernel),
        makespan: SimTime::from_ns(makespan),
        engines_active,
    }
}

/// Render the timeline as a three-row ASCII Gantt chart of the given
/// column width. Alternating commands on an engine are drawn with `█`
/// and `▒` so back-to-back commands remain distinguishable.
pub fn render_gantt(timeline: &[TimelineEntry], width: usize) -> String {
    let width = width.max(10);
    let mut out = String::new();
    let Some((start, end)) = span(timeline) else {
        return "(empty timeline)\n".to_string();
    };
    let total = (end - start).max(1) as f64;
    let util = utilization(timeline);
    for (kind, label, busy) in [
        (TimelineKind::H2D, "H2D   ", util.h2d),
        (TimelineKind::D2H, "D2H   ", util.d2h),
        (TimelineKind::Kernel, "Kernel", util.kernel),
    ] {
        let mut row = vec![' '; width];
        let mut entries: Vec<&TimelineEntry> =
            timeline.iter().filter(|t| t.kind == kind).collect();
        entries.sort_by_key(|t| t.start_ns);
        for (n, t) in entries.iter().enumerate() {
            // Clamp the start cell first: a zero-duration entry at the very
            // end of the span would otherwise produce a > width and panic
            // in `clamp` below.
            let a = ((((t.start_ns - start) as f64 / total) * width as f64) as usize)
                .min(width - 1);
            let b = ((((t.end_ns - start) as f64 / total) * width as f64).ceil() as usize)
                .clamp(a + 1, width);
            let ch = if n % 2 == 0 { '█' } else { '▒' };
            for c in row.iter_mut().take(b).skip(a) {
                *c = ch;
            }
        }
        let bar: String = row.into_iter().collect();
        let _ = writeln!(out, "{label} |{bar}| {:5.1}% busy", 100.0 * busy);
    }
    let _ = writeln!(
        out,
        "        0{:>w$}",
        format!("{}", SimTime::from_ns(end - start)),
        w = width
    );
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn device_tid(kind: TimelineKind) -> u32 {
    match kind {
        TimelineKind::H2D => 1,
        TimelineKind::D2H => 2,
        TimelineKind::Kernel => 3,
    }
}

/// A named counter series for trace export (`ph:"C"` events): ring-slot
/// occupancy, in-flight chunks, device-memory footprint, ...
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CounterTrack {
    /// Track name as shown by the viewer.
    pub name: String,
    /// `(host-clock ns, value)` samples, in time order.
    pub samples: Vec<(u64, f64)>,
}

/// Derive an "in-flight chunks" counter from the timeline: how many
/// kernel commands were enqueued but not yet complete at each instant —
/// the depth of the software pipeline.
pub fn inflight_counter(timeline: &[TimelineEntry]) -> CounterTrack {
    let mut deltas: Vec<(u64, i64)> = Vec::new();
    for t in timeline {
        if t.kind == TimelineKind::Kernel {
            deltas.push((t.enqueue_ns, 1));
            deltas.push((t.end_ns, -1));
        }
    }
    deltas.sort_unstable();
    let mut samples = Vec::new();
    let mut level: i64 = 0;
    for (t, d) in deltas {
        level += d;
        match samples.last_mut() {
            Some((lt, lv)) if *lt == t => *lv = level as f64,
            _ => samples.push((t, level as f64)),
        }
    }
    CounterTrack {
        name: "in_flight_chunks".into(),
        samples,
    }
}

/// Full Perfetto-loadable export correlating the host and device
/// timelines:
///
/// * `ph:"M"` metadata names the two processes (host pid 0 with a
///   `runtime` thread; device pid 1 with one thread per engine);
/// * `ph:"X"` spans for device commands and host runtime spans
///   (zero-duration host spans become `ph:"i"` instants);
/// * `ph:"s"`/`ph:"f"` flow events link each host enqueue span to the
///   device slice it issued, keyed by the command's sequence number;
/// * `ph:"C"` counter events render each [`CounterTrack`].
///
/// The export is complete enough to reconstruct the run offline: device
/// spans carry their enqueue instant (`args.enq`), host spans carry
/// their flow id (`args.flow`), and each [`WaitRecord`] becomes a span
/// on a dedicated `Waits` device thread (tid 4) named after its cause —
/// everything the stall attributor needs to be re-run from the document
/// alone, bit-identical to the live run.
pub fn to_perfetto_trace(
    timeline: &[TimelineEntry],
    host_spans: &[HostSpan],
    waits: &[WaitRecord],
    counters: &[CounterTrack],
) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    let mut events: Vec<String> = Vec::new();

    // Process / thread metadata.
    for (pid, name) in [(0, "host"), (1, "device")] {
        events.push(format!(
            "  {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \
             \"args\": {{\"name\": \"{name}\"}}}}"
        ));
    }
    for (pid, tid, name) in [
        (0, 0, "runtime"),
        (1, 1, "H2D"),
        (1, 2, "D2H"),
        (1, 3, "Compute"),
        (1, 4, "Waits"),
    ] {
        events.push(format!(
            "  {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \
             \"args\": {{\"name\": \"{name}\"}}}}"
        ));
    }

    // Host spans (and flow starts at enqueue spans that produced a
    // device-visible command).
    let device_seqs: std::collections::HashSet<u64> =
        timeline.iter().map(|t| t.seq).collect();
    for s in host_spans {
        let ts = s.start_ns as f64 / 1e3;
        let dur = (s.end_ns - s.start_ns) as f64 / 1e3;
        // The flow id rides along as an argument so importers can
        // reassociate host spans with device slices without replaying
        // the separate flow events.
        let args = match s.flow {
            Some(f) => format!(", \"args\": {{\"flow\": {f}}}"),
            None => String::new(),
        };
        if s.end_ns > s.start_ns {
            events.push(format!(
                "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {ts:.3}, \
                 \"dur\": {dur:.3}, \"pid\": 0, \"tid\": 0{args}}}",
                escape(&s.label.text()),
                s.kind.name(),
            ));
        } else {
            events.push(format!(
                "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"i\", \"ts\": {ts:.3}, \
                 \"pid\": 0, \"tid\": 0, \"s\": \"t\"{args}}}",
                escape(&s.label.text()),
                s.kind.name(),
            ));
        }
        if let Some(flow) = s.flow {
            // Only emit the flow start if the device side exists (the
            // command may be a pseudo command or still in flight).
            if device_seqs.contains(&flow) {
                events.push(format!(
                    "  {{\"name\": \"cmd\", \"cat\": \"flow\", \"ph\": \"s\", \"id\": {flow}, \
                     \"ts\": {:.3}, \"pid\": 0, \"tid\": 0}}",
                    s.end_ns as f64 / 1e3,
                ));
            }
        }
    }

    // Device spans + flow ends. `enq` is the host-clock enqueue instant
    // (µs, like `ts`) — the pre-enqueue gap input to stall attribution.
    for t in timeline {
        let ts = t.start_ns as f64 / 1e3;
        events.push(format!(
            "  {{\"name\": \"{}\", \"cat\": \"{:?}\", \"ph\": \"X\", \"ts\": {ts:.3}, \
             \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \
             \"args\": {{\"stream\": {}, \"seq\": {}, \"enq\": {:.3}}}}}",
            escape(&t.label.text()),
            t.kind,
            (t.end_ns - t.start_ns) as f64 / 1e3,
            device_tid(t.kind),
            t.stream,
            t.seq,
            t.enqueue_ns as f64 / 1e3,
        ));
        events.push(format!(
            "  {{\"name\": \"cmd\", \"cat\": \"flow\", \"ph\": \"f\", \"bp\": \"e\", \
             \"id\": {}, \"ts\": {ts:.3}, \"pid\": 1, \"tid\": {}}}",
            t.seq,
            device_tid(t.kind),
        ));
    }

    // Wait records, one span each on the dedicated Waits thread. The
    // span name is the machine-stable cause name so importers can map
    // it back to a [`WaitCause`].
    for w in waits {
        events.push(format!(
            "  {{\"name\": \"{}\", \"cat\": \"wait\", \"ph\": \"X\", \"ts\": {:.3}, \
             \"dur\": {:.3}, \"pid\": 1, \"tid\": 4, \
             \"args\": {{\"stream\": {}}}}}",
            w.cause.name(),
            w.from_ns as f64 / 1e3,
            (w.until_ns - w.from_ns) as f64 / 1e3,
            w.stream,
        ));
    }

    // Counter tracks.
    for c in counters {
        for (t, v) in &c.samples {
            events.push(format!(
                "  {{\"name\": \"{}\", \"ph\": \"C\", \"ts\": {:.3}, \"pid\": 0, \
                 \"args\": {{\"value\": {v}}}}}",
                escape(&c.name),
                *t as f64 / 1e3,
            ));
        }
    }

    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(kind: TimelineKind, stream: usize, start: u64, end: u64) -> TimelineEntry {
        TimelineEntry {
            label: format!("{kind:?}@{start}").into(),
            kind,
            stream,
            start_ns: start,
            end_ns: end,
            seq: start,
            enqueue_ns: start.saturating_sub(1),
        }
    }

    fn sample() -> Vec<TimelineEntry> {
        vec![
            entry(TimelineKind::H2D, 1, 0, 50),
            entry(TimelineKind::H2D, 2, 50, 100),
            entry(TimelineKind::Kernel, 1, 50, 90),
            entry(TimelineKind::D2H, 1, 90, 100),
        ]
    }

    #[test]
    fn utilization_fractions() {
        let u = utilization(&sample());
        assert!((u.h2d - 1.0).abs() < 1e-9);
        assert!((u.kernel - 0.4).abs() < 1e-9);
        assert!((u.d2h - 0.1).abs() < 1e-9);
        assert_eq!(u.makespan, SimTime::from_ns(100));
        assert!((u.aggregate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_timeline_is_handled() {
        let u = utilization(&[]);
        assert_eq!(u.makespan, SimTime::ZERO);
        assert_eq!(u.engines_active, 0);
        assert_eq!(u.aggregate(), 0.0);
        assert_eq!(render_gantt(&[], 40), "(empty timeline)\n");
        // An empty export carries only the process/thread metadata.
        let doc = crate::json::parse(&to_perfetto_trace(&[], &[], &[], &[])).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 7);
        assert!(events.iter().all(|e| e.get("ph").unwrap().as_str() == Some("M")));
    }

    #[test]
    fn aggregate_ignores_absent_engines() {
        // Regression: a run with no D2H at all (e.g. a write-free
        // region) used to divide by 3 and understate utilization.
        let tl = vec![
            entry(TimelineKind::H2D, 0, 0, 100),
            entry(TimelineKind::Kernel, 0, 0, 100),
        ];
        let u = utilization(&tl);
        assert_eq!(u.engines_active, 2);
        assert!((u.aggregate() - 1.0).abs() < 1e-9, "{u:?}");
    }

    #[test]
    fn gantt_rows_reflect_activity() {
        let g = render_gantt(&sample(), 40);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("H2D"));
        // H2D busy the whole makespan → its bar has no spaces inside.
        let h2d_bar: &str = lines[0].split('|').nth(1).unwrap();
        assert!(!h2d_bar.contains(' '), "{h2d_bar:?}");
        // D2H busy only the last 10 % → mostly blank.
        let d2h_bar: &str = lines[1].split('|').nth(1).unwrap();
        assert!(d2h_bar.chars().filter(|c| *c == ' ').count() > 30);
        assert!(lines[0].contains("100.0% busy"));
    }

    #[test]
    fn perfetto_trace_is_loadable_shape_and_escapes_labels() {
        let json = to_perfetto_trace(&sample(), &[], &[], &[]);
        // Object form with nanosecond display, per the Perfetto docs.
        let doc = crate::json::parse(&json).unwrap();
        assert_eq!(doc.get("displayTimeUnit").unwrap().as_str(), Some("ns"));
        // Backward compatibility: the traceEvents payload is still the
        // plain array form older loaders consume.
        let start = json.find('[').unwrap();
        let end = json.rfind(']').unwrap();
        let arr = crate::json::parse(&json[start..=end]).unwrap();
        let spans = arr
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .count();
        assert_eq!(spans, 4);
        assert!(json.contains("\"tid\": 3")); // kernel row
        assert!(json.contains("\"stream\": 2"));
        // Quotes and backslashes in labels must be escaped.
        let tricky = vec![TimelineEntry {
            label: "a\"b\\c".into(),
            kind: TimelineKind::H2D,
            stream: 0,
            start_ns: 0,
            end_ns: 1,
            seq: 0,
            enqueue_ns: 0,
        }];
        let json = to_perfetto_trace(&tricky, &[], &[], &[]);
        assert!(json.contains("a\\\"b\\\\c"));
        let doc = crate::json::parse(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let span = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .unwrap();
        assert_eq!(span.get("name").unwrap().as_str(), Some("a\"b\\c"));
    }

    #[test]
    fn perfetto_trace_has_spans_flows_and_counters() {
        use crate::counters::{HostSpan, HostSpanKind, WaitCause, WaitRecord};
        let tl = sample();
        let host: Vec<HostSpan> = tl
            .iter()
            .map(|t| HostSpan {
                label: t.label.clone(),
                kind: HostSpanKind::Enqueue,
                start_ns: t.enqueue_ns,
                end_ns: t.enqueue_ns + 1,
                flow: Some(t.seq),
            })
            .collect();
        let waits = vec![WaitRecord {
            stream: 1,
            cause: WaitCause::RingReuse,
            from_ns: 40,
            until_ns: 50,
        }];
        let counters = vec![
            CounterTrack {
                name: "device_mem".into(),
                samples: vec![(0, 1024.0), (50, 2048.0)],
            },
            inflight_counter(&tl),
        ];
        let json = to_perfetto_trace(&tl, &host, &waits, &counters);
        let doc = crate::json::parse(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let count_ph = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some(ph))
                .count()
        };
        assert_eq!(count_ph("M"), 7, "2 process + 5 thread names");
        // One flow start per enqueue span, one flow end per device slice.
        assert_eq!(count_ph("s"), tl.len());
        assert_eq!(count_ph("f"), tl.len());
        assert!(count_ph("C") >= 2);
        // Host and device spans both present.
        let span_pids: Vec<f64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .filter_map(|e| e.get("pid").and_then(|p| p.as_f64()))
            .collect();
        assert!(span_pids.contains(&0.0) && span_pids.contains(&1.0));
        // Export completeness for offline re-attribution: host spans
        // carry their flow id, device spans their enqueue instant, and
        // the wait record shows up on the Waits thread by cause name.
        let host_flow = events
            .iter()
            .filter(|e| pid_of(e) == 0)
            .find_map(|e| e.get("args").and_then(|a| a.get("flow")))
            .and_then(|f| f.as_f64());
        assert!(host_flow.is_some());
        let dev = events
            .iter()
            .find(|e| pid_of(e) == 1 && e.get("args").and_then(|a| a.get("enq")).is_some())
            .expect("device span with enq");
        assert!(dev.get("args").unwrap().get("enq").unwrap().as_f64().is_some());
        let wait = events
            .iter()
            .find(|e| e.get("tid").and_then(|t| t.as_f64()) == Some(4.0)
                && e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .expect("wait span on tid 4");
        assert_eq!(wait.get("name").unwrap().as_str(), Some("ring-reuse"));
    }

    fn pid_of(e: &crate::json::Json) -> i64 {
        e.get("pid").and_then(|p| p.as_f64()).unwrap_or(-1.0) as i64
    }

    #[test]
    fn inflight_counter_tracks_pipeline_depth() {
        // Two kernels enqueued at 0 and 10, completing at 50 and 90.
        let tl = vec![
            TimelineEntry {
                label: "k0".into(),
                kind: TimelineKind::Kernel,
                stream: 0,
                start_ns: 20,
                end_ns: 50,
                seq: 0,
                enqueue_ns: 0,
            },
            TimelineEntry {
                label: "k1".into(),
                kind: TimelineKind::Kernel,
                stream: 1,
                start_ns: 50,
                end_ns: 90,
                seq: 1,
                enqueue_ns: 10,
            },
        ];
        let c = inflight_counter(&tl);
        assert_eq!(
            c.samples,
            vec![(0, 1.0), (10, 2.0), (50, 1.0), (90, 0.0)]
        );
    }

    #[test]
    fn zero_duration_entry_at_span_end_does_not_panic() {
        // Regression: a zero-cost command completing exactly at the end
        // of the span used to hit `clamp(a + 1, width)` with a == width.
        let tl = vec![
            entry(TimelineKind::H2D, 0, 0, 100),
            entry(TimelineKind::Kernel, 0, 100, 100),
        ];
        let g = render_gantt(&tl, 40);
        assert!(g.contains("Kernel"));
        let u = utilization(&tl);
        assert_eq!(u.kernel, 0.0);
    }

    #[test]
    fn gantt_from_a_real_run_shows_overlap() {
        use crate::{DeviceProfile, ExecMode, Gpu};
        let mut gpu = Gpu::new(DeviceProfile::uniform_test(), ExecMode::Timing).unwrap();
        let h = gpu.alloc_host(2_000_000, true).unwrap();
        let d = gpu.alloc(2_000_000).unwrap();
        let s1 = gpu.create_stream().unwrap();
        let s2 = gpu.create_stream().unwrap();
        gpu.memcpy_h2d_async(s1, h, 0, d, 1_000_000).unwrap();
        gpu.memcpy_d2h_async(s2, d.add(1_000_000), 1_000_000, h, 1_000_000)
            .unwrap();
        gpu.synchronize().unwrap();
        let u = utilization(gpu.timeline());
        // Perfect bidirectional overlap on the uniform profile.
        assert!((u.h2d - 1.0).abs() < 1e-6, "{u:?}");
        assert!((u.d2h - 1.0).abs() < 1e-6, "{u:?}");
        let g = render_gantt(gpu.timeline(), 30);
        assert!(g.contains("100.0% busy"));
    }
}
