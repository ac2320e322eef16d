//! Trace read-side: import a Perfetto document exported by
//! [`gpsim::to_perfetto_trace`] back into typed records, recompute
//! stall attribution / utilization / per-stage histograms offline, and
//! diff two traces for perf-regression triage.
//!
//! The export is complete (device spans carry their enqueue instant,
//! host spans their flow id, wait records their cause), so the offline
//! analyzer reproduces the live attributor bit-for-bit: timestamps are
//! written as microseconds with three decimals — exact nanosecond
//! decimals — and read back with a single rounding per field.

use std::borrow::Cow;
use std::fmt::Write as _;

use gpsim::json::{parse, Json};
use gpsim::{
    attribute_stalls, utilization, CounterTrack, EngineKind, HostSpan, HostSpanKind, SimTime,
    StallCause, StallReport, TimelineEntry, TimelineKind, Utilization, WaitCause, WaitRecord,
    ELEM_BYTES,
};

use crate::metrics::StageMetrics;

/// One copy command recovered from a trace: total bytes, row structure
/// (rows == 1 for contiguous 1-D copies), and measured duration. The
/// byte counts come from the command labels (`h2d[elems]`,
/// `h2d2d[rows x row_elems]`), which encode element counts exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopySample {
    /// Number of rows (1 for a contiguous copy).
    pub rows: u64,
    /// Bytes per row.
    pub row_bytes: u64,
    /// Measured duration in ns.
    pub dur_ns: u64,
}

impl CopySample {
    /// Total bytes moved.
    pub fn bytes(&self) -> u64 {
        self.rows * self.row_bytes
    }
}

/// A Perfetto trace document parsed back into the simulator's typed
/// observability records.
#[derive(Debug, Clone, Default)]
pub struct ImportedTrace {
    /// Device command spans, in document order.
    pub timeline: Vec<TimelineEntry>,
    /// Host runtime spans, in document order.
    pub host_spans: Vec<HostSpan>,
    /// Stream wait records (spans on the dedicated `Waits` thread).
    pub waits: Vec<WaitRecord>,
    /// Counter tracks, grouped by name in first-appearance order.
    pub counters: Vec<CounterTrack>,
    /// Flow ids with a `ph:"s"` begin event (host→device links).
    pub flow_begins: Vec<u64>,
}

fn ns(us: f64) -> u64 {
    (us * 1000.0).round() as u64
}

fn num(e: &Json, key: &str) -> Option<f64> {
    e.get(key).and_then(Json::as_f64)
}

fn arg_num(e: &Json, key: &str) -> Option<f64> {
    e.get("args").and_then(|a| a.get(key)).and_then(Json::as_f64)
}

fn device_kind(tid: u32) -> Option<TimelineKind> {
    match tid {
        1 => Some(TimelineKind::H2D),
        2 => Some(TimelineKind::D2H),
        3 => Some(TimelineKind::Kernel),
        _ => None,
    }
}

/// Parse `h2d[elems]` / `d2h2d[rows x row_elems]`-shaped copy labels into
/// `(rows, row_elems)`.
fn parse_copy_label(label: &str) -> Option<(u64, u64)> {
    let open = label.find('[')?;
    let close = label.rfind(']')?;
    let body = label.get(open + 1..close)?;
    match &label[..open] {
        "h2d" | "d2h" => body.parse::<u64>().ok().map(|e| (1, e)),
        "h2d2d" | "d2h2d" => {
            let (r, c) = body.split_once('x')?;
            Some((r.parse().ok()?, c.parse().ok()?))
        }
        _ => None,
    }
}

impl ImportedTrace {
    /// Parse a Perfetto JSON document produced by
    /// [`gpsim::to_perfetto_trace`]. Fails with a descriptive message on
    /// malformed JSON, a missing `traceEvents` array, or device events
    /// with unrecognizable thread ids / wait causes.
    pub fn parse(doc: &str) -> Result<ImportedTrace, String> {
        let root = parse(doc)?;
        let events = root
            .get("traceEvents")
            .and_then(Json::as_arr)
            .ok_or_else(|| "missing traceEvents array".to_string())?;
        let mut out = ImportedTrace::default();
        for (i, e) in events.iter().enumerate() {
            let ph = e.get("ph").and_then(Json::as_str).unwrap_or("");
            match ph {
                "X" | "i" => out.read_span(e, i)?,
                "C" => out.read_counter(e, i)?,
                "s" => {
                    let id = num(e, "id").ok_or_else(|| format!("event {i}: flow without id"))?;
                    out.flow_begins.push(id as u64);
                }
                // Metadata ("M") and flow ends ("f") carry nothing the
                // typed records don't already encode.
                _ => {}
            }
        }
        Ok(out)
    }

    fn read_span(&mut self, e: &Json, i: usize) -> Result<(), String> {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: span without name"))?;
        let pid = num(e, "pid").ok_or_else(|| format!("event {i}: span without pid"))? as i64;
        let start_ns = ns(num(e, "ts").ok_or_else(|| format!("event {i}: span without ts"))?);
        // Sum rounded parts rather than rounding the sum so start/end
        // land on the exact exported nanoseconds.
        let end_ns = start_ns + ns(num(e, "dur").unwrap_or(0.0));
        if pid == 0 {
            let kind = e
                .get("cat")
                .and_then(Json::as_str)
                .and_then(HostSpanKind::from_name)
                .ok_or_else(|| format!("event {i}: host span with unknown category"))?;
            self.host_spans.push(HostSpan {
                label: Cow::Owned(name.to_string()),
                kind,
                start_ns,
                end_ns,
                flow: arg_num(e, "flow").map(|f| f as u64),
            });
            return Ok(());
        }
        let tid = num(e, "tid").unwrap_or(-1.0) as i64;
        if tid == 4 {
            let cause = WaitCause::from_name(name)
                .ok_or_else(|| format!("event {i}: unknown wait cause '{name}'"))?;
            self.waits.push(WaitRecord {
                stream: arg_num(e, "stream").unwrap_or(0.0) as usize,
                cause,
                from_ns: start_ns,
                until_ns: end_ns,
            });
            return Ok(());
        }
        let kind = device_kind(tid as u32)
            .ok_or_else(|| format!("event {i}: device span on unknown tid {tid}"))?;
        self.timeline.push(TimelineEntry {
            label: Cow::Owned(name.to_string()),
            kind,
            stream: arg_num(e, "stream").unwrap_or(0.0) as usize,
            start_ns,
            end_ns,
            seq: arg_num(e, "seq").unwrap_or(0.0) as u64,
            enqueue_ns: arg_num(e, "enq").map(ns).unwrap_or(start_ns),
        });
        Ok(())
    }

    fn read_counter(&mut self, e: &Json, i: usize) -> Result<(), String> {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: counter without name"))?;
        let t = ns(num(e, "ts").ok_or_else(|| format!("event {i}: counter without ts"))?);
        let v = arg_num(e, "value").ok_or_else(|| format!("event {i}: counter without value"))?;
        match self.counters.iter_mut().find(|c| c.name == name) {
            Some(c) => c.samples.push((t, v)),
            None => self.counters.push(CounterTrack {
                name: name.to_string(),
                samples: vec![(t, v)],
            }),
        }
        Ok(())
    }

    /// Structural self-validation, shared by every Perfetto-reading path
    /// in the repo: each device command must have a matching flow begin
    /// (host→device correlation is complete) and at least two counter
    /// tracks must be present.
    pub fn validate(&self) -> Result<(), String> {
        for t in &self.timeline {
            if !self.flow_begins.contains(&t.seq) {
                return Err(format!(
                    "device slice seq {} ({}) has no flow begin",
                    t.seq, t.label
                ));
            }
        }
        if self.counters.len() < 2 {
            return Err(format!(
                "expected >= 2 counter tracks, found {}",
                self.counters.len()
            ));
        }
        Ok(())
    }

    /// Merged busy intervals of one engine, sorted and disjoint — the
    /// per-engine interval schedule recovered from the document.
    pub fn engine_schedule(&self, kind: TimelineKind) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self
            .timeline
            .iter()
            .filter(|t| t.kind == kind && t.end_ns > t.start_ns)
            .map(|t| (t.start_ns, t.end_ns))
            .collect();
        v.sort_unstable();
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(v.len());
        for (a, b) in v {
            match out.last_mut() {
                Some(last) if a <= last.1 => last.1 = last.1.max(b),
                _ => out.push((a, b)),
            }
        }
        out
    }

    /// Copy samples (bytes + duration) for one copy engine, recovered
    /// from command labels. Labels that do not encode a size (e.g.
    /// `memset`, `d2d`) are skipped.
    pub fn copy_samples(&self, kind: TimelineKind) -> Vec<CopySample> {
        self.timeline
            .iter()
            .filter(|t| t.kind == kind)
            .filter_map(|t| {
                let (rows, row_elems) = parse_copy_label(&t.label)?;
                Some(CopySample {
                    rows,
                    row_bytes: row_elems * ELEM_BYTES,
                    dur_ns: t.end_ns - t.start_ns,
                })
            })
            .collect()
    }

    /// Copy samples for one copy engine split into `(clean, contended)`
    /// by the simulator's own duplex rule: a copy dispatched while the
    /// opposite copy engine is busy runs at `duplex_factor` bandwidth
    /// for its whole duration. Contention is therefore decided at the
    /// span's *start* instant — a copy whose dispatch found the
    /// opposite engine idle is clean even if the opposite engine starts
    /// up mid-transfer. Kernel kind yields two empty vectors.
    pub fn copy_samples_split(&self, kind: TimelineKind) -> (Vec<CopySample>, Vec<CopySample>) {
        let opposite = match kind {
            TimelineKind::H2D => TimelineKind::D2H,
            TimelineKind::D2H => TimelineKind::H2D,
            TimelineKind::Kernel => return (Vec::new(), Vec::new()),
        };
        let other = self.engine_schedule(opposite);
        let busy_at = |t: u64| -> bool {
            let i = other.partition_point(|&(s, _)| s <= t);
            i > 0 && other[i - 1].1 > t
        };
        let (mut clean, mut contended) = (Vec::new(), Vec::new());
        for t in self.timeline.iter().filter(|t| t.kind == kind) {
            let Some((rows, row_elems)) = parse_copy_label(&t.label) else {
                continue;
            };
            let sample = CopySample {
                rows,
                row_bytes: row_elems * ELEM_BYTES,
                dur_ns: t.end_ns - t.start_ns,
            };
            if busy_at(t.start_ns) {
                contended.push(sample);
            } else {
                clean.push(sample);
            }
        }
        (clean, contended)
    }

    /// Recompute the run's derived observability purely from the
    /// imported records — the same attribution, utilization, and
    /// histograms the live run computed.
    pub fn analyze(&self) -> TraceAnalysis {
        let busy = |kind: TimelineKind| -> SimTime {
            SimTime::from_ns(
                self.timeline
                    .iter()
                    .filter(|t| t.kind == kind)
                    .map(|t| t.end_ns - t.start_ns)
                    .sum(),
            )
        };
        let start = self
            .timeline
            .iter()
            .map(|t| t.start_ns)
            .chain(self.host_spans.iter().map(|s| s.start_ns))
            .min()
            .unwrap_or(0);
        let end = self
            .timeline
            .iter()
            .map(|t| t.end_ns)
            .chain(self.host_spans.iter().map(|s| s.end_ns))
            .max()
            .unwrap_or(0);
        let api: Vec<u64> = self
            .host_spans
            .iter()
            .filter(|s| s.kind == HostSpanKind::Enqueue)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        TraceAnalysis {
            stalls: attribute_stalls(&self.timeline, &self.waits),
            utilization: utilization(&self.timeline),
            stage_metrics: StageMetrics::from_run(&self.timeline, &self.waits),
            busy_h2d: busy(TimelineKind::H2D),
            busy_d2h: busy(TimelineKind::D2H),
            busy_kernel: busy(TimelineKind::Kernel),
            total: SimTime::from_ns(end - start),
            api_overhead: SimTime::from_ns(median(api)),
        }
    }
}

fn median(mut v: Vec<u64>) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    v[v.len() / 2]
}

/// Derived observability recomputed offline from an [`ImportedTrace`].
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    /// Per-engine stall attribution (bit-identical to the live run's).
    pub stalls: StallReport,
    /// Per-engine busy fractions over the device makespan.
    pub utilization: Utilization,
    /// Per-stage latency histograms (identical to the live run's).
    pub stage_metrics: StageMetrics,
    /// Total H2D engine busy time.
    pub busy_h2d: SimTime,
    /// Total D2H engine busy time.
    pub busy_d2h: SimTime,
    /// Total compute engine busy time.
    pub busy_kernel: SimTime,
    /// Full window including host spans (first start to last end) —
    /// the offline stand-in for the live run's end-to-end total.
    pub total: SimTime,
    /// Median duration of host enqueue spans. On the simulator an
    /// enqueue span covers exactly one driver API call, so this
    /// recovers [`DeviceProfile::api_overhead`](gpsim::DeviceProfile)
    /// directly.
    pub api_overhead: SimTime,
}

/// One span-level regression between two aligned traces.
#[derive(Debug, Clone)]
pub struct SpanDelta {
    /// Command label (from trace B).
    pub label: String,
    /// Flow / sequence id the spans were aligned on.
    pub seq: u64,
    /// Duration in trace A (ns).
    pub dur_a_ns: u64,
    /// Duration in trace B (ns).
    pub dur_b_ns: u64,
}

impl SpanDelta {
    /// Signed duration change B − A in ns.
    pub fn delta_ns(&self) -> i64 {
        self.dur_b_ns as i64 - self.dur_a_ns as i64
    }
}

/// Result of aligning two traces by flow id: per-engine busy and
/// per-stall-bucket deltas, plus the largest aligned span regressions.
#[derive(Debug, Clone)]
pub struct TraceDiff {
    /// Baseline attribution (trace A).
    pub a: StallReport,
    /// Candidate attribution (trace B).
    pub b: StallReport,
    /// Device spans matched by sequence id.
    pub matched: usize,
    /// Device spans present only in trace A.
    pub only_a: usize,
    /// Device spans present only in trace B.
    pub only_b: usize,
    /// Matched spans with a duration change, sorted by |delta| (largest
    /// first), truncated to the top 8.
    pub top_span_deltas: Vec<SpanDelta>,
}

impl TraceDiff {
    /// Makespan change B − A in ns.
    pub fn makespan_delta_ns(&self) -> i64 {
        self.b.makespan_ns() as i64 - self.a.makespan_ns() as i64
    }

    /// Busy-time change B − A for one engine, in ns.
    pub fn busy_delta_ns(&self, engine: EngineKind) -> i64 {
        self.b.engine(engine).busy_ns as i64 - self.a.engine(engine).busy_ns as i64
    }

    /// Stall-bucket change B − A for one engine, in ns.
    pub fn stall_delta_ns(&self, engine: EngineKind, cause: StallCause) -> i64 {
        self.b.engine(engine).stall(cause) as i64 - self.a.engine(engine).stall(cause) as i64
    }

    /// Stall-bucket change B − A summed over all engines, in ns.
    pub fn total_stall_delta_ns(&self, cause: StallCause) -> i64 {
        EngineKind::ALL
            .iter()
            .map(|&e| self.stall_delta_ns(e, cause))
            .sum()
    }
}

/// Align two imported traces by flow id and report per-engine and
/// per-stall-bucket deltas (B − A).
pub fn diff_traces(a: &ImportedTrace, b: &ImportedTrace) -> TraceDiff {
    let by_seq = |tr: &ImportedTrace| -> std::collections::HashMap<u64, (String, u64)> {
        tr.timeline
            .iter()
            .map(|t| (t.seq, (t.label.to_string(), t.end_ns - t.start_ns)))
            .collect()
    };
    let sa = by_seq(a);
    let sb = by_seq(b);
    let mut deltas: Vec<SpanDelta> = Vec::new();
    let mut matched = 0usize;
    for (seq, (label, dur_b)) in &sb {
        if let Some((_, dur_a)) = sa.get(seq) {
            matched += 1;
            if dur_a != dur_b {
                deltas.push(SpanDelta {
                    label: label.clone(),
                    seq: *seq,
                    dur_a_ns: *dur_a,
                    dur_b_ns: *dur_b,
                });
            }
        }
    }
    deltas.sort_by_key(|d| (std::cmp::Reverse(d.delta_ns().unsigned_abs()), d.seq));
    deltas.truncate(8);
    TraceDiff {
        a: attribute_stalls(&a.timeline, &a.waits),
        b: attribute_stalls(&b.timeline, &b.waits),
        matched,
        only_a: sa.len() - matched,
        only_b: sb.len() - matched,
        top_span_deltas: deltas,
    }
}

fn fmt_delta(ns: i64) -> String {
    let sign = if ns < 0 { "-" } else { "+" };
    format!("{sign}{}", SimTime::from_ns(ns.unsigned_abs()))
}

/// Render a [`TraceDiff`] as an attribution-delta table (B − A), the
/// `figures calibrate --diff` output.
pub fn render_diff(d: &TraceDiff) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "makespan {} -> {} ({}); spans matched {}, only-A {}, only-B {}",
        SimTime::from_ns(d.a.makespan_ns()),
        SimTime::from_ns(d.b.makespan_ns()),
        fmt_delta(d.makespan_delta_ns()),
        d.matched,
        d.only_a,
        d.only_b,
    );
    let _ = writeln!(
        out,
        "{:<8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "engine", "busy", "wait-h2d", "wait-d2h", "wait-comp", "ring-slot", "wait-retry", "host-api"
    );
    for (engine, label) in [
        (EngineKind::H2D, "H2D"),
        (EngineKind::D2H, "D2H"),
        (EngineKind::Compute, "Compute"),
    ] {
        let _ = write!(out, "{label:<8} {:>12}", fmt_delta(d.busy_delta_ns(engine)));
        for cause in StallCause::ALL {
            let _ = write!(out, " {:>12}", fmt_delta(d.stall_delta_ns(engine, cause)));
        }
        out.push('\n');
    }
    if !d.top_span_deltas.is_empty() {
        let _ = writeln!(out, "largest aligned span changes:");
        for s in &d.top_span_deltas {
            let _ = writeln!(
                out,
                "  seq {:>6} {:<20} {} -> {} ({})",
                s.seq,
                s.label,
                SimTime::from_ns(s.dur_a_ns),
                SimTime::from_ns(s.dur_b_ns),
                fmt_delta(s.delta_ns()),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsim::to_perfetto_trace;

    fn entry(
        kind: TimelineKind,
        label: &str,
        stream: usize,
        seq: u64,
        enq: u64,
        start: u64,
        end: u64,
    ) -> TimelineEntry {
        TimelineEntry {
            label: label.to_string().into(),
            kind,
            stream,
            start_ns: start,
            end_ns: end,
            seq,
            enqueue_ns: enq,
        }
    }

    fn sample_records() -> (Vec<TimelineEntry>, Vec<HostSpan>, Vec<WaitRecord>, Vec<CounterTrack>) {
        let tl = vec![
            entry(TimelineKind::H2D, "h2d[1024]", 0, 1, 5, 10, 110),
            entry(TimelineKind::Kernel, "conv", 0, 2, 15, 110, 210),
            entry(TimelineKind::D2H, "d2h[1024]", 1, 3, 25, 210, 260),
            entry(TimelineKind::H2D, "h2d2d[4x256]", 1, 4, 30, 110, 215),
        ];
        let host = vec![
            HostSpan {
                label: "h2d[1024]".into(),
                kind: HostSpanKind::Enqueue,
                start_ns: 0,
                end_ns: 5,
                flow: Some(1),
            },
            HostSpan {
                label: "plan".into(),
                kind: HostSpanKind::Plan,
                start_ns: 5,
                end_ns: 5,
                flow: None,
            },
            HostSpan {
                label: "synchronize".into(),
                kind: HostSpanKind::Sync,
                start_ns: 30,
                end_ns: 260,
                flow: None,
            },
        ];
        let waits = vec![
            WaitRecord {
                stream: 1,
                cause: WaitCause::RingReuse,
                from_ns: 60,
                until_ns: 110,
            },
            WaitRecord {
                stream: 0,
                cause: WaitCause::Retry,
                from_ns: 200,
                until_ns: 210,
            },
        ];
        let counters = vec![
            CounterTrack {
                name: "device_mem_bytes".into(),
                samples: vec![(0, 4096.0), (110, 8192.0)],
            },
            CounterTrack {
                name: "in_flight_chunks".into(),
                samples: vec![(5, 1.0), (210, 0.0)],
            },
        ];
        (tl, host, waits, counters)
    }

    #[test]
    fn import_round_trips_every_record_exactly() {
        let (tl, host, waits, counters) = sample_records();
        let doc = to_perfetto_trace(&tl, &host, &waits, &counters);
        let imp = ImportedTrace::parse(&doc).expect("import");

        assert_eq!(imp.timeline.len(), tl.len());
        for (a, b) in imp.timeline.iter().zip(tl.iter()) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.stream, b.stream);
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.start_ns, b.start_ns);
            assert_eq!(a.end_ns, b.end_ns);
            assert_eq!(a.enqueue_ns, b.enqueue_ns);
        }
        assert_eq!(imp.host_spans.len(), host.len());
        for (a, b) in imp.host_spans.iter().zip(host.iter()) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.start_ns, b.start_ns);
            assert_eq!(a.end_ns, b.end_ns);
            assert_eq!(a.flow, b.flow);
        }
        assert_eq!(imp.waits.len(), waits.len());
        for (a, b) in imp.waits.iter().zip(waits.iter()) {
            assert_eq!(a.stream, b.stream);
            assert_eq!(a.cause, b.cause);
            assert_eq!(a.from_ns, b.from_ns);
            assert_eq!(a.until_ns, b.until_ns);
        }
        assert_eq!(imp.counters.len(), 2);
        assert_eq!(imp.counters[0].samples, counters[0].samples);
        assert_eq!(imp.flow_begins, vec![1]);

        // Offline derived observability matches the live computations.
        let analysis = imp.analyze();
        assert_eq!(analysis.stalls, attribute_stalls(&tl, &waits));
        assert_eq!(analysis.stage_metrics, StageMetrics::from_run(&tl, &waits));
        assert_eq!(analysis.busy_h2d, SimTime::from_ns(100 + 105));
        assert_eq!(analysis.total, SimTime::from_ns(260));
        assert_eq!(analysis.api_overhead, SimTime::from_ns(5));
    }

    #[test]
    fn copy_samples_recover_bytes_from_labels() {
        let (tl, host, waits, counters) = sample_records();
        let doc = to_perfetto_trace(&tl, &host, &waits, &counters);
        let imp = ImportedTrace::parse(&doc).unwrap();
        let h2d = imp.copy_samples(TimelineKind::H2D);
        assert_eq!(h2d.len(), 2);
        assert_eq!(h2d[0].bytes(), 1024 * ELEM_BYTES);
        assert_eq!(h2d[0].rows, 1);
        assert_eq!(h2d[1].rows, 4);
        assert_eq!(h2d[1].row_bytes, 256 * ELEM_BYTES);
        // The kernel label encodes no size.
        assert!(imp.copy_samples(TimelineKind::Kernel).is_empty());
    }

    #[test]
    fn engine_schedule_merges_overlapping_spans() {
        let (tl, host, waits, counters) = sample_records();
        let doc = to_perfetto_trace(&tl, &host, &waits, &counters);
        let imp = ImportedTrace::parse(&doc).unwrap();
        // The two H2D spans [10,110) and [110,215) touch → one interval.
        assert_eq!(imp.engine_schedule(TimelineKind::H2D), vec![(10, 215)]);
        assert_eq!(imp.engine_schedule(TimelineKind::D2H), vec![(210, 260)]);
    }

    #[test]
    fn validate_flags_missing_flows_and_counters() {
        let (tl, host, waits, counters) = sample_records();
        let doc = to_perfetto_trace(&tl, &host, &waits, &counters);
        let imp = ImportedTrace::parse(&doc).unwrap();
        // Seqs 2..4 have no enqueue host span → no flow begins for them.
        assert!(imp.validate().unwrap_err().contains("no flow begin"));

        let host_all: Vec<HostSpan> = tl
            .iter()
            .map(|t| HostSpan {
                label: t.label.clone(),
                kind: HostSpanKind::Enqueue,
                start_ns: t.enqueue_ns,
                end_ns: t.enqueue_ns + 2,
                flow: Some(t.seq),
            })
            .collect();
        let doc = to_perfetto_trace(&tl, &host_all, &waits, &counters);
        let imp = ImportedTrace::parse(&doc).unwrap();
        assert!(imp.validate().is_ok());

        let doc = to_perfetto_trace(&tl, &host_all, &waits, &counters[..1]);
        let imp = ImportedTrace::parse(&doc).unwrap();
        assert!(imp.validate().unwrap_err().contains("counter tracks"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(ImportedTrace::parse("not json").is_err());
        assert!(ImportedTrace::parse("{\"noTraceEvents\": []}").is_err());
        // Unknown device tid.
        let doc = "{\"traceEvents\": [{\"name\": \"x\", \"ph\": \"X\", \"ts\": 0, \
                    \"dur\": 1, \"pid\": 1, \"tid\": 9}]}";
        assert!(ImportedTrace::parse(doc).unwrap_err().contains("unknown tid"));
    }

    #[test]
    fn diff_reports_wait_h2d_delta_when_h2d_slows() {
        let (tl, host, waits, counters) = sample_records();
        let doc_a = to_perfetto_trace(&tl, &host, &waits, &counters);
        // Slow the first H2D copy 3×: the kernel (seq 2) now starts
        // late, so the compute engine's wait-h2d bucket must grow.
        let mut slow = tl.clone();
        slow[0].end_ns = 310; // was 110
        slow[1].start_ns = 310;
        slow[1].end_ns = 410;
        slow[2].start_ns = 410;
        slow[2].end_ns = 460;
        slow[3].start_ns = 310;
        slow[3].end_ns = 415;
        let doc_b = to_perfetto_trace(&slow, &host, &[], &counters);
        let a = ImportedTrace::parse(&doc_a).unwrap();
        let b = ImportedTrace::parse(&doc_b).unwrap();
        let d = diff_traces(&a, &b);
        assert_eq!(d.matched, 4);
        assert!(d.makespan_delta_ns() > 0);
        assert!(
            d.total_stall_delta_ns(StallCause::WaitingOnH2D) > 0,
            "{:?}",
            d
        );
        assert!(d.busy_delta_ns(EngineKind::H2D) > 0);
        assert_eq!(d.top_span_deltas[0].label, "h2d[1024]");
        let table = render_diff(&d);
        assert!(table.contains("wait-h2d"));
        assert!(table.contains("seq "));
    }
}
