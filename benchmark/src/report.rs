//! Metric names and units, statistics helpers, the host fingerprint and
//! the result line.

use std::collections::BTreeMap;

use pipeline_rt::Histogram;

/// End-to-end metrics (printed by untraced runs), as listed in
/// `BENCHMARK.json`: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_speedup", "x"),
    ("sim_mem_ratio", "x"),
    ("paper_err", "fraction"),
    ("model_err", "fraction"),
    ("sim_goodput", "1/s"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p99_ms", "ms"),
    ("deadline_met_rate", "fraction"),
    ("admit_rate", "fraction"),
    ("jain", "index"),
];

/// Layers named by their module, in report order.
pub const LAYERS: &[&str] = &[
    "directive",
    "apps",
    "plan",
    "run",
    "costmodel",
    "sweep",
    "gpsim",
    "serve",
    "bench",
];

/// Per-layer metrics (printed by traced runs): name and unit. Layer
/// self/inclusive times are appended from [`LAYERS`].
pub const PER_LAYER: &[(&str, &str)] = &[
    ("directive.parse_us", "us"),
    ("apps.setup_ms", "ms"),
    ("apps.kernel_ns_per_elem.conv3d", "ns"),
    ("apps.kernel_ns_per_elem.stencil", "ns"),
    ("apps.kernel_ns_per_elem.qcd", "ns"),
    ("apps.kernel_ns_per_elem.gemm", "ns"),
    ("plan.compile_ms", "ms"),
    ("plan.reuse_ratio", "fraction"),
    ("run.host_ms.naive", "ms"),
    ("run.host_ms.pipelined", "ms"),
    ("run.host_ms.buffer", "ms"),
    ("run.host_ms.auto", "ms"),
    ("run.host_ns_per_cmd", "ns"),
    ("gpsim.commands", "count"),
    ("gpsim.busy_frac.h2d", "fraction"),
    ("gpsim.busy_frac.d2h", "fraction"),
    ("gpsim.busy_frac.compute", "fraction"),
    ("gpsim.stall_frac.wait_h2d", "fraction"),
    ("gpsim.stall_frac.wait_d2h", "fraction"),
    ("gpsim.stall_frac.wait_compute", "fraction"),
    ("gpsim.stall_frac.ring_slot", "fraction"),
    ("gpsim.stall_frac.retry_backoff", "fraction"),
    ("gpsim.stall_frac.host_api", "fraction"),
    ("gpsim.device_mem_mb.naive", "MB"),
    ("gpsim.device_mem_mb.pipelined", "MB"),
    ("gpsim.device_mem_mb.buffer", "MB"),
    ("costmodel.predict_us", "us"),
    ("autotune.ms", "ms"),
    ("autotune.des_trials", "count"),
    ("sweep.threads", "count"),
    ("sweep.busy_frac", "fraction"),
    ("serve.generate_ms", "ms"),
    ("serve.fleet_build_ms", "ms"),
    ("serve.calibrate_ms", "ms"),
    ("serve.serve_ms", "ms"),
    ("serve.verify_share", "fraction"),
    ("serve.slices_per_job", "count"),
    ("serve.preempted_frac", "fraction"),
    ("serve.verified", "count"),
    ("serve.verify_ok_ratio", "fraction"),
    ("serve.failed_slices", "count"),
    ("serve.recovered", "count"),
    ("serve.degraded_slices", "count"),
    ("serve.breaker_trips", "count"),
    ("serve.rejected.over_quota", "count"),
    ("serve.rejected.overload", "count"),
    ("serve.rejected.infeasible", "count"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.peak_live_mb", "MB"),
    ("trace.coverage", "fraction"),
    ("trace.overhead", "fraction"),
];

/// Name of the self-time metric of `layer`.
pub fn self_metric(layer: &str) -> String {
    format!("layer.{layer}.self_ms")
}

/// Name of the inclusive-time metric of `layer`.
pub fn incl_metric(layer: &str) -> String {
    format!("layer.{layer}.incl_ms")
}

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for l in LAYERS {
        out.push((self_metric(l), "ms"));
        out.push((incl_metric(l), "ms"));
    }
    out
}

/// Metric values of one run, keyed by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    /// Set `name` to `value`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Median of `xs` (mean of the middle two for even length); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Arithmetic mean of `xs`; 0 if empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Nearest-rank quantile of `xs` for `q` in `(0, 1]`; 0 if empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Geometric mean of positive `xs`; 0 if empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Quantile `q` of a log2 histogram, in ns, interpolated linearly within
/// the bucket that holds the quantile rank.
///
/// [`Histogram::quantile_ns`] reports only the bucket's upper bound, so
/// a median near a power of two flips by 2× between streams. The bucket
/// counts are recovered from it rank by rank (each rank's sample lies in
/// the bucket whose bound `quantile_ns` returns), and the quantile is
/// placed at its rank's position inside that bucket's range, the top of
/// which is capped at the exact maximum.
pub fn hist_quantile_ns(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let bucket_of = |rank: u64| {
        let bound = h.quantile_ns((rank as f64 - 0.5) / n as f64);
        63 - bound.max(1).leading_zeros() as usize
    };
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let b = bucket_of(rank);
    // First and last rank in bucket b (ranks are sorted by bucket).
    let first = partition_point(1, rank, |r| bucket_of(r) < b);
    let last = partition_point(rank, n + 1, |r| bucket_of(r) <= b) - 1;
    let lo = if b == 0 { 0.0 } else { (1u64 << b) as f64 };
    let hi = if b >= 63 {
        u64::MAX
    } else {
        (1u64 << (b + 1)) - 1
    }
    .min(h.max_ns()) as f64;
    let in_bucket = (last - first + 1) as f64;
    lo + (hi - lo) * ((rank - first) as f64 + 0.5) / in_bucket
}

/// First `r` in `[lo, hi)` with `!pred(r)`, for `pred` true then false.
fn partition_point(mut lo: u64, mut hi: u64, pred: impl Fn(u64) -> bool) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Format `v` for JSON: every digit of the f64, never NaN or infinite.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".into()
    }
}

/// Escape `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and the `names`
/// metrics with their units.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    names: &[(String, &str)],
) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|(n, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(metrics.get(n).unwrap_or(f64::NAN)),
                json_str(u)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Reference-loop speed [`NOMINAL_SPEED`] host seconds are rescaled to.
///
/// The 2-vCPU VM this benchmark was tuned on runs the loop at about
/// 50 k iterations per CPU second in its slow regime and about 75 k in
/// its fast one.
pub const NOMINAL_SPEED: f64 = 50_000.0;

/// How fast this host runs right now: iterations per second of `clock`
/// of a fixed integer loop (multiply-add with a dependent gather over a
/// 128 KiB array), timed over 5 ms of that clock.
///
/// Host speed on a shared machine switches between regimes for seconds
/// to minutes at a time (another guest on the same core). Host times are
/// multiplied by this speed, measured on the same clock just before and
/// after them, and divided by [`NOMINAL_SPEED`], which cancels the
/// regime: the loop is the benchmark's own code, so no change to the
/// program moves it.
pub fn host_speed(clock: fn() -> f64) -> f64 {
    let mut v: Vec<u64> = (0..1 << 14).collect();
    let start = clock();
    let mut iterations = 0u64;
    loop {
        for j in 0..v.len() {
            v[j] = v[j]
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(v[(j * 7) & 0x3fff]);
        }
        iterations += 1;
        let secs = clock() - start;
        if secs >= 0.005 {
            std::hint::black_box(&v);
            return iterations as f64 / secs;
        }
    }
}

/// [`host_speed`] on the wall clock, run on `threads` threads at once
/// and averaged: the speed of the whole set of cores a parallel pass
/// runs on, including time the host gives to other guests.
pub fn parallel_wall_speed(threads: usize) -> f64 {
    let speeds: Vec<f64> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| s.spawn(|| host_speed(wall_seconds)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("reference loop panicked"))
            .collect()
    });
    mean(&speeds)
}

/// Run `f`, which returns a result and the host seconds it measured,
/// and rescale those seconds to the nominal host with `speed`, the
/// reference loop's speed on the clock `f` measured with, taken just
/// before and after the call.
pub fn nominal<T>(speed: impl Fn() -> f64, f: impl FnOnce() -> (T, f64)) -> (T, f64) {
    let before = speed();
    let (out, secs) = f();
    let speed = (before + speed()) / 2.0;
    (out, secs * speed / NOMINAL_SPEED)
}

/// Wall-clock seconds since the first call.
pub fn wall_seconds() -> f64 {
    static EPOCH: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    EPOCH
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_secs_f64()
}

/// CPU time consumed so far by every thread of this process, in
/// seconds (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// Single-threaded host metrics are measured on this clock rather than
/// the wall clock: on a shared virtual machine the wall clock also
/// counts time the hypervisor gave to other guests. A parallel pass is
/// timed on the wall clock instead, since CPU time summed over its
/// workers cannot see whether they ran at once.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of
    // 64-bit Linux, and the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall-clock seconds, where no process CPU clock is available.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_seconds() -> f64 {
    wall_seconds()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_histogram_quantile_stays_in_its_bucket_and_is_monotone() {
        let mut h = Histogram::default();
        for v in [3u64, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 40, 1000] {
            h.record(v);
        }
        let mut prev = 0.0;
        for i in 1..=20 {
            let q = i as f64 / 20.0;
            let v = hist_quantile_ns(&h, q);
            assert!(v >= prev, "not monotone at q={q}: {v} < {prev}");
            let bound = h.quantile_ns(q) as f64;
            assert!(
                v <= bound && v >= (bound + 1.0) / 2.0 - 1.0,
                "q={q}: {v} outside bucket ≤{bound}"
            );
            prev = v;
        }
        assert!(hist_quantile_ns(&h, 1.0) <= 1000.0);
    }

    #[test]
    fn median_quantile_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.99), 4.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut m = Metrics::default();
        m.set("a", 0.1 + 0.2);
        m.set("b", 3.0);
        let names = vec![("a".to_string(), "s"), ("b".to_string(), "count")];
        let line = result_line(true, 2, 0, &m, &names);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}, \
             \"b\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
