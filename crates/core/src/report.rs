//! Per-run measurement reports.

use std::fmt;

use gpsim::{attribute_stalls, inflight_counter, CounterTrack, Gpu, SimTime, StallReport};

use crate::metrics::StageMetrics;
use crate::recovery::RecoveryStats;

/// The three execution models compared throughout the paper's evaluation,
/// plus [`Auto`](ExecModel::Auto), which lets the runtime pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExecModel {
    /// Synchronous copy-in → kernel → copy-out; whole arrays resident.
    Naive,
    /// Hand-style pipelining: chunked async copies + kernels over multiple
    /// streams, full-size device arrays, no index rewriting.
    Pipelined,
    /// The paper's contribution: pipelining into a small pre-allocated
    /// ring buffer with mod-indexing.
    PipelinedBuffer,
    /// Let the runtime autotune a schedule and run the buffered model
    /// with it (reports never carry `Auto`: they name the model that
    /// actually ran).
    Auto,
}

impl fmt::Display for ExecModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ExecModel::Naive => "Naive",
            ExecModel::Pipelined => "Pipelined",
            ExecModel::PipelinedBuffer => "Pipelined-buffer",
            ExecModel::Auto => "Auto",
        };
        f.write_str(s)
    }
}

/// Measurements of one region execution.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Which execution model produced this report.
    pub model: ExecModel,
    /// End-to-end time of the region on the host clock (the paper's
    /// metric: "the function that contains the GPU operations, including
    /// all transfers").
    pub total: SimTime,
    /// Busy time of the host→device copy engine.
    pub h2d: SimTime,
    /// Busy time of the device→host copy engine.
    pub d2h: SimTime,
    /// Busy time of the compute engine.
    pub kernel: SimTime,
    /// Host time inside driver API calls and runtime bookkeeping.
    pub host_api: SimTime,
    /// Bytes moved host→device.
    pub h2d_bytes: u64,
    /// Bytes moved device→host.
    pub d2h_bytes: u64,
    /// Device memory in use while the region ran (arrays/buffers plus
    /// runtime and stream overhead — what `nvidia-smi` would report).
    pub gpu_mem_bytes: u64,
    /// Device bytes allocated specifically for this region's arrays or
    /// ring buffers.
    pub array_bytes: u64,
    /// Number of sub-task chunks executed.
    pub chunks: usize,
    /// Number of streams used.
    pub streams: usize,
    /// Device commands the run executed (copies + kernels) — the DES
    /// workload size behind the timings, used by throughput reporting.
    pub commands: u64,
    /// Where each engine's idle time within the makespan went (per
    /// engine, busy + stall buckets sum to the makespan exactly).
    /// Empty when timeline recording is off.
    pub stalls: StallReport,
    /// Per-chunk latency histograms per pipeline stage.
    /// Empty when timeline recording is off.
    pub stage_metrics: StageMetrics,
    /// Counter series for trace export (device memory footprint,
    /// in-flight chunks, ring-slot occupancy for the buffered model).
    /// Empty when timeline recording is off.
    pub counter_tracks: Vec<CounterTrack>,
    /// What recovery cost this run: retries, reissued commands, backoff
    /// time, degradations. All-zero for clean runs.
    pub recovery: RecoveryStats,
    /// Commands whose duration was stretched by an injected latency
    /// spike ([`FaultPlan::spikes`](gpsim::FaultPlan::spikes)) — lets
    /// straggler tests assert injection actually happened.
    pub spikes: u64,
    /// Whether this run replayed a cached [`CompiledPlan`](crate::CompiledPlan)
    /// instead of planning from scratch (the host-runtime fast path).
    pub plan_reused: bool,
}

impl RunReport {
    /// Build a report from the context's counters and observability
    /// records, as accumulated since the last `reset_counters`.
    pub(crate) fn from_gpu(
        model: ExecModel,
        total: SimTime,
        gpu: &Gpu,
        gpu_mem_bytes: u64,
        array_bytes: u64,
        chunks: usize,
        streams: usize,
    ) -> RunReport {
        let c = gpu.counters();
        let timeline = gpu.timeline();
        let waits = gpu.wait_records();
        let counter_tracks = if gpu.timeline_enabled() {
            vec![
                CounterTrack {
                    name: "device_mem_bytes".into(),
                    samples: gpu
                        .mem_samples()
                        .iter()
                        .map(|&(t, b)| (t, b as f64))
                        .collect(),
                },
                inflight_counter(timeline),
            ]
        } else {
            Vec::new()
        };
        RunReport {
            model,
            total,
            h2d: c.h2d_time,
            d2h: c.d2h_time,
            kernel: c.kernel_time,
            host_api: c.host_api_time,
            h2d_bytes: c.h2d_bytes,
            d2h_bytes: c.d2h_bytes,
            gpu_mem_bytes,
            array_bytes,
            chunks,
            streams,
            commands: c.h2d_count + c.d2h_count + c.kernel_count,
            stalls: attribute_stalls(timeline, waits),
            stage_metrics: StageMetrics::from_run(timeline, waits),
            counter_tracks,
            recovery: RecoveryStats::default(),
            spikes: c.spikes,
            plan_reused: false,
        }
    }

    /// Speedup of `self` relative to a baseline run (`baseline.total /
    /// self.total`).
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        if self.total.is_zero() {
            return f64::INFINITY;
        }
        baseline.total.as_secs_f64() / self.total.as_secs_f64()
    }

    /// Memory saving of `self` relative to a baseline run, as a fraction
    /// in `[0, 1]` (the paper reports 0.52–0.97).
    pub fn mem_saving_over(&self, baseline: &RunReport) -> f64 {
        if baseline.gpu_mem_bytes == 0 {
            return 0.0;
        }
        1.0 - self.gpu_mem_bytes as f64 / baseline.gpu_mem_bytes as f64
    }

    /// Merge a later slice of the same logical run into this report:
    /// times and byte counts add, memory footprints max, histograms and
    /// recovery accounting merge, counter tracks append by name. Used by
    /// the multi-device supervisor to stitch per-slice reports into a
    /// per-device one, and by [`crate::ResumableRun`] to accumulate a
    /// job-level report across preemptions.
    pub fn merge_slice(&mut self, r: &RunReport) {
        self.total += r.total;
        self.h2d += r.h2d;
        self.d2h += r.d2h;
        self.kernel += r.kernel;
        self.host_api += r.host_api;
        self.h2d_bytes += r.h2d_bytes;
        self.d2h_bytes += r.d2h_bytes;
        self.gpu_mem_bytes = self.gpu_mem_bytes.max(r.gpu_mem_bytes);
        self.array_bytes = self.array_bytes.max(r.array_bytes);
        self.chunks += r.chunks;
        self.streams = self.streams.max(r.streams);
        self.commands += r.commands;
        self.spikes += r.spikes;
        self.stage_metrics.merge(&r.stage_metrics);
        self.recovery.merge(&r.recovery);
        for t in &r.counter_tracks {
            if let Some(existing) = self.counter_tracks.iter_mut().find(|e| e.name == t.name) {
                existing.samples.extend_from_slice(&t.samples);
            } else {
                self.counter_tracks.push(t.clone());
            }
        }
    }

    /// Fraction of busy time spent in transfers (Figure 3's motivation:
    /// ~50 % for naive Lattice QCD).
    pub fn transfer_fraction(&self) -> f64 {
        let busy = (self.h2d + self.d2h + self.kernel).as_ns();
        if busy == 0 {
            return 0.0;
        }
        (self.h2d + self.d2h).as_ns() as f64 / busy as f64
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<17} total={:>10} h2d={:>10} d2h={:>10} kernel={:>10} mem={:>7.1} MB chunks={} streams={}",
            self.model.to_string(),
            self.total.to_string(),
            self.h2d.to_string(),
            self.d2h.to_string(),
            self.kernel.to_string(),
            self.gpu_mem_bytes as f64 / 1e6,
            self.chunks,
            self.streams,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(total_ms: u64, mem: u64) -> RunReport {
        RunReport {
            model: ExecModel::Naive,
            total: SimTime::from_ms(total_ms),
            h2d: SimTime::from_ms(3),
            d2h: SimTime::from_ms(2),
            kernel: SimTime::from_ms(5),
            host_api: SimTime::ZERO,
            h2d_bytes: 0,
            d2h_bytes: 0,
            gpu_mem_bytes: mem,
            array_bytes: mem,
            chunks: 1,
            streams: 1,
            commands: 10,
            stalls: StallReport::default(),
            stage_metrics: StageMetrics::default(),
            counter_tracks: Vec::new(),
            recovery: RecoveryStats::default(),
            spikes: 0,
            plan_reused: false,
        }
    }

    #[test]
    fn speedup_and_saving() {
        let naive = report(100, 1000);
        let fast = report(50, 100);
        assert!((fast.speedup_over(&naive) - 2.0).abs() < 1e-12);
        assert!((fast.mem_saving_over(&naive) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn transfer_fraction_matches_phases() {
        let r = report(10, 1);
        assert!((r.transfer_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_contains_model() {
        assert!(report(1, 1).to_string().contains("Naive"));
        assert_eq!(ExecModel::PipelinedBuffer.to_string(), "Pipelined-buffer");
    }
}
