//! Multi-device co-scheduling — the paper's §VII outlook ("multi-nodes
//! with different accelerators") built on the CoreTSAR-style static
//! partitioning the authors cite: the iteration space is divided across
//! devices proportionally to a cost-model estimate of each device's
//! per-iteration throughput, and every device runs the Pipelined-buffer
//! driver on its own sub-range.
//!
//! Because the mapped arrays live in a [`HostPool`](gpsim::HostPool)
//! shared by all contexts, input halos that cross a partition boundary
//! are simply read by both devices from host memory — no device-to-device
//! traffic is required, exactly like the single-dimension array
//! association of CoreTSAR.
//!
//! On top of the static partition sits a **supervisor**
//! ([`run_model_multi`]): devices carrying a fault plan execute their
//! partition in bounded slices, and after every slice the supervisor
//! checks device health. A context that reports
//! [`DeviceLost`](gpsim::SimError::DeviceLost) — whether from injected
//! whole-device loss or from a hang the watchdog escalated — has its
//! unfinished iterations repartitioned across the survivors; because the
//! host pool is shared and `ToFrom` windows of the failed slice are
//! restored from a pre-run snapshot, the recovered run is bit-identical
//! to a fault-free one. A device whose observed per-chunk latency blows
//! past the cost model's estimate (latency spikes) is treated as a
//! straggler and sheds a bounded tail of its remaining iterations. All
//! decisions are recorded in [`MultiRecovery`].

use std::collections::VecDeque;

use gpsim::{
    attribute_stalls, to_perfetto_trace, CounterTrack, DeviceProfile, Gpu, HostSpan, HostSpanKind,
    LossCause, SimError, SimTime, TimelineEntry, WaitRecord, ELEM_BYTES,
};

use crate::costmodel::{Calibration, CostModel};
use crate::error::{RtError, RtResult};
use crate::exec::{KernelBuilder, Region};
use crate::plan::resolve_plan;
use crate::recovery::ToFromSnapshot;
use crate::report::{ExecModel, RunReport};
use crate::run::{run_ladder, RunOptions};
use crate::spec::{MapDir, RegionSpec, Schedule};

/// Bounded shed: at most this fraction of a straggler's remaining
/// iterations migrates off it (at most once per device).
const STRAGGLER_MAX_FRAC: f64 = 0.5;

/// Supervision knobs of the multi-device co-scheduler, passed to
/// [`run_model_multi`].
#[derive(Debug, Clone)]
pub struct MultiOptions {
    /// Kernel cost of one representative iteration (flops, bytes) for
    /// the load balancer's per-device throughput probe.
    pub probe_cost: (u64, u64),
    /// Grace granted to a hung command before the per-device watchdog
    /// escalates the hang to device loss (simulated time).
    pub watchdog: SimTime,
    /// Supervision granularity for devices carrying a fault plan: a
    /// slice is `slice_chunks` schedule chunks. Devices without a fault
    /// plan run their whole partition as one slice (zero supervision
    /// overhead on healthy hardware).
    pub slice_chunks: usize,
    /// Straggler threshold: a device whose observed per-chunk stage
    /// latency exceeds `straggler_factor ×` the cost-model estimate is
    /// flagged and sheds up to half of its remaining iterations (at
    /// most once per device).
    pub straggler_factor: f64,
    /// Cost-model-driven partitioning: when `Some`, per-device weights
    /// come from a full [`CostModel`] pipeline prediction of the region
    /// (overlap, API overhead, duplex and all) instead of the
    /// bottleneck-engine heuristic. Entry `i`, when present, overrides
    /// device `i`'s profile and residual multipliers with a calibrated
    /// pair — typically [`ProfileFit::profile`](crate::ProfileFit) and
    /// the [`Calibration`] from
    /// [`calibrate_from_trace`](crate::calibrate_from_trace); a `None`
    /// entry (or a vector shorter than the fleet) predicts on the
    /// device's own profile.
    pub model_partition: Option<Vec<Option<(DeviceProfile, Calibration)>>>,
}

impl Default for MultiOptions {
    fn default() -> MultiOptions {
        MultiOptions {
            probe_cost: (0, 0),
            watchdog: SimTime::from_ms(1),
            slice_chunks: 4,
            straggler_factor: 4.0,
            model_partition: None,
        }
    }
}

impl MultiOptions {
    /// Set the representative kernel cost (flops, bytes) per iteration.
    #[must_use]
    pub fn with_probe_cost(mut self, flops: u64, bytes: u64) -> MultiOptions {
        self.probe_cost = (flops, bytes);
        self
    }

    /// Set the hang watchdog grace.
    #[must_use]
    pub fn with_watchdog(mut self, grace: SimTime) -> MultiOptions {
        self.watchdog = grace;
        self
    }

    /// Set the supervision slice size in schedule chunks.
    #[must_use]
    pub fn with_slice_chunks(mut self, chunks: usize) -> MultiOptions {
        self.slice_chunks = chunks;
        self
    }

    /// Set the straggler threshold factor.
    #[must_use]
    pub fn with_straggler(mut self, factor: f64) -> MultiOptions {
        self.straggler_factor = factor;
        self
    }

    /// Partition by cost-model pipeline predictions, with optional
    /// per-device calibrated `(profile, multipliers)` overrides (see
    /// [`MultiOptions::model_partition`]). Pass an empty vector to
    /// predict on every device's own profile.
    #[must_use]
    pub fn with_model_partition(
        mut self,
        overrides: Vec<Option<(DeviceProfile, Calibration)>>,
    ) -> MultiOptions {
        self.model_partition = Some(overrides);
        self
    }
}

/// Why an iteration range moved between devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationCause {
    /// The source context was lost (injected loss or escalated hang).
    DeviceLoss,
    /// The source device ran far behind the cost model's estimate.
    Straggler,
}

impl std::fmt::Display for MigrationCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MigrationCause::DeviceLoss => "device-loss",
            MigrationCause::Straggler => "straggler",
        })
    }
}

/// One iteration range the supervisor moved to another device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Migration {
    /// Device the range was taken from.
    pub from: usize,
    /// Device the range now runs on.
    pub to: usize,
    /// The migrated iteration range `[lo, hi)`.
    pub range: (i64, i64),
    /// Why it moved.
    pub why: MigrationCause,
}

/// Recovery accounting of a supervised co-scheduled run. All-zero/empty
/// when nothing went wrong.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MultiRecovery {
    /// Devices declared lost, in detection order.
    pub devices_lost: Vec<usize>,
    /// How many of those losses were hangs escalated by the watchdog.
    pub watchdog_fires: u64,
    /// Rebalance decisions taken (loss repartitions plus straggler
    /// sheds).
    pub rebalance_events: u64,
    /// Total iterations moved to another device.
    pub iterations_migrated: u64,
    /// Every migrated range, in decision order.
    pub migrations: Vec<Migration>,
}

impl MultiRecovery {
    /// True when the run needed no failover or rebalancing at all.
    pub fn is_clean(&self) -> bool {
        self.devices_lost.is_empty() && self.rebalance_events == 0
    }
}

/// Accumulated observability records of one device across all its
/// supervised slices (each slice run resets the context's own records,
/// so the supervisor stitches them back together here).
#[derive(Debug, Clone, Default)]
pub struct DeviceTrace {
    /// Host/device clock of the context when the co-scheduled run
    /// started (records below use the context's absolute clock).
    pub t0: SimTime,
    /// Completed engine commands, in completion order.
    pub timeline: Vec<TimelineEntry>,
    /// Host-side spans, including `migrate[..]` markers and migration
    /// barrier waits pushed by the supervisor.
    pub host_spans: Vec<HostSpan>,
    /// Resolved event waits that delayed streams.
    pub waits: Vec<WaitRecord>,
}

/// Result of a co-scheduled region execution.
#[derive(Debug, Clone)]
pub struct MultiReport {
    /// Per-device reports, in device order (devices that executed
    /// nothing yield `None`). Slices are merged: times and byte counts
    /// add, histograms merge.
    pub per_device: Vec<Option<RunReport>>,
    /// Iteration sub-range initially assigned to each device.
    pub partitions: Vec<(i64, i64)>,
    /// Iteration ranges each device actually completed, in execution
    /// order. Pairwise disjoint across devices; their union is exactly
    /// the region.
    pub completed: Vec<Vec<(i64, i64)>>,
    /// Wall-clock of the co-scheduled execution: the slowest device
    /// (devices run concurrently in real time; each simulation context
    /// has its own clock).
    pub makespan: SimTime,
    /// What failover and rebalancing cost this run.
    pub recovery: MultiRecovery,
    /// Counter series of live devices over run-relative time: starts at
    /// the device count and steps down at each loss.
    pub devices_alive: CounterTrack,
    /// Per-device stitched observability records (empty when timeline
    /// recording is off).
    pub traces: Vec<DeviceTrace>,
}

impl MultiReport {
    /// Speedup of the co-scheduled run over a single-device report.
    pub fn speedup_over(&self, single: &RunReport) -> f64 {
        if self.makespan.is_zero() {
            return f64::INFINITY;
        }
        single.total.as_secs_f64() / self.makespan.as_secs_f64()
    }

    /// Perfetto-JSON trace of one device's stitched records, including
    /// its counter tracks and the run-wide `devices_alive` series
    /// (shifted onto this device's clock).
    pub fn device_trace_json(&self, dev: usize) -> String {
        let tr = &self.traces[dev];
        let mut tracks: Vec<CounterTrack> = self.per_device[dev]
            .as_ref()
            .map(|r| r.counter_tracks.clone())
            .unwrap_or_default();
        let t0 = tr.t0.as_ns();
        tracks.push(CounterTrack {
            name: "devices_alive".into(),
            samples: self
                .devices_alive
                .samples
                .iter()
                .map(|&(t, v)| (t + t0, v))
                .collect(),
        });
        to_perfetto_trace(&tr.timeline, &tr.host_spans, &tr.waits, &tracks)
    }
}

/// Estimate a device's time per loop iteration from its profile: the
/// dominant engine (transfer of the per-iteration slice bytes vs the
/// roofline kernel time) bounds the pipeline's steady state.
fn per_iter_cost(p: &DeviceProfile, region: &Region, kernel_flops: u64, kernel_bytes: u64) -> f64 {
    let mut in_bytes = 0u64;
    let mut out_bytes = 0u64;
    for m in &region.spec.maps {
        let scale = m.split.offset().scale.max(0) as u64;
        let per_iter = scale * m.split.slice_elems() as u64 * ELEM_BYTES;
        if m.dir.is_input() {
            in_bytes += per_iter;
        }
        if m.dir.is_output() {
            out_bytes += per_iter;
        }
    }
    let t_in = p.h2d_time(in_bytes, true).as_secs_f64();
    let t_out = p.d2h_time(out_bytes, true).as_secs_f64();
    let t_kernel = p.kernel_time(kernel_flops, kernel_bytes).as_secs_f64();
    t_in.max(t_out).max(t_kernel)
}

/// Per-iteration cost of the whole region on each device, from a full
/// [`CostModel`] pipeline prediction (the [`MultiOptions::model_partition`]
/// strategy) of the schedule that device resolves. The schedule comes
/// from the device's own profile, as the run itself resolves it (an adaptive
/// region sizes its chunks to each device's bandwidth ramp), over one
/// slice of `slice_len` iterations on a supervised device and over the
/// whole region otherwise; an override profile only drives the
/// prediction. Contexts are `!Send`, so predictions run serially — they
/// are analytic walks, not simulations, and cost microseconds each.
fn model_costs(
    gpus: &[Gpu],
    region: &Region,
    builder: &KernelBuilder<'_>,
    overrides: &[Option<(DeviceProfile, Calibration)>],
    supervised: &[bool],
    slice_len: i64,
) -> RtResult<Vec<f64>> {
    let iters = (region.hi - region.lo).max(1) as f64;
    gpus.iter()
        .enumerate()
        .map(|(i, g)| {
            let mut cm = CostModel::new(g, region, builder)?;
            if let Some((p, calib)) = overrides.get(i).and_then(|o| o.as_ref()) {
                cm.set_profile(p.clone());
                cm.calibration = *calib;
            }
            let hi = if supervised[i] {
                (region.lo + slice_len).min(region.hi)
            } else {
                region.hi
            };
            let plan = resolve_plan(&region.spec, g.profile(), region.lo, hi)?;
            let p = cm.predict(
                ExecModel::PipelinedBuffer,
                plan.chunk_size,
                plan.num_streams,
            )?;
            Ok(p.total.as_secs_f64().max(1e-12) / iters)
        })
        .collect()
}

/// Partition `[lo, hi)` into contiguous sub-ranges with lengths inversely
/// proportional to the per-iteration costs.
pub fn partition_iterations(lo: i64, hi: i64, costs: &[f64]) -> Vec<(i64, i64)> {
    assert!(!costs.is_empty());
    let total = (hi - lo) as f64;
    let weights: Vec<f64> = costs.iter().map(|c| 1.0 / c.max(1e-30)).collect();
    let wsum: f64 = weights.iter().sum();
    let mut bounds = Vec::with_capacity(costs.len() + 1);
    bounds.push(lo);
    let mut acc = 0.0;
    for w in &weights[..weights.len() - 1] {
        acc += w;
        bounds.push(lo + (total * acc / wsum).round() as i64);
    }
    bounds.push(hi);
    // Monotonic clamp (rounding can momentarily regress).
    for i in 1..bounds.len() {
        if bounds[i] < bounds[i - 1] {
            bounds[i] = bounds[i - 1];
        }
    }
    bounds.windows(2).map(|w| (w[0], w[1])).collect()
}

/// Shared validation of the multi-device entry points.
fn validate_multi(gpus: &[Gpu], region: &Region) -> RtResult<()> {
    if gpus.is_empty() {
        return Err(RtError::Spec("no devices given".into()));
    }
    validate_sliceable(&region.spec)
}

/// Reject regions whose output maps write overlapping host slices across
/// iteration sub-ranges. Splitting such a region — across devices
/// ([`run_model_multi`]), across time slices ([`crate::ResumableRun`]) or
/// across the Pipelined model's streams — would make the result depend
/// on the execution order of the pieces.
pub(crate) fn validate_sliceable(spec: &RegionSpec) -> RtResult<()> {
    for m in &spec.maps {
        if m.dir == MapDir::From || m.dir == MapDir::ToFrom {
            let scale = m.split.offset().scale.max(0) as usize;
            if m.split.window() > scale {
                return Err(RtError::Spec(format!(
                    "map '{}': output window {} exceeds stride {}; partitions would \
                     write overlapping host slices",
                    m.name,
                    m.split.window(),
                    scale
                )));
            }
        }
    }
    Ok(())
}

/// One supervised unit of work: a contiguous iteration range queued on a
/// device, with an optional start barrier (migrated work cannot begin
/// before the supervisor learned it had to move).
struct SliceTask {
    lo: i64,
    hi: i64,
    not_before: SimTime,
    migrated_from: Option<(usize, MigrationCause)>,
}

/// Mutable per-device supervisor state.
struct DevState {
    t0: SimTime,
    pending: VecDeque<SliceTask>,
    completed: Vec<(i64, i64)>,
    report: Option<RunReport>,
    trace: DeviceTrace,
    rel_end: SimTime,
    straggled: bool,
}

/// Merge one slice's report into a device's accumulated report: times
/// and byte counts add, memory footprints max, histograms merge.
fn merge_slice_report(agg: &mut Option<RunReport>, r: RunReport) {
    match agg {
        Some(a) => a.merge_slice(&r),
        None => *agg = Some(r),
    }
}

/// Spread a migrated range across `targets` proportionally to their
/// costs, re-slicing at each target's supervision granularity, and
/// record the decisions.
#[allow(clippy::too_many_arguments)]
fn distribute(
    range: (i64, i64),
    from: usize,
    why: MigrationCause,
    not_before: SimTime,
    targets: &[usize],
    costs: &[f64],
    supervised: &[bool],
    slice_len: i64,
    devs: &mut [DevState],
    recovery: &mut MultiRecovery,
) {
    let (lo, hi) = range;
    if hi <= lo || targets.is_empty() {
        return;
    }
    let tcosts: Vec<f64> = targets.iter().map(|&t| costs[t]).collect();
    let parts = partition_iterations(lo, hi, &tcosts);
    for (&t, &(a, b)) in targets.iter().zip(&parts) {
        if b <= a {
            continue;
        }
        recovery.migrations.push(Migration {
            from,
            to: t,
            range: (a, b),
            why,
        });
        recovery.iterations_migrated += (b - a) as u64;
        let step = if supervised[t] { slice_len } else { b - a };
        let mut s = a;
        while s < b {
            let e = (s + step).min(b);
            devs[t].pending.push_back(SliceTask {
                lo: s,
                hi: e,
                not_before,
                migrated_from: Some((from, why)),
            });
            s = e;
        }
    }
}

/// Sort iteration ranges and merge adjacent ones, so a re-run covers
/// each contiguous stretch once.
pub(crate) fn sort_coalesce(mut ranges: Vec<(i64, i64)>) -> Vec<(i64, i64)> {
    ranges.sort_unstable();
    let mut out: Vec<(i64, i64)> = Vec::new();
    for (a, b) in ranges {
        match out.last_mut() {
            Some(last) if last.1 == a => last.1 = b,
            _ => out.push((a, b)),
        }
    }
    out
}

/// Run a region co-scheduled across several devices with the
/// Pipelined-buffer model, under failover supervision. Every slice runs
/// with [`RunOptions::default()`]; `mo` sets the partitioning and
/// supervision.
///
/// Requirements:
/// * every context shares one host pool (the region's arrays must be
///   valid in all of them);
/// * output maps must not overlap across iterations (`scale ≥ window` —
///   otherwise two devices would write the same host slices).
///
/// Devices carrying a [`FaultPlan`](gpsim::FaultPlan) run their
/// partition in bounded slices and are monitored: a lost context (or a
/// hang escalated by the per-device watchdog) has its unfinished
/// iterations repartitioned across the survivors, with `ToFrom` windows
/// of the failed slice restored from a pre-run snapshot so the recovered
/// output is bit-identical to a fault-free run. Stragglers shed a
/// bounded tail of their remaining work. The error returned when *all*
/// devices die is the last device's failure.
pub fn run_model_multi(
    gpus: &mut [Gpu],
    region: &Region,
    builder: &KernelBuilder<'_>,
    mo: &MultiOptions,
) -> RtResult<MultiReport> {
    validate_multi(gpus, region)?;
    let n = gpus.len();

    let mut alive: Vec<bool> = gpus.iter().map(|g| g.device_lost().is_none()).collect();
    let live_idx: Vec<usize> = (0..n).filter(|&i| alive[i]).collect();
    if live_idx.is_empty() {
        return Err(RtError::Sim(SimError::DeviceLost));
    }
    let supervised: Vec<bool> = gpus.iter().map(|g| g.fault_plan().is_some()).collect();
    let chunk = match region.spec.schedule {
        Schedule::Static { chunk_size, .. } => chunk_size.max(1),
        Schedule::Adaptive => 8,
    } as i64;
    let slice_len = (chunk * mo.slice_chunks.max(1) as i64).max(1);

    // Per-device cost weights: either full cost-model predictions
    // (serial; contexts are !Send) or the engine-bound heuristic probed
    // on the sweep pool (profiles are Send).
    let costs: Vec<f64> = if let Some(overrides) = &mo.model_partition {
        model_costs(gpus, region, builder, overrides, &supervised, slice_len)?
    } else {
        let profiles: Vec<DeviceProfile> = gpus.iter().map(|g| g.profile().clone()).collect();
        crate::sweep::sweep_map(profiles.len(), |i| {
            per_iter_cost(&profiles[i], region, mo.probe_cost.0, mo.probe_cost.1)
        })
    };

    // Initial partition over the devices alive at entry.
    let live_costs: Vec<f64> = live_idx.iter().map(|&i| costs[i]).collect();
    let live_parts = partition_iterations(region.lo, region.hi, &live_costs);
    let mut partitions = vec![(region.lo, region.lo); n];
    for (k, &i) in live_idx.iter().enumerate() {
        partitions[i] = live_parts[k];
    }

    // ToFrom windows of a slice that dies mid-flight may hold partial
    // drains; snapshot them once so failover can restore before a
    // survivor re-reads them. Only needed when loss is possible.
    let snapshot = if live_idx.iter().any(|&i| supervised[i]) {
        ToFromSnapshot::take(&gpus[live_idx[0]], region)?
    } else {
        ToFromSnapshot::empty(region)
    };

    let mut devs: Vec<DevState> = (0..n)
        .map(|i| {
            let t0 = gpus[i].now();
            let mut pending = VecDeque::new();
            let (lo, hi) = partitions[i];
            if alive[i] && hi > lo {
                let step = if supervised[i] { slice_len } else { hi - lo };
                let mut s = lo;
                while s < hi {
                    let e = (s + step).min(hi);
                    pending.push_back(SliceTask {
                        lo: s,
                        hi: e,
                        not_before: SimTime::ZERO,
                        migrated_from: None,
                    });
                    s = e;
                }
            }
            DevState {
                t0,
                pending,
                completed: Vec::new(),
                report: None,
                trace: DeviceTrace {
                    t0,
                    ..DeviceTrace::default()
                },
                rel_end: SimTime::ZERO,
                straggled: false,
            }
        })
        .collect();

    let mut recovery = MultiRecovery::default();
    let mut alive_samples: Vec<(u64, f64)> = vec![(0, live_idx.len() as f64)];

    loop {
        // Advance the alive device whose next slice starts earliest on
        // the shared run-relative clock (devices run concurrently in
        // real time; each context has its own clock).
        let mut next: Option<(usize, SimTime)> = None;
        for i in 0..n {
            if !alive[i] {
                continue;
            }
            let Some(front) = devs[i].pending.front() else {
                continue;
            };
            let rel_now = gpus[i].now().saturating_sub(devs[i].t0);
            let start = rel_now.max(front.not_before);
            if next.is_none_or(|(_, s)| start < s) {
                next = Some((i, start));
            }
        }
        let Some((d, _)) = next else { break };
        let task = devs[d].pending.pop_front().expect("picked device has work");

        let gpu = &mut gpus[d];
        // Migration barrier: migrated work cannot start before the
        // supervisor learned it needed to move.
        let rel_now = gpu.now().saturating_sub(devs[d].t0);
        let barrier = if task.not_before > rel_now {
            let w0 = gpu.now();
            gpu.host_busy(task.not_before - rel_now);
            Some((w0, gpu.now()))
        } else {
            None
        };

        gpu.set_hang_watchdog(Some(mo.watchdog));
        let sub = Region::new(region.spec.clone(), task.lo, task.hi, region.arrays.clone());
        let opts = RunOptions::default();
        let res = run_ladder(gpu, &sub, builder, ExecModel::PipelinedBuffer, &opts, false);

        // The driver reset the context's records at slice start; re-add
        // the supervisor's own spans, then stitch everything into the
        // device trace.
        if let Some((w0, w1)) = barrier {
            gpu.push_host_span("migration barrier", HostSpanKind::Wait, w0, w1);
        }
        if let Some((src, why)) = task.migrated_from {
            let t = gpu.now();
            gpu.push_host_span(
                format!("migrate[{}, {}) from dev{} ({})", task.lo, task.hi, src, why),
                HostSpanKind::Plan,
                t,
                t,
            );
        }
        devs[d].trace.timeline.extend_from_slice(gpu.timeline());
        devs[d].trace.host_spans.extend_from_slice(gpu.host_spans());
        devs[d].trace.waits.extend_from_slice(gpu.wait_records());

        match res {
            Ok(rep) => {
                devs[d].rel_end = gpu.now().saturating_sub(devs[d].t0);
                devs[d].completed.push((task.lo, task.hi));

                // Straggler check: observed per-chunk latency vs the
                // cost model's estimate.
                let mut shed: Option<Vec<(i64, i64)>> = None;
                if supervised[d] && !devs[d].straggled && !devs[d].pending.is_empty() {
                    let sm = &rep.stage_metrics;
                    let p50 = sm.h2d.p50_ns().max(sm.kernel.p50_ns()).max(sm.d2h.p50_ns());
                    let observed_ns = if p50 > 0 {
                        p50 as f64
                    } else {
                        // Timeline recording off: fall back to the slice
                        // average.
                        rep.total.as_ns() as f64 * chunk as f64
                            / (task.hi - task.lo).max(1) as f64
                    };
                    let est_ns = costs[d] * chunk as f64 * 1e9;
                    if est_ns > 0.0 && observed_ns > mo.straggler_factor * est_ns {
                        let remaining: i64 =
                            devs[d].pending.iter().map(|t| t.hi - t.lo).sum();
                        let mut want =
                            ((remaining as f64) * STRAGGLER_MAX_FRAC).floor() as i64;
                        let mut moved = Vec::new();
                        while want > 0 {
                            let Some(mut back) = devs[d].pending.pop_back() else {
                                break;
                            };
                            let len = back.hi - back.lo;
                            if len <= want {
                                moved.push((back.lo, back.hi));
                                want -= len;
                            } else {
                                let cut = back.hi - want;
                                moved.push((cut, back.hi));
                                back.hi = cut;
                                want = 0;
                                devs[d].pending.push_back(back);
                            }
                        }
                        if !moved.is_empty() {
                            shed = Some(sort_coalesce(moved));
                        }
                    }
                }
                merge_slice_report(&mut devs[d].report, rep);
                if let Some(moved) = shed {
                    let targets: Vec<usize> =
                        (0..n).filter(|&i| i != d && alive[i]).collect();
                    if targets.is_empty() {
                        // Nowhere to shed to: put the tail back.
                        for (a, b) in moved {
                            devs[d].pending.push_back(SliceTask {
                                lo: a,
                                hi: b,
                                not_before: SimTime::ZERO,
                                migrated_from: None,
                            });
                        }
                    } else {
                        devs[d].straggled = true;
                        recovery.rebalance_events += 1;
                        let at = devs[d].rel_end;
                        for r in moved {
                            distribute(
                                r,
                                d,
                                MigrationCause::Straggler,
                                at,
                                &targets,
                                &costs,
                                &supervised,
                                slice_len,
                                &mut devs,
                                &mut recovery,
                            );
                        }
                    }
                }
            }
            Err(e) => {
                let Some((lost_abs, cause)) = gpus[d].device_lost() else {
                    // Not a device loss (e.g. retries exhausted with no
                    // degradation): propagate as a single-device run
                    // would.
                    return Err(e);
                };
                let lost_rel = lost_abs.saturating_sub(devs[d].t0);
                alive[d] = false;
                devs[d].rel_end = devs[d].rel_end.max(lost_rel);
                recovery.devices_lost.push(d);
                if cause == LossCause::HangEscalated {
                    recovery.watchdog_fires += 1;
                }
                let live: Vec<usize> = (0..n).filter(|&i| alive[i]).collect();
                alive_samples.push((lost_rel.as_ns(), live.len() as f64));
                let mut unfinished = vec![(task.lo, task.hi)];
                unfinished.extend(devs[d].pending.drain(..).map(|t| (t.lo, t.hi)));
                if live.is_empty() {
                    return Err(e);
                }
                // The failed slice may have partially drained ToFrom
                // windows; restore them before a survivor re-reads them.
                // Pending-but-never-started ranges were untouched.
                snapshot.restore_window(&gpus[live[0]], region, task.lo, task.hi)?;
                recovery.rebalance_events += 1;
                for r in sort_coalesce(unfinished) {
                    distribute(
                        r,
                        d,
                        MigrationCause::DeviceLoss,
                        lost_rel,
                        &live,
                        &costs,
                        &supervised,
                        slice_len,
                        &mut devs,
                        &mut recovery,
                    );
                }
            }
        }
    }

    // Recompute whole-device stall attribution from the stitched
    // records (per-slice attributions cannot be merged).
    for dev in &mut devs {
        if let Some(rep) = dev.report.as_mut() {
            if !dev.trace.timeline.is_empty() {
                rep.stalls = attribute_stalls(&dev.trace.timeline, &dev.trace.waits);
            }
        }
    }

    let makespan = devs
        .iter()
        .map(|d| d.rel_end)
        .fold(SimTime::ZERO, SimTime::max);
    let mut per_device = Vec::with_capacity(n);
    let mut completed = Vec::with_capacity(n);
    let mut traces = Vec::with_capacity(n);
    for dev in devs {
        per_device.push(dev.report);
        completed.push(dev.completed);
        traces.push(dev.trace);
    }
    debug_assert_eq!(
        sort_coalesce(completed.iter().flatten().copied().collect()),
        if region.hi > region.lo {
            vec![(region.lo, region.hi)]
        } else {
            vec![]
        },
        "completed ranges must tile the region exactly"
    );
    Ok(MultiReport {
        per_device,
        partitions,
        completed,
        makespan,
        recovery,
        devices_alive: CounterTrack {
            name: "devices_alive".into(),
            samples: alive_samples,
        },
        traces,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_proportions() {
        // Device 0 twice as fast (half the cost) → gets two thirds.
        let parts = partition_iterations(0, 90, &[1.0, 2.0]);
        assert_eq!(parts, vec![(0, 60), (60, 90)]);
        // Equal devices split evenly.
        let parts = partition_iterations(10, 20, &[3.0, 3.0]);
        assert_eq!(parts, vec![(10, 15), (15, 20)]);
        // Single device takes everything.
        let parts = partition_iterations(5, 9, &[1.0]);
        assert_eq!(parts, vec![(5, 9)]);
    }

    #[test]
    fn partition_covers_exactly_without_overlap() {
        let parts = partition_iterations(3, 103, &[1.0, 0.5, 2.0, 1.0]);
        assert_eq!(parts.first().unwrap().0, 3);
        assert_eq!(parts.last().unwrap().1, 103);
        for w in parts.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }

    #[test]
    fn degenerate_costs_do_not_panic() {
        let parts = partition_iterations(0, 4, &[0.0, 0.0]);
        assert_eq!(parts.first().unwrap().0, 0);
        assert_eq!(parts.last().unwrap().1, 4);
    }

    #[test]
    fn partition_single_device_takes_all() {
        assert_eq!(partition_iterations(-7, 12, &[123.4]), vec![(-7, 12)]);
    }

    #[test]
    fn partition_empty_range_yields_empty_parts() {
        let parts = partition_iterations(5, 5, &[1.0, 2.0, 3.0]);
        assert_eq!(parts.len(), 3);
        for (a, b) in parts {
            assert_eq!(a, 5);
            assert_eq!(b, 5);
        }
    }

    #[test]
    fn partition_near_zero_cost_gets_everything() {
        // A device a billion times faster takes the whole (small) range;
        // coverage and ordering still hold.
        let parts = partition_iterations(0, 10, &[1e-12, 1.0]);
        assert_eq!(parts[0].0, 0);
        assert_eq!(parts[1].1, 10);
        assert!(parts[0].1 >= parts[0].0);
        assert_eq!(parts[0].1, parts[1].0);
        assert_eq!(parts[0], (0, 10), "near-zero cost dominates the split");
    }

    #[test]
    fn partition_extreme_ratio_never_regresses() {
        // Alternating extreme costs: rounding pressure everywhere, yet
        // bounds must stay monotone and tile the range exactly.
        let costs = [1e9, 1e-9, 1e9, 1e-9, 1e9, 1e-9, 1e9];
        let parts = partition_iterations(0, 13, &costs);
        assert_eq!(parts.first().unwrap().0, 0);
        assert_eq!(parts.last().unwrap().1, 13);
        for w in parts.windows(2) {
            assert_eq!(w[0].1, w[1].0);
            assert!(w[0].0 <= w[0].1);
        }
    }

    #[test]
    fn partition_rounding_clamp_is_monotone() {
        // Many near-equal weights over a tiny range force repeated
        // rounding to the same bound; the clamp must keep the sequence
        // non-decreasing with empty (not negative) middle parts.
        let costs = vec![1.0; 17];
        let parts = partition_iterations(100, 103, &costs);
        assert_eq!(parts.len(), 17);
        assert_eq!(parts.first().unwrap().0, 100);
        assert_eq!(parts.last().unwrap().1, 103);
        let total: i64 = parts.iter().map(|(a, b)| b - a).sum();
        assert_eq!(total, 3);
        for (a, b) in parts {
            assert!(a <= b);
        }
    }

    #[test]
    fn sort_coalesce_merges_and_orders() {
        assert_eq!(
            sort_coalesce(vec![(8, 12), (0, 4), (4, 8), (20, 24)]),
            vec![(0, 12), (20, 24)]
        );
        assert_eq!(sort_coalesce(vec![]), Vec::<(i64, i64)>::new());
    }

    #[test]
    fn multi_options_defaults_are_sane() {
        let mo = MultiOptions::default();
        assert!(mo.slice_chunks >= 1);
        assert!(mo.straggler_factor > 1.0);
        assert!(MultiRecovery::default().is_clean());
    }
}
