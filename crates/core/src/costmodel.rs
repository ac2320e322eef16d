//! Analytic makespan model and O(1) schedule picking — the paper's §VII
//! outlook ("integrate a performance model in an autotuning scheduler"),
//! done analytically instead of by simulation.
//!
//! [`CostModel::predict`] estimates the makespan of a region under any
//! [`ExecModel`] directly from the [`DeviceProfile`] constants (bandwidth
//! ramp, API overhead, dispatch cost, duplex factor) and the
//! [`RegionSpec`](crate::RegionSpec) shape. The estimate is a **forward
//! recurrence** over the [`CompiledPlan`] the executor would replay —
//! the same compiler, so the same commands in the same order: per command,
//! `start = max(host clock, stream ready, engine free)` and
//! `end = start + dispatch + duration`, with the host clock advancing by
//! the per-call API overhead. No event queue, no reordering, no device
//! state — evaluating a candidate costs microseconds, so scanning a whole
//! chunk×stream grid ([`ModelTuner::pick`]) replaces the brute-force DES
//! sweep that `autotune` used to run (kept as
//! [`TuneStrategy::Exhaustive`](crate::TuneStrategy) — the validation
//! oracle).
//!
//! Two knowingly coarse spots (quantified by `figures model`, see
//! EXPERIMENTS.md):
//!
//! * **Engine order.** The DES dispatches the lowest-sequence *ready*
//!   command; the recurrence serves commands in enqueue order. The two
//!   differ when a stream enqueues early but becomes ready late — rare
//!   under round-robin issue, and the reason errors grow at extreme
//!   chunk counts.
//! * **Duplex contention.** A copy dispatched while the opposite copy
//!   engine is busy runs at `duplex_factor` bandwidth for its whole
//!   duration. The recurrence tests "busy" against the opposite engine's
//!   last predicted interval, which can mis-classify copies near
//!   interval edges.
//!
//! [`Calibration`] multipliers close the loop online: after a measured
//! run, per-component ratios (H2D/D2H/compute/host) nudge the model, and
//! [`run_model_online`] feeds the stall attributor's verdict back into
//! [`ModelTuner`] to re-pick the chunk size between iterations.

use std::sync::Arc;

use gpsim::{
    DeviceProfile, ExecMode, Gpu, HostPool, KernelCost, SimTime, StallCause, ELEM_BYTES,
};

use crate::autotune::{Trial, TuneResult, TuneSpace};
use crate::buffer::{compile_key, compile_plan, BufferOptions};
use crate::error::{RtError, RtResult};
use crate::exec::{expect_done, run_plan, KernelBuilder, Region};
use crate::plan::{CompiledPlan, EvKind, PlanKey, SliceRun, StageWait};
use crate::report::{ExecModel, RunReport};
use crate::run::RunOptions;
use crate::spec::{Schedule, SplitSpec};
use crate::view::{ArrayView, ChunkCtx};

/// The resource the model predicts limits a run's makespan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// Host-side API overhead (enqueues, polling) dominates.
    Host,
    /// The host→device copy engine is the busiest resource.
    H2d,
    /// The compute engine is the busiest resource.
    Compute,
    /// The device→host copy engine is the busiest resource.
    D2h,
    /// No single engine dominates; the serial chain of one stream's
    /// commands (copy → kernel → copy per chunk) sets the pace.
    StreamChain,
}

/// Per-component multipliers the online loop learns from measured runs.
///
/// All start at 1.0 (trust the profile); each update multiplies a
/// component by the clamped measured/predicted ratio, and the running
/// product is clamped to `[0.25, 4]` so one bad sample cannot wedge the
/// model.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// H2D transfer-time multiplier.
    pub h2d: f64,
    /// D2H transfer-time multiplier.
    pub d2h: f64,
    /// Kernel-time multiplier.
    pub kernel: f64,
    /// Host API-overhead multiplier.
    pub host: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            h2d: 1.0,
            d2h: 1.0,
            kernel: 1.0,
            host: 1.0,
        }
    }
}

fn blend(cur: f64, predicted: SimTime, measured: SimTime) -> f64 {
    let (p, m) = (predicted.as_secs_f64(), measured.as_secs_f64());
    if p <= 0.0 || m <= 0.0 {
        return cur;
    }
    // One sample may be noisy (short run, spike): cap its pull to 2×.
    (cur * (m / p).clamp(0.5, 2.0)).clamp(0.25, 4.0)
}

impl Calibration {
    /// Fold a measured run into the multipliers. `predicted` must be the
    /// prediction for the same schedule that produced `measured`.
    pub fn update(&mut self, predicted: &Prediction, measured: &RunReport) {
        self.h2d = blend(self.h2d, predicted.h2d, measured.h2d);
        self.d2h = blend(self.d2h, predicted.d2h, measured.d2h);
        self.kernel = blend(self.kernel, predicted.kernel, measured.kernel);
        self.host = blend(self.host, predicted.host_api, measured.host_api);
    }

    /// Fold measured per-engine busy times into the multipliers, leaving
    /// `host` untouched. This is the trace-calibration path: engine busy
    /// times are exactly recoverable from an imported trace, but host
    /// API time is not (polling time leaves no spans), so the host
    /// component stays with whatever the profile fit determined.
    pub fn update_engines(
        &mut self,
        predicted: &Prediction,
        h2d: SimTime,
        d2h: SimTime,
        kernel: SimTime,
    ) {
        self.h2d = blend(self.h2d, predicted.h2d, h2d);
        self.d2h = blend(self.d2h, predicted.d2h, d2h);
        self.kernel = blend(self.kernel, predicted.kernel, kernel);
    }
}

/// One analytic makespan estimate.
#[derive(Debug, Clone, Copy)]
pub struct Prediction {
    /// Execution model the estimate is for.
    pub model: ExecModel,
    /// Chunk size actually predicted (after `pipeline_mem_limit`
    /// shrinking — may be smaller than requested).
    pub chunk_size: usize,
    /// Stream count actually predicted (after shrinking).
    pub num_streams: usize,
    /// Predicted end-to-end region time.
    pub total: SimTime,
    /// Predicted H2D engine busy time.
    pub h2d: SimTime,
    /// Predicted D2H engine busy time.
    pub d2h: SimTime,
    /// Predicted compute engine busy time.
    pub kernel: SimTime,
    /// Predicted host time inside API calls and polling.
    pub host_api: SimTime,
    /// Which resource the model says sets the pace.
    pub bottleneck: Bottleneck,
}

/// Forward-recurrence evaluator: the state of the host clock, the three
/// engines, and each stream's in-order FIFO, advanced one command at a
/// time in enqueue order. Times are f64 seconds from region start.
struct Walk {
    api: f64,
    dispatch: f64,
    duplex: f64,
    host: f64,
    h2d_free: f64,
    h2d_from: f64,
    d2h_free: f64,
    d2h_from: f64,
    comp_free: f64,
    stream_ready: Vec<f64>,
    /// Per-stream sum of device work — the serial-chain bound.
    chain: Vec<f64>,
    host_api: f64,
    h2d: f64,
    d2h: f64,
    kernel: f64,
    /// Busy intervals predicted for each copy engine *this* pass.
    h2d_ivals: Vec<(f64, f64)>,
    d2h_ivals: Vec<(f64, f64)>,
    /// The previous fixed-point pass's schedule; when present, duplex
    /// contention is judged against it (it knows the whole run, including
    /// opposite-engine work this pass hasn't walked yet).
    prev: Option<EngineIvals>,
}

/// Both copy engines' predicted busy intervals from one walk pass.
struct EngineIvals {
    h2d: Vec<(f64, f64)>,
    d2h: Vec<(f64, f64)>,
}

/// Is instant `t` inside any of the (start-sorted, disjoint) intervals?
fn covered(ivals: &[(f64, f64)], t: f64) -> bool {
    let i = ivals.partition_point(|&(s, _)| s <= t);
    i > 0 && t < ivals[i - 1].1
}

impl Walk {
    fn new(profile: &DeviceProfile, calib: &Calibration, live_streams: usize, lanes: usize) -> Self {
        Walk {
            api: profile.api_overhead.as_secs_f64() * calib.host,
            dispatch: profile
                .dispatch_overhead(live_streams)
                .as_secs_f64(),
            duplex: profile.duplex_factor,
            host: 0.0,
            h2d_free: 0.0,
            h2d_from: 0.0,
            d2h_free: 0.0,
            d2h_from: 0.0,
            comp_free: 0.0,
            stream_ready: vec![0.0; lanes],
            chain: vec![0.0; lanes],
            host_api: 0.0,
            h2d: 0.0,
            d2h: 0.0,
            kernel: 0.0,
            h2d_ivals: Vec::new(),
            d2h_ivals: Vec::new(),
            prev: None,
        }
    }

    fn api_call(&mut self) {
        self.host += self.api;
        self.host_api += self.api;
    }

    fn host_busy(&mut self, t: f64) {
        self.host += t;
        self.host_api += t;
    }

    /// Enqueue a copy (`h2d` direction flag) of base duration `dur` on
    /// stream lane `s`.
    fn copy(&mut self, s: usize, dur: f64, h2d: bool) {
        self.api_call();
        let (free, opp_from, opp_free) = if h2d {
            (self.h2d_free, self.d2h_from, self.d2h_free)
        } else {
            (self.d2h_free, self.h2d_from, self.h2d_free)
        };
        let start = self.host.max(self.stream_ready[s]).max(free);
        // Duplex contention, decided at dispatch exactly like the DES
        // ("is the opposite copy engine busy right now?"). The first
        // fixed-point pass can only consult the opposite engine's last
        // walked interval; later passes consult the previous pass's full
        // schedule, which also knows about opposite-engine work enqueued
        // *after* this command.
        let opp_busy = match &self.prev {
            Some(p) => covered(if h2d { &p.d2h } else { &p.h2d }, start),
            None => opp_from <= start && start < opp_free,
        } && self.duplex < 1.0;
        let d = self.dispatch + if opp_busy { dur / self.duplex } else { dur };
        let end = start + d;
        if h2d {
            self.h2d_from = start;
            self.h2d_free = end;
            self.h2d += d;
            self.h2d_ivals.push((start, end));
        } else {
            self.d2h_from = start;
            self.d2h_free = end;
            self.d2h += d;
            self.d2h_ivals.push((start, end));
        }
        self.stream_ready[s] = end;
        self.chain[s] += d;
    }

    /// Enqueue a kernel of base duration `dur` on stream lane `s`.
    fn launch(&mut self, s: usize, dur: f64) {
        self.api_call();
        let start = self.host.max(self.stream_ready[s]).max(self.comp_free);
        let d = self.dispatch + dur;
        let end = start + d;
        self.comp_free = end;
        self.stream_ready[s] = end;
        self.kernel += d;
        self.chain[s] += d;
    }

    /// `create_event` + `record_event`: two API calls, a zero-duration
    /// stream command. Returns the predicted event completion time.
    fn create_record(&mut self, s: usize) -> f64 {
        self.api_call();
        self.api_call();
        let t = self.host.max(self.stream_ready[s]);
        self.stream_ready[s] = t;
        t
    }

    /// `wait_event`: stream lane `s` may not run further commands until
    /// the event's predicted time.
    fn wait(&mut self, s: usize, event_time: f64) {
        self.api_call();
        self.stream_ready[s] = self.stream_ready[s].max(self.host).max(event_time);
    }

    /// `stream_synchronize`: host blocks until lane `s` drains.
    fn stream_sync(&mut self, s: usize) {
        self.api_call();
        self.host = self.host.max(self.stream_ready[s]);
    }

    /// Final `synchronize`: host blocks until every lane drains. Returns
    /// the predicted makespan.
    fn sync_all(&mut self) -> f64 {
        self.api_call();
        let done = self.stream_ready.iter().copied().fold(0.0, f64::max);
        self.host = self.host.max(done);
        self.host
    }

    /// Busiest-resource classification from the accumulated sums.
    fn bottleneck(&self) -> Bottleneck {
        let chain = self.chain.iter().copied().fold(0.0, f64::max);
        let candidates = [
            (self.host_api, Bottleneck::Host),
            (self.h2d, Bottleneck::H2d),
            (self.kernel, Bottleneck::Compute),
            (self.d2h, Bottleneck::D2h),
            (chain, Bottleneck::StreamChain),
        ];
        candidates
            .into_iter()
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, b)| b)
            .unwrap_or(Bottleneck::Host)
    }

    fn finish(mut self, model: ExecModel, chunk_size: usize, num_streams: usize) -> Prediction {
        let total = self.sync_all();
        Prediction {
            model,
            chunk_size,
            num_streams,
            total: SimTime::from_secs_f64(total),
            h2d: SimTime::from_secs_f64(self.h2d),
            d2h: SimTime::from_secs_f64(self.d2h),
            kernel: SimTime::from_secs_f64(self.kernel),
            host_api: SimTime::from_secs_f64(self.host_api),
            bottleneck: self.bottleneck(),
        }
    }
}

/// Analytic makespan model for one bound region (see module docs).
///
/// Holds a throwaway timing-mode twin context whose only job is to own a
/// placeholder allocation for kernel-cost probing: the region's builder
/// is called with 1-slot ring views to read each chunk's declared
/// [`KernelCost`] — the kernel body is never executed, and no command is
/// ever enqueued anywhere.
pub struct CostModel<'a> {
    region: &'a Region,
    builder: &'a KernelBuilder<'a>,
    profile: DeviceProfile,
    pinned: Vec<bool>,
    /// Learned per-component multipliers (all 1.0 until calibrated).
    pub calibration: Calibration,
    probe_views: Vec<ArrayView>,
    _twin: Gpu,
}

impl<'a> CostModel<'a> {
    /// Build a model for `region` as bound on `gpu` (the profile and the
    /// pinnedness of each bound array are snapshotted; the context itself
    /// is not retained).
    pub fn new(gpu: &Gpu, region: &'a Region, builder: &'a KernelBuilder<'a>) -> RtResult<Self> {
        region.validate_binding(gpu)?;
        let profile = gpu.profile().clone();
        let mut pinned = Vec::with_capacity(region.arrays.len());
        for &h in &region.arrays {
            pinned.push(gpu.host_pinned(h)?);
        }
        let pool = HostPool::new(ExecMode::Timing);
        let mut twin = Gpu::with_host_pool(profile.clone(), pool)?;
        twin.set_timeline_enabled(false);
        let probe = twin.alloc(1)?;
        let probe_views = region
            .spec
            .maps
            .iter()
            .map(|m| match &m.split {
                SplitSpec::OneD { slice_elems, .. } => ArrayView::ring_1d(probe, *slice_elems, 1),
                SplitSpec::ColBlocks {
                    rows, block_cols, ..
                } => ArrayView::ring_2d(probe, *block_cols, *block_cols, *rows, 1),
            })
            .collect();
        Ok(CostModel {
            region,
            builder,
            profile,
            pinned,
            calibration: Calibration::default(),
            probe_views,
            _twin: twin,
        })
    }

    /// The device profile predictions currently use.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Replace the device profile predictions use — e.g. with one fitted
    /// from an imported trace ([`fit_profile`](crate::fit_profile)) —
    /// without rebinding the region.
    pub fn set_profile(&mut self, profile: DeviceProfile) {
        self.profile = profile;
    }

    /// The builder's declared cost for chunk `[k0, k1)` (probe only — the
    /// kernel is constructed against placeholder views, never run).
    pub fn kernel_cost(&self, k0: i64, k1: i64) -> KernelCost {
        let ctx = ChunkCtx {
            k0,
            k1,
            views: self.probe_views.clone(),
        };
        (self.builder)(&ctx).cost
    }

    fn kernel_secs(&self, k0: i64, k1: i64, inflate: f64) -> f64 {
        let c = self.kernel_cost(k0, k1);
        let flops = (c.flops as f64 * inflate) as u64;
        let bytes = (c.bytes as f64 * inflate) as u64;
        self.profile.kernel_time(flops, bytes).as_secs_f64() * self.calibration.kernel
    }

    /// Transfer seconds for `slices` consecutive slices of map `i`.
    fn dma_secs(&self, i: usize, slices: usize, h2d: bool) -> f64 {
        let pinned = self.pinned[i];
        let p = &self.profile;
        let t = match &self.region.spec.maps[i].split {
            SplitSpec::OneD { slice_elems, .. } => {
                let bytes = slices as u64 * *slice_elems as u64 * ELEM_BYTES;
                if h2d {
                    p.h2d_time(bytes, pinned)
                } else {
                    p.d2h_time(bytes, pinned)
                }
            }
            SplitSpec::ColBlocks {
                rows, block_cols, ..
            } => {
                let row_bytes = slices as u64 * *block_cols as u64 * ELEM_BYTES;
                if h2d {
                    p.h2d_time_2d(*rows, row_bytes, pinned)
                } else {
                    p.d2h_time_2d(*rows, row_bytes, pinned)
                }
            }
        };
        t.as_secs_f64()
            * if h2d {
                self.calibration.h2d
            } else {
                self.calibration.d2h
            }
    }

    /// Predict the makespan of this region under `model` with the given
    /// requested schedule (`chunk`/`streams` are ignored by
    /// [`ExecModel::Naive`], which reports the unit schedule like its
    /// run report). The region is compiled exactly as a run would be, so
    /// `pipeline_mem_limit` shrinking is mirrored exactly; an infeasible
    /// limit surfaces as [`RtError::MemLimitInfeasible`](crate::RtError).
    pub fn predict(&self, model: ExecModel, chunk: usize, streams: usize) -> RtResult<Prediction> {
        let region = self.region;
        let mut spec = region.spec.clone();
        spec.schedule = Schedule::static_(chunk, streams);
        let key = PlanKey::new(
            model,
            spec,
            region.lo,
            region.hi,
            self.profile.clone(),
            &BufferOptions::default(),
            false,
        );
        let mut p = self.walk(&compile_key(key)?);
        if model == ExecModel::Naive {
            p.chunk_size = 1;
        }
        Ok(p)
    }

    /// The plan's commands in issue order, each on its stream lane with
    /// its duration resolved — computed once per prediction, so the
    /// fixed-point passes only rerun the recurrence.
    fn tape(&self, cp: &CompiledPlan) -> Vec<(usize, Cmd)> {
        let infl = cp.kernel_inflation();
        let mut tape = Vec::new();
        for (c, step) in cp.steps.iter().enumerate() {
            let (k0, k1) = cp.plan.chunks[c];
            let s = step.stream;
            let copy = |&(i, _, len): &SliceRun, h2d: bool| {
                (s, Cmd::Copy(self.dma_secs(i, len, h2d), h2d))
            };
            let wait = |&(ch, kind, _): &StageWait| (s, Cmd::Wait(ch, kind));
            tape.extend(cp.copy_waits(step).iter().map(wait));
            tape.extend(cp.copy_runs(step).iter().map(|r| copy(r, true)));
            if cp.records(step, EvKind::H2d) {
                tape.push((s, Cmd::Record(c, EvKind::H2d)));
            }
            tape.extend(cp.kernel_waits(step).iter().map(wait));
            tape.push((s, Cmd::Launch(self.kernel_secs(k0, k1, infl))));
            if cp.records(step, EvKind::Kernel) {
                tape.push((s, Cmd::Record(c, EvKind::Kernel)));
            }
            tape.extend(cp.out_runs(step).iter().map(|r| copy(r, false)));
            if cp.records(step, EvKind::D2h) {
                tape.push((s, Cmd::Record(c, EvKind::D2h)));
            }
        }
        tape
    }

    /// Walk a compiled plan: run the recurrence over its tape to a fixed
    /// point.
    fn walk(&self, cp: &CompiledPlan) -> Prediction {
        let ns = cp.plan.num_streams;
        let created = cp.created_streams();
        let poll = cp.poll.as_secs_f64() * self.calibration.host;
        let tape = self.tape(cp);

        let run_pass = |prev: Option<EngineIvals>| -> Walk {
            let mut w = Walk::new(&self.profile, &self.calibration, created + 1, ns);
            w.prev = prev;
            // One allocation per map, then the stream creations.
            for _ in 0..self.region.spec.maps.len() + created {
                w.api_call();
            }
            let mut events = vec![[0.0f64; 3]; cp.steps.len()];
            for &(s, cmd) in &tape {
                match cmd {
                    Cmd::Wait(ch, kind) => w.wait(s, events[ch][kind as usize]),
                    Cmd::Copy(dur, h2d) => w.copy(s, dur, h2d),
                    Cmd::Launch(dur) => w.launch(s, dur),
                    Cmd::Record(c, kind) => events[c][kind as usize] = w.create_record(s),
                }
                if poll > 0.0 {
                    w.host_busy(poll);
                }
                if cp.sync_each && matches!(cmd, Cmd::Copy(..) | Cmd::Launch(_)) {
                    w.stream_sync(s);
                }
            }
            w
        };
        let mut pred = fixed_point(run_pass).finish(cp.model, cp.plan.chunk_size, ns);
        if cp.sync_each {
            // A synchronous run ends without a device-wide synchronize
            // (its last stream_synchronize drained everything), so drop
            // the one `finish` adds.
            let extra = SimTime::from_secs_f64(
                self.profile.api_overhead.as_secs_f64() * self.calibration.host,
            );
            pred.total -= extra;
            pred.host_api -= extra;
        }
        pred
    }
}

/// One command of a compiled plan with its duration resolved: what the
/// fixed-point passes replay.
#[derive(Debug, Clone, Copy)]
enum Cmd {
    /// Wait for `(chunk, stage)`'s event.
    Wait(usize, EvKind),
    /// A copy of the given base duration (`true` = host→device).
    Copy(f64, bool),
    /// A kernel of the given base duration.
    Launch(f64),
    /// Create and record `(chunk, stage)`'s event.
    Record(usize, EvKind),
}

/// Run up to three walk passes, feeding each pass the previous pass's
/// engine schedules for the duplex decision, and stopping early once the
/// makespan estimate is stable to 0.1 %. Pass 1 only sees the opposite
/// engine's walked past; later passes see the whole run.
fn fixed_point(run_pass: impl Fn(Option<EngineIvals>) -> Walk) -> Walk {
    let mut w = run_pass(None);
    for _ in 0..2 {
        let before = w.stream_ready.iter().copied().fold(0.0, f64::max);
        let sched = EngineIvals {
            h2d: std::mem::take(&mut w.h2d_ivals),
            d2h: std::mem::take(&mut w.d2h_ivals),
        };
        w = run_pass(Some(sched));
        let after = w.stream_ready.iter().copied().fold(0.0, f64::max);
        if before > 0.0 && ((after - before) / before).abs() < 1e-3 {
            break;
        }
    }
    w
}

/// O(1) schedule picker: evaluates every `(chunk, streams)` candidate of
/// a [`TuneSpace`] analytically and returns the predicted-fastest one in
/// [`TuneResult`] form — the drop-in replacement for the DES-sweep grid.
pub struct ModelTuner<'a> {
    /// The model the picks come from (exposed so callers can calibrate
    /// it between picks).
    pub model: CostModel<'a>,
}

impl<'a> ModelTuner<'a> {
    /// Build a tuner for a bound region.
    pub fn new(gpu: &Gpu, region: &'a Region, builder: &'a KernelBuilder<'a>) -> RtResult<Self> {
        Ok(ModelTuner {
            model: CostModel::new(gpu, region, builder)?,
        })
    }

    /// Predict every candidate and return the analytically-fastest
    /// schedule. Infeasible cells (memory limit below the minimum
    /// footprint) get `time: None`. Issues **zero** DES trials.
    pub fn pick(&self, space: &TuneSpace) -> RtResult<TuneResult> {
        self.pick_where(space, |_, _| true)
    }

    /// [`ModelTuner::pick`] restricted to candidates passing `keep` —
    /// how the online loop encodes constraints like "chunk at least as
    /// large as the current one".
    pub fn pick_where(
        &self,
        space: &TuneSpace,
        keep: impl Fn(usize, usize) -> bool,
    ) -> RtResult<TuneResult> {
        if space.chunks.is_empty() || space.streams.is_empty() {
            return Err(RtError::Spec("empty tuning space".into()));
        }
        let mut trials = Vec::new();
        let mut best: Option<(Schedule, SimTime)> = None;
        let mut infeasible = 0usize;
        for &chunk in &space.chunks {
            for &streams in &space.streams {
                if !keep(chunk, streams) {
                    continue;
                }
                let time = match self.model.predict(ExecModel::PipelinedBuffer, chunk, streams) {
                    Ok(p) => {
                        if best.is_none() || p.total < best.as_ref().unwrap().1 {
                            best = Some((Schedule::static_(chunk, streams), p.total));
                        }
                        Some(p.total)
                    }
                    Err(RtError::MemLimitInfeasible { .. }) => {
                        infeasible += 1;
                        None
                    }
                    Err(e) => return Err(e),
                };
                trials.push(Trial {
                    chunk,
                    streams,
                    time,
                });
            }
        }
        let (best, best_time) =
            best.ok_or_else(|| RtError::Spec("no feasible schedule in tuning space".into()))?;
        Ok(TuneResult {
            best,
            best_time,
            trials,
            infeasible_skipped: infeasible,
            des_trials: 0,
        })
    }
}

/// One iteration of the online model-feedback loop.
#[derive(Debug, Clone, Copy)]
pub struct OnlineStep {
    /// Iteration index.
    pub iter: usize,
    /// Chunk size this iteration ran with.
    pub chunk: usize,
    /// Stream count this iteration ran with.
    pub streams: usize,
    /// The model's makespan prediction for this schedule (with the
    /// calibration in force when the iteration started).
    pub predicted: SimTime,
    /// The measured makespan.
    pub measured: SimTime,
    /// The stall attributor's dominant verdict for the compute engine
    /// (`None` when the run had no stalls to attribute).
    pub verdict: Option<StallCause>,
    /// Whether the verdict made the tuner re-pick (and recompile) the
    /// schedule for the *next* iteration.
    pub replanned: bool,
    /// Whether this iteration replayed a cached compiled plan.
    pub plan_reused: bool,
}

/// Result of [`run_model_online`].
#[derive(Debug, Clone)]
pub struct OnlineReport {
    /// Per-iteration telemetry, in order.
    pub steps: Vec<OnlineStep>,
    /// The schedule in force after the last iteration.
    pub final_schedule: Schedule,
}

impl OnlineReport {
    /// Total measured time across all iterations.
    pub fn total(&self) -> SimTime {
        self.steps
            .iter()
            .fold(SimTime::ZERO, |acc, s| acc + s.measured)
    }

    /// How many iterations triggered a re-pick.
    pub fn replans(&self) -> usize {
        self.steps.iter().filter(|s| s.replanned).count()
    }
}

/// The dominant stall cause of the compute engine in a measured run:
/// with timeline recording on, the attributor's largest idle bucket;
/// otherwise a scalar comparison of engine busy times.
fn dominant_verdict(report: &RunReport) -> Option<StallCause> {
    let makespan = report.stalls.makespan_ns();
    if makespan > 0 {
        let compute = report.stalls.engine(gpsim::EngineKind::Compute);
        return StallCause::ALL
            .into_iter()
            .map(|c| (compute.stall(c), c))
            .max_by_key(|&(ns, _)| ns)
            .filter(|&(ns, _)| ns > 0)
            .map(|(_, c)| c);
    }
    // Timeline off: infer from the scalar phase breakdown.
    let buckets = [
        (report.host_api, StallCause::HostApi),
        (report.h2d, StallCause::WaitingOnH2D),
        (report.d2h, StallCause::WaitingOnD2H),
    ];
    buckets
        .into_iter()
        .filter(|&(t, _)| t > report.kernel)
        .max_by_key(|&(t, _)| t)
        .map(|(_, c)| c)
}

/// Run a region iteratively under the buffered model with the cost model
/// in the loop: pick the schedule analytically, compile once, replay the
/// compiled plan each iteration, and between iterations feed the stall
/// attributor's verdict back into the tuner — a ring-slot verdict pushes
/// toward deeper rings (larger `chunk × streams`), a host-API verdict
/// toward fewer, larger chunks — recompiling only when the pick changes.
pub fn run_model_online(
    gpu: &mut Gpu,
    region: &Region,
    builder: &KernelBuilder<'_>,
    space: &TuneSpace,
    iters: usize,
) -> RtResult<OnlineReport> {
    let mut tuner = ModelTuner::new(gpu, region, builder)?;
    let mut picked = tuner.pick(space)?.best;
    let mut steps = Vec::with_capacity(iters);
    let mut opts = RunOptions::default();
    for iter in 0..iters {
        let (chunk, streams) = match picked {
            Schedule::Static {
                chunk_size,
                num_streams,
            } => (chunk_size, num_streams),
            _ => unreachable!("tuner always picks static schedules"),
        };
        let mut it_region = region.clone();
        it_region.spec.schedule = Schedule::static_(chunk, streams);
        let predicted = tuner
            .model
            .predict(ExecModel::PipelinedBuffer, chunk, streams)?;
        if opts.compiled.is_none() {
            let plan = compile_plan(gpu, &it_region, builder, &opts.buffer)?;
            opts.compiled = Some(Arc::new(plan));
        }
        let report = run_plan(
            gpu,
            &it_region,
            builder,
            ExecModel::PipelinedBuffer,
            &opts,
            None,
            false,
        )
        .map(expect_done)?;
        tuner.model.calibration.update(&predicted, &report);
        let verdict = dominant_verdict(&report);
        // Map the verdict to a constraint on the next pick.
        let constrained = match verdict {
            Some(StallCause::RingSlot) => {
                // Rings too shallow: insist on more slots in flight.
                let depth = chunk * streams;
                Some(tuner.pick_constrained(space, move |c, s| c * s > depth))
            }
            Some(StallCause::HostApi) => {
                // Host-bound: fewer, larger chunks.
                Some(tuner.pick_constrained(space, move |c, _| c >= chunk))
            }
            Some(StallCause::WaitingOnH2D) => {
                // Transfer-bound: bigger transfers ride the bandwidth
                // ramp better.
                Some(tuner.pick_constrained(space, move |c, _| c >= chunk))
            }
            _ => None,
        };
        let mut replanned = false;
        if let Some(next) = constrained.flatten() {
            if next != picked {
                picked = next;
                opts.compiled = None;
                replanned = true;
            }
        }
        steps.push(OnlineStep {
            iter,
            chunk,
            streams,
            predicted: predicted.total,
            measured: report.total,
            verdict,
            replanned,
            plan_reused: report.plan_reused,
        });
    }
    Ok(OnlineReport {
        steps,
        final_schedule: picked,
    })
}

impl<'a> ModelTuner<'a> {
    /// [`ModelTuner::pick_where`], but a constraint that empties the
    /// space falls back to `None` instead of erroring (the online loop
    /// then keeps the current schedule).
    fn pick_constrained(
        &self,
        space: &TuneSpace,
        keep: impl Fn(usize, usize) -> bool,
    ) -> Option<Schedule> {
        self.pick_where(space, keep).ok().map(|r| r.best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Affine, MapDir, MapSpec, RegionSpec};
    use gpsim::KernelLaunch;

    const NZ: usize = 64;
    const SLICE: usize = 1 << 14;

    fn setup(profile: DeviceProfile) -> (Gpu, Region) {
        let mut gpu = Gpu::new(profile, ExecMode::Timing).unwrap();
        let input = gpu.alloc_host(NZ * SLICE, true).unwrap();
        let output = gpu.alloc_host(NZ * SLICE, true).unwrap();
        let spec = RegionSpec::new(Schedule::static_(4, 3))
            .with_map(MapSpec {
                name: "in".into(),
                dir: MapDir::To,
                split: SplitSpec::OneD {
                    offset: Affine::shifted(-1),
                    window: 3,
                    extent: NZ,
                    slice_elems: SLICE,
                },
            })
            .with_map(MapSpec {
                name: "out".into(),
                dir: MapDir::From,
                split: SplitSpec::OneD {
                    offset: Affine::IDENTITY,
                    window: 1,
                    extent: NZ,
                    slice_elems: SLICE,
                },
            });
        let region = Region::new(spec, 1, (NZ - 1) as i64, vec![input, output]);
        (gpu, region)
    }

    fn builder(ctx: &ChunkCtx) -> KernelLaunch {
        let n = (ctx.k1 - ctx.k0) as u64;
        KernelLaunch::cost_only(
            "probe",
            KernelCost {
                flops: n * SLICE as u64 * 8,
                bytes: n * SLICE as u64 * 8,
            },
        )
    }

    #[test]
    fn predictions_track_the_simulator_within_tolerance() {
        use crate::exec::run_fresh;
        let (mut gpu, region) = setup(DeviceProfile::k40m());
        gpu.set_timeline_enabled(false);
        let model = CostModel::new(&gpu, &region, &builder).unwrap();

        let naive_pred = model.predict(ExecModel::Naive, 1, 1).unwrap();
        let naive_meas = run_fresh(&mut gpu, &region, &builder, ExecModel::Naive).unwrap();
        let err = (naive_pred.total.as_secs_f64() - naive_meas.total.as_secs_f64()).abs()
            / naive_meas.total.as_secs_f64();
        assert!(err < 0.05, "naive error {err:.3}");

        let pl_pred = model.predict(ExecModel::Pipelined, 4, 3).unwrap();
        let mut pl_region = region.clone();
        pl_region.spec.schedule = Schedule::static_(4, 3);
        let pl_meas = run_fresh(&mut gpu, &pl_region, &builder, ExecModel::Pipelined).unwrap();
        let err = (pl_pred.total.as_secs_f64() - pl_meas.total.as_secs_f64()).abs()
            / pl_meas.total.as_secs_f64();
        assert!(err < 0.15, "pipelined error {err:.3}");

        let buf_pred = model.predict(ExecModel::PipelinedBuffer, 4, 3).unwrap();
        let buf_meas =
            run_fresh(&mut gpu, &pl_region, &builder, ExecModel::PipelinedBuffer).unwrap();
        let err = (buf_pred.total.as_secs_f64() - buf_meas.total.as_secs_f64()).abs()
            / buf_meas.total.as_secs_f64();
        assert!(err < 0.15, "buffer error {err:.3}");
    }

    /// Random 1-D/column-block shapes: a haloed input, an optional
    /// column-block input over a full matrix, and a strided output.
    fn random_region(
        gpu: &mut Gpu,
        (extent, window, bias, blocks, chunk, streams): (usize, usize, i64, bool, usize, usize),
    ) -> Region {
        let slice = 48;
        let mut spec = RegionSpec::new(Schedule::static_(chunk, streams))
            .with_map(MapSpec {
                name: "in".into(),
                dir: MapDir::To,
                split: SplitSpec::OneD {
                    offset: Affine { scale: 1, bias },
                    window,
                    extent,
                    slice_elems: slice,
                },
            })
            .with_map(MapSpec {
                name: "out".into(),
                dir: MapDir::From,
                split: SplitSpec::OneD {
                    offset: Affine::IDENTITY,
                    window: 1,
                    extent,
                    slice_elems: slice,
                },
            });
        let mut arrays = vec![
            gpu.alloc_host(extent * slice, true).unwrap(),
            gpu.alloc_host(extent * slice, false).unwrap(),
        ];
        if blocks {
            let (rows, block_cols) = (5, 3);
            spec = spec.with_map(MapSpec {
                name: "blk".into(),
                dir: MapDir::To,
                split: SplitSpec::ColBlocks {
                    offset: Affine::IDENTITY,
                    window: 1,
                    extent,
                    rows,
                    block_cols,
                    row_stride: extent * block_cols,
                },
            });
            arrays.push(gpu.alloc_host(rows * extent * block_cols, true).unwrap());
        }
        // Keep every window in bounds: a = k + bias ≥ 0, b ≤ extent.
        let lo = -bias;
        let hi = (extent as i64 + 1 - bias - window as i64).min(extent as i64);
        Region::new(spec, lo, hi, arrays)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The cost model walks exactly the commands the executor issues:
        /// per engine, the tape's command count and bytes equal the
        /// simulated run's.
        #[test]
        fn walk_issues_the_simulated_commands(
            extent in 6usize..24,
            window in 1usize..4,
            bias in -1i64..1,
            blocks in proptest::prelude::any::<bool>(),
            chunk in 1usize..6,
            streams in 1usize..5,
        ) {
            let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Timing).unwrap();
            let region =
                random_region(&mut gpu, (extent, window, bias, blocks, chunk, streams));
            let cm = CostModel::new(&gpu, &region, &builder).unwrap();
            for model in [ExecModel::Naive, ExecModel::Pipelined, ExecModel::PipelinedBuffer] {
                let key = PlanKey::new(
                    model,
                    region.spec.clone(),
                    region.lo,
                    region.hi,
                    cm.profile().clone(),
                    &BufferOptions::default(),
                    false,
                );
                let cp = compile_key(key).unwrap();
                let (mut h2d, mut d2h, mut kernels) = (0u64, 0u64, 0u64);
                for (_, cmd) in cm.tape(&cp) {
                    match cmd {
                        Cmd::Copy(_, true) => h2d += 1,
                        Cmd::Copy(_, false) => d2h += 1,
                        Cmd::Launch(_) => kernels += 1,
                        Cmd::Wait(..) | Cmd::Record(..) => {}
                    }
                }
                let bytes = |h2d: bool| -> u64 {
                    let maps = &region.spec.maps;
                    cp.steps
                        .iter()
                        .flat_map(|s| if h2d { cp.copy_runs(s) } else { cp.out_runs(s) })
                        .map(|&(i, _, len)| (len * maps[i].split.slice_elems()) as u64 * ELEM_BYTES)
                        .sum()
                };
                let report = crate::exec::run_fresh(&mut gpu, &region, &builder, model).unwrap();
                let m = &report.stage_metrics;
                proptest::prop_assert_eq!(
                    (h2d, kernels, d2h),
                    (m.h2d.count(), m.kernel.count(), m.d2h.count()),
                    "{:?} command counts", model
                );
                proptest::prop_assert_eq!(
                    (bytes(true), bytes(false)),
                    (report.h2d_bytes, report.d2h_bytes),
                    "{:?} bytes", model
                );
            }
        }
    }

    #[test]
    fn mem_limit_shrinking_is_mirrored() {
        let (gpu, mut region) = setup(DeviceProfile::k40m());
        region.spec.mem_limit = Some(8 * SLICE as u64 * 4);
        let model = CostModel::new(&gpu, &region, &builder).unwrap();
        // A big request shrinks rather than failing; the prediction
        // reports the shrunken schedule.
        let p = model.predict(ExecModel::PipelinedBuffer, 32, 5).unwrap();
        assert!(
            p.chunk_size < 32 || p.num_streams < 5,
            "expected shrink, got {}x{}",
            p.chunk_size,
            p.num_streams
        );
    }

    #[test]
    fn calibration_moves_toward_measurement() {
        let mut calib = Calibration::default();
        let pred = Prediction {
            model: ExecModel::Naive,
            chunk_size: 1,
            num_streams: 1,
            total: SimTime::from_ms(10),
            h2d: SimTime::from_ms(4),
            d2h: SimTime::from_ms(2),
            kernel: SimTime::from_ms(4),
            host_api: SimTime::from_ms(1),
            bottleneck: Bottleneck::H2d,
        };
        let meas = crate::report::RunReport {
            model: ExecModel::Naive,
            total: SimTime::from_ms(13),
            h2d: SimTime::from_ms(8),    // 2× predicted
            d2h: SimTime::from_ms(2),    // exact
            kernel: SimTime::from_ms(2), // 0.5× predicted
            host_api: SimTime::from_ms(1),
            h2d_bytes: 0,
            d2h_bytes: 0,
            gpu_mem_bytes: 0,
            array_bytes: 0,
            chunks: 1,
            streams: 1,
            commands: 0,
            stalls: gpsim::StallReport::default(),
            stage_metrics: crate::metrics::StageMetrics::default(),
            counter_tracks: Vec::new(),
            recovery: crate::recovery::RecoveryStats::default(),
            spikes: 0,
            plan_reused: false,
        };
        calib.update(&pred, &meas);
        assert!(calib.h2d > 1.5);
        assert!((calib.d2h - 1.0).abs() < 1e-9);
        assert!(calib.kernel < 0.75);
        assert!((calib.host - 1.0).abs() < 1e-9);
    }

    #[test]
    fn online_loop_reuses_the_compiled_plan() {
        let (mut gpu, region) = setup(DeviceProfile::k40m());
        gpu.set_timeline_enabled(false);
        let report =
            run_model_online(&mut gpu, &region, &builder, &TuneSpace::default(), 4).unwrap();
        assert_eq!(report.steps.len(), 4);
        // Iterations that did not replan must have replayed the cache.
        for w in report.steps.windows(2) {
            if !w[0].replanned {
                assert!(w[1].plan_reused, "step {} recompiled", w[1].iter);
            }
        }
        assert!(report.total() > SimTime::ZERO);
    }
}
