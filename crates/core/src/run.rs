//! The unified run front door: one entry point over every execution
//! model, with retry and graceful degradation.
//!
//! [`run_model`] is the single entry point over every execution model:
//! pick a model (or [`ExecModel::Auto`]), hand over a [`RunOptions`],
//! and the runtime handles scheduling, fault recovery and fallback:
//!
//! * **Chunk-granular retry** — with a [`RetryPolicy`] enabled, a failed
//!   chunk's H2D → kernel → D2H triplet is re-enqueued (exponential
//!   backoff in simulated time) while independent in-flight chunks keep
//!   streaming.
//! * **Degradation ladder** — when retries run dry, or a memory limit
//!   turns out infeasible, the runtime falls back
//!   `PipelinedBuffer → Pipelined → Naive`, re-executing only the
//!   unfinished iteration ranges and recording the decision in
//!   [`RunReport::recovery`](crate::RunReport).
//!
//! The default [`RunOptions`] disables recovery entirely. Every model —
//! every rung of the ladder — compiles to a
//! [`CompiledPlan`](crate::CompiledPlan) and runs through the one
//! executor in [`crate::exec`].

use gpsim::{Gpu, SimError};

use crate::autotune::{autotune, TuneSpace};
use crate::buffer::{compile_window_fn, BufferOptions};
use crate::error::{RtError, RtResult};
use crate::exec::{execute, run_plan, KernelBuilder, Region};
use crate::multi::{sort_coalesce, MultiOptions};
use crate::plan::WindowFn;
use crate::recovery::{
    Degradation, DriverOutcome, RecoveryCtx, RecoveryStats, RetryPolicy, ToFromSnapshot,
};
use crate::report::{ExecModel, RunReport};

/// Everything the unified front door can be told about a run.
///
/// `RunOptions::default()` reproduces the historical behavior exactly:
/// no retry, no degradation, the paper's prototype buffer settings.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Fault-recovery policy (disabled by default).
    pub retry: RetryPolicy,
    /// Fall down the model ladder (`PipelinedBuffer → Pipelined →
    /// Naive`) when retries are exhausted or a memory limit is
    /// infeasible, instead of failing the run.
    pub degrade: bool,
    /// Ablation switches of the Pipelined-buffer model.
    pub buffer: BufferOptions,
    /// Candidate grid for [`ExecModel::Auto`].
    pub tune: TuneSpace,
    /// A pre-compiled plan to replay instead of planning from scratch
    /// (the host-runtime fast path). The driver verifies the plan still
    /// matches the region/device before reusing it — a stale plan falls
    /// back to a fresh compile, never to wrong execution. `Arc` so one
    /// compile can be shared across sweep trials and iterations.
    pub compiled: Option<std::sync::Arc<crate::plan::CompiledPlan>>,
    /// Supervision knobs of the multi-device co-scheduler
    /// ([`run_model_multi`](crate::run_model_multi)); ignored by the
    /// single-device entry points.
    pub multi: MultiOptions,
}

impl RunOptions {
    /// The default options (recovery off).
    pub fn new() -> RunOptions {
        RunOptions::default()
    }

    /// Set the retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> RunOptions {
        self.retry = retry;
        self
    }

    /// Enable or disable the degradation ladder.
    #[must_use]
    pub fn with_degrade(mut self, degrade: bool) -> RunOptions {
        self.degrade = degrade;
        self
    }

    /// Set the Pipelined-buffer model options.
    #[must_use]
    pub fn with_buffer(mut self, opts: BufferOptions) -> RunOptions {
        self.buffer = opts;
        self
    }

    /// Set the autotuning grid used by [`ExecModel::Auto`].
    #[must_use]
    pub fn with_tune(mut self, tune: TuneSpace) -> RunOptions {
        self.tune = tune;
        self
    }

    /// Replay a pre-compiled plan (see
    /// [`compile_plan`](crate::compile_plan)) instead of planning anew.
    #[must_use]
    pub fn with_compiled(mut self, plan: std::sync::Arc<crate::plan::CompiledPlan>) -> RunOptions {
        self.compiled = Some(plan);
        self
    }

    /// Set the multi-device co-scheduling options.
    #[must_use]
    pub fn with_multi(mut self, multi: MultiOptions) -> RunOptions {
        self.multi = multi;
        self
    }
}

/// Run a region under the given execution model — the single entry point
/// behind [`Pipeline::run`](crate::Pipeline::run).
///
/// [`ExecModel::Auto`] tunes a schedule on a timing-mode twin first (see
/// [`crate::autotune`]) and then runs the buffered model with the winner.
pub fn run_model(
    gpu: &mut Gpu,
    region: &Region,
    builder: &KernelBuilder<'_>,
    model: ExecModel,
    opts: &RunOptions,
) -> RtResult<RunReport> {
    match model {
        ExecModel::Auto => {
            let tuned = autotune(gpu, region, builder, &opts.tune)?;
            let mut best = region.clone();
            best.spec.schedule = tuned.best;
            run_ladder(gpu, &best, builder, ExecModel::PipelinedBuffer, opts, false)
        }
        m => run_ladder(gpu, region, builder, m, opts, false),
    }
}

/// Run a region whose dependency windows come from explicit functions
/// (the paper's §VII function-based extension) through the unified front
/// door. Supports retry (chunk-granular and whole-run) but not the
/// degradation ladder: the simpler models cannot honour custom windows.
pub fn run_window_fn(
    gpu: &mut Gpu,
    region: &Region,
    builder: &KernelBuilder<'_>,
    windows: &[Option<&WindowFn<'_>>],
    opts: &RunOptions,
) -> RtResult<RunReport> {
    let (outcome, _) = retrying(gpu, region, opts, |gpu, recovery, _| {
        let cp = compile_window_fn(gpu, region, windows)?;
        execute(gpu, region, builder, &cp, recovery, false)
    })?;
    match outcome {
        DriverOutcome::Done(report) => Ok(report),
        DriverOutcome::Exhausted(report, x) => Err(x.into_error(report.model)),
    }
}

/// Run `attempt` with the retry policy: chunk-granular recovery inside
/// each attempt, and whole-run retry (after a backoff, from the `ToFrom`
/// checkpoint) when an attempt fails with a retryable injected fault —
/// setup-phase alloc faults, Naive-model faults. Returns the outcome,
/// with the whole-run retries folded into its report, and the
/// checkpoint.
fn retrying(
    gpu: &mut Gpu,
    region: &Region,
    opts: &RunOptions,
    mut attempt: impl FnMut(
        &mut Gpu,
        Option<&RecoveryCtx<'_>>,
        &mut RecoveryStats,
    ) -> RtResult<DriverOutcome>,
) -> RtResult<(DriverOutcome, ToFromSnapshot)> {
    let snapshot = if opts.retry.enabled() {
        ToFromSnapshot::take(gpu, region)?
    } else {
        ToFromSnapshot::empty(region)
    };
    let mut extra = RecoveryStats::default();
    let mut whole_attempts = 0u32;
    loop {
        let rctx = RecoveryCtx {
            policy: &opts.retry,
            snapshot: &snapshot,
        };
        let e = match attempt(gpu, opts.retry.enabled().then_some(&rctx), &mut extra) {
            Ok(mut outcome) => {
                let (DriverOutcome::Done(report) | DriverOutcome::Exhausted(report, _)) =
                    &mut outcome;
                report.recovery.merge(&extra);
                return Ok((outcome, snapshot));
            }
            Err(e) => e,
        };
        let stage = match &e {
            RtError::Sim(s @ SimError::Injected { stage, .. })
                if opts.retry.retryable(*stage, s) && whole_attempts < opts.retry.max_attempts =>
            {
                *stage
            }
            _ => return Err(e),
        };
        whole_attempts += 1;
        extra.retries[stage.index()] += 1;
        let t0 = gpu.now();
        gpu.host_busy(opts.retry.backoff_for(whole_attempts));
        extra.backoff_time += gpu.now() - t0;
        snapshot.restore_all(gpu, region)?;
    }
}

/// Run one concrete model with recovery, descending the degradation
/// ladder as needed. `sub_range` marks a region that is part of a larger
/// run — a fallback over unfinished chunks, or a preemption slice — so
/// the Naive rung moves only its windows instead of whole arrays (which
/// would overwrite host outputs the other ranges produced).
pub(crate) fn run_ladder(
    gpu: &mut Gpu,
    region: &Region,
    builder: &KernelBuilder<'_>,
    mut model: ExecModel,
    opts: &RunOptions,
    sub_range: bool,
) -> RtResult<RunReport> {
    let (outcome, snapshot) = retrying(gpu, region, opts, |gpu, recovery, extra| loop {
        match run_plan(gpu, region, builder, model, opts, recovery, sub_range) {
            Err(RtError::MemLimitInfeasible { limit, needed })
                if opts.degrade && model == ExecModel::PipelinedBuffer =>
            {
                // The buffered model cannot fit even its smallest
                // schedule under the memory limit: take the ladder down
                // one rung over the whole range and note why.
                extra.degradations.push(Degradation {
                    from: ExecModel::PipelinedBuffer,
                    to: ExecModel::Pipelined,
                    iterations: (region.lo, region.hi),
                    reason: format!(
                        "pipeline_mem_limit({limit} B) infeasible: minimum footprint {needed} B"
                    ),
                });
                model = ExecModel::Pipelined;
            }
            outcome => return outcome,
        }
    })?;
    let (mut report, x) = match outcome {
        DriverOutcome::Done(report) => return Ok(report),
        DriverOutcome::Exhausted(report, x) => (report, x),
    };
    let from = report.model;
    let to = match from {
        ExecModel::PipelinedBuffer => ExecModel::Pipelined,
        ExecModel::Pipelined => ExecModel::Naive,
        // The Naive rung issues synchronously and retries at whole-run
        // granularity, so chunk exhaustion cannot reach here; treat it as
        // the bottom of the ladder.
        _ => return Err(x.into_error(from)),
    };
    if !opts.degrade {
        return Err(x.into_error(from));
    }
    let reason = format!(
        "retries exhausted on chunk {} ({} stage) after {} attempts: {}",
        x.chunk, x.stage, x.attempts, x.source
    );
    // The unfinished windows' ToFrom host data may hold stale drains from
    // failed attempts; reset them before the fallback re-reads them.
    for &(k0, k1) in &x.unfinished {
        snapshot.restore_window(gpu, region, k0, k1)?;
    }
    for (k0, k1) in sort_coalesce(x.unfinished) {
        report.recovery.degradations.push(Degradation {
            from,
            to,
            iterations: (k0, k1),
            reason: reason.clone(),
        });
        let mut sub = region.clone();
        sub.lo = k0;
        sub.hi = k1;
        let fb = run_ladder(gpu, &sub, builder, to, opts, true).map_err(|e| RtError::Degraded {
            from,
            to,
            reason: format!("{reason}; fallback failed: {e}"),
        })?;
        absorb(&mut report, &fb);
    }
    Ok(report)
}

/// Fold a fallback run's accounting into the primary (degraded) report:
/// the fallback ran sequentially after the primary, so times and byte
/// counts add.
fn absorb(primary: &mut RunReport, fb: &RunReport) {
    primary.total += fb.total;
    primary.h2d += fb.h2d;
    primary.d2h += fb.d2h;
    primary.kernel += fb.kernel;
    primary.host_api += fb.host_api;
    primary.h2d_bytes += fb.h2d_bytes;
    primary.d2h_bytes += fb.d2h_bytes;
    primary.gpu_mem_bytes = primary.gpu_mem_bytes.max(fb.gpu_mem_bytes);
    primary.array_bytes = primary.array_bytes.max(fb.array_bytes);
    primary.commands += fb.commands;
    primary.spikes += fb.spikes;
    primary.recovery.merge(&fb.recovery);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ladder hands its unfinished ranges to `sort_coalesce` so the
    /// fallback runs once per contiguous stretch.
    #[test]
    fn coalesce_merges_adjacent() {
        assert_eq!(
            sort_coalesce(vec![(0, 4), (4, 8), (12, 16)]),
            vec![(0, 8), (12, 16)]
        );
        assert_eq!(sort_coalesce(vec![]), Vec::<(i64, i64)>::new());
        assert_eq!(sort_coalesce(vec![(3, 5)]), vec![(3, 5)]);
    }
}
