//! Auto-tuning scheduler — the paper's §VII outlook ("integrate a
//! performance model in an autotuning scheduler").
//!
//! Two strategies:
//!
//! * [`TuneStrategy::Model`] (the default): every candidate
//!   `(chunk_size, num_streams)` is ranked by the analytic
//!   [`CostModel`](crate::CostModel) — a forward recurrence over the
//!   profile constants that costs microseconds per cell and issues
//!   **zero** simulated runs. [`TuneResult::des_trials`] is 0.
//! * [`TuneStrategy::Exhaustive`]: the original brute force — every
//!   candidate is executed against a timing-mode twin of the caller's
//!   context (phantom data, cost model only). Kept as the validation
//!   oracle for the analytic model; each sweep worker builds **one**
//!   twin and reuses it across its trials (the driver quiesces the
//!   device — frees rings, destroys streams — after every run).
//!
//! Neither strategy touches the caller's data.

use gpsim::{Gpu, HostBufId, HostPool, SimTime};

use crate::costmodel::ModelTuner;
use crate::error::{RtError, RtResult};
use crate::exec::{run_fresh, KernelBuilder, Region};
use crate::report::ExecModel;
use crate::spec::Schedule;

/// The candidate grid explored by [`autotune`].
#[derive(Debug, Clone)]
pub struct TuneSpace {
    /// Candidate chunk sizes.
    pub chunks: Vec<usize>,
    /// Candidate stream counts.
    pub streams: Vec<usize>,
}

impl Default for TuneSpace {
    /// Powers of two up to 64 iterations per chunk × 1–5 streams — a
    /// superset of every configuration the paper explores in Figures 4,
    /// 7 and 8.
    fn default() -> Self {
        TuneSpace {
            chunks: vec![1, 2, 4, 8, 16, 32, 64],
            streams: vec![1, 2, 3, 4, 5],
        }
    }
}

/// How [`autotune_with`] ranks candidates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TuneStrategy {
    /// Analytic cost model: O(1) per cell, zero simulated runs.
    #[default]
    Model,
    /// Simulate every cell on a timing-mode twin (the validation
    /// oracle — orders of magnitude slower).
    Exhaustive,
}

/// One tuning trial.
#[derive(Debug, Clone, Copy)]
pub struct Trial {
    /// Chunk size tried.
    pub chunk: usize,
    /// Stream count tried.
    pub streams: usize,
    /// Region time for this cell — simulated (exhaustive) or predicted
    /// (model); `None` if the configuration was infeasible (memory
    /// limit below the minimum footprint).
    pub time: Option<SimTime>,
}

/// Result of a tuning sweep.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// The winning schedule.
    pub best: Schedule,
    /// Its region time (simulated or predicted, per the strategy).
    pub best_time: SimTime,
    /// Every trial, in sweep order.
    pub trials: Vec<Trial>,
    /// Cells skipped as infeasible under `pipeline_mem_limit`.
    pub infeasible_skipped: usize,
    /// Full simulated runs the sweep issued — 0 under
    /// [`TuneStrategy::Model`].
    pub des_trials: usize,
}

/// Tune with the default strategy ([`TuneStrategy::Model`]) and return
/// the fastest schedule for this region (Pipelined-buffer model).
pub fn autotune(
    gpu: &Gpu,
    region: &Region,
    builder: &KernelBuilder<'_>,
    space: &TuneSpace,
) -> RtResult<TuneResult> {
    autotune_with(gpu, region, builder, space, TuneStrategy::default())
}

/// Tune with an explicit [`TuneStrategy`].
pub fn autotune_with(
    gpu: &Gpu,
    region: &Region,
    builder: &KernelBuilder<'_>,
    space: &TuneSpace,
    strategy: TuneStrategy,
) -> RtResult<TuneResult> {
    match strategy {
        TuneStrategy::Model => ModelTuner::new(gpu, region, builder)?.pick(space),
        TuneStrategy::Exhaustive => autotune_exhaustive(gpu, region, builder, space),
    }
}

/// Per-worker probe state for the exhaustive sweep: one timing-mode twin
/// plus its host-array twins, built once and reused across trials.
struct ProbeState {
    twin: Gpu,
    arrays: Vec<HostBufId>,
}

fn autotune_exhaustive(
    gpu: &Gpu,
    region: &Region,
    builder: &KernelBuilder<'_>,
    space: &TuneSpace,
) -> RtResult<TuneResult> {
    if space.chunks.is_empty() || space.streams.is_empty() {
        return Err(RtError::Spec("empty tuning space".into()));
    }
    region.validate_binding(gpu)?;

    // Snapshot everything a worker needs to rebuild the timing-mode twin
    // (the caller's context itself is !Send): device profile plus the
    // shape and pinnedness of every bound host array — pinnedness
    // affects transfer cost, and allocation order preserves buffer ids.
    let profile = gpu.profile().clone();
    let mut array_shapes = Vec::with_capacity(region.arrays.len());
    for &h in &region.arrays {
        array_shapes.push((gpu.host_len(h)?, gpu.host_pinned(h)?));
    }

    let candidates: Vec<(usize, usize)> = space
        .chunks
        .iter()
        .flat_map(|&c| space.streams.iter().map(move |&s| (c, s)))
        .collect();

    // One twin per *worker*, not per trial: the buffered driver leaves
    // the device quiesced (ring buffers freed, streams destroyed) after
    // every run, so consecutive trials on one twin are isolated; only
    // the device clock carries over, and trials measure from their own
    // `t0`. Infeasible cells error before touching the device at all.
    let init = || -> Result<ProbeState, String> {
        let build = || -> RtResult<ProbeState> {
            let pool = HostPool::new(gpsim::ExecMode::Timing);
            let mut twin = Gpu::with_host_pool(profile.clone(), pool)?;
            // Probe twins only need the scalar report (total time); skip
            // timeline construction so probing stays cheap.
            twin.set_timeline_enabled(false);
            let mut arrays = Vec::with_capacity(array_shapes.len());
            for &(len, pinned) in &array_shapes {
                arrays.push(twin.alloc_host(len, pinned)?);
            }
            Ok(ProbeState { twin, arrays })
        };
        build().map_err(|e| e.to_string())
    };
    let results = crate::sweep::sweep_map_with(candidates.len(), init, |state, i| {
        let st = match state {
            Ok(st) => st,
            Err(e) => return Err(RtError::Spec(e.clone())),
        };
        let (chunk, streams) = candidates[i];
        let mut candidate =
            Region::new(region.spec.clone(), region.lo, region.hi, st.arrays.clone());
        candidate.spec.schedule = Schedule::static_(chunk, streams);
        run_fresh(
            &mut st.twin,
            &candidate,
            builder,
            ExecModel::PipelinedBuffer,
        )
        .map(|rep| rep.total)
    });

    // Fold in grid order: the winner on ties is the earliest candidate,
    // exactly as the serial loop chose it.
    let mut trials = Vec::new();
    let mut best: Option<(Schedule, SimTime)> = None;
    let mut infeasible = 0usize;
    for (&(chunk, streams), result) in candidates.iter().zip(results) {
        let time = match result {
            Ok(t) => {
                if best.is_none() || t < best.as_ref().unwrap().1 {
                    best = Some((Schedule::static_(chunk, streams), t));
                }
                Some(t)
            }
            // Infeasible configurations (memory limit) are skipped.
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
    let des_trials = trials.len();
    let (best, best_time) =
        best.ok_or_else(|| RtError::Spec("no feasible schedule in tuning space".into()))?;
    Ok(TuneResult {
        best,
        best_time,
        trials,
        infeasible_skipped: infeasible,
        des_trials,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_model, RunOptions};
    use crate::spec::{Affine, MapDir, MapSpec, RegionSpec, SplitSpec};
    use gpsim::{DeviceProfile, ExecMode, KernelCost, KernelLaunch};

    const NZ: usize = 64;
    const SLICE: usize = 1 << 18; // 1 MB slices

    fn setup(profile: DeviceProfile) -> (Gpu, Region) {
        let mut gpu = Gpu::new(profile, ExecMode::Timing).unwrap();
        let input = gpu.alloc_host(NZ * SLICE, true).unwrap();
        let output = gpu.alloc_host(NZ * SLICE, true).unwrap();
        let spec = RegionSpec::new(Schedule::static_(1, 3))
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

    fn builder(ctx: &ChunkCtxAlias) -> KernelLaunch {
        let n = (ctx.k1 - ctx.k0) as u64;
        KernelLaunch::cost_only(
            "probe",
            KernelCost {
                flops: n * SLICE as u64 * 8,
                bytes: n * SLICE as u64 * 8,
            },
        )
    }
    type ChunkCtxAlias = crate::view::ChunkCtx;

    #[test]
    fn autotune_beats_the_worst_static_choice_on_amd() {
        let (mut gpu, region) = setup(DeviceProfile::hd7970());
        let tuned = autotune(&gpu, &region, &builder, &TuneSpace::default()).unwrap();
        // The default strategy is analytic: no simulated sweep runs.
        assert_eq!(tuned.des_trials, 0);
        // On the AMD model, chunk size 1 is catastrophic (Figure 8); the
        // tuner must pick a larger chunk.
        match tuned.best {
            Schedule::Static { chunk_size, .. } => {
                assert!(chunk_size >= 8, "tuner picked chunk {chunk_size}")
            }
            other => panic!("{other:?}"),
        }
        // `ExecModel::Auto` is exactly this tuning followed by a buffered
        // run at the winner.
        let auto = run_model(
            &mut gpu,
            &region,
            &builder,
            ExecModel::Auto,
            &RunOptions::default(),
        )
        .unwrap();
        let mut best = region.clone();
        best.spec.schedule = tuned.best;
        let best = run_fresh(&mut gpu, &best, &builder, ExecModel::PipelinedBuffer).unwrap();
        assert_eq!(auto.model, ExecModel::PipelinedBuffer);
        assert_eq!(
            (auto.total, auto.commands, auto.gpu_mem_bytes),
            (best.total, best.commands, best.gpu_mem_bytes)
        );
        assert_eq!((auto.chunks, auto.streams), (best.chunks, best.streams));
        // And the tuned run must beat the paper's default static[1,3].
        let mut dflt = region.clone();
        dflt.spec.schedule = Schedule::static_(1, 3);
        let worst = run_fresh(&mut gpu, &dflt, &builder, ExecModel::PipelinedBuffer).unwrap();
        assert!(
            best.total.as_secs_f64() < 0.7 * worst.total.as_secs_f64(),
            "tuned {} vs default {}",
            best.total,
            worst.total
        );
    }

    #[test]
    fn model_agrees_with_the_exhaustive_oracle_on_amd() {
        let (gpu, region) = setup(DeviceProfile::hd7970());
        let space = TuneSpace::default();
        let model = autotune_with(&gpu, &region, &builder, &space, TuneStrategy::Model).unwrap();
        let oracle =
            autotune_with(&gpu, &region, &builder, &space, TuneStrategy::Exhaustive).unwrap();
        assert_eq!(oracle.des_trials, oracle.trials.len());
        // The model's pick, looked up in the oracle's measured grid, must
        // be close to the true optimum (within 10 % here; the proptest
        // suite checks a looser bound across random shapes).
        let (mc, ms) = match model.best {
            Schedule::Static {
                chunk_size,
                num_streams,
            } => (chunk_size, num_streams),
            other => panic!("{other:?}"),
        };
        let picked = oracle
            .trials
            .iter()
            .find(|t| t.chunk == mc && t.streams == ms)
            .and_then(|t| t.time)
            .expect("model picked an infeasible cell");
        assert!(
            picked.as_secs_f64() <= 1.10 * oracle.best_time.as_secs_f64(),
            "model pick {}x{} measures {} vs true best {}",
            mc,
            ms,
            picked,
            oracle.best_time
        );
    }

    #[test]
    fn best_time_is_minimum_of_trials() {
        let (gpu, region) = setup(DeviceProfile::k40m());
        let tuned = autotune(&gpu, &region, &builder, &TuneSpace::default()).unwrap();
        let min = tuned
            .trials
            .iter()
            .filter_map(|t| t.time)
            .min()
            .unwrap();
        assert_eq!(tuned.best_time, min);
        assert_eq!(
            tuned.trials.len(),
            TuneSpace::default().chunks.len() * TuneSpace::default().streams.len()
        );
    }

    #[test]
    fn infeasible_configs_are_skipped_not_fatal() {
        let (gpu, mut region) = setup(DeviceProfile::k40m());
        // A limit only the smallest configurations can meet.
        region.spec.mem_limit = Some(6 * SLICE as u64 * 4);
        for strategy in [TuneStrategy::Model, TuneStrategy::Exhaustive] {
            let tuned = autotune_with(&gpu, &region, &builder, &TuneSpace::default(), strategy)
                .unwrap();
            assert!(tuned.trials.iter().any(|t| t.time.is_some()));
            // The counter and the per-trial record must agree (the
            // resolver *shrinks* oversized schedules, so a limit above
            // the minimum footprint skips nothing — every cell resolves).
            assert_eq!(
                tuned.infeasible_skipped,
                tuned.trials.iter().filter(|t| t.time.is_none()).count(),
                "{strategy:?} counter disagrees with trials"
            );
        }
    }

    #[test]
    fn empty_space_is_an_error() {
        let (gpu, region) = setup(DeviceProfile::k40m());
        let err = autotune(
            &gpu,
            &region,
            &builder,
            &TuneSpace {
                chunks: vec![],
                streams: vec![1],
            },
        )
        .unwrap_err();
        assert!(matches!(err, RtError::Spec(_)));
    }
}
