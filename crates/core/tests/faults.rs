//! Integration tests of the fault-tolerant execution layer: seeded fault
//! injection in the simulator, chunk-granular retry in the drivers, the
//! degradation ladder, and recovery accounting.

use gpsim::{
    DeviceProfile, ExecMode, FaultPlan, FaultStage, Gpu, KernelCost, KernelLaunch, SimTime,
};
use pipeline_rt::{
    run_model, Affine, ChunkCtx, ExecModel, MapDir, MapSpec, Region, RegionSpec, RetryPolicy,
    RtError, RunOptions, RunReport, Schedule, SplitSpec,
};

const EXTENT: usize = 16;
const SLICE: usize = 32;

fn gpu() -> Gpu {
    Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap()
}

/// A stencil-flavoured region: `out[k] = in[k-1] + in[k] + in[k+1]`,
/// halo window 3 so chunks share input slices (the dependents path).
fn setup(gpu: &mut Gpu, chunk: usize, streams: usize) -> Region {
    let input = gpu.alloc_host(EXTENT * SLICE, true).unwrap();
    let output = gpu.alloc_host(EXTENT * SLICE, true).unwrap();
    gpu.host_fill(input, |i| ((i * 7 + 3) % 101) as f32).unwrap();
    let spec = RegionSpec::new(Schedule::static_(chunk, streams))
        .with_map(MapSpec {
            name: "in".into(),
            dir: MapDir::To,
            split: SplitSpec::OneD {
                offset: Affine::shifted(-1),
                window: 3,
                extent: EXTENT,
                slice_elems: SLICE,
            },
        })
        .with_map(MapSpec {
            name: "out".into(),
            dir: MapDir::From,
            split: SplitSpec::OneD {
                offset: Affine::IDENTITY,
                window: 1,
                extent: EXTENT,
                slice_elems: SLICE,
            },
        });
    Region::new(spec, 1, (EXTENT - 1) as i64, vec![input, output])
}

fn stencil_builder(ctx: &ChunkCtx) -> KernelLaunch {
    let (k0, k1) = (ctx.k0, ctx.k1);
    let (vin, vout) = (ctx.view(0), ctx.view(1));
    KernelLaunch::new(
        "sum3",
        KernelCost {
            flops: (k1 - k0) as u64 * SLICE as u64 * 3,
            bytes: 0,
        },
        move |kc| {
            for k in k0..k1 {
                let a = kc.read(vin.slice_ptr(k - 1), SLICE)?;
                let b = kc.read(vin.slice_ptr(k), SLICE)?;
                let c = kc.read(vin.slice_ptr(k + 1), SLICE)?;
                let mut o = kc.write(vout.slice_ptr(k), SLICE)?;
                for i in 0..SLICE {
                    o[i] = a[i] + b[i] + c[i];
                }
            }
            Ok(())
        },
    )
}

/// Interior of the output array — the slices the loop `1..EXTENT-1`
/// actually writes (the boundary slices keep whatever the host left).
fn read(gpu: &Gpu, region: &Region, map: usize) -> Vec<f32> {
    let mut v = vec![0.0f32; EXTENT * SLICE];
    gpu.host_read(region.arrays[map], 0, &mut v).unwrap();
    v[SLICE..(EXTENT - 1) * SLICE].to_vec()
}

fn retrying() -> RunOptions {
    RunOptions::default().with_retry(RetryPolicy::retries(8).with_backoff(SimTime::from_us(50), 2.0))
}

/// Run fault-free, then re-run with faults + retry; outputs and command
/// counts must match exactly.
fn faulted_matches_clean(model: ExecModel, plan: FaultPlan) -> (RunReport, RunReport) {
    let mut g = gpu();
    let region = setup(&mut g, 2, 3);
    let clean = run_model(&mut g, &region, &stencil_builder, model, &retrying()).unwrap();
    let expect = read(&g, &region, 1);

    g.host_fill(region.arrays[1], |_| -1.0).unwrap();
    g.set_fault_plan(Some(plan));
    let faulted = run_model(&mut g, &region, &stencil_builder, model, &retrying()).unwrap();
    assert!(g.faults_injected() > 0, "plan never fired");
    g.set_fault_plan(None);
    assert_eq!(read(&g, &region, 1), expect, "{model}: output diverged");
    (clean, faulted)
}

#[test]
fn pipelined_recovers_from_h2d_faults() {
    let plan = FaultPlan::seeded(7).h2d_rate(0.3).max_faults(4);
    let (clean, faulted) = faulted_matches_clean(ExecModel::Pipelined, plan);
    assert_eq!(clean.commands, faulted.commands, "net commands must match");
    assert!(faulted.recovery.retries[FaultStage::H2d.index()] > 0);
    assert!(faulted.recovery.reissued_commands > 0);
    assert!(faulted.recovery.backoff_time > SimTime::ZERO);
    assert!(clean.recovery.is_clean());
}

#[test]
fn buffer_recovers_from_h2d_faults() {
    let plan = FaultPlan::seeded(11).h2d_rate(0.3).max_faults(4);
    let (clean, faulted) = faulted_matches_clean(ExecModel::PipelinedBuffer, plan);
    assert_eq!(clean.commands, faulted.commands);
    assert!(faulted.recovery.total_retries() > 0);
}

#[test]
fn buffer_recovers_from_kernel_and_d2h_faults() {
    let plan = FaultPlan::seeded(23).kernel_rate(0.4).d2h_rate(0.2).max_faults(5);
    let (_, faulted) = faulted_matches_clean(ExecModel::PipelinedBuffer, plan);
    assert!(faulted.recovery.total_retries() > 0);
}

#[test]
fn naive_recovers_by_whole_run_retry() {
    let plan = FaultPlan::seeded(3).kernel_rate(1.0).max_faults(1);
    let (_, faulted) = faulted_matches_clean(ExecModel::Naive, plan);
    assert!(faulted.recovery.retries[FaultStage::Kernel.index()] > 0);
}

#[test]
fn retries_exhausted_without_degrade_is_an_error() {
    let mut g = gpu();
    let region = setup(&mut g, 2, 3);
    // Every H2D fails forever; one retry cannot save it.
    g.set_fault_plan(Some(FaultPlan::seeded(5).h2d_rate(1.0)));
    let opts =
        RunOptions::default().with_retry(RetryPolicy::retries(1).with_backoff(SimTime::from_us(10), 2.0));
    let err = run_model(
        &mut g,
        &region,
        &stencil_builder,
        ExecModel::PipelinedBuffer,
        &opts,
    )
    .unwrap_err();
    match err {
        RtError::RetriesExhausted { model, stage, attempts, .. } => {
            assert_eq!(model, ExecModel::PipelinedBuffer);
            assert_eq!(stage, FaultStage::H2d);
            assert_eq!(attempts, 1);
        }
        other => panic!("expected RetriesExhausted, got {other}"),
    }
}

#[test]
fn ladder_degrades_to_pipelined_and_finishes() {
    let mut g = gpu();
    let region = setup(&mut g, 2, 3);
    let clean = {
        let r = run_model(
            &mut g,
            &region,
            &stencil_builder,
            ExecModel::PipelinedBuffer,
            &RunOptions::default(),
        )
        .unwrap();
        let out = read(&g, &region, 1);
        (r, out)
    };

    g.host_fill(region.arrays[1], |_| -1.0).unwrap();
    // Seven chunks → kernel rolls 0..=6 are the initial launches and
    // roll 7 is the first reissue. Failing all eight exhausts that
    // chunk's single retry; the fault budget then dries up and the
    // Pipelined fallback completes cleanly.
    g.set_fault_plan(Some(FaultPlan::seeded(17).kernel_rate(1.0).max_faults(8)));
    let opts = RunOptions::default()
        .with_retry(RetryPolicy::retries(1).with_backoff(SimTime::from_us(10), 2.0))
        .with_degrade(true);
    let report = run_model(
        &mut g,
        &region,
        &stencil_builder,
        ExecModel::PipelinedBuffer,
        &opts,
    )
    .unwrap();
    g.set_fault_plan(None);

    assert_eq!(read(&g, &region, 1), clean.1, "degraded run diverged");
    assert!(
        !report.recovery.degradations.is_empty(),
        "expected a recorded degradation"
    );
    let d = &report.recovery.degradations[0];
    assert_eq!(d.from, ExecModel::PipelinedBuffer);
    assert_eq!(d.to, ExecModel::Pipelined);
    assert!(d.reason.contains("retries exhausted"), "{}", d.reason);
}

/// Both pipelined rungs exhaust their retries on one chunk, so the
/// ladder bottoms out at Naive over that chunk's sub-range. The Naive
/// rung must move only the sub-range's windows: whole-array write-back
/// would overwrite the outputs the other chunks already produced.
#[test]
fn ladder_reaches_naive_over_a_sub_range() {
    let mut g = gpu();
    let region = setup(&mut g, 2, 3);
    run_model(
        &mut g,
        &region,
        &stencil_builder,
        ExecModel::PipelinedBuffer,
        &RunOptions::default(),
    )
    .unwrap();
    let clean = read(&g, &region, 1);

    g.host_fill(region.arrays[1], |_| -1.0).unwrap();
    // Seven chunks: kernel occurrence 3 is chunk [7, 9) and 7 its one
    // reissue; the Pipelined fallback over [7, 9) launches 8 and
    // reissues 9. Occurrence 10, the Naive launch, runs clean.
    let plan = [3, 7, 8, 9]
        .into_iter()
        .fold(FaultPlan::seeded(23), |p, n| {
            p.target(FaultStage::Kernel, n)
        });
    g.set_fault_plan(Some(plan));
    let opts = RunOptions::default()
        .with_retry(RetryPolicy::retries(1).with_backoff(SimTime::from_us(10), 2.0))
        .with_degrade(true);
    let report = run_model(
        &mut g,
        &region,
        &stencil_builder,
        ExecModel::PipelinedBuffer,
        &opts,
    )
    .unwrap();
    g.set_fault_plan(None);

    assert_eq!(read(&g, &region, 1), clean, "degraded run diverged");
    let rungs: Vec<_> = report
        .recovery
        .degradations
        .iter()
        .map(|d| (d.from, d.to, d.iterations))
        .collect();
    assert_eq!(
        rungs,
        vec![
            (ExecModel::PipelinedBuffer, ExecModel::Pipelined, (7, 9)),
            (ExecModel::Pipelined, ExecModel::Naive, (7, 9)),
        ]
    );
}

#[test]
fn infeasible_mem_limit_degrades_when_allowed() {
    let mut g = gpu();
    let mut region = setup(&mut g, 2, 3);
    region.spec.mem_limit = Some(1); // nothing fits
    let opts = RunOptions::default().with_degrade(true);
    let report = run_model(
        &mut g,
        &region,
        &stencil_builder,
        ExecModel::PipelinedBuffer,
        &opts,
    )
    .unwrap();
    assert_eq!(report.model, ExecModel::Pipelined);
    let d = &report.recovery.degradations[0];
    assert_eq!(d.from, ExecModel::PipelinedBuffer);
    assert_eq!(d.to, ExecModel::Pipelined);
    assert!(d.reason.contains("infeasible"), "{}", d.reason);

    // Without the switch the limit stays a hard error.
    let err = run_model(
        &mut g,
        &region,
        &stencil_builder,
        ExecModel::PipelinedBuffer,
        &RunOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(err, RtError::MemLimitInfeasible { .. }));
}

#[test]
fn wait_retry_shows_up_in_stalls_and_counters() {
    let mut g = gpu();
    let region = setup(&mut g, 2, 3);
    g.set_fault_plan(Some(FaultPlan::seeded(7).h2d_rate(0.3).max_faults(4)));
    let report = run_model(
        &mut g,
        &region,
        &stencil_builder,
        ExecModel::PipelinedBuffer,
        &retrying(),
    )
    .unwrap();
    assert!(report.recovery.total_retries() > 0, "no retries fired");
    let track = report
        .counter_tracks
        .iter()
        .find(|t| t.name == "retries_in_flight")
        .expect("retries_in_flight counter track");
    assert!(track.samples.iter().any(|&(_, v)| v > 0.0));
    assert_eq!(track.samples.last().map(|&(_, v)| v), Some(0.0));
}

#[test]
fn disabled_retry_surfaces_device_error() {
    let mut g = gpu();
    let region = setup(&mut g, 2, 3);
    g.set_fault_plan(Some(FaultPlan::seeded(7).h2d_rate(1.0).max_faults(1)));
    let err = run_model(
        &mut g,
        &region,
        &stencil_builder,
        ExecModel::PipelinedBuffer,
        &RunOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(err, RtError::Sim(_)), "got {err}");
}

/// A degraded report accounts for the fallback's work the way a later
/// slice does: its chunks join the chunk count, and every command it
/// executed lands in the stage histograms next to the primary's.
#[test]
fn degraded_report_includes_the_fallback_chunks() {
    // The fallback alone: a clean Pipelined run over the sub-range the
    // ladder hands down below.
    let fallback = {
        let mut g = gpu();
        let mut sub = setup(&mut g, 2, 3);
        (sub.lo, sub.hi) = (7, 9);
        run_model(
            &mut g,
            &sub,
            &stencil_builder,
            ExecModel::Pipelined,
            &RunOptions::default(),
        )
        .unwrap()
    };

    let mut g = gpu();
    let region = setup(&mut g, 2, 3);
    // Kernel occurrence 3 is chunk [7, 9) and 7 its one reissue, so the
    // buffered model gives up on that chunk and Pipelined re-runs it.
    let plan = [3, 7].into_iter().fold(FaultPlan::seeded(23), |p, n| {
        p.target(FaultStage::Kernel, n)
    });
    g.set_fault_plan(Some(plan));
    let opts = RunOptions::default()
        .with_retry(RetryPolicy::retries(1).with_backoff(SimTime::from_us(10), 2.0))
        .with_degrade(true);
    let report = run_model(
        &mut g,
        &region,
        &stencil_builder,
        ExecModel::PipelinedBuffer,
        &opts,
    )
    .unwrap();
    let d = &report.recovery.degradations;
    assert_eq!(d.len(), 1);
    assert_eq!((d[0].to, d[0].iterations), (ExecModel::Pipelined, (7, 9)));

    // Seven primary chunks plus the fallback's.
    assert_eq!(report.chunks, 7 + fallback.chunks);
    // Every executed command is in a histogram: the net commands plus
    // the reissued ones, primary and fallback alike.
    let sm = &report.stage_metrics;
    let recorded = sm.h2d.count() + sm.kernel.count() + sm.d2h.count();
    assert_eq!(
        recorded,
        report.commands + report.recovery.reissued_commands
    );
}
