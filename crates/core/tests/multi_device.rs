//! Multi-device co-scheduling tests: regions split across several
//! simulated GPUs sharing one host pool (the §VII extension).

use gpsim::{DeviceProfile, ExecMode, FaultPlan, Gpu, HostPool, KernelCost, KernelLaunch};
use pipeline_rt::{
    partition_iterations, resolve_plan, run_model, run_model_multi, Affine, Calibration, ChunkCtx,
    CostModel, ExecModel, KernelBuilder, MapDir, MapSpec, MultiOptions, MultiReport, Region,
    RegionSpec, RtError, RtResult, RunOptions, Schedule, SplitSpec,
};

const NZ: usize = 64;
const SLICE: usize = 4096;

fn run_pipelined_buffer_multi(
    gpus: &mut [Gpu],
    region: &Region,
    builder: &KernelBuilder<'_>,
    probe_cost: (u64, u64),
) -> RtResult<MultiReport> {
    let multi = MultiOptions::default().with_probe_cost(probe_cost.0, probe_cost.1);
    run_model_multi(gpus, region, builder, &multi)
}

fn shared_setup(profiles: &[DeviceProfile]) -> (Vec<Gpu>, Region) {
    let schedule = Schedule::static_(2, 3);
    let (gpus, region) = setup_on(profiles, ExecMode::Functional, schedule, NZ, SLICE);
    gpus[0]
        .host_fill(region.arrays[0], |i| (i % 113) as f32)
        .unwrap();
    (gpus, region)
}

/// `out[k] = in[k-1] + in[k] + in[k+1]` over `extent` slices of `slice`
/// elements, bound on every device of one shared host pool.
fn setup_on(
    profiles: &[DeviceProfile],
    mode: ExecMode,
    schedule: Schedule,
    extent: usize,
    slice: usize,
) -> (Vec<Gpu>, Region) {
    let pool = HostPool::new(mode);
    let mut gpus: Vec<Gpu> = profiles
        .iter()
        .map(|p| Gpu::with_host_pool(p.clone(), pool.clone()).unwrap())
        .collect();
    let input = gpus[0].alloc_host(extent * slice, true).unwrap();
    let output = gpus[0].alloc_host(extent * slice, true).unwrap();
    let one_d = |offset, window| SplitSpec::OneD {
        offset,
        window,
        extent,
        slice_elems: slice,
    };
    let spec = RegionSpec::new(schedule)
        .with_map(MapSpec {
            name: "in".into(),
            dir: MapDir::To,
            split: one_d(Affine::shifted(-1), 3),
        })
        .with_map(MapSpec {
            name: "out".into(),
            dir: MapDir::From,
            split: one_d(Affine::IDENTITY, 1),
        });
    let region = Region::new(spec, 1, (extent - 1) as i64, vec![input, output]);
    (gpus, region)
}

fn builder(ctx: &ChunkCtx) -> KernelLaunch {
    let (k0, k1) = (ctx.k0, ctx.k1);
    let (vin, vout) = (ctx.view(0), ctx.view(1));
    KernelLaunch::new(
        "sum3",
        KernelCost {
            flops: (k1 - k0) as u64 * SLICE as u64 * 2,
            bytes: (k1 - k0) as u64 * SLICE as u64 * 16,
        },
        move |kc| {
            for k in k0..k1 {
                let a = kc.read(vin.slice_ptr(k - 1), SLICE)?;
                let b = kc.read(vin.slice_ptr(k), SLICE)?;
                let c = kc.read(vin.slice_ptr(k + 1), SLICE)?;
                let mut out = kc.write(vout.slice_ptr(k), SLICE)?;
                for i in 0..SLICE {
                    out[i] = a[i] + b[i] + c[i];
                }
            }
            Ok(())
        },
    )
}

const PROBE: (u64, u64) = (2 * SLICE as u64, 16 * SLICE as u64);

fn expected(gpu: &Gpu, input: gpsim::HostBufId) -> Vec<f32> {
    let mut data = vec![0.0f32; NZ * SLICE];
    gpu.host_read(input, 0, &mut data).unwrap();
    let mut out = vec![0.0f32; NZ * SLICE];
    for k in 1..NZ - 1 {
        for i in 0..SLICE {
            out[k * SLICE + i] =
                data[(k - 1) * SLICE + i] + data[k * SLICE + i] + data[(k + 1) * SLICE + i];
        }
    }
    out
}

#[test]
fn two_homogeneous_devices_split_evenly_and_compute_correctly() {
    let (mut gpus, region) = shared_setup(&[DeviceProfile::k40m(), DeviceProfile::k40m()]);
    let expect = expected(&gpus[0], region.arrays[0]);

    let multi = run_pipelined_buffer_multi(&mut gpus, &region, &builder, PROBE).unwrap();
    assert_eq!(multi.partitions.len(), 2);
    let lens: Vec<i64> = multi.partitions.iter().map(|(a, b)| b - a).collect();
    assert!((lens[0] - lens[1]).abs() <= 1, "uneven split {lens:?}");

    let mut got = vec![0.0f32; NZ * SLICE];
    gpus[0].host_read(region.arrays[1], 0, &mut got).unwrap();
    assert_eq!(
        &got[SLICE..(NZ - 1) * SLICE],
        &expect[SLICE..(NZ - 1) * SLICE]
    );
}

#[test]
fn co_scheduling_beats_a_single_device() {
    let (mut gpus, region) = shared_setup(&[DeviceProfile::k40m(), DeviceProfile::k40m()]);
    let single = run_model(
        &mut gpus[0],
        &region,
        &builder,
        ExecModel::PipelinedBuffer,
        &RunOptions::default(),
    )
    .unwrap();
    let multi = run_pipelined_buffer_multi(&mut gpus, &region, &builder, PROBE).unwrap();
    let speedup = multi.speedup_over(&single);
    assert!(
        speedup > 1.5,
        "two equal devices should be ≈2x: got {speedup}"
    );
}

#[test]
fn heterogeneous_devices_get_proportional_shares() {
    let (mut gpus, region) = shared_setup(&[DeviceProfile::k40m(), DeviceProfile::hd7970()]);
    let expect = expected(&gpus[0], region.arrays[0]);
    let multi = run_pipelined_buffer_multi(&mut gpus, &region, &builder, PROBE).unwrap();
    // The K40m (faster PCIe + memory) must receive the larger share.
    let lens: Vec<i64> = multi.partitions.iter().map(|(a, b)| b - a).collect();
    assert!(
        lens[0] > lens[1],
        "expected the K40m to take more iterations: {lens:?}"
    );
    let mut got = vec![0.0f32; NZ * SLICE];
    gpus[0].host_read(region.arrays[1], 0, &mut got).unwrap();
    assert_eq!(
        &got[SLICE..(NZ - 1) * SLICE],
        &expect[SLICE..(NZ - 1) * SLICE]
    );
}

#[test]
fn overlapping_output_windows_are_rejected() {
    let (mut gpus, mut region) = shared_setup(&[DeviceProfile::k40m(), DeviceProfile::k40m()]);
    // Make the output window span 2 slices per iteration with stride 1:
    // partitions would write common slices.
    if let SplitSpec::OneD { window, .. } = &mut region.spec.maps[1].split {
        *window = 2;
    }
    region.hi -= 1; // keep the widened window in range
    let err = run_pipelined_buffer_multi(&mut gpus, &region, &builder, PROBE).unwrap_err();
    assert!(matches!(err, RtError::Spec(_)), "{err:?}");
    assert!(err.to_string().contains("overlapping"), "{err}");
}

#[test]
fn empty_device_list_is_an_error() {
    let (_, region) = shared_setup(&[DeviceProfile::k40m()]);
    let err = run_pipelined_buffer_multi(&mut [], &region, &builder, PROBE).unwrap_err();
    assert!(matches!(err, RtError::Spec(_)));
}

#[test]
fn host_pool_is_really_shared() {
    let pool = HostPool::new(ExecMode::Functional);
    let mut a = Gpu::with_host_pool(DeviceProfile::k40m(), pool.clone()).unwrap();
    let b = Gpu::with_host_pool(DeviceProfile::hd7970(), pool).unwrap();
    let h = a.alloc_host(8, true).unwrap();
    a.host_write(h, 0, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        .unwrap();
    let mut out = vec![0.0f32; 8];
    b.host_read(h, 0, &mut out).unwrap();
    assert_eq!(out[7], 8.0);
}

#[test]
fn model_partition_shifts_heterogeneous_shares_and_stays_correct() {
    // Engine-bound heuristic vs full cost-model prediction: the second
    // device differs only in host-API overhead, which the bottleneck-
    // engine heuristic cannot see (it weighs DMA and kernel time only)
    // but the pipeline prediction charges per enqueue. The partition
    // boundary must move — and the numerical result must not.
    let mut laggy = DeviceProfile::k40m();
    laggy.api_overhead = laggy.api_overhead * 12;
    laggy.kernel_launch_latency = laggy.kernel_launch_latency * 12;
    let (mut gpus, region) = shared_setup(&[DeviceProfile::k40m(), laggy]);
    let expect = expected(&gpus[0], region.arrays[0]);

    let heuristic = {
        let multi = MultiOptions::default().with_probe_cost(PROBE.0, PROBE.1);
        run_model_multi(&mut gpus, &region, &builder, &multi).unwrap()
    };
    let modeled = {
        let multi = MultiOptions::default().with_model_partition(vec![]);
        run_model_multi(&mut gpus, &region, &builder, &multi).unwrap()
    };

    let share = |m: &pipeline_rt::MultiReport| -> Vec<i64> {
        m.partitions.iter().map(|(a, b)| b - a).collect()
    };
    let (h, m) = (share(&heuristic), share(&modeled));
    assert!(
        m[0] > m[1],
        "cost model must still favour the faster K40m: {m:?}"
    );
    assert_ne!(h, m, "model-driven partition should move the boundary");

    let mut got = vec![0.0f32; NZ * SLICE];
    gpus[0].host_read(region.arrays[1], 0, &mut got).unwrap();
    assert_eq!(
        &got[SLICE..(NZ - 1) * SLICE],
        &expect[SLICE..(NZ - 1) * SLICE]
    );
}

#[test]
fn model_partition_predicts_the_adaptive_schedule_each_device_runs() {
    // An adaptive region sizes its chunks to each device's bandwidth
    // ramp (96 KiB on the K40m, 48 KiB on the P100), so the partition
    // weights must come from predictions of those resolved schedules.
    const SLICE: u64 = 4096;
    let profiles = [DeviceProfile::k40m(), DeviceProfile::p100()];
    let (mut gpus, region) = setup_on(
        &profiles,
        ExecMode::Timing,
        Schedule::Adaptive,
        1024,
        SLICE as usize,
    );
    let builder = |ctx: &ChunkCtx| {
        let n = (ctx.k1 - ctx.k0) as u64;
        KernelLaunch::cost_only(
            "sum3",
            KernelCost {
                flops: n * SLICE * 2,
                bytes: n * SLICE * 16,
            },
        )
    };
    let iters = (region.hi - region.lo) as f64;
    let per_iter = |gpu: &Gpu, (chunk, streams): (usize, usize)| {
        let cm = CostModel::new(gpu, &region, &builder).unwrap();
        let p = cm
            .predict(ExecModel::PipelinedBuffer, chunk, streams)
            .unwrap();
        p.total.as_secs_f64() / iters
    };
    let resolved: Vec<(usize, usize)> = gpus
        .iter()
        .map(|g| {
            let plan = resolve_plan(&region.spec, g.profile(), region.lo, region.hi).unwrap();
            (plan.chunk_size, plan.num_streams)
        })
        .collect();
    assert_eq!(resolved, vec![(24, 3), (12, 3)]);
    let costs: Vec<f64> = gpus
        .iter()
        .zip(&resolved)
        .map(|(g, &s)| per_iter(g, s))
        .collect();
    let want = partition_iterations(region.lo, region.hi, &costs);
    // One fixed schedule on both devices would split differently.
    let fixed: Vec<f64> = gpus.iter().map(|g| per_iter(g, (8, 2))).collect();
    assert_ne!(partition_iterations(region.lo, region.hi, &fixed), want);

    let multi = MultiOptions::default().with_model_partition(vec![]);
    let rep = run_model_multi(&mut gpus, &region, &builder, &multi).unwrap();
    assert_eq!(rep.partitions, want);

    // An override profile drives the prediction only: the K40m still
    // runs its own (24, 3), predicted with the P100's engine rates.
    let mut cm = CostModel::new(&gpus[0], &region, &builder).unwrap();
    cm.set_profile(DeviceProfile::p100());
    let p = cm.predict(ExecModel::PipelinedBuffer, 24, 3).unwrap();
    let costs = [p.total.as_secs_f64() / iters, costs[1]];
    let want = partition_iterations(region.lo, region.hi, &costs);
    let multi = MultiOptions::default().with_model_partition(vec![
        Some((DeviceProfile::p100(), Calibration::default())),
        None,
    ]);
    let rep = run_model_multi(&mut gpus, &region, &builder, &multi).unwrap();
    assert_eq!(rep.partitions, want);

    // A supervised device runs slices of `8 * slice_chunks` adaptive
    // iterations, which caps both devices' chunk at 32 / 3 = 10.
    for g in gpus.iter_mut() {
        g.set_fault_plan(Some(FaultPlan::seeded(1).device_lost_after(u64::MAX)));
    }
    let costs: Vec<f64> = gpus.iter().map(|g| per_iter(g, (10, 3))).collect();
    let want = partition_iterations(region.lo, region.hi, &costs);
    let multi = MultiOptions::default()
        .with_slice_chunks(4)
        .with_model_partition(vec![]);
    let rep = run_model_multi(&mut gpus, &region, &builder, &multi).unwrap();
    assert_eq!(rep.partitions, want);
}
