//! End-to-end integration: the full path a user of the proposed
//! extension takes — directive text → parser → typed region → runtime
//! drivers → simulated device — validated functionally against CPU
//! references.

use dbpp::apps::util::{assert_exact, read_host};
use dbpp::directive::parse_directive;
use dbpp::sim::{DeviceProfile, ExecMode, Gpu, HostPool, KernelCost, KernelLaunch};
use dbpp::rt::autotune;
use dbpp::prelude::*;

const NZ: usize = 24;
const NY: usize = 10;
const NX: usize = 8;
const PLANE: usize = NY * NX;

/// A blur along z expressed entirely through the directive front-end.
fn directive_region(gpu: &mut Gpu) -> Region {
    let src = gpu.alloc_host(NZ * PLANE, true).unwrap();
    let dst = gpu.alloc_host(NZ * PLANE, true).unwrap();
    gpu.host_fill(src, |i| ((i * 31) % 17) as f32).unwrap();
    let text = format!(
        "#pragma omp target pipeline(static[2,3]) \
         pipeline_map(to:src[k-1:3][0:{NY}][0:{NX}]) \
         pipeline_map(from:dst[k:1][0:{NY}][0:{NX}])"
    );
    let spec = parse_directive(&text)
        .unwrap()
        .to_region_spec(|_| Some(NZ))
        .unwrap();
    Region::new(spec, 1, (NZ - 1) as i64, vec![src, dst])
}

fn blur_builder(ctx: &ChunkCtx) -> KernelLaunch {
    let (k0, k1) = (ctx.k0, ctx.k1);
    let (vin, vout) = (ctx.view(0), ctx.view(1));
    KernelLaunch::new(
        "blur_z",
        KernelCost {
            flops: (k1 - k0) as u64 * PLANE as u64 * 2,
            bytes: (k1 - k0) as u64 * PLANE as u64 * 8,
        },
        move |kc| {
            for k in k0..k1 {
                let a = kc.read(vin.slice_ptr(k - 1), PLANE)?;
                let b = kc.read(vin.slice_ptr(k), PLANE)?;
                let c = kc.read(vin.slice_ptr(k + 1), PLANE)?;
                let mut out = kc.write(vout.slice_ptr(k), PLANE)?;
                for i in 0..PLANE {
                    out[i] = (a[i] + b[i] + c[i]) / 3.0;
                }
            }
            Ok(())
        },
    )
}

fn blur_reference(src: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; NZ * PLANE];
    for k in 1..NZ - 1 {
        for i in 0..PLANE {
            out[k * PLANE + i] =
                (src[(k - 1) * PLANE + i] + src[k * PLANE + i] + src[(k + 1) * PLANE + i]) / 3.0;
        }
    }
    out
}

#[test]
fn directive_to_device_round_trip() {
    let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();
    gpu.set_race_check(true);
    let region = directive_region(&mut gpu);
    let src = read_host(&gpu, region.arrays[0]).unwrap();
    let expect = blur_reference(&src);

    for name in ["naive", "pipelined", "buffer"] {
        gpu.host_fill(region.arrays[1], |_| -7.0).unwrap();
        match name {
            "naive" => run_model(&mut gpu, &region, &blur_builder, ExecModel::Naive, &RunOptions::default()).unwrap(),
            "pipelined" => run_model(&mut gpu, &region, &blur_builder, ExecModel::Pipelined, &RunOptions::default()).unwrap(),
            _ => run_model(&mut gpu, &region, &blur_builder, ExecModel::PipelinedBuffer, &RunOptions::default()).unwrap(),
        };
        let got = read_host(&gpu, region.arrays[1]).unwrap();
        assert_exact(
            &got[PLANE..(NZ - 1) * PLANE],
            &expect[PLANE..(NZ - 1) * PLANE],
            name,
        );
    }
}

#[test]
fn directive_region_co_schedules_across_two_devices() {
    let pool = HostPool::new(ExecMode::Functional);
    let mut gpus = vec![
        Gpu::with_host_pool(DeviceProfile::k40m(), pool.clone()).unwrap(),
        Gpu::with_host_pool(DeviceProfile::hd7970(), pool).unwrap(),
    ];
    let region = directive_region(&mut gpus[0]);
    let src = read_host(&gpus[0], region.arrays[0]).unwrap();
    let expect = blur_reference(&src);

    let mo = MultiOptions::default().with_probe_cost(2 * PLANE as u64, 8 * PLANE as u64);
    let multi = run_model_multi(&mut gpus, &region, &blur_builder, &mo).unwrap();
    assert_eq!(multi.partitions.len(), 2);

    let got = read_host(&gpus[0], region.arrays[1]).unwrap();
    assert_exact(
        &got[PLANE..(NZ - 1) * PLANE],
        &expect[PLANE..(NZ - 1) * PLANE],
        "multi-device",
    );
}

#[test]
fn autotuned_schedule_is_no_worse_than_the_directive_default() {
    let mut gpu = Gpu::new(DeviceProfile::hd7970(), ExecMode::Timing).unwrap();
    let src = gpu.alloc_host(NZ * PLANE * 512, true).unwrap();
    let dst = gpu.alloc_host(NZ * PLANE * 512, true).unwrap();
    let text = format!(
        "pipeline(static[1,3]) \
         pipeline_map(to:src[k-1:3][0:{}]) \
         pipeline_map(from:dst[k:1][0:{}])",
        PLANE * 512,
        PLANE * 512
    );
    let spec = parse_directive(&text)
        .unwrap()
        .to_region_spec(|_| Some(NZ))
        .unwrap();
    let region = Region::new(spec, 1, (NZ - 1) as i64, vec![src, dst]);

    let builder = |ctx: &ChunkCtx| {
        let n = (ctx.k1 - ctx.k0) as u64;
        KernelLaunch::cost_only(
            "blur_cost",
            KernelCost {
                flops: n * (PLANE * 512) as u64 * 2,
                bytes: n * (PLANE * 512) as u64 * 8,
            },
        )
    };
    let default = run_model(&mut gpu, &region, &builder, ExecModel::PipelinedBuffer, &RunOptions::default()).unwrap();
    let tuned = autotune(&gpu, &region, &builder, &TuneSpace::default()).unwrap();
    assert!(
        tuned.best_time <= default.total,
        "tuner regressed: {} > {}",
        tuned.best_time,
        default.total
    );
}

#[test]
fn all_four_apps_run_through_the_facade() {
    // Smoke-level end-to-end: every evaluation application constructs,
    // runs under the buffer driver, and reports sane numbers.
    let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();

    let stencil = dbpp::apps::StencilConfig::test_small();
    let inst = stencil.setup(&mut gpu).unwrap();
    let rep = run_model(&mut gpu, &inst.region, &stencil.builder(), ExecModel::PipelinedBuffer, &RunOptions::default()).unwrap();
    assert!(rep.total > dbpp::sim::SimTime::ZERO);

    let conv = dbpp::apps::Conv3dConfig::test_small();
    let inst = conv.setup(&mut gpu).unwrap();
    let rep = run_model(&mut gpu, &inst.region, &conv.builder(), ExecModel::PipelinedBuffer, &RunOptions::default()).unwrap();
    assert!(rep.h2d_bytes > 0);

    let qcd = dbpp::apps::QcdConfig::test_small();
    let inst = qcd.setup(&mut gpu).unwrap();
    let rep = run_model(&mut gpu, &inst.region, &qcd.builder(), ExecModel::PipelinedBuffer, &RunOptions::default()).unwrap();
    assert!(rep.chunks > 1);

    let mm = dbpp::apps::MatmulConfig::test_small();
    let (a, b, c) = mm.host_matrices(&mut gpu).unwrap();
    let rep = mm.run_pipeline_buffer(&mut gpu, a, b, c).unwrap();
    assert!(rep.d2h_bytes >= (mm.n * mm.n * 4) as u64);
}
