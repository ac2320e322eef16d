//! Fault tolerance: run the same pipelined stencil under an injected
//! fault plan three ways — retry disabled (the fault surfaces), with
//! chunk-granular retry (the run self-heals), and with the degradation
//! ladder (retries exhaust and the runtime falls back a model rung) —
//! then compare the recovery accounting against the fault-free run.
//!
//! ```text
//! cargo run --release -p pipeline-apps --example fault_tolerance
//! ```

use gpsim::{
    DeviceProfile, ExecMode, FaultPlan, FaultStage, Gpu, KernelCost, KernelLaunch, SimTime,
};
use pipeline_directive::parse_directive;
use dbpp::prelude::*;

const NZ: usize = 256;
const SLICE: usize = 16 * 1024;

fn setup(gpu: &mut Gpu) -> Region {
    let input = gpu.alloc_host(NZ * SLICE, true).unwrap();
    let output = gpu.alloc_host(NZ * SLICE, true).unwrap();
    gpu.host_fill(input, |i| (i % 97) as f32).unwrap();
    let directive = format!(
        "#pragma omp target pipeline(static[4,3]) \
         pipeline_map(to:input[k-1:3][0:{SLICE}]) \
         pipeline_map(from:output[k:1][0:{SLICE}])"
    );
    let spec = parse_directive(&directive)
        .unwrap()
        .to_region_spec(|_| Some(NZ))
        .unwrap();
    Region::new(spec, 1, (NZ - 1) as i64, vec![input, output])
}

fn builder(ctx: &ChunkCtx) -> KernelLaunch {
    let (k0, k1) = (ctx.k0, ctx.k1);
    let (vin, vout) = (ctx.view(0), ctx.view(1));
    KernelLaunch::new(
        "avg3",
        KernelCost {
            flops: (k1 - k0) as u64 * SLICE as u64 * 3,
            bytes: (k1 - k0) as u64 * SLICE as u64 * 8,
        },
        move |kc| {
            for k in k0..k1 {
                let a = kc.read(vin.slice_ptr(k - 1), SLICE)?;
                let b = kc.read(vin.slice_ptr(k), SLICE)?;
                let c = kc.read(vin.slice_ptr(k + 1), SLICE)?;
                let mut out = kc.write(vout.slice_ptr(k), SLICE)?;
                for i in 0..SLICE {
                    out[i] = (a[i] + b[i] + c[i]) / 3.0;
                }
            }
            Ok(())
        },
    )
}

fn main() {
    let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();
    let region = setup(&mut gpu);

    // Baseline: fault-free reference output and cost.
    let clean = run_model(
        &mut gpu,
        &region,
        &builder,
        ExecModel::PipelinedBuffer,
        &RunOptions::default(),
    )
    .unwrap();
    let mut expect = vec![0.0f32; NZ * SLICE];
    gpu.host_read(region.arrays[1], 0, &mut expect).unwrap();
    println!("fault-free      : {clean}");

    // 1. Retry disabled: a single injected H2D fault is fatal.
    gpu.set_fault_plan(Some(FaultPlan::seeded(42).h2d_rate(1.0).max_faults(1)));
    let err = run_model(
        &mut gpu,
        &region,
        &builder,
        ExecModel::PipelinedBuffer,
        &RunOptions::default(),
    )
    .unwrap_err();
    println!("\nretry disabled  : {err}");

    // 2. Chunk-granular retry: a 5% transient H2D fault rate, healed by
    //    re-enqueueing only the failed chunk's copy/kernel/copy triplet.
    gpu.host_fill(region.arrays[1], |_| -1.0).unwrap();
    gpu.set_fault_plan(Some(FaultPlan::seeded(42).h2d_rate(0.05)));
    let retry = RunOptions::default()
        .with_retry(RetryPolicy::retries(8).with_backoff(SimTime::from_us(50), 2.0));
    let healed = run_model(
        &mut gpu,
        &region,
        &builder,
        ExecModel::PipelinedBuffer,
        &retry,
    )
    .unwrap();
    let injected = gpu.faults_injected();
    println!("\n5% h2d faults   : {healed}");
    println!(
        "  {injected} faults injected, {} retried (h2d {}, d2h {}, kernel {}), \
         {} commands reissued, {} backoff",
        healed.recovery.total_retries(),
        healed.recovery.retries[FaultStage::H2d.index()],
        healed.recovery.retries[FaultStage::D2h.index()],
        healed.recovery.retries[FaultStage::Kernel.index()],
        healed.recovery.reissued_commands,
        healed.recovery.backoff_time,
    );
    let mut got = vec![0.0f32; NZ * SLICE];
    gpu.host_read(region.arrays[1], 0, &mut got).unwrap();
    let interior = SLICE..(NZ - 1) * SLICE;
    assert_eq!(got[interior.clone()], expect[interior.clone()], "healed run diverged");
    assert_eq!(clean.commands, healed.commands, "net command count diverged");
    println!("  output bit-identical to the fault-free run, same net command count");
    println!(
        "  resilience overhead: {:.2}% of fault-free makespan",
        100.0 * (healed.total.as_secs_f64() / clean.total.as_secs_f64() - 1.0)
    );

    // 3. Degradation ladder: a deterministic fault burst exhausts a
    //    chunk's retry budget; instead of failing the run, the runtime
    //    drops a model rung and re-executes only the unfinished
    //    iterations.
    gpu.host_fill(region.arrays[1], |_| -1.0).unwrap();
    gpu.set_fault_plan(Some(FaultPlan::seeded(7).kernel_rate(0.9).max_faults(80)));
    let ladder = RunOptions::default()
        .with_retry(RetryPolicy::retries(1).with_backoff(SimTime::from_us(10), 2.0))
        .with_degrade(true);
    let degraded = run_model(
        &mut gpu,
        &region,
        &builder,
        ExecModel::PipelinedBuffer,
        &ladder,
    )
    .unwrap();
    gpu.set_fault_plan(None);
    println!("\nfault burst     : {degraded}");
    for d in &degraded.recovery.degradations {
        println!(
            "  degraded {} -> {} over iterations [{}, {}): {}",
            d.from, d.to, d.iterations.0, d.iterations.1, d.reason
        );
    }
    gpu.host_read(region.arrays[1], 0, &mut got).unwrap();
    assert_eq!(got[interior.clone()], expect[interior], "degraded run diverged");
    println!("  output still bit-identical to the fault-free run");
}
