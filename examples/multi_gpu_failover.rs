//! Multi-GPU co-scheduling with device-loss failover: a stencil region
//! is partitioned across a K40m and an HD 7970 sharing one host pool,
//! the K40m is injected to die mid-flight, and the supervisor migrates
//! its unfinished iterations to the survivor — the recovered output is
//! bit-identical to the fault-free run.
//!
//! ```text
//! cargo run --release --example multi_gpu_failover
//! ```

use gpsim::{DeviceProfile, ExecMode, FaultPlan, Gpu, HostPool, KernelCost, KernelLaunch};
use pipeline_directive::parse_directive;
use dbpp::prelude::*;

const NZ: usize = 256;
const SLICE: usize = 16 * 1024;

fn setup() -> (Vec<Gpu>, Region) {
    let pool = HostPool::new(ExecMode::Functional);
    let mut gpus = vec![
        Gpu::with_host_pool(DeviceProfile::k40m(), pool.clone()).unwrap(),
        Gpu::with_host_pool(DeviceProfile::hd7970(), pool).unwrap(),
    ];
    let input = gpus[0].alloc_host(NZ * SLICE, true).unwrap();
    let output = gpus[0].alloc_host(NZ * SLICE, true).unwrap();
    gpus[0].host_fill(input, |i| (i % 97) as f32).unwrap();
    let directive = format!(
        "#pragma omp target pipeline(static[4,3]) \
         pipeline_map(to:input[k-1:3][0:{SLICE}]) \
         pipeline_map(from:output[k:1][0:{SLICE}])"
    );
    let spec = parse_directive(&directive)
        .unwrap()
        .to_region_spec(|_| Some(NZ))
        .unwrap();
    let region = Region::new(spec, 1, (NZ - 1) as i64, vec![input, output]);
    (gpus, region)
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
    let mo = MultiOptions::default().with_probe_cost(3 * SLICE as u64, 8 * SLICE as u64);

    // Fault-free co-scheduled reference.
    let (mut gpus, region) = setup();
    let clean = run_model_multi(&mut gpus, &region, &builder, &mo).unwrap();
    let mut expect = vec![0.0f32; NZ * SLICE];
    gpus[0].host_read(region.arrays[1], 0, &mut expect).unwrap();
    println!("fault-free co-scheduled run:");
    for (i, rep) in clean.per_device.iter().enumerate() {
        let (lo, hi) = clean.partitions[i];
        if let Some(r) = rep {
            println!("  dev{i} [{lo:>3}, {hi:>3}): {r}");
        }
    }
    println!("  makespan {}", clean.makespan);

    // Same region, but the K40m's context dies after half its commands.
    let budget = clean.per_device[0].as_ref().unwrap().commands;
    let (mut gpus, region) = setup();
    gpus[0].set_fault_plan(Some(FaultPlan::seeded(42).device_lost_after(budget / 2)));
    let multi = run_model_multi(&mut gpus, &region, &builder, &mo).unwrap();

    println!("\nK40m lost after {} commands:", budget / 2);
    let rec = &multi.recovery;
    println!(
        "  devices lost {:?} ({} watchdog), {} rebalance events, {} iterations migrated",
        rec.devices_lost, rec.watchdog_fires, rec.rebalance_events, rec.iterations_migrated
    );
    for m in &rec.migrations {
        println!(
            "  migrated [{:>3}, {:>3}) dev{} → dev{} ({})",
            m.range.0, m.range.1, m.from, m.to, m.why
        );
    }
    for (i, ranges) in multi.completed.iter().enumerate() {
        let done: i64 = ranges.iter().map(|(a, b)| b - a).sum();
        println!("  dev{i} completed {done} iterations in {} slices", ranges.len());
    }
    println!(
        "  makespan {} ({:+.1}% vs fault-free)",
        multi.makespan,
        100.0 * (multi.makespan.as_secs_f64() / clean.makespan.as_secs_f64() - 1.0)
    );

    // The survivor's output must be bit-identical to the fault-free run.
    let mut got = vec![0.0f32; NZ * SLICE];
    gpus[1].host_read(region.arrays[1], 0, &mut got).unwrap();
    let interior = SLICE..(NZ - 1) * SLICE;
    assert_eq!(
        got[interior.clone()],
        expect[interior],
        "recovered output diverged"
    );
    println!("\noutput bit-identical to the fault-free co-scheduled run");
}
