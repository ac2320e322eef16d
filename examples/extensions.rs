//! Tour of the §VII extensions — the paper's "future work", implemented:
//! multi-device co-scheduling, the auto-tuning scheduler, and
//! function-based dependencies.
//!
//! ```text
//! cargo run --release --example extensions
//! ```

use gpsim::{DeviceProfile, ExecMode, Gpu, HostPool, KernelCost, KernelLaunch};
use dbpp::prelude::*;
use dbpp::rt::{autotune, WindowFn};

const NZ: usize = 96;
const SLICE: usize = 1 << 18; // 1 MB slices

fn spec(chunk: usize, streams: usize) -> RegionSpec {
    RegionSpec::new(Schedule::static_(chunk, streams))
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
        })
}

fn builder(ctx: &ChunkCtx) -> KernelLaunch {
    let n = (ctx.k1 - ctx.k0) as u64;
    KernelLaunch::cost_only(
        "blur",
        KernelCost {
            flops: n * SLICE as u64 * 6,
            bytes: n * SLICE as u64 * 16,
        },
    )
}

fn main() {
    // ---------------------------------------------------------------
    // 1. Multi-device co-scheduling over a shared host pool.
    // ---------------------------------------------------------------
    println!("== multi-device co-scheduling (K40m + HD 7970) ==");
    let pool = HostPool::new(ExecMode::Timing);
    let mut gpus = vec![
        Gpu::with_host_pool(DeviceProfile::k40m(), pool.clone()).unwrap(),
        Gpu::with_host_pool(DeviceProfile::hd7970(), pool).unwrap(),
    ];
    let input = gpus[0].alloc_host(NZ * SLICE, true).unwrap();
    let output = gpus[0].alloc_host(NZ * SLICE, true).unwrap();
    let region = Region::new(spec(2, 3), 1, (NZ - 1) as i64, vec![input, output]);

    let single = run_model(&mut gpus[0], &region, &builder, ExecModel::PipelinedBuffer, &RunOptions::default()).unwrap();
    let mo = MultiOptions::default().with_probe_cost(6 * SLICE as u64, 16 * SLICE as u64);
    let multi = run_model_multi(&mut gpus, &region, &builder, &mo).unwrap();
    for (i, (p, r)) in multi.partitions.iter().zip(&multi.per_device).enumerate() {
        let name = if i == 0 { "k40m   " } else { "hd7970 " };
        match r {
            Some(rep) => println!(
                "  {name} iterations [{:>3}, {:>3})  time {}",
                p.0, p.1, rep.total
            ),
            None => println!("  {name} (idle)"),
        }
    }
    println!(
        "  single K40m: {}  co-scheduled makespan: {}  ({:.2}x)\n",
        single.total,
        multi.makespan,
        multi.speedup_over(&single)
    );

    // ---------------------------------------------------------------
    // 2. Auto-tuning on the AMD device (where chunking decides wins).
    // ---------------------------------------------------------------
    println!("== auto-tuning scheduler (HD 7970) ==");
    let mut amd = Gpu::new(DeviceProfile::hd7970(), ExecMode::Timing).unwrap();
    let input = amd.alloc_host(NZ * SLICE, true).unwrap();
    let output = amd.alloc_host(NZ * SLICE, true).unwrap();
    let region = Region::new(spec(1, 3), 1, (NZ - 1) as i64, vec![input, output]);
    let dflt = run_model(&mut amd, &region, &builder, ExecModel::PipelinedBuffer, &RunOptions::default()).unwrap();
    let tuned = autotune(&amd, &region, &builder, &TuneSpace::default()).unwrap();
    println!(
        "  paper default static[1,3]: {}   tuned {:?}: {}  ({:.2}x better)",
        dflt.total,
        tuned.best,
        tuned.best_time,
        dflt.total.as_secs_f64() / tuned.best_time.as_secs_f64()
    );
    println!("  ({} trials against the timing-mode twin)\n", tuned.trials.len());

    // ---------------------------------------------------------------
    // 3. Function-based dependencies: a step window the affine syntax
    //    cannot express — iteration k needs the *pair* of slices
    //    {even(k), even(k)+1}.
    // ---------------------------------------------------------------
    println!("== function-based dependencies ==");
    let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Timing).unwrap();
    let input = gpu.alloc_host(NZ * SLICE, true).unwrap();
    let output = gpu.alloc_host(NZ * SLICE, true).unwrap();
    let region = Region::new(spec(2, 3), 0, (NZ - 1) as i64, vec![input, output]);
    let window = |k0: i64, k1: i64| (k0 & !1, ((k1 - 1) & !1) + 2);
    let windows: Vec<Option<&WindowFn<'_>>> = vec![Some(&window), None];
    let rep = run_window_fn(&mut gpu, &region, &builder, &windows, &RunOptions::default()).unwrap();
    println!(
        "  step-window pipeline: {} over {} chunks, {:.1} MB of rings, \
         {:.1} MB moved once each",
        rep.total,
        rep.chunks,
        rep.array_bytes as f64 / 1e6,
        rep.h2d_bytes as f64 / 1e6
    );
}
