//! Quickstart: offload a 1-D moving-average loop three ways — naive,
//! hand-pipelined, and with the paper's pipelined ring buffer — and
//! compare time and device memory.
//!
//! ```text
//! cargo run --release -p pipeline-apps --example quickstart
//! ```

use gpsim::{DeviceProfile, ExecMode, Gpu, KernelCost, KernelLaunch};
use pipeline_directive::parse_directive;
use dbpp::prelude::*;

fn main() {
    // A simulated Tesla K40m in functional mode: kernels really execute
    // against simulated device memory, timing comes from the cost model.
    let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();

    // Problem: out[k] = mean(in[k-1], in[k], in[k+1]) over 256 slices of
    // 64K elements (64 MB of f32 input).
    const NZ: usize = 256;
    const SLICE: usize = 64 * 1024;
    let input = gpu.alloc_host(NZ * SLICE, true).unwrap();
    let output = gpu.alloc_host(NZ * SLICE, true).unwrap();
    gpu.host_fill(input, |i| (i % 97) as f32).unwrap();

    // The paper's directive syntax, parsed into a typed region spec.
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

    // One kernel builder serves every execution model: kernels address
    // data only through views, so the ring buffer's mod-indexing is
    // transparent.
    let builder = |ctx: &ChunkCtx| {
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
    };

    println!("directive: {directive}\n");
    let naive = run_model(&mut gpu, &region, &builder, ExecModel::Naive, &RunOptions::default()).unwrap();
    let pipelined = run_model(&mut gpu, &region, &builder, ExecModel::Pipelined, &RunOptions::default()).unwrap();
    let buffered = run_model(&mut gpu, &region, &builder, ExecModel::PipelinedBuffer, &RunOptions::default()).unwrap();
    println!("{naive}");
    println!("{pipelined}");
    println!("{buffered}");
    println!(
        "\npipelined-buffer: {:.2}x speedup, {:.0}% device-memory saving vs naive",
        buffered.speedup_over(&naive),
        100.0 * buffered.mem_saving_over(&naive),
    );

    // Spot-check the numerics.
    let mut got = vec![0.0f32; 4];
    gpu.host_read(output, 5 * SLICE, &mut got).unwrap();
    println!("output[5][0..4] = {got:?}");
}
