//! Out-of-core GEMM: run a matrix multiplication whose full footprint
//! exceeds device memory. The baseline and block-shared versions fail
//! with out-of-memory; the pipeline-buffer version streams reduction
//! blocks through small rings and completes (the paper's Figures 9/10
//! at the two rightmost sizes).
//!
//! ```text
//! cargo run --release -p pipeline-apps --example out_of_core_gemm
//! ```

use gpsim::{DeviceProfile, ExecMode, Gpu};
use pipeline_apps::util::{max_rel_error, read_host};
use pipeline_apps::MatmulConfig;
use dbpp::prelude::RtError;

fn main() {
    // Part 1 (timing mode, paper scale): n = 24576 — three matrices of
    // 2.4 GB each cannot fit the simulated K40m's usable memory.
    let n = 24576;
    let cfg = MatmulConfig::with_n(n);
    let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Timing).unwrap();
    let (a, b, c) = cfg.host_matrices(&mut gpu).unwrap();
    println!(
        "n = {n}: full footprint {:.1} GB, device capacity {:.1} GB",
        3.0 * (n * n) as f64 * 4.0 / 1e9,
        gpu.mem_capacity() as f64 / 1e9
    );

    match cfg.run_baseline(&mut gpu, a, b, c) {
        Err(RtError::Sim(gpsim::SimError::OutOfMemory { requested, available })) => {
            println!("baseline:        OOM (requested {requested} B, {available} B available)")
        }
        other => panic!("expected OOM, got {other:?}"),
    }
    match cfg.run_block_shared(&mut gpu, a, b, c) {
        Err(RtError::Sim(gpsim::SimError::OutOfMemory { .. })) => {
            println!("block-shared:    OOM")
        }
        other => panic!("expected OOM, got {other:?}"),
    }
    let buf = cfg.run_pipeline_buffer(&mut gpu, a, b, c).unwrap();
    println!(
        "pipeline-buffer: OK — {} using {:.1} MB of device memory ({} tasks on {} streams)",
        buf.total,
        buf.gpu_mem_bytes as f64 / 1e6,
        buf.chunks,
        buf.streams
    );

    // Part 2 (functional mode, small): prove the streamed computation is
    // numerically right.
    let cfg = MatmulConfig {
        n: 96,
        bc: 16,
        chunk: 1,
        streams: 3,
    };
    let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();
    let (a, b, c) = cfg.host_matrices(&mut gpu).unwrap();
    let expect = cfg.cpu_reference(&read_host(&gpu, a).unwrap(), &read_host(&gpu, b).unwrap());
    cfg.run_pipeline_buffer(&mut gpu, a, b, c).unwrap();
    let got = read_host(&gpu, c).unwrap();
    let err = max_rel_error(&got, &expect);
    println!("\nfunctional check at n = {}: max relative error {err:.2e}", cfg.n);
    assert!(err < 1e-4);
}
