//! Multi-sweep heat diffusion with the Parboil-style stencil: runs
//! several Jacobi sweeps, ping-ponging the grids between sweeps, and
//! validates the final temperature field against a CPU reference.
//!
//! This is the workload of the paper's Figure 2 — the stencil region is
//! built from the paper's own directive text.
//!
//! ```text
//! cargo run --release -p pipeline-apps --example stencil_heat
//! ```

use gpsim::{DeviceProfile, ExecMode, Gpu, SimTime};
use pipeline_apps::util::{max_rel_error, read_host};
use pipeline_apps::StencilConfig;
use dbpp::prelude::*;

const SWEEPS: usize = 4;

fn main() {
    let cfg = StencilConfig {
        nx: 512,
        ny: 512,
        nz: 64,
        chunk: 4,
        ..StencilConfig::parboil_default()
    };
    println!("grid {}x{}x{}, {} Jacobi sweeps", cfg.nx, cfg.ny, cfg.nz, SWEEPS);
    println!("directive: {}\n", cfg.directive());

    let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();
    let inst = cfg.setup(&mut gpu).unwrap();
    let builder = cfg.builder();

    // CPU reference: the same sweeps, sequentially.
    let mut ref_grid = read_host(&gpu, inst.a0).unwrap();
    for _ in 0..SWEEPS {
        let next = cfg.cpu_reference(&ref_grid);
        ref_grid = copy_boundary(&ref_grid, next, &cfg);
    }

    // Device: ping-pong the two host arrays between sweeps. Each sweep
    // is one pipelined region.
    let mut naive_time = SimTime::ZERO;
    let mut buffer_time = SimTime::ZERO;
    let mut mem = (0u64, 0u64);
    let (mut src, mut dst) = (inst.a0, inst.anext);
    // The kernel writes only interior points, but transfers move whole
    // slices — so map the output `tofrom` and seed it with the source:
    // boundary values then ride along instead of being clobbered by
    // uninitialized device memory.
    let mut spec = inst.region.spec.clone();
    spec.maps[1].dir = pipeline_rt::MapDir::ToFrom;
    for sweep in 0..SWEEPS {
        let region = Region::new(spec.clone(), inst.region.lo, inst.region.hi, vec![src, dst]);
        let full = read_host(&gpu, src).unwrap();
        gpu.host_write(dst, 0, &full).unwrap();

        let naive = run_model(&mut gpu, &region, &builder, ExecModel::Naive, &RunOptions::default()).unwrap();
        let buffered = run_model(&mut gpu, &region, &builder, ExecModel::PipelinedBuffer, &RunOptions::default()).unwrap();
        naive_time += naive.total;
        buffer_time += buffered.total;
        mem = (naive.gpu_mem_bytes, buffered.gpu_mem_bytes);
        println!(
            "sweep {sweep}: naive {} | pipelined-buffer {} ({:.2}x)",
            naive.total,
            buffered.total,
            buffered.speedup_over(&naive)
        );
        std::mem::swap(&mut src, &mut dst);
    }

    let got = read_host(&gpu, src).unwrap();
    let err = max_rel_error(&got, &ref_grid);
    println!(
        "\ntotal: naive {naive_time} vs pipelined-buffer {buffer_time} ({:.2}x), \
         device memory {:.1} MB -> {:.1} MB",
        naive_time.as_secs_f64() / buffer_time.as_secs_f64(),
        mem.0 as f64 / 1e6,
        mem.1 as f64 / 1e6,
    );
    println!("max relative error vs CPU reference: {err:.2e}");
    assert!(err < 1e-6, "device result diverged");
}

/// The region writes only interior slices; carry boundary planes from
/// the previous grid, mirroring what the device run does via the seeded
/// output array.
fn copy_boundary(prev: &[f32], mut next: Vec<f32>, cfg: &StencilConfig) -> Vec<f32> {
    let plane = cfg.plane();
    next[..plane].copy_from_slice(&prev[..plane]);
    let last = (cfg.nz - 1) * plane;
    next[last..].copy_from_slice(&prev[last..]);
    // Interior boundaries of each plane (i/j edges) are never written
    // either; carry them over plane by plane.
    for k in 1..cfg.nz - 1 {
        for j in 0..cfg.ny {
            for i in 0..cfg.nx {
                if j == 0 || j == cfg.ny - 1 || i == 0 || i == cfg.nx - 1 {
                    let idx = k * plane + j * cfg.nx + i;
                    next[idx] = prev[idx];
                }
            }
        }
    }
    next
}
