//! Lattice QCD proxy: the paper's motivating application (§V-A, §V-D).
//! Shows the naive offload's ≈50 % transfer share, the pipelined
//! speedup, and the O(n⁴) → O(C·n³) memory reduction — then validates
//! the hopping operator functionally at a small lattice.
//!
//! ```text
//! cargo run --release -p pipeline-apps --example qcd_lattice
//! ```

use gpsim::{DeviceProfile, ExecMode, Gpu};
use pipeline_apps::util::{assert_exact, read_host};
use pipeline_apps::QcdConfig;
use dbpp::prelude::*;

fn main() {
    println!("{:<8} {:>10} {:>10} {:>10} {:>9} {:>10} {:>10}",
             "lattice", "naive", "pipelined", "buffer", "speedup", "mem naive", "mem buf");
    for n in [12usize, 24, 36] {
        let cfg = QcdConfig::paper_size(n);
        let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Timing).unwrap();
        let inst = cfg.setup(&mut gpu).unwrap();
        let builder = cfg.builder();
        let naive = run_model(&mut gpu, &inst.region, &builder, ExecModel::Naive, &RunOptions::default()).unwrap();
        let pipe = run_model(&mut gpu, &inst.region, &builder, ExecModel::Pipelined, &RunOptions::default()).unwrap();
        let buf = run_model(&mut gpu, &inst.region, &builder, ExecModel::PipelinedBuffer, &RunOptions::default()).unwrap();
        println!(
            "{:<8} {:>10} {:>10} {:>10} {:>8.2}x {:>8.1}MB {:>8.1}MB",
            format!("{n}^4"),
            naive.total.to_string(),
            pipe.total.to_string(),
            buf.total.to_string(),
            buf.speedup_over(&naive),
            naive.gpu_mem_bytes as f64 / 1e6,
            buf.gpu_mem_bytes as f64 / 1e6,
        );
        if n == 24 {
            println!(
                "         naive phase split: {:.0}% HtoD, {:.0}% DtoH, {:.0}% kernel \
                 (paper: transfers ~50%)",
                100.0 * naive.h2d.as_secs_f64()
                    / (naive.h2d + naive.d2h + naive.kernel).as_secs_f64(),
                100.0 * naive.d2h.as_secs_f64()
                    / (naive.h2d + naive.d2h + naive.kernel).as_secs_f64(),
                100.0 * naive.kernel.as_secs_f64()
                    / (naive.h2d + naive.d2h + naive.kernel).as_secs_f64(),
            );
        }
    }

    // Functional validation at a small lattice: the streamed hopping
    // operator is bit-identical to the sequential CPU sweep.
    let cfg = QcdConfig::test_small();
    let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();
    let inst = cfg.setup(&mut gpu).unwrap();
    let psi = read_host(&gpu, inst.psi).unwrap();
    let u = read_host(&gpu, inst.u).unwrap();
    let f = read_host(&gpu, inst.f).unwrap();
    let expect = cfg.cpu_reference(&psi, &u, &f);
    run_model(&mut gpu, &inst.region, &cfg.builder(), ExecModel::PipelinedBuffer, &RunOptions::default()).unwrap();
    assert_exact(&read_host(&gpu, inst.out).unwrap(), &expect, "qcd hopping");
    println!(
        "\nfunctional check: {}³x{} lattice hopping operator matches the CPU reference exactly",
        cfg.n, cfg.nt
    );
}
