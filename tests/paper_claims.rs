//! The paper's headline claims, asserted at paper scale (timing mode).
//!
//! Abstract: "our approach can reduce memory usage by 52% to 97% while
//! delivering a 1.41× to 1.65× speedup over the naive offload model."
//! Section V adds the per-figure claims asserted in `crates/bench`; this
//! suite checks the global story end-to-end through the facade.

use dbpp::apps::{Conv3dConfig, QcdConfig, StencilConfig};
use dbpp::sim::{DeviceProfile, ExecMode, Gpu};
use dbpp::prelude::*;

fn k40m() -> Gpu {
    Gpu::new(DeviceProfile::k40m(), ExecMode::Timing).unwrap()
}

struct Outcome {
    name: &'static str,
    speedup: f64,
    /// Memory saving at the array level (runtime floor excluded).
    array_saving: f64,
    naive: RunReport,
    buffer: RunReport,
}

fn run_all() -> Vec<Outcome> {
    let mut out = Vec::new();
    {
        let mut gpu = k40m();
        let cfg = Conv3dConfig::polybench_default();
        let inst = cfg.setup(&mut gpu).unwrap();
        let b = cfg.builder();
        let naive = run_model(&mut gpu, &inst.region, &b, ExecModel::Naive, &RunOptions::default()).unwrap();
        let buffer = run_model(&mut gpu, &inst.region, &b, ExecModel::PipelinedBuffer, &RunOptions::default()).unwrap();
        out.push(Outcome {
            name: "3dconv",
            speedup: buffer.speedup_over(&naive),
            array_saving: 1.0 - buffer.array_bytes as f64 / naive.array_bytes as f64,
            naive,
            buffer,
        });
    }
    {
        let mut gpu = k40m();
        let cfg = StencilConfig::parboil_default();
        let inst = cfg.setup(&mut gpu).unwrap();
        let b = cfg.builder();
        let naive = run_model(&mut gpu, &inst.region, &b, ExecModel::Naive, &RunOptions::default()).unwrap();
        let buffer = run_model(&mut gpu, &inst.region, &b, ExecModel::PipelinedBuffer, &RunOptions::default()).unwrap();
        out.push(Outcome {
            name: "stencil",
            speedup: buffer.speedup_over(&naive),
            array_saving: 1.0 - buffer.array_bytes as f64 / naive.array_bytes as f64,
            naive,
            buffer,
        });
    }
    for (name, n) in [("qcd-medium", 24), ("qcd-large", 36)] {
        let mut gpu = k40m();
        let cfg = QcdConfig::paper_size(n);
        let inst = cfg.setup(&mut gpu).unwrap();
        let b = cfg.builder();
        let naive = run_model(&mut gpu, &inst.region, &b, ExecModel::Naive, &RunOptions::default()).unwrap();
        let buffer = run_model(&mut gpu, &inst.region, &b, ExecModel::PipelinedBuffer, &RunOptions::default()).unwrap();
        out.push(Outcome {
            name,
            speedup: buffer.speedup_over(&naive),
            array_saving: 1.0 - buffer.array_bytes as f64 / naive.array_bytes as f64,
            naive,
            buffer,
        });
    }
    out
}

#[test]
fn headline_speedup_band_holds() {
    // Paper: 1.41×–1.65× over naive across the benchmark set. Our
    // simulated band is slightly wider (the simulator pipelines a bit
    // more cleanly than the 2017 software stack); assert every benchmark
    // wins by ≥1.35× and none exceeds the 2× overlap bound.
    for o in run_all() {
        assert!(
            o.speedup > 1.35 && o.speedup < 2.0,
            "{}: speedup {} outside the reproduction band",
            o.name,
            o.speedup
        );
    }
}

#[test]
fn headline_memory_band_holds() {
    // Paper: 52%–97% memory reduction. At the array level (excluding
    // the fixed runtime reservation) every benchmark must save ≥52%,
    // and 3dconv — the paper's 97% case — must save ≥95%.
    let all = run_all();
    for o in &all {
        assert!(
            o.array_saving > 0.52,
            "{}: array saving {}",
            o.name,
            o.array_saving
        );
    }
    let conv = &all[0];
    assert!(conv.array_saving > 0.95, "3dconv saving {}", conv.array_saving);
}

#[test]
fn transfers_and_compute_really_overlap() {
    // In every buffered run, summed engine busy time must exceed the
    // makespan — the definition of overlap.
    for o in run_all() {
        let busy = o.buffer.h2d + o.buffer.d2h + o.buffer.kernel;
        assert!(
            busy > o.buffer.total,
            "{}: no overlap (busy {busy}, total {})",
            o.name,
            o.buffer.total
        );
        // And the naive run must NOT overlap (serial by construction).
        let naive_busy = o.naive.h2d + o.naive.d2h + o.naive.kernel;
        assert!(naive_busy <= o.naive.total);
    }
}

#[test]
fn buffered_version_enables_oversized_datasets() {
    // §VI: "current GPUs only have 5GB to 12GB of discrete GPU memory, a
    // major obstacle" — the buffered model must run a dataset bigger
    // than device memory end to end.
    let mut profile = DeviceProfile::k40m();
    profile.mem_capacity = 600_000_000; // 0.6 GB device
    let mut gpu = Gpu::new(profile, ExecMode::Timing).unwrap();
    let cfg = Conv3dConfig {
        ni: 640,
        nj: 640,
        nk: 640,
        chunk: 2,
        streams: 3,
    }; // 3.3 GB footprint
    let inst = cfg.setup(&mut gpu).unwrap();
    let b = cfg.builder();
    assert!(run_model(&mut gpu, &inst.region, &b, ExecModel::Naive, &RunOptions::default()).is_err(), "should OOM");
    let rep = run_model(&mut gpu, &inst.region, &b, ExecModel::PipelinedBuffer, &RunOptions::default()).unwrap();
    assert!(rep.gpu_mem_bytes < 600_000_000);
}
