//! Visualize what pipelining does: run the stencil naively and with the
//! pipelined ring buffer, and render both device timelines as ASCII
//! Gantt charts (the simulator's equivalent of the NVIDIA Visual
//! Profiler views the paper used). Also writes Chrome-trace JSON files
//! loadable in `chrome://tracing` / Perfetto.
//!
//! ```text
//! cargo run --release --example timeline_trace
//! ```

use gpsim::{render_gantt, to_chrome_trace, utilization, DeviceProfile, ExecMode, Gpu};
use pipeline_apps::StencilConfig;
use dbpp::prelude::*;

fn main() {
    let cfg = StencilConfig {
        nx: 512,
        ny: 512,
        nz: 32,
        chunk: 2,
        ..StencilConfig::parboil_default()
    };
    let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Timing).unwrap();
    let inst = cfg.setup(&mut gpu).unwrap();
    let builder = cfg.builder();

    let naive = run_model(&mut gpu, &inst.region, &builder, ExecModel::Naive, &RunOptions::default()).unwrap();
    let naive_tl = gpu.timeline().to_vec();

    let buffered = run_model(&mut gpu, &inst.region, &builder, ExecModel::PipelinedBuffer, &RunOptions::default()).unwrap();
    let buffered_tl = gpu.timeline().to_vec();

    println!("== Naive offload ({}; no overlap by construction) ==", naive.total);
    print!("{}", render_gantt(&naive_tl, 64));
    println!(
        "aggregate engine utilization: {:.0}%\n",
        100.0 * utilization(&naive_tl).aggregate()
    );

    println!(
        "== Pipelined-buffer ({}; {:.2}x speedup) ==",
        buffered.total,
        buffered.speedup_over(&naive)
    );
    print!("{}", render_gantt(&buffered_tl, 64));
    println!(
        "aggregate engine utilization: {:.0}%",
        100.0 * utilization(&buffered_tl).aggregate()
    );

    let out = std::env::temp_dir();
    for (name, tl) in [("naive", &naive_tl), ("buffered", &buffered_tl)] {
        let path = out.join(format!("dbpp_trace_{name}.json"));
        std::fs::write(&path, to_chrome_trace(tl)).unwrap();
        println!("wrote {} ({} events)", path.display(), tl.len());
    }
}
