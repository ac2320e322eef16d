//! Ablations of the runtime's design choices (DESIGN.md §7). These do
//! not correspond to a paper figure; they quantify why the prototype is
//! built the way it is.
//!
//! * **Residency tracking** — the paper's dependency calculation copies
//!   each slice once; turning it off re-copies the stencil halo every
//!   chunk (≈3× the bus traffic at chunk size 1).
//! * **Ring slack** — rings sized for all in-flight chunks vs the
//!   single-chunk minimum: the minimum saves memory but write-after-read
//!   stalls serialize the pipeline.
//! * **Adaptive schedule** — the §VII extension: on the AMD device the
//!   adaptive planner picks large chunks and sidesteps the Figure 8
//!   degradation without hand-tuning.
//! * **Pinned host memory** — the prototype uses `cudaHostalloc` "to
//!   avoid the data movement time from virtual to pinned buffer memory".

use gpsim::SimTime;
use pipeline_apps::{Conv3dConfig, QcdConfig, StencilConfig};
use pipeline_rt::{run_model, BufferOptions, ExecModel, Region, RunOptions, Schedule};

use crate::{gpu_hd7970, gpu_k40m};

/// One ablation comparison.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Which design choice is ablated.
    pub name: &'static str,
    /// Metric label (time/bytes).
    pub metric: &'static str,
    /// Value with the design choice enabled (the prototype).
    pub with: f64,
    /// Value with it disabled.
    pub without: f64,
}

impl AblationRow {
    /// `without / with` — how much worse the ablated variant is.
    pub fn penalty(&self) -> f64 {
        self.without / self.with
    }
}

/// Residency tracking on/off (stencil, chunk 1: every interior slice is
/// in three windows).
pub fn residency() -> Vec<AblationRow> {
    let mut gpu = gpu_k40m();
    let cfg = StencilConfig::parboil_default();
    let inst = cfg.setup(&mut gpu).expect("stencil setup");
    let builder = cfg.builder();
    let on = run_model(&mut gpu, &inst.region, &builder, ExecModel::PipelinedBuffer, &RunOptions::default())
        .expect("on");
    let off = run_model(
        &mut gpu,
        &inst.region,
        &builder,
        ExecModel::PipelinedBuffer,
        &RunOptions::default().with_buffer(BufferOptions {
            track_residency: false,
            ..Default::default()
        }),
    )
    .expect("off");
    vec![
        AblationRow {
            name: "residency-tracking",
            metric: "h2d bytes",
            with: on.h2d_bytes as f64,
            without: off.h2d_bytes as f64,
        },
        AblationRow {
            name: "residency-tracking",
            metric: "time (s)",
            with: on.total.as_secs_f64(),
            without: off.total.as_secs_f64(),
        },
    ]
}

/// Ring slack: default (covers in-flight chunks) vs minimal slots.
pub fn ring_slack() -> Vec<AblationRow> {
    let mut gpu = gpu_k40m();
    let cfg = QcdConfig::paper_size(24);
    let inst = cfg.setup(&mut gpu).expect("qcd setup");
    let builder = cfg.builder();
    let dflt = run_model(&mut gpu, &inst.region, &builder, ExecModel::PipelinedBuffer, &RunOptions::default())
        .expect("default");
    let minimal = run_model(
        &mut gpu,
        &inst.region,
        &builder,
        ExecModel::PipelinedBuffer,
        &RunOptions::default().with_buffer(BufferOptions {
            minimal_slots: true,
            ..Default::default()
        }),
    )
    .expect("minimal");
    vec![
        AblationRow {
            name: "ring-slack",
            metric: "time (s)",
            with: dflt.total.as_secs_f64(),
            without: minimal.total.as_secs_f64(),
        },
        AblationRow {
            name: "ring-slack",
            metric: "buffer bytes",
            // "with" the slack costs more memory — penalty < 1 here.
            with: dflt.array_bytes as f64,
            without: minimal.array_bytes as f64,
        },
    ]
}

/// Adaptive schedule vs the paper's default static chunking, on the AMD
/// device where chunking is the difference between winning and losing.
pub fn adaptive_schedule() -> Vec<AblationRow> {
    let run_with = |schedule: Schedule| -> (SimTime, SimTime) {
        let mut gpu = gpu_hd7970();
        // AMD-sized case: the K40m default (3.5 GB) exceeds this device.
        let cfg = Conv3dConfig {
            ni: 768,
            nj: 768,
            nk: 256,
            chunk: 1, // paper default: chunk size 1
            streams: 3,
        };
        let inst = cfg.setup(&mut gpu).expect("conv3d setup");
        let mut region = Region {
            spec: inst.region.spec.clone(),
            ..inst.region.clone()
        };
        region.spec.schedule = schedule;
        let builder = cfg.builder();
        let naive =
            run_model(&mut gpu, &region, &builder, ExecModel::Naive, &RunOptions::default()).expect("naive");
        let buf = run_model(&mut gpu, &region, &builder, ExecModel::PipelinedBuffer, &RunOptions::default())
            .expect("buffer");
        (naive.total, buf.total)
    };
    let (_, static_time) = run_with(Schedule::static_(1, 3));
    let (naive_time, adaptive_time) = run_with(Schedule::Adaptive);
    vec![
        AblationRow {
            name: "adaptive-schedule",
            metric: "time (s)",
            with: adaptive_time.as_secs_f64(),
            without: static_time.as_secs_f64(),
        },
        AblationRow {
            name: "adaptive-vs-naive",
            metric: "time (s)",
            with: adaptive_time.as_secs_f64(),
            without: naive_time.as_secs_f64(),
        },
    ]
}

/// Autotuned schedule vs the paper's default on the AMD device — the
/// §VII "performance model in an autotuning scheduler", with the
/// simulator as the model.
pub fn autotuned_schedule() -> Vec<AblationRow> {
    let mut gpu = gpu_hd7970();
    let cfg = Conv3dConfig {
        ni: 768,
        nj: 768,
        nk: 256,
        chunk: 1,
        streams: 3,
    };
    let inst = cfg.setup(&mut gpu).expect("conv3d setup");
    let builder = cfg.builder();
    let dflt = run_model(&mut gpu, &inst.region, &builder, ExecModel::PipelinedBuffer, &RunOptions::default())
        .expect("default");
    let best = run_model(&mut gpu, &inst.region, &builder, ExecModel::Auto, &RunOptions::default())
        .expect("autotune");
    vec![AblationRow {
        name: "autotuned-schedule",
        metric: "time (s)",
        with: best.total.as_secs_f64(),
        without: dflt.total.as_secs_f64(),
    }]
}

/// Least-loaded vs round-robin stream assignment on a workload with
/// quadratically skewed chunk costs.
pub fn stream_assignment() -> Vec<AblationRow> {
    use pipeline_rt::{
        Affine, MapDir, MapSpec, RegionSpec, SplitSpec, StreamAssignment,
    };
    const NZ: usize = 48;
    const SLICE: usize = 1 << 16;
    // Concurrent-kernel slots make stream balance matter (with a single
    // compute slot, kernel serialization hides any imbalance).
    let mut profile = gpsim::DeviceProfile::k40m();
    profile.max_concurrent_kernels = 4;
    let mut gpu = gpsim::Gpu::new(profile, gpsim::ExecMode::Timing).expect("context");
    let input = gpu.alloc_host(NZ * SLICE, true).unwrap();
    let output = gpu.alloc_host(NZ * SLICE, true).unwrap();
    let spec = RegionSpec::new(Schedule::static_(1, 4))
        .with_map(MapSpec {
            name: "in".into(),
            dir: MapDir::To,
            split: SplitSpec::OneD {
                offset: Affine::IDENTITY,
                window: 1,
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
        });
    let region = Region::new(spec, 0, NZ as i64, vec![input, output]);
    let builder = |ctx: &pipeline_rt::ChunkCtx| {
        // Heavy chunks aligned to the stream count: round-robin pins all
        // of them to stream 0, least-loaded spreads them.
        let flops: u64 = (ctx.k0..ctx.k1)
            .map(|k| if k % 4 == 0 { 3_000_000_000 } else { 10_000_000 })
            .sum();
        gpsim::KernelLaunch::cost_only("skewed", gpsim::KernelCost { flops, bytes: 0 })
    };
    let mut run = |assignment| {
        run_model(
            &mut gpu,
            &region,
            &builder,
            ExecModel::PipelinedBuffer,
            &RunOptions::default().with_buffer(BufferOptions {
                assignment,
                ..Default::default()
            }),
        )
        .expect("run")
        .total
        .as_secs_f64()
    };
    let least = run(StreamAssignment::LeastLoaded);
    let round = run(StreamAssignment::RoundRobin);
    vec![AblationRow {
        name: "least-loaded-streams",
        metric: "time (s)",
        with: least,
        without: round,
    }]
}

/// Pinned vs pageable host staging for the naive QCD offload.
pub fn pinned_host() -> Vec<AblationRow> {
    let run_with = |pinned: bool| -> SimTime {
        let mut gpu = gpu_k40m();
        let cfg = QcdConfig::paper_size(24);
        // Rebuild the instance with explicit pinnedness.
        let psi = gpu.alloc_host(cfg.psi_slice() * cfg.nt, pinned).unwrap();
        let u = gpu.alloc_host(cfg.u_slice() * cfg.nt, pinned).unwrap();
        let f = gpu.alloc_host(cfg.u_slice() * cfg.nt, pinned).unwrap();
        let out = gpu.alloc_host(cfg.psi_slice() * cfg.nt, pinned).unwrap();
        let region = Region::new(cfg.spec(), 1, (cfg.nt - 1) as i64, vec![psi, u, f, out]);
        run_model(&mut gpu, &region, &cfg.builder(), ExecModel::Naive, &RunOptions::default())
            .expect("naive")
            .total
    };
    vec![AblationRow {
        name: "pinned-host-memory",
        metric: "time (s)",
        with: run_with(true).as_secs_f64(),
        without: run_with(false).as_secs_f64(),
    }]
}

/// Run every ablation. The six studies are independent simulations, so
/// they fan over the sweep pool; rows come back in the fixed study
/// order.
pub fn run_all() -> Vec<AblationRow> {
    pipeline_rt::sweep_map(6, |i| match i {
        0 => residency(),
        1 => ring_slack(),
        2 => adaptive_schedule(),
        3 => autotuned_schedule(),
        4 => stream_assignment(),
        _ => pinned_host(),
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Print the ablation table.
pub fn print(rows: &[AblationRow]) {
    println!(
        "{:<20} {:<14} {:>14} {:>14} {:>9}",
        "ablation", "metric", "with", "without", "penalty"
    );
    for r in rows {
        println!(
            "{:<20} {:<14} {:>14.4} {:>14.4} {:>8.2}x",
            r.name,
            r.metric,
            r.with,
            r.without,
            r.penalty()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residency_tracking_saves_traffic_and_time() {
        let rows = residency();
        let bytes = &rows[0];
        // Window 3 at chunk 1 → roughly 3× the input traffic without
        // tracking (output traffic is unchanged).
        assert!(
            bytes.penalty() > 2.0,
            "h2d bytes penalty {}",
            bytes.penalty()
        );
        let time = &rows[1];
        assert!(time.penalty() > 1.2, "time penalty {}", time.penalty());
    }

    #[test]
    fn minimal_rings_trade_time_for_memory() {
        let rows = ring_slack();
        let time = &rows[0];
        assert!(
            time.penalty() > 1.02,
            "minimal slots should stall the pipeline: {}",
            time.penalty()
        );
        let mem = &rows[1];
        assert!(
            mem.penalty() < 1.0,
            "minimal slots must use less memory: {}",
            mem.penalty()
        );
    }

    #[test]
    fn adaptive_beats_default_static_on_amd() {
        let rows = adaptive_schedule();
        let vs_static = &rows[0];
        assert!(
            vs_static.penalty() > 1.3,
            "adaptive should dodge the AMD chunking cliff: {}",
            vs_static.penalty()
        );
        let vs_naive = &rows[1];
        assert!(
            vs_naive.penalty() > 1.0,
            "adaptive should beat naive on AMD: {}",
            vs_naive.penalty()
        );
    }

    #[test]
    fn pinned_memory_is_faster() {
        let rows = pinned_host();
        assert!(rows[0].penalty() > 1.2, "pageable penalty {}", rows[0].penalty());
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;

    #[test]
    fn autotuner_beats_the_default_on_amd() {
        let rows = autotuned_schedule();
        assert!(
            rows[0].penalty() > 1.5,
            "autotuned should clearly beat default chunking: {}",
            rows[0].penalty()
        );
    }

    #[test]
    fn least_loaded_never_loses_on_skewed_costs() {
        let rows = stream_assignment();
        assert!(
            rows[0].penalty() >= 1.0,
            "least-loaded regressed: {}",
            rows[0].penalty()
        );
    }
}
