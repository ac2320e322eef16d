//! Simulated-time outcome of one region run, and the `gpsim` counters
//! aggregated over many runs.

use gpsim::{DeviceProfile, ExecMode, Gpu};
use pipeline_rt::{ExecModel, RunReport};

use crate::report::{median, Metrics};

/// The simulated devices the workloads run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// NVIDIA K40m (the paper's main device).
    K40m,
    /// AMD HD 7970 (the paper's Fig. 8 device).
    Hd7970,
    /// NVIDIA P100 (the serving fleet's second device kind).
    P100,
}

impl Device {
    /// The device's profile.
    pub fn profile(self) -> DeviceProfile {
        match self {
            Device::K40m => DeviceProfile::k40m(),
            Device::Hd7970 => DeviceProfile::hd7970(),
            Device::P100 => DeviceProfile::p100(),
        }
    }

    /// A fresh timing-mode (phantom data) context.
    pub fn timing_gpu(self) -> Gpu {
        crate::trace::span("gpsim:Gpu::new", || {
            Gpu::new(self.profile(), ExecMode::Timing).expect("timing context creation")
        })
    }
}

/// Short name of an execution model, as used in metric names.
pub fn model_name(model: ExecModel) -> &'static str {
    match model {
        ExecModel::Naive => "naive",
        ExecModel::Pipelined => "pipelined",
        ExecModel::PipelinedBuffer => "buffer",
        ExecModel::Auto => "auto",
    }
}

/// Span name of a `run_model` call under `model`.
pub fn run_span(model: ExecModel) -> &'static str {
    match model {
        ExecModel::Naive => "run:naive",
        ExecModel::Pipelined => "run:pipelined",
        ExecModel::PipelinedBuffer => "run:buffer",
        ExecModel::Auto => "run:auto",
    }
}

/// Every simulated quantity of one run that the benchmark reads. Equal
/// inputs must give equal values, bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSim {
    /// Version label (`naive`, `pipelined`, `buffer`, `auto`,
    /// `block_shared`).
    pub version: &'static str,
    /// Region time on the simulated host clock (ns).
    pub total_ns: u64,
    /// Device memory in use while the region ran (bytes).
    pub mem_bytes: u64,
    /// Device commands executed.
    pub commands: u64,
    /// Per-engine busy time (ns), indexed H2D, D2H, compute.
    pub busy: [u64; 3],
    /// Per-engine stall buckets (ns), indexed as `gpsim::StallCause`.
    pub stalls: [[u64; 6]; 3],
    /// Makespan the stall partition covers (ns).
    pub makespan_ns: u64,
    /// Whether a compiled plan was replayed.
    pub plan_reused: bool,
    /// The cost model's prediction of `total_ns`, where one was made.
    pub predicted_ns: Option<u64>,
}

impl RunSim {
    /// Extract the simulated quantities of `r`.
    pub fn new(version: &'static str, r: &RunReport, predicted_ns: Option<u64>) -> RunSim {
        let mut busy = [0; 3];
        let mut stalls = [[0; 6]; 3];
        for (e, eng) in r.stalls.engines.iter().enumerate() {
            busy[e] = eng.busy_ns;
            stalls[e] = eng.stalls;
        }
        RunSim {
            version,
            total_ns: r.total.as_ns(),
            mem_bytes: r.gpu_mem_bytes,
            commands: r.commands,
            busy,
            stalls,
            makespan_ns: r.stalls.makespan_ns(),
            plan_reused: r.plan_reused,
            predicted_ns,
        }
    }

    /// Whether busy plus stall time equals the makespan on every engine.
    pub fn partition_exact(&self) -> bool {
        (0..3).all(|e| self.busy[e] + self.stalls[e].iter().sum::<u64>() == self.makespan_ns)
    }

    /// Relative error of the cost model's prediction, if one was made.
    pub fn model_err(&self) -> Option<f64> {
        self.predicted_ns
            .map(|p| (p as f64 - self.total_ns as f64).abs() / self.total_ns as f64)
    }
}

/// Set the `gpsim.*` per-layer metrics from `runs`: commands, engine
/// busy and stall fractions of the summed makespan, and the median
/// device memory per model.
pub fn gpsim_metrics(m: &mut Metrics, runs: &[&RunSim]) {
    let makespan: u64 = runs.iter().map(|r| r.makespan_ns).sum();
    let span = makespan.max(1) as f64;
    m.set(
        "gpsim.commands",
        runs.iter().map(|r| r.commands).sum::<u64>() as f64,
    );
    for (e, name) in ["h2d", "d2h", "compute"].iter().enumerate() {
        let busy: u64 = runs.iter().map(|r| r.busy[e]).sum();
        m.set(format!("gpsim.busy_frac.{name}"), busy as f64 / span);
    }
    let stall_names = [
        "wait_h2d",
        "wait_d2h",
        "wait_compute",
        "ring_slot",
        "retry_backoff",
        "host_api",
    ];
    for (c, name) in stall_names.iter().enumerate() {
        let stall: u64 = runs
            .iter()
            .flat_map(|r| r.stalls.iter())
            .map(|s| s[c])
            .sum();
        // Share of all engine time: the three busy fractions divided by
        // three plus these stall fractions sum to one.
        m.set(
            format!("gpsim.stall_frac.{name}"),
            stall as f64 / (3.0 * span),
        );
    }
    for version in ["naive", "pipelined", "buffer"] {
        let mems: Vec<f64> = runs
            .iter()
            .filter(|r| r.version == version)
            .map(|r| r.mem_bytes as f64 / 1e6)
            .collect();
        m.set(format!("gpsim.device_mem_mb.{version}"), median(&mems));
    }
}
