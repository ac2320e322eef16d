//! # pipeline-bench — figure/table regeneration harness
//!
//! One module per figure of the paper's evaluation section (§V). Each
//! module exposes `run(...)` returning structured rows and a
//! `print(...)` that formats them the way the paper reports them. The
//! `figures` binary drives all of them at paper scale. Host wall-clock
//! is measured separately, by the repository's `benchmark/` package.
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`fig3`]  | Fig. 3 — QCD time distribution + naive-vs-pipelined speedup |
//! | [`fig4`]  | Fig. 4 — chunk size × stream count sweep (QCD large) |
//! | [`fig56`] | Figs. 5 & 6 — performance and memory across all benchmarks |
//! | [`fig7`]  | Fig. 7 — execution time vs stream count (3dconv, stencil) |
//! | [`fig8`]  | Fig. 8 — AMD HD 7970 degradation + chunk-count sweep |
//! | [`fig910`]| Figs. 9 & 10 — GEMM speedup and memory vs problem size |
//! | [`ablate`]| Ablations of the runtime's design choices (DESIGN.md §7) |
//! | [`future_hw`] | Forward-looking study on a Pascal-class profile |
//! | [`faults`]| Overhead of resilience: recovery cost vs fault rate |
//! | [`failover`]| Multi-GPU device-loss failover + straggler rebalancing |
//! | [`model`] | Analytic cost-model accuracy vs the DES (fig4 + fig8 grids) |
//! | [`trace`] | Correlated Perfetto traces + stall attribution per app |
//! | [`calibrate`] | Trace-driven profile auto-calibration, diffing, fleet share shift |
//! | [`serve`] | Multi-tenant serving: fairness, queue waits, preemption bit-identity |
//! | [`chaos`] | Chaos matrix: failover, admission and EDF shedding under injected faults |
//!
//! Harness `run()` functions fan their independent trials over the
//! [`pipeline_rt::sweep_map`] worker pool; set `DBPP_SWEEP_THREADS=1`
//! to force serial execution.
//!
//! All harness runs use timing mode: data is phantom, the DES cost model
//! produces the timings, and device memory accounting produces the
//! memory numbers. Functional correctness is covered by the
//! unit/integration suites of the other crates. The one exception is
//! [`serve`], which runs functional mode on purpose: its preemption
//! cells re-execute every preempted job and compare output bits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablate;
pub mod calibrate;
pub mod chaos;
pub mod failover;
pub mod faults;
pub mod fig3;
pub mod fig4;
pub mod fig56;
pub mod fig7;
pub mod fig8;
pub mod fig910;
pub mod fleet;
pub mod future_hw;
pub mod model;
pub mod serve;
pub mod trace;

use gpsim::{DeviceProfile, ExecMode, Gpu};

/// Fresh K40m-like timing-mode context.
pub fn gpu_k40m() -> Gpu {
    Gpu::new(DeviceProfile::k40m(), ExecMode::Timing).expect("context creation")
}

/// Fresh HD 7970-like timing-mode context.
pub fn gpu_hd7970() -> Gpu {
    Gpu::new(DeviceProfile::hd7970(), ExecMode::Timing).expect("context creation")
}

/// Format a byte count as MB with one decimal, as in Figures 6 and 10.
pub fn mb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1e6)
}

/// Print a section header for the figures binary.
pub fn header(title: &str) {
    println!("\n==== {title} ====");
}
