//! # pipeline-rt — directive-based partitioning & pipelining runtime
//!
//! Rust reproduction of the runtime proposed in *Directive-Based
//! Partitioning and Pipelining for Graphics Processing Units*
//! (Cui, Scogland, de Supinski, Feng — IEEE IPDPS 2017), running against
//! the [`gpsim`] simulated GPU.
//!
//! The paper extends OpenMP/OpenACC with three clauses:
//!
//! ```text
//! #pragma omp target \
//!     pipeline(schedule_kind[chunk_size, num_stream]) \
//!     pipeline_map(map_type : var[split_iter:size][0:m]...) \
//!     pipeline_mem_limit(mem_size)
//! ```
//!
//! This crate is the typed equivalent:
//!
//! * [`RegionSpec`] / [`MapSpec`] / [`SplitSpec`] / [`Schedule`] describe
//!   the clauses (the `pipeline-directive` crate parses the textual
//!   syntax into these types).
//! * [`Region`] binds a spec to host arrays and a loop range.
//! * One front door, [`run_model`], executes a bound region under any
//!   [`ExecModel`], mirroring the paper's evaluation matrix:
//!   [`ExecModel::Naive`] (synchronous offload),
//!   [`ExecModel::Pipelined`] (hand-style chunked overlap with full-size
//!   device arrays) and [`ExecModel::PipelinedBuffer`] (the
//!   contribution: overlap **plus** a small mod-indexed device ring
//!   buffer); [`ExecModel::Auto`] autotunes the schedule first.
//!   [`RunOptions`] carries the [`RetryPolicy`] and degradation-ladder
//!   switches for fault-tolerant runs. [`run_window_fn`] (function-based
//!   windows) and [`run_model_multi`] (co-scheduling across devices,
//!   supervised by [`MultiOptions`]) cover the §VII extensions.
//! * [`RunReport`] captures time, phase breakdown, and device memory —
//!   the quantities plotted in the paper's Figures 3–10.
//!
//! ## Example: a 1-D moving-average pipeline
//!
//! ```
//! use gpsim::{DeviceProfile, ExecMode, Gpu, KernelCost, KernelLaunch};
//! use pipeline_rt::{
//!     Affine, ExecModel, MapDir, MapSpec, Region, RegionSpec, RunOptions,
//!     Schedule, SplitSpec, run_model,
//! };
//!
//! let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();
//! let (nz, slice) = (64usize, 256usize);
//! let input = gpu.alloc_host(nz * slice, true).unwrap();
//! let output = gpu.alloc_host(nz * slice, true).unwrap();
//! gpu.host_fill(input, |i| i as f32).unwrap();
//!
//! let spec = RegionSpec::new(Schedule::static_(4, 3))
//!     .with_map(MapSpec {
//!         name: "in".into(),
//!         dir: MapDir::To,
//!         split: SplitSpec::OneD {
//!             offset: Affine::shifted(-1), window: 3, extent: nz, slice_elems: slice,
//!         },
//!     })
//!     .with_map(MapSpec {
//!         name: "out".into(),
//!         dir: MapDir::From,
//!         split: SplitSpec::OneD {
//!             offset: Affine::IDENTITY, window: 1, extent: nz, slice_elems: slice,
//!         },
//!     });
//! let region = Region::new(spec, 1, (nz - 1) as i64, vec![input, output]);
//!
//! let report = run_model(&mut gpu, &region, &|ctx| {
//!     let (k0, k1) = (ctx.k0, ctx.k1);
//!     let (vin, vout) = (ctx.view(0), ctx.view(1));
//!     KernelLaunch::new(
//!         "avg3",
//!         KernelCost { flops: (k1 - k0) as u64 * slice as u64 * 3, bytes: 0 },
//!         move |kc| {
//!             for k in k0..k1 {
//!                 let up = kc.read(vin.slice_ptr(k - 1), slice)?;
//!                 let mid = kc.read(vin.slice_ptr(k), slice)?;
//!                 let dn = kc.read(vin.slice_ptr(k + 1), slice)?;
//!                 let mut out = kc.write(vout.slice_ptr(k), slice)?;
//!                 for i in 0..slice {
//!                     out[i] = (up[i] + mid[i] + dn[i]) / 3.0;
//!                 }
//!             }
//!             Ok(())
//!         },
//!     )
//! }, ExecModel::PipelinedBuffer, &RunOptions::default()).unwrap();
//! assert!(report.gpu_mem_bytes > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod autotune;
mod buffer;
mod calibrate;
mod costmodel;
mod error;
mod exec;
mod metrics;
mod multi;
mod plan;
mod recovery;
mod report;
mod resume;
mod run;
mod spec;
pub mod sweep;
mod trace;
mod view;

pub use calibrate::{
    calibrate_from_trace, calibrate_with_fit, fit_profile, CalibrationReport, DirFit, ProfileFit,
};
pub use autotune::{autotune, autotune_with, Trial, TuneResult, TuneSpace, TuneStrategy};
pub use buffer::{compile_plan, BufferOptions, StreamAssignment};
pub use costmodel::{
    run_model_online, Bottleneck, Calibration, CostModel, ModelTuner, OnlineReport, OnlineStep,
    Prediction,
};
pub use error::{RtError, RtResult};
pub use metrics::{Histogram, Stage, StageMetrics};
pub use exec::{KernelBuilder, Region};
pub use multi::{
    partition_iterations, run_model_multi, DeviceTrace, Migration, MigrationCause, MultiOptions,
    MultiRecovery, MultiReport,
};
pub use plan::{
    build_window_table, chunk_ranges, footprint, map_buffer_bytes, map_full_bytes, resolve_plan,
    resolve_plan_fn, ring_slots_default, ring_slots_min, ChunkStep, CompiledPlan, EvKind, Layout,
    Plan, SliceRun, StageWait, WindowFn, WindowTable,
};
pub use recovery::{Degradation, RecoveryStats, RetryPolicy};
pub use report::{ExecModel, RunReport};
pub use resume::{JobReport, ResumableRun};
pub use run::{run_model, run_window_fn, RunOptions};
pub use spec::{Affine, MapDir, MapSpec, RegionSpec, Schedule, SplitSpec};
pub use trace::{
    diff_traces, render_diff, CopySample, ImportedTrace, SpanDelta, TraceAnalysis, TraceDiff,
};
pub use sweep::{sweep_map, sweep_map_threads, sweep_map_with, sweep_threads};
pub use view::{ArrayView, ChunkCtx};
