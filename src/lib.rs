//! # dbpp — Directive-Based Partitioning and Pipelining for GPUs
//!
//! A complete Rust reproduction of
//! *Directive-Based Partitioning and Pipelining for Graphics Processing
//! Units* (Xuewen Cui, Thomas R. W. Scogland, Bronis R. de Supinski,
//! Wu-chun Feng — IEEE IPDPS 2017, DOI 10.1109/IPDPS.2017.96), built
//! over a discrete-event GPU simulator so it runs anywhere.
//!
//! This facade crate re-exports the whole stack:
//!
//! * [`sim`] ([`gpsim`]) — the simulated device: memory, streams,
//!   events, copy/compute engines, calibrated K40m/HD 7970 cost models.
//! * [`rt`] ([`pipeline_rt`]) — the paper's contribution: the
//!   partitioning/pipelining runtime with its Naive, Pipelined and
//!   Pipelined-buffer drivers, plus the §VII extensions (adaptive
//!   schedules, function-based dependencies, multi-device co-scheduling,
//!   autotuning).
//! * [`directive`] ([`pipeline_directive`]) — the clause-syntax parser
//!   (`pipeline(static[1,3]) pipeline_map(to:A0[k-1:3][0:ny][0:nx]) ...`).
//! * [`apps`] ([`pipeline_apps`]) — the four evaluation applications:
//!   3-D convolution, Parboil-style stencil, matrix multiplication, and
//!   a Lattice QCD proxy.
//! * [`serve`] ([`pipeline_serve`]) — the multi-tenant job server:
//!   fair-share scheduling, cost-model placement and chunk-granular
//!   preemption over a shared heterogeneous fleet.
//!
//! Applications normally import through [`prelude`] — the curated
//! stable surface, one `use dbpp::prelude::*;` away — rather than
//! navigating these modules.
//!
//! See `examples/quickstart.rs` for a five-minute tour and
//! `crates/bench` for the harness that regenerates every figure of the
//! paper's evaluation section.

#![warn(missing_docs)]

pub use gpsim as sim;
pub use pipeline_apps as apps;
pub use pipeline_directive as directive;
pub use pipeline_rt as rt;
pub use pipeline_serve as serve;

/// Crate version (workspace-wide).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// The curated stable surface: everything a typical pipeline
/// application needs, importable in one line. Anything it deliberately
/// leaves out (trace tooling, plan internals, sweep helpers) stays one
/// module away in [`rt`] and [`serve`].
pub mod prelude {
    // Entry points.
    pub use pipeline_rt::{run_model, run_model_multi, run_window_fn};
    // The pipeline description and its pieces.
    pub use pipeline_rt::{
        Affine, ChunkCtx, KernelBuilder, MapDir, MapSpec, Region, RegionSpec, Schedule, SplitSpec,
    };
    // Options and policies.
    pub use pipeline_rt::{
        BufferOptions, ExecModel, MultiOptions, RetryPolicy, RunOptions, StreamAssignment,
        TuneSpace,
    };
    // Results and errors.
    pub use pipeline_rt::{MultiReport, RtError, RtResult, RunReport};
    // Preemptible execution.
    pub use pipeline_rt::{JobReport, ResumableRun};
    // Serving: the server, its policies (admission, queue order) and
    // the report types.
    pub use pipeline_serve::{
        serve, Fleet, JobShape, JobSpec, QueueOrder, RateLimit, Rejection, ServeOptions,
        ServeReport, TenantSpec, WorkloadConfig,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reaches_every_layer() {
        let profile = crate::sim::DeviceProfile::k40m();
        assert_eq!(profile.name, "nvidia-k40m");
        let parsed =
            crate::directive::parse_directive("pipeline(static[1,3]) pipeline_map(to:A[k:1][0:8])")
                .unwrap();
        assert_eq!(parsed.maps.len(), 1);
        let cfg = crate::apps::StencilConfig::test_small();
        assert!(cfg.total() > 0);
        assert_eq!(crate::rt::chunk_ranges(0, 4, 2).len(), 2);
        let jobs = crate::serve::WorkloadConfig::new(1, 2, 1).generate();
        assert_eq!(jobs.len(), 2);
        assert!(!crate::VERSION.is_empty());
    }

    #[test]
    fn prelude_is_importable_and_usable() {
        use crate::prelude::*;
        // A couple of representative items, touched so the re-exports
        // are proven live, not just name-resolvable.
        let opts = RunOptions::default().with_retry(RetryPolicy::retries(1));
        let _ = opts;
        let model: ExecModel = ExecModel::PipelinedBuffer;
        assert_eq!(format!("{model:?}"), "PipelinedBuffer");
        let w = WorkloadConfig::new(7, 3, 2);
        assert_eq!(w.generate().len(), 3);
    }
}
