//! # pipeline-serve — multi-tenant serving over the simulated fleet
//!
//! The lower layers answer "how fast does *one* region run on *one or
//! a few* devices?". This crate answers the operator's question: given
//! a shared heterogeneous fleet and a stream of jobs from competing
//! tenants — open loop or closed loop — what queueing delay, fairness
//! and throughput does the directive runtime deliver, and what survives
//! when the fleet misbehaves? Long jobs are preempted at chunk
//! granularity via the checkpoint/restore path and resumed
//! bit-identically, possibly on a different device; lost or hung
//! devices fail their work over to survivors; overload is absorbed by
//! admission control, degradation and typed shedding.
//!
//! | Module | Contents |
//! |---|---|
//! | [`job`] | [`JobSpec`], [`JobShape`], [`TenantSpec`], the serving GEMM |
//! | [`workload`] | [`WorkloadConfig`]: seeded open-loop or closed-loop traffic |
//! | [`fleet`] | [`Fleet`]: shared-pool devices + calibration + fault arming |
//! | [`sched`] | [`FairScheduler`]: weighted stride sharing, FIFO/EDF within |
//! | [`admission`] | [`TokenBucket`], [`Rejection`]: quotas and typed shedding |
//! | [`breaker`] | [`CircuitBreaker`]: flaky devices out of rotation |
//! | [`server`] | [`serve`]: the event loop (placement, failover, verify) |
//! | [`metrics`] | [`ServeReport`], [`TenantStats`], [`jain_index`] |
//!
//! The whole stack runs in functional simulation mode: outputs are real
//! bits (so preemption *and failover* correctness is checked, not
//! assumed) while the DES clocks still advance, giving meaningful
//! queueing behavior.

#![forbid(unsafe_code)]

pub mod admission;
pub mod breaker;
pub mod fleet;
pub mod job;
pub mod metrics;
pub mod sched;
pub mod server;
pub mod workload;

pub use admission::{RateLimit, Rejection, RejectionCounts, TokenBucket};
pub use breaker::CircuitBreaker;
pub use fleet::{DeviceModel, Fleet};
pub use job::{GemmConfig, JobInstance, JobShape, JobSpec, ShapeSig, TenantSpec};
pub use metrics::{jain_index, ServeReport, TenantStats};
pub use sched::{FairScheduler, QueueEntry, QueueOrder};
pub use server::{serve, ServeOptions};
pub use workload::WorkloadConfig;
