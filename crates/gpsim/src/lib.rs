//! # gpsim — a discrete-event GPU device simulator
//!
//! This crate is the hardware substrate for the Rust reproduction of
//! *Directive-Based Partitioning and Pipelining for Graphics Processing
//! Units* (Cui, Scogland, de Supinski, Feng — IEEE IPDPS 2017). The
//! paper's runtime was evaluated on an NVIDIA Tesla K40m and an AMD
//! Radeon HD 7970; this environment has neither, so `gpsim` reproduces
//! the *mechanisms* those results depend on:
//!
//! * **Device memory** with capacity accounting, pitched 2-D allocations
//!   and out-of-memory failures ([`Gpu::alloc`], [`Gpu::alloc_pitched`]).
//! * **Pinned and pageable host buffers** ([`Gpu::alloc_host`]).
//! * **Streams** (FIFO command queues) and **events** for cross-stream
//!   ordering — the CUDA `cudaStreamWaitEvent` model.
//! * **Engines**: one H2D copy engine, one D2H copy engine, one compute
//!   engine; concurrency across engines is what makes pipelining pay.
//! * **Cost models** ([`DeviceProfile`]): bandwidth ramps, API overheads,
//!   launch latencies, roofline kernel times — calibrated profiles for a
//!   K40m-like and an HD 7970-like device.
//! * **Functional execution**: kernels carry closures that really run
//!   against simulated device memory, so numerical results can be checked
//!   bit-for-bit against CPU references, while timing comes from the cost
//!   model. A timing-only mode supports paper-scale problems without
//!   backing storage.
//!
//! ## Quick example
//!
//! ```
//! use gpsim::{DeviceProfile, ExecMode, Gpu, KernelCost, KernelLaunch};
//!
//! let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();
//! let host = gpu.alloc_host(1024, true).unwrap();
//! gpu.host_fill(host, |i| i as f32).unwrap();
//! let dev = gpu.alloc(1024).unwrap();
//! let s = gpu.create_stream().unwrap();
//! gpu.memcpy_h2d_async(s, host, 0, dev, 1024).unwrap();
//! gpu.launch(s, KernelLaunch::new(
//!     "double",
//!     KernelCost { flops: 1024, bytes: 8192 },
//!     move |ctx| {
//!         let mut d = ctx.write(dev, 1024)?;
//!         for v in d.iter_mut() { *v *= 2.0; }
//!         Ok(())
//!     },
//! )).unwrap();
//! gpu.memcpy_d2h_async(s, dev, 1024, host, 0).unwrap();
//! gpu.synchronize().unwrap();
//! let mut out = vec![0.0f32; 4];
//! gpu.host_read(host, 0, &mut out).unwrap();
//! assert_eq!(out, [0.0, 2.0, 4.0, 6.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cmd;
mod counters;
mod error;
mod fault;
pub mod json;
mod label;
mod mem;
mod profile;
pub mod race;
mod sim;
mod stall;
mod time;
mod trace;

pub use cmd::{
    AccessDecl, Copy2D, EngineKind, EventId, KernelBody, KernelCost, KernelCtx, KernelLaunch,
    StreamId,
};
pub use counters::{
    Counters, HostSpan, HostSpanKind, TimelineEntry, TimelineKind, WaitCause, WaitRecord,
};
pub use error::{SimError, SimResult};
pub use fault::{FailureRecord, FaultPlan, FaultStage, LossTrigger};
pub use label::{Label, LabelKey};
pub use mem::{
    AllocRead, AllocWrite, DevAllocId, DevPtr, ExecMode, HostBufId, HostPool, ELEM_BYTES,
    PITCH_ALIGN_ELEMS,
};
pub use profile::DeviceProfile;
pub use sim::{Gpu, HealthProbe, LossCause};
pub use stall::{attribute_stalls, render_attribution, EngineBreakdown, StallCause, StallReport};
pub use time::SimTime;
pub use trace::{
    inflight_counter, render_gantt, to_perfetto_trace, utilization, CounterTrack, Utilization,
};
