//! # pipeline-apps — the paper's four evaluation applications
//!
//! Implements the applications from the evaluation section of
//! *Directive-Based Partitioning and Pipelining for Graphics Processing
//! Units* (IPDPS 2017), each providing a workload generator, a CPU
//! reference, a chunk-kernel for the simulated GPU, and a bound
//! [`pipeline_rt::Region`]:
//!
//! * [`stencil`] — the Parboil 7-point Jacobi heat-equation stencil
//!   (§V-C, Figure 2's running example);
//! * [`conv3d`] — the Polybench 3-D convolution (§V-B);
//! * [`matmul`] — the Polybench matrix multiplication with its three
//!   versions: baseline, block-shared and pipeline-buffer (§V-E);
//! * [`qcd`] — a staggered-fermion hopping proxy for the SciDAC Lattice
//!   QCD application (§V-D).
//!
//! Stencil and conv3d build their region specs by parsing the paper's
//! own directive syntax (via `pipeline-directive`), exercising the full
//! front-to-back path a user of the proposed extension would take.

#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod conv3d;
pub mod matmul;
pub mod qcd;
pub mod stencil;
pub mod util;

pub use conv3d::{Conv3dConfig, Conv3dInstance};
pub use matmul::MatmulConfig;
pub use qcd::{QcdConfig, QcdInstance};
pub use stencil::{StencilConfig, StencilInstance};
