//! # pipeline-directive — parser for the paper's clause syntax
//!
//! Parses the directive extension proposed in *Directive-Based
//! Partitioning and Pipelining for Graphics Processing Units* (IPDPS
//! 2017, Figure 1) into the typed region specifications of
//! [`pipeline_rt`]:
//!
//! ```
//! use pipeline_directive::parse_directive;
//!
//! let parsed = parse_directive(
//!     "#pragma omp target \
//!      pipeline(static[1,3]) \
//!      pipeline_map(to:A0[k-1:3][0:64][0:64]) \
//!      pipeline_map(from:Anext[k:1][0:64][0:64]) \
//!      pipeline_mem_limit(MB_256)",
//! ).unwrap();
//!
//! assert_eq!(parsed.maps.len(), 2);
//! assert_eq!(parsed.mem_limit, Some(256 << 20));
//! assert_eq!(parsed.loop_var().unwrap(), "k");
//!
//! // Bind to a typed RegionSpec by providing each array's split-dim extent.
//! let spec = parsed.to_region_spec(|name| match name {
//!     "A0" | "Anext" => Some(66),
//!     _ => None,
//! }).unwrap();
//! assert_eq!(spec.maps[0].split.window(), 3);
//! assert_eq!(spec.maps[0].split.slice_elems(), 64 * 64);
//! ```
//!
//! The prototype in the paper passes all parameters explicitly to its
//! runtime; the directive text is the user-facing surface. Likewise here:
//! this crate produces a [`pipeline_rt::RegionSpec`], and execution goes
//! through the `pipeline_rt` drivers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
mod parse;
mod print;
mod token;

pub use error::{ParseError, ParseResult};
pub use parse::{parse_directive, DimSection, ParsedDirective, ParsedMap};
pub use token::{tokenize, Token, TokenKind};
