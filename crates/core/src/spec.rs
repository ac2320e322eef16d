//! Region specifications: the typed equivalent of the paper's
//! `pipeline`, `pipeline_map` and `pipeline_mem_limit` clauses (Figure 1).
//!
//! A region is a loop `for k in lo..hi` plus a set of mapped arrays. Each
//! array declares, per iteration `k`, which *slices* of its split
//! dimension must be device-resident before the iteration's kernel runs —
//! as an affine window `[offset(k), offset(k) + window)`, exactly the
//! paper's `<var>[split_iter:size][0:m]` form (e.g. `A0[k-1:3]` →
//! `offset(k) = k − 1`, `window = 3`).


use crate::error::{RtError, RtResult};

/// An affine function of the loop variable: `eval(k) = scale·k + bias`.
///
/// This is the `split_iter` of the paper's `array_split_list`: the first
/// slice of the split dimension that iteration `k` depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Affine {
    /// Multiplier of the loop variable (must be ≥ 0).
    pub scale: i64,
    /// Constant offset.
    pub bias: i64,
}

impl Affine {
    /// The identity map `k ↦ k`.
    pub const IDENTITY: Affine = Affine { scale: 1, bias: 0 };

    /// `k ↦ k + bias`.
    pub const fn shifted(bias: i64) -> Affine {
        Affine { scale: 1, bias }
    }

    /// Evaluate at `k`.
    #[inline]
    pub fn eval(&self, k: i64) -> i64 {
        self.scale * k + self.bias
    }
}

/// Data transfer direction of a mapped array (the paper's `map_type`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapDir {
    /// Input: copied host→device before use (`to`).
    To,
    /// Output: copied device→host after production (`from`).
    From,
    /// Both (`tofrom`).
    ToFrom,
}

impl MapDir {
    /// True if the array is copied host→device.
    pub fn is_input(self) -> bool {
        matches!(self, MapDir::To | MapDir::ToFrom)
    }

    /// True if the array is copied device→host.
    pub fn is_output(self) -> bool {
        matches!(self, MapDir::From | MapDir::ToFrom)
    }
}

/// How an array is split into slices along its partition dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SplitSpec {
    /// Split along the outermost (slowest-varying) dimension of a
    /// contiguous array: slice `s` is the contiguous element range
    /// `[s·slice_elems, (s+1)·slice_elems)`.
    ///
    /// This covers `A0[k-1:3][0:ny][0:nx]`-style maps: `slice_elems`
    /// is the product of the non-split dimensions.
    OneD {
        /// First slice needed by iteration `k`.
        offset: Affine,
        /// Number of consecutive slices needed per iteration (the
        /// dependency window, the paper's `size`).
        window: usize,
        /// Total number of slices in the split dimension.
        extent: usize,
        /// Elements per slice.
        slice_elems: usize,
    },
    /// Split a row-major matrix into column blocks (non-contiguous): block
    /// `b` is columns `[b·block_cols, (b+1)·block_cols)` of all `rows`
    /// rows. Transfers use strided 2-D copies (`cudaMemcpy2DAsync`).
    ColBlocks {
        /// First block needed by iteration `k`.
        offset: Affine,
        /// Number of consecutive blocks needed per iteration.
        window: usize,
        /// Total number of blocks.
        extent: usize,
        /// Matrix rows.
        rows: usize,
        /// Columns per block.
        block_cols: usize,
        /// Full-matrix row stride in elements (≥ `extent·block_cols`).
        row_stride: usize,
    },
}

impl SplitSpec {
    /// The affine offset of the split.
    pub fn offset(&self) -> Affine {
        match self {
            SplitSpec::OneD { offset, .. } | SplitSpec::ColBlocks { offset, .. } => *offset,
        }
    }

    /// Dependency window (slices/blocks per iteration).
    pub fn window(&self) -> usize {
        match self {
            SplitSpec::OneD { window, .. } | SplitSpec::ColBlocks { window, .. } => *window,
        }
    }

    /// Total number of slices/blocks in the split dimension.
    pub fn extent(&self) -> usize {
        match self {
            SplitSpec::OneD { extent, .. } | SplitSpec::ColBlocks { extent, .. } => *extent,
        }
    }

    /// Elements per slice/block.
    pub fn slice_elems(&self) -> usize {
        match self {
            SplitSpec::OneD { slice_elems, .. } => *slice_elems,
            SplitSpec::ColBlocks {
                rows, block_cols, ..
            } => rows * block_cols,
        }
    }

    /// Total elements of the full host array.
    pub fn total_elems(&self) -> usize {
        match self {
            SplitSpec::OneD {
                extent,
                slice_elems,
                ..
            } => extent * slice_elems,
            SplitSpec::ColBlocks {
                rows, row_stride, ..
            } => rows * row_stride,
        }
    }

    /// The inclusive slice range `[first, last_end)` needed by iterations
    /// `[k0, k1)`.
    pub fn needed_slices(&self, k0: i64, k1: i64) -> (i64, i64) {
        let off = self.offset();
        let a = off.eval(k0);
        let b = off.eval(k1 - 1) + self.window() as i64;
        (a, b)
    }

    /// Validate internal consistency and that the loop range `[lo, hi)`
    /// never touches slices outside `[0, extent)`.
    pub fn validate(&self, name: &str, lo: i64, hi: i64) -> RtResult<()> {
        if self.window() == 0 {
            return Err(RtError::Spec(format!("map '{name}': window must be ≥ 1")));
        }
        if self.extent() == 0 || self.slice_elems() == 0 {
            return Err(RtError::Spec(format!(
                "map '{name}': extent and slice size must be non-zero"
            )));
        }
        if self.offset().scale < 0 {
            return Err(RtError::Spec(format!(
                "map '{name}': negative split_iter scale is not supported"
            )));
        }
        if let SplitSpec::ColBlocks {
            extent,
            block_cols,
            row_stride,
            ..
        } = self
        {
            if extent * block_cols > *row_stride {
                return Err(RtError::Spec(format!(
                    "map '{name}': {extent} blocks of {block_cols} columns exceed row stride {row_stride}"
                )));
            }
        }
        if hi <= lo {
            return Err(RtError::Spec(format!(
                "empty loop range [{lo}, {hi}) for map '{name}'"
            )));
        }
        let (a, b) = self.needed_slices(lo, hi);
        if a < 0 || b > self.extent() as i64 {
            return Err(RtError::Spec(format!(
                "map '{name}': iterations [{lo}, {hi}) touch slices [{a}, {b}) outside [0, {})",
                self.extent()
            )));
        }
        Ok(())
    }
}

/// One mapped array: the paper's `pipeline_map(map_type: var[...]...)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapSpec {
    /// Array name (diagnostics and directive binding).
    pub name: String,
    /// Transfer direction.
    pub dir: MapDir,
    /// Partitioning of the array.
    pub split: SplitSpec,
}

/// Sub-task schedule: the paper's `pipeline(schedule_kind[chunk, streams])`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Fixed chunk size and stream count (the paper's prototype).
    Static {
        /// Loop iterations per chunk (the last chunk may be shorter).
        chunk_size: usize,
        /// Number of GPU streams to pipeline across.
        num_streams: usize,
    },
    /// Runtime-chosen chunk size and stream count from the device profile
    /// and memory limit (the paper's §VII future work, implemented here as
    /// an extension).
    Adaptive,
}

impl Schedule {
    /// A static schedule.
    pub fn static_(chunk_size: usize, num_streams: usize) -> Schedule {
        Schedule::Static {
            chunk_size,
            num_streams,
        }
    }
}

/// A full region specification (all clauses of Figure 1).
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSpec {
    /// Sub-task schedule.
    pub schedule: Schedule,
    /// Mapped arrays.
    pub maps: Vec<MapSpec>,
    /// Optional device-memory ceiling in bytes
    /// (`pipeline_mem_limit(mem_size)`).
    pub mem_limit: Option<u64>,
    /// Relative kernel-cost inflation of ring-buffer index translation
    /// (the paper attributes the Pipelined-buffer shortfall on kernels
    /// with heavy indexing, e.g. Lattice QCD, to these extra operations).
    pub index_overhead: f64,
}

impl RegionSpec {
    /// A region with the given schedule, no memory limit, and the default
    /// 3 % index-translation overhead.
    pub fn new(schedule: Schedule) -> RegionSpec {
        RegionSpec {
            schedule,
            maps: Vec::new(),
            mem_limit: None,
            index_overhead: 0.03,
        }
    }

    /// Add a mapped array (builder style).
    #[must_use]
    pub fn with_map(mut self, map: MapSpec) -> RegionSpec {
        self.maps.push(map);
        self
    }

    /// Set the ring-index overhead fraction (builder style).
    #[must_use]
    pub fn with_index_overhead(mut self, frac: f64) -> RegionSpec {
        self.index_overhead = frac;
        self
    }

    /// Validate all maps against a loop range.
    pub fn validate(&self, lo: i64, hi: i64) -> RtResult<()> {
        if self.maps.is_empty() {
            return Err(RtError::Spec("region has no pipeline_map clauses".into()));
        }
        if let Schedule::Static {
            chunk_size,
            num_streams,
        } = self.schedule
        {
            if chunk_size == 0 {
                return Err(RtError::Spec("chunk_size must be ≥ 1".into()));
            }
            if num_streams == 0 {
                return Err(RtError::Spec("num_streams must be ≥ 1".into()));
            }
        }
        for m in &self.maps {
            m.split.validate(&m.name, lo, hi)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stencil_input(extent: usize) -> SplitSpec {
        SplitSpec::OneD {
            offset: Affine::shifted(-1),
            window: 3,
            extent,
            slice_elems: 64,
        }
    }

    #[test]
    fn affine_eval() {
        assert_eq!(Affine::IDENTITY.eval(7), 7);
        assert_eq!(Affine::shifted(-1).eval(7), 6);
        assert_eq!(Affine { scale: 2, bias: 3 }.eval(5), 13);
    }

    #[test]
    fn needed_slices_match_paper_example() {
        // A0[k-1:3]: before iteration k=t, slices t-1, t, t+1 must be on
        // the device (paper Section III).
        let s = stencil_input(10);
        assert_eq!(s.needed_slices(5, 6), (4, 7));
        // A chunk of two iterations [5, 7) needs slices [4, 8).
        assert_eq!(s.needed_slices(5, 7), (4, 8));
    }

    #[test]
    fn validate_accepts_interior_loop() {
        let s = stencil_input(10);
        assert!(s.validate("A0", 1, 9).is_ok());
    }

    #[test]
    fn validate_rejects_out_of_bounds_window() {
        let s = stencil_input(10);
        // k=0 needs slice -1.
        let err = s.validate("A0", 0, 9).unwrap_err();
        assert!(err.to_string().contains("outside"));
        // k=9 needs slice 10.
        assert!(s.validate("A0", 1, 10).is_err());
    }

    #[test]
    fn validate_rejects_degenerate_specs() {
        let mut s = stencil_input(10);
        if let SplitSpec::OneD { window, .. } = &mut s {
            *window = 0;
        }
        assert!(s.validate("A0", 1, 9).is_err());

        let s = SplitSpec::ColBlocks {
            offset: Affine::IDENTITY,
            window: 1,
            extent: 8,
            rows: 4,
            block_cols: 4,
            row_stride: 16, // 8 * 4 = 32 > 16
        };
        assert!(s.validate("B", 0, 8).is_err());
    }

    #[test]
    fn col_blocks_sizes() {
        let s = SplitSpec::ColBlocks {
            offset: Affine::IDENTITY,
            window: 1,
            extent: 8,
            rows: 16,
            block_cols: 4,
            row_stride: 32,
        };
        assert_eq!(s.slice_elems(), 64);
        assert_eq!(s.total_elems(), 512);
    }

    #[test]
    fn region_validation() {
        let spec = RegionSpec::new(Schedule::static_(1, 3));
        assert!(spec.validate(1, 9).is_err(), "no maps");

        let spec = RegionSpec::new(Schedule::static_(0, 3)).with_map(MapSpec {
            name: "A0".into(),
            dir: MapDir::To,
            split: stencil_input(10),
        });
        assert!(spec.validate(1, 9).is_err(), "zero chunk");

        let spec = RegionSpec::new(Schedule::static_(1, 3)).with_map(MapSpec {
            name: "A0".into(),
            dir: MapDir::To,
            split: stencil_input(10),
        });
        assert!(spec.validate(1, 9).is_ok());
        assert!(spec.validate(9, 9).is_err(), "empty range");
    }

    #[test]
    fn map_dir_predicates() {
        assert!(MapDir::To.is_input() && !MapDir::To.is_output());
        assert!(!MapDir::From.is_input() && MapDir::From.is_output());
        assert!(MapDir::ToFrom.is_input() && MapDir::ToFrom.is_output());
    }
}
