//! Chunking and buffer-sizing arithmetic.
//!
//! Given a region spec and a loop range, the planner decides:
//!
//! * the chunk boundaries (the paper's sub-tasks),
//! * the stream count,
//! * per-array ring capacities (slots) for the Pipelined-buffer model,
//! * and — when `pipeline_mem_limit` is present — a reduced schedule that
//!   fits the ceiling ("we tune before we allocate the buffer to fit
//!   total memory usage within available size", paper §III).
//!
//! The *adaptive* schedule (paper §VII future work) picks the chunk size
//! so each slice transfer is large enough to reach near-peak DMA
//! bandwidth on the target device, and defaults to three streams (input
//! copy / compute / output copy can then fully overlap).

use std::ops::Range;

use gpsim::{DeviceProfile, SimTime, WaitCause, ELEM_BYTES, PITCH_ALIGN_ELEMS};

use crate::buffer::BufferOptions;
use crate::error::{RtError, RtResult};
use crate::report::ExecModel;
use crate::spec::{RegionSpec, Schedule, SplitSpec};

/// A resolved execution plan for one region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Iterations per chunk.
    pub chunk_size: usize,
    /// Streams to pipeline across.
    pub num_streams: usize,
    /// Chunk iteration ranges `[k0, k1)`, in order.
    pub chunks: Vec<(i64, i64)>,
    /// Ring capacity (slices) per mapped array, in map order (the array
    /// extent for full-size layouts).
    pub ring_slots: Vec<usize>,
    /// Total device bytes of all arrays under this plan (rings, or full
    /// arrays for full-size layouts).
    pub buffer_bytes: u64,
}

/// Split `[lo, hi)` into chunks of `chunk_size` iterations (the last chunk
/// may be shorter).
pub fn chunk_ranges(lo: i64, hi: i64, chunk_size: usize) -> Vec<(i64, i64)> {
    assert!(chunk_size >= 1, "chunk_size must be ≥ 1");
    let mut out = Vec::new();
    let mut k = lo;
    while k < hi {
        let k1 = (k + chunk_size as i64).min(hi);
        out.push((k, k1));
        k = k1;
    }
    out
}

/// Slices spanned by one chunk of `chunk` iterations:
/// `scale·(chunk−1) + window`. This is the minimum ring capacity.
pub fn ring_slots_min(split: &SplitSpec, chunk: usize) -> usize {
    let scale = split.offset().scale.max(0) as usize;
    scale * (chunk - 1) + split.window()
}

/// Default ring capacity: the slices spanned by `num_streams` consecutive
/// in-flight chunks, `scale·(chunk·streams − 1) + window`, capped at the
/// array extent (a ring larger than the array degenerates to a direct
/// mapping).
pub fn ring_slots_default(split: &SplitSpec, chunk: usize, num_streams: usize) -> usize {
    let scale = split.offset().scale.max(0) as usize;
    let slots = scale * (chunk * num_streams).saturating_sub(1) + split.window();
    slots.min(split.extent())
}

/// Device bytes of a ring buffer with `slots` slices of this split
/// (pitched 2-D rings round the row up to the pitch granularity, exactly
/// like `cudaMallocPitch`).
pub fn map_buffer_bytes(split: &SplitSpec, slots: usize) -> u64 {
    match split {
        SplitSpec::OneD { slice_elems, .. } => (slots * slice_elems) as u64 * ELEM_BYTES,
        SplitSpec::ColBlocks {
            rows, block_cols, ..
        } => {
            let row = slots * block_cols;
            let pitch = row.div_ceil(PITCH_ALIGN_ELEMS) * PITCH_ALIGN_ELEMS;
            (pitch * rows) as u64 * ELEM_BYTES
        }
    }
}

/// Device bytes of every map's ring under `slots[map]` slots.
pub(crate) fn slots_bytes(spec: &RegionSpec, slots: &[usize]) -> u64 {
    spec.maps
        .iter()
        .zip(slots)
        .map(|(m, &s)| map_buffer_bytes(&m.split, s))
        .sum()
}

/// Device bytes of the full (non-ring) allocation of a map, as used by the
/// Naive and Pipelined models.
pub fn map_full_bytes(split: &SplitSpec) -> u64 {
    split.total_elems() as u64 * ELEM_BYTES
}

/// Total ring-buffer footprint of a region for a given schedule.
pub fn footprint(spec: &RegionSpec, chunk: usize, num_streams: usize) -> u64 {
    spec.maps
        .iter()
        .map(|m| {
            let slots = ring_slots_default(&m.split, chunk, num_streams);
            map_buffer_bytes(&m.split, slots)
        })
        .sum()
}

/// Shrink a `(chunk, streams)` schedule until its device `bytes` fit the
/// spec's `pipeline_mem_limit`: streams first (cheap: less in-flight
/// margin), then chunk. Errors with the smallest schedule's bytes when
/// even that does not fit.
fn fit_mem_limit(
    spec: &RegionSpec,
    (mut chunk, mut streams): (usize, usize),
    mut bytes: impl FnMut(usize, usize) -> RtResult<u64>,
) -> RtResult<(usize, usize)> {
    let Some(limit) = spec.mem_limit else {
        return Ok((chunk, streams));
    };
    while bytes(chunk, streams)? > limit && streams > 1 {
        streams -= 1;
    }
    while bytes(chunk, streams)? > limit && chunk > 1 {
        chunk = (chunk / 2).max(1);
    }
    let needed = bytes(chunk, streams)?;
    if needed > limit {
        return Err(RtError::MemLimitInfeasible { limit, needed });
    }
    Ok((chunk, streams))
}

/// Resolve a region spec into a concrete [`Plan`] for the Pipelined-buffer
/// model: pick chunk/streams (static, or adaptively from the device
/// profile), then shrink until the memory limit holds.
pub fn resolve_plan(
    spec: &RegionSpec,
    profile: &DeviceProfile,
    lo: i64,
    hi: i64,
) -> RtResult<Plan> {
    spec.validate(lo, hi)?;
    let iters = (hi - lo) as usize;
    let (chunk, streams) = match spec.schedule {
        Schedule::Static {
            chunk_size,
            num_streams,
        } => (chunk_size.min(iters), num_streams),
        Schedule::Adaptive => adaptive_schedule(spec, profile, iters),
    };
    let (chunk, streams) = fit_mem_limit(spec, (chunk.max(1), streams.max(1)), |c, s| {
        Ok(footprint(spec, c, s))
    })?;

    let chunks = chunk_ranges(lo, hi, chunk);
    let ring_slots: Vec<usize> = spec
        .maps
        .iter()
        .map(|m| ring_slots_default(&m.split, chunk, streams))
        .collect();
    let buffer_bytes = slots_bytes(spec, &ring_slots);
    Ok(Plan {
        chunk_size: chunk,
        num_streams: streams,
        chunks,
        ring_slots,
        buffer_bytes,
    })
}

/// Per-chunk dependency table: for each map and each chunk, the slice
/// range `[a, b)` that must be device-resident before the chunk's kernel
/// runs. Built either from the affine window specs or from user-supplied
/// window functions (the paper's §VII "function-based extension that
/// allows the developer to pass in a function pointer").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowTable {
    /// `ranges[map][chunk] = (first, end)` slice range.
    pub ranges: Vec<Vec<(i64, i64)>>,
}

/// A custom per-map dependency function: `(k0, k1) → (first, end)`.
pub type WindowFn<'a> = dyn Fn(i64, i64) -> (i64, i64) + 'a;

/// Build the dependency table for the given chunks, taking each map's
/// range from `windows[map]` when present and from the affine spec
/// otherwise. Validates bounds and (for output maps) non-overlap between
/// chunks.
pub fn build_window_table(
    spec: &RegionSpec,
    chunks: &[(i64, i64)],
    windows: &[Option<&WindowFn<'_>>],
) -> RtResult<WindowTable> {
    if !windows.is_empty() && windows.len() != spec.maps.len() {
        return Err(RtError::Spec(format!(
            "{} window functions for {} maps",
            windows.len(),
            spec.maps.len()
        )));
    }
    let mut ranges = Vec::with_capacity(spec.maps.len());
    for (i, m) in spec.maps.iter().enumerate() {
        let custom = windows.get(i).copied().flatten();
        let mut per_chunk = Vec::with_capacity(chunks.len());
        let mut prev_out_end = i64::MIN;
        for &(k0, k1) in chunks {
            let (a, b) = match custom {
                Some(f) => f(k0, k1),
                None => m.split.needed_slices(k0, k1),
            };
            if a >= b {
                return Err(RtError::Spec(format!(
                    "map '{}': empty dependency range [{a}, {b}) for chunk [{k0}, {k1})",
                    m.name
                )));
            }
            if a < 0 || b > m.split.extent() as i64 {
                return Err(RtError::Spec(format!(
                    "map '{}': dependency range [{a}, {b}) outside [0, {}) for chunk [{k0}, {k1})",
                    m.name,
                    m.split.extent()
                )));
            }
            if m.dir.is_output() {
                if a < prev_out_end {
                    return Err(RtError::Spec(format!(
                        "map '{}': output ranges overlap across chunks at slice {a}",
                        m.name
                    )));
                }
                prev_out_end = b;
            }
            per_chunk.push((a, b));
        }
        ranges.push(per_chunk);
    }
    Ok(WindowTable { ranges })
}

impl WindowTable {
    /// Ring capacity for map `i`: the largest span of slices needed by
    /// any `num_streams` consecutive chunks, capped at the extent.
    pub fn ring_slots(&self, map: usize, num_streams: usize, extent: usize) -> usize {
        let r = &self.ranges[map];
        let mut worst = 0i64;
        for c in 0..r.len() {
            let hi = (c + num_streams).min(r.len());
            let a_min = r[c..hi].iter().map(|&(a, _)| a).min().unwrap();
            let b_max = r[c..hi].iter().map(|&(_, b)| b).max().unwrap();
            worst = worst.max(b_max - a_min);
        }
        (worst.max(1) as usize).min(extent)
    }

    /// Minimum ring capacity (single-chunk span) for map `i`.
    pub fn ring_slots_min(&self, map: usize, extent: usize) -> usize {
        let worst = self.ranges[map]
            .iter()
            .map(|&(a, b)| b - a)
            .max()
            .unwrap_or(1);
        (worst.max(1) as usize).min(extent)
    }
}

/// Resolve a plan using explicit window functions: like [`resolve_plan`]
/// but with ring capacities derived from the actual per-chunk dependency
/// table. Returns the plan together with the table.
pub fn resolve_plan_fn(
    spec: &RegionSpec,
    profile: &DeviceProfile,
    lo: i64,
    hi: i64,
    windows: &[Option<&WindowFn<'_>>],
) -> RtResult<(Plan, WindowTable)> {
    // Custom windows replace the affine bounds check, so validate the
    // schedule/shape parts only.
    let iters = (hi - lo) as usize;
    if hi <= lo {
        return Err(RtError::Spec(format!("empty loop range [{lo}, {hi})")));
    }
    let (chunk, streams) = match spec.schedule {
        Schedule::Static {
            chunk_size,
            num_streams,
        } => (chunk_size.min(iters), num_streams),
        Schedule::Adaptive => adaptive_schedule(spec, profile, iters),
    };
    if chunk == 0 || streams == 0 {
        return Err(RtError::Spec("chunk_size and num_streams must be ≥ 1".into()));
    }

    type Built = (Vec<(i64, i64)>, WindowTable, Vec<usize>, u64);
    let build = |chunk: usize, streams: usize| -> RtResult<Built> {
        let chunks = chunk_ranges(lo, hi, chunk);
        let table = build_window_table(spec, &chunks, windows)?;
        let slots: Vec<usize> = spec
            .maps
            .iter()
            .enumerate()
            .map(|(i, m)| table.ring_slots(i, streams, m.split.extent()))
            .collect();
        let bytes = slots_bytes(spec, &slots);
        Ok((chunks, table, slots, bytes))
    };

    let (chunk, streams) = fit_mem_limit(spec, (chunk, streams), |c, s| Ok(build(c, s)?.3))?;
    let (chunks, table, slots, bytes) = build(chunk, streams)?;

    Ok((
        Plan {
            chunk_size: chunk,
            num_streams: streams,
            chunks,
            ring_slots: slots,
            buffer_bytes: bytes,
        },
        table,
    ))
}

/// Which of a chunk's completion events a compiled wait refers to.
///
/// A plan records at most one event per chunk per stage (H2D group,
/// kernel, D2H group); a compiled wait names the producing chunk and the
/// stage instead of a live [`gpsim::EventId`], so the same compiled plan
/// can be replayed on fresh events every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvKind {
    /// The chunk's H2D-group completion event.
    H2d,
    /// The chunk's kernel completion event.
    Kernel,
    /// The chunk's D2H-group completion event.
    D2h,
}

/// A compiled event wait: `(producing chunk, stage, recorded stall
/// cause)`.
pub type StageWait = (usize, EvKind, WaitCause);

/// A compiled transfer: `(map, first slice, slice count)`, contiguous in
/// device memory.
pub type SliceRun = (usize, i64, usize);

/// The fully classified enqueue recipe for one chunk of a compiled run:
/// every hazard wait, copy run and drain run the executor will issue, in
/// issue order, as ranges of the plan's [`waits`](CompiledPlan::waits)
/// and [`runs`](CompiledPlan::runs). Produced once by compilation and
/// replayed on every execution (and walked by the cost model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkStep {
    /// Stream index (into the run's stream list) this chunk executes on.
    pub stream: usize,
    /// Waits before the chunk's H2D copies (ring-reuse evictions).
    pub copy_waits: Range<usize>,
    /// H2D copy runs.
    pub copy_runs: Range<usize>,
    /// Waits before the kernel launch (cross-stream halo dependency or
    /// ring-slot reuse).
    pub kernel_waits: Range<usize>,
    /// D2H drain runs.
    pub out_runs: Range<usize>,
    /// Ring slots mapped across all arrays once this chunk is classified
    /// (the occupancy counter sample for the trace export).
    pub mapped_slots: usize,
}

/// How a compiled plan places slices in device memory — the one thing
/// that separates the paper's three execution models' data movement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// A pitched ring of `ring_slots` slices per array: slice `s` lives
    /// at slot `s % slots` and kernels pay the region's `index_overhead`
    /// for the mod-indexing (Pipelined-buffer).
    Ring,
    /// Full-size arrays, slice `s` at its own offset; copies move the
    /// planned slice runs (Pipelined, and Naive over a sub-range).
    Direct,
    /// Full-size arrays moved whole: every copy run is one flat transfer
    /// of the entire array (Naive over its full range).
    Whole,
}

/// Everything a run spends deciding, with the device untouched: the
/// compiled form of one execution under any [`ExecModel`].
///
/// Compiling resolves the schedule (including memory-limit shrinking
/// for the buffered model), builds the window table, assigns chunks to
/// streams, classifies every residency/hazard decision into
/// [`ChunkStep`]s and formats the plan label. Two interpreters consume
/// the result: the executor issues its commands on a device, and the
/// [`CostModel`](crate::CostModel) walks the same commands analytically.
///
/// The three models differ only in plan data:
///
/// | | Naive | Pipelined | Pipelined-buffer |
/// |---|---|---|---|
/// | [`layout`](Self::layout) | `Whole` (`Direct` over a sub-range) | `Direct` | `Ring` |
/// | chunks × streams | one step on the default stream | schedule, round-robin | schedule (shrunk to the memory limit) |
/// | [`sync_each`](Self::sync_each) | yes | no | no |
/// | [`poll`](Self::poll) | zero | per-queue polling | zero |
///
/// Events follow from the layout: a step records its H2D event when it
/// copies and issues asynchronously, and ring plans also record kernel
/// and D2H events (ring-slot reuse waits on them).
///
/// Reusable across iterations, sweep trials and autotune probes as long
/// as the model, region shape, device profile and buffer options are
/// unchanged (the driver checks, and silently recompiles on mismatch).
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    /// The execution model this plan runs.
    pub model: ExecModel,
    /// The resolved schedule (chunks, streams, per-array slots; direct
    /// layouts hold one slot per slice).
    pub plan: Plan,
    /// Per-map per-chunk dependency ranges.
    pub table: WindowTable,
    /// Chunk → stream index.
    pub chunk_stream: Vec<usize>,
    /// Per-chunk enqueue recipes, in chunk order.
    pub steps: Vec<ChunkStep>,
    /// Every step's waits, step after step.
    pub waits: Vec<StageWait>,
    /// Every step's copy and drain runs, step after step.
    pub runs: Vec<SliceRun>,
    /// Halo-consumer edges `(c, d)`, ascending in `d`: chunk `d`'s kernel
    /// reads slices chunk `c` copied (used by chunk-granular recovery).
    pub dependents: Vec<(usize, usize)>,
    /// Where slices live on the device.
    pub layout: Layout,
    /// Issue synchronously: every command on the default stream followed
    /// by a `stream_synchronize`, and no final device synchronize.
    pub sync_each: bool,
    /// Host time charged after every enqueue (the per-queue polling of an
    /// OpenACC-style async runtime; zero for direct CUDA streams).
    pub poll: SimTime,
    /// The `plan(...)` trace label, if the model emits one.
    pub plan_label: Option<String>,
    pub(crate) key: PlanKey,
}

impl CompiledPlan {
    /// The waits `step` issues before its copies.
    pub fn copy_waits(&self, step: &ChunkStep) -> &[StageWait] {
        &self.waits[step.copy_waits.clone()]
    }

    /// The H2D runs `step` copies in.
    pub fn copy_runs(&self, step: &ChunkStep) -> &[SliceRun] {
        &self.runs[step.copy_runs.clone()]
    }

    /// The waits `step` issues before its kernel.
    pub fn kernel_waits(&self, step: &ChunkStep) -> &[StageWait] {
        &self.waits[step.kernel_waits.clone()]
    }

    /// The D2H runs `step` drains.
    pub fn out_runs(&self, step: &ChunkStep) -> &[SliceRun] {
        &self.runs[step.out_runs.clone()]
    }

    /// Does `step` record its completion event for stage `kind`?
    pub fn records(&self, step: &ChunkStep, kind: EvKind) -> bool {
        match kind {
            EvKind::H2d => !self.sync_each && !step.copy_runs.is_empty(),
            EvKind::Kernel => self.layout == Layout::Ring,
            EvKind::D2h => self.layout == Layout::Ring && !step.out_runs.is_empty(),
        }
    }

    /// Kernel cost multiplier: ring plans pay the region's mod-index
    /// translation (paper §V-D), which adds instructions *and*
    /// address-generation pressure, so both roofline terms inflate.
    pub fn kernel_inflation(&self) -> f64 {
        match self.layout {
            Layout::Ring => 1.0 + self.key.spec.index_overhead,
            Layout::Direct | Layout::Whole => 1.0,
        }
    }

    /// Streams the run creates (synchronous plans use the default one).
    pub fn created_streams(&self) -> usize {
        if self.sync_each {
            0
        } else {
            self.plan.num_streams
        }
    }
}

/// What a [`CompiledPlan`] was compiled against; replay is valid only for
/// an identical key.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PlanKey {
    pub model: ExecModel,
    pub spec: RegionSpec,
    pub lo: i64,
    pub hi: i64,
    pub profile: DeviceProfile,
    pub options: BufferOptions,
    /// Naive over the full range (whole-array transfers).
    pub whole: bool,
    /// Plans built against caller-supplied window functions carry window
    /// ranges the key cannot describe, so they never match for reuse.
    pub custom_windows: bool,
}

/// Heuristic schedule: three streams, and a chunk size such that the
/// *largest* per-chunk slice transfer reaches ≥ 80 % of peak DMA bandwidth
/// under the profile's ramp (`bytes ≥ 4 × bw_half_size`).
fn adaptive_schedule(spec: &RegionSpec, profile: &DeviceProfile, iters: usize) -> (usize, usize) {
    let streams = 3usize;
    let target_bytes = (4.0 * profile.bw_half_size).max(1.0) as u64;
    let max_slice_bytes = spec
        .maps
        .iter()
        .map(|m| m.split.slice_elems() as u64 * ELEM_BYTES)
        .max()
        .unwrap_or(1)
        .max(1);
    let mut chunk = (target_bytes / max_slice_bytes).max(1) as usize;
    // Keep at least `streams` chunks so the pipeline can overlap at all.
    let max_chunk = (iters / streams).max(1);
    chunk = chunk.min(max_chunk);
    (chunk, streams)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Affine, MapDir, MapSpec, RegionSpec, Schedule};

    fn one_d(window: usize, extent: usize, slice_elems: usize) -> SplitSpec {
        SplitSpec::OneD {
            offset: if window == 3 {
                Affine::shifted(-1)
            } else {
                Affine::IDENTITY
            },
            window,
            extent,
            slice_elems,
        }
    }

    fn region(window: usize, extent: usize, slice_elems: usize) -> RegionSpec {
        RegionSpec::new(Schedule::static_(1, 3)).with_map(MapSpec {
            name: "A".into(),
            dir: MapDir::To,
            split: one_d(window, extent, slice_elems),
        })
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        let c = chunk_ranges(1, 10, 4);
        assert_eq!(c, vec![(1, 5), (5, 9), (9, 10)]);
        let c = chunk_ranges(0, 8, 4);
        assert_eq!(c, vec![(0, 4), (4, 8)]);
        let c = chunk_ranges(0, 3, 10);
        assert_eq!(c, vec![(0, 3)]);
    }

    #[test]
    fn ring_slots_formulas() {
        let s = one_d(3, 100, 64);
        // One iteration per chunk spans the 3-slice window.
        assert_eq!(ring_slots_min(&s, 1), 3);
        // Two iterations: slices k-1..k+2 → 4.
        assert_eq!(ring_slots_min(&s, 2), 4);
        // Three in-flight single-iteration chunks need slices k-1..k+3 → 5.
        assert_eq!(ring_slots_default(&s, 1, 3), 5);
        // Ring never exceeds the array extent.
        let tiny = one_d(3, 4, 64);
        assert_eq!(ring_slots_default(&tiny, 4, 4), 4);
    }

    #[test]
    fn buffer_bytes_pitched_rounding() {
        let s = SplitSpec::ColBlocks {
            offset: Affine::IDENTITY,
            window: 1,
            extent: 16,
            rows: 10,
            block_cols: 30,
            row_stride: 480,
        };
        // 3 slots → 90 columns → pitch 128 elems → 1280 elems → 5120 B.
        assert_eq!(map_buffer_bytes(&s, 3), 5120);
        assert_eq!(map_full_bytes(&s), 10 * 480 * 4);
    }

    #[test]
    fn plan_static_basics() {
        let spec = region(3, 100, 1000);
        let plan = resolve_plan(&spec, &DeviceProfile::uniform_test(), 1, 99).unwrap();
        assert_eq!(plan.chunk_size, 1);
        assert_eq!(plan.num_streams, 3);
        assert_eq!(plan.chunks.len(), 98);
        assert_eq!(plan.ring_slots, vec![5]);
        assert_eq!(plan.buffer_bytes, 5 * 1000 * 4);
    }

    #[test]
    fn mem_limit_shrinks_streams_then_chunk() {
        let mut spec = region(1, 1000, 1000); // 4 KB per slice
        spec.schedule = Schedule::static_(8, 4);
        // Unlimited: slots = 8*4 = 32 → 128 KB.
        let plan = resolve_plan(&spec, &DeviceProfile::uniform_test(), 0, 1000).unwrap();
        assert_eq!(plan.buffer_bytes, 32 * 4000);
        // Limit to 40 KB → 10 slots; streams drop to 1 (8 slots, 32 KB).
        spec.mem_limit = Some(40_000);
        let plan = resolve_plan(&spec, &DeviceProfile::uniform_test(), 0, 1000).unwrap();
        assert!(plan.buffer_bytes <= 40_000, "{}", plan.buffer_bytes);
        assert_eq!(plan.num_streams, 1);
        // Limit to 10 KB → chunk must shrink to 2 (2 slots, 8 KB).
        spec.mem_limit = Some(10_000);
        let plan = resolve_plan(&spec, &DeviceProfile::uniform_test(), 0, 1000).unwrap();
        assert!(plan.buffer_bytes <= 10_000);
        assert_eq!(plan.num_streams, 1);
        assert!(plan.chunk_size <= 2);
    }

    #[test]
    fn infeasible_mem_limit_is_reported() {
        let mut spec = region(3, 100, 1000); // min footprint = 3 slices = 12 KB
        spec.mem_limit = Some(8_000);
        let err = resolve_plan(&spec, &DeviceProfile::uniform_test(), 1, 99).unwrap_err();
        match err {
            RtError::MemLimitInfeasible { limit, needed } => {
                assert_eq!(limit, 8_000);
                assert_eq!(needed, 12_000);
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn adaptive_schedule_targets_bandwidth_ramp() {
        let mut spec = region(1, 10_000, 256); // 1 KB slices
        spec.schedule = Schedule::Adaptive;
        // K40m: 4×96 KB target → chunk ≈ 384 slices.
        let plan = resolve_plan(&spec, &DeviceProfile::k40m(), 0, 10_000).unwrap();
        assert!(plan.chunk_size >= 256, "chunk {}", plan.chunk_size);
        assert_eq!(plan.num_streams, 3);
        // AMD: 4×4 MB target → clamped by iters/streams.
        let plan = resolve_plan(&spec, &DeviceProfile::hd7970(), 0, 10_000).unwrap();
        assert_eq!(plan.chunk_size, 10_000 / 3);
    }

    #[test]
    fn chunk_larger_than_loop_is_clamped() {
        let mut spec = region(1, 100, 64);
        spec.schedule = Schedule::static_(1000, 2);
        let plan = resolve_plan(&spec, &DeviceProfile::uniform_test(), 0, 50).unwrap();
        assert_eq!(plan.chunks.len(), 1);
        assert_eq!(plan.chunk_size, 50);
    }
}
