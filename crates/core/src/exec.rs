//! Region execution: the one executor every execution model runs
//! through.
//!
//! [`crate::buffer`] compiles a region under any [`ExecModel`] into a
//! [`CompiledPlan`]; [`execute`] replays it — allocate the plan's
//! layout, issue each [`ChunkStep`](crate::ChunkStep)'s waits, copies,
//! kernel and drains on its stream, then drain the device (retrying
//! failed chunks when a recovery policy is on). The cost model walks the
//! same plan analytically, so both see one command stream.
//!
//! Every model shares one kernel-builder interface: the application
//! provides a closure from a [`ChunkCtx`] (iteration sub-range + device
//! views) to a [`KernelLaunch`]. Because kernels address arrays only
//! through [`ArrayView`](crate::ArrayView), the *same* kernel body is
//! correct under direct and ring-buffer mappings — mirroring how the
//! paper passes device base pointers and offsets into unmodified OpenACC
//! kernel bodies.

use gpsim::{Copy2D, CounterTrack, EventId, Gpu, HostBufId, HostSpanKind, KernelLaunch, StreamId};

use crate::buffer::{compile, slot_runs};
use crate::error::{RtError, RtResult};
use crate::plan::{CompiledPlan, EvKind, Layout, PlanKey, StageWait};
use crate::recovery::{drain_with_recovery, Drained, DriverOutcome, RecoveryCtx, RecoveryStats};
use crate::report::{ExecModel, RunReport};
use crate::run::RunOptions;
use crate::spec::{RegionSpec, SplitSpec};
use crate::view::{ArrayView, ChunkCtx};

/// Unwrap a [`DriverOutcome`] from a run without recovery: `Exhausted`
/// is unreachable because only an enabled retry policy can produce it.
pub(crate) fn expect_done(outcome: DriverOutcome) -> RunReport {
    match outcome {
        DriverOutcome::Done(r) => r,
        DriverOutcome::Exhausted(..) => unreachable!("retry exhaustion without a retry policy"),
    }
}

/// A kernel factory: called once per chunk (the Naive model's one chunk
/// is the whole loop) to produce the kernel launch for that sub-range.
///
/// `Sync` so that sweep workers ([`crate::sweep`]) can share one builder
/// across threads; builders are pure functions of the chunk context in
/// practice.
pub type KernelBuilder<'a> = dyn Fn(&ChunkCtx) -> KernelLaunch + Sync + 'a;

/// A bound region: a spec, a loop range, and one host buffer per map.
#[derive(Debug, Clone)]
pub struct Region {
    /// The clause-level specification.
    pub spec: RegionSpec,
    /// Loop lower bound (inclusive).
    pub lo: i64,
    /// Loop upper bound (exclusive).
    pub hi: i64,
    /// Host buffers, one per map in `spec.maps` order.
    pub arrays: Vec<HostBufId>,
}

impl Region {
    /// Bind host arrays to a spec over a loop range.
    pub fn new(spec: RegionSpec, lo: i64, hi: i64, arrays: Vec<HostBufId>) -> Region {
        Region {
            spec,
            lo,
            hi,
            arrays,
        }
    }

    /// Validate the spec and that every bound host buffer is large enough
    /// for its map.
    pub fn validate(&self, gpu: &Gpu) -> RtResult<()> {
        self.spec.validate(self.lo, self.hi)?;
        self.validate_binding(gpu)
    }

    /// Binding-only validation (array counts and sizes), used when custom
    /// window functions replace the affine bounds check.
    pub fn validate_binding(&self, gpu: &Gpu) -> RtResult<()> {
        if self.arrays.len() != self.spec.maps.len() {
            return Err(RtError::Spec(format!(
                "{} maps but {} bound arrays",
                self.spec.maps.len(),
                self.arrays.len()
            )));
        }
        for (m, &h) in self.spec.maps.iter().zip(&self.arrays) {
            let need = m.split.total_elems();
            let have = gpu.host_len(h)?;
            if have < need {
                return Err(RtError::Spec(format!(
                    "map '{}' needs {} host elements, buffer has {}",
                    m.name, need, have
                )));
            }
        }
        Ok(())
    }
}

/// Attach declared access ranges for the race checker: the kernel reads
/// all input slices of its chunk and writes all output slices, through
/// the given views. Only populated when the context's race checker is
/// enabled (the declarations are O(slices·rows) and test-only).
pub(crate) fn declare_accesses(
    gpu: &Gpu,
    mut kernel: KernelLaunch,
    region: &Region,
    views: &[ArrayView],
    ranges: &[(i64, i64)],
) -> KernelLaunch {
    if !gpu.race_check_enabled() {
        return kernel;
    }
    for (i, m) in region.spec.maps.iter().enumerate() {
        let (a, b) = ranges[i];
        let v = &views[i];
        for s in a..b {
            match m.split {
                SplitSpec::OneD { slice_elems, .. } => {
                    let ptr = v.slice_ptr(s);
                    if m.dir.is_input() {
                        kernel = kernel.reading(ptr, slice_elems);
                    }
                    if m.dir.is_output() {
                        kernel = kernel.writing(ptr, slice_elems);
                    }
                }
                SplitSpec::ColBlocks {
                    rows, block_cols, ..
                } => {
                    // One strided range per block: the checker understands
                    // pitched layouts exactly, so sibling blocks interleaved
                    // row-by-row do not falsely overlap and the log stays
                    // O(slices) instead of O(slices·rows).
                    let (ptr, stride) = v.block_ptr(s);
                    if m.dir.is_input() {
                        kernel = kernel.reading_strided(ptr, block_cols, stride, rows);
                    }
                    if m.dir.is_output() {
                        kernel = kernel.writing_strided(ptr, block_cols, stride, rows);
                    }
                }
            }
        }
    }
    kernel
}

/// Run `model` over `region`: replay `opts.compiled` when it was
/// compiled for exactly this run, otherwise compile afresh with
/// `opts.buffer` — a stale plan can cost time, never correctness.
/// `sub_range` marks a run over part of a larger region (see
/// [`PlanKey::new`](crate::plan::PlanKey)).
///
/// Resets the context's activity counters.
pub(crate) fn run_plan(
    gpu: &mut Gpu,
    region: &Region,
    builder: &KernelBuilder<'_>,
    model: ExecModel,
    opts: &RunOptions,
    recovery: Option<&RecoveryCtx<'_>>,
    sub_range: bool,
) -> RtResult<DriverOutcome> {
    region.validate(gpu)?;
    let key = PlanKey::new(
        model,
        region.spec.clone(),
        region.lo,
        region.hi,
        gpu.profile().clone(),
        &opts.buffer,
        sub_range,
    );
    match opts.compiled.as_deref() {
        Some(cp) if cp.key == key => execute(gpu, region, builder, cp, recovery, true),
        _ => {
            let cp = compile(gpu, region, builder, key)?;
            execute(gpu, region, builder, &cp, recovery, false)
        }
    }
}

/// [`run_plan`] with default options and no recovery.
pub(crate) fn run_fresh(
    gpu: &mut Gpu,
    region: &Region,
    builder: &KernelBuilder<'_>,
    model: ExecModel,
) -> RtResult<RunReport> {
    run_plan(
        gpu,
        region,
        builder,
        model,
        &RunOptions::default(),
        None,
        false,
    )
    .map(expect_done)
}

/// Allocate the plan's device arrays: full-size allocations with direct
/// views, or pitched rings with ring views. A failed allocation rolls
/// the earlier ones back (the paper's out-of-memory GEMM sizes leave the
/// context clean for the next version).
fn alloc_views(gpu: &mut Gpu, region: &Region, cp: &CompiledPlan) -> RtResult<Vec<ArrayView>> {
    let ring = cp.layout == Layout::Ring;
    let mut views: Vec<ArrayView> = Vec::with_capacity(region.spec.maps.len());
    for (m, &slots) in region.spec.maps.iter().zip(&cp.plan.ring_slots) {
        let alloc = match &m.split {
            SplitSpec::OneD { slice_elems, .. } if ring => gpu
                .alloc(slots * slice_elems)
                .map(|ptr| ArrayView::ring_1d(ptr, *slice_elems, slots)),
            SplitSpec::OneD { slice_elems, .. } => gpu
                .alloc(m.split.total_elems())
                .map(|ptr| ArrayView::direct_1d(ptr, *slice_elems)),
            SplitSpec::ColBlocks {
                rows, block_cols, ..
            } if ring => gpu
                .alloc_pitched(*rows, slots * block_cols)
                .map(|(ptr, pitch)| ArrayView::ring_2d(ptr, pitch, *block_cols, *rows, slots)),
            SplitSpec::ColBlocks {
                rows,
                block_cols,
                row_stride,
                ..
            } => gpu
                .alloc(rows * row_stride)
                .map(|ptr| ArrayView::direct_2d(ptr, *row_stride, *block_cols, *rows)),
        };
        match alloc {
            Ok(v) => views.push(v),
            Err(e) => {
                for v in &views {
                    let _ = gpu.free(v.base());
                }
                return Err(e.into());
            }
        }
    }
    Ok(views)
}

/// Enqueue one copy run `(map, first slice, slice count)` between the
/// host array and its device view (`h2d` picks the direction). A whole
/// layout moves the entire array as one flat transfer; otherwise 1-D
/// maps copy one contiguous range and column-block maps one strided 2-D
/// range.
fn enqueue_run(
    gpu: &mut Gpu,
    region: &Region,
    layout: Layout,
    view: &ArrayView,
    (i, start, len): (usize, i64, usize),
    stream: StreamId,
    h2d: bool,
) -> RtResult<()> {
    let split = &region.spec.maps[i].split;
    let host = region.arrays[i];
    let (off, dev, elems) = match split {
        _ if layout == Layout::Whole => (0, view.base(), split.total_elems()),
        SplitSpec::OneD { slice_elems, .. } => (
            start as usize * slice_elems,
            view.slice_ptr(start),
            len * slice_elems,
        ),
        SplitSpec::ColBlocks {
            rows,
            block_cols,
            row_stride,
            ..
        } => {
            let (dev, dev_stride) = view.block_ptr(start);
            let copy = Copy2D {
                rows: *rows,
                row_elems: len * block_cols,
                host,
                host_off: start as usize * block_cols,
                host_stride: *row_stride,
                dev,
                dev_stride,
            };
            let issued = if h2d {
                gpu.memcpy2d_h2d_async(stream, copy)
            } else {
                gpu.memcpy2d_d2h_async(stream, copy)
            };
            return Ok(issued?);
        }
    };
    if h2d {
        gpu.memcpy_h2d_async(stream, host, off, dev, elems)?
    } else {
        gpu.memcpy_d2h_async(stream, dev, elems, host, off)?
    }
    Ok(())
}

/// Build chunk `c`'s kernel: the builder's launch, inflated by the
/// plan's index overhead, with its declared accesses attached.
fn chunk_kernel(
    gpu: &Gpu,
    region: &Region,
    builder: &KernelBuilder<'_>,
    cp: &CompiledPlan,
    views: &[ArrayView],
    c: usize,
    ranges: &mut Vec<(i64, i64)>,
) -> KernelLaunch {
    let (k0, k1) = cp.plan.chunks[c];
    let mut kernel = builder(&ChunkCtx {
        k0,
        k1,
        views: views.to_vec(),
    });
    let infl = cp.kernel_inflation();
    if infl != 1.0 {
        kernel.cost.flops = (kernel.cost.flops as f64 * infl) as u64;
        kernel.cost.bytes = (kernel.cost.bytes as f64 * infl) as u64;
    }
    ranges.clear();
    ranges.extend(cp.table.ranges.iter().map(|r| r[c]));
    declare_accesses(gpu, kernel, region, views, ranges)
}

/// Replay a [`CompiledPlan`]: allocate its layout and streams, then issue
/// the pre-classified per-chunk enqueue sequences. The only host work per
/// chunk is the kernel builder call and the raw enqueues — every
/// residency, hazard and run-grouping decision was made at compile time.
///
/// With `recovery` present and enabled, the final synchronize becomes a
/// retrying drain: a failed chunk's H2D → kernel → D2H triplet is
/// re-enqueued on its stream (after a simulated backoff) while the other
/// chunks' completions stand. Synchronous plans surface a failure at the
/// command itself, so the caller retries them whole.
pub(crate) fn execute(
    gpu: &mut Gpu,
    region: &Region,
    builder: &KernelBuilder<'_>,
    cp: &CompiledPlan,
    recovery: Option<&RecoveryCtx<'_>>,
    plan_reused: bool,
) -> RtResult<DriverOutcome> {
    let plan = &cp.plan;
    gpu.reset_counters();
    let t0 = gpu.now();
    if let Some(label) = cp.plan_label.as_ref().filter(|_| gpu.timeline_enabled()) {
        gpu.push_host_span(label.clone(), HostSpanKind::Plan, t0, t0);
    }

    let views = alloc_views(gpu, region, cp)?;
    let streams: Vec<StreamId> = if cp.sync_each {
        vec![gpu.default_stream()]
    } else {
        match (0..plan.num_streams).map(|_| gpu.create_stream()).collect() {
            Ok(s) => s,
            Err(e) => {
                for v in &views {
                    let _ = gpu.free(v.base());
                }
                return Err(e.into());
            }
        }
    };
    let created = &streams[..cp.created_streams()];
    let gpu_mem = gpu.current_mem();

    let n_chunks = plan.chunks.len();
    let mut events: Vec<[Option<EventId>; 3]> = vec![[None; 3]; n_chunks];
    // The plan's polling charge, after every enqueue.
    let poll = |gpu: &mut Gpu| {
        if !cp.poll.is_zero() {
            gpu.host_busy(cp.poll);
        }
    };
    let wait_all = |gpu: &mut Gpu, s, events: &[[Option<EventId>; 3]], waits: &[StageWait]| {
        for &(ch, kind, cause) in waits {
            let e = events[ch][kind as usize].expect("compiled waits name recorded events");
            gpu.wait_event_with_cause(s, e, cause)?;
            poll(gpu);
        }
        RtResult::Ok(())
    };

    // Ring-slot occupancy over host time (mapped slots across all rings,
    // precomputed per chunk at compile time) — a counter track in the
    // trace export.
    let track_occupancy = cp.layout == Layout::Ring && gpu.timeline_enabled();
    let mut occupancy: Vec<(u64, f64)> = Vec::new();
    if track_occupancy {
        occupancy.push((gpu.now().as_ns(), 0.0));
    }

    // Per-chunk enqueue-sequence ranges (failure → chunk lookup).
    let mut chunk_seqs: Vec<(u64, u64)> = Vec::with_capacity(n_chunks);
    let mut drained = Drained {
        stats: RecoveryStats::default(),
        retry_samples: Vec::new(),
        exhausted: None,
    };
    // Per-chunk scratch, hoisted so steady-state chunks reuse capacity.
    let mut ranges: Vec<(i64, i64)> = Vec::new();
    let body = (|| -> RtResult<()> {
        // After a copy or launch: poll, and drain the stream when the plan
        // issues synchronously.
        let issued = |gpu: &mut Gpu, s: StreamId| -> RtResult<()> {
            poll(gpu);
            if cp.sync_each {
                gpu.stream_synchronize(s)?;
            }
            Ok(())
        };
        let record = |gpu: &mut Gpu, s: StreamId, slot: &mut Option<EventId>| -> RtResult<()> {
            let e = gpu.create_event();
            gpu.record_event(s, e)?;
            poll(gpu);
            *slot = Some(e);
            Ok(())
        };
        for (c, step) in cp.steps.iter().enumerate() {
            let s = streams[step.stream];
            let seq0 = gpu.next_seq();

            wait_all(gpu, s, &events, cp.copy_waits(step))?;
            for &run in cp.copy_runs(step) {
                enqueue_run(gpu, region, cp.layout, &views[run.0], run, s, true)?;
                issued(gpu, s)?;
            }
            if cp.records(step, EvKind::H2d) {
                record(gpu, s, &mut events[c][EvKind::H2d as usize])?;
            }

            wait_all(gpu, s, &events, cp.kernel_waits(step))?;
            let kernel = chunk_kernel(gpu, region, builder, cp, &views, c, &mut ranges);
            gpu.launch(s, kernel)?;
            issued(gpu, s)?;
            if cp.records(step, EvKind::Kernel) {
                record(gpu, s, &mut events[c][EvKind::Kernel as usize])?;
            }

            for &run in cp.out_runs(step) {
                enqueue_run(gpu, region, cp.layout, &views[run.0], run, s, false)?;
                issued(gpu, s)?;
            }
            if cp.records(step, EvKind::D2h) {
                record(gpu, s, &mut events[c][EvKind::D2h as usize])?;
            }
            chunk_seqs.push((seq0, gpu.next_seq()));
            if track_occupancy {
                occupancy.push((gpu.now().as_ns(), step.mapped_slots as f64));
            }
        }
        if cp.sync_each {
            // Every command already drained its stream.
            return Ok(());
        }

        let Some(rctx) = recovery.filter(|r| r.policy.enabled()) else {
            return Ok(gpu.synchronize()?);
        };
        drained = drain_with_recovery(gpu, region, rctx, cp, &chunk_seqs, |gpu, c| {
            // Re-enqueue the chunk's full triplet into the *same*
            // device slots (the slice → slot map is static). The
            // whole input window is recopied, so the reissue is
            // self-sufficient, and the device is drained before each
            // reissue, so overwriting ring slots that later chunks
            // used is safe — their results are already on the host.
            let s = streams[cp.chunk_stream[c]];
            let mut n = 0u64;
            let mut runs = |gpu: &mut Gpu, h2d: bool| -> RtResult<()> {
                for (i, m) in region.spec.maps.iter().enumerate() {
                    if (h2d && !m.dir.is_input()) || (!h2d && !m.dir.is_output()) {
                        continue;
                    }
                    let (a, b) = cp.table.ranges[i][c];
                    for (start, len) in slot_runs(a, b, plan.ring_slots[i]) {
                        enqueue_run(gpu, region, cp.layout, &views[i], (i, start, len), s, h2d)?;
                        poll(gpu);
                        n += 1;
                    }
                }
                Ok(())
            };
            runs(gpu, true)?;
            let kernel = chunk_kernel(gpu, region, builder, cp, &views, c, &mut Vec::new());
            gpu.launch(s, kernel)?;
            poll(gpu);
            runs(gpu, false)?;
            Ok(n + 1)
        })?;
        Ok(())
    })();
    if let Err(e) = body {
        // A failed run must not bleed into whatever runs next on this
        // device: drain the in-flight work, drop its failure records, and
        // release device state so a whole-run retry (or the caller's next
        // run) starts from a clean device.
        while gpu.synchronize().is_err() {}
        let _ = gpu.take_failures();
        for &s in created {
            let _ = gpu.destroy_stream(s);
        }
        for v in &views {
            let _ = gpu.free(v.base());
        }
        return Err(e);
    }

    let total = gpu.now() - t0;
    let mut report = RunReport::from_gpu(
        cp.model,
        total,
        gpu,
        gpu_mem,
        plan.buffer_bytes,
        n_chunks,
        plan.num_streams,
    );
    // Report the logical workload: reissues are recovery overhead, not
    // extra work, so a recovered run matches a fault-free one.
    report.commands = report
        .commands
        .saturating_sub(drained.stats.reissued_commands);
    report.recovery = drained.stats;
    report.plan_reused = plan_reused;
    if track_occupancy {
        report.counter_tracks.push(CounterTrack {
            name: "ring_slot_occupancy".into(),
            samples: occupancy,
        });
    }
    if gpu.timeline_enabled() && !drained.retry_samples.is_empty() {
        report.counter_tracks.push(CounterTrack {
            name: "retries_in_flight".into(),
            samples: drained.retry_samples,
        });
    }
    for &s in created {
        gpu.destroy_stream(s)?;
    }
    for v in &views {
        gpu.free(v.base())?;
    }
    Ok(match drained.exhausted {
        None => DriverOutcome::Done(report),
        Some(x) => DriverOutcome::Exhausted(report, x),
    })
}
