//! The plan compiler: every execution model becomes one [`CompiledPlan`].
//!
//! The paper's three models issue the same chunk → stream →
//! H2D/kernel/D2H pattern and differ only in where slices live on the
//! device. The **Pipelined-buffer** model — the paper's contribution —
//! gives each mapped array a small pre-allocated device ring buffer of
//! `slots` slices; slice `s` of the host array lives at ring slot
//! `s % slots` ("we copy chunk *i* to position (*i* % 4)", paper §IV).
//! The loop is divided into chunks dispatched round-robin over streams;
//! per chunk the runtime:
//!
//! 1. copies the chunk's not-yet-resident input slices into their ring
//!    slots (waiting, via events, for any still-running kernels that read
//!    the slices being evicted — the write-after-read hazard of ring
//!    reuse),
//! 2. launches the kernel (waiting for H2D groups of *other* streams that
//!    copied slices this chunk reuses, e.g. stencil halos — the
//!    read-after-write hazard),
//! 3. copies the chunk's output slices back to the host and records their
//!    completion (so a later chunk reusing the slot can wait — the
//!    write-after-write/D2H hazard).
//!
//! Residency tracking means shared halo slices are copied exactly once,
//! like the paper's dependency calculation that "removes the data that
//! only previous chunks require".
//!
//! The **Pipelined** model is the same classification over a ring of
//! `extent` slots — full-size arrays, nothing ever evicted — plus the
//! per-enqueue polling charge of an OpenACC-style async runtime. The
//! **Naive** model is one chunk on the default stream, issued
//! synchronously, moving whole arrays (or, over a sub-range of a larger
//! run, just the windows it needs).
//!
//! Compilation touches no device state (except the
//! [`StreamAssignment::LeastLoaded`] cost probe); the executor in
//! [`crate::exec`] replays the plan, and the cost model walks it.
//! Iterative callers (sweeps, autotune probes, multi-iteration apps)
//! compile once and pass the plan back in via
//! [`RunOptions::with_compiled`](crate::RunOptions::with_compiled),
//! taking per-run planning out of the host hot path.

use gpsim::{DeviceProfile, Gpu, Label, SimTime, WaitCause};

use crate::error::RtResult;
use crate::exec::{KernelBuilder, Region};
use crate::multi::validate_sliceable;
use crate::plan::{
    build_window_table, chunk_ranges, map_full_bytes, resolve_plan, resolve_plan_fn,
    ring_slots_min, slots_bytes, ChunkStep, CompiledPlan, EvKind, Layout, Plan, PlanKey, SliceRun,
    StageWait, WindowFn, WindowTable,
};
use crate::report::ExecModel;
use crate::spec::{MapDir, RegionSpec, Schedule, SplitSpec};
use crate::view::{ArrayView, ChunkCtx};

/// Ring bookkeeping for one mapped array.
///
/// All metadata is keyed by ring slot, not by slice: an entry is only
/// meaningful while its slice is mapped (`mapped[slot] == Some(sl)`),
/// and eviction clears the slot's entries — so per-slot arrays give the
/// same semantics as slice-keyed maps without hashing on the classify
/// hot path (the reader vectors keep their capacity across reuse).
struct RingBook {
    slots: usize,
    /// Whether kernel readers must be remembered: only eviction consults
    /// them, and a ring as large as the array never evicts a resident
    /// slice (it can only re-copy one when residency is not tracked).
    track_readers: bool,
    /// slot → currently mapped slice.
    mapped: Vec<Option<i64>>,
    /// slot → chunk that copied the mapped slice in (inputs).
    copied_by: Vec<Option<usize>>,
    /// slot → chunks whose kernels read the mapped slice (inputs).
    readers: Vec<Vec<usize>>,
    /// slot → chunk that produced and drained the mapped slice (outputs).
    written_by: Vec<Option<usize>>,
}

impl RingBook {
    fn new(slots: usize, extent: usize, track_residency: bool) -> Self {
        RingBook {
            slots,
            track_readers: slots < extent || !track_residency,
            mapped: vec![None; slots],
            copied_by: vec![None; slots],
            readers: vec![Vec::new(); slots],
            written_by: vec![None; slots],
        }
    }

    /// The chunk that copied slice `sl` (at ring slot `slot`) in, if `sl`
    /// is still resident.
    fn resident_copier(&self, sl: i64, slot: usize) -> Option<usize> {
        if self.mapped[slot] == Some(sl) {
            self.copied_by[slot]
        } else {
            None
        }
    }
}

/// The slices `lo..hi` paired with their ring slots
/// (`sl.rem_euclid(slots)`): one division for the window, then a
/// wrap-around increment per slice.
fn slice_slots(lo: i64, hi: i64, slots: usize) -> impl Iterator<Item = (i64, usize)> {
    let mut slot = lo.rem_euclid(slots as i64) as usize;
    (lo..hi).map(move |sl| {
        let at = slot;
        slot += 1;
        if slot == slots {
            slot = 0;
        }
        (sl, at)
    })
}

/// Split the slice range `[lo, hi)` into ring-contiguous runs: a run ends
/// when the ring wraps (slot returns to 0), so each run is one contiguous
/// device range.
fn slot_runs_into(lo: i64, hi: i64, slots: usize, out: &mut Vec<(i64, usize)>) {
    let mut s = lo;
    while s < hi {
        let to_wrap = slots as i64 - s.rem_euclid(slots as i64);
        let end = (s + to_wrap).min(hi);
        out.push((s, (end - s) as usize));
        s = end;
    }
}

/// [`slot_runs_into`] returning a fresh vector (recovery reissues).
pub(crate) fn slot_runs(lo: i64, hi: i64, slots: usize) -> Vec<(i64, usize)> {
    let mut out = Vec::new();
    slot_runs_into(lo, hi, slots, &mut out);
    out
}

/// Push a compiled wait onto the list starting at `waits[from]` unless
/// the list already waits on the same `(chunk, stage)`: exactly one event
/// exists per chunk per stage, so the first cause recorded wins.
fn push_wait(waits: &mut Vec<StageWait>, from: usize, ch: usize, kind: EvKind, cause: WaitCause) {
    if !waits[from..].iter().any(|&(w, k, _)| w == ch && k == kind) {
        waits.push((ch, kind, cause));
    }
}

/// How chunks are assigned to streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StreamAssignment {
    /// Chunk `c` goes to stream `c % num_streams` (the paper's
    /// prototype).
    #[default]
    RoundRobin,
    /// Each chunk goes to the stream with the least estimated enqueued
    /// work (transfer + roofline kernel time). Helps when chunk costs
    /// vary — uneven tails, custom dependency windows.
    LeastLoaded,
}

/// Ablation switches for the Pipelined-buffer model (used by the
/// `ablations` bench to quantify each design choice; defaults reproduce
/// the paper's prototype).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferOptions {
    /// Track slice residency and skip re-copies of halo slices already on
    /// the device. Off = every chunk copies its full window.
    pub track_residency: bool,
    /// Size each ring to the single-chunk minimum instead of covering all
    /// in-flight chunks: lower memory, but write-after-read stalls
    /// serialize the pipeline.
    pub minimal_slots: bool,
    /// Chunk-to-stream policy.
    pub assignment: StreamAssignment,
}

impl Default for BufferOptions {
    fn default() -> Self {
        BufferOptions {
            track_residency: true,
            minimal_slots: false,
            assignment: StreamAssignment::RoundRobin,
        }
    }
}

/// Estimate one chunk's device occupancy for the least-loaded policy:
/// input-window and output transfer times plus the roofline kernel time.
#[allow(clippy::too_many_arguments)]
fn estimate_chunk_cost(
    gpu: &Gpu,
    region: &Region,
    table: &WindowTable,
    views: &[ArrayView],
    builder: &KernelBuilder<'_>,
    c: usize,
    k0: i64,
    k1: i64,
) -> f64 {
    let p = gpu.profile();
    let mut t = 0.0;
    for (i, m) in region.spec.maps.iter().enumerate() {
        let (a, b) = table.ranges[i][c];
        let bytes = (b - a) as u64 * m.split.slice_elems() as u64 * gpsim::ELEM_BYTES;
        if m.dir.is_input() {
            t += p.h2d_time(bytes, true).as_secs_f64();
        }
        if m.dir.is_output() {
            t += p.d2h_time(bytes, true).as_secs_f64();
        }
    }
    let probe = builder(&ChunkCtx {
        k0,
        k1,
        views: views.to_vec(),
    });
    t + p.kernel_time(probe.cost.flops, probe.cost.bytes).as_secs_f64()
}

/// The least-loaded chunk → stream map: each chunk goes to the stream
/// with the least estimated enqueued work so far.
fn assign_streams(
    gpu: &Gpu,
    region: &Region,
    plan: &Plan,
    table: &WindowTable,
    views: &[ArrayView],
    builder: &KernelBuilder<'_>,
) -> Vec<usize> {
    let mut loads = vec![0.0f64; plan.num_streams];
    let mut out = Vec::with_capacity(plan.chunks.len());
    for (c, &(k0, k1)) in plan.chunks.iter().enumerate() {
        let cost = estimate_chunk_cost(gpu, region, table, views, builder, c, k0, k1);
        let (best, _) = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("num_streams >= 1");
        loads[best] += cost;
        out.push(best);
    }
    out
}

/// With a non-round-robin assignment, the chunks simultaneously in
/// flight are the i-th entries of each stream's queue (streams advance
/// roughly in lockstep rounds, skewed by load) — widen each ring to
/// cover the dependency span of every round and its successor.
fn widen_rings_for_assignment(
    region: &Region,
    plan: &mut Plan,
    table: &WindowTable,
    chunk_stream: &[usize],
) {
    let ns = plan.num_streams;
    let mut per_stream: Vec<Vec<usize>> = vec![Vec::new(); ns];
    for (c, &s) in chunk_stream.iter().enumerate() {
        per_stream[s].push(c);
    }
    let rounds = per_stream.iter().map(Vec::len).max().unwrap_or(0);
    for (i, m) in region.spec.maps.iter().enumerate() {
        let mut worst = plan.ring_slots[i] as i64;
        for r in 0..rounds {
            // Chunks live during rounds r and r+1 across all streams.
            let mut a_min = i64::MAX;
            let mut b_max = i64::MIN;
            for q in per_stream.iter() {
                for rr in [r, r + 1] {
                    if let Some(&c) = q.get(rr) {
                        let (a, b) = table.ranges[i][c];
                        a_min = a_min.min(a);
                        b_max = b_max.max(b);
                    }
                }
            }
            if a_min < b_max {
                worst = worst.max(b_max - a_min);
            }
        }
        plan.ring_slots[i] = (worst as usize).min(m.split.extent());
    }
    plan.buffer_bytes = slots_bytes(&region.spec, &plan.ring_slots);
}

/// Every chunk's enqueue recipe, with the waits and runs of all steps
/// pooled (see [`ChunkStep`]).
#[derive(Default)]
struct Recipes {
    steps: Vec<ChunkStep>,
    waits: Vec<StageWait>,
    runs: Vec<SliceRun>,
    dependents: Vec<(usize, usize)>,
}

/// Classify every chunk of a resolved plan into its enqueue recipe: the
/// residency/hazard logic of the ring, run once, with the device
/// untouched (a direct layout is a ring of `extent` slots). Also records
/// the halo-consumer edges.
///
/// A compiled wait names `(producing chunk, stage)`; it is only recorded
/// when that stage will actually record an event (a chunk records an H2D
/// event iff it has copy runs, a D2H event iff it has drain runs, and
/// always records a kernel event), so replay can resolve every wait.
fn classify_chunks(
    spec: &RegionSpec,
    plan: &Plan,
    table: &WindowTable,
    chunk_stream: &[usize],
    track_residency: bool,
) -> Recipes {
    let n_chunks = plan.chunks.len();
    let mut books: Vec<RingBook> = spec
        .maps
        .iter()
        .zip(&plan.ring_slots)
        .map(|(m, &s)| RingBook::new(s, m.split.extent(), track_residency))
        .collect();
    let mut mapped_slots = 0usize;
    let mut out = Recipes {
        steps: Vec::with_capacity(n_chunks),
        ..Recipes::default()
    };
    let mut kernel_waits: Vec<StageWait> = Vec::new();
    let mut missing: Vec<(i64, usize)> = Vec::new();
    let mut runs_scratch: Vec<(i64, usize)> = Vec::new();
    for c in 0..n_chunks {
        let same_stream = |other: usize| chunk_stream[other] == chunk_stream[c];
        let (steps, waits, runs) = (&out.steps, &mut out.waits, &mut out.runs);
        let (w0, r0, e0) = (waits.len(), runs.len(), out.dependents.len());
        kernel_waits.clear();

        for (i, m) in spec.maps.iter().enumerate() {
            if !m.dir.is_input() {
                continue;
            }
            let (a, b) = table.ranges[i][c];
            let book = &mut books[i];
            missing.clear();
            for (sl, slot) in slice_slots(a, b, book.slots) {
                match book.resident_copier(sl, slot).filter(|_| track_residency) {
                    Some(owner) => {
                        // RAW across streams: wait for the copier's group.
                        if owner != c
                            && !same_stream(owner)
                            && !steps[owner].copy_runs.is_empty()
                        {
                            let cause = WaitCause::Dependency;
                            push_wait(&mut kernel_waits, 0, owner, EvKind::H2d, cause);
                        }
                        if owner != c && !out.dependents[e0..].contains(&(owner, c)) {
                            out.dependents.push((owner, c));
                        }
                    }
                    None => missing.push((sl, slot)),
                }
            }
            // Evictions: overwriting a slot whose old slice may still be
            // in use by another stream's kernel (WAR) or pending D2H.
            for &(sl, slot) in &missing {
                if book.mapped[slot].is_some() {
                    let rs = &mut book.readers[slot];
                    for &r in rs.iter() {
                        if !same_stream(r) {
                            push_wait(waits, w0, r, EvKind::Kernel, WaitCause::RingReuse);
                        }
                    }
                    rs.clear();
                    if let Some(w) = book.written_by[slot].take() {
                        if !same_stream(w) && !steps[w].out_runs.is_empty() {
                            push_wait(waits, w0, w, EvKind::D2h, WaitCause::RingReuse);
                        }
                    }
                } else {
                    mapped_slots += 1;
                }
                book.mapped[slot] = Some(sl);
                book.copied_by[slot] = Some(c);
            }
            // Group missing slices into consecutive runs (affine windows
            // produce one run; custom window functions may leave gaps),
            // then split each run at ring-wrap boundaries.
            let mut run_start: Option<i64> = None;
            let mut prev = 0i64;
            for &(sl, _) in &missing {
                match run_start {
                    Some(_) if sl == prev + 1 => {}
                    Some(st) => {
                        runs_scratch.clear();
                        slot_runs_into(st, prev + 1, book.slots, &mut runs_scratch);
                        runs.extend(runs_scratch.iter().map(|&(start, len)| (i, start, len)));
                        run_start = Some(sl);
                    }
                    None => run_start = Some(sl),
                }
                prev = sl;
            }
            if let Some(st) = run_start {
                runs_scratch.clear();
                slot_runs_into(st, prev + 1, book.slots, &mut runs_scratch);
                runs.extend(runs_scratch.iter().map(|&(start, len)| (i, start, len)));
            }
            // This chunk reads all its needed slices.
            if book.track_readers {
                for (sl, slot) in slice_slots(a, b, book.slots) {
                    debug_assert_eq!(book.mapped[slot], Some(sl));
                    book.readers[slot].push(c);
                }
            }
        }
        let (w1, r1) = (waits.len(), runs.len());

        // Output slots: kernel writes them, so the previous occupant's
        // D2H (and, for ToFrom, any readers) must be complete first.
        for (i, m) in spec.maps.iter().enumerate() {
            if !m.dir.is_output() {
                continue;
            }
            let (a, b) = table.ranges[i][c];
            let book = &mut books[i];
            for (sl, slot) in slice_slots(a, b, book.slots) {
                match book.mapped[slot] {
                    Some(old) if old != sl => {
                        let reuse = WaitCause::RingReuse;
                        if let Some(w) = book.written_by[slot].take() {
                            if !same_stream(w) && !steps[w].out_runs.is_empty() {
                                push_wait(&mut kernel_waits, 0, w, EvKind::D2h, reuse);
                            }
                        }
                        let rs = &mut book.readers[slot];
                        for &r in rs.iter() {
                            if !same_stream(r) {
                                push_wait(&mut kernel_waits, 0, r, EvKind::Kernel, reuse);
                            }
                        }
                        rs.clear();
                        book.copied_by[slot] = None;
                        book.mapped[slot] = Some(sl);
                    }
                    None => {
                        book.mapped[slot] = Some(sl);
                        mapped_slots += 1;
                    }
                    _ => {}
                }
            }
            // The chunk's drain runs, and ownership of the drained slots.
            runs_scratch.clear();
            slot_runs_into(a, b, book.slots, &mut runs_scratch);
            runs.extend(runs_scratch.iter().map(|&(start, len)| (i, start, len)));
            for (sl, slot) in slice_slots(a, b, book.slots) {
                debug_assert_eq!(book.mapped[slot], Some(sl));
                book.written_by[slot] = Some(c);
            }
        }
        waits.extend_from_slice(&kernel_waits);

        let step = ChunkStep {
            stream: chunk_stream[c],
            copy_waits: w0..w1,
            copy_runs: r0..r1,
            kernel_waits: w1..waits.len(),
            out_runs: r1..runs.len(),
            mapped_slots,
        };
        out.steps.push(step);
    }
    out
}

/// Host polling charged per enqueue by the Pipelined model, as a
/// multiple of the device's API overhead per live stream beyond the
/// second. Models the per-queue polling of an OpenACC async runtime: the
/// paper observes the hand-pipelined version degrading dramatically as
/// streams grow (Figure 7) while the prototype, which talks to CUDA
/// streams directly, stays flat. Calibrated so that, at the paper's
/// problem sizes, the polling overtakes the device pipeline somewhere
/// between 4 and 6 streams — the crossover of Figure 7.
const POLL_FACTOR: f64 = 2.4;

/// Per-enqueue polling charge of the Pipelined model for `num_streams`
/// live queues.
fn poll_time(api_overhead: SimTime, num_streams: usize) -> SimTime {
    let extra = num_streams.saturating_sub(2) as f64;
    SimTime::from_secs_f64(api_overhead.as_secs_f64() * POLL_FACTOR * extra)
}

impl PlanKey {
    /// The key a `model` run of `spec` over `[lo, hi)` compiles against
    /// (a compiled plan is replayed only for an equal key).
    /// `Auto` runs the buffered model, and only the buffered model reads
    /// the buffer options. `sub_range` marks a run over part of a larger
    /// region: Naive then moves only the windows it needs instead of
    /// whole arrays, which would clobber outputs other ranges produced.
    pub(crate) fn new(
        model: ExecModel,
        spec: RegionSpec,
        lo: i64,
        hi: i64,
        profile: DeviceProfile,
        opts: &BufferOptions,
        sub_range: bool,
    ) -> PlanKey {
        let model = match model {
            ExecModel::Auto => ExecModel::PipelinedBuffer,
            m => m,
        };
        PlanKey {
            model,
            spec,
            lo,
            hi,
            profile,
            options: key_options(model, opts),
            whole: model == ExecModel::Naive && !sub_range,
            custom_windows: false,
        }
    }
}

fn key_options(model: ExecModel, opts: &BufferOptions) -> BufferOptions {
    if model == ExecModel::PipelinedBuffer {
        *opts
    } else {
        BufferOptions::default()
    }
}

/// A schedule over full-size arrays: one slot per slice.
fn direct_plan(spec: &RegionSpec, lo: i64, hi: i64, chunk: usize, streams: usize) -> Plan {
    Plan {
        chunk_size: chunk,
        num_streams: streams,
        chunks: chunk_ranges(lo, hi, chunk),
        ring_slots: spec.maps.iter().map(|m| m.split.extent()).collect(),
        buffer_bytes: spec.maps.iter().map(|m| map_full_bytes(&m.split)).sum(),
    }
}

/// Resolve the schedule the key's model runs with.
fn resolve_for(key: &PlanKey) -> RtResult<Plan> {
    let (spec, lo, hi) = (&key.spec, key.lo, key.hi);
    let iters = (hi - lo) as usize;
    match key.model {
        ExecModel::Naive => Ok(direct_plan(spec, lo, hi, iters, 1)),
        ExecModel::Pipelined => {
            // Chunks on different streams drain their output windows in
            // nondeterministic order, so the windows must not overlap.
            validate_sliceable(spec)?;
            // Full-size arrays do not shrink with the memory limit, so a
            // static schedule runs as written.
            let (chunk, streams) = match spec.schedule {
                Schedule::Static {
                    chunk_size,
                    num_streams,
                } => (chunk_size.min(iters).max(1), num_streams.max(1)),
                Schedule::Adaptive => {
                    let p = resolve_plan(spec, &key.profile, lo, hi)?;
                    (p.chunk_size, p.num_streams)
                }
            };
            Ok(direct_plan(spec, lo, hi, chunk, streams))
        }
        ExecModel::PipelinedBuffer | ExecModel::Auto => {
            let mut plan = resolve_plan(spec, &key.profile, lo, hi)?;
            if key.options.minimal_slots {
                plan.ring_slots = spec
                    .maps
                    .iter()
                    .map(|m| ring_slots_min(&m.split, plan.chunk_size))
                    .collect();
                plan.buffer_bytes = slots_bytes(spec, &plan.ring_slots);
            }
            Ok(plan)
        }
    }
}

fn round_robin(plan: &Plan) -> Vec<usize> {
    (0..plan.chunks.len())
        .map(|c| c % plan.num_streams)
        .collect()
}

/// Classify a resolved schedule into the key's model: the per-chunk
/// steps plus the model's plan data.
fn assemble(
    key: PlanKey,
    plan: Plan,
    table: WindowTable,
    chunk_stream: Vec<usize>,
) -> CompiledPlan {
    let layout = match key.model {
        ExecModel::PipelinedBuffer | ExecModel::Auto => Layout::Ring,
        _ if key.whole => Layout::Whole,
        _ => Layout::Direct,
    };
    let recipes = if key.model == ExecModel::Naive {
        // One chunk has nothing to share or wait for: it copies each
        // input window (or whole array) in and each output one out.
        let runs = |keep: fn(MapDir) -> bool| {
            let maps = key.spec.maps.iter().enumerate();
            maps.filter(move |(_, m)| keep(m.dir))
                .map(|(i, m)| match layout {
                    Layout::Whole => (i, 0, m.split.extent()),
                    _ => {
                        let (a, b) = table.ranges[i][0];
                        (i, a, (b - a) as usize)
                    }
                })
        };
        let runs: Vec<SliceRun> = runs(MapDir::is_input)
            .chain(runs(MapDir::is_output))
            .collect();
        let n_in = key.spec.maps.iter().filter(|m| m.dir.is_input()).count();
        let step = ChunkStep {
            stream: 0,
            copy_waits: 0..0,
            copy_runs: 0..n_in,
            kernel_waits: 0..0,
            out_runs: n_in..runs.len(),
            mapped_slots: 0,
        };
        Recipes {
            steps: vec![step],
            runs,
            ..Recipes::default()
        }
    } else {
        // Copying every window in full is a ring ablation; full-size
        // arrays always copy each slice once.
        let track = layout != Layout::Ring || key.options.track_residency;
        classify_chunks(&key.spec, &plan, &table, &chunk_stream, track)
    };
    let (plan_label, poll) = match key.model {
        ExecModel::Naive => (None, SimTime::ZERO),
        ExecModel::Pipelined => (
            Some(Label::from(format!(
                "plan(chunk={}, streams={})",
                plan.chunk_size, plan.num_streams
            ))),
            poll_time(key.profile.api_overhead, plan.num_streams),
        ),
        _ => (
            Some(Label::from(format!(
                "plan(chunks={}, streams={}, slots={:?})",
                plan.chunks.len(),
                plan.num_streams,
                plan.ring_slots
            ))),
            SimTime::ZERO,
        ),
    };
    CompiledPlan {
        model: key.model,
        sync_each: key.model == ExecModel::Naive,
        plan,
        table,
        chunk_stream,
        steps: recipes.steps,
        waits: recipes.waits,
        runs: recipes.runs,
        dependents: recipes.dependents,
        layout,
        poll,
        plan_label,
        key,
    }
}

/// Compile a key with round-robin streams, from the device profile
/// alone — what the cost model compiles, and the default driver path.
pub(crate) fn compile_key(key: PlanKey) -> RtResult<CompiledPlan> {
    let plan = resolve_for(&key)?;
    let table = build_window_table(&key.spec, &plan.chunks, &[])?;
    let chunk_stream = round_robin(&plan);
    Ok(assemble(key, plan, table, chunk_stream))
}

/// Compile the run `key` describes of `region` on `gpu` (validation
/// already done by the caller).
pub(crate) fn compile(
    gpu: &mut Gpu,
    region: &Region,
    builder: &KernelBuilder<'_>,
    key: PlanKey,
) -> RtResult<CompiledPlan> {
    if key.options.assignment == StreamAssignment::RoundRobin {
        return compile_key(key);
    }
    let mut plan = resolve_for(&key)?;
    let table = build_window_table(&key.spec, &plan.chunks, &[])?;
    // Probe views over a placeholder allocation: builders may consult
    // views to compute costs, but probe kernels are never executed.
    let probe = gpu.alloc(1)?;
    let probe_views: Vec<ArrayView> = region
        .spec
        .maps
        .iter()
        .map(|m| match &m.split {
            SplitSpec::OneD { slice_elems, .. } => ArrayView::ring_1d(probe, *slice_elems, 1),
            SplitSpec::ColBlocks {
                rows, block_cols, ..
            } => ArrayView::ring_2d(probe, *block_cols, *block_cols, *rows, 1),
        })
        .collect();
    let chunk_stream = assign_streams(gpu, region, &plan, &table, &probe_views, builder);
    gpu.free(probe)?;
    // A non-round-robin assignment widens the set of simultaneously
    // in-flight chunks, and the rings must cover it or write-after-read
    // stalls serialize the pipeline.
    widen_rings_for_assignment(region, &mut plan, &table, &chunk_stream);
    Ok(assemble(key, plan, table, chunk_stream))
}

/// Compile a region into a reusable Pipelined-buffer [`CompiledPlan`]:
/// resolve the schedule (honouring `pipeline_mem_limit`), build the
/// window table, assign chunks to streams, and classify every
/// residency/hazard decision into per-chunk enqueue recipes.
///
/// The result can be executed any number of times via
/// [`RunOptions::with_compiled`](crate::RunOptions::with_compiled) —
/// replaying it issues only device commands, no planning. The driver
/// validates the plan against the region/device/options it is asked to
/// run and silently recompiles on mismatch, so a stale plan can cost
/// time but never correctness.
///
/// `gpu` is only mutated for the [`StreamAssignment::LeastLoaded`]
/// cost probe; with the default round-robin policy the device is
/// untouched.
pub fn compile_plan(
    gpu: &mut Gpu,
    region: &Region,
    builder: &KernelBuilder<'_>,
    opts: &BufferOptions,
) -> RtResult<CompiledPlan> {
    region.validate(gpu)?;
    let key = PlanKey::new(
        ExecModel::PipelinedBuffer,
        region.spec.clone(),
        region.lo,
        region.hi,
        gpu.profile().clone(),
        opts,
        false,
    );
    compile(gpu, region, builder, key)
}

/// Compile a region with **explicit dependency functions** — the paper's
/// §VII "function-based extension that allows the developer to pass in a
/// function pointer" for dependencies the affine clause syntax cannot
/// express. `windows[i]`, when present, overrides map `i`'s affine
/// window: given a chunk `[k0, k1)` it returns the slice range `[a, b)`
/// that must be resident. Ring capacities are derived from the actual
/// per-chunk table. The public entry point is
/// [`crate::run::run_window_fn`].
pub(crate) fn compile_window_fn(
    gpu: &Gpu,
    region: &Region,
    windows: &[Option<&WindowFn<'_>>],
) -> RtResult<CompiledPlan> {
    region.validate_binding(gpu)?;
    let (plan, table) = resolve_plan_fn(
        &region.spec,
        gpu.profile(),
        region.lo,
        region.hi,
        windows,
    )?;
    let mut key = PlanKey::new(
        ExecModel::PipelinedBuffer,
        region.spec.clone(),
        region.lo,
        region.hi,
        gpu.profile().clone(),
        &BufferOptions::default(),
        false,
    );
    key.custom_windows = true;
    let chunk_stream = round_robin(&plan);
    Ok(assemble(key, plan, table, chunk_stream))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_runs_split_at_wrap() {
        // Slices 3..9 in a 4-slot ring: slots 3 | 0 1 2 3 | 0.
        assert_eq!(slot_runs(3, 9, 4), vec![(3, 1), (4, 4), (8, 1)]);
        // Fully inside one revolution.
        assert_eq!(slot_runs(4, 7, 8), vec![(4, 3)]);
        // Empty range.
        assert!(slot_runs(5, 5, 4).is_empty());
        // Exact revolutions.
        assert_eq!(slot_runs(0, 8, 4), vec![(0, 4), (4, 4)]);
    }

    #[test]
    fn slice_slots_match_rem_euclid() {
        // Empty, reversed, starting negative, and crossing several wraps.
        let ranges = [(0, 0), (5, 5), (-3, -3), (4, 2), (-17, 3), (-1, 1), (0, 30), (6, 29)];
        for slots in 1..=7usize {
            for (lo, hi) in ranges {
                let got: Vec<(i64, usize)> = slice_slots(lo, hi, slots).collect();
                let want: Vec<(i64, usize)> = (lo..hi)
                    .map(|sl| (sl, sl.rem_euclid(slots as i64) as usize))
                    .collect();
                assert_eq!(got, want, "slices {lo}..{hi}, {slots} slots");
            }
        }
    }

    #[test]
    fn push_wait_dedupes_on_chunk_and_stage() {
        let (dep, reuse) = (WaitCause::Dependency, WaitCause::RingReuse);
        let mut v = vec![(3, EvKind::Kernel, reuse)];
        push_wait(&mut v, 0, 3, EvKind::Kernel, dep);
        push_wait(&mut v, 0, 3, EvKind::D2h, dep);
        // Only the list from `from` on counts.
        push_wait(&mut v, 2, 3, EvKind::Kernel, dep);
        assert_eq!(
            v,
            vec![
                (3, EvKind::Kernel, reuse),
                (3, EvKind::D2h, dep),
                (3, EvKind::Kernel, dep)
            ]
        );
    }
}
