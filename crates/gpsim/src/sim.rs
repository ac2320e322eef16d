//! The simulated GPU context: public driver-style API plus the
//! discrete-event engine that resolves stream/engine concurrency.
//!
//! # Model
//!
//! * The **host clock** advances by [`DeviceProfile::api_overhead`] on
//!   every driver call; asynchronous calls return immediately (after that
//!   overhead), synchronous calls additionally wait for device work.
//! * Each **stream** is a FIFO: a command may start only after its
//!   predecessor on the same stream completed, and never before its
//!   enqueue instant on the host clock.
//! * Three **engines**: the H2D and D2H copy engines execute one command
//!   at a time; the compute engine runs up to
//!   [`DeviceProfile::max_concurrent_kernels`] kernels concurrently
//!   (Hyper-Q slots). When an engine has a free slot, the ready command
//!   with the lowest global enqueue sequence number is dispatched — no
//!   false inter-stream dependencies.
//! * **Events** are zero-cost markers: `record` completes when all prior
//!   work on its stream completed; `wait` blocks its stream until the
//!   recorded instant.
//!
//! Because completion times are computed at dispatch, event propagation is
//! fully eager and the main loop only advances time to engine completions
//! or command ready instants.
//!
//! # Schedule vs. dynamic state
//!
//! The static schedule (FIFO order per stream, engine class per command)
//! is separated from the dynamic event state. Per-command dynamic state —
//! enqueue/start/end instants, owning stream, engine class, and the
//! payload — lives in a dense **SoA arena** indexed by sequence number
//! ([`CmdArena`]); stream queues and engine structures carry bare `seq`
//! values, so the drain loop walks flat arrays instead of chasing enum
//! payloads. The completion calendar exploits the engine model directly:
//! copy engines hold at most one in-flight command and the compute engine
//! at most `max_concurrent_kernels`, so each engine keeps a tiny
//! **in-flight list** sorted by `(end, seq)` descending. Retiring the
//! next completion is a 3-way compare of list tails — O(1) — and still
//! yields the deterministic global `(end, seq)` order. Dispatch uses a
//! **per-engine head index** (ordered by enqueue sequence) over the
//! streams whose head command needs that engine, and pseudo-command
//! resolution walks a worklist of streams whose head is an event
//! record/wait instead of rescanning every stream.

use std::cell::Cell;
use std::collections::VecDeque;

use crate::cmd::{CmdKind, Copy2D, EngineKind, EventId, KernelCtx, KernelLaunch, StreamId};
use crate::counters::{
    Counters, HostSpan, HostSpanKind, TimelineEntry, TimelineKind, WaitCause, WaitRecord,
};
use crate::error::{SimError, SimResult};
use crate::fault::{FailureRecord, FaultPlan, FaultStage, FaultState};
use crate::label::{Label, LabelKey};
use crate::mem::{DevAllocId, DevPtr, ExecMode, HostBufId, HostPool, MemPool, ELEM_BYTES};
use crate::profile::DeviceProfile;
use crate::race::{AccessRange, ConflictKind, RaceLog};
use crate::time::SimTime;

struct StreamState {
    /// FIFO of enqueued commands, by sequence number. Dynamic state and
    /// payloads live in the context's [`CmdArena`].
    queue: VecDeque<u64>,
    /// Earliest instant the current head may start (completion of the
    /// previous command on this stream, adjusted by resolved event waits).
    ready_at: SimTime,
    /// Completion instant of the last finished command.
    last_done: SimTime,
    /// Number of commands currently running on engines.
    running: usize,
    /// An injected hang wedged this stream: its in-flight command never
    /// completes, so the FIFO may not dispatch successors. Cleared only
    /// when the context is declared lost.
    hung: bool,
    /// Mirror of this stream's entry in the per-engine head index:
    /// `(engine index, head seq)` while the queue head is an engine
    /// command, `None` otherwise.
    indexed_head: Option<(usize, u64)>,
    /// True while this stream has an entry in the pseudo-head worklist
    /// (the queue head is — or recently was — an event record/wait).
    pseudo_listed: bool,
}

impl StreamState {
    fn new() -> Self {
        StreamState {
            queue: VecDeque::new(),
            ready_at: SimTime::ZERO,
            last_done: SimTime::ZERO,
            running: 0,
            hung: false,
            indexed_head: None,
            pseudo_listed: false,
        }
    }

    fn drained(&self) -> bool {
        self.queue.is_empty() && self.running == 0
    }
}

struct EventState {
    /// An `EventRecord` referencing this event has been enqueued.
    enqueued: bool,
    /// Completion instant, once the record has been resolved.
    complete_at: Option<SimTime>,
}

/// Engine slot of a pseudo command (event record/wait) in
/// [`CmdArena::engine`].
const ENGINE_PSEUDO: u8 = u8::MAX;

/// Dense per-command dynamic state, indexed by `seq - base` — the
/// structure-of-arrays side of the schedule/state split. Enqueue appends
/// one slot per command; completion takes the payload but keeps the slot
/// so sequence numbers stay directly addressable. When the device fully
/// drains, the arena resets its base and reuses the buffers, so steady-
/// state pipelines run allocation-free.
#[derive(Default)]
struct CmdArena {
    /// Sequence number of slot 0.
    base: u64,
    /// Host-clock enqueue instant (a command never starts earlier).
    enq: Vec<SimTime>,
    /// Dispatch instant; `SimTime::ZERO` until dispatched.
    start: Vec<SimTime>,
    /// Completion instant; `SimTime::ZERO` until dispatched.
    end: Vec<SimTime>,
    /// Owning stream index.
    stream: Vec<u32>,
    /// Engine index ([`EngineKind::index`]), or [`ENGINE_PSEUDO`].
    engine: Vec<u8>,
    /// Command payload; present from enqueue until retirement.
    payload: Vec<Option<CmdKind>>,
}

impl CmdArena {
    #[inline]
    fn idx(&self, seq: u64) -> usize {
        debug_assert!(seq >= self.base, "seq below arena base");
        (seq - self.base) as usize
    }

    fn push(&mut self, seq: u64, enq: SimTime, stream: u32, kind: CmdKind) {
        debug_assert_eq!(seq, self.base + self.enq.len() as u64, "non-contiguous seq");
        self.enq.push(enq);
        self.start.push(SimTime::ZERO);
        self.end.push(SimTime::ZERO);
        self.stream.push(stream);
        self.engine
            .push(kind.engine().map_or(ENGINE_PSEUDO, |e| e.index() as u8));
        self.payload.push(Some(kind));
    }

    /// Drop all slots and rebase at `next_seq`, keeping capacity. Only
    /// valid while no queue, engine, or hang list references a slot.
    fn reset(&mut self, next_seq: u64) {
        self.base = next_seq;
        self.enq.clear();
        self.start.clear();
        self.end.clear();
        self.stream.clear();
        self.engine.clear();
        self.payload.clear();
    }
}

/// Per-command buffers a dropped context parks for the next context
/// created on its thread (see "Buffer reuse" on [`Gpu`]). Every buffer is
/// empty and the arena is based at 0: only capacity crosses.
#[derive(Default)]
struct Spare {
    arena: CmdArena,
    events: Vec<EventState>,
    timeline: Vec<TimelineEntry>,
    host_spans: Vec<HostSpan>,
    wait_records: Vec<WaitRecord>,
}

thread_local! {
    static SPARE: Cell<Option<Spare>> = const { Cell::new(None) };
}

impl Spare {
    /// The thread's parked buffers, or fresh empty ones.
    fn take() -> Spare {
        SPARE
            .try_with(Cell::take)
            .ok()
            .flatten()
            .unwrap_or_default()
    }

    /// Clear `gpu`'s buffers and park them in the thread's slot, replacing
    /// whatever it held. During thread teardown the buffers are just freed.
    fn park(gpu: &mut Gpu) {
        let mut spare = Spare {
            arena: std::mem::take(&mut gpu.arena),
            events: std::mem::take(&mut gpu.events),
            timeline: std::mem::take(&mut gpu.timeline),
            host_spans: std::mem::take(&mut gpu.host_spans),
            wait_records: std::mem::take(&mut gpu.wait_records),
        };
        spare.arena.reset(0);
        spare.events.clear();
        spare.timeline.clear();
        spare.host_spans.clear();
        spare.wait_records.clear();
        let _ = SPARE.try_with(|slot| slot.set(Some(spare)));
    }
}

/// Why a context was declared lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossCause {
    /// The installed plan's [`device_lost_after`](crate::FaultPlan::device_lost_after)
    /// trigger fired.
    Injected,
    /// A hang starved all progress and the watchdog grace expired — the
    /// simulated analogue of a driver timeout reset.
    HangEscalated,
    /// An upper layer gave up on the context via
    /// [`Gpu::declare_device_lost`].
    Declared,
}

/// Cheap health/progress probe of a context ([`Gpu::health`]): enough
/// for a supervisor to notice a stalled watermark without touching the
/// simulation state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthProbe {
    /// Engine commands retired over the context's lifetime (survives
    /// [`Gpu::reset_counters`]).
    pub retired: u64,
    /// Sequence number of the last retired engine command.
    pub last_retired_seq: Option<u64>,
    /// Sim-time watermark: completion instant of the latest retired
    /// work across all streams.
    pub watermark: SimTime,
    /// Commands currently occupying engine slots (hung ones included).
    pub in_flight: usize,
    /// Commands still queued on streams.
    pub queued: usize,
    /// Loss instant and cause, once the context has been lost.
    pub lost: Option<(SimTime, LossCause)>,
}

/// A simulated GPU device context.
///
/// See the [crate-level documentation](crate) for an overview; the
/// scheduling model is described in this module's source-level docs.
///
/// # Stream lifetime
///
/// A destroyed stream keeps its [`StreamId`]: ids are never reused, so
/// enqueueing on a destroyed id keeps failing with the destroyed-stream
/// error. Destroyed streams cost nothing per DES step — the context
/// keeps an index of the alive streams, and [`Gpu::stream_count`], the
/// drain predicates and the dispatch overhead look only at that index —
/// so a long-lived context that creates and destroys streams per job
/// simulates each step as fast as a fresh one.
///
/// # Buffer reuse
///
/// Dropping a context clears its per-command buffers (the command arena,
/// the event table, the timeline, the host spans and the wait records)
/// and parks them in one spare slot per thread; the next context created
/// on that thread starts from them instead of from empty buffers. Only
/// capacity crosses, never an entry, so a context built after another
/// was dropped simulates, records and fails exactly like one built on a
/// fresh thread. The slot holds one context's buffers at a time (a later
/// drop replaces them) and is freed with its thread. A harness that
/// builds one context per cell thus stops first-touching fresh memory
/// for every cell.
pub struct Gpu {
    profile: DeviceProfile,
    pool: MemPool,
    /// Every stream the context ever created, indexed by id. Destroyed
    /// streams keep their slot so ids are never reused and a
    /// use-after-destroy is reported as such.
    streams: Vec<StreamState>,
    /// Ids of the alive streams, ascending — the only streams per-step
    /// bookkeeping visits. Destroyed streams reject new work and stop
    /// contributing to scheduling overhead and memory.
    live: Vec<u32>,
    events: Vec<EventState>,
    /// Dynamic state of every live command, indexed by sequence number.
    arena: CmdArena,
    /// Per-engine in-flight lists sorted by `(end, seq)` *descending*:
    /// the earliest completion sits at the tail, so retire-next is a
    /// 3-way tail compare and a pop. Copy engines hold at most one
    /// entry; compute at most `max_concurrent_kernels`.
    inflight: [Vec<(SimTime, u64)>; 3],
    /// Occupied slots per engine (indexed by [`EngineKind::index`]);
    /// counts hung commands, which never appear in `inflight`.
    engine_load: [usize; 3],
    /// Per-engine dispatch index: `(head seq, stream)` for every stream
    /// whose queue head is a command of that engine, sorted ascending.
    heads: [Vec<(u64, u32)>; 3],
    /// Worklist of streams whose queue head is (or recently was) a
    /// pseudo command; stale entries are compacted by `resolve_pseudo`.
    pseudo_heads: Vec<u32>,
    /// Device-timeline clock (monotone; advanced during synchronization).
    now: SimTime,
    /// Host clock (advanced by API overhead and blocking waits).
    now_host: SimTime,
    seq: u64,
    counters: Counters,
    timeline: Vec<TimelineEntry>,
    timeline_enabled: bool,
    /// Host-side runtime spans (enqueue calls, syncs, runtime phases),
    /// recorded when the timeline is enabled.
    host_spans: Vec<HostSpan>,
    /// Event waits that actually delayed a stream, with their cause.
    wait_records: Vec<WaitRecord>,
    /// `(host-clock ns, device bytes)` samples taken whenever the device
    /// footprint changes — the memory counter track of the trace export.
    mem_samples: Vec<(u64, u64)>,
    race_check: bool,
    access_log: RaceLog,
    /// Installed fault-injection plan plus its occurrence counters
    /// (`None` — the default — costs one branch per hook).
    fault: Option<FaultState>,
    /// Failed commands retired so far (injected or genuine), so recovery
    /// layers can map a failure back to the work that produced it.
    failures: Vec<FailureRecord>,
    /// Terminal loss state: the instant and cause, once declared.
    lost: Option<(SimTime, LossCause)>,
    /// Commands wedged by an injected hang: they hold their stream and
    /// engine slot but never complete. `(stream index, seq)`; the
    /// payload stays in the arena until the context is declared lost.
    hung: Vec<(u32, u64)>,
    /// Grace a wedged pipeline is granted before a hang escalates to
    /// device loss (`None` = escalate immediately on starvation).
    watchdog: Option<SimTime>,
    /// Engine commands retired over the context's lifetime (never
    /// reset — drives the health probe).
    retired: u64,
    /// Seq of the last retired engine command.
    last_retired_seq: Option<u64>,
}

impl Drop for Gpu {
    fn drop(&mut self) {
        Spare::park(self);
    }
}

impl Gpu {
    /// Create a device context with the given performance profile and
    /// execution mode, with a private host pool. Charges the profile's
    /// base runtime memory.
    pub fn new(profile: DeviceProfile, mode: ExecMode) -> SimResult<Gpu> {
        let hosts = HostPool::new(mode);
        Gpu::with_host_pool(profile, hosts)
    }

    /// Create a device context over a shared [`HostPool`], so that host
    /// buffers are visible to several simulated devices (multi-GPU
    /// co-scheduling). The context inherits the pool's execution mode.
    pub fn with_host_pool(profile: DeviceProfile, hosts: HostPool) -> SimResult<Gpu> {
        let mode = hosts.mode();
        let mut pool = MemPool::new(mode, profile.mem_capacity, hosts);
        pool.reserve_overhead(profile.base_runtime_mem)?;
        let Spare {
            arena,
            events,
            timeline,
            host_spans,
            wait_records,
        } = Spare::take();
        let mut gpu = Gpu {
            profile,
            pool,
            streams: Vec::new(),
            live: Vec::new(),
            events,
            arena,
            inflight: [Vec::new(), Vec::new(), Vec::new()],
            engine_load: [0; 3],
            heads: [Vec::new(), Vec::new(), Vec::new()],
            pseudo_heads: Vec::new(),
            now: SimTime::ZERO,
            now_host: SimTime::ZERO,
            seq: 0,
            counters: Counters::default(),
            timeline,
            timeline_enabled: true,
            host_spans,
            wait_records,
            mem_samples: Vec::new(),
            race_check: false,
            access_log: RaceLog::new(),
            fault: None,
            failures: Vec::new(),
            lost: None,
            hung: Vec::new(),
            watchdog: None,
            retired: 0,
            last_retired_seq: None,
        };
        // Stream 0: the default stream, free of the per-stream memory tax
        // (it is part of the base runtime footprint).
        gpu.streams.push(StreamState::new());
        gpu.live.push(0);
        gpu.sample_mem();
        Ok(gpu)
    }

    /// The device performance profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Functional or timing-only execution.
    pub fn mode(&self) -> ExecMode {
        self.pool.mode
    }

    /// A handle to the (possibly shared) host memory pool.
    pub fn host_pool(&self) -> HostPool {
        self.pool.hosts.clone()
    }

    /// Current host-clock time (the caller-visible clock; the internal
    /// `now` field is the device-timeline cursor).
    #[allow(clippy::misnamed_getters)]
    pub fn now(&self) -> SimTime {
        self.now_host
    }

    /// Aggregated activity counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Reset counters, the timeline, and the observability records
    /// (memory accounting is unaffected).
    pub fn reset_counters(&mut self) {
        self.counters = Counters::default();
        self.timeline.clear();
        self.host_spans.clear();
        self.wait_records.clear();
        self.mem_samples.clear();
        self.failures.clear();
        self.sample_mem();
    }

    /// Completed engine commands, in completion order.
    pub fn timeline(&self) -> &[TimelineEntry] {
        &self.timeline
    }

    /// Host-side runtime spans recorded so far (enqueue calls, syncs,
    /// and spans pushed by runtime layers via [`Gpu::push_host_span`]).
    pub fn host_spans(&self) -> &[HostSpan] {
        &self.host_spans
    }

    /// Event waits that actually delayed a stream.
    pub fn wait_records(&self) -> &[WaitRecord] {
        &self.wait_records
    }

    /// `(host-clock ns, device bytes)` samples of the device-memory
    /// footprint, one per change.
    pub fn mem_samples(&self) -> &[(u64, u64)] {
        &self.mem_samples
    }

    /// Whether timeline/span recording is currently on.
    pub fn timeline_enabled(&self) -> bool {
        self.timeline_enabled
    }

    /// Record a host-side runtime span from an upper layer (e.g. chunk
    /// planning in the pipelined executors). Purely observational: it
    /// does not advance the host clock or charge any counter.
    pub fn push_host_span(
        &mut self,
        label: impl Into<Label>,
        kind: HostSpanKind,
        start: SimTime,
        end: SimTime,
    ) {
        if self.timeline_enabled {
            self.host_spans.push(HostSpan {
                label: label.into(),
                kind,
                start_ns: start.as_ns(),
                end_ns: end.as_ns(),
                flow: None,
            });
        }
    }

    fn sample_mem(&mut self) {
        if self.timeline_enabled {
            let t = self.now_host.as_ns();
            let bytes = self.pool.current_bytes();
            if let Some(last) = self.mem_samples.last_mut() {
                if last.0 == t {
                    last.1 = bytes;
                    return;
                }
            }
            self.mem_samples.push((t, bytes));
        }
    }

    /// Enable/disable timeline recording (on by default).
    pub fn set_timeline_enabled(&mut self, enabled: bool) {
        self.timeline_enabled = enabled;
    }

    /// Enable the concurrent-access race checker (off by default). The
    /// detector indexes declared ranges per allocation and retires
    /// records that can no longer overlap in-flight work, so it stays
    /// near-linear in command count (see [`crate::race`]).
    pub fn set_race_check(&mut self, enabled: bool) {
        self.race_check = enabled;
        if !enabled {
            self.access_log.clear();
        }
    }

    /// Whether the race checker is currently enabled.
    pub fn race_check_enabled(&self) -> bool {
        self.race_check
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Install a [`FaultPlan`] (replacing any previous one and resetting
    /// its occurrence counters), or remove it with `None`. A no-op plan
    /// (see [`FaultPlan::is_noop`]) is dropped outright so the happy
    /// path stays branch-free beyond the `Option` check.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan
            .filter(|p| !p.is_noop())
            .map(FaultState::new);
    }

    /// The currently installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref().map(|f| &f.plan)
    }

    /// Number of failures injected so far by the installed plan.
    pub fn faults_injected(&self) -> u64 {
        self.fault.as_ref().map_or(0, |f| f.injected)
    }

    /// Drain the failure records retired since the last call (or since
    /// context creation). Recovery layers call this after a failed
    /// synchronize to map failing sequence numbers back to chunks.
    pub fn take_failures(&mut self) -> Vec<FailureRecord> {
        std::mem::take(&mut self.failures)
    }

    /// The sequence number the *next* enqueued command will get. Runtime
    /// layers snapshot this around a chunk's enqueues to learn which seq
    /// range belongs to which chunk.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Record a retry-backoff stall on `stream`: the stream was
    /// deliberately held from `from` to `until` by a recovery layer
    /// before re-enqueueing failed work. Purely observational — feeds
    /// the `wait-retry` stall bucket.
    pub fn record_retry_wait(&mut self, stream: usize, from: SimTime, until: SimTime) {
        if self.timeline_enabled && until > from {
            self.wait_records.push(WaitRecord {
                stream,
                cause: WaitCause::Retry,
                from_ns: from.as_ns(),
                until_ns: until.as_ns(),
            });
        }
    }

    /// Roll the installed plan for one occurrence of `stage`.
    fn roll_fault(&mut self, stage: FaultStage) -> Option<SimError> {
        self.fault.as_mut().and_then(|f| f.roll(stage))
    }

    /// Number of commands whose duration was stretched by an injected
    /// latency spike since the last [`Gpu::reset_counters`].
    pub fn spikes_injected(&self) -> u64 {
        self.counters.spikes
    }

    /// Loss instant and cause, once the context has been declared lost.
    pub fn device_lost(&self) -> Option<(SimTime, LossCause)> {
        self.lost
    }

    /// Grace a wedged pipeline is granted before a hang escalates to
    /// [`SimError::DeviceLost`]; `None` escalates as soon as starvation
    /// is detected.
    pub fn set_hang_watchdog(&mut self, grace: Option<SimTime>) {
        self.watchdog = grace;
    }

    /// Commands currently wedged by an injected hang.
    pub fn hung_commands(&self) -> usize {
        self.hung.len()
    }

    /// Declare the context lost right now — the supervisor-side
    /// escalation for a device whose progress watermark stalled. A no-op
    /// if the context is already lost.
    pub fn declare_device_lost(&mut self) {
        if self.lost.is_none() {
            let at = self.now.max(self.now_host);
            self.declare_lost(at, LossCause::Declared);
        }
    }

    /// Cheap health/progress probe: retired-command watermark, in-flight
    /// and queued work, and the loss state.
    pub fn health(&self) -> HealthProbe {
        let watermark = self
            .streams
            .iter()
            .map(|s| s.last_done)
            .fold(SimTime::ZERO, SimTime::max);
        HealthProbe {
            retired: self.retired,
            last_retired_seq: self.last_retired_seq,
            watermark,
            in_flight: self.inflight.iter().map(Vec::len).sum::<usize>() + self.hung.len(),
            queued: self
                .live
                .iter()
                .map(|&si| self.streams[si as usize].queue.len())
                .sum(),
            lost: self.lost,
        }
    }

    /// Kill the context at `at`: every in-flight, hung, and queued engine
    /// command fails with [`SimError::DeviceLost`] (pseudo commands are
    /// dropped), engines are vacated, and the terminal state is set.
    /// Afterwards the context *is drained* — `synchronize` succeeds
    /// trivially, so error-path quiescing terminates — but every later
    /// enqueue or allocation fails.
    fn declare_lost(&mut self, at: SimTime, cause: LossCause) {
        if self.lost.is_some() {
            return;
        }
        self.lost = Some((at, cause));
        self.now = self.now.max(at);
        self.now_host = self.now_host.max(at);
        let mut killed: Vec<u64> = self
            .inflight
            .iter()
            .flat_map(|v| v.iter().map(|&(_, seq)| seq))
            .collect();
        killed.sort_unstable();
        for v in &mut self.inflight {
            v.clear();
        }
        for seq in killed {
            let idx = self.arena.idx(seq);
            let kind = self.arena.payload[idx]
                .take()
                .expect("in-flight command has a payload");
            let engine = kind.engine().expect("running command has an engine");
            self.failures.push(FailureRecord {
                seq,
                stream: self.arena.stream[idx] as usize,
                engine,
                label: kind.label(),
                end: at,
                error: SimError::DeviceLost,
            });
        }
        for (si, seq) in std::mem::take(&mut self.hung) {
            let idx = self.arena.idx(seq);
            let kind = self.arena.payload[idx]
                .take()
                .expect("hung command has a payload");
            let engine = kind.engine().expect("hung command has an engine");
            self.failures.push(FailureRecord {
                seq,
                stream: si as usize,
                engine,
                label: kind.label(),
                end: at,
                error: SimError::DeviceLost,
            });
        }
        self.engine_load = [0; 3];
        for si in 0..self.streams.len() {
            let dropped: Vec<u64> = self.streams[si].queue.drain(..).collect();
            for seq in dropped {
                let idx = self.arena.idx(seq);
                let kind = self.arena.payload[idx]
                    .take()
                    .expect("queued command has a payload");
                if let Some(engine) = kind.engine() {
                    self.failures.push(FailureRecord {
                        seq,
                        stream: si,
                        engine,
                        label: kind.label(),
                        end: at,
                        error: SimError::DeviceLost,
                    });
                }
            }
            let st = &mut self.streams[si];
            st.running = 0;
            st.hung = false;
            st.ready_at = st.ready_at.max(at);
            st.last_done = st.last_done.max(at);
            self.refresh_head(si);
        }
        // Everything referencing the arena is drained: rebase it so the
        // buffers are reused instead of growing for the context lifetime.
        self.arena.reset(self.seq);
    }

    /// Fire the plan's whole-context loss trigger if it is due. Returns
    /// `Err(DeviceLost)` exactly once, at the moment of the loss.
    fn poll_loss(&mut self) -> SimResult<()> {
        if self.lost.is_some() {
            return Ok(());
        }
        let t_cur = self.now.max(self.now_host);
        let (due, loss_at) = match self.fault.as_ref() {
            Some(f) => (f.loss_due(t_cur), f.loss_at()),
            None => return Ok(()),
        };
        if !due {
            return Ok(());
        }
        let at = loss_at.unwrap_or(t_cur).max(self.now);
        self.declare_lost(at, LossCause::Injected);
        Err(SimError::DeviceLost)
    }

    // ------------------------------------------------------------------
    // Memory API
    // ------------------------------------------------------------------

    fn api_call(&mut self) {
        self.now_host += self.profile.api_overhead;
        self.counters.host_api_time += self.profile.api_overhead;
        self.counters.api_calls += 1;
    }

    /// Allocate `elems` device elements (like `cudaMalloc`).
    pub fn alloc(&mut self, elems: usize) -> SimResult<DevPtr> {
        self.api_call();
        if self.lost.is_some() {
            return Err(SimError::DeviceLost);
        }
        if let Some(e) = self.roll_fault(FaultStage::Alloc) {
            return Err(e);
        }
        let r = self.pool.alloc(elems);
        self.sample_mem();
        r
    }

    /// Pitched 2-D device allocation (like `cudaMallocPitch`); returns the
    /// base pointer and pitch in elements.
    pub fn alloc_pitched(&mut self, rows: usize, row_elems: usize) -> SimResult<(DevPtr, usize)> {
        self.api_call();
        if self.lost.is_some() {
            return Err(SimError::DeviceLost);
        }
        if let Some(e) = self.roll_fault(FaultStage::Alloc) {
            return Err(e);
        }
        let r = self.pool.alloc_pitched(rows, row_elems);
        self.sample_mem();
        r
    }

    /// Free a device allocation.
    pub fn free(&mut self, ptr: DevPtr) -> SimResult<()> {
        self.api_call();
        let r = self.pool.free(ptr);
        self.sample_mem();
        r
    }

    /// Allocate a simulator-owned host buffer. `pinned` buffers transfer at
    /// full bandwidth (like `cudaHostAlloc` memory); pageable buffers pay
    /// [`DeviceProfile::pageable_bw_factor`].
    pub fn alloc_host(&mut self, elems: usize, pinned: bool) -> SimResult<HostBufId> {
        self.api_call();
        self.pool.alloc_host(elems, pinned)
    }

    /// Free a host buffer.
    pub fn free_host(&mut self, id: HostBufId) -> SimResult<()> {
        self.api_call();
        self.pool.free_host(id)
    }

    /// Host-side write into a host buffer (data initialization; free on
    /// the simulated clock).
    pub fn host_write(&self, id: HostBufId, off: usize, src: &[f32]) -> SimResult<()> {
        self.pool
            .with_host_mut(id, off, src.len(), |dst| dst.copy_from_slice(src))
    }

    /// Host-side read from a host buffer.
    pub fn host_read(&self, id: HostBufId, off: usize, dst: &mut [f32]) -> SimResult<()> {
        self.pool
            .with_host(id, off, dst.len(), |src| dst.copy_from_slice(src))
    }

    /// Fill a host buffer by index (initialization convenience).
    pub fn host_fill(&self, id: HostBufId, mut f: impl FnMut(usize) -> f32) -> SimResult<()> {
        let len = self.pool.host_len(id)?;
        self.pool.with_host_mut(id, 0, len, |dst| {
            for (i, v) in dst.iter_mut().enumerate() {
                *v = f(i);
            }
        })
    }

    /// Length in elements of a host buffer.
    pub fn host_len(&self, id: HostBufId) -> SimResult<usize> {
        self.pool.host_len(id)
    }

    /// Whether a host buffer is pinned.
    pub fn host_pinned(&self, id: HostBufId) -> SimResult<bool> {
        self.pool.host_pinned(id)
    }

    /// Device memory currently allocated, in bytes (including runtime
    /// overhead and stream state).
    pub fn current_mem(&self) -> u64 {
        self.pool.current_bytes()
    }

    /// Peak device memory, in bytes.
    pub fn peak_mem(&self) -> u64 {
        self.pool.peak_bytes()
    }

    /// Usable device memory capacity, in bytes.
    pub fn mem_capacity(&self) -> u64 {
        self.pool.capacity()
    }

    /// Bytes of [`Gpu::current_mem`] attributable to runtime and stream
    /// overhead rather than user allocations.
    pub fn overhead_mem(&self) -> u64 {
        self.pool.overhead_bytes()
    }

    /// Row pitch (in elements) of a pitched allocation; `None` for 1-D
    /// allocations.
    pub fn pitch_of(&self, id: DevAllocId) -> SimResult<Option<usize>> {
        self.pool.alloc_pitch(id)
    }

    // ------------------------------------------------------------------
    // Streams & events
    // ------------------------------------------------------------------

    /// The default stream (exists from context creation).
    pub fn default_stream(&self) -> StreamId {
        StreamId(0)
    }

    /// Create a new stream (charges the profile's per-stream memory).
    pub fn create_stream(&mut self) -> SimResult<StreamId> {
        self.api_call();
        if self.lost.is_some() {
            return Err(SimError::DeviceLost);
        }
        self.pool.reserve_overhead(self.profile.mem_per_stream)?;
        self.sample_mem();
        let id = StreamId(self.streams.len() as u32);
        self.streams.push(StreamState::new());
        // Ids grow monotonically, so appending keeps `live` ascending.
        self.live.push(id.0);
        Ok(id)
    }

    /// Number of live streams (including the default stream).
    pub fn stream_count(&self) -> usize {
        self.live.len()
    }

    /// Destroy a stream: waits for its pending work (CUDA semantics), then
    /// releases its scheduler memory. The default stream cannot be
    /// destroyed.
    pub fn destroy_stream(&mut self, stream: StreamId) -> SimResult<()> {
        self.check_stream(stream)?;
        if stream.0 == 0 {
            return Err(SimError::InvalidArgument(
                "the default stream cannot be destroyed".into(),
            ));
        }
        self.stream_synchronize(stream)?;
        self.api_call();
        let pos = self
            .live
            .binary_search(&stream.0)
            .expect("check_stream admitted an alive stream");
        self.live.remove(pos);
        self.pool.release_overhead(self.profile.mem_per_stream);
        self.sample_mem();
        Ok(())
    }

    /// Charge host-side busy time outside driver API calls (runtime
    /// bookkeeping such as per-queue polling in directive runtimes).
    pub fn host_busy(&mut self, t: SimTime) {
        self.now_host += t;
        self.counters.host_api_time += t;
    }

    /// Create an event.
    pub fn create_event(&mut self) -> EventId {
        self.api_call();
        let id = EventId(self.events.len() as u32);
        self.events.push(EventState {
            enqueued: false,
            complete_at: None,
        });
        id
    }

    fn check_stream(&self, s: StreamId) -> SimResult<()> {
        if self.live.binary_search(&s.0).is_ok() {
            Ok(())
        } else if (s.0 as usize) < self.streams.len() {
            Err(err_stream_destroyed(s))
        } else {
            Err(err_bad_stream(s))
        }
    }

    fn check_event(&self, e: EventId) -> SimResult<()> {
        if (e.0 as usize) < self.events.len() {
            Ok(())
        } else {
            Err(err_bad_event(e))
        }
    }

    /// Record `event` on `stream` (like `cudaEventRecord`).
    pub fn record_event(&mut self, stream: StreamId, event: EventId) -> SimResult<()> {
        self.check_stream(stream)?;
        self.check_event(event)?;
        self.events[event.0 as usize].enqueued = true;
        self.enqueue(stream, CmdKind::EventRecord(event))
    }

    /// Make `stream` wait for `event` (like `cudaStreamWaitEvent`). The
    /// wait is attributed to an ordinary cross-stream dependency; use
    /// [`Gpu::wait_event_with_cause`] when the wait guards ring-slot reuse.
    pub fn wait_event(&mut self, stream: StreamId, event: EventId) -> SimResult<()> {
        self.wait_event_with_cause(stream, event, WaitCause::Dependency)
    }

    /// [`Gpu::wait_event`] with an explicit stall-attribution cause.
    pub fn wait_event_with_cause(
        &mut self,
        stream: StreamId,
        event: EventId,
        cause: WaitCause,
    ) -> SimResult<()> {
        self.check_stream(stream)?;
        self.check_event(event)?;
        self.enqueue(stream, CmdKind::EventWait(event, cause))
    }

    // ------------------------------------------------------------------
    // Copies
    // ------------------------------------------------------------------

    fn validate_1d(
        &self,
        host: HostBufId,
        host_off: usize,
        dev: DevPtr,
        elems: usize,
    ) -> SimResult<()> {
        if elems == 0 {
            return Err(err_zero_copy());
        }
        let hlen = self.pool.host_len(host)?;
        if host_off + elems > hlen {
            return Err(err_copy_host_oob(host, host_off + elems, hlen));
        }
        let dlen = self.pool.alloc_len(dev.alloc_id())?;
        if dev.offset + elems > dlen {
            return Err(err_copy_dev_oob(dev.alloc_id(), dev.offset + elems, dlen));
        }
        Ok(())
    }

    fn validate_2d(&self, c: &Copy2D) -> SimResult<()> {
        if c.rows == 0 || c.row_elems == 0 {
            return Err(err_zero_copy_2d());
        }
        if c.host_stride < c.row_elems || c.dev_stride < c.row_elems {
            return Err(err_copy_stride_2d(c.row_elems, c.host_stride, c.dev_stride));
        }
        let hlen = self.pool.host_len(c.host)?;
        let host_end = c.host_off + (c.rows - 1) * c.host_stride + c.row_elems;
        if host_end > hlen {
            return Err(err_copy_host_oob_2d(c.host, host_end, hlen));
        }
        let dlen = self.pool.alloc_len(c.dev.alloc_id())?;
        let dev_end = c.dev.offset + (c.rows - 1) * c.dev_stride + c.row_elems;
        if dev_end > dlen {
            return Err(err_copy_dev_oob_2d(c.dev.alloc_id(), dev_end, dlen));
        }
        Ok(())
    }

    /// Asynchronous host→device copy (like `cudaMemcpyAsync`).
    pub fn memcpy_h2d_async(
        &mut self,
        stream: StreamId,
        host: HostBufId,
        host_off: usize,
        dst: DevPtr,
        elems: usize,
    ) -> SimResult<()> {
        self.check_stream(stream)?;
        self.validate_1d(host, host_off, dst, elems)?;
        self.enqueue(
            stream,
            CmdKind::H2D {
                host,
                host_off,
                dst,
                elems,
            },
        )
    }

    /// Asynchronous device→host copy.
    pub fn memcpy_d2h_async(
        &mut self,
        stream: StreamId,
        src: DevPtr,
        elems: usize,
        host: HostBufId,
        host_off: usize,
    ) -> SimResult<()> {
        self.check_stream(stream)?;
        self.validate_1d(host, host_off, src, elems)?;
        self.enqueue(
            stream,
            CmdKind::D2H {
                src,
                elems,
                host,
                host_off,
            },
        )
    }

    /// Asynchronous strided host→device copy (like `cudaMemcpy2DAsync`).
    pub fn memcpy2d_h2d_async(&mut self, stream: StreamId, copy: Copy2D) -> SimResult<()> {
        self.check_stream(stream)?;
        self.validate_2d(&copy)?;
        self.enqueue(stream, CmdKind::H2D2D(copy))
    }

    /// Asynchronous strided device→host copy.
    pub fn memcpy2d_d2h_async(&mut self, stream: StreamId, copy: Copy2D) -> SimResult<()> {
        self.check_stream(stream)?;
        self.validate_2d(&copy)?;
        self.enqueue(stream, CmdKind::D2H2D(copy))
    }

    /// Synchronous host→device copy: enqueue on the default stream and
    /// block until done (the naive offload model's transfer).
    pub fn memcpy_h2d(
        &mut self,
        host: HostBufId,
        host_off: usize,
        dst: DevPtr,
        elems: usize,
    ) -> SimResult<()> {
        self.memcpy_h2d_async(self.default_stream(), host, host_off, dst, elems)?;
        self.stream_synchronize(self.default_stream())
    }

    /// Synchronous device→host copy via the default stream.
    pub fn memcpy_d2h(
        &mut self,
        src: DevPtr,
        elems: usize,
        host: HostBufId,
        host_off: usize,
    ) -> SimResult<()> {
        self.memcpy_d2h_async(self.default_stream(), src, elems, host, host_off)?;
        self.stream_synchronize(self.default_stream())
    }

    // ------------------------------------------------------------------
    // Kernels
    // ------------------------------------------------------------------

    /// Launch a kernel on `stream`.
    pub fn launch(&mut self, stream: StreamId, kernel: KernelLaunch) -> SimResult<()> {
        self.check_stream(stream)?;
        if self.pool.mode == ExecMode::Functional && kernel.body.is_none() {
            return Err(err_no_body(kernel.name));
        }
        self.enqueue(stream, CmdKind::Kernel(kernel))
    }

    /// Asynchronously fill `elems` device elements at `dst` with `value`
    /// (like `cudaMemsetAsync`, but with an f32 pattern). Runs on the
    /// compute engine's memory system.
    pub fn memset_async(
        &mut self,
        stream: StreamId,
        dst: DevPtr,
        elems: usize,
        value: f32,
    ) -> SimResult<()> {
        self.check_stream(stream)?;
        if elems == 0 {
            return Err(err_zero_memset());
        }
        let len = self.pool.alloc_len(dst.alloc_id())?;
        if dst.offset + elems > len {
            return Err(err_memset_oob(dst, dst.offset + elems, len));
        }
        self.enqueue(stream, CmdKind::Memset { dst, elems, value })
    }

    /// Asynchronous device-to-device copy. Source and destination may be
    /// different allocations or non-overlapping ranges of the same one.
    pub fn memcpy_d2d_async(
        &mut self,
        stream: StreamId,
        src: DevPtr,
        dst: DevPtr,
        elems: usize,
    ) -> SimResult<()> {
        self.check_stream(stream)?;
        if elems == 0 {
            return Err(err_zero_d2d());
        }
        for (what, p) in [("source", src), ("destination", dst)] {
            let len = self.pool.alloc_len(p.alloc_id())?;
            if p.offset + elems > len {
                return Err(err_d2d_oob(what, p, p.offset + elems, len));
            }
        }
        if src.alloc_id() == dst.alloc_id()
            && src.offset < dst.offset + elems
            && dst.offset < src.offset + elems
        {
            return Err(err_d2d_overlap());
        }
        self.enqueue(stream, CmdKind::D2D { src, dst, elems })
    }

    // ------------------------------------------------------------------
    // Synchronization
    // ------------------------------------------------------------------

    /// Block until all streams drain (like `cudaDeviceSynchronize`).
    pub fn synchronize(&mut self) -> SimResult<()> {
        let t0 = self.now_host;
        self.api_call();
        // Destroyed streams were synchronized before they died and take
        // no new work, so only the live ones can hold anything undrained
        // (and `now_host` already covers their `last_done`).
        self.run_until(|g| g.live.iter().all(|&si| g.streams[si as usize].drained()))?;
        let done = self
            .live
            .iter()
            .map(|&si| self.streams[si as usize].last_done)
            .fold(SimTime::ZERO, SimTime::max);
        self.now_host = self.now_host.max(done);
        self.maybe_reset_arena();
        if self.timeline_enabled {
            self.host_spans.push(HostSpan {
                label: "synchronize".into(),
                kind: HostSpanKind::Sync,
                start_ns: t0.as_ns(),
                end_ns: self.now_host.as_ns(),
                flow: None,
            });
        }
        Ok(())
    }

    /// Block until `stream` drains (like `cudaStreamSynchronize`).
    pub fn stream_synchronize(&mut self, stream: StreamId) -> SimResult<()> {
        self.check_stream(stream)?;
        let t0 = self.now_host;
        self.api_call();
        let idx = stream.0 as usize;
        self.run_until(|g| g.streams[idx].drained())?;
        self.now_host = self.now_host.max(self.streams[idx].last_done);
        self.maybe_reset_arena();
        if self.timeline_enabled {
            self.host_spans.push(HostSpan {
                label: Label::Key(LabelKey::SyncStream(stream.0)),
                kind: HostSpanKind::Sync,
                start_ns: t0.as_ns(),
                end_ns: self.now_host.as_ns(),
                flow: None,
            });
        }
        Ok(())
    }

    /// Rebase the command arena once nothing references its slots: no
    /// queued, in-flight, or hung command anywhere. Called after
    /// successful synchronization so steady-state pipelines reuse the
    /// same buffers run after run.
    fn maybe_reset_arena(&mut self) {
        if self.hung.is_empty()
            && self.inflight.iter().all(Vec::is_empty)
            && self
                .live
                .iter()
                .all(|&si| self.streams[si as usize].queue.is_empty())
        {
            self.arena.reset(self.seq);
        }
    }

    // ------------------------------------------------------------------
    // DES internals
    // ------------------------------------------------------------------

    /// Concurrent command slots of an engine (copy engines are single-
    /// slot; the compute engine follows the profile's Hyper-Q capacity).
    fn engine_capacity(&self, kind: EngineKind) -> usize {
        match kind {
            EngineKind::Compute => self.profile.max_concurrent_kernels.max(1),
            _ => 1,
        }
    }

    fn enqueue(&mut self, stream: StreamId, kind: CmdKind) -> SimResult<()> {
        if self.lost.is_some() {
            return Err(SimError::DeviceLost);
        }
        let t0 = self.now_host;
        self.api_call();
        let seq = self.seq;
        if self.timeline_enabled {
            self.host_spans.push(HostSpan {
                label: kind.label(),
                kind: HostSpanKind::Enqueue,
                start_ns: t0.as_ns(),
                end_ns: self.now_host.as_ns(),
                flow: Some(seq),
            });
        }
        self.seq = seq + 1;
        self.arena.push(seq, self.now_host, stream.0, kind);
        self.streams[stream.0 as usize].queue.push_back(seq);
        self.refresh_head(stream.0 as usize);
        Ok(())
    }

    /// Re-sync a stream's entry in the per-engine head index (and the
    /// pseudo-head worklist) after its queue head changed.
    fn refresh_head(&mut self, si: usize) {
        let mut pseudo = false;
        let desired = match self.streams[si].queue.front() {
            Some(&seq) => {
                let e = self.arena.engine[self.arena.idx(seq)];
                if e == ENGINE_PSEUDO {
                    pseudo = true;
                    None
                } else {
                    Some((e as usize, seq))
                }
            }
            None => None,
        };
        let current = self.streams[si].indexed_head;
        if desired != current {
            if let Some((e, seq)) = current {
                let v = &mut self.heads[e];
                let pos = v.partition_point(|&x| x < (seq, si as u32));
                debug_assert_eq!(v.get(pos), Some(&(seq, si as u32)), "head index out of sync");
                v.remove(pos);
            }
            if let Some((e, seq)) = desired {
                let v = &mut self.heads[e];
                let pos = v.partition_point(|&x| x < (seq, si as u32));
                v.insert(pos, (seq, si as u32));
            }
            self.streams[si].indexed_head = desired;
        }
        // Worklist membership only ever grows here; `resolve_pseudo`
        // compacts entries whose head is no longer pseudo.
        if pseudo && !self.streams[si].pseudo_listed {
            self.streams[si].pseudo_listed = true;
            self.pseudo_heads.push(si as u32);
        }
    }

    /// Resolve event records/waits at stream heads; returns true if any
    /// progress was made. Walks only the pseudo-head worklist — streams
    /// whose head is not an event command are never visited.
    fn resolve_pseudo(&mut self) -> bool {
        if self.pseudo_heads.is_empty() {
            return false;
        }
        // Stream-index order keeps cross-stream record/wait resolution
        // (and therefore wait-record order) identical to a full scan.
        self.pseudo_heads.sort_unstable();
        let mut progress = false;
        loop {
            let mut round = false;
            let mut i = 0;
            while i < self.pseudo_heads.len() {
                let s = self.pseudo_heads[i] as usize;
                if self.streams[s].hung {
                    // Pseudo commands behind a hang never resolve either.
                    i += 1;
                    continue;
                }
                // A pseudo head may not run ahead of a still-running
                // predecessor: ready_at is set at dispatch, so it is safe.
                let mut blocked = false;
                while let Some(&head_seq) = self.streams[s].queue.front() {
                    let idx = self.arena.idx(head_seq);
                    match self.arena.payload[idx].as_ref() {
                        Some(CmdKind::EventRecord(e)) => {
                            let e = e.0 as usize;
                            let t = self.streams[s].ready_at.max(self.arena.enq[idx]);
                            self.arena.payload[idx] = None;
                            self.events[e].complete_at = Some(t);
                            self.streams[s].queue.pop_front();
                            self.streams[s].ready_at = t;
                            self.streams[s].last_done = self.streams[s].last_done.max(t);
                            round = true;
                        }
                        Some(CmdKind::EventWait(e, cause)) => {
                            let (e, cause) = (e.0 as usize, *cause);
                            match self.events[e].complete_at {
                                Some(t) => {
                                    let enq = self.arena.enq[idx];
                                    self.arena.payload[idx] = None;
                                    self.streams[s].queue.pop_front();
                                    let base = self.streams[s].ready_at.max(enq);
                                    let r = base.max(t);
                                    if self.timeline_enabled && r > base {
                                        self.wait_records.push(WaitRecord {
                                            stream: s,
                                            cause,
                                            from_ns: base.as_ns(),
                                            until_ns: r.as_ns(),
                                        });
                                    }
                                    self.streams[s].ready_at = r;
                                    // The wait itself completes at `r`: a
                                    // stream_synchronize on this stream
                                    // must not return earlier.
                                    self.streams[s].last_done =
                                        self.streams[s].last_done.max(r);
                                    round = true;
                                }
                                None => {
                                    blocked = true;
                                    break;
                                }
                            }
                        }
                        _ => break,
                    }
                }
                self.refresh_head(s);
                if blocked {
                    i += 1;
                } else {
                    // Head is no longer pseudo (or the queue is empty):
                    // drop the worklist entry, preserving order.
                    self.streams[s].pseudo_listed = false;
                    self.pseudo_heads.remove(i);
                }
            }
            if !round {
                break;
            }
            progress = true;
        }
        progress
    }

    /// Try to dispatch ready heads onto idle engines at the current device
    /// clock. Returns true if anything was dispatched.
    fn try_dispatch(&mut self) -> bool {
        let live_streams = self.stream_count();
        let mut dispatched = false;
        for engine in EngineKind::ALL {
            let e = engine.index();
            while self.engine_load[e] < self.engine_capacity(engine) {
                // Lowest-sequence ready head needing this engine; the
                // index iterates in sequence order, so take the first
                // ready candidate.
                let mut chosen: Option<(usize, u64)> = None;
                for &(seq, si) in &self.heads[e] {
                    let st = &self.streams[si as usize];
                    if st.hung {
                        // A wedged FIFO may not dispatch successors.
                        continue;
                    }
                    debug_assert_eq!(st.queue.front(), Some(&seq), "head index out of sync");
                    if st.ready_at.max(self.arena.enq[self.arena.idx(seq)]) <= self.now {
                        chosen = Some((si as usize, seq));
                        break;
                    }
                }
                let Some((si, seq)) = chosen else { break };
                self.streams[si].queue.pop_front();
                // An injected hang: the command takes its stream slot and
                // engine slot but its completion never fires. Only loss
                // escalation (the watchdog) releases them.
                if self.fault.as_mut().is_some_and(FaultState::roll_hang) {
                    self.streams[si].hung = true;
                    self.streams[si].running += 1;
                    self.engine_load[e] += 1;
                    self.hung.push((si as u32, seq));
                    self.refresh_head(si);
                    dispatched = true;
                    continue;
                }
                let idx = self.arena.idx(seq);
                let dispatch = self.profile.dispatch_overhead(live_streams);
                let mut duration = {
                    let kind = self.arena.payload[idx]
                        .as_ref()
                        .expect("queued command has a payload");
                    self.command_duration(kind)
                };
                // Full-duplex contention: a copy dispatched while the
                // opposite copy engine is busy runs at duplex_factor of
                // its bandwidth.
                let opposite_busy = match engine {
                    EngineKind::H2D => self.engine_load[EngineKind::D2H.index()] > 0,
                    EngineKind::D2H => self.engine_load[EngineKind::H2D.index()] > 0,
                    EngineKind::Compute => false,
                };
                if opposite_busy && self.profile.duplex_factor < 1.0 {
                    duration = SimTime::from_secs_f64(
                        duration.as_secs_f64() / self.profile.duplex_factor,
                    );
                }
                if let Some(f) = self.fault.as_mut() {
                    let factor = f.roll_spike();
                    if factor > 1.0 {
                        duration = SimTime::from_secs_f64(duration.as_secs_f64() * factor);
                        self.counters.spikes += 1;
                    }
                }
                let start = self.now;
                let end = start + dispatch + duration;
                self.streams[si].ready_at = end;
                self.streams[si].running += 1;
                self.engine_load[e] += 1;
                self.arena.start[idx] = start;
                self.arena.end[idx] = end;
                // Keep the in-flight list sorted descending on
                // `(end, seq)`: the earliest completion stays at the
                // tail. The list is at most a few entries long.
                let fl = &mut self.inflight[e];
                let pos = fl.partition_point(|&entry| entry > (end, seq));
                fl.insert(pos, (end, seq));
                self.refresh_head(si);
                dispatched = true;
            }
        }
        dispatched
    }

    fn command_duration(&self, kind: &CmdKind) -> SimTime {
        match kind {
            CmdKind::H2D { host, elems, .. } => {
                let pinned = self.pool.host_pinned(*host).unwrap_or(true);
                self.profile.h2d_time(*elems as u64 * ELEM_BYTES, pinned)
            }
            CmdKind::D2H { host, elems, .. } => {
                let pinned = self.pool.host_pinned(*host).unwrap_or(true);
                self.profile.d2h_time(*elems as u64 * ELEM_BYTES, pinned)
            }
            // Strided copies pay the bandwidth ramp per row: each row is
            // a separate DMA descriptor, which is why the paper's
            // non-contiguous transfers "take much longer" yet still
            // overlap with compute.
            CmdKind::H2D2D(c) => {
                let pinned = self.pool.host_pinned(c.host).unwrap_or(true);
                self.profile
                    .h2d_time_2d(c.rows, c.row_elems as u64 * ELEM_BYTES, pinned)
            }
            CmdKind::D2H2D(c) => {
                let pinned = self.pool.host_pinned(c.host).unwrap_or(true);
                self.profile
                    .d2h_time_2d(c.rows, c.row_elems as u64 * ELEM_BYTES, pinned)
            }
            CmdKind::Kernel(k) => self.profile.kernel_time(k.cost.flops, k.cost.bytes),
            // Memset streams one write per element; D2D a read plus a
            // write — both bounded by device-memory bandwidth.
            CmdKind::Memset { elems, .. } => self
                .profile
                .kernel_time(0, *elems as u64 * ELEM_BYTES),
            CmdKind::D2D { elems, .. } => self
                .profile
                .kernel_time(0, 2 * *elems as u64 * ELEM_BYTES),
            CmdKind::EventRecord(_) | CmdKind::EventWait(..) => SimTime::ZERO,
        }
    }

    /// Execute the functional payload of a completing command and update
    /// counters. The caller already popped `seq` from its engine's
    /// in-flight list.
    fn complete(&mut self, seq: u64, end: SimTime) -> SimResult<()> {
        let idx = self.arena.idx(seq);
        let start = self.arena.start[idx];
        let enqueue_time = self.arena.enq[idx];
        let stream = StreamId(self.arena.stream[idx]);
        let mut kind = self.arena.payload[idx]
            .take()
            .expect("completing command has a payload");
        let engine = kind.engine().expect("running command has an engine");
        self.engine_load[engine.index()] -= 1;
        self.retired += 1;
        self.last_retired_seq = Some(seq);
        if let Some(f) = self.fault.as_mut() {
            f.retired_cmds += 1;
        }
        let dur = end - start;
        let functional = self.pool.mode == ExecMode::Functional;
        // A functionally failing command still occupied its engine for
        // the full duration: retire it (counters + timeline entry) before
        // surfacing the error, so the observability surface of a
        // truncated run stays internally consistent.
        let exec = self.execute_payload(&mut kind, dur, functional);
        if self.timeline_enabled {
            self.timeline.push(TimelineEntry {
                label: kind.label(),
                kind: TimelineKind::from_engine(engine),
                stream: stream.0 as usize,
                start_ns: start.as_ns(),
                end_ns: end.as_ns(),
                seq,
                enqueue_ns: enqueue_time.as_ns(),
            });
        }
        let race = if self.race_check {
            self.record_accesses(&kind, start, end)
        } else {
            Ok(())
        };
        let st = &mut self.streams[stream.0 as usize];
        st.running -= 1;
        st.last_done = st.last_done.max(end);
        if let Err(e) = &exec {
            self.failures.push(FailureRecord {
                seq,
                stream: stream.0 as usize,
                engine,
                label: kind.label(),
                end,
                error: e.clone(),
            });
        }
        exec?;
        race
    }

    /// Update counters and run the functional payload of one completing
    /// command.
    fn execute_payload(
        &mut self,
        kind: &mut CmdKind,
        dur: SimTime,
        functional: bool,
    ) -> SimResult<()> {
        match kind {
            CmdKind::H2D {
                host,
                host_off,
                dst,
                elems,
            } => {
                self.counters.h2d_time += dur;
                self.counters.h2d_bytes += *elems as u64 * ELEM_BYTES;
                self.counters.h2d_count += 1;
                if let Some(e) = self.roll_fault(FaultStage::H2d) {
                    return Err(e);
                }
                if functional {
                    let mut d = self.pool.dev_slice_mut(*dst, *elems)?;
                    self.pool
                        .with_host(*host, *host_off, *elems, |src| d.copy_from_slice(src))?;
                }
            }
            CmdKind::D2H {
                src,
                elems,
                host,
                host_off,
            } => {
                self.counters.d2h_time += dur;
                self.counters.d2h_bytes += *elems as u64 * ELEM_BYTES;
                self.counters.d2h_count += 1;
                if let Some(e) = self.roll_fault(FaultStage::D2h) {
                    return Err(e);
                }
                if functional {
                    let s = self.pool.dev_slice(*src, *elems)?;
                    self.pool
                        .with_host_mut(*host, *host_off, *elems, |d| d.copy_from_slice(&s))?;
                }
            }
            CmdKind::H2D2D(c) => {
                self.counters.h2d_time += dur;
                self.counters.h2d_bytes += c.elems() as u64 * ELEM_BYTES;
                self.counters.h2d_count += 1;
                if let Some(e) = self.roll_fault(FaultStage::H2d) {
                    return Err(e);
                }
                if functional {
                    // One device borrow + one host borrow for the whole
                    // command (spans were validated at enqueue time);
                    // contiguous layouts collapse to a single memcpy.
                    let dev_span = (c.rows - 1) * c.dev_stride + c.row_elems;
                    let host_span = (c.rows - 1) * c.host_stride + c.row_elems;
                    let mut view = self.pool.dev_write(c.dev.alloc_id())?;
                    let dst = view.slice_mut(c.dev, dev_span)?;
                    self.pool.with_host(c.host, c.host_off, host_span, |src| {
                        if c.host_stride == c.row_elems && c.dev_stride == c.row_elems {
                            dst.copy_from_slice(src);
                        } else {
                            for r in 0..c.rows {
                                dst[r * c.dev_stride..r * c.dev_stride + c.row_elems]
                                    .copy_from_slice(
                                        &src[r * c.host_stride..r * c.host_stride + c.row_elems],
                                    );
                            }
                        }
                    })?;
                }
            }
            CmdKind::D2H2D(c) => {
                self.counters.d2h_time += dur;
                self.counters.d2h_bytes += c.elems() as u64 * ELEM_BYTES;
                self.counters.d2h_count += 1;
                if let Some(e) = self.roll_fault(FaultStage::D2h) {
                    return Err(e);
                }
                if functional {
                    // Mirror of the H2D2D path: borrow once per side,
                    // memcpy per row (or once when contiguous).
                    let dev_span = (c.rows - 1) * c.dev_stride + c.row_elems;
                    let host_span = (c.rows - 1) * c.host_stride + c.row_elems;
                    let view = self.pool.dev_read(c.dev.alloc_id())?;
                    let src = view.slice(c.dev, dev_span)?;
                    self.pool.with_host_mut(c.host, c.host_off, host_span, |dst| {
                        if c.host_stride == c.row_elems && c.dev_stride == c.row_elems {
                            dst.copy_from_slice(src);
                        } else {
                            for r in 0..c.rows {
                                dst[r * c.host_stride..r * c.host_stride + c.row_elems]
                                    .copy_from_slice(
                                        &src[r * c.dev_stride..r * c.dev_stride + c.row_elems],
                                    );
                            }
                        }
                    })?;
                }
            }
            CmdKind::Kernel(k) => {
                self.counters.kernel_time += dur;
                self.counters.kernel_count += 1;
                // Roll *before* taking the body: an injected kernel fault
                // models a launch that never produced its writes.
                if let Some(e) = self.roll_fault(FaultStage::Kernel) {
                    return Err(e);
                }
                if functional {
                    if let Some(body) = k.body.take() {
                        let ctx = KernelCtx { pool: &self.pool };
                        body(&ctx)?;
                    }
                }
            }
            CmdKind::Memset { dst, elems, value } => {
                self.counters.kernel_time += dur;
                self.counters.kernel_count += 1;
                if functional {
                    self.pool.dev_slice_mut(*dst, *elems)?.fill(*value);
                }
            }
            CmdKind::D2D { src, dst, elems } => {
                self.counters.kernel_time += dur;
                self.counters.kernel_count += 1;
                if functional {
                    if src.alloc_id() == dst.alloc_id() {
                        // Potentially overlapping ranges: stage through a
                        // temporary, like cudaMemcpy would via the fabric.
                        let data: Vec<f32> = self.pool.dev_slice(*src, *elems)?.to_vec();
                        self.pool.dev_slice_mut(*dst, *elems)?.copy_from_slice(&data);
                    } else {
                        let rv = self.pool.dev_read(src.alloc_id())?;
                        let mut wv = self.pool.dev_write(dst.alloc_id())?;
                        wv.slice_mut(*dst, *elems)?
                            .copy_from_slice(rv.slice(*src, *elems)?);
                    }
                }
            }
            CmdKind::EventRecord(_) | CmdKind::EventWait(..) => unreachable!("pseudo on engine"),
        }
        Ok(())
    }

    fn record_accesses(&mut self, kind: &CmdKind, start: SimTime, end: SimTime) -> SimResult<()> {
        let mut reads: Vec<AccessRange> = Vec::new();
        let mut writes: Vec<AccessRange> = Vec::new();
        match kind {
            CmdKind::H2D { dst, elems, .. } => {
                writes.push(AccessRange::contiguous(
                    dst.alloc_id().0,
                    dst.offset,
                    dst.offset + elems,
                ));
            }
            CmdKind::D2H { src, elems, .. } => {
                reads.push(AccessRange::contiguous(
                    src.alloc_id().0,
                    src.offset,
                    src.offset + elems,
                ));
            }
            // One strided range per 2-D copy: the footprint excludes the
            // gaps between rows, but no longer costs one record per row.
            CmdKind::H2D2D(c) => {
                writes.push(AccessRange::strided(
                    c.dev.alloc_id().0,
                    c.dev.offset,
                    c.row_elems,
                    c.dev_stride,
                    c.rows,
                ));
            }
            CmdKind::D2H2D(c) => {
                reads.push(AccessRange::strided(
                    c.dev.alloc_id().0,
                    c.dev.offset,
                    c.row_elems,
                    c.dev_stride,
                    c.rows,
                ));
            }
            CmdKind::Kernel(k) => {
                for d in &k.reads {
                    reads.push(AccessRange::strided(
                        d.ptr.alloc_id().0,
                        d.ptr.offset,
                        d.row_elems,
                        d.stride.max(d.row_elems),
                        d.rows,
                    ));
                }
                for d in &k.writes {
                    writes.push(AccessRange::strided(
                        d.ptr.alloc_id().0,
                        d.ptr.offset,
                        d.row_elems,
                        d.stride.max(d.row_elems),
                        d.rows,
                    ));
                }
            }
            CmdKind::Memset { dst, elems, .. } => {
                writes.push(AccessRange::contiguous(
                    dst.alloc_id().0,
                    dst.offset,
                    dst.offset + elems,
                ));
            }
            CmdKind::D2D { src, dst, elems } => {
                reads.push(AccessRange::contiguous(
                    src.alloc_id().0,
                    src.offset,
                    src.offset + elems,
                ));
                writes.push(AccessRange::contiguous(
                    dst.alloc_id().0,
                    dst.offset,
                    dst.offset + elems,
                ));
            }
            _ => {}
        }
        self.access_log
            .check_insert(kind.label(), start, end, reads, writes)
            .map_err(|c| {
                SimError::DataRace(match c.kind {
                    ConflictKind::WriteWrite => format!(
                        "concurrent writes: '{}' and '{}' on alloc {} [{}, {}) x [{}, {})",
                        c.label_new,
                        c.label_old,
                        c.range_new.alloc,
                        c.range_new.lo,
                        c.range_new.span_end(),
                        c.range_old.lo,
                        c.range_old.span_end()
                    ),
                    ConflictKind::WriteRead => format!(
                        "write '{}' races read '{}' on alloc {}",
                        c.label_new, c.label_old, c.range_new.alloc
                    ),
                    ConflictKind::ReadWrite => format!(
                        "read '{}' races write '{}' on alloc {}",
                        c.label_new, c.label_old, c.range_new.alloc
                    ),
                })
            })?;
        // Records that end before every still-running command started can
        // never overlap future work (dispatch time is monotone), so let
        // the log retire them. The in-flight lists hold a handful of
        // entries at most, so the frontier scan is cheap.
        let mut frontier = self.now;
        for v in &self.inflight {
            for &(_, seq) in v {
                frontier = frontier.min(self.arena.start[self.arena.idx(seq)]);
            }
        }
        self.access_log.retire(frontier);
        Ok(())
    }

    fn run_until(&mut self, pred: impl Fn(&Gpu) -> bool) -> SimResult<()> {
        loop {
            self.poll_loss()?;
            self.resolve_pseudo();
            if pred(self) {
                // Finish engines whose work is part of the predicate's
                // streams only when required; predicate streams are drained
                // (running == 0), so this is safe.
                return Ok(());
            }
            if self.try_dispatch() {
                continue;
            }
            // Advance time to the next interesting instant: the earliest
            // in-flight completion or the earliest not-yet-ready head.
            let mut t_next: Option<SimTime> = None;
            let mut consider = |t: SimTime| {
                t_next = Some(match t_next {
                    Some(cur) => cur.min(t),
                    None => t,
                });
            };
            for v in &self.inflight {
                if let Some(&(end, _)) = v.last() {
                    consider(end);
                }
            }
            for set in &self.heads {
                for &(seq, si) in set {
                    let st = &self.streams[si as usize];
                    if st.hung {
                        continue;
                    }
                    let ready = st.ready_at.max(self.arena.enq[self.arena.idx(seq)]);
                    if ready > self.now {
                        consider(ready);
                    }
                }
            }
            // A pending time-triggered loss bounds how far the clock may
            // advance: the context dies exactly at its trigger instant.
            if let (Some(cur), None) = (t_next, self.lost) {
                if let Some(lt) = self.fault.as_ref().and_then(FaultState::loss_at) {
                    if lt > self.now && lt < cur {
                        t_next = Some(lt);
                    }
                }
            }
            let Some(t) = t_next else {
                if !self.hung.is_empty() {
                    // A hang starved the pipeline: no completion will ever
                    // fire. After the watchdog grace (zero when unset) the
                    // context is lost — a driver-timeout reset.
                    let grace = self.watchdog.unwrap_or(SimTime::ZERO);
                    let at = self.now.max(self.now_host) + grace;
                    self.declare_lost(at, LossCause::HangEscalated);
                    return Err(SimError::DeviceLost);
                }
                // Nothing running, nothing dispatchable, nothing to wait
                // for: if work remains, it is deadlocked on events.
                let blocked: Vec<String> = self
                    .streams
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| !s.queue.is_empty())
                    .map(|(i, s)| {
                        let head = s.queue.front().map(|&seq| {
                            self.arena.payload[self.arena.idx(seq)]
                                .as_ref()
                                .expect("queued command has a payload")
                        });
                        let label = head.map(|k| k.label().to_string()).unwrap_or_default();
                        let detail = match head {
                            Some(CmdKind::EventWait(e, _))
                                if !self.events[e.0 as usize].enqueued =>
                            {
                                " (event was never recorded)"
                            }
                            _ => "",
                        };
                        format!("stream {i} blocked at '{label}'{detail}")
                    })
                    .collect();
                if blocked.is_empty() {
                    return Ok(());
                }
                return Err(SimError::Deadlock(blocked.join("; ")));
            };
            debug_assert!(t >= self.now, "time must be monotone");
            self.now = self.now.max(t);
            // Complete work due at the new time by draining the
            // per-engine in-flight tails in global `(end, seq)` order —
            // deterministic functional execution with an O(1) three-way
            // compare per retirement.
            loop {
                let mut best: Option<(SimTime, u64, usize)> = None;
                for e in 0..3 {
                    if let Some(&(end, seq)) = self.inflight[e].last() {
                        if best.is_none_or(|(be, bs, _)| (end, seq) < (be, bs)) {
                            best = Some((end, seq, e));
                        }
                    }
                }
                let Some((end, seq, e)) = best else { break };
                if end > self.now {
                    break;
                }
                self.inflight[e].pop();
                self.complete(seq, end)?;
                // A command-count loss trigger fires on the retirement
                // that reaches its threshold.
                self.poll_loss()?;
            }
        }
    }
}

// ----------------------------------------------------------------------
// Cold error constructors. Out of line so validation happy paths compile
// to bounds comparisons plus a branch to a cold stub — no `format!`
// machinery inline (same convention as `mem.rs`).
// ----------------------------------------------------------------------

#[cold]
#[inline(never)]
fn err_stream_destroyed(s: StreamId) -> SimError {
    SimError::InvalidHandle(format!("stream {} was destroyed", s.0))
}

#[cold]
#[inline(never)]
fn err_bad_stream(s: StreamId) -> SimError {
    SimError::InvalidHandle(format!("stream {}", s.0))
}

#[cold]
#[inline(never)]
fn err_bad_event(e: EventId) -> SimError {
    SimError::InvalidHandle(format!("event {}", e.0))
}

#[cold]
#[inline(never)]
fn err_zero_copy() -> SimError {
    SimError::InvalidArgument("zero-length copy".into())
}

#[cold]
#[inline(never)]
fn err_copy_host_oob(host: HostBufId, end: usize, len: usize) -> SimError {
    SimError::OutOfRange {
        what: format!("host range of copy ({host:?})"),
        end,
        len,
    }
}

#[cold]
#[inline(never)]
fn err_copy_dev_oob(alloc: DevAllocId, end: usize, len: usize) -> SimError {
    SimError::OutOfRange {
        what: format!("device range of copy ({alloc:?})"),
        end,
        len,
    }
}

#[cold]
#[inline(never)]
fn err_zero_copy_2d() -> SimError {
    SimError::InvalidArgument("zero-size 2D copy".into())
}

#[cold]
#[inline(never)]
fn err_copy_stride_2d(row_elems: usize, host_stride: usize, dev_stride: usize) -> SimError {
    SimError::InvalidArgument(format!(
        "2D copy stride smaller than row: row={row_elems}, host_stride={host_stride}, dev_stride={dev_stride}"
    ))
}

#[cold]
#[inline(never)]
fn err_copy_host_oob_2d(host: HostBufId, end: usize, len: usize) -> SimError {
    SimError::OutOfRange {
        what: format!("host range of 2D copy ({host:?})"),
        end,
        len,
    }
}

#[cold]
#[inline(never)]
fn err_copy_dev_oob_2d(alloc: DevAllocId, end: usize, len: usize) -> SimError {
    SimError::OutOfRange {
        what: format!("device range of 2D copy ({alloc:?})"),
        end,
        len,
    }
}

#[cold]
#[inline(never)]
fn err_no_body(name: &str) -> SimError {
    SimError::InvalidArgument(format!(
        "kernel '{name}' has no functional body but the context is in functional mode"
    ))
}

#[cold]
#[inline(never)]
fn err_zero_memset() -> SimError {
    SimError::InvalidArgument("zero-length memset".into())
}

#[cold]
#[inline(never)]
fn err_memset_oob(dst: DevPtr, end: usize, len: usize) -> SimError {
    SimError::OutOfRange {
        what: format!("memset at {:?}+{}", dst.alloc_id(), dst.offset),
        end,
        len,
    }
}

#[cold]
#[inline(never)]
fn err_zero_d2d() -> SimError {
    SimError::InvalidArgument("zero-length D2D copy".into())
}

#[cold]
#[inline(never)]
fn err_d2d_oob(what: &str, p: DevPtr, end: usize, len: usize) -> SimError {
    SimError::OutOfRange {
        what: format!("D2D {what} at {:?}+{}", p.alloc_id(), p.offset),
        end,
        len,
    }
}

#[cold]
#[inline(never)]
fn err_d2d_overlap() -> SimError {
    SimError::InvalidArgument("overlapping same-allocation D2D copy".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmd::KernelCost;

    fn gpu() -> Gpu {
        Gpu::new(DeviceProfile::uniform_test(), ExecMode::Functional).unwrap()
    }

    /// 1e6 elements = 4 MB = 4 ms at 1 GB/s on the uniform profile.
    const N: usize = 1_000_000;
    const COPY_MS: u64 = 4;

    #[test]
    fn sync_copy_round_trip() {
        let mut g = gpu();
        let h = g.alloc_host(N, true).unwrap();
        let d = g.alloc(N).unwrap();
        g.host_fill(h, |i| i as f32).unwrap();
        g.memcpy_h2d(h, 0, d, N).unwrap();
        let h2 = g.alloc_host(N, true).unwrap();
        g.memcpy_d2h(d, N, h2, 0).unwrap();
        let mut out = vec![0.0; 4];
        g.host_read(h2, N - 4, &mut out).unwrap();
        assert_eq!(out, [(N - 4) as f32, (N - 3) as f32, (N - 2) as f32, (N - 1) as f32]);
        // Two copies of 4 ms each.
        assert_eq!(g.now(), SimTime::from_ms(2 * COPY_MS));
    }

    #[test]
    fn h2d_and_d2h_overlap_on_separate_engines() {
        let mut g = gpu();
        let h = g.alloc_host(2 * N, true).unwrap();
        let d1 = g.alloc(N).unwrap();
        let d2 = g.alloc(N).unwrap();
        let s1 = g.create_stream().unwrap();
        let s2 = g.create_stream().unwrap();
        // Preload d2 so the D2H has data.
        g.memcpy_h2d(h, 0, d2, N).unwrap();
        g.reset_counters();
        let t0 = g.now();
        g.memcpy_h2d_async(s1, h, 0, d1, N).unwrap();
        g.memcpy_d2h_async(s2, d2, N, h, N).unwrap();
        g.synchronize().unwrap();
        let elapsed = g.now() - t0;
        // Perfect overlap: makespan is one copy, not two.
        assert_eq!(elapsed, SimTime::from_ms(COPY_MS));
        assert_eq!(g.counters().h2d_time, SimTime::from_ms(COPY_MS));
        assert_eq!(g.counters().d2h_time, SimTime::from_ms(COPY_MS));
    }

    #[test]
    fn same_stream_serializes() {
        let mut g = gpu();
        let h = g.alloc_host(2 * N, true).unwrap();
        let d1 = g.alloc(N).unwrap();
        let d2 = g.alloc(N).unwrap();
        let t0 = g.now();
        let s = g.default_stream();
        g.memcpy_h2d_async(s, h, 0, d1, N).unwrap();
        g.memcpy_h2d_async(s, h, N, d2, N).unwrap();
        g.synchronize().unwrap();
        assert_eq!(g.now() - t0, SimTime::from_ms(2 * COPY_MS));
    }

    #[test]
    fn copy_and_kernel_overlap_across_streams() {
        let mut g = gpu();
        let h = g.alloc_host(N, true).unwrap();
        let d = g.alloc(N).unwrap();
        let d_other = g.alloc(16).unwrap();
        let s1 = g.create_stream().unwrap();
        let s2 = g.create_stream().unwrap();
        let t0 = g.now();
        g.memcpy_h2d_async(s1, h, 0, d, N).unwrap();
        // Kernel on the other stream: 4e6 flops at 1 GFLOP/s = 4 ms.
        g.launch(
            s2,
            KernelLaunch::new(
                "busy",
                KernelCost {
                    flops: 4_000_000,
                    bytes: 0,
                },
                move |ctx| {
                    let mut w = ctx.write(d_other, 1)?;
                    w[0] = 42.0;
                    Ok(())
                },
            ),
        )
        .unwrap();
        g.synchronize().unwrap();
        assert_eq!(g.now() - t0, SimTime::from_ms(COPY_MS));
        // Both engines were busy the whole time.
        assert_eq!(g.counters().kernel_time, SimTime::from_ms(4));
    }

    #[test]
    fn events_order_cross_stream_work() {
        let mut g = gpu();
        let h = g.alloc_host(N, true).unwrap();
        let d = g.alloc(N).unwrap();
        let s1 = g.create_stream().unwrap();
        let s2 = g.create_stream().unwrap();
        g.host_fill(h, |_| 7.0).unwrap();
        let e = g.create_event();
        g.memcpy_h2d_async(s1, h, 0, d, N).unwrap();
        g.record_event(s1, e).unwrap();
        g.wait_event(s2, e).unwrap();
        // This kernel must observe the copied data.
        g.launch(
            s2,
            KernelLaunch::new("check", KernelCost::default(), move |ctx| {
                let r = ctx.read(d, 1)?;
                assert_eq!(r[0], 7.0);
                Ok(())
            }),
        )
        .unwrap();
        g.synchronize().unwrap();
        // Kernel started only after the 4 ms copy.
        let tl = g.timeline();
        let copy = tl.iter().find(|t| matches!(t.kind, TimelineKind::H2D)).unwrap();
        let kern = tl
            .iter()
            .find(|t| matches!(t.kind, TimelineKind::Kernel))
            .unwrap();
        assert!(kern.start_ns >= copy.end_ns);
    }

    #[test]
    fn waiting_on_unrecorded_event_deadlocks() {
        let mut g = gpu();
        let s1 = g.create_stream().unwrap();
        let e = g.create_event();
        g.wait_event(s1, e).unwrap();
        let d = g.alloc(16).unwrap();
        let h = g.alloc_host(16, true).unwrap();
        g.memcpy_h2d_async(s1, h, 0, d, 16).unwrap();
        let err = g.synchronize().unwrap_err();
        assert!(matches!(err, SimError::Deadlock(_)), "{err:?}");
    }

    #[test]
    fn stream_synchronize_only_waits_for_that_stream() {
        let mut g = gpu();
        let h = g.alloc_host(2 * N, true).unwrap();
        let d1 = g.alloc(N).unwrap();
        let d2 = g.alloc(2 * N).unwrap();
        let s1 = g.create_stream().unwrap();
        let s2 = g.create_stream().unwrap();
        g.memcpy_h2d_async(s1, h, 0, d1, N).unwrap();
        // Twice the work on s2 (same engine, so it finishes at 12 ms).
        g.memcpy_h2d_async(s2, h, 0, d2, 2 * N).unwrap();
        g.stream_synchronize(s1).unwrap();
        let after_s1 = g.now();
        assert_eq!(after_s1, SimTime::from_ms(COPY_MS));
        g.synchronize().unwrap();
        assert_eq!(g.now(), SimTime::from_ms(3 * COPY_MS));
    }

    #[test]
    fn kernel_without_body_rejected_in_functional_mode() {
        let mut g = gpu();
        let err = g
            .launch(
                g.default_stream(),
                KernelLaunch::cost_only("k", KernelCost::default()),
            )
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidArgument(_)));
    }

    #[test]
    fn timing_mode_runs_cost_only_kernels() {
        let mut g = Gpu::new(DeviceProfile::uniform_test(), ExecMode::Timing).unwrap();
        let d = g.alloc(N).unwrap();
        let h = g.alloc_host(N, true).unwrap();
        g.memcpy_h2d(h, 0, d, N).unwrap();
        g.launch(
            g.default_stream(),
            KernelLaunch::cost_only(
                "k",
                KernelCost {
                    flops: 1_000_000,
                    bytes: 0,
                },
            ),
        )
        .unwrap();
        g.synchronize().unwrap();
        assert_eq!(g.now(), SimTime::from_ms(5)); // 4 ms copy + 1 ms kernel
        assert_eq!(g.counters().kernel_count, 1);
    }

    #[test]
    fn race_checker_flags_concurrent_write_write() {
        let mut g = gpu();
        g.set_race_check(true);
        let h = g.alloc_host(N, true).unwrap();
        let d = g.alloc(N).unwrap();
        let s1 = g.create_stream().unwrap();
        let s2 = g.create_stream().unwrap();
        // Concurrent H2D (writes d) and kernel declaring a write of d.
        g.memcpy_h2d_async(s1, h, 0, d, N).unwrap();
        g.launch(
            s2,
            KernelLaunch::new(
                "writer",
                KernelCost {
                    flops: 4_000_000,
                    bytes: 0,
                },
                move |_| Ok(()),
            )
            .writing(d, N),
        )
        .unwrap();
        let err = g.synchronize().unwrap_err();
        assert!(matches!(err, SimError::DataRace(_)), "{err:?}");
    }

    #[test]
    fn race_checker_accepts_event_ordered_access() {
        let mut g = gpu();
        g.set_race_check(true);
        let h = g.alloc_host(N, true).unwrap();
        let d = g.alloc(N).unwrap();
        let s1 = g.create_stream().unwrap();
        let s2 = g.create_stream().unwrap();
        let e = g.create_event();
        g.memcpy_h2d_async(s1, h, 0, d, N).unwrap();
        g.record_event(s1, e).unwrap();
        g.wait_event(s2, e).unwrap();
        g.launch(
            s2,
            KernelLaunch::new("writer", KernelCost::default(), move |_| Ok(()))
                .writing(d, N),
        )
        .unwrap();
        g.synchronize().unwrap();
    }

    #[test]
    fn concurrent_kernel_slots_overlap_kernels() {
        let mut profile = DeviceProfile::uniform_test();
        profile.max_concurrent_kernels = 3;
        let mut g = Gpu::new(profile, ExecMode::Timing).unwrap();
        let streams: Vec<_> = (0..3).map(|_| g.create_stream().unwrap()).collect();
        // Three 1 ms kernels on three streams.
        for &s in &streams {
            g.launch(
                s,
                KernelLaunch::cost_only(
                    "k",
                    KernelCost {
                        flops: 1_000_000,
                        bytes: 0,
                    },
                ),
            )
            .unwrap();
        }
        g.synchronize().unwrap();
        // With 3 slots all kernels run together: makespan = 1 ms.
        assert_eq!(g.now(), SimTime::from_ms(1));
        assert_eq!(g.counters().kernel_time, SimTime::from_ms(3));

        // With the default single slot they serialize: makespan = 3 ms.
        let mut g = Gpu::new(DeviceProfile::uniform_test(), ExecMode::Timing).unwrap();
        let streams: Vec<_> = (0..3).map(|_| g.create_stream().unwrap()).collect();
        for &s in &streams {
            g.launch(
                s,
                KernelLaunch::cost_only(
                    "k",
                    KernelCost {
                        flops: 1_000_000,
                        bytes: 0,
                    },
                ),
            )
            .unwrap();
        }
        g.synchronize().unwrap();
        assert_eq!(g.now(), SimTime::from_ms(3));
    }

    #[test]
    fn limited_slots_spill_to_later_time() {
        let mut profile = DeviceProfile::uniform_test();
        profile.max_concurrent_kernels = 2;
        let mut g = Gpu::new(profile, ExecMode::Timing).unwrap();
        let streams: Vec<_> = (0..3).map(|_| g.create_stream().unwrap()).collect();
        for &s in &streams {
            g.launch(
                s,
                KernelLaunch::cost_only(
                    "k",
                    KernelCost {
                        flops: 1_000_000,
                        bytes: 0,
                    },
                ),
            )
            .unwrap();
        }
        g.synchronize().unwrap();
        // Two run together, the third follows: 2 ms.
        assert_eq!(g.now(), SimTime::from_ms(2));
    }

    #[test]
    fn dispatch_prefers_lowest_sequence_number() {
        let mut g = gpu();
        let h = g.alloc_host(3 * N, true).unwrap();
        let d = g.alloc(3 * N).unwrap();
        let s1 = g.create_stream().unwrap();
        let s2 = g.create_stream().unwrap();
        let s3 = g.create_stream().unwrap();
        g.memcpy_h2d_async(s1, h, 0, d, N).unwrap();
        g.memcpy_h2d_async(s2, h, N, d.add(N), N).unwrap();
        g.memcpy_h2d_async(s3, h, 2 * N, d.add(2 * N), N).unwrap();
        g.synchronize().unwrap();
        let tl = g.timeline();
        assert_eq!(tl.len(), 3);
        assert_eq!(tl[0].stream, s1.index());
        assert_eq!(tl[1].stream, s2.index());
        assert_eq!(tl[2].stream, s3.index());
    }

    #[test]
    fn peak_memory_includes_streams_and_runtime() {
        let mut g = Gpu::new(DeviceProfile::k40m(), ExecMode::Timing).unwrap();
        let base = g.current_mem();
        assert_eq!(base, DeviceProfile::k40m().base_runtime_mem);
        g.create_stream().unwrap();
        assert_eq!(
            g.current_mem(),
            base + DeviceProfile::k40m().mem_per_stream
        );
    }

    #[test]
    fn api_overhead_accumulates_on_host_clock() {
        let mut g = Gpu::new(DeviceProfile::k40m(), ExecMode::Timing).unwrap();
        let t0 = g.now();
        let _ = g.alloc(1024).unwrap();
        let api = DeviceProfile::k40m().api_overhead;
        assert_eq!(g.now() - t0, api);
        assert_eq!(g.counters().api_calls, 1);
    }

    #[test]
    fn strided_copy_moves_correct_rows() {
        let mut g = gpu();
        let h = g.alloc_host(100, true).unwrap();
        g.host_fill(h, |i| i as f32).unwrap();
        let (d, pitch) = g.alloc_pitched(4, 10).unwrap();
        let c = Copy2D {
            rows: 4,
            row_elems: 10,
            host: h,
            host_off: 3,
            host_stride: 20,
            dev: d,
            dev_stride: pitch,
        };
        g.memcpy2d_h2d_async(g.default_stream(), c).unwrap();
        g.synchronize().unwrap();
        // Row 2 on the device should hold host elements [43, 53).
        let h2 = g.alloc_host(10, true).unwrap();
        g.memcpy_d2h(d.add(2 * pitch), 10, h2, 0).unwrap();
        let mut out = vec![0.0; 10];
        g.host_read(h2, 0, &mut out).unwrap();
        let expect: Vec<f32> = (43..53).map(|x| x as f32).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn device_loss_after_commands_is_terminal() {
        let mut g = gpu();
        let h = g.alloc_host(4 * N, true).unwrap();
        let d = g.alloc(4 * N).unwrap();
        g.host_fill(h, |i| i as f32).unwrap();
        g.set_fault_plan(Some(FaultPlan::seeded(1).device_lost_after(2u64)));
        for i in 0..4 {
            g.memcpy_h2d_async(g.default_stream(), h, i * N, d.add(i * N), N)
                .unwrap();
        }
        assert_eq!(g.synchronize(), Err(SimError::DeviceLost));
        let probe = g.health();
        assert_eq!(probe.retired, 2);
        assert!(matches!(probe.lost, Some((_, LossCause::Injected))));
        assert_eq!(probe.in_flight, 0, "loss vacates the engines");
        assert_eq!(probe.queued, 0, "loss drains the queues");
        let failures = g.take_failures();
        assert_eq!(failures.len(), 2, "the two unfinished copies failed");
        assert!(failures.iter().all(|f| f.error == SimError::DeviceLost));
        // Terminal: the context is drained but rejects all new work.
        g.synchronize().unwrap();
        assert_eq!(
            g.memcpy_h2d_async(g.default_stream(), h, 0, d, N),
            Err(SimError::DeviceLost)
        );
        assert_eq!(g.alloc(N).unwrap_err(), SimError::DeviceLost);
        assert!(g.create_stream().is_err());
    }

    #[test]
    fn device_loss_at_time_fires_exactly_then() {
        let mut g = gpu();
        let h = g.alloc_host(3 * N, true).unwrap();
        let d = g.alloc(3 * N).unwrap();
        // Three 4 ms copies; the device dies mid-second-copy at 6 ms.
        g.set_fault_plan(Some(
            FaultPlan::seeded(1).device_lost_after(SimTime::from_ms(6)),
        ));
        for i in 0..3 {
            g.memcpy_h2d_async(g.default_stream(), h, i * N, d.add(i * N), N)
                .unwrap();
        }
        assert_eq!(g.synchronize(), Err(SimError::DeviceLost));
        let (at, cause) = g.device_lost().unwrap();
        assert_eq!(at, SimTime::from_ms(6), "loss lands exactly on the trigger");
        assert_eq!(cause, LossCause::Injected);
        assert!(g.now() >= SimTime::from_ms(6));
        // One copy retired before the trigger.
        assert_eq!(g.health().retired, 1);
    }

    #[test]
    fn hang_escalates_to_device_loss_after_watchdog_grace() {
        let mut g = gpu();
        let h = g.alloc_host(N, true).unwrap();
        let d = g.alloc(N).unwrap();
        g.set_fault_plan(Some(FaultPlan::seeded(1).hang_rate(1.0)));
        g.set_hang_watchdog(Some(SimTime::from_ms(2)));
        let t0 = g.now();
        g.memcpy_h2d_async(g.default_stream(), h, 0, d, N).unwrap();
        assert_eq!(g.synchronize(), Err(SimError::DeviceLost));
        let (at, cause) = g.device_lost().unwrap();
        assert_eq!(cause, LossCause::HangEscalated);
        assert!(at >= t0 + SimTime::from_ms(2), "grace period elapsed");
        assert_eq!(g.hung_commands(), 0, "escalation releases hung slots");
        let failures = g.take_failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].error, SimError::DeviceLost);
        g.synchronize().unwrap();
    }

    #[test]
    fn hang_blocks_stream_successors_until_escalation() {
        let mut g = gpu();
        let h = g.alloc_host(2 * N, true).unwrap();
        let d = g.alloc(2 * N).unwrap();
        g.host_fill(h, |i| i as f32).unwrap();
        g.set_fault_plan(Some(FaultPlan::seeded(1).hang_rate(1.0)));
        // Two commands on one FIFO: the first hangs, so the second must
        // never dispatch (it would complete out of order otherwise).
        g.memcpy_h2d_async(g.default_stream(), h, 0, d, N).unwrap();
        g.memcpy_h2d_async(g.default_stream(), h, N, d.add(N), N)
            .unwrap();
        assert_eq!(g.synchronize(), Err(SimError::DeviceLost));
        assert_eq!(g.counters().h2d_count, 0, "nothing retired");
        assert_eq!(g.take_failures().len(), 2);
    }

    #[test]
    fn declare_device_lost_kills_in_flight_work() {
        let mut g = gpu();
        let h = g.alloc_host(N, true).unwrap();
        let d = g.alloc(N).unwrap();
        g.memcpy_h2d_async(g.default_stream(), h, 0, d, N).unwrap();
        g.declare_device_lost();
        assert!(matches!(
            g.device_lost(),
            Some((_, LossCause::Declared))
        ));
        g.synchronize().unwrap();
        assert_eq!(g.take_failures().len(), 1);
        assert_eq!(
            g.memcpy_h2d_async(g.default_stream(), h, 0, d, N),
            Err(SimError::DeviceLost)
        );
        // Idempotent.
        g.declare_device_lost();
    }

    #[test]
    fn spikes_are_counted() {
        let mut g = gpu();
        let h = g.alloc_host(3 * N, true).unwrap();
        let d = g.alloc(3 * N).unwrap();
        g.set_fault_plan(Some(FaultPlan::seeded(1).spikes(1.0, 2.0)));
        for i in 0..3 {
            g.memcpy_h2d_async(g.default_stream(), h, i * N, d.add(i * N), N)
                .unwrap();
        }
        g.synchronize().unwrap();
        assert_eq!(g.spikes_injected(), 3);
        assert_eq!(g.counters().spikes, 3);
        // Spiked copies really took twice as long.
        assert!(g.counters().h2d_time >= SimTime::from_ms(3 * 2 * COPY_MS));
        g.reset_counters();
        assert_eq!(g.spikes_injected(), 0);
    }
}
