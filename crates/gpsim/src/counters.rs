//! Per-run accounting: phase times, byte counts, command counts, and an
//! optional command timeline.
//!
//! These counters drive the paper's Figure 3 (time distribution of
//! DtoH / HtoD / Kernel phases in the naive model) and are used throughout
//! the test suite to assert overlap actually happened (busy time exceeding
//! the makespan is only possible with concurrency).

use crate::cmd::EngineKind;
use crate::label::Label;
use crate::time::SimTime;

/// Aggregated activity counters for a simulation context.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Total busy time of the host→device copy engine.
    pub h2d_time: SimTime,
    /// Total busy time of the device→host copy engine.
    pub d2h_time: SimTime,
    /// Total busy time of the compute engine.
    pub kernel_time: SimTime,
    /// Host-side time spent inside driver API calls.
    pub host_api_time: SimTime,
    /// Bytes moved host→device.
    pub h2d_bytes: u64,
    /// Bytes moved device→host.
    pub d2h_bytes: u64,
    /// Number of host→device copy commands completed.
    pub h2d_count: u64,
    /// Number of device→host copy commands completed.
    pub d2h_count: u64,
    /// Number of compute-engine commands completed (kernels, memsets,
    /// device-to-device copies).
    pub kernel_count: u64,
    /// Number of driver API calls made (enqueues, records, syncs...).
    pub api_calls: u64,
    /// Commands whose duration was stretched by an injected latency
    /// spike (see [`FaultPlan::spikes`](crate::FaultPlan::spikes)).
    pub spikes: u64,
}

impl Counters {
    /// Engine busy time by kind.
    pub fn engine_time(&self, kind: EngineKind) -> SimTime {
        match kind {
            EngineKind::H2D => self.h2d_time,
            EngineKind::D2H => self.d2h_time,
            EngineKind::Compute => self.kernel_time,
        }
    }

    /// Sum of all engine busy times — the serialized lower bound on how
    /// long this work would take with zero overlap.
    pub fn total_busy(&self) -> SimTime {
        self.h2d_time + self.d2h_time + self.kernel_time
    }

    /// Fraction of `total_busy` spent in transfers (both directions).
    pub fn transfer_fraction(&self) -> f64 {
        let total = self.total_busy().as_ns();
        if total == 0 {
            return 0.0;
        }
        (self.h2d_time + self.d2h_time).as_ns() as f64 / total as f64
    }
}

/// Classification of a timeline entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimelineKind {
    /// Host→device copy.
    H2D,
    /// Device→host copy.
    D2H,
    /// Kernel execution.
    Kernel,
}

impl TimelineKind {
    pub(crate) fn from_engine(e: EngineKind) -> TimelineKind {
        match e {
            EngineKind::H2D => TimelineKind::H2D,
            EngineKind::D2H => TimelineKind::D2H,
            EngineKind::Compute => TimelineKind::Kernel,
        }
    }
}

/// One completed engine command on the device timeline.
#[derive(Debug, Clone)]
pub struct TimelineEntry {
    /// Display label (`h2d[4096]`, kernel name, ...): the command's
    /// numeric key or its kernel name, rendered only when displayed.
    pub label: Label,
    /// Entry class.
    pub kind: TimelineKind,
    /// Stream index the command ran on.
    pub stream: usize,
    /// Start instant (ns since context creation).
    pub start_ns: u64,
    /// End instant (ns since context creation).
    pub end_ns: u64,
    /// Global enqueue sequence number — the flow id correlating this
    /// device slice with the host-side enqueue span that issued it.
    pub seq: u64,
    /// Host-clock instant at which the command was enqueued.
    pub enqueue_ns: u64,
}

impl TimelineEntry {
    /// Duration of the entry.
    pub fn duration(&self) -> SimTime {
        SimTime::from_ns(self.end_ns - self.start_ns)
    }

    /// True if this entry overlaps `other` in time.
    pub fn overlaps(&self, other: &TimelineEntry) -> bool {
        self.start_ns < other.end_ns && other.start_ns < self.end_ns
    }
}

/// Classification of a host-side runtime span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostSpanKind {
    /// Time inside a driver enqueue call (async copy, kernel launch,
    /// event record/wait). Carries the flow id of the enqueued command.
    Enqueue,
    /// A blocking synchronize (`cudaDeviceSynchronize` /
    /// `cudaStreamSynchronize` analogue).
    Sync,
    /// Runtime planning work (chunking, ring sizing, stream assignment).
    Plan,
    /// Other host-side runtime bookkeeping (queue polling, waits).
    Wait,
}

impl HostSpanKind {
    /// Stable lowercase name for trace export.
    pub fn name(self) -> &'static str {
        match self {
            HostSpanKind::Enqueue => "enqueue",
            HostSpanKind::Sync => "sync",
            HostSpanKind::Plan => "plan",
            HostSpanKind::Wait => "wait",
        }
    }

    /// Inverse of [`name`](HostSpanKind::name), used by trace importers.
    pub fn from_name(name: &str) -> Option<HostSpanKind> {
        match name {
            "enqueue" => Some(HostSpanKind::Enqueue),
            "sync" => Some(HostSpanKind::Sync),
            "plan" => Some(HostSpanKind::Plan),
            "wait" => Some(HostSpanKind::Wait),
            _ => None,
        }
    }
}

/// One host-side runtime span on the host-clock timeline.
#[derive(Debug, Clone)]
pub struct HostSpan {
    /// Display label (command label, `"synchronize"`, ...). A numeric
    /// key or static text; shared text only for bespoke runtime spans
    /// built with `format!` and for imported traces.
    pub label: Label,
    /// Span class.
    pub kind: HostSpanKind,
    /// Start instant on the host clock (ns since context creation).
    pub start_ns: u64,
    /// End instant on the host clock (ns).
    pub end_ns: u64,
    /// Flow id (the enqueued command's sequence number) linking this span
    /// to its device-side slice, when there is one.
    pub flow: Option<u64>,
}

/// Why a resolved event wait delayed its stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitCause {
    /// Ordinary cross-stream data dependency (e.g. a halo slice copied by
    /// another stream's H2D group).
    Dependency,
    /// Ring-slot reuse: the buffer is too small, so the stream stalls
    /// until the slot's previous occupant is no longer in use.
    RingReuse,
    /// Retry backoff: a runtime recovery layer paused the stream before
    /// re-enqueueing a failed chunk's commands.
    Retry,
}

impl WaitCause {
    /// Stable lowercase name for trace export (and re-import).
    pub fn name(self) -> &'static str {
        match self {
            WaitCause::Dependency => "dependency",
            WaitCause::RingReuse => "ring-reuse",
            WaitCause::Retry => "retry",
        }
    }

    /// Inverse of [`name`](WaitCause::name), used by trace importers.
    pub fn from_name(name: &str) -> Option<WaitCause> {
        match name {
            "dependency" => Some(WaitCause::Dependency),
            "ring-reuse" => Some(WaitCause::RingReuse),
            "retry" => Some(WaitCause::Retry),
            _ => None,
        }
    }
}

/// A resolved event wait that actually delayed its stream: the stream
/// would have been ready at `from_ns` but could not proceed until
/// `until_ns`.
#[derive(Debug, Clone, Copy)]
pub struct WaitRecord {
    /// Stream index that stalled.
    pub stream: usize,
    /// Why the wait was inserted.
    pub cause: WaitCause,
    /// Instant the stream became otherwise ready (ns).
    pub from_ns: u64,
    /// Instant the awaited event completed (ns).
    pub until_ns: u64,
}

impl WaitRecord {
    /// How long the stream stalled.
    pub fn duration(&self) -> SimTime {
        SimTime::from_ns(self.until_ns - self.from_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_fraction() {
        let c = Counters {
            h2d_time: SimTime::from_ms(30),
            d2h_time: SimTime::from_ms(20),
            kernel_time: SimTime::from_ms(50),
            ..Default::default()
        };
        assert!((c.transfer_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(c.total_busy(), SimTime::from_ms(100));
        assert_eq!(c.engine_time(EngineKind::H2D), SimTime::from_ms(30));
    }

    #[test]
    fn empty_counters_have_zero_fraction() {
        assert_eq!(Counters::default().transfer_fraction(), 0.0);
    }

    #[test]
    fn timeline_overlap() {
        let a = TimelineEntry {
            label: "a".into(),
            kind: TimelineKind::H2D,
            stream: 0,
            start_ns: 0,
            end_ns: 10,
            seq: 0,
            enqueue_ns: 0,
        };
        let b = TimelineEntry {
            label: "b".into(),
            kind: TimelineKind::Kernel,
            stream: 1,
            start_ns: 5,
            end_ns: 15,
            seq: 1,
            enqueue_ns: 0,
        };
        let c = TimelineEntry {
            label: "c".into(),
            kind: TimelineKind::D2H,
            stream: 2,
            start_ns: 10,
            end_ns: 20,
            seq: 2,
            enqueue_ns: 0,
        };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c), "touching intervals do not overlap");
        assert_eq!(a.duration(), SimTime::from_ns(10));
    }
}
