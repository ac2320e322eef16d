//! Deterministic, seeded fault injection.
//!
//! A [`FaultPlan`] attached to a [`Gpu`](crate::Gpu) via
//! [`Gpu::set_fault_plan`](crate::Gpu::set_fault_plan) makes the device
//! misbehave on purpose — failed transfers, kernel faults, transient
//! allocation OOM, latency spikes — without touching application code.
//! Runtimes above the simulator (the `pipeline-rt` retry/degradation
//! layer) use it to exercise their recovery paths under a *reproducible*
//! failure schedule.
//!
//! Every decision is a pure function of `(seed, stage, occurrence)`:
//! the n-th H2D copy either fails or not regardless of interleaving, so
//! a run with a given plan is exactly repeatable. Injected failures
//! surface as [`SimError::Injected`], distinguishable from genuine
//! simulator errors so retry policies can classify them as transient.

use crate::cmd::EngineKind;
use crate::error::SimError;
use crate::label::Label;
use crate::time::SimTime;
use std::fmt;

/// Which pipeline stage a fault targets (or hit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultStage {
    /// Host→device copies (contiguous and strided).
    H2d,
    /// Device→host copies (contiguous and strided).
    D2h,
    /// Kernel launches (`Memset`/`D2D` are not considered kernels here).
    Kernel,
    /// Device allocations (`alloc` / `alloc_pitched`): transient OOM.
    Alloc,
}

impl FaultStage {
    /// All stages, in bucket order.
    pub const ALL: [FaultStage; 4] = [
        FaultStage::H2d,
        FaultStage::D2h,
        FaultStage::Kernel,
        FaultStage::Alloc,
    ];

    /// Stable bucket index.
    pub fn index(self) -> usize {
        match self {
            FaultStage::H2d => 0,
            FaultStage::D2h => 1,
            FaultStage::Kernel => 2,
            FaultStage::Alloc => 3,
        }
    }

    /// Stable short name for tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            FaultStage::H2d => "h2d",
            FaultStage::D2h => "d2h",
            FaultStage::Kernel => "kernel",
            FaultStage::Alloc => "alloc",
        }
    }
}

impl fmt::Display for FaultStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// When a whole-context loss fires, relative to the plan's installation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossTrigger {
    /// The device dies after retiring this many engine commands.
    Commands(u64),
    /// The device dies once its clock reaches this simulated instant.
    Time(SimTime),
}

impl From<u64> for LossTrigger {
    fn from(cmds: u64) -> LossTrigger {
        LossTrigger::Commands(cmds)
    }
}

impl From<SimTime> for LossTrigger {
    fn from(t: SimTime) -> LossTrigger {
        LossTrigger::Time(t)
    }
}

/// A deterministic fault-injection schedule for one device context.
///
/// Probabilistic rates are evaluated per command *occurrence* (the n-th
/// H2D copy executed since the plan was installed), independent of
/// stream interleaving; `targeted` entries fire exactly once at a given
/// occurrence. Build with [`FaultPlan::seeded`] and the fluent setters:
///
/// ```
/// use gpsim::{FaultPlan, FaultStage};
/// let plan = FaultPlan::seeded(42)
///     .h2d_rate(0.05)
///     .target(FaultStage::Kernel, 3)
///     .spikes(0.01, 8.0)
///     .max_faults(10);
/// assert_eq!(plan.seed, 42);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-occurrence hash; two plans with equal seeds and
    /// rates produce identical schedules.
    pub seed: u64,
    /// Per-occurrence failure probability per stage, indexed by
    /// [`FaultStage::index`] (alloc faults model transient OOM).
    pub rates: [f64; 4],
    /// Commands guaranteed to fail: `(stage, occurrence)` pairs, where
    /// occurrence counts that stage's commands from 0.
    pub targeted: Vec<(FaultStage, u64)>,
    /// Per-occurrence probability that a command's duration is stretched
    /// by `spike_factor` (models driver hiccups / ECC scrubbing pauses).
    pub spike_rate: f64,
    /// Duration multiplier for latency spikes (≥ 1).
    pub spike_factor: f64,
    /// Stop injecting after this many failures (spikes excluded);
    /// `None` = unbounded.
    pub max_faults: Option<u64>,
    /// Whole-context loss: the device dies (terminally) once this
    /// trigger is reached. Unlike per-command faults, a loss is not
    /// retryable on the same context.
    pub lost_after: Option<LossTrigger>,
    /// Per-occurrence probability that an engine command *hangs*: it is
    /// dispatched but its completion never fires, wedging its stream and
    /// engine slot until a watchdog escalates the context to lost.
    pub hang_rate: f64,
}

impl FaultPlan {
    /// A plan with the given seed and no faults configured.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: [0.0; 4],
            targeted: Vec::new(),
            spike_rate: 0.0,
            spike_factor: 4.0,
            max_faults: None,
            lost_after: None,
            hang_rate: 0.0,
        }
    }

    /// Set the failure probability of one stage.
    #[must_use]
    pub fn rate(mut self, stage: FaultStage, p: f64) -> FaultPlan {
        self.rates[stage.index()] = p;
        self
    }

    /// Failure probability of H2D copies.
    #[must_use]
    pub fn h2d_rate(self, p: f64) -> FaultPlan {
        self.rate(FaultStage::H2d, p)
    }

    /// Failure probability of D2H copies.
    #[must_use]
    pub fn d2h_rate(self, p: f64) -> FaultPlan {
        self.rate(FaultStage::D2h, p)
    }

    /// Failure probability of kernel launches.
    #[must_use]
    pub fn kernel_rate(self, p: f64) -> FaultPlan {
        self.rate(FaultStage::Kernel, p)
    }

    /// Probability that a device allocation transiently fails.
    #[must_use]
    pub fn alloc_rate(self, p: f64) -> FaultPlan {
        self.rate(FaultStage::Alloc, p)
    }

    /// Guarantee a failure at the given occurrence of a stage.
    #[must_use]
    pub fn target(mut self, stage: FaultStage, occurrence: u64) -> FaultPlan {
        self.targeted.push((stage, occurrence));
        self
    }

    /// Inject latency spikes: each engine command's duration is
    /// multiplied by `factor` with probability `p`.
    #[must_use]
    pub fn spikes(mut self, p: f64, factor: f64) -> FaultPlan {
        self.spike_rate = p;
        self.spike_factor = factor.max(1.0);
        self
    }

    /// Bound the total number of injected failures.
    #[must_use]
    pub fn max_faults(mut self, n: u64) -> FaultPlan {
        self.max_faults = Some(n);
        self
    }

    /// Lose the whole context after retiring `n` engine commands
    /// (`u64`) or at a simulated instant ([`SimTime`]). Terminal: every
    /// later enqueue or allocation fails with
    /// [`SimError::DeviceLost`](crate::SimError::DeviceLost).
    #[must_use]
    pub fn device_lost_after(mut self, when: impl Into<LossTrigger>) -> FaultPlan {
        self.lost_after = Some(when.into());
        self
    }

    /// Per-occurrence probability that an engine command hangs (its
    /// completion never fires).
    #[must_use]
    pub fn hang_rate(mut self, p: f64) -> FaultPlan {
        self.hang_rate = p;
        self
    }

    /// Shift a pending [`LossTrigger::Time`] forward by `base`, turning
    /// a loss instant authored as "this long after arming" into an
    /// absolute device-clock instant. Fleet contexts need this: their
    /// clocks have already advanced (calibration probes, earlier jobs)
    /// by the time a plan is installed, so an unrebased small `Time`
    /// trigger would fire immediately. Command-count triggers and rates
    /// are unaffected — occurrence counters reset at install time.
    #[must_use]
    pub fn rebased(mut self, base: SimTime) -> FaultPlan {
        if let Some(LossTrigger::Time(t)) = self.lost_after {
            self.lost_after = Some(LossTrigger::Time(base + t));
        }
        self
    }

    /// True if the plan can never inject anything (all rates zero, no
    /// targets) — such a plan is free at runtime.
    pub fn is_noop(&self) -> bool {
        self.rates.iter().all(|&r| r <= 0.0)
            && self.targeted.is_empty()
            && self.spike_rate <= 0.0
            && self.lost_after.is_none()
            && self.hang_rate <= 0.0
    }
}

/// One command failure retired by the simulator — injected or genuine —
/// recorded so runtimes can map a failed sequence number back to the
/// chunk/stage that produced it.
#[derive(Debug, Clone)]
pub struct FailureRecord {
    /// Enqueue sequence number of the failed command.
    pub seq: u64,
    /// Stream the command ran on.
    pub stream: usize,
    /// Engine that executed it.
    pub engine: EngineKind,
    /// Command label (e.g. `h2d[65536]`).
    pub label: Label,
    /// Completion time of the failing command.
    pub end: SimTime,
    /// The error the command surfaced.
    pub error: SimError,
}

/// SplitMix64: a strong 64-bit mix, used to derive an i.i.d.-looking
/// decision stream from `(seed, stage, occurrence)`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Uniform `[0, 1)` draw for one `(seed, salt, occurrence)` triple.
fn unit_draw(seed: u64, salt: u64, occurrence: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(salt) ^ splitmix64(occurrence.wrapping_mul(0xa076_1d64_78bd_642f)));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Runtime state of an installed plan: the plan plus per-stage
/// occurrence counters.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    /// Commands seen so far per stage, indexed by [`FaultStage::index`].
    occurrences: [u64; 4],
    /// Engine commands seen by the spike roll.
    spike_occurrences: u64,
    /// Engine commands seen by the hang roll.
    hang_occurrences: u64,
    /// Engine commands retired since the plan was installed — drives
    /// [`LossTrigger::Commands`].
    pub(crate) retired_cmds: u64,
    /// Failures injected so far.
    pub(crate) injected: u64,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> FaultState {
        FaultState {
            plan,
            occurrences: [0; 4],
            spike_occurrences: 0,
            hang_occurrences: 0,
            retired_cmds: 0,
            injected: 0,
        }
    }

    /// Consume one occurrence of `stage`; returns the injected error if
    /// the plan says this occurrence fails.
    pub(crate) fn roll(&mut self, stage: FaultStage) -> Option<SimError> {
        let occ = self.occurrences[stage.index()];
        self.occurrences[stage.index()] += 1;
        if let Some(max) = self.plan.max_faults {
            if self.injected >= max {
                return None;
            }
        }
        let targeted = self.plan.targeted.iter().any(|&(s, o)| s == stage && o == occ);
        let hit = targeted || {
            let p = self.plan.rates[stage.index()];
            p > 0.0 && unit_draw(self.plan.seed, stage.index() as u64 + 1, occ) < p
        };
        if hit {
            self.injected += 1;
            Some(SimError::Injected {
                stage,
                occurrence: occ,
            })
        } else {
            None
        }
    }

    /// Consume one spike roll; returns the duration multiplier (1.0 when
    /// no spike fires).
    pub(crate) fn roll_spike(&mut self) -> f64 {
        let occ = self.spike_occurrences;
        self.spike_occurrences += 1;
        if self.plan.spike_rate > 0.0
            && unit_draw(self.plan.seed, 0x5eed_0000_0000_0005, occ) < self.plan.spike_rate
        {
            self.plan.spike_factor
        } else {
            1.0
        }
    }

    /// Consume one hang roll; true if this dispatched command's
    /// completion never fires.
    pub(crate) fn roll_hang(&mut self) -> bool {
        let occ = self.hang_occurrences;
        self.hang_occurrences += 1;
        self.plan.hang_rate > 0.0
            && unit_draw(self.plan.seed, 0x5eed_0000_0000_0006, occ) < self.plan.hang_rate
    }

    /// True once the plan's loss trigger (if any) has been reached.
    pub(crate) fn loss_due(&self, now: SimTime) -> bool {
        match self.plan.lost_after {
            Some(LossTrigger::Commands(n)) => self.retired_cmds >= n,
            Some(LossTrigger::Time(t)) => now >= t,
            None => false,
        }
    }

    /// The pending [`LossTrigger::Time`] instant, if one is configured.
    pub(crate) fn loss_at(&self) -> Option<SimTime> {
        match self.plan.lost_after {
            Some(LossTrigger::Time(t)) => Some(t),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_and_uniform_ish() {
        let a = unit_draw(1, 2, 3);
        assert_eq!(a, unit_draw(1, 2, 3));
        assert!((0.0..1.0).contains(&a));
        // A 30% rate over 1000 occurrences should land near 300.
        let hits = (0..1000)
            .filter(|&o| unit_draw(7, 1, o) < 0.3)
            .count();
        assert!((200..400).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn targeted_faults_fire_exactly_once() {
        let plan = FaultPlan::seeded(0).target(FaultStage::Kernel, 2);
        let mut st = FaultState::new(plan);
        assert!(st.roll(FaultStage::Kernel).is_none());
        assert!(st.roll(FaultStage::Kernel).is_none());
        let e = st.roll(FaultStage::Kernel).unwrap();
        assert!(matches!(
            e,
            SimError::Injected {
                stage: FaultStage::Kernel,
                occurrence: 2
            }
        ));
        assert!(st.roll(FaultStage::Kernel).is_none());
        // Other stages untouched.
        let mut st2 = FaultState::new(FaultPlan::seeded(0).target(FaultStage::Kernel, 0));
        assert!(st2.roll(FaultStage::H2d).is_none());
    }

    #[test]
    fn max_faults_caps_injection() {
        let plan = FaultPlan::seeded(0).h2d_rate(1.0).max_faults(2);
        let mut st = FaultState::new(plan);
        let n = (0..10).filter(|_| st.roll(FaultStage::H2d).is_some()).count();
        assert_eq!(n, 2);
    }

    #[test]
    fn noop_plan_is_detected() {
        assert!(FaultPlan::seeded(9).is_noop());
        assert!(!FaultPlan::seeded(9).h2d_rate(0.1).is_noop());
        assert!(!FaultPlan::seeded(9).target(FaultStage::Alloc, 0).is_noop());
        assert!(!FaultPlan::seeded(9).spikes(0.1, 2.0).is_noop());
    }

    #[test]
    fn loss_trigger_forms_and_noop() {
        let plan = FaultPlan::seeded(3).device_lost_after(10u64);
        assert_eq!(plan.lost_after, Some(LossTrigger::Commands(10)));
        assert!(!plan.is_noop());
        let plan = FaultPlan::seeded(3).device_lost_after(SimTime::from_us(7));
        assert_eq!(plan.lost_after, Some(LossTrigger::Time(SimTime::from_us(7))));
        assert!(!FaultPlan::seeded(3).hang_rate(0.5).is_noop());

        let mut st = FaultState::new(FaultPlan::seeded(3).device_lost_after(2u64));
        assert!(!st.loss_due(SimTime::ZERO));
        st.retired_cmds = 2;
        assert!(st.loss_due(SimTime::ZERO));
        let st = FaultState::new(FaultPlan::seeded(3).device_lost_after(SimTime::from_us(7)));
        assert!(!st.loss_due(SimTime::from_us(6)));
        assert!(st.loss_due(SimTime::from_us(7)));
        assert_eq!(st.loss_at(), Some(SimTime::from_us(7)));
    }

    #[test]
    fn rebase_shifts_only_time_triggers() {
        let base = SimTime::from_us(100);
        let t = FaultPlan::seeded(1)
            .device_lost_after(SimTime::from_us(7))
            .rebased(base);
        assert_eq!(t.lost_after, Some(LossTrigger::Time(SimTime::from_us(107))));
        let c = FaultPlan::seeded(1).device_lost_after(5u64).rebased(base);
        assert_eq!(c.lost_after, Some(LossTrigger::Commands(5)));
        let none = FaultPlan::seeded(1).h2d_rate(0.5).rebased(base);
        assert_eq!(none.lost_after, None);
    }

    #[test]
    fn hang_roll_is_deterministic() {
        let mut a = FaultState::new(FaultPlan::seeded(11).hang_rate(0.3));
        let mut b = FaultState::new(FaultPlan::seeded(11).hang_rate(0.3));
        let sa: Vec<bool> = (0..100).map(|_| a.roll_hang()).collect();
        let sb: Vec<bool> = (0..100).map(|_| b.roll_hang()).collect();
        assert_eq!(sa, sb);
        let hits = sa.iter().filter(|&&h| h).count();
        assert!((10..60).contains(&hits), "hits = {hits}");
        let mut never = FaultState::new(FaultPlan::seeded(11));
        assert!((0..100).all(|_| !never.roll_hang()));
    }

    #[test]
    fn spike_roll_returns_factor() {
        let mut st = FaultState::new(FaultPlan::seeded(1).spikes(1.0, 3.0));
        assert_eq!(st.roll_spike(), 3.0);
        let mut st = FaultState::new(FaultPlan::seeded(1));
        assert_eq!(st.roll_spike(), 1.0);
    }
}
