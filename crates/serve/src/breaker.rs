//! Per-device circuit breaker.
//!
//! The failover path makes a single device loss cheap, but a device
//! that fails *every other quantum* (flaky link, marginal board) would
//! keep soaking up dispatches, failing them, and forcing restores. The
//! breaker watches a sliding window of the last 8 per-quantum outcomes
//! and takes the device out of rotation once half of them failed. After
//! a 2 ms cooldown it admits exactly one probe quantum (half-open); a
//! clean probe closes the breaker, a failed probe re-opens it with a
//! doubled cooldown, capped at 1 s. Every device of a `serve` call
//! carries one.
//!
//! All decisions are pure functions of the recorded outcome sequence
//! and the simulated clock — no wall-clock anywhere.

use gpsim::SimTime;

/// Sliding window length, in recorded quanta.
const WINDOW: usize = 8;
/// Open when `failures / WINDOW >= THRESHOLD` with a full window.
const THRESHOLD: f64 = 0.5;
/// Initial cooldown before the first half-open probe; doubles on every
/// failed probe, up to [`MAX_COOLDOWN`].
const COOLDOWN: SimTime = SimTime::from_ms(2);
/// Longest cooldown: a device that keeps failing its probes is retried
/// at least this often, and the reopen instant cannot overflow.
const MAX_COOLDOWN: SimTime = SimTime::from_ms(1_000);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Healthy: all dispatches admitted.
    Closed,
    /// Tripped: no dispatches until the cooldown passes; the first
    /// dispatch after it is the half-open probe.
    Open { until: SimTime },
    /// A probe quantum is in flight; its outcome decides.
    HalfOpen,
}

/// The breaker for one device.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    state: State,
    /// Ring buffer of recent outcomes (true = quantum failed).
    recent: [bool; WINDOW],
    next_slot: usize,
    filled: usize,
    /// Current cooldown (doubles per consecutive failed probe, up to
    /// [`MAX_COOLDOWN`]).
    backoff: SimTime,
    /// Times the breaker has opened (reported).
    trips: u64,
}

impl Default for CircuitBreaker {
    /// A closed breaker.
    fn default() -> CircuitBreaker {
        CircuitBreaker {
            state: State::Closed,
            recent: [false; WINDOW],
            next_slot: 0,
            filled: 0,
            backoff: COOLDOWN,
            trips: 0,
        }
    }
}

impl CircuitBreaker {
    /// Whether a dispatch to this device is admitted at `now`. An
    /// expired `Open` admits (that dispatch becomes the half-open
    /// probe); this is a pure query — state moves in [`record`].
    ///
    /// [`record`]: CircuitBreaker::record
    pub fn admits(&self, now: SimTime) -> bool {
        match self.state {
            State::Closed | State::HalfOpen => true,
            State::Open { until } => now >= until,
        }
    }

    /// Earliest time a dispatch could be admitted, if currently open.
    pub fn retry_at(&self) -> Option<SimTime> {
        match self.state {
            State::Open { until } => Some(until),
            _ => None,
        }
    }

    /// Record the outcome of a dispatched quantum ending at `now`
    /// (`ok = false` for a device loss, hang escalation or any fault
    /// that killed the quantum).
    pub fn record(&mut self, now: SimTime, ok: bool) {
        // A dispatch that went out while Open (past its cooldown) was
        // the half-open probe, even if nobody called a transition.
        let probing = matches!(self.state, State::HalfOpen)
            || matches!(self.state, State::Open { until } if now >= until);
        self.recent[self.next_slot] = !ok;
        self.next_slot = (self.next_slot + 1) % WINDOW;
        self.filled = (self.filled + 1).min(WINDOW);
        if probing {
            if ok {
                // Healthy again: close and forget the failure history.
                self.state = State::Closed;
                self.backoff = COOLDOWN;
                self.recent.fill(false);
                self.filled = 0;
            } else {
                self.trip(now);
            }
            return;
        }
        if !ok && self.filled == WINDOW {
            let failures = self.recent.iter().filter(|&&f| f).count();
            if failures as f64 >= THRESHOLD * WINDOW as f64 {
                self.trip(now);
            }
        }
    }

    /// Open until `now` plus the current cooldown, then double it up to
    /// [`MAX_COOLDOWN`].
    fn trip(&mut self, now: SimTime) {
        self.trips += 1;
        self.state = State::Open {
            until: now + self.backoff,
        };
        self.backoff = (self.backoff + self.backoff).min(MAX_COOLDOWN);
    }

    /// Mark the in-flight dispatch as the half-open probe (call when
    /// dispatching to a device whose cooldown just expired).
    pub fn begin_probe(&mut self) {
        if matches!(self.state, State::Open { .. }) {
            self.state = State::HalfOpen;
        }
    }

    /// Whether the breaker currently blocks dispatch (open, cooldown
    /// not yet expired is still "open" until a probe succeeds).
    pub fn is_open(&self) -> bool {
        matches!(self.state, State::Open { .. })
    }

    /// Times this breaker has opened.
    pub fn trips(&self) -> u64 {
        self.trips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opens_at_threshold_and_probes_after_cooldown() {
        let mut b = CircuitBreaker::default();
        let t = SimTime::from_us(10);
        // 4 failures in a window of 8 hits the 0.5 threshold.
        for i in 0..WINDOW - 1 {
            b.record(t, i % 2 == 0);
        }
        assert!(b.admits(t), "below threshold stays closed");
        b.record(t, false);
        assert!(b.is_open());
        assert!(!b.admits(t), "cooldown blocks dispatch");
        assert_eq!(b.trips(), 1);
        let later = t + COOLDOWN;
        assert!(b.admits(later), "expired cooldown admits the probe");
    }

    #[test]
    fn clean_probe_closes_failed_probe_doubles_backoff() {
        let mut b = CircuitBreaker::default();
        let t = SimTime::ZERO;
        for _ in 0..WINDOW {
            b.record(t, false);
        }
        assert!(b.is_open());
        // Failed probe: re-open with doubled cooldown.
        let p1 = t + COOLDOWN;
        b.begin_probe();
        b.record(p1, false);
        assert!(b.is_open());
        assert!(!b.admits(p1 + COOLDOWN), "backoff doubled");
        assert!(b.admits(p1 + COOLDOWN + COOLDOWN));
        assert_eq!(b.trips(), 2);
        // Clean probe: fully closed, history cleared.
        let p2 = p1 + COOLDOWN + COOLDOWN;
        b.begin_probe();
        b.record(p2, true);
        assert!(!b.is_open());
        // One fresh failure must not instantly re-open (window reset).
        b.record(p2, false);
        assert!(!b.is_open());
    }

    /// Regression: the cooldown doubled with no cap, so about 43 failed
    /// probes in a row overflowed `now + backoff` (a panic in debug, a
    /// reopen instant near `u64::MAX` ns in release).
    #[test]
    fn cooldown_stops_doubling_at_the_cap() {
        let mut b = CircuitBreaker::default();
        let mut now = SimTime::ZERO;
        for _ in 0..WINDOW {
            b.record(now, false);
        }
        for probe in 0..64 {
            now = b.retry_at().expect("a failed probe re-opens");
            b.begin_probe();
            b.record(now, false);
            let wait = b.retry_at().expect("a failed probe re-opens") - now;
            assert!(wait <= MAX_COOLDOWN, "probe {probe}: cooldown {wait}");
        }
        assert_eq!(b.retry_at().unwrap() - now, MAX_COOLDOWN);
        assert_eq!(b.trips(), 65);
    }

    #[test]
    fn probe_outcome_applies_even_without_begin_probe() {
        // The serial server may dispatch straight off an expired Open
        // without an explicit transition call; record() must still
        // treat that outcome as the probe's.
        let mut b = CircuitBreaker::default();
        for _ in 0..WINDOW {
            b.record(SimTime::ZERO, false);
        }
        let after = COOLDOWN;
        assert!(b.admits(after));
        b.record(after, true);
        assert!(!b.is_open(), "clean probe closes");
    }
}
