//! Per-tenant SLO accounting and the final serving report.

use crate::admission::RejectionCounts;
use gpsim::SimTime;
use pipeline_rt::Histogram;

/// Jain's fairness index over per-tenant normalized service:
/// `(Σx)² / (n·Σx²)`, 1.0 when every tenant's `service/weight` is
/// equal, approaching `1/n` under total capture by one tenant.
pub fn jain_index(normalized: &[f64]) -> f64 {
    let n = normalized.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = normalized.iter().sum();
    let sq: f64 = normalized.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sq)
}

/// One tenant's accumulated statistics.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Tenant display name.
    pub name: String,
    /// Fair-share weight.
    pub weight: f64,
    /// Jobs submitted by this tenant.
    pub submitted: u64,
    /// Jobs completed.
    pub done: u64,
    /// Completed jobs that were preempted at least once.
    pub preempted: u64,
    /// Total slices across this tenant's completed jobs.
    pub slices: u64,
    /// Jobs that finished after their deadline.
    pub deadline_misses: u64,
    /// Jobs that carried a deadline (denominator for the miss rate).
    pub deadline_total: u64,
    /// Deadline-carrying jobs that were rejected at admission. These
    /// count as misses in [`TenantStats::miss_rate`], so shedding can
    /// never game the deadline gate.
    pub deadline_rejected: u64,
    /// Jobs rejected at admission, by reason.
    pub rejected: RejectionCounts,
    /// Completed jobs that survived a device loss or hang escalation.
    pub recovered: u64,
    /// Slices run under a downgraded exec model (overload degradation).
    pub degraded_slices: u64,
    /// Total device time consumed (what fair sharing divides).
    pub service: SimTime,
    /// Queue wait: arrival → first dispatch.
    pub queue_wait: Histogram,
    /// Makespan: arrival → completion.
    pub makespan: Histogram,
}

impl TenantStats {
    /// Fresh stats for a named tenant.
    pub fn new(name: String, weight: f64) -> TenantStats {
        TenantStats {
            name,
            weight,
            submitted: 0,
            done: 0,
            preempted: 0,
            slices: 0,
            deadline_misses: 0,
            deadline_total: 0,
            deadline_rejected: 0,
            rejected: RejectionCounts::default(),
            recovered: 0,
            degraded_slices: 0,
            service: SimTime::ZERO,
            queue_wait: Histogram::default(),
            makespan: Histogram::default(),
        }
    }

    /// Service normalized by weight — the fairness coordinate.
    pub fn normalized_service(&self) -> f64 {
        self.service.as_secs_f64() / self.weight
    }

    /// Deadline miss rate: `(late finishes + rejected deadline jobs) /
    /// deadline jobs submitted`. `None` when no job carried a deadline.
    pub fn miss_rate(&self) -> Option<f64> {
        if self.deadline_total == 0 {
            return None;
        }
        Some((self.deadline_misses + self.deadline_rejected) as f64 / self.deadline_total as f64)
    }
}

/// The complete outcome of one serving run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Devices in the fleet.
    pub devices: usize,
    /// Jobs submitted across all tenants.
    pub submitted: u64,
    /// Jobs completed. Every admitted job completes — the simulated
    /// stream is finite and the server drains it — so
    /// `done + rejected.total() == submitted` always holds; anything
    /// else is an accepted job lost, which the chaos gates forbid.
    pub done: u64,
    /// Jobs rejected at admission, by reason (fleet-wide roll-up).
    pub rejected: RejectionCounts,
    /// Completed jobs that were preempted at least once.
    pub preempted: u64,
    /// Completed jobs that survived a device loss or hang escalation
    /// (re-placed on survivors from their checkpoint cursor).
    pub recovered: u64,
    /// Total slices across all completed jobs.
    pub total_slices: u64,
    /// Slices that died on a failing device and were re-placed.
    pub failed_slices: u64,
    /// Slices run under a downgraded exec model.
    pub degraded_slices: u64,
    /// Devices lost (permanently out of rotation) during the run.
    pub devices_lost: usize,
    /// Circuit-breaker openings summed across devices.
    pub breaker_trips: u64,
    /// Preempted or recovered jobs compared bit for bit against their
    /// CPU reference ([`crate::JobShape::cpu_reference`]).
    pub verified: u64,
    /// How many of those verified bit-identical.
    pub verified_ok: u64,
    /// Oracle evaluations executed for verification. Jobs sharing a
    /// data key share one evaluation, whatever their exec model and
    /// schedule, so this is at most [`ServeReport::verified`].
    pub verify_reference_runs: u64,
    /// Seeded input fills executed. Jobs sharing a data key, and the
    /// oracle, copy one fill's bits, so every distinct key counts once.
    pub input_fills: u64,
    /// Jain fairness index over per-tenant `service/weight`.
    pub fairness: f64,
    /// End-to-end simulated makespan of the whole stream.
    pub makespan: SimTime,
    /// Peak live host buffers during the run.
    pub peak_live_bufs: usize,
    /// Peak live host bytes during the run.
    pub peak_live_bytes: u64,
    /// Per-tenant breakdown.
    pub tenants: Vec<TenantStats>,
}

impl ServeReport {
    /// Recompute the fairness index from tenant stats (tenants that
    /// never received service are excluded — they submitted nothing).
    pub fn compute_fairness(tenants: &[TenantStats]) -> f64 {
        let xs: Vec<f64> = tenants
            .iter()
            .filter(|t| t.submitted > 0)
            .map(|t| t.normalized_service())
            .collect();
        jain_index(&xs)
    }

    /// Fleet-wide deadline miss rate (see [`TenantStats::miss_rate`]).
    pub fn miss_rate(&self) -> Option<f64> {
        let total: u64 = self.tenants.iter().map(|t| t.deadline_total).sum();
        if total == 0 {
            return None;
        }
        let missed: u64 = self
            .tenants
            .iter()
            .map(|t| t.deadline_misses + t.deadline_rejected)
            .sum();
        Some(missed as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_is_one_for_equal_shares() {
        assert!((jain_index(&[2.0, 2.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_penalizes_capture() {
        let j = jain_index(&[10.0, 0.0, 0.0, 0.0]);
        assert!((j - 0.25).abs() < 1e-12, "got {j}");
    }

    #[test]
    fn jain_of_empty_is_one() {
        assert_eq!(jain_index(&[]), 1.0);
    }

    /// A tenant that submitted jobs but received zero service (all of
    /// them rejected, say) must drag the index down, not divide by
    /// zero or NaN it.
    #[test]
    fn jain_with_zero_service_tenant_is_finite_and_low() {
        let j = jain_index(&[5.0, 5.0, 0.0]);
        assert!(j.is_finite());
        assert!((j - 2.0 / 3.0).abs() < 1e-12, "got {j}");
        // All-zero service (everything rejected): defined as 1.0 —
        // perfectly fair, nobody got anything.
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn empty_histogram_merge_stays_empty() {
        let mut a = Histogram::default();
        let b = Histogram::default();
        a.merge(&b);
        assert_eq!(a.count(), 0);
        assert_eq!(a.p95_ns(), 0);
        // Merging an empty histogram into a populated one is identity.
        let mut c = Histogram::default();
        c.record(SimTime::from_us(7).as_ns());
        let before = (c.count(), c.p50_ns(), c.max_ns());
        c.merge(&b);
        assert_eq!((c.count(), c.p50_ns(), c.max_ns()), before);
    }

    #[test]
    fn miss_rate_counts_rejected_deadline_jobs() {
        let mut t = TenantStats::new("t".into(), 1.0);
        assert_eq!(t.miss_rate(), None, "no deadline jobs, no rate");
        t.deadline_total = 4;
        t.deadline_misses = 1;
        t.deadline_rejected = 1;
        assert_eq!(t.miss_rate(), Some(0.5));
    }
}
