//! Weighted fair-share admission scheduling (stride scheduling).
//!
//! Each tenant owns a virtual *pass* that advances by
//! `service / weight` whenever one of its jobs consumes device time; the
//! scheduler always serves the backlogged tenant with the smallest
//! pass. Over any busy interval each tenant therefore receives device
//! time proportional to its weight, independent of how bursty its own
//! arrival stream is. Within a tenant, jobs order by the configured
//! [`QueueOrder`]: FIFO (priority descending, then arrival, then id) or
//! EDF (earliest absolute deadline first, deadline-free jobs last, with
//! the FIFO key breaking ties) — deadline jobs then stop missing behind
//! bulk work without ever stealing service *across* tenants.
//!
//! Each tenant's queue is a binary heap on that order's key, so a push,
//! requeue or pop costs `O(log n)` in the tenant's backlog. Job ids are
//! unique, so the key is a total order and the pop order is exactly the
//! minimum a full scan would pick.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use gpsim::SimTime;

/// How jobs are ordered *within* one tenant's queue. Cross-tenant order
/// is always stride fair sharing; this knob never moves service between
/// tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueOrder {
    /// Priority (descending), then arrival, then id — PR 9 behavior.
    #[default]
    Fifo,
    /// Earliest absolute deadline first; jobs without a deadline sort
    /// after every deadline job; the FIFO key breaks ties.
    Edf,
}

/// One queued (or requeued) job reference.
#[derive(Debug, Clone, Copy)]
pub struct QueueEntry {
    /// Index into the server's job table.
    pub job: usize,
    /// Tenant-local ordering: higher first.
    pub priority: u8,
    /// Arrival time (earlier first among equal priorities).
    pub arrival: SimTime,
    /// Submission id (final tie-break, keeps order total).
    pub id: u64,
    /// Absolute completion deadline on the serving clock (release +
    /// budget), if the job carries one. Drives [`QueueOrder::Edf`].
    pub deadline: Option<SimTime>,
}

/// Within-tenant sort key, smallest first: the EDF deadline (or
/// `ZERO` for every FIFO entry), then priority descending, arrival and
/// id.
type OrderKey = (SimTime, Reverse<u8>, SimTime, u64);

fn order_key(order: QueueOrder, e: &QueueEntry) -> OrderKey {
    let deadline = match order {
        QueueOrder::Fifo => SimTime::ZERO,
        QueueOrder::Edf => e.deadline.unwrap_or(SimTime::from_ns(u64::MAX)),
    };
    (deadline, Reverse(e.priority), e.arrival, e.id)
}

/// A queued entry ordered by its key alone, reversed so the max-heap
/// pops the smallest key.
struct Keyed(OrderKey, QueueEntry);

impl PartialEq for Keyed {
    fn eq(&self, other: &Keyed) -> bool {
        self.0 == other.0
    }
}

impl Eq for Keyed {}

impl PartialOrd for Keyed {
    fn partial_cmp(&self, other: &Keyed) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Keyed {
    fn cmp(&self, other: &Keyed) -> Ordering {
        other.0.cmp(&self.0)
    }
}

struct TenantQueue {
    weight: f64,
    pass: f64,
    queue: BinaryHeap<Keyed>,
}

/// The fair-share scheduler over a fixed tenant set.
pub struct FairScheduler {
    tenants: Vec<TenantQueue>,
    order: QueueOrder,
    /// Global virtual time: the pass of the most recently served
    /// tenant at the moment it was picked. Arriving idle tenants start
    /// here, so idle time banks no credit.
    vtime: f64,
}

impl FairScheduler {
    /// A scheduler for tenants with the given weights (all positive),
    /// FIFO within each tenant.
    pub fn new(weights: &[f64]) -> FairScheduler {
        FairScheduler::with_order(weights, QueueOrder::Fifo)
    }

    /// A scheduler with an explicit within-tenant [`QueueOrder`].
    pub fn with_order(weights: &[f64], order: QueueOrder) -> FairScheduler {
        assert!(
            weights.iter().all(|w| *w > 0.0),
            "tenant weights must be positive"
        );
        FairScheduler {
            tenants: weights
                .iter()
                .map(|&w| TenantQueue {
                    weight: w,
                    pass: 0.0,
                    queue: BinaryHeap::new(),
                })
                .collect(),
            order,
            vtime: 0.0,
        }
    }

    /// Enqueue a job for `tenant`. A tenant going idle → backlogged has
    /// its pass clamped up to the global virtual time, so it cannot
    /// bank credit while idle and then starve everyone else.
    pub fn push(&mut self, tenant: usize, entry: QueueEntry) {
        if self.tenants[tenant].queue.is_empty() {
            let t = &mut self.tenants[tenant];
            t.pass = t.pass.max(self.vtime);
        }
        self.requeue(tenant, entry);
    }

    /// Dequeue the next job: minimum-pass backlogged tenant, best entry
    /// within it. Returns `(tenant, entry)`.
    ///
    /// Passes are compared with [`f64::total_cmp`]: a pass driven to
    /// `inf` (or worse) by a pathological weight/service combination
    /// degrades the ordering, never panics the server.
    pub fn pop(&mut self) -> Option<(usize, QueueEntry)> {
        let tenant = self
            .tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.queue.is_empty())
            .min_by(|(ai, a), (bi, b)| a.pass.total_cmp(&b.pass).then(ai.cmp(bi)))
            .map(|(i, _)| i)?;
        self.vtime = self.vtime.max(self.tenants[tenant].pass);
        let Keyed(_, entry) = self.tenants[tenant].queue.pop().expect("non-empty queue");
        Some((tenant, entry))
    }

    /// Re-enqueue a just-popped entry without the idle clamp: the
    /// tenant was never idle (its slice was preempted, failed over, or
    /// blocked on a breaker), so its pass must not be dragged up to the
    /// global virtual time.
    pub fn requeue(&mut self, tenant: usize, entry: QueueEntry) {
        let key = order_key(self.order, &entry);
        self.tenants[tenant].queue.push(Keyed(key, entry));
    }

    /// Charge `service` device time against `tenant`'s pass.
    pub fn charge(&mut self, tenant: usize, service: SimTime) {
        let t = &mut self.tenants[tenant];
        t.pass += service.as_secs_f64() / t.weight;
    }

    /// Whether any tenant has queued work.
    pub fn is_empty(&self) -> bool {
        self.tenants.iter().all(|t| t.queue.is_empty())
    }

    /// Total queued jobs across tenants.
    pub fn backlog(&self) -> usize {
        self.tenants.iter().map(|t| t.queue.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(job: usize, priority: u8) -> QueueEntry {
        QueueEntry {
            job,
            priority,
            arrival: SimTime::from_us(job as u64),
            id: job as u64,
            deadline: None,
        }
    }

    #[test]
    fn equal_weights_alternate_under_equal_charges() {
        let mut s = FairScheduler::new(&[1.0, 1.0]);
        for j in 0..4 {
            s.push(j % 2, entry(j, 0));
        }
        let mut order = Vec::new();
        while let Some((t, _e)) = s.pop() {
            order.push(t);
            s.charge(t, SimTime::from_us(100));
        }
        // With equal passes and equal charges the tenants alternate.
        assert_eq!(order, vec![0, 1, 0, 1]);
    }

    #[test]
    fn heavier_tenant_is_served_more_often() {
        let mut s = FairScheduler::new(&[3.0, 1.0]);
        for j in 0..16 {
            s.push(j % 2, entry(j, 0));
        }
        let mut served = [0usize; 2];
        for _ in 0..8 {
            let (t, _) = s.pop().unwrap();
            served[t] += 1;
            s.charge(t, SimTime::from_us(100));
        }
        assert!(
            served[0] >= 3 * served[1],
            "weight-3 tenant got {} of 8 slots",
            served[0]
        );
    }

    #[test]
    fn idle_tenant_cannot_bank_credit() {
        let mut s = FairScheduler::new(&[1.0, 1.0]);
        // Tenant 0 works alone for a while, building up pass.
        for j in 0..4 {
            s.push(0, entry(j, 0));
        }
        for _ in 0..4 {
            let (t, _) = s.pop().unwrap();
            assert_eq!(t, 0);
            s.charge(t, SimTime::from_ms(10));
        }
        // Tenant 1 wakes up: it must not monopolize the fleet to "catch
        // up" the service it never asked for — the clamp starts it at
        // tenant 0's pass, so they now alternate.
        for j in 4..8 {
            s.push(1, entry(j, 0));
            s.push(0, entry(j + 10, 0));
        }
        let (first, _) = s.pop().unwrap();
        s.charge(first, SimTime::from_ms(10));
        let (second, _) = s.pop().unwrap();
        assert_ne!(first, second, "tenants must alternate after the clamp");
    }

    #[test]
    fn priority_orders_within_a_tenant_only() {
        let mut s = FairScheduler::new(&[1.0]);
        s.push(0, entry(0, 0));
        s.push(0, entry(1, 2));
        s.push(0, entry(2, 1));
        let picked: Vec<usize> = std::iter::from_fn(|| s.pop().map(|(_, e)| e.job)).collect();
        assert_eq!(picked, vec![1, 2, 0]);
    }

    #[test]
    fn edf_orders_deadlines_first_within_a_tenant() {
        let mut s = FairScheduler::with_order(&[1.0], QueueOrder::Edf);
        // Bulk job with high priority, then two deadline jobs arriving
        // later with lower priority — EDF must run the deadline jobs
        // first, tightest deadline leading.
        let mut bulk = entry(0, 2);
        bulk.deadline = None;
        let mut loose = entry(1, 0);
        loose.deadline = Some(SimTime::from_ms(50));
        let mut tight = entry(2, 0);
        tight.deadline = Some(SimTime::from_ms(5));
        s.push(0, bulk);
        s.push(0, loose);
        s.push(0, tight);
        let picked: Vec<usize> = std::iter::from_fn(|| s.pop().map(|(_, e)| e.job)).collect();
        assert_eq!(picked, vec![2, 1, 0]);
    }

    #[test]
    fn edf_never_moves_service_across_tenants() {
        // Tenant 1 has a looming deadline, but tenant 0 holds the
        // smaller pass: stride still picks tenant 0 first.
        let mut s = FairScheduler::with_order(&[1.0, 1.0], QueueOrder::Edf);
        s.push(0, entry(0, 0));
        s.charge(1, SimTime::from_ms(10)); // tenant 1 consumed service
        let mut dl = entry(1, 0);
        dl.deadline = Some(SimTime::from_us(1));
        s.push(1, dl);
        let (t, _) = s.pop().unwrap();
        assert_eq!(t, 0, "EDF must not override the stride order");
    }

    /// Regression: pass comparison used `partial_cmp(..).unwrap()`,
    /// which panics the server the moment any pass goes NaN. A
    /// `MIN_POSITIVE` weight charged astronomically drives the pass to
    /// `inf`; popping with two such tenants is exactly the
    /// panic-adjacent shape (`inf` vs `inf`, one `total_cmp` step from
    /// `inf - inf = NaN` arithmetic). With `total_cmp` the pop stays
    /// total, deterministic and panic-free.
    #[test]
    fn non_finite_passes_never_panic_the_pop() {
        let mut s = FairScheduler::new(&[f64::MIN_POSITIVE, f64::MIN_POSITIVE, 1.0]);
        s.push(0, entry(0, 0));
        s.push(1, entry(1, 0));
        s.push(2, entry(2, 0));
        // Drive tenants 0 and 1 to pass = inf.
        s.charge(0, SimTime::from_secs_f64(1e9));
        s.charge(1, SimTime::from_secs_f64(1e9));
        assert!(s.tenants[0].pass.is_infinite());
        assert!(s.tenants[1].pass.is_infinite());
        let mut order = Vec::new();
        while let Some((t, _)) = s.pop() {
            order.push(t);
        }
        // The finite-pass tenant wins; the two inf tenants drain in
        // stable index order. No panic, total order.
        assert_eq!(order, vec![2, 0, 1]);
    }

    /// The scheduler as it was before the heaps: one `Vec` per tenant,
    /// scanned for the minimum key on every pop. Kept as the oracle.
    struct ScanOracle {
        /// `(weight, pass, queue)` per tenant.
        tenants: Vec<(f64, f64, Vec<QueueEntry>)>,
        order: QueueOrder,
        vtime: f64,
    }

    impl ScanOracle {
        fn new(weights: &[f64], order: QueueOrder) -> ScanOracle {
            ScanOracle {
                tenants: weights.iter().map(|&w| (w, 0.0, Vec::new())).collect(),
                order,
                vtime: 0.0,
            }
        }

        fn push(&mut self, tenant: usize, entry: QueueEntry) {
            let t = &mut self.tenants[tenant];
            if t.2.is_empty() {
                t.1 = t.1.max(self.vtime);
            }
            t.2.push(entry);
        }

        fn pop(&mut self) -> Option<(usize, QueueEntry)> {
            let tenant = self
                .tenants
                .iter()
                .enumerate()
                .filter(|(_, t)| !t.2.is_empty())
                .min_by(|(ai, a), (bi, b)| a.1.total_cmp(&b.1).then(ai.cmp(bi)))
                .map(|(i, _)| i)?;
            self.vtime = self.vtime.max(self.tenants[tenant].1);
            let order = self.order;
            let q = &mut self.tenants[tenant].2;
            let best = q
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| {
                    let fifo = (Reverse(e.priority), e.arrival, e.id);
                    match order {
                        QueueOrder::Fifo => (SimTime::ZERO, fifo),
                        QueueOrder::Edf => {
                            (e.deadline.unwrap_or(SimTime::from_ns(u64::MAX)), fifo)
                        }
                    }
                })
                .map(|(i, _)| i)
                .expect("non-empty queue");
            Some((tenant, q.swap_remove(best)))
        }

        fn charge(&mut self, tenant: usize, service: SimTime) {
            let t = &mut self.tenants[tenant];
            t.1 += service.as_secs_f64() / t.0;
        }

        fn backlog(&self) -> usize {
            self.tenants.iter().map(|t| t.2.len()).sum()
        }
    }

    fn popped(p: Option<(usize, QueueEntry)>) -> Option<(usize, usize, u64)> {
        p.map(|(t, e)| (t, e.job, e.id))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Random push / pop / pop-charge-requeue / charge sequences
        /// pop in exactly the oracle's order under both queue orders.
        /// Small value ranges make priorities, arrivals and deadlines
        /// tie often, so the id tie-break is exercised.
        #[test]
        fn heap_pops_in_the_linear_scan_order(
            weights in proptest::collection::vec(1u32..4, 1..4),
            edf in proptest::prelude::any::<bool>(),
            ops in proptest::collection::vec(
                (0u8..10, 0usize..3, 0u8..3, 0u64..4, proptest::option::of(0u64..4), 0u64..50),
                0..200,
            ),
        ) {
            let weights: Vec<f64> = weights.into_iter().map(f64::from).collect();
            let order = if edf { QueueOrder::Edf } else { QueueOrder::Fifo };
            let mut heap = FairScheduler::with_order(&weights, order);
            let mut oracle = ScanOracle::new(&weights, order);
            for (id, &(op, tenant, priority, arrival, deadline, service)) in ops.iter().enumerate() {
                let tenant = tenant % weights.len();
                let service = SimTime::from_us(service);
                match op {
                    0..=3 => {
                        let e = QueueEntry {
                            job: id,
                            priority,
                            arrival: SimTime::from_us(arrival),
                            id: id as u64,
                            deadline: deadline.map(SimTime::from_ms),
                        };
                        heap.push(tenant, e);
                        oracle.push(tenant, e);
                    }
                    4..=6 => {
                        let (got, want) = (heap.pop(), oracle.pop());
                        proptest::prop_assert_eq!(popped(got), popped(want));
                        if let Some((t, _)) = got {
                            heap.charge(t, service);
                            oracle.charge(t, service);
                        }
                    }
                    7..=8 => {
                        let (got, want) = (heap.pop(), oracle.pop());
                        proptest::prop_assert_eq!(popped(got), popped(want));
                        if let (Some((t, e)), Some((_, o))) = (got, want) {
                            heap.charge(t, service);
                            oracle.charge(t, service);
                            heap.requeue(t, e);
                            oracle.tenants[t].2.push(o);
                        }
                    }
                    _ => {
                        heap.charge(tenant, service);
                        oracle.charge(tenant, service);
                    }
                }
                proptest::prop_assert_eq!(heap.backlog(), oracle.backlog());
                proptest::prop_assert_eq!(heap.is_empty(), oracle.backlog() == 0);
            }
            loop {
                let (got, want) = (heap.pop(), oracle.pop());
                proptest::prop_assert_eq!(popped(got), popped(want));
                if got.is_none() {
                    break;
                }
            }
        }
    }
}
