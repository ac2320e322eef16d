//! Serving under faults and overload: device loss and hang failover,
//! circuit breaking, admission control, deadline semantics, EDF vs
//! FIFO, closed-loop traffic, and overload degradation.

use gpsim::{FaultPlan, SimTime};
use pipeline_rt::ExecModel;
use pipeline_serve::{
    serve, Fleet, JobShape, JobSpec, QueueOrder, RateLimit, Rejection, ServeOptions, TenantSpec,
    WorkloadConfig,
};

const WATCHDOG: SimTime = SimTime::from_ms(1);

fn tenants(n: usize) -> Vec<TenantSpec> {
    (0..n)
        .map(|i| TenantSpec::new(format!("t{i}"), 1.0))
        .collect()
}

fn check_conservation(report: &pipeline_serve::ServeReport) {
    assert_eq!(
        report.done + report.rejected.total(),
        report.submitted,
        "an accepted job was lost: done {} + rejected {} != submitted {}",
        report.done,
        report.rejected.total(),
        report.submitted
    );
    assert_eq!(
        report.verified_ok, report.verified,
        "a preempted/recovered job diverged from its CPU reference"
    );
}

#[test]
fn device_loss_fails_over_and_verifies() {
    let tenants = tenants(3);
    let jobs = WorkloadConfig::new(0xC4A0, 80, tenants.len()).generate();
    let mut fleet = Fleet::build(4).unwrap();
    fleet.calibrate().unwrap();
    // One device dies 2 ms (of serving time) in.
    fleet.arm_fault_plan(
        1,
        FaultPlan::seeded(7).device_lost_after(SimTime::from_ms(2)),
        WATCHDOG,
    );
    let report = serve(&mut fleet, &tenants, &jobs, &ServeOptions::new()).unwrap();
    check_conservation(&report);
    assert_eq!(report.done, 80, "no admission gates: everything completes");
    assert_eq!(report.devices_lost, 1, "the armed device must be lost");
    assert!(report.failed_slices > 0, "the loss killed at least one slice");
    assert!(
        report.recovered > 0,
        "jobs in flight on the lost device must recover on survivors"
    );
    assert!(report.verified >= report.recovered);
    // The survivors keep sharing fairly.
    assert!(
        report.fairness >= 0.85,
        "post-failover Jain {} below 0.85",
        report.fairness
    );
}

#[test]
fn hang_escalates_and_work_recovers() {
    let tenants = tenants(2);
    let jobs = WorkloadConfig::new(0x44A6, 60, tenants.len()).generate();
    let mut fleet = Fleet::build(3).unwrap();
    fleet.calibrate().unwrap();
    // Rare hangs: the watchdog escalates the wedged context to lost.
    fleet.arm_fault_plan(2, FaultPlan::seeded(21).hang_rate(0.002), WATCHDOG);
    let report = serve(&mut fleet, &tenants, &jobs, &ServeOptions::new()).unwrap();
    check_conservation(&report);
    assert_eq!(report.done, 60);
    assert!(
        report.devices_lost >= 1,
        "an injected hang should have escalated to a loss"
    );
    assert!(report.recovered > 0);
}

#[test]
fn flaky_device_is_circuit_broken() {
    let tenants = tenants(2);
    let jobs = WorkloadConfig::new(0xF1A2, 80, tenants.len()).generate();
    let mut fleet = Fleet::build(3).unwrap();
    fleet.calibrate().unwrap();
    // Device 0 fails most kernel launches: alive, but useless. The
    // breaker must take it out of rotation instead of letting it soak
    // up dispatch after dispatch.
    fleet.arm_fault_plan(0, FaultPlan::seeded(3).kernel_rate(0.9), WATCHDOG);
    let report = serve(&mut fleet, &tenants, &jobs, &ServeOptions::new()).unwrap();
    check_conservation(&report);
    assert_eq!(report.done, 80);
    assert!(
        report.breaker_trips >= 1,
        "a 90%-failing device never tripped its breaker"
    );
    assert!(report.failed_slices > 0);
    assert_eq!(report.devices_lost, 0, "faults are transient, not losses");
}

/// Regression: with every device flaky, failed half-open probes kept
/// doubling the breaker cooldown with no cap until `now + cooldown`
/// overflowed (a panic in debug builds, a makespan near `u64::MAX` ns
/// in release).
#[test]
fn all_flaky_fleet_drains_with_bounded_cooldowns() {
    let tenants = tenants(2);
    let jobs = WorkloadConfig::new(0xF1A2, 80, tenants.len()).generate();
    let mut fleet = Fleet::build(2).unwrap();
    fleet.calibrate().unwrap();
    for d in 0..2 {
        fleet.arm_fault_plan(d, FaultPlan::seeded(3 + d as u64).kernel_rate(0.5), WATCHDOG);
    }
    let report = serve(&mut fleet, &tenants, &jobs, &ServeOptions::new()).unwrap();
    check_conservation(&report);
    assert_eq!(report.done, 80);
    assert_eq!(report.devices_lost, 0, "faults are transient, not losses");
    assert!(report.breaker_trips >= 2);
    // About 51 s of mostly capped 1 s cooldowns; the uncapped doubling
    // reported about 1.8e19 ns.
    assert!(
        report.makespan < SimTime::from_ms(100_000),
        "makespan {} past 100 s",
        report.makespan
    );
}

#[test]
fn over_quota_jobs_are_rejected_with_reason() {
    let tenants = tenants(2);
    let mut cfg = WorkloadConfig::new(0x0A11, 60, tenants.len());
    cfg.mean_gap = SimTime::from_us(10); // dense: ~100k jobs/s offered
    let jobs = cfg.generate();
    let mut fleet = Fleet::build(2).unwrap();
    fleet.calibrate().unwrap();
    let opts = ServeOptions::new().with_rate_limit(RateLimit::new(5_000.0, 4.0));
    let report = serve(&mut fleet, &tenants, &jobs, &opts).unwrap();
    check_conservation(&report);
    assert!(
        report.rejected.get(Rejection::OverQuota) > 0,
        "a 100k/s stream against a 5k/s quota must shed"
    );
    assert!(report.done > 0, "the quota must still admit the sustained rate");
    let per_tenant: u64 = report.tenants.iter().map(|t| t.rejected.total()).sum();
    assert_eq!(per_tenant, report.rejected.total());
}

#[test]
fn infeasible_deadlines_are_shed_at_admission() {
    let tenants = tenants(2);
    let mut cfg = WorkloadConfig::new(0x1FEA, 60, tenants.len());
    cfg.mean_gap = SimTime::from_us(5);
    cfg.deadline_frac = 1.0;
    let mut jobs = cfg.generate();
    // Budgets far below any job's execution time: all predictably dead
    // on arrival once the backlog estimate sees queueing.
    for j in &mut jobs {
        j.deadline = Some(SimTime::from_us(20));
    }
    let mut fleet = Fleet::build(1).unwrap();
    fleet.calibrate().unwrap();
    let opts = ServeOptions::new().with_feasibility(true);
    let report = serve(&mut fleet, &tenants, &jobs, &opts).unwrap();
    check_conservation(&report);
    assert!(
        report.rejected.get(Rejection::Infeasible) > 0,
        "hopeless deadlines must be shed instead of executed into a miss"
    );
    // Shed deadline jobs still count against the miss rate — admission
    // cannot game the deadline gate by rejecting everything.
    let t0 = &report.tenants[0];
    assert_eq!(
        t0.deadline_rejected,
        t0.rejected.total(),
        "every rejection here carried a deadline"
    );
    assert!(report.miss_rate().unwrap() > 0.0);
}

/// Pins the deadline convention: `JobSpec.deadline` is a budget
/// relative to release, not an absolute instant. A job released late
/// with a generous budget must not miss (under the old absolute
/// reading, `arrival 100 ms > deadline 50 ms` missed unconditionally);
/// a 1 ns budget must always miss.
#[test]
fn deadline_is_a_relative_budget() {
    let tenants = tenants(1);
    let shape = JobShape::Stencil({
        let mut c = pipeline_apps::StencilConfig::test_small();
        c.nz = 12;
        c
    });
    let job = |id: u64, arrival: SimTime, budget: SimTime| JobSpec {
        id,
        tenant: 0,
        shape,
        model: ExecModel::PipelinedBuffer,
        priority: 0,
        arrival,
        deadline: Some(budget),
        after: None,
    };
    let mut fleet = Fleet::build(1).unwrap();
    fleet.calibrate().unwrap();
    let jobs = vec![
        job(0, SimTime::from_ms(100), SimTime::from_ms(50)),
        job(1, SimTime::from_ms(200), SimTime::from_ns(1)),
    ];
    let report = serve(&mut fleet, &tenants, &jobs, &ServeOptions::new()).unwrap();
    assert_eq!(report.done, 2);
    assert_eq!(
        report.tenants[0].deadline_misses, 1,
        "late release + generous budget must not miss; 1 ns budget must"
    );
    assert_eq!(report.tenants[0].deadline_total, 2);
}

#[test]
fn edf_beats_fifo_on_deadline_misses_under_load() {
    let tenants = tenants(2);
    let mut cfg = WorkloadConfig::new(0xEDF0, 120, tenants.len());
    cfg.mean_gap = SimTime::from_us(8); // sustained backlog on 2 devices
    cfg.deadline_frac = 0.4;
    let mut jobs = cfg.generate();
    // Tighten budgets to the same order as the peak backlog (~10 ms on
    // this stream) with real spread, so arrival order and deadline
    // order disagree and the queue discipline decides who misses.
    for j in &mut jobs {
        if j.deadline.is_some() {
            j.deadline = Some(SimTime::from_us(500 + (j.id % 10) * 900));
        }
    }
    let run = |order: QueueOrder| {
        let mut fleet = Fleet::build(2).unwrap();
        fleet.calibrate().unwrap();
        let opts = ServeOptions::new().with_order(order);
        serve(&mut fleet, &tenants, &jobs, &opts).unwrap()
    };
    let fifo = run(QueueOrder::Fifo);
    let edf = run(QueueOrder::Edf);
    check_conservation(&fifo);
    check_conservation(&edf);
    let (mf, me) = (fifo.miss_rate().unwrap(), edf.miss_rate().unwrap());
    assert!(
        me <= mf,
        "EDF missed more ({me:.3}) than FIFO ({mf:.3}) on the same stream"
    );
    assert!(
        mf > 0.0,
        "stream not loaded enough to distinguish the orders"
    );
}

#[test]
fn closed_loop_stream_drains_through_chains() {
    let tenants = tenants(3);
    let jobs = WorkloadConfig::new(0xC105, 60, tenants.len())
        .closed_loop(6, SimTime::from_us(80))
        .generate();
    let mut fleet = Fleet::build(2).unwrap();
    fleet.calibrate().unwrap();
    let report = serve(&mut fleet, &tenants, &jobs, &ServeOptions::new()).unwrap();
    check_conservation(&report);
    assert_eq!(report.done, 60, "every chained job must be released and served");
    // Rejection still releases the successor: with a starvation-level
    // quota the chains must not wedge.
    let mut fleet2 = Fleet::build(2).unwrap();
    fleet2.calibrate().unwrap();
    let opts = ServeOptions::new().with_rate_limit(RateLimit::new(2_000.0, 1.0));
    let report2 = serve(&mut fleet2, &tenants, &jobs, &opts).unwrap();
    check_conservation(&report2);
    assert!(report2.rejected.total() > 0);
}

#[test]
fn overload_degrades_best_effort_before_shedding() {
    let mut tenants = tenants(2);
    tenants[1] = TenantSpec::new("batch", 1.0).best_effort();
    let mut cfg = WorkloadConfig::new(0xDE64, 100, tenants.len());
    cfg.mean_gap = SimTime::from_us(4); // well past 1-device capacity
    let jobs = cfg.generate();
    let mut fleet = Fleet::build(1).unwrap();
    fleet.calibrate().unwrap();
    let opts = ServeOptions::new()
        .with_degrade_horizon(SimTime::from_us(300))
        .with_shed_horizon(SimTime::from_ms(4));
    let report = serve(&mut fleet, &tenants, &jobs, &opts).unwrap();
    check_conservation(&report);
    assert!(
        report.degraded_slices > 0,
        "sustained overload must push best-effort work down the ladder"
    );
    assert!(
        report.tenants[0].degraded_slices == 0 && report.tenants[0].rejected.total() == 0,
        "guaranteed tenants are never degraded or overload-shed"
    );
    if report.rejected.total() > 0 {
        assert!(report.rejected.get(Rejection::Overload) == report.rejected.total());
    }
    // Degraded slices still verify bit-identical (ladder bit-stability).
    assert_eq!(report.verified_ok, report.verified);
}

#[test]
fn chaos_runs_are_deterministic() {
    let run = || {
        let tenants = tenants(2);
        let jobs = WorkloadConfig::new(0xD371, 50, tenants.len()).generate();
        let mut fleet = Fleet::build(3).unwrap();
        fleet.calibrate().unwrap();
        fleet.arm_fault_plan(
            0,
            FaultPlan::seeded(9)
                .kernel_rate(0.05)
                .spikes(0.02, 6.0)
                .device_lost_after(SimTime::from_ms(3)),
            WATCHDOG,
        );
        serve(&mut fleet, &tenants, &jobs, &ServeOptions::new()).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.total_slices, b.total_slices);
    assert_eq!(a.failed_slices, b.failed_slices);
    assert_eq!(a.devices_lost, b.devices_lost);
    assert_eq!(a.recovered, b.recovered);
    assert_eq!(a.breaker_trips, b.breaker_trips);
    assert_eq!(a.fairness.to_bits(), b.fairness.to_bits());
}
