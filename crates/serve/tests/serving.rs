//! End-to-end serving tests: the stream drains, preempted jobs verify
//! bit-identical, fair sharing holds, memory is returned, and the whole
//! simulation is deterministic.

use gpsim::{FaultPlan, SimTime};
use pipeline_apps::Conv3dConfig;
use pipeline_rt::ExecModel;
use pipeline_serve::{
    serve, Fleet, GemmConfig, JobShape, JobSpec, ServeOptions, TenantSpec, WorkloadConfig,
};

fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("a", 1.0),
        TenantSpec::new("b", 1.0),
        TenantSpec::new("c", 1.0),
    ]
}

fn run_stream(seed: u64, jobs: usize, devices: usize) -> pipeline_serve::ServeReport {
    let tenants = tenants();
    let jobs = WorkloadConfig::new(seed, jobs, tenants.len()).generate();
    let mut fleet = Fleet::build(devices).unwrap();
    fleet.calibrate().unwrap();
    serve(&mut fleet, &tenants, &jobs, &ServeOptions::new()).unwrap()
}

#[test]
fn stream_drains_and_preempted_jobs_verify() {
    let report = run_stream(0x5E11, 120, 4);
    assert_eq!(report.done, 120);
    assert_eq!(report.submitted, 120);
    assert!(
        report.preempted > 0,
        "quantum should preempt at least some jobs"
    );
    assert!(report.total_slices > report.done, "no slicing happened");
    assert_eq!(
        report.verified_ok, report.verified,
        "a preempted job diverged from its CPU reference"
    );
    assert!(report.verified >= report.preempted.min(1));
    assert!(report.verify_reference_runs <= report.verified);
    assert!(report.makespan > SimTime::ZERO);
    // Per-tenant accounting adds up.
    let done: u64 = report.tenants.iter().map(|t| t.done).sum();
    let submitted: u64 = report.tenants.iter().map(|t| t.submitted).sum();
    assert_eq!(done, report.done);
    assert_eq!(submitted, report.submitted);
    for t in &report.tenants {
        assert_eq!(t.queue_wait.count(), t.done);
        assert_eq!(t.makespan.count(), t.done);
    }
}

#[test]
fn jobs_sharing_a_data_key_share_one_reference_run() {
    // Two conv3d jobs with the same data key but different schedules
    // and exec models, and two same-shape GEMM jobs whose salts (their
    // ids) differ; a tiny quantum preempts all four.
    let mut conv = Conv3dConfig::test_small();
    conv.nk = 18;
    conv.chunk = 2;
    let other_conv = Conv3dConfig { chunk: 3, ..conv };
    let gemm = JobShape::Gemm(GemmConfig {
        n: 32,
        bs: 4,
        chunk: 1,
        streams: 2,
    });
    let jobs: Vec<JobSpec> = [
        (JobShape::Conv3d(conv), ExecModel::Pipelined),
        (JobShape::Conv3d(other_conv), ExecModel::PipelinedBuffer),
        (gemm, ExecModel::PipelinedBuffer),
        (gemm, ExecModel::PipelinedBuffer),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (shape, model))| JobSpec {
        id: i as u64,
        tenant: 0,
        shape,
        model,
        priority: 0,
        arrival: SimTime::from_us(i as u64),
        deadline: None,
        after: None,
    })
    .collect();
    let mut fleet = Fleet::build(2).unwrap();
    fleet.calibrate().unwrap();
    let opts = ServeOptions::new().with_quantum(SimTime::from_us(5));
    let report = serve(&mut fleet, &tenants()[..1], &jobs, &opts).unwrap();
    assert_eq!(report.done, 4);
    assert_eq!(report.preempted, 4, "every job should be sliced");
    assert_eq!(report.verified, 4);
    assert_eq!(report.verified_ok, 4);
    assert_eq!(
        report.verify_reference_runs, 3,
        "one oracle evaluation for both conv3d jobs, whatever their model \
         and schedule, and one per salted GEMM job"
    );
    assert_eq!(
        report.input_fills, 3,
        "one fill for both conv3d jobs, one per salted GEMM job; the \
         oracle reads the cached bits"
    );
}

#[test]
fn equal_weights_share_fairly() {
    let report = run_stream(0xFA1%7 + 0xFA10, 150, 4);
    assert!(
        report.fairness >= 0.9,
        "Jain index {} below 0.9 for equal-weight tenants",
        report.fairness
    );
}

#[test]
fn serving_is_deterministic() {
    let a = run_stream(0xD5, 60, 3);
    let b = run_stream(0xD5, 60, 3);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.total_slices, b.total_slices);
    assert_eq!(a.preempted, b.preempted);
    assert_eq!(a.fairness.to_bits(), b.fairness.to_bits());
    for (ta, tb) in a.tenants.iter().zip(b.tenants.iter()) {
        assert_eq!(ta.service, tb.service);
        assert_eq!(ta.queue_wait, tb.queue_wait);
        assert_eq!(ta.makespan, tb.makespan);
    }
}

#[test]
fn timeline_recording_does_not_move_serving() {
    // Fleet contexts record no timeline; a caller that turns recording
    // back on must get the same report, clean and under faults.
    const WATCHDOG: SimTime = SimTime::from_ms(1);
    let tenants = tenants();
    let jobs = WorkloadConfig::new(0x7E1E, 120, tenants.len()).generate();
    for faulty in [false, true] {
        let run = |record: bool| {
            let mut fleet = Fleet::build(4).unwrap();
            if record {
                for gpu in &mut fleet.gpus {
                    gpu.set_timeline_enabled(true);
                }
            }
            fleet.calibrate().unwrap();
            if faulty {
                fleet.arm_fault_plan(
                    1,
                    FaultPlan::seeded(7).device_lost_after(SimTime::from_ms(2)),
                    WATCHDOG,
                );
                fleet.arm_fault_plan(
                    2,
                    FaultPlan::seeded(21).hang_rate(0.002).spikes(0.02, 6.0),
                    WATCHDOG,
                );
            }
            let report = serve(&mut fleet, &tenants, &jobs, &ServeOptions::new()).unwrap();
            (report, fleet)
        };
        let (quiet, quiet_fleet) = run(false);
        let (recorded, recording_fleet) = run(true);
        assert_eq!(
            format!("{quiet:?}"),
            format!("{recorded:?}"),
            "recording changed the serving report (faults armed: {faulty})"
        );
        assert_eq!(quiet.devices_lost > 0, faulty, "the armed loss must fire");
        for gpu in &quiet_fleet.gpus {
            assert!(
                gpu.timeline().is_empty(),
                "a default fleet recorded commands"
            );
            assert!(
                gpu.host_spans().is_empty(),
                "a default fleet recorded host spans"
            );
        }
        assert!(
            recording_fleet
                .gpus
                .iter()
                .any(|g| !g.timeline().is_empty()),
            "the recording fleet recorded nothing"
        );
    }
}

#[test]
fn all_host_memory_is_returned() {
    let tenants = tenants();
    let jobs = WorkloadConfig::new(0x11EA, 40, tenants.len()).generate();
    let mut fleet = Fleet::build(2).unwrap();
    fleet.calibrate().unwrap();
    let before = fleet.pool.live_bufs();
    let report = serve(&mut fleet, &tenants, &jobs, &ServeOptions::new()).unwrap();
    assert_eq!(
        fleet.pool.live_bufs(),
        before,
        "serve leaked host buffers"
    );
    assert!(report.peak_live_bufs > before, "peak tracking never moved");
}

#[test]
fn weighted_tenant_waits_less_under_load() {
    // Same stream, but tenant 0 gets 4x the weight: under a backlog it
    // must see no *more* median queueing than the weight-1 tenants.
    let tenants = vec![
        TenantSpec::new("heavy", 4.0),
        TenantSpec::new("light1", 1.0),
        TenantSpec::new("light2", 1.0),
    ];
    // A small fleet and a dense stream to force sustained backlog.
    let mut cfg = WorkloadConfig::new(0xBEEF, 90, tenants.len());
    cfg.mean_gap = SimTime::from_us(5);
    let jobs = cfg.generate();
    let mut fleet = Fleet::build(2).unwrap();
    fleet.calibrate().unwrap();
    let report = serve(&mut fleet, &tenants, &jobs, &ServeOptions::new()).unwrap();
    let heavy = &report.tenants[0];
    let light_p50 = report.tenants[1..]
        .iter()
        .map(|t| t.queue_wait.p50_ns())
        .max()
        .unwrap();
    assert!(
        heavy.queue_wait.p50_ns() <= light_p50,
        "weight-4 tenant waited more (p50 {} ns) than weight-1 tenants (max p50 {} ns)",
        heavy.queue_wait.p50_ns(),
        light_p50
    );
}
