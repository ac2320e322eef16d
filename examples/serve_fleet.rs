//! Serve a bursty multi-tenant job stream on a heterogeneous fleet.
//!
//! Three tenants with 2:1:1 fair-share weights submit a few hundred
//! mixed jobs (conv3d / stencil / GEMM / QCD) to four simulated devices.
//! Long jobs are preempted at chunk boundaries and resumed — possibly
//! on a different device — via the checkpoint/restore path; every
//! preempted job is re-executed uninterrupted and checked bit-identical.
//!
//! Run with: `cargo run --example serve_fleet`

use dbpp::prelude::*;

fn main() -> RtResult<()> {
    let tenants = vec![
        TenantSpec::new("prod", 2.0),
        TenantSpec::new("batch", 1.0),
        TenantSpec::new("dev", 1.0),
    ];
    let jobs = WorkloadConfig::new(0xF1EE7, 240, tenants.len()).generate();

    let mut fleet = Fleet::build(4)?;
    fleet.calibrate()?;

    let report = serve(&mut fleet, &tenants, &jobs, &ServeOptions::new())?;

    println!(
        "served {} jobs on {} devices in {} simulated",
        report.done, report.devices, report.makespan
    );
    println!(
        "preempted {} jobs ({} slices total); {}/{} verified bit-identical",
        report.preempted, report.total_slices, report.verified_ok, report.verified
    );
    println!("fairness (Jain): {:.4}", report.fairness);
    for t in &report.tenants {
        println!(
            "  {:<6} weight {:.0}  done {:>3}  wait p50 {:>7} ns  p95 {:>8} ns  makespan p95 {:>9} ns  misses {}",
            t.name,
            t.weight,
            t.done,
            t.queue_wait.p50_ns(),
            t.queue_wait.p95_ns(),
            t.makespan.p95_ns(),
            t.deadline_misses,
        );
    }
    assert_eq!(report.verified_ok, report.verified, "verification failed");
    Ok(())
}
