//! `figures serve` — multi-tenant serving on a shared heterogeneous
//! fleet: queueing, fairness and preemption-correctness cells.
//!
//! Each cell replays a seeded open-loop bursty stream of mixed jobs
//! (conv3d / stencil / GEMM / QCD under a mix of execution models)
//! through the `pipeline-serve` job server on an alternating K40m/P100
//! fleet over one shared functional-mode host pool. The server places
//! jobs with per-device calibrated cost-model predictions, preempts
//! chunked jobs at quantum boundaries through the checkpoint/restore
//! path, and compares every preempted job's output with the app's
//! scalar CPU reference to prove bit-identical output — so each cell is
//! simultaneously a throughput measurement and a correctness proof.
//!
//! CI gates: every job drains, every preempted job verifies, the Jain
//! fairness index on equal-weight cells stays above [`JAIN_FLOOR`], and
//! the worst per-tenant p95 queue wait stays below
//! [`P95_WAIT_CEILING_MS`].

use std::time::Instant;

use pipeline_serve::{serve, Fleet, ServeOptions, ServeReport, TenantSpec, WorkloadConfig};

/// Committed floor for the Jain fairness index on equal-weight cells.
/// 1.0 is perfect sharing; an admission scheduler that let one tenant's
/// burst capture the fleet lands near `1/tenants` ≈ 0.33.
pub const JAIN_FLOOR: f64 = 0.9;

/// Ceiling (ms of simulated time) on the worst per-tenant p95 queue
/// wait in the smoke cell. Committed ~2× above the measured value so
/// only real scheduling regressions (lost work conservation, starvation,
/// placement ignoring device speed) trip it.
pub const P95_WAIT_CEILING_MS: f64 = 150.0;

/// One serving configuration.
#[derive(Debug, Clone)]
pub struct ServeCell {
    /// Cell label in tables and JSON.
    pub name: &'static str,
    /// Fleet size (alternating K40m / P100).
    pub devices: usize,
    /// Jobs in the stream.
    pub jobs: usize,
    /// Per-tenant fair-share weights (length = tenant count).
    pub weights: Vec<f64>,
    /// Workload seed.
    pub seed: u64,
}

impl ServeCell {
    fn equal_weights(&self) -> bool {
        self.weights.windows(2).all(|w| w[0] == w[1])
    }
}

/// One cell's outcome.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The configuration that produced this result.
    pub cell: ServeCell,
    /// The server's report.
    pub report: ServeReport,
    /// Host wall-clock of the serving run (excludes calibration).
    /// Printed to the console only: `SERVE_sim.json` holds simulated
    /// results alone, so a fresh run reproduces it exactly.
    pub wall_ms: f64,
}

/// CI smoke: the acceptance cell — ≥1000 jobs, 3 equal-weight tenants,
/// 4 heterogeneous devices.
pub fn smoke_cells() -> Vec<ServeCell> {
    vec![ServeCell {
        name: "smoke-4dev",
        devices: 4,
        jobs: 1000,
        weights: vec![1.0, 1.0, 1.0],
        seed: 0x5E2F_1E37,
    }]
}

/// Full sweep: the smoke cell plus a wider fleet and a weighted cell
/// (fairness is gated only where weights are equal; the weighted cell
/// demonstrates differentiated service instead).
pub fn paper_cells() -> Vec<ServeCell> {
    let mut cells = smoke_cells();
    cells.push(ServeCell {
        name: "wide-8dev",
        devices: 8,
        jobs: 2000,
        weights: vec![1.0, 1.0, 1.0, 1.0],
        seed: 0x5E2F_1E38,
    });
    cells.push(ServeCell {
        name: "weighted-4dev",
        devices: 4,
        jobs: 1000,
        weights: vec![4.0, 2.0, 1.0],
        seed: 0x5E2F_1E39,
    });
    cells
}

/// Run one cell: build + calibrate the fleet, serve the stream.
pub fn run_cell(cell: &ServeCell) -> CellResult {
    let tenants: Vec<TenantSpec> = cell
        .weights
        .iter()
        .enumerate()
        .map(|(i, &w)| TenantSpec::new(format!("tenant{i}"), w))
        .collect();
    let jobs = WorkloadConfig::new(cell.seed, cell.jobs, tenants.len()).generate();
    let mut fleet = Fleet::build(cell.devices).expect("fleet build");
    fleet.calibrate().expect("fleet calibration");

    let t = Instant::now();
    let report = serve(&mut fleet, &tenants, &jobs, &ServeOptions::new()).expect("serve");
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;

    CellResult {
        cell: cell.clone(),
        report,
        wall_ms,
    }
}

/// Run the sweep. `smoke` keeps only the acceptance cell for CI.
pub fn run(smoke: bool) -> Vec<CellResult> {
    let cells = if smoke { smoke_cells() } else { paper_cells() };
    cells.iter().map(run_cell).collect()
}

/// CI gates over every cell.
pub fn check(results: &[CellResult]) -> Result<(), String> {
    for r in results {
        let rep = &r.report;
        let name = r.cell.name;
        if rep.done != rep.submitted {
            return Err(format!(
                "{name}: {} of {} jobs never finished",
                rep.submitted - rep.done,
                rep.submitted
            ));
        }
        if rep.preempted == 0 {
            return Err(format!(
                "{name}: no job was ever preempted — the quantum path went untested"
            ));
        }
        if rep.verified != rep.preempted {
            return Err(format!(
                "{name}: only {} of {} preempted jobs were verified",
                rep.verified, rep.preempted
            ));
        }
        if rep.verified_ok != rep.verified {
            return Err(format!(
                "{name}: {} of {} preempted jobs diverged from their CPU reference",
                rep.verified - rep.verified_ok,
                rep.verified
            ));
        }
        if r.cell.equal_weights() && rep.fairness < JAIN_FLOOR {
            return Err(format!(
                "{name}: Jain fairness {:.4} below committed floor {JAIN_FLOOR}",
                rep.fairness
            ));
        }
        let worst_p95_ms = rep
            .tenants
            .iter()
            .map(|t| t.queue_wait.p95_ns())
            .max()
            .unwrap_or(0) as f64
            / 1e6;
        if worst_p95_ms > P95_WAIT_CEILING_MS {
            return Err(format!(
                "{name}: worst tenant p95 queue wait {worst_p95_ms:.1} ms above ceiling \
                 {P95_WAIT_CEILING_MS} ms"
            ));
        }
    }
    Ok(())
}

/// Table the way EXPERIMENTS.md reports it.
pub fn print(results: &[CellResult]) {
    println!(
        "open-loop bursty stream, conv3d/stencil/gemm/qcd mix, k40m/p100 alternating fleet; \
         quantum preemption with bit-identity verification of every preempted job"
    );
    for r in results {
        let rep = &r.report;
        println!(
            "\n{} — {} devices, {} jobs, weights {:?}, wall {:.0} ms",
            r.cell.name, rep.devices, rep.submitted, r.cell.weights, r.wall_ms
        );
        println!(
            "  done {}  preempted {} ({} slices)  verified {}/{} ({} oracle evaluations)  \
             fairness {:.4}  sim makespan {}  peak host {} bufs / {} KiB",
            rep.done,
            rep.preempted,
            rep.total_slices,
            rep.verified_ok,
            rep.verified,
            rep.verify_reference_runs,
            rep.fairness,
            rep.makespan,
            rep.peak_live_bufs,
            rep.peak_live_bytes / 1024,
        );
        println!(
            "  {:>8}  {:>6}  {:>5}  {:>10}  {:>10}  {:>10}  {:>10}  {:>6}",
            "tenant", "weight", "done", "wait p50", "wait p95", "mksp p50", "mksp p95", "miss"
        );
        for t in &rep.tenants {
            println!(
                "  {:>8}  {:>6.1}  {:>5}  {:>7.3} ms  {:>7.3} ms  {:>7.3} ms  {:>7.3} ms  {:>6}",
                t.name,
                t.weight,
                t.done,
                t.queue_wait.p50_ns() as f64 / 1e6,
                t.queue_wait.p95_ns() as f64 / 1e6,
                t.makespan.p50_ns() as f64 / 1e6,
                t.makespan.p95_ns() as f64 / 1e6,
                t.deadline_misses,
            );
        }
    }
    println!(
        "\ngates: fairness >= {JAIN_FLOOR} on equal weights; worst p95 wait <= \
         {P95_WAIT_CEILING_MS} ms; every preempted job bit-identical"
    );
}

/// The `SERVE_sim.json` payload.
pub fn json(results: &[CellResult]) -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"workload\": \"open-loop bursty conv3d/stencil/gemm/qcd mix, quantum preemption \
         with bit-identity verification, k40m/p100 alternating fleet\",\n",
    );
    s.push_str(&format!("  \"jain_floor\": {JAIN_FLOOR},\n"));
    s.push_str(&format!(
        "  \"p95_wait_ceiling_ms\": {P95_WAIT_CEILING_MS},\n"
    ));
    s.push_str("  \"cells\": [\n");
    for (i, r) in results.iter().enumerate() {
        let rep = &r.report;
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"devices\": {}, \"jobs\": {}, \"done\": {}, \
             \"rejected_over_quota\": {}, \"rejected_infeasible\": {}, \
             \"rejected_overload\": {}, \"recovered\": {}, \"devices_lost\": {}, \
             \"preempted\": {}, \"total_slices\": {}, \"verified\": {}, \"verified_ok\": {}, \
             \"fairness\": {:.6}, \"makespan_ms\": {:.6}, \
             \"peak_live_bufs\": {}, \"peak_live_bytes\": {},\n",
            r.cell.name,
            rep.devices,
            rep.submitted,
            rep.done,
            rep.rejected.get(pipeline_serve::Rejection::OverQuota),
            rep.rejected.get(pipeline_serve::Rejection::Infeasible),
            rep.rejected.get(pipeline_serve::Rejection::Overload),
            rep.recovered,
            rep.devices_lost,
            rep.preempted,
            rep.total_slices,
            rep.verified,
            rep.verified_ok,
            rep.fairness,
            rep.makespan.as_ms_f64(),
            rep.peak_live_bufs,
            rep.peak_live_bytes,
        ));
        s.push_str("     \"tenants\": [\n");
        for (j, t) in rep.tenants.iter().enumerate() {
            s.push_str(&format!(
                "       {{\"name\": \"{}\", \"weight\": {}, \"submitted\": {}, \"done\": {}, \
                 \"rejected\": {}, \"preempted\": {}, \"slices\": {}, \"deadline_misses\": {}, \
                 \"service_ms\": {:.6}, \"wait_p50_ms\": {:.6}, \"wait_p95_ms\": {:.6}, \
                 \"wait_p99_ms\": {:.6}, \"makespan_p50_ms\": {:.6}, \
                 \"makespan_p95_ms\": {:.6}, \"makespan_p99_ms\": {:.6}}}{}\n",
                t.name,
                t.weight,
                t.submitted,
                t.done,
                t.rejected.total(),
                t.preempted,
                t.slices,
                t.deadline_misses,
                t.service.as_ms_f64(),
                t.queue_wait.p50_ns() as f64 / 1e6,
                t.queue_wait.p95_ns() as f64 / 1e6,
                t.queue_wait.quantile_ns(0.99) as f64 / 1e6,
                t.makespan.p50_ns() as f64 / 1e6,
                t.makespan.p95_ns() as f64 / 1e6,
                t.makespan.quantile_ns(0.99) as f64 / 1e6,
                if j + 1 == rep.tenants.len() { "" } else { "," }
            ));
        }
        s.push_str(&format!(
            "     ]}}{}\n",
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mini_cell_passes_every_gate() {
        let cell = ServeCell {
            name: "mini",
            devices: 2,
            jobs: 80,
            weights: vec![1.0, 1.0, 1.0],
            seed: 0xA11CE,
        };
        let r = run_cell(&cell);
        check(std::slice::from_ref(&r)).expect("mini cell gates");
        let payload = json(&[r]);
        let doc = gpsim::json::parse(&payload).expect("payload parses");
        // Rejection counters round-trip (zero here: no admission gates).
        let cell0 = &doc.get("cells").and_then(|c| c.as_arr()).expect("cells")[0];
        for key in [
            "rejected_over_quota",
            "rejected_infeasible",
            "rejected_overload",
        ] {
            assert_eq!(cell0.get(key).and_then(|v| v.as_f64()), Some(0.0), "{key}");
        }
    }

    #[test]
    fn check_flags_fairness_regressions() {
        let cell = ServeCell {
            name: "mini",
            devices: 2,
            jobs: 40,
            weights: vec![1.0, 1.0],
            seed: 0xA11CF,
        };
        let mut r = run_cell(&cell);
        r.report.fairness = 0.5;
        assert!(check(std::slice::from_ref(&r)).is_err());
        r.report.fairness = 1.0;
        r.report.verified_ok = r.report.verified.saturating_sub(1);
        assert!(check(std::slice::from_ref(&r)).is_err());
    }
}
