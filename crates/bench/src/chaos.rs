//! `figures chaos` — overload-hardened serving under injected chaos.
//!
//! A seeded sweep crossing four fleet conditions — clean, one device
//! lost mid-stream, a hanging+spiking device, and a 2× overload burst —
//! with two serving policies per cell:
//!
//! * **fifo** — the PR 9 baseline: FIFO within each tenant's stride
//!   share, no admission control.
//! * **edf+admission** — the hardened server: earliest-deadline-first
//!   within the share, feasibility shedding at release, and (in the
//!   overload cell) degradation + overload shedding of the best-effort
//!   tenant.
//!
//! Both policies keep failover and circuit breaking on: the comparison
//! isolates what admission and queue order buy, not whether the fleet
//! survives at all. Every run executes in functional mode so recovered
//! and preempted jobs are compared bit for bit with the app's scalar
//! CPU reference; the `oracle` column counts the oracle evaluations.
//!
//! CI gates (the binary exits non-zero on any violation):
//! * no accepted job is ever lost — `done + rejected == submitted`;
//! * every recovered or preempted job verifies bit-identical;
//! * post-failover Jain fairness stays ≥ [`JAIN_CHAOS_FLOOR`] on the
//!   hardened policy (over the guaranteed tenants in the overload
//!   cell, where starving the best-effort tenant is the design);
//! * the hardened policy's deadline-miss rate (rejected deadline jobs
//!   count as misses — shedding cannot game this) beats the FIFO
//!   baseline in the same cell;
//! * each fault cell actually injected its fault (a chaos harness that
//!   runs clean is lying).

use std::time::Instant;

use gpsim::{FaultPlan, SimTime};
use pipeline_serve::{serve, Fleet, ServeOptions, ServeReport, TenantSpec, WorkloadConfig};

/// Committed floor for the Jain fairness index *after failover* — lower
/// than the clean-serving [`JAIN_FLOOR`](crate::serve::JAIN_FLOOR)
/// because re-placement of the lost device's work transiently skews
/// per-tenant service.
pub const JAIN_CHAOS_FLOOR: f64 = 0.85;

/// Hang watchdog grace armed with every fault plan: injected hangs
/// escalate to a detectable device loss instead of wedging the loop.
const WATCHDOG: SimTime = SimTime::from_ms(1);

/// The fleet condition injected into a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chaos {
    /// No faults: the control cell.
    Clean,
    /// One device is lost outright mid-stream.
    DeviceLoss,
    /// One device hangs (escalated by the watchdog) and runs hot with
    /// latency spikes.
    HangSpike,
    /// No faults, but the arrival stream runs ~2× past fleet capacity.
    Overload,
}

impl Chaos {
    /// Cell label in tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Chaos::Clean => "clean",
            Chaos::DeviceLoss => "device-loss",
            Chaos::HangSpike => "hang-spike",
            Chaos::Overload => "overload-2x",
        }
    }

    /// Arm this condition's fault plans on a freshly calibrated fleet.
    fn arm(self, fleet: &mut Fleet) {
        match self {
            Chaos::Clean | Chaos::Overload => {}
            Chaos::DeviceLoss => fleet.arm_fault_plan(
                1,
                FaultPlan::seeded(7).device_lost_after(SimTime::from_ms(2)),
                WATCHDOG,
            ),
            Chaos::HangSpike => fleet.arm_fault_plan(
                2,
                FaultPlan::seeded(21).hang_rate(0.002).spikes(0.05, 4.0),
                WATCHDOG,
            ),
        }
    }
}

/// One chaos cell: a fleet condition over a seeded stream.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Injected condition.
    pub chaos: Chaos,
    /// Fleet size (alternating K40m / P100).
    pub devices: usize,
    /// Jobs in the stream.
    pub jobs: usize,
    /// Mean inter-arrival gap (the overload cell compresses it).
    pub mean_gap: SimTime,
    /// Workload seed.
    pub seed: u64,
}

/// One policy's outcome within a cell.
#[derive(Debug, Clone)]
pub struct PolicyResult {
    /// `"fifo"` or `"edf+admission"`.
    pub policy: &'static str,
    /// The server's report.
    pub report: ServeReport,
    /// Host wall-clock of the serving run (excludes calibration).
    /// Printed to the console only: `CHAOS_sim.json` holds simulated
    /// results alone, so a fresh run reproduces it exactly.
    pub wall_ms: f64,
}

/// One cell's outcome: the same stream under both policies.
#[derive(Debug, Clone)]
pub struct ChaosResult {
    /// The configuration that produced this result.
    pub cell: ChaosCell,
    /// FIFO baseline.
    pub fifo: PolicyResult,
    /// Hardened EDF + admission run.
    pub hardened: PolicyResult,
}

/// CI smoke: all four conditions at reduced stream length.
pub fn smoke_cells() -> Vec<ChaosCell> {
    cells(110)
}

/// Full sweep: the same matrix with longer streams.
pub fn paper_cells() -> Vec<ChaosCell> {
    cells(260)
}

fn cells(jobs: usize) -> Vec<ChaosCell> {
    vec![
        ChaosCell {
            chaos: Chaos::Clean,
            devices: 3,
            jobs,
            mean_gap: SimTime::from_us(8),
            seed: 0xC4A0_0001,
        },
        ChaosCell {
            chaos: Chaos::DeviceLoss,
            devices: 4,
            jobs,
            mean_gap: SimTime::from_us(8),
            seed: 0xC4A0_0002,
        },
        ChaosCell {
            chaos: Chaos::HangSpike,
            devices: 3,
            jobs,
            mean_gap: SimTime::from_us(8),
            seed: 0xC4A0_0003,
        },
        ChaosCell {
            chaos: Chaos::Overload,
            devices: 2,
            jobs,
            mean_gap: SimTime::from_us(4),
            seed: 0xC4A0_0004,
        },
    ]
}

/// Tenants shared by every cell: two guaranteed, one best-effort batch
/// tenant (the degradation/shed target in the overload cell).
fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("latency0", 1.0),
        TenantSpec::new("latency1", 1.0),
        TenantSpec::new("batch", 1.0).best_effort(),
    ]
}

/// The seeded stream for a cell: bursty open loop, half the jobs
/// carrying deadline budgets tight enough (0.5–9.5 ms against multi-ms
/// backlogs) that queue order decides who misses.
fn stream(cell: &ChaosCell) -> Vec<pipeline_serve::JobSpec> {
    let mut cfg = WorkloadConfig::new(cell.seed, cell.jobs, tenants().len());
    cfg.mean_gap = cell.mean_gap;
    cfg.deadline_frac = 0.5;
    let mut jobs = cfg.generate();
    for j in &mut jobs {
        if j.deadline.is_some() {
            j.deadline = Some(SimTime::from_us(500 + (j.id % 10) * 900));
        }
    }
    jobs
}

fn run_policy(
    cell: &ChaosCell,
    tenants: &[TenantSpec],
    jobs: &[pipeline_serve::JobSpec],
    policy: &'static str,
    opts: &ServeOptions,
) -> PolicyResult {
    let mut fleet = Fleet::build(cell.devices).expect("fleet build");
    fleet.calibrate().expect("fleet calibration");
    cell.chaos.arm(&mut fleet);
    let t = Instant::now();
    let report = serve(&mut fleet, tenants, jobs, opts).expect("serve");
    PolicyResult {
        policy,
        report,
        wall_ms: t.elapsed().as_secs_f64() * 1e3,
    }
}

/// Run one cell: the same stream through the FIFO baseline and the
/// hardened policy, on identically built, calibrated and fault-armed
/// fleets.
pub fn run_cell(cell: &ChaosCell) -> ChaosResult {
    let tenants = tenants();
    let jobs = stream(cell);
    let fifo_opts = ServeOptions::new().with_order(pipeline_serve::QueueOrder::Fifo);
    let mut hard_opts = ServeOptions::new().with_feasibility(true);
    if cell.chaos == Chaos::Overload {
        hard_opts = hard_opts
            .with_degrade_horizon(SimTime::from_us(300))
            .with_shed_horizon(SimTime::from_ms(6));
    }
    ChaosResult {
        cell: cell.clone(),
        fifo: run_policy(cell, &tenants, &jobs, "fifo", &fifo_opts),
        hardened: run_policy(cell, &tenants, &jobs, "edf+admission", &hard_opts),
    }
}

/// Run the sweep. `smoke` shortens the streams for CI.
pub fn run(smoke: bool) -> Vec<ChaosResult> {
    let cells = if smoke { smoke_cells() } else { paper_cells() };
    cells.iter().map(run_cell).collect()
}

fn check_policy(name: &str, p: &PolicyResult) -> Result<(), String> {
    let rep = &p.report;
    if rep.done + rep.rejected.total() != rep.submitted {
        return Err(format!(
            "{name}/{}: accepted job lost — done {} + rejected {} != submitted {}",
            p.policy,
            rep.done,
            rep.rejected.total(),
            rep.submitted
        ));
    }
    if rep.verified_ok != rep.verified {
        return Err(format!(
            "{name}/{}: {} of {} preempted/recovered jobs diverged from their \
             CPU reference",
            p.policy,
            rep.verified - rep.verified_ok,
            rep.verified
        ));
    }
    Ok(())
}

/// CI gates over every cell (see module docs).
pub fn check(results: &[ChaosResult]) -> Result<(), String> {
    for r in results {
        let name = r.cell.chaos.name();
        check_policy(name, &r.fifo)?;
        check_policy(name, &r.hardened)?;
        let hard = &r.hardened.report;
        // In the overload cell the hardened policy deliberately sheds
        // and degrades the best-effort tenant, so its service share is
        // unfair *by design*; the floor there protects the guaranteed
        // tenants' shares instead.
        let jain = if r.cell.chaos == Chaos::Overload {
            let xs: Vec<f64> = hard
                .tenants
                .iter()
                .filter(|t| t.name != "batch" && t.submitted > 0)
                .map(|t| t.normalized_service())
                .collect();
            pipeline_serve::jain_index(&xs)
        } else {
            hard.fairness
        };
        if jain < JAIN_CHAOS_FLOOR {
            return Err(format!(
                "{name}: post-chaos Jain fairness {jain:.4} below committed floor \
                 {JAIN_CHAOS_FLOOR}"
            ));
        }
        let (mf, mh) = match (r.fifo.report.miss_rate(), hard.miss_rate()) {
            (Some(f), Some(h)) => (f, h),
            _ => return Err(format!("{name}: no deadline jobs in the stream")),
        };
        if mh >= mf {
            return Err(format!(
                "{name}: hardened policy missed {mh:.4} vs FIFO {mf:.4} — admission + EDF \
                 must beat the baseline"
            ));
        }
        match r.cell.chaos {
            Chaos::Clean => {
                if hard.devices_lost != 0 || hard.failed_slices != 0 {
                    return Err(format!("{name}: control cell saw faults"));
                }
            }
            Chaos::DeviceLoss => {
                if hard.devices_lost != 1 {
                    return Err(format!(
                        "{name}: expected exactly one device lost, saw {}",
                        hard.devices_lost
                    ));
                }
                if hard.recovered == 0 {
                    return Err(format!("{name}: nothing recovered from the lost device"));
                }
            }
            Chaos::HangSpike => {
                if hard.devices_lost == 0 {
                    return Err(format!(
                        "{name}: injected hang never escalated to a device loss"
                    ));
                }
            }
            Chaos::Overload => {
                if hard.degraded_slices == 0 {
                    return Err(format!(
                        "{name}: sustained overload never degraded the best-effort tenant"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Table the way EXPERIMENTS.md reports it.
pub fn print(results: &[ChaosResult]) {
    println!(
        "seeded chaos matrix, k40m/p100 fleets, functional mode; each cell: FIFO baseline \
         vs EDF + admission on the identical stream"
    );
    for r in results {
        println!(
            "\n{} — {} devices, {} jobs, gap {}, wall {:.0} ms fifo / {:.0} ms hardened",
            r.cell.chaos.name(),
            r.cell.devices,
            r.cell.jobs,
            r.cell.mean_gap,
            r.fifo.wall_ms,
            r.hardened.wall_ms
        );
        println!(
            "  {:>14}  {:>5}  {:>9}  {:>6}  {:>6}  {:>5}  {:>5}  {:>8}  {:>8}  {:>8}  {:>6}",
            "policy", "done", "rejected", "miss", "jain", "lost", "trips", "recov", "degrade",
            "verify", "oracle"
        );
        for p in [&r.fifo, &r.hardened] {
            let rep = &p.report;
            println!(
                "  {:>14}  {:>5}  {:>9}  {:>6.3}  {:>6.4}  {:>5}  {:>5}  {:>8}  {:>8}  {:>5}/{}  {:>6}",
                p.policy,
                rep.done,
                rep.rejected.total(),
                rep.miss_rate().unwrap_or(0.0),
                rep.fairness,
                rep.devices_lost,
                rep.breaker_trips,
                rep.recovered,
                rep.degraded_slices,
                rep.verified_ok,
                rep.verified,
                rep.verify_reference_runs,
            );
        }
    }
    println!(
        "\ngates: zero accepted jobs lost; all recovered/preempted jobs bit-identical; \
         hardened Jain >= {JAIN_CHAOS_FLOOR}; hardened miss rate < FIFO per cell \
         (rejections count as misses); every fault cell faulted"
    );
}

fn policy_json(p: &PolicyResult) -> String {
    let rep = &p.report;
    format!(
        "{{\"policy\": \"{}\", \"submitted\": {}, \"done\": {}, \
         \"rejected_over_quota\": {}, \"rejected_infeasible\": {}, \"rejected_overload\": {}, \
         \"miss_rate\": {:.6}, \"fairness\": {:.6}, \"devices_lost\": {}, \
         \"failed_slices\": {}, \"recovered\": {}, \"degraded_slices\": {}, \
         \"breaker_trips\": {}, \"preempted\": {}, \"verified\": {}, \"verified_ok\": {}, \
         \"makespan_ms\": {:.6}}}",
        p.policy,
        rep.submitted,
        rep.done,
        rep.rejected.get(pipeline_serve::Rejection::OverQuota),
        rep.rejected.get(pipeline_serve::Rejection::Infeasible),
        rep.rejected.get(pipeline_serve::Rejection::Overload),
        rep.miss_rate().unwrap_or(0.0),
        rep.fairness,
        rep.devices_lost,
        rep.failed_slices,
        rep.recovered,
        rep.degraded_slices,
        rep.breaker_trips,
        rep.preempted,
        rep.verified,
        rep.verified_ok,
        rep.makespan.as_ms_f64(),
    )
}

/// The `CHAOS_sim.json` payload.
pub fn json(results: &[ChaosResult]) -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"workload\": \"seeded chaos matrix: clean / device-loss / hang-spike / 2x \
         overload, FIFO baseline vs EDF+admission on identical streams, functional mode\",\n",
    );
    s.push_str(&format!("  \"jain_chaos_floor\": {JAIN_CHAOS_FLOOR},\n"));
    s.push_str("  \"cells\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"devices\": {}, \"jobs\": {}, \"policies\": [\n",
            r.cell.chaos.name(),
            r.cell.devices,
            r.cell.jobs,
        ));
        s.push_str(&format!("      {},\n", policy_json(&r.fifo)));
        s.push_str(&format!("      {}\n", policy_json(&r.hardened)));
        s.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One reduced loss cell end to end: gates hold and the rejection
    /// counters round-trip through the JSON payload.
    #[test]
    fn mini_loss_cell_passes_gates_and_json_round_trips() {
        let cell = ChaosCell {
            chaos: Chaos::DeviceLoss,
            devices: 4,
            jobs: 80,
            mean_gap: SimTime::from_us(8),
            seed: 0xC4A0_0002,
        };
        let r = run_cell(&cell);
        check(std::slice::from_ref(&r)).expect("mini loss cell gates");
        let payload = json(std::slice::from_ref(&r));
        let doc = gpsim::json::parse(&payload).expect("payload parses");
        let cells = doc.get("cells").and_then(|c| c.as_arr()).expect("cells");
        let policies = cells[0]
            .get("policies")
            .and_then(|p| p.as_arr())
            .expect("policies");
        let hardened = &policies[1];
        assert_eq!(
            hardened.get("policy").and_then(|p| p.as_str()),
            Some("edf+admission")
        );
        for (key, want) in [
            (
                "rejected_infeasible",
                r.hardened
                    .report
                    .rejected
                    .get(pipeline_serve::Rejection::Infeasible),
            ),
            (
                "rejected_over_quota",
                r.hardened
                    .report
                    .rejected
                    .get(pipeline_serve::Rejection::OverQuota),
            ),
            (
                "rejected_overload",
                r.hardened
                    .report
                    .rejected
                    .get(pipeline_serve::Rejection::Overload),
            ),
        ] {
            let got = hardened.get(key).and_then(|v| v.as_f64()).expect(key);
            assert_eq!(got as u64, want, "{key} did not round-trip");
        }
    }

    #[test]
    fn check_flags_a_lying_control_cell() {
        let cell = ChaosCell {
            chaos: Chaos::Clean,
            devices: 2,
            jobs: 60,
            mean_gap: SimTime::from_us(8),
            seed: 0xC4A0_0001,
        };
        let mut r = run_cell(&cell);
        r.hardened.report.devices_lost = 1;
        assert!(check(std::slice::from_ref(&r)).is_err());
    }
}
