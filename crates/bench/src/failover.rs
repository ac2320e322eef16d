//! `figures failover` — cost of losing a device: the multi-GPU failover
//! sweep.
//!
//! Runs the 3-D convolution benchmark co-scheduled across two K40m-class
//! devices sharing one host pool, then injects whole-context loss on
//! device 0 at increasing progress fractions and latency-spike
//! stragglers at increasing factors. A homogeneous pair keeps the
//! numbers interpretable: losing one of two equal devices at progress
//! fraction *f* ideally costs `(2 - f)×` the fault-free makespan, and
//! straggler shedding moves work to an equally fast peer, so the gain
//! column isolates when rebalancing pays for its migration cost. Every cell is verified *observationally clean* —
//! bit-identical output vs the fault-free co-scheduled reference — so
//! the numbers isolate the pure cost of failover: migrated iterations
//! and makespan overhead. The 50 %-loss cell's survivor is additionally
//! exported as a Perfetto-loadable trace whose `migrate[..]` spans and
//! stepping-down `devices_alive` counter track make the failover
//! visible.
//!
//! Like `figures faults`, this module runs in functional mode:
//! bit-identity is the property under test, and the DES cost model
//! produces identical simulated timings in both modes.

use gpsim::{DeviceProfile, ExecMode, FaultPlan, Gpu, HostPool, SimTime};
use pipeline_apps::{Conv3dConfig, Conv3dInstance};
use pipeline_rt::{run_model_multi, MultiOptions, MultiReport};

/// One loss cell: the K40m dies after a fraction of its fault-free
/// command stream.
#[derive(Debug, Clone)]
pub struct LossRow {
    /// Progress fraction at which the context was lost.
    pub frac: f64,
    /// The command-count trigger derived from that fraction.
    pub lost_after: u64,
    /// Iterations migrated to the survivor.
    pub migrated: u64,
    /// Makespan of the recovered run.
    pub makespan: SimTime,
    /// Fault-free co-scheduled makespan, for the overhead column.
    pub clean_makespan: SimTime,
}

impl LossRow {
    /// Makespan overhead of losing the device vs the fault-free run.
    pub fn overhead(&self) -> f64 {
        self.makespan.as_secs_f64() / self.clean_makespan.as_secs_f64() - 1.0
    }
}

/// One straggler cell: the K40m's commands spiked by a factor, run with
/// and without straggler rebalancing.
#[derive(Debug, Clone)]
pub struct StragglerRow {
    /// Per-command latency-spike factor.
    pub factor: f64,
    /// Spiked commands observed in the rebalanced run.
    pub spikes: u64,
    /// Iterations shed off the straggler.
    pub migrated: u64,
    /// Makespan with straggler rebalancing enabled.
    pub rebalanced: SimTime,
    /// Makespan with rebalancing disabled (threshold at infinity).
    pub pinned: SimTime,
}

impl StragglerRow {
    /// Makespan gain of rebalancing (`pinned / rebalanced`).
    pub fn gain(&self) -> f64 {
        if self.rebalanced.is_zero() {
            return f64::INFINITY;
        }
        self.pinned.as_secs_f64() / self.rebalanced.as_secs_f64()
    }
}

/// The sweep result: the fault-free reference plus one row per loss
/// fraction and per spike factor, and the survivor trace of the 50 %
/// loss cell.
#[derive(Debug, Clone)]
pub struct FailoverSweep {
    /// Problem shape label (`ni x nj x nk`).
    pub shape: String,
    /// Fault-free co-scheduled makespan.
    pub clean_makespan: SimTime,
    /// Commands the K40m retires fault-free (the loss-trigger yardstick).
    pub clean_commands: u64,
    /// One row per loss progress fraction.
    pub loss_rows: Vec<LossRow>,
    /// One row per straggler spike factor.
    pub straggler_rows: Vec<StragglerRow>,
    /// Perfetto trace document of the 50 %-loss survivor (`migrate[..]`
    /// spans, stepping-down `devices_alive` counter track).
    pub trace_json: String,
}

/// Loss progress fractions of the sweep.
pub fn paper_fracs() -> Vec<f64> {
    vec![0.25, 0.5, 0.75]
}

/// Straggler spike factors of the sweep.
pub fn paper_factors() -> Vec<f64> {
    vec![8.0, 16.0, 32.0]
}

fn config(smoke: bool) -> Conv3dConfig {
    if smoke {
        Conv3dConfig {
            ni: 24,
            nj: 24,
            nk: 48,
            chunk: 2,
            streams: 3,
        }
    } else {
        Conv3dConfig {
            ni: 96,
            nj: 96,
            nk: 192,
            chunk: 2,
            streams: 3,
        }
    }
}

/// Two functional contexts on one host pool plus a freshly filled
/// benchmark instance (fills are seeded, so every setup is identical).
fn instance(cfg: &Conv3dConfig) -> (Vec<Gpu>, Conv3dInstance) {
    let pool = HostPool::new(ExecMode::Functional);
    let mut gpus = vec![
        Gpu::with_host_pool(DeviceProfile::k40m(), pool.clone()).expect("context"),
        Gpu::with_host_pool(DeviceProfile::k40m(), pool).expect("context"),
    ];
    let inst = cfg.setup(&mut gpus[0]).expect("conv3d setup");
    (gpus, inst)
}

fn supervise(cfg: &Conv3dConfig, straggler_factor: f64) -> MultiOptions {
    let plane = cfg.plane() as u64;
    MultiOptions::default()
        .with_probe_cost(plane * 54, plane * 8)
        .with_straggler(straggler_factor)
}

fn check_identical(gpus: &[Gpu], inst: &Conv3dInstance, cfg: &Conv3dConfig, expect: &[f32], cell: &str) {
    let mut got = vec![0.0f32; cfg.total()];
    gpus[0].host_read(inst.b, 0, &mut got).expect("read output");
    let interior = cfg.plane()..(cfg.nk - 1) * cfg.plane();
    assert_eq!(
        got[interior.clone()],
        expect[interior],
        "{cell}: recovered output diverged from the fault-free reference"
    );
}

fn run_cell(
    cfg: &Conv3dConfig,
    plan: Option<FaultPlan>,
    straggler_factor: f64,
    expect: &[f32],
    cell: &str,
) -> MultiReport {
    let (mut gpus, inst) = instance(cfg);
    gpus[0].set_fault_plan(plan);
    let builder = cfg.builder();
    let mo = supervise(cfg, straggler_factor);
    let multi = run_model_multi(&mut gpus, &inst.region, &builder, &mo)
        .unwrap_or_else(|e| panic!("{cell}: failover run failed: {e}"));
    check_identical(&gpus, &inst, cfg, expect, cell);
    multi
}

/// Run the sweep. `smoke` shrinks the volume for CI.
pub fn run(smoke: bool) -> FailoverSweep {
    let cfg = config(smoke);

    // Fault-free co-scheduled reference: makespan, output bytes, and the
    // K40m command count that anchors the loss triggers.
    let (mut gpus, inst) = instance(&cfg);
    let builder = cfg.builder();
    let mo = supervise(&cfg, f64::INFINITY);
    let clean = run_model_multi(&mut gpus, &inst.region, &builder, &mo)
        .expect("fault-free run");
    assert!(clean.recovery.is_clean(), "fault-free run recorded recovery");
    let mut expect = vec![0.0f32; cfg.total()];
    gpus[0].host_read(inst.b, 0, &mut expect).expect("read reference");
    let clean_commands = clean.per_device[0].as_ref().expect("dev0 report").commands;

    let mut loss_rows = Vec::new();
    let mut trace_json = String::new();
    for frac in paper_fracs() {
        let lost_after = ((clean_commands as f64 * frac) as u64).max(1);
        let plan = FaultPlan::seeded(0xFA_11).device_lost_after(lost_after);
        let cell = format!("loss at {:.0}%", frac * 100.0);
        let multi = run_cell(&cfg, Some(plan), f64::INFINITY, &expect, &cell);
        assert_eq!(multi.recovery.devices_lost, vec![0], "{cell}");
        if (frac - 0.5).abs() < 1e-9 {
            // The survivor's trace must make the failover self-evident.
            trace_json = multi.device_trace_json(1);
            assert!(
                trace_json.contains("migrate["),
                "50% trace lacks migration spans"
            );
            assert!(
                trace_json.contains("devices_alive"),
                "50% trace lacks the devices_alive counter track"
            );
            let alive = &multi.devices_alive.samples;
            assert!(
                alive.first().map(|s| s.1) == Some(2.0)
                    && alive.last().map(|s| s.1) == Some(1.0),
                "devices_alive must step down from 2 to 1: {alive:?}"
            );
        }
        loss_rows.push(LossRow {
            frac,
            lost_after,
            migrated: multi.recovery.iterations_migrated,
            makespan: multi.makespan,
            clean_makespan: clean.makespan,
        });
    }

    let mut straggler_rows = Vec::new();
    for factor in paper_factors() {
        let plan = FaultPlan::seeded(0xFA_22).spikes(1.0, factor);
        let cell = format!("straggler x{factor}, rebalanced");
        let rebalanced = run_cell(&cfg, Some(plan.clone()), 3.0, &expect, &cell);
        let cell = format!("straggler x{factor}, pinned");
        let pinned = run_cell(&cfg, Some(plan), f64::INFINITY, &expect, &cell);
        assert!(
            pinned.recovery.is_clean(),
            "pinned run must not rebalance"
        );
        let spikes = rebalanced.per_device[0]
            .as_ref()
            .map(|r| r.spikes)
            .unwrap_or(0);
        straggler_rows.push(StragglerRow {
            factor,
            spikes,
            migrated: rebalanced.recovery.iterations_migrated,
            rebalanced: rebalanced.makespan,
            pinned: pinned.makespan,
        });
    }

    FailoverSweep {
        shape: format!("{}x{}x{}", cfg.ni, cfg.nj, cfg.nk),
        clean_makespan: clean.makespan,
        clean_commands,
        loss_rows,
        straggler_rows,
        trace_json,
    }
}

/// Table the way EXPERIMENTS.md reports it.
pub fn print(sweep: &FailoverSweep) {
    println!(
        "3dconv {} co-scheduled on 2 x K40m, fault-free makespan {:.3} ms \
         (device 0 retires {} commands)",
        sweep.shape,
        sweep.clean_makespan.as_ms_f64(),
        sweep.clean_commands
    );
    println!("\ncost of losing device 0 mid-flight:");
    println!(
        "{:>9}  {:>10}  {:>9}  {:>12}  {:>9}",
        "progress", "lost_after", "migrated", "makespan", "overhead"
    );
    for r in &sweep.loss_rows {
        println!(
            "{:>8.0}%  {:>10}  {:>9}  {:>9.3} ms  {:>8.1}%",
            r.frac * 100.0,
            r.lost_after,
            r.migrated,
            r.makespan.as_ms_f64(),
            r.overhead() * 100.0
        );
    }
    println!("\nstraggler rebalancing gain vs spike factor:");
    println!(
        "{:>7}  {:>7}  {:>9}  {:>13}  {:>13}  {:>6}",
        "factor", "spikes", "migrated", "rebalanced", "pinned", "gain"
    );
    for r in &sweep.straggler_rows {
        println!(
            "{:>6.0}x  {:>7}  {:>9}  {:>10.3} ms  {:>10.3} ms  {:>5.2}x",
            r.factor,
            r.spikes,
            r.migrated,
            r.rebalanced.as_ms_f64(),
            r.pinned.as_ms_f64(),
            r.gain()
        );
    }
    println!("every cell verified bit-identical to the fault-free co-scheduled run");
}

/// The `FAILOVER_sim.json` payload, in the same flat style as
/// `FAULTS_sim.json`.
pub fn json(sweep: &FailoverSweep) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"shape\": \"{}\",\n", sweep.shape));
    s.push_str(&format!(
        "  \"clean_makespan_ms\": {:.6},\n  \"clean_commands\": {},\n  \"loss_rows\": [\n",
        sweep.clean_makespan.as_ms_f64(),
        sweep.clean_commands
    ));
    for (i, r) in sweep.loss_rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"frac\": {:.2}, \"lost_after\": {}, \"migrated\": {}, \
             \"makespan_ms\": {:.6}, \"overhead\": {:.6}}}{}\n",
            r.frac,
            r.lost_after,
            r.migrated,
            r.makespan.as_ms_f64(),
            r.overhead(),
            if i + 1 == sweep.loss_rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n  \"straggler_rows\": [\n");
    for (i, r) in sweep.straggler_rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"factor\": {:.1}, \"spikes\": {}, \"migrated\": {}, \
             \"rebalanced_ms\": {:.6}, \"pinned_ms\": {:.6}, \"gain\": {:.6}}}{}\n",
            r.factor,
            r.spikes,
            r.migrated,
            r.rebalanced.as_ms_f64(),
            r.pinned.as_ms_f64(),
            r.gain(),
            if i + 1 == sweep.straggler_rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_fails_over_and_exports() {
        let sweep = run(true);
        assert_eq!(sweep.loss_rows.len(), paper_fracs().len());
        assert_eq!(sweep.straggler_rows.len(), paper_factors().len());
        assert!(sweep.loss_rows.iter().all(|r| r.migrated > 0));
        assert!(
            sweep.straggler_rows.iter().any(|r| r.spikes > 0),
            "no spikes fired"
        );
        assert!(!sweep.trace_json.is_empty());
        gpsim::json::parse(&sweep.trace_json).expect("trace JSON parses");
        let json = json(&sweep);
        gpsim::json::parse(&json).expect("payload JSON parses");
    }
}
