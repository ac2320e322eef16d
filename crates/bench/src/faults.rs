//! `figures faults` — overhead of resilience: the fault-injection sweep.
//!
//! Runs the 3-D convolution benchmark under the pipelined-buffer driver
//! with seeded, retryable H2D fault plans at increasing rates, with
//! chunk-granular retry enabled. Every faulted run is verified
//! *observationally clean* — bit-identical output and identical net
//! command count vs the fault-free reference — so the numbers isolate
//! the pure cost of recovery: reissued commands, backoff, and pipeline
//! disruption. The 5% cell is additionally exported as a
//! Perfetto-loadable trace whose `wait-retry` spans and
//! `retries_in_flight` counter track make the recovery visible.
//!
//! Unlike the other figure modules this one runs in functional mode:
//! bit-identity is the property under test, and the DES cost model
//! produces identical simulated timings in both modes.

use gpsim::{
    to_perfetto_trace, DeviceProfile, ExecMode, FaultPlan, FaultStage, Gpu, SimTime,
};
use pipeline_apps::Conv3dConfig;
use pipeline_rt::{run_model, ExecModel, RetryPolicy, RunOptions, RunReport};

/// One cell of the sweep: a fault rate and what recovering from it cost.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Injected per-command H2D failure probability.
    pub rate: f64,
    /// Faults the plan actually injected under this seed.
    pub injected: u64,
    /// The recovered run's report (recovery stats, timings).
    pub report: RunReport,
    /// Fault-free makespan, for the overhead column.
    pub clean_total: SimTime,
}

impl FaultRow {
    /// Makespan overhead of recovery vs the fault-free run.
    pub fn overhead(&self) -> f64 {
        self.report.total.as_secs_f64() / self.clean_total.as_secs_f64() - 1.0
    }
}

/// The sweep result: the fault-free reference, one row per fault rate,
/// and the Perfetto trace of the 5% cell.
#[derive(Debug, Clone)]
pub struct FaultSweep {
    /// Problem shape label (`ni x nj x nk`).
    pub shape: String,
    /// Fault-free run with recovery disabled (`RunOptions::default()`),
    /// i.e. the exact pre-recovery code path.
    pub baseline: RunReport,
    /// Fault-free reference report (retry enabled but idle).
    pub clean: RunReport,
    /// One row per injected fault rate.
    pub rows: Vec<FaultRow>,
    /// Perfetto trace document of the 5% run (wait-retry spans,
    /// retries_in_flight counter track).
    pub trace_json: String,
}

/// Fault rates of the sweep (per-H2D-command failure probability).
pub fn paper_rates() -> Vec<f64> {
    vec![0.01, 0.02, 0.05, 0.10]
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

fn retrying() -> RunOptions {
    RunOptions::default()
        .with_retry(RetryPolicy::retries(8).with_backoff(SimTime::from_us(50), 2.0))
}

/// Run the sweep. `smoke` shrinks the volume for CI.
pub fn run(smoke: bool) -> FaultSweep {
    let cfg = config(smoke);
    let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).expect("context");
    let inst = cfg.setup(&mut gpu).expect("conv3d setup");
    let builder = cfg.builder();

    // Recovery disabled: the pre-recovery code path, for the
    // "cost of merely enabling retry" number.
    let baseline = run_model(
        &mut gpu,
        &inst.region,
        &builder,
        ExecModel::PipelinedBuffer,
        &RunOptions::default(),
    )
    .expect("baseline run");

    // Fault-free reference: output bytes and net command count.
    let clean = run_model(
        &mut gpu,
        &inst.region,
        &builder,
        ExecModel::PipelinedBuffer,
        &retrying(),
    )
    .expect("fault-free run");
    let mut expect = vec![0.0f32; cfg.total()];
    gpu.host_read(inst.b, 0, &mut expect).expect("read reference");
    let interior = cfg.plane()..(cfg.nk - 1) * cfg.plane();

    let mut rows = Vec::new();
    let mut trace_json = String::new();
    for rate in paper_rates() {
        gpu.host_fill(inst.b, |_| -1.0).expect("reset output");
        // Each plan also targets the first H2D command, so every cell —
        // including smoke shapes where a low rate may never fire —
        // exercises the recovery path at least once.
        gpu.set_fault_plan(Some(
            FaultPlan::seeded(0xFA_017)
                .h2d_rate(rate)
                .target(FaultStage::H2d, 0),
        ));
        let report = run_model(
            &mut gpu,
            &inst.region,
            &builder,
            ExecModel::PipelinedBuffer,
            &retrying(),
        )
        .expect("faulted run");
        let injected = gpu.faults_injected();
        // The sweep's numbers are only meaningful if recovery really was
        // observationally clean.
        let mut got = vec![0.0f32; cfg.total()];
        gpu.host_read(inst.b, 0, &mut got).expect("read output");
        assert_eq!(
            got[interior.clone()],
            expect[interior.clone()],
            "rate {rate}: recovered output diverged"
        );
        assert_eq!(
            clean.commands, report.commands,
            "rate {rate}: net command count diverged"
        );
        if (rate - 0.05).abs() < 1e-9 {
            trace_json = to_perfetto_trace(
                gpu.timeline(),
                gpu.host_spans(),
                gpu.wait_records(),
                &report.counter_tracks,
            );
            assert!(
                trace_json.contains("wait-retry"),
                "5% trace lacks wait-retry spans"
            );
            assert!(
                trace_json.contains("retries_in_flight"),
                "5% trace lacks the retries_in_flight counter track"
            );
        }
        rows.push(FaultRow {
            rate,
            injected,
            report,
            clean_total: clean.total,
        });
    }
    gpu.set_fault_plan(None);
    FaultSweep {
        shape: format!("{}x{}x{}", cfg.ni, cfg.nj, cfg.nk),
        baseline,
        clean,
        rows,
        trace_json,
    }
}

/// Table the way EXPERIMENTS.md reports it.
pub fn print(sweep: &FaultSweep) {
    println!(
        "3dconv {} pipelined-buffer, fault-free makespan {:.3} ms",
        sweep.shape,
        sweep.clean.total.as_ms_f64()
    );
    println!(
        "retry machinery enabled but idle: {:+.2}% vs recovery disabled ({:.3} ms)",
        100.0 * (sweep.clean.total.as_secs_f64() / sweep.baseline.total.as_secs_f64() - 1.0),
        sweep.baseline.total.as_ms_f64()
    );
    println!(
        "{:>6}  {:>8}  {:>8}  {:>10}  {:>8}  {:>12}  {:>9}",
        "rate", "injected", "retries", "reissued", "backoff", "makespan", "overhead"
    );
    for r in &sweep.rows {
        println!(
            "{:>5.0}%  {:>8}  {:>8}  {:>10}  {:>7.0}us  {:>9.3} ms  {:>8.1}%",
            r.rate * 100.0,
            r.injected,
            r.report.recovery.total_retries(),
            r.report.recovery.reissued_commands,
            r.report.recovery.backoff_time.as_secs_f64() * 1e6,
            r.report.total.as_ms_f64(),
            r.overhead() * 100.0
        );
    }
    println!("every row verified bit-identical to the fault-free run");
}

/// The `FAULTS_sim.json` payload: one record per rate, plus the clean
/// baseline.
pub fn json(sweep: &FaultSweep) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"shape\": \"{}\",\n", sweep.shape));
    s.push_str(&format!(
        "  \"baseline_ms\": {:.6},\n",
        sweep.baseline.total.as_ms_f64()
    ));
    s.push_str(&format!(
        "  \"clean_ms\": {:.6},\n  \"commands\": {},\n  \"rows\": [\n",
        sweep.clean.total.as_ms_f64(),
        sweep.clean.commands
    ));
    for (i, r) in sweep.rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"rate\": {:.4}, \"injected\": {}, \"retries\": {}, \
             \"reissued\": {}, \"backoff_us\": {:.3}, \"total_ms\": {:.6}, \
             \"overhead\": {:.6}}}{}\n",
            r.rate,
            r.injected,
            r.report.recovery.total_retries(),
            r.report.recovery.reissued_commands,
            r.report.recovery.backoff_time.as_secs_f64() * 1e6,
            r.report.total.as_ms_f64(),
            r.overhead(),
            if i + 1 == sweep.rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_recovers_and_exports() {
        let sweep = run(true);
        assert_eq!(sweep.rows.len(), paper_rates().len());
        assert!(sweep.rows.iter().any(|r| r.injected > 0), "no faults fired");
        assert!(!sweep.trace_json.is_empty());
        gpsim::json::parse(&sweep.trace_json).expect("trace JSON parses");
        let json = json(&sweep);
        gpsim::json::parse(&json).expect("payload JSON parses");
    }
}
