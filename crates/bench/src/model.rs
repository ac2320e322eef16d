//! Model validation — analytic cost-model predictions vs the DES, over
//! the Figure 4 (K40m QCD chunk×stream grid) and Figure 8 (HD 7970
//! chunk-count sweep) cells.
//!
//! Every row pairs one [`CostModel::predict`] estimate with the measured
//! makespan of the same configuration simulated end-to-end, and reports
//! the relative error. The `figures model [--smoke]` subcommand prints
//! the table, writes it as `MODEL_sim.json`, and exits non-zero when the
//! median error exceeds [`MAX_MEDIAN_ERR`] — the committed accuracy
//! floor that makes the O(1) model-based autotuner trustworthy as the
//! default strategy.

use pipeline_apps::{Conv3dConfig, QcdConfig, StencilConfig};
use pipeline_rt::{
    run_model, run_model_online, sweep_map, CostModel, ExecModel, RunOptions, TuneSpace,
};

use crate::{gpu_hd7970, gpu_k40m};

/// Committed accuracy floor: the median relative makespan error across
/// the fig4 + fig8 grids must stay at or below this. CI gates on it.
pub const MAX_MEDIAN_ERR: f64 = 0.15;

/// One predicted-vs-measured cell.
#[derive(Debug, Clone)]
pub struct ModelRow {
    /// Benchmark the cell came from.
    pub bench: &'static str,
    /// Simulated device profile.
    pub device: &'static str,
    /// Execution model label.
    pub exec: &'static str,
    /// Chunk size of the schedule.
    pub chunk: usize,
    /// Stream count of the schedule.
    pub streams: usize,
    /// The analytic model's makespan estimate, milliseconds.
    pub predicted_ms: f64,
    /// The DES-measured makespan, milliseconds.
    pub measured_ms: f64,
}

impl ModelRow {
    /// Relative makespan error, `|pred - meas| / meas`.
    pub fn rel_err(&self) -> f64 {
        (self.predicted_ms - self.measured_ms).abs() / self.measured_ms.max(1e-12)
    }
}

/// Summary of one online-adaptation demo run (`run_model_online`): the
/// model picks a schedule, runs, feeds the stall attributor's verdict
/// back, and re-picks when the verdict contradicts the plan.
#[derive(Debug, Clone)]
pub struct OnlineSummary {
    /// Iterations executed.
    pub iters: usize,
    /// Iterations that triggered a schedule re-pick.
    pub replans: usize,
    /// Iterations that replayed a cached compiled plan.
    pub plan_reuses: usize,
    /// Total measured time across the iterations, milliseconds.
    pub total_ms: f64,
    /// Human-readable final schedule.
    pub final_schedule: String,
}

/// Everything the `figures model` subcommand reports.
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// Whether the smoke shapes were used.
    pub smoke: bool,
    /// Prediction-error rows over the fig4 + fig8 cells.
    pub rows: Vec<ModelRow>,
    /// The online-adaptation demo.
    pub online: OnlineSummary,
}

impl ModelReport {
    /// Median relative error across all rows.
    pub fn median_err(&self) -> f64 {
        median(&mut self.rows.iter().map(ModelRow::rel_err).collect::<Vec<_>>())
    }
}

fn median(errs: &mut [f64]) -> f64 {
    if errs.is_empty() {
        return 0.0;
    }
    errs.sort_by(f64::total_cmp);
    let n = errs.len();
    if n % 2 == 1 {
        errs[n / 2]
    } else {
        0.5 * (errs[n / 2 - 1] + errs[n / 2])
    }
}

/// The AMD benchmarks of Figure 8, with the same shapes `fig8` uses
/// (smoke: same plane sizes, shorter split dimensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AmdBench {
    Conv3d,
    Stencil,
}

impl AmdBench {
    fn name(self) -> &'static str {
        match self {
            AmdBench::Conv3d => "3dconv",
            AmdBench::Stencil => "stencil",
        }
    }

    fn conv_cfg(smoke: bool) -> Conv3dConfig {
        Conv3dConfig {
            ni: 768,
            nj: 768,
            nk: if smoke { 34 } else { 256 },
            chunk: 1,
            streams: 3,
        }
    }

    fn stencil_cfg(smoke: bool) -> StencilConfig {
        StencilConfig {
            nz: if smoke { 34 } else { 512 },
            ..StencilConfig::parboil_default()
        }
    }

    fn iters(self, smoke: bool) -> usize {
        match self {
            AmdBench::Conv3d => Self::conv_cfg(smoke).nk - 2,
            AmdBench::Stencil => Self::stencil_cfg(smoke).nz - 2,
        }
    }
}

/// One cell of the validation grid.
#[derive(Debug, Clone, Copy)]
enum Cell {
    /// Figure 4: QCD pipelined-buffer on the K40m.
    Qcd { n: usize, chunk: usize, streams: usize },
    /// Figure 8: conv3d/stencil on the HD 7970. `n_chunks == 0` marks
    /// the default chunking (one iteration per chunk).
    Amd { bench: AmdBench, exec: ExecModel, n_chunks: usize },
}

fn exec_label(exec: ExecModel) -> &'static str {
    match exec {
        ExecModel::Naive => "naive",
        ExecModel::Pipelined => "pipelined",
        _ => "pipelined_buffer",
    }
}

fn run_cell(cell: Cell, smoke: bool) -> ModelRow {
    match cell {
        Cell::Qcd { n, chunk, streams } => {
            let mut gpu = gpu_k40m();
            let mut cfg = QcdConfig::paper_size(n);
            cfg.chunk = chunk;
            cfg.streams = streams;
            let inst = cfg.setup(&mut gpu).expect("qcd setup");
            let builder = cfg.builder();
            let model = CostModel::new(&gpu, &inst.region, &builder).expect("cost model");
            let pred = model
                .predict(ExecModel::PipelinedBuffer, chunk, streams)
                .expect("predict");
            let rep = run_model(
                &mut gpu,
                &inst.region,
                &builder,
                ExecModel::PipelinedBuffer,
                &RunOptions::default(),
            )
            .expect("qcd run");
            ModelRow {
                bench: "qcd",
                device: "k40m",
                exec: exec_label(ExecModel::PipelinedBuffer),
                chunk,
                streams,
                predicted_ms: pred.total.as_ms_f64(),
                measured_ms: rep.total.as_ms_f64(),
            }
        }
        Cell::Amd { bench, exec, n_chunks } => {
            let iters = bench.iters(smoke);
            let requested = if n_chunks == 0 { iters } else { n_chunks };
            let chunk = iters.div_ceil(requested);
            let streams = 3;
            let mut gpu = gpu_hd7970();
            let (pred, rep) = match bench {
                AmdBench::Conv3d => {
                    let mut cfg = AmdBench::conv_cfg(smoke);
                    cfg.chunk = chunk;
                    cfg.streams = streams;
                    let inst = cfg.setup(&mut gpu).expect("conv3d setup");
                    let builder = cfg.builder();
                    let model =
                        CostModel::new(&gpu, &inst.region, &builder).expect("cost model");
                    let pred = model.predict(exec, chunk, streams).expect("predict");
                    let rep = run_model(&mut gpu, &inst.region, &builder, exec, &RunOptions::default())
                        .expect("conv3d run");
                    (pred, rep)
                }
                AmdBench::Stencil => {
                    let mut cfg = AmdBench::stencil_cfg(smoke);
                    cfg.chunk = chunk;
                    cfg.streams = streams;
                    let inst = cfg.setup(&mut gpu).expect("stencil setup");
                    let builder = cfg.builder();
                    let model =
                        CostModel::new(&gpu, &inst.region, &builder).expect("cost model");
                    let pred = model.predict(exec, chunk, streams).expect("predict");
                    let rep = run_model(&mut gpu, &inst.region, &builder, exec, &RunOptions::default())
                        .expect("stencil run");
                    (pred, rep)
                }
            };
            ModelRow {
                bench: bench.name(),
                device: "hd7970",
                exec: exec_label(exec),
                chunk,
                streams,
                predicted_ms: pred.total.as_ms_f64(),
                measured_ms: rep.total.as_ms_f64(),
            }
        }
    }
}

fn grid(smoke: bool) -> Vec<Cell> {
    let mut cells = Vec::new();
    // Figure 4 grid: chunk sizes × stream counts, QCD pipelined-buffer.
    let (n, chunks, streams): (usize, &[usize], &[usize]) = if smoke {
        (12, &[1, 4], &[1, 3])
    } else {
        (36, &[1, 2, 4, 8], &[1, 2, 3, 4, 5])
    };
    for &c in chunks {
        for &s in streams {
            cells.push(Cell::Qcd { n, chunk: c, streams: s });
        }
    }
    // Figure 8 sweep: per benchmark, one Naive reference plus a
    // Pipelined row per chunk count (0 = default, one iter per chunk).
    let counts: &[usize] = if smoke {
        &[2, 8, 0]
    } else {
        &[2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 50, 0]
    };
    for bench in [AmdBench::Conv3d, AmdBench::Stencil] {
        cells.push(Cell::Amd { bench, exec: ExecModel::Naive, n_chunks: 2 });
        for &nc in counts {
            cells.push(Cell::Amd { bench, exec: ExecModel::Pipelined, n_chunks: nc });
        }
    }
    cells
}

fn run_online_demo(smoke: bool) -> OnlineSummary {
    let mut gpu = gpu_k40m();
    let cfg = QcdConfig::paper_size(if smoke { 8 } else { 24 });
    let inst = cfg.setup(&mut gpu).expect("qcd setup");
    let builder = cfg.builder();
    let space = TuneSpace::default();
    let iters = 4;
    let rep = run_model_online(&mut gpu, &inst.region, &builder, &space, iters)
        .expect("online loop");
    OnlineSummary {
        iters: rep.steps.len(),
        replans: rep.replans(),
        plan_reuses: rep.steps.iter().filter(|s| s.plan_reused).count(),
        total_ms: rep.total().as_ms_f64(),
        final_schedule: format!("{:?}", rep.final_schedule),
    }
}

/// Run the full validation grid (or the smoke subset) plus the online
/// demo. Cells fan out over the sweep pool.
pub fn run(smoke: bool) -> ModelReport {
    let cells = grid(smoke);
    let rows = sweep_map(cells.len(), |i| run_cell(cells[i], smoke));
    let online = run_online_demo(smoke);
    ModelReport { smoke, rows, online }
}

/// Print the validation table and the online-demo summary.
pub fn print(rep: &ModelReport) {
    println!(
        "{:<8} {:<8} {:<17} {:>6} {:>8} {:>13} {:>12} {:>8}",
        "bench", "device", "model", "chunk", "streams", "predicted ms", "measured ms", "err"
    );
    for r in &rep.rows {
        println!(
            "{:<8} {:<8} {:<17} {:>6} {:>8} {:>13.3} {:>12.3} {:>7.1}%",
            r.bench,
            r.device,
            r.exec,
            r.chunk,
            r.streams,
            r.predicted_ms,
            r.measured_ms,
            r.rel_err() * 100.0
        );
    }
    println!(
        "\nmedian error {:.1}% over {} cells (gate: {:.0}%)",
        rep.median_err() * 100.0,
        rep.rows.len(),
        MAX_MEDIAN_ERR * 100.0
    );
    let o = &rep.online;
    println!(
        "online demo: {} iters, {} replans, {} plan reuses, {:.3} ms total, final {}",
        o.iters, o.replans, o.plan_reuses, o.total_ms, o.final_schedule
    );
}

/// CSV of the validation rows.
pub fn csv(rep: &ModelReport) -> String {
    let mut s = String::from("bench,device,model,chunk,streams,predicted_ms,measured_ms,rel_err\n");
    for r in &rep.rows {
        s.push_str(&format!(
            "{},{},{},{},{},{:.6},{:.6},{:.6}\n",
            r.bench, r.device, r.exec, r.chunk, r.streams, r.predicted_ms, r.measured_ms,
            r.rel_err()
        ));
    }
    s
}

/// The `MODEL_sim.json` document.
pub fn json(rep: &ModelReport) -> String {
    let mut rows = String::new();
    for (i, r) in rep.rows.iter().enumerate() {
        if i > 0 {
            rows.push(',');
        }
        rows.push_str(&format!(
            "\n    {{ \"bench\": \"{}\", \"device\": \"{}\", \"model\": \"{}\", \"chunk\": {}, \"streams\": {}, \"predicted_ms\": {:.6}, \"measured_ms\": {:.6}, \"rel_err\": {:.6} }}",
            r.bench, r.device, r.exec, r.chunk, r.streams, r.predicted_ms, r.measured_ms,
            r.rel_err()
        ));
    }
    let o = &rep.online;
    format!(
        "{{\n  \"smoke\": {},\n  \"cells\": {},\n  \"median_rel_err\": {:.6},\n  \"max_median_err\": {MAX_MEDIAN_ERR},\n  \"online\": {{ \"iters\": {}, \"replans\": {}, \"plan_reuses\": {}, \"total_ms\": {:.6}, \"final_schedule\": \"{}\" }},\n  \"rows\": [{rows}\n  ]\n}}",
        rep.smoke,
        rep.rows.len(),
        rep.median_err(),
        o.iters,
        o.replans,
        o.plan_reuses,
        o.total_ms,
        o.final_schedule
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_meets_the_error_gate() {
        let rep = run(true);
        assert!(rep.rows.len() >= 10, "rows: {}", rep.rows.len());
        for r in &rep.rows {
            assert!(r.measured_ms > 0.0, "{r:?}");
            assert!(r.predicted_ms > 0.0, "{r:?}");
        }
        let med = rep.median_err();
        assert!(
            med <= MAX_MEDIAN_ERR,
            "median model error {:.1}% exceeds the {:.0}% gate",
            med * 100.0,
            MAX_MEDIAN_ERR * 100.0
        );
        assert_eq!(rep.online.iters, 4);
        assert!(rep.online.plan_reuses > 0, "{:?}", rep.online);
        let json = json(&rep);
        let parsed = gpsim::json::parse(&json).expect("model JSON parses");
        assert!(parsed.get("median_rel_err").is_some());
        assert!(parsed.get("rows").and_then(|r| r.as_arr()).is_some());
        let csv = csv(&rep);
        assert_eq!(csv.lines().count(), rep.rows.len() + 1);
    }
}
