//! `paper-sweep`: the paper's evaluation grid in timing mode (phantom
//! data), plus held-out region shapes drawn from the seed.
//!
//! One pass runs every cell through the sweep pool: each cell builds its
//! own context, sets its app up, runs every execution model it lists
//! (the Pipelined-buffer runs replay a plan compiled once in set-up) and
//! asks the cost model for a prediction of each run; three extra items
//! autotune one app each. No kernel body runs and nothing is served, so
//! host time is all planning, drivers, the DES and the cost model.

use std::sync::Arc;

use gpsim::SimError;
use pipeline_apps::{Conv3dConfig, MatmulConfig, QcdConfig, StencilConfig};
use pipeline_directive::parse_directive;
use pipeline_rt::{
    autotune, compile_plan, run_model, sweep_map_threads, BufferOptions, CompiledPlan, CostModel,
    ExecModel, KernelBuilder, Region, RtError, RtResult, RunOptions, TuneSpace,
};

use crate::report::{geomean, mean, median, quantile, Metrics};
use crate::runs::{run_span, Device, RunSim};
use crate::trace::{self, span};

/// A region app with its shape and schedule.
#[derive(Debug, Clone, Copy)]
pub enum App {
    /// Polybench 3-D convolution.
    Conv3d(Conv3dConfig),
    /// Parboil 7-point stencil.
    Stencil(StencilConfig),
    /// Lattice QCD hopping term.
    Qcd(QcdConfig),
}

/// A bound region with its kernel builder.
pub type Bound = (Region, Box<KernelBuilder<'static>>);

impl App {
    /// The directive text, for the apps that are written with one.
    pub fn directive(&self) -> Option<String> {
        match self {
            App::Conv3d(c) => Some(c.directive()),
            App::Stencil(c) => Some(c.directive()),
            App::Qcd(_) => None,
        }
    }

    /// `(chunk, streams)` of the app's schedule.
    pub fn schedule(&self) -> (usize, usize) {
        match self {
            App::Conv3d(c) => (c.chunk, c.streams),
            App::Stencil(c) => (c.chunk, c.streams),
            App::Qcd(c) => (c.chunk, c.streams),
        }
    }

    /// Allocate the app's host arrays on `gpu` and bind its region.
    pub fn setup(&self, gpu: &mut gpsim::Gpu) -> RtResult<Bound> {
        span("apps:setup", || match self {
            App::Conv3d(c) => {
                let inst = c.setup(gpu)?;
                Ok((
                    inst.region,
                    Box::new(c.builder()) as Box<KernelBuilder<'static>>,
                ))
            }
            App::Stencil(c) => {
                let inst = c.setup(gpu)?;
                Ok((
                    inst.region,
                    Box::new(c.builder()) as Box<KernelBuilder<'static>>,
                ))
            }
            App::Qcd(c) => {
                let inst = c.setup(gpu)?;
                Ok((
                    inst.region,
                    Box::new(c.builder()) as Box<KernelBuilder<'static>>,
                ))
            }
        })
    }
}

/// What one sweep item does.
#[derive(Debug, Clone)]
pub enum Work {
    /// Run `app` on `device` under each of `models`, predicting each.
    Region {
        /// The app.
        app: App,
        /// The device.
        device: Device,
        /// Execution models, run in order on one context.
        models: &'static [ExecModel],
        /// Plan compiled in set-up for the Pipelined-buffer run.
        plan: Option<Arc<CompiledPlan>>,
    },
    /// Figs. 9/10: the three GEMM versions at size `n` on the K40m.
    Gemm {
        /// Matrix dimension.
        n: usize,
    },
    /// Autotune `app` on the K40m with the default (cost-model) tuner.
    Autotune {
        /// The app.
        app: App,
    },
}

/// One sweep item.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Figure (or `held-out`) the cell belongs to.
    pub fig: &'static str,
    /// Cell label within the figure.
    pub label: String,
    /// The work.
    pub work: Work,
}

/// How one version of a cell ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// It ran.
    Ran(RunSim),
    /// Device allocation failed (the paper's missing GEMM bars).
    Oom(&'static str),
    /// Any other error.
    Failed(&'static str, String),
}

/// Outcome of one cell in one pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CellResult {
    /// One outcome per version run.
    pub runs: Vec<Outcome>,
    /// Autotune result: chunk, streams, predicted best time (ns), DES
    /// trials.
    pub tune: Option<(usize, usize, u64, usize)>,
}

impl CellResult {
    /// The completed run of `version`, if any.
    pub fn ran(&self, version: &str) -> Option<&RunSim> {
        self.runs.iter().find_map(|o| match o {
            Outcome::Ran(r) if r.version == version => Some(r),
            _ => None,
        })
    }
}

const ALL_MODELS: &[ExecModel] = &[
    ExecModel::Naive,
    ExecModel::Pipelined,
    ExecModel::PipelinedBuffer,
    ExecModel::Auto,
];
const THREE_MODELS: &[ExecModel] = &[
    ExecModel::Naive,
    ExecModel::Pipelined,
    ExecModel::PipelinedBuffer,
];
const BUFFER_ONLY: &[ExecModel] = &[ExecModel::PipelinedBuffer];
const NAIVE_PIPELINED: &[ExecModel] = &[ExecModel::Naive, ExecModel::Pipelined];

/// GEMM sizes of Figs. 9/10; the two largest exceed device memory for
/// every version but the pipeline-buffer one.
pub const GEMM_SIZES: &[usize] = &[1024, 2048, 4096, 8192, 10240, 12288, 14336, 20480, 24576];

/// Held-out shapes drawn per stratum and seed.
pub const HELD_OUT_DRAWS: usize = 3;

fn region(
    fig: &'static str,
    label: String,
    app: App,
    device: Device,
    models: &'static [ExecModel],
) -> Cell {
    Cell {
        fig,
        label,
        work: Work::Region {
            app,
            device,
            models,
            plan: None,
        },
    }
}

/// The Figs. 5/6 cells (K40m, every model). Figure 3's QCD speedups are
/// the Pipelined runs of the three QCD cells.
pub fn fig5_cells() -> Vec<Cell> {
    let mut cells = vec![
        region(
            "fig5",
            "3dconv".into(),
            App::Conv3d(Conv3dConfig::polybench_default()),
            Device::K40m,
            ALL_MODELS,
        ),
        region(
            "fig5",
            "stencil".into(),
            App::Stencil(StencilConfig::parboil_default()),
            Device::K40m,
            ALL_MODELS,
        ),
    ];
    for (name, n) in [("qcd-small", 12), ("qcd-medium", 24), ("qcd-large", 36)] {
        cells.push(region(
            "fig5",
            name.into(),
            App::Qcd(QcdConfig::paper_size(n)),
            Device::K40m,
            ALL_MODELS,
        ));
    }
    cells
}

/// The cells [`paper_err`] reads: Figs. 3/5/6 and the largest GEMM
/// size every version can run.
pub fn headline_cells() -> Vec<Cell> {
    let mut cells = fig5_cells();
    cells.push(Cell {
        fig: "fig9",
        label: "14336".into(),
        work: Work::Gemm { n: 14336 },
    });
    cells
}

/// Fig. 8's HD 7970 shapes: the K40m's conv3d case does not fit 3 GB,
/// so the plane stays and the split dimension shrinks; the stencil is a
/// 512³ grid.
fn fig8_apps() -> [(&'static str, App); 2] {
    [
        (
            "3dconv",
            App::Conv3d(Conv3dConfig {
                nk: 256,
                ..Conv3dConfig::polybench_default()
            }),
        ),
        (
            "stencil",
            App::Stencil(StencilConfig {
                nz: 512,
                ..StencilConfig::parboil_default()
            }),
        ),
    ]
}

fn with_chunk(app: App, chunk: usize, streams: usize) -> App {
    match app {
        App::Conv3d(c) => App::Conv3d(Conv3dConfig {
            chunk,
            streams,
            ..c
        }),
        App::Stencil(c) => App::Stencil(StencilConfig {
            chunk,
            streams,
            ..c
        }),
        App::Qcd(c) => App::Qcd(QcdConfig {
            chunk,
            streams,
            ..c
        }),
    }
}

/// SplitMix64: the benchmark's own seeded generator.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Region shapes drawn from `seed`: the workload's jobs. Each stratum
/// is a paper shape on one device; each draw scales its split dimension
/// by a factor in [0.9, 1.0], so the jobs are sizes the paper grid does
/// not hold while their spread stays that of the paper's own shapes, and
/// no job outgrows the paper's largest (which keeps peak memory a
/// property of the grid, not of the seed).
fn held_out(seed: u64) -> Vec<Cell> {
    let conv = Conv3dConfig::polybench_default();
    let sten = StencilConfig::parboil_default();
    let strata: [(Device, App); 11] = [
        (Device::K40m, App::Conv3d(conv)),
        (Device::K40m, App::Stencil(sten)),
        (Device::K40m, App::Qcd(QcdConfig::paper_size(12))),
        (Device::K40m, App::Qcd(QcdConfig::paper_size(24))),
        (Device::K40m, App::Qcd(QcdConfig::paper_size(36))),
        (Device::Hd7970, fig8_apps()[0].1),
        (Device::Hd7970, fig8_apps()[1].1),
        (Device::P100, App::Conv3d(conv)),
        (Device::P100, App::Stencil(sten)),
        (Device::P100, App::Qcd(QcdConfig::paper_size(24))),
        (Device::P100, App::Qcd(QcdConfig::paper_size(36))),
    ];
    let mut rng = SplitMix(seed);
    let mut scale = |n: usize| n * (900 + (rng.next_u64() % 101) as usize) / 1000;
    let mut cells = Vec::new();
    for draw in 0..HELD_OUT_DRAWS {
        for (s, &(device, app)) in strata.iter().enumerate() {
            let app = match app {
                App::Conv3d(c) => App::Conv3d(Conv3dConfig {
                    nk: scale(c.nk),
                    ..c
                }),
                App::Stencil(c) => App::Stencil(StencilConfig {
                    nz: scale(c.nz),
                    ..c
                }),
                App::Qcd(c) => App::Qcd(QcdConfig {
                    nt: scale(c.nt),
                    ..c
                }),
            };
            cells.push(region(
                "held-out",
                format!("s{s}d{draw}"),
                app,
                device,
                THREE_MODELS,
            ));
        }
    }
    cells
}

/// The whole grid for `seed`: Figs. 5/6 (with Fig. 3), Fig. 4, Fig. 8,
/// Figs. 9/10, the held-out shapes, and one autotune item per app.
pub fn grid(seed: u64) -> Vec<Cell> {
    let mut cells = fig5_cells();
    for chunk in [1, 2, 4, 8] {
        for streams in 1..=5 {
            let app = with_chunk(App::Qcd(QcdConfig::paper_size(36)), chunk, streams);
            cells.push(region(
                "fig4",
                format!("c{chunk}s{streams}"),
                app,
                Device::K40m,
                BUFFER_ONLY,
            ));
        }
    }
    for (name, app) in fig8_apps() {
        let iters = match app {
            App::Conv3d(c) => c.nk - 2,
            App::Stencil(c) => c.nz - 2,
            App::Qcd(c) => c.nt,
        };
        // 0 is the default chunking: one iteration per chunk.
        for n_chunks in [2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 50, 0] {
            let chunk = if n_chunks == 0 {
                1
            } else {
                iters.div_ceil(n_chunks)
            };
            let app = with_chunk(app, chunk, 3);
            cells.push(region(
                "fig8",
                format!("{name}-{n_chunks}"),
                app,
                Device::Hd7970,
                NAIVE_PIPELINED,
            ));
        }
    }
    for &n in GEMM_SIZES {
        cells.push(Cell {
            fig: "fig9",
            label: n.to_string(),
            work: Work::Gemm { n },
        });
    }
    cells.extend(held_out(seed));
    for (label, app) in [
        ("3dconv", App::Conv3d(Conv3dConfig::polybench_default())),
        ("stencil", App::Stencil(StencilConfig::parboil_default())),
        ("qcd-large", App::Qcd(QcdConfig::paper_size(36))),
    ] {
        cells.push(Cell {
            fig: "autotune",
            label: label.into(),
            work: Work::Autotune { app },
        });
    }
    cells
}

/// Set-up the passes reuse: parse each directive and compile each
/// Pipelined-buffer plan once. Returns the cells with their plans.
pub fn prepare(mut cells: Vec<Cell>) -> RtResult<Vec<Cell>> {
    for cell in &mut cells {
        let Work::Region {
            app,
            device,
            models,
            plan,
        } = &mut cell.work
        else {
            continue;
        };
        if let Some(text) = app.directive() {
            span("directive:parse_directive", || parse_directive(&text))
                .map_err(|e| RtError::Spec(format!("{}: {e}", cell.label)))?;
        }
        if models.contains(&ExecModel::PipelinedBuffer) {
            let mut gpu = device.timing_gpu();
            let (region, builder) = app.setup(&mut gpu)?;
            let compiled = span("plan:compile_plan", || {
                compile_plan(&mut gpu, &region, &*builder, &BufferOptions::default())
            })?;
            *plan = Some(Arc::new(compiled));
        }
    }
    Ok(cells)
}

fn run_region(
    app: &App,
    device: Device,
    models: &[ExecModel],
    plan: &Option<Arc<CompiledPlan>>,
) -> CellResult {
    let mut out = CellResult::default();
    let mut gpu = device.timing_gpu();
    let (region, builder) = match app.setup(&mut gpu) {
        Ok(b) => b,
        Err(e) => {
            out.runs.push(Outcome::Failed("setup", e.to_string()));
            return out;
        }
    };
    let (chunk, streams) = app.schedule();
    for &model in models {
        let version = crate::runs::model_name(model);
        let predicted = (model != ExecModel::Auto)
            .then(|| {
                span("costmodel:predict", || {
                    CostModel::new(&gpu, &region, &*builder)?.predict(model, chunk, streams)
                })
            })
            .transpose();
        let opts = match (model, plan) {
            (ExecModel::PipelinedBuffer, Some(p)) => RunOptions::default().with_compiled(p.clone()),
            _ => RunOptions::default(),
        };
        let run = span(run_span(model), || {
            run_model(&mut gpu, &region, &*builder, model, &opts)
        });
        out.runs.push(match (run, predicted) {
            (Ok(r), Ok(p)) => Outcome::Ran(RunSim::new(version, &r, p.map(|p| p.total.as_ns()))),
            (Err(e), _) | (_, Err(e)) => classify(version, e),
        });
    }
    out
}

fn classify(version: &'static str, e: RtError) -> Outcome {
    match e {
        RtError::Sim(SimError::OutOfMemory { .. }) => Outcome::Oom(version),
        e => Outcome::Failed(version, e.to_string()),
    }
}

fn run_gemm(n: usize) -> CellResult {
    let cfg = MatmulConfig::with_n(n);
    let mut gpu = Device::K40m.timing_gpu();
    let mut out = CellResult::default();
    let (a, b, c) = match span("apps:setup", || cfg.host_matrices(&mut gpu)) {
        Ok(m) => m,
        Err(e) => {
            out.runs.push(Outcome::Failed("setup", e.to_string()));
            return out;
        }
    };
    let versions: [(&'static str, &'static str); 3] = [
        ("naive", "run:naive"),
        ("block_shared", "run:block_shared"),
        ("buffer", "run:buffer"),
    ];
    for (version, name) in versions {
        let r = span(name, || match version {
            "naive" => cfg.run_baseline(&mut gpu, a, b, c),
            "block_shared" => cfg.run_block_shared(&mut gpu, a, b, c),
            _ => cfg.run_pipeline_buffer(&mut gpu, a, b, c),
        });
        out.runs.push(match r {
            Ok(r) => Outcome::Ran(RunSim::new(version, &r, None)),
            Err(e) => classify(version, e),
        });
    }
    out
}

fn run_autotune(app: &App) -> CellResult {
    let mut gpu = Device::K40m.timing_gpu();
    let mut out = CellResult::default();
    let tuned = app.setup(&mut gpu).and_then(|(region, builder)| {
        span("costmodel:autotune", || {
            autotune(&gpu, &region, &*builder, &TuneSpace::default())
        })
    });
    match tuned {
        Ok(t) => {
            let (chunk, streams) = match t.best {
                pipeline_rt::Schedule::Static {
                    chunk_size,
                    num_streams,
                } => (chunk_size, num_streams),
                pipeline_rt::Schedule::Adaptive => (0, 0),
            };
            out.tune = Some((chunk, streams, t.best_time.as_ns(), t.des_trials));
        }
        Err(e) => out.runs.push(Outcome::Failed("autotune", e.to_string())),
    }
    out
}

/// Run one cell.
pub fn run_cell(cell: &Cell) -> CellResult {
    match &cell.work {
        Work::Region {
            app,
            device,
            models,
            plan,
        } => run_region(app, *device, models, plan),
        Work::Gemm { n } => run_gemm(*n),
        Work::Autotune { app } => run_autotune(app),
    }
}

/// One pass over `cells` on `threads` sweep workers, results in cell
/// order.
pub fn run_pass(cells: &[Cell], threads: usize) -> Vec<CellResult> {
    span("sweep:sweep_map_threads", || {
        let parent = trace::current();
        sweep_map_threads(threads, cells.len(), |i| {
            trace::with_parent(parent, || span("sweep:item", || run_cell(&cells[i])))
        })
    })
}

/// Number of region runs (completed or refused) in a pass.
pub fn region_runs(results: &[CellResult]) -> usize {
    results.iter().map(|r| r.runs.len()).sum()
}

/// Problems in a pass: failed runs, refused runs outside the paper's
/// out-of-memory GEMM cells, and inexact stall partitions.
pub fn problems(cells: &[Cell], results: &[CellResult]) -> Vec<String> {
    let mut out = Vec::new();
    for (cell, res) in cells.iter().zip(results) {
        let oom_expected = matches!(cell.work, Work::Gemm { n } if n >= 20480);
        for o in &res.runs {
            match o {
                Outcome::Ran(r) if !r.partition_exact() => out.push(format!(
                    "{} {} {}: busy + stalls != makespan",
                    cell.fig, cell.label, r.version
                )),
                Outcome::Ran(_) => {}
                Outcome::Oom(v) if oom_expected && *v != "buffer" => {}
                Outcome::Oom(v) => {
                    out.push(format!("{} {} {v}: out of memory", cell.fig, cell.label))
                }
                Outcome::Failed(v, e) => out.push(format!("{} {} {v}: {e}", cell.fig, cell.label)),
            }
        }
        if oom_expected && res.ran("buffer").is_none() {
            out.push(format!("fig9 {}: pipeline-buffer did not run", cell.label));
        }
    }
    out
}

/// A value the paper quotes, and where the reproduction's counterpart is.
struct PaperValue {
    what: &'static str,
    paper: f64,
    fig: &'static str,
    label: &'static str,
    measure: fn(&CellResult) -> Option<f64>,
}

fn speedup(res: &CellResult, version: &str) -> Option<f64> {
    Some(res.ran("naive")?.total_ns as f64 / res.ran(version)?.total_ns as f64)
}

/// Device memory of the Pipelined-buffer run over the Naive run's.
fn mem_ratio(res: &CellResult) -> Option<f64> {
    Some(res.ran("buffer")?.mem_bytes as f64 / res.ran("naive")?.mem_bytes as f64)
}

fn saving(res: &CellResult) -> Option<f64> {
    mem_ratio(res).map(|r| 1.0 - r)
}

/// The paper-quoted values `paper_err` compares against (EXPERIMENTS.md).
const PAPER: &[PaperValue] = &[
    PaperValue {
        what: "Fig. 3 QCD small pipelined speedup",
        paper: 1.6,
        fig: "fig5",
        label: "qcd-small",
        measure: |r| speedup(r, "pipelined"),
    },
    PaperValue {
        what: "Fig. 5 3dconv pipelined speedup",
        paper: 1.45,
        fig: "fig5",
        label: "3dconv",
        measure: |r| speedup(r, "pipelined"),
    },
    PaperValue {
        what: "Fig. 5 3dconv pipeline-buffer speedup",
        paper: 1.46,
        fig: "fig5",
        label: "3dconv",
        measure: |r| speedup(r, "buffer"),
    },
    PaperValue {
        what: "Fig. 5 stencil pipelined speedup",
        paper: 1.57,
        fig: "fig5",
        label: "stencil",
        measure: |r| speedup(r, "pipelined"),
    },
    PaperValue {
        what: "Fig. 5 QCD large pipelined speedup",
        paper: 1.54,
        fig: "fig5",
        label: "qcd-large",
        measure: |r| speedup(r, "pipelined"),
    },
    PaperValue {
        what: "Fig. 6 3dconv memory saving",
        paper: 0.97,
        fig: "fig5",
        label: "3dconv",
        measure: saving,
    },
    PaperValue {
        what: "Fig. 6 stencil memory saving",
        paper: 0.50,
        fig: "fig5",
        label: "stencil",
        measure: saving,
    },
    PaperValue {
        what: "Fig. 9 GEMM block-shared speedup",
        paper: 3.0,
        fig: "fig9",
        label: "14336",
        measure: |r| speedup(r, "block_shared"),
    },
    PaperValue {
        what: "Fig. 10 GEMM memory saving",
        paper: 0.66,
        fig: "fig9",
        label: "14336",
        measure: saving,
    },
];

/// Median relative error against the paper-quoted values, with one line
/// per value. `None` if a cell it needs is missing or did not run.
pub fn paper_err(cells: &[Cell], results: &[CellResult]) -> Option<(f64, Vec<String>)> {
    let mut errs = Vec::new();
    let mut lines = Vec::new();
    for v in PAPER {
        let i = cells
            .iter()
            .position(|c| c.fig == v.fig && c.label == v.label)?;
        let got = (v.measure)(&results[i])?;
        let err = (got - v.paper).abs() / v.paper;
        lines.push(format!(
            "{}: paper {} reproduced {got:.4} (error {err:.4})",
            v.what, v.paper
        ));
        errs.push(err);
    }
    Some((median(&errs), lines))
}

/// The simulated end-to-end metrics of one pass. The paper grid gives
/// the paper's quantities (speedup, memory, fidelity, model accuracy);
/// the held-out shapes are the workload's jobs, each model run of one
/// an op, and a non-Naive run meets its budget when it is no slower
/// than the Naive run of the same shape.
pub fn sim_metrics(cells: &[Cell], results: &[CellResult], m: &mut Metrics) {
    let (mut speedups, mut mem_ratios, mut model_errs) = (Vec::new(), Vec::new(), Vec::new());
    let mut latencies_ms = Vec::new();
    let (mut attempted, mut ran, mut budgeted, mut met) = (0usize, 0usize, 0usize, 0usize);
    let mut sim_s = 0.0;
    for (cell, res) in cells.iter().zip(results) {
        if cell.fig != "held-out" {
            if let (Some(s), Some(v)) = (speedup(res, "buffer"), mem_ratio(res)) {
                speedups.push(s);
                mem_ratios.push(v);
            }
            model_errs.extend(
                all_runs(std::slice::from_ref(res))
                    .iter()
                    .filter_map(|r| r.model_err()),
            );
            continue;
        }
        let naive = res.ran("naive").map(|r| r.total_ns);
        for o in &res.runs {
            attempted += 1;
            let Outcome::Ran(r) = o else { continue };
            ran += 1;
            sim_s += r.total_ns as f64 / 1e9;
            latencies_ms.push(r.total_ns as f64 / 1e6);
            if let Some(budget) = naive.filter(|_| r.version != "naive") {
                budgeted += 1;
                met += usize::from(r.total_ns <= budget);
            }
        }
    }
    m.set("sim_speedup", geomean(&speedups));
    m.set("sim_mem_ratio", median(&mem_ratios));
    m.set("model_err", mean(&model_errs));
    m.set("sim_goodput", (ran - budgeted + met) as f64 / sim_s);
    m.set("job_latency_p50_ms", quantile(&latencies_ms, 0.5));
    m.set("job_latency_p99_ms", quantile(&latencies_ms, 0.99));
    m.set("deadline_met_rate", met as f64 / budgeted.max(1) as f64);
    m.set("admit_rate", ran as f64 / attempted.max(1) as f64);
    // One tenant: Jain's index of a single share is 1 by definition.
    m.set("jain", pipeline_serve::jain_index(&[sim_s]));
    if let Some((err, _)) = paper_err(cells, results) {
        m.set("paper_err", err);
    }
}

/// Every completed run of a pass.
pub fn all_runs(results: &[CellResult]) -> Vec<&RunSim> {
    results
        .iter()
        .flat_map(|r| r.runs.iter())
        .filter_map(|o| match o {
            Outcome::Ran(r) => Some(r),
            _ => None,
        })
        .collect()
}
