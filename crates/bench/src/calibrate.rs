//! `figures calibrate` — trace-driven profile auto-calibration.
//!
//! The read side of the observability story: every cell runs an app,
//! exports its Perfetto trace, imports the document back through
//! [`ImportedTrace`], cross-validates the offline analyzer against the
//! live run's attribution, then fits a [`DeviceProfile`] from the
//! imported copy samples ([`fit_profile`]) and proves **closure** —
//! the fitted profile's cost-model prediction must land within
//! [`CLOSURE_GATE`] of the trace's actual makespan (median across
//! cells). Each cell runs a two-chunk-size probe sweep so the copy-time
//! line is determined (see the `pipeline_rt::fit_profile` docs).
//!
//! Two more cells ride along:
//! - a **diff pair** — the same app on a stock K40m and on a K40m with
//!   its H2D bandwidth slowed, aligned span-by-span with
//!   [`diff_traces`]; the `wait-h2d` stall bucket must grow, which is
//!   the differ's regression-localization gate;
//! - a **fleet cell** — a heterogeneous two-device fleet partitioned
//!   once by the engine-bound probe heuristic and once by the
//!   trace-calibrated cost model (`MultiOptions::with_model_partition`);
//!   the recorded share delta shows the calibrated model shifting work
//!   away from the API-bound device.
//!
//! The `figures` binary writes the whole report to `CALIB_sim.json` and
//! exits non-zero when a gate fails.

use gpsim::json::Json;
use gpsim::{
    to_perfetto_trace, DeviceProfile, ExecMode, Gpu, HostPool, KernelLaunch, SimTime, StallCause,
};
use pipeline_apps::{Conv3dConfig, QcdConfig, StencilConfig};
use pipeline_rt::{
    calibrate_with_fit, diff_traces, fit_profile, render_diff, run_model, run_model_multi,
    Calibration, ChunkCtx, DirFit, ExecModel, ImportedTrace, KernelBuilder, MultiOptions, Region,
    RunOptions, RunReport,
};

use crate::{gpu_hd7970, gpu_k40m};

/// Closure gate: median relative error of `predicted vs measured`
/// makespan across the calibration cells.
pub const CLOSURE_GATE: f64 = 0.10;

/// One calibration cell: app × device profile × execution model.
#[derive(Debug, Clone)]
pub struct CalibRow {
    /// Application name (`3dconv`, `stencil`, `qcd`).
    pub app: &'static str,
    /// Device profile name (`k40m`, `hd7970`).
    pub profile: &'static str,
    /// Execution model the traced run used.
    pub model: ExecModel,
    /// H2D bandwidth fit diagnostics.
    pub h2d: DirFit,
    /// D2H bandwidth fit diagnostics.
    pub d2h: DirFit,
    /// Relative error of the fitted H2D peak vs the true profile.
    pub h2d_bw_err: f64,
    /// Relative error of the fitted D2H peak vs the true profile.
    pub d2h_bw_err: f64,
    /// Duplex factor recovered from the clean/contended slope ratio.
    pub duplex: Option<f64>,
    /// API overhead recovered from host enqueue spans.
    pub api_overhead: SimTime,
    /// Residual per-engine multipliers after the profile fit.
    pub calibration: Calibration,
    /// Predicted makespan of the traced schedule, fitted profile.
    pub predicted: SimTime,
    /// The imported trace's actual end-to-end window.
    pub measured: SimTime,
    /// Relative closure error `|predicted − measured| / measured`.
    pub closure_err: f64,
    /// Offline analyzer reproduced the live run's attribution exactly
    /// (stall buckets, busy times, stage histograms).
    pub offline_matches_live: bool,
}

/// Result of diffing a stock-K40m trace against a slowed-H2D one.
#[derive(Debug, Clone)]
pub struct DiffCell {
    /// `wait-h2d` stall delta summed over engines, ns (B − A).
    pub wait_h2d_delta_ns: i64,
    /// Makespan delta, ns (B − A).
    pub makespan_delta_ns: i64,
    /// Device spans aligned by flow id.
    pub matched: usize,
    /// Rendered attribution-delta table.
    pub rendered: String,
}

/// Heterogeneous-fleet partition shares: probe heuristic vs calibrated
/// cost model.
#[derive(Debug, Clone)]
pub struct FleetCell {
    /// Iterations per device under the engine-bound probe heuristic.
    pub heuristic: Vec<i64>,
    /// Iterations per device under the calibrated model partition.
    pub modeled: Vec<i64>,
}

impl FleetCell {
    fn share0(parts: &[i64]) -> f64 {
        let total: i64 = parts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        parts[0] as f64 / total as f64
    }

    /// Fast device's share under the heuristic partition.
    pub fn heuristic_share(&self) -> f64 {
        Self::share0(&self.heuristic)
    }

    /// Fast device's share under the calibrated model partition.
    pub fn modeled_share(&self) -> f64 {
        Self::share0(&self.modeled)
    }

    /// Share shift of the fast device (modeled − heuristic).
    pub fn share_delta(&self) -> f64 {
        self.modeled_share() - self.heuristic_share()
    }
}

/// Full calibration report: per-cell fits + diff pair + fleet cell.
#[derive(Debug, Clone)]
pub struct CalibReport {
    /// One row per app × profile × model.
    pub rows: Vec<CalibRow>,
    /// Slowed-bandwidth diff pair.
    pub diff: DiffCell,
    /// Heterogeneous-fleet share shift.
    pub fleet: FleetCell,
}

impl CalibReport {
    /// Median closure error across cells.
    pub fn median_closure(&self) -> f64 {
        let mut v: Vec<f64> = self.rows.iter().map(|r| r.closure_err).collect();
        if v.is_empty() {
            return 0.0;
        }
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    }
}

#[derive(Clone, Copy)]
enum App {
    Conv3d,
    Stencil,
    Qcd,
}

impl App {
    fn name(self) -> &'static str {
        match self {
            App::Conv3d => "3dconv",
            App::Stencil => "stencil",
            App::Qcd => "qcd",
        }
    }
}

type Builder = Box<dyn Fn(&ChunkCtx) -> KernelLaunch + Sync + 'static>;

struct AppRun {
    region: Region,
    builder: Builder,
    chunk: usize,
    streams: usize,
}

/// Instantiate one app on `gpu`, optionally overriding the chunk size
/// (the second leg of the probe sweep).
fn instantiate(
    app: App,
    profile: &'static str,
    small: bool,
    chunk: Option<usize>,
    gpu: &mut Gpu,
) -> AppRun {
    match app {
        App::Conv3d => {
            let mut cfg = if small {
                Conv3dConfig::test_small()
            } else if profile == "hd7970" {
                // Same shortened volume as the Figure 8 AMD runs: the
                // PolyBench default does not fit the HD 7970's 3 GB
                // under the Pipelined model.
                Conv3dConfig { ni: 768, nj: 768, nk: 256, chunk: 1, streams: 3 }
            } else {
                Conv3dConfig::polybench_default()
            };
            if let Some(c) = chunk {
                cfg.chunk = c;
            }
            let inst = cfg.setup(gpu).expect("conv3d setup");
            AppRun {
                region: inst.region,
                builder: Box::new(cfg.builder()),
                chunk: cfg.chunk,
                streams: cfg.streams,
            }
        }
        App::Stencil => {
            let mut cfg = if small {
                StencilConfig::test_small()
            } else {
                StencilConfig::parboil_default()
            };
            if let Some(c) = chunk {
                cfg.chunk = c;
            }
            let inst = cfg.setup(gpu).expect("stencil setup");
            AppRun {
                region: inst.region,
                builder: Box::new(cfg.builder()),
                chunk: cfg.chunk,
                streams: cfg.streams,
            }
        }
        App::Qcd => {
            let mut cfg = if small { QcdConfig::test_small() } else { QcdConfig::paper_size(24) };
            if let Some(c) = chunk {
                cfg.chunk = c;
            }
            let inst = cfg.setup(gpu).expect("qcd setup");
            AppRun {
                region: inst.region,
                builder: Box::new(cfg.builder()),
                chunk: cfg.chunk,
                streams: cfg.streams,
            }
        }
    }
}

/// Second probe chunk size: distinct from `a` and, when possible,
/// leaving a different-size remainder chunk, so both pipeline edges
/// contribute distinct clean copy sizes to the fit.
fn probe_chunk(extent: usize, a: usize) -> usize {
    let last = |c: usize| if extent.is_multiple_of(c) { c } else { extent % c };
    (a + 2..a + 9).find(|&c| last(c) != last(a)).unwrap_or(a + 2)
}

fn run_import(
    gpu: &mut Gpu,
    region: &Region,
    builder: &KernelBuilder<'_>,
    model: ExecModel,
) -> (RunReport, ImportedTrace) {
    let report = run_model(gpu, region, builder, model, &RunOptions::default())
        .expect("calibration run");
    let doc = to_perfetto_trace(
        gpu.timeline(),
        gpu.host_spans(),
        gpu.wait_records(),
        &report.counter_tracks,
    );
    let imported = ImportedTrace::parse(&doc).expect("trace import");
    (report, imported)
}

fn profile_for(name: &str) -> DeviceProfile {
    match name {
        "k40m" => DeviceProfile::k40m(),
        _ => DeviceProfile::hd7970(),
    }
}

fn rel_err(fit: f64, truth: f64) -> f64 {
    if truth <= 0.0 {
        return 0.0;
    }
    (fit - truth).abs() / truth
}

fn run_cells(app: App, profile: &'static str, small: bool, rows: &mut Vec<CalibRow>) {
    let mut gpu = match profile {
        "k40m" => gpu_k40m(),
        _ => gpu_hd7970(),
    };
    let truth = profile_for(profile);

    // Probe sweep leg B: same region at a second chunk size, so the
    // clean copy samples carry two distinct sizes per direction.
    let a = instantiate(app, profile, small, None, &mut gpu);
    let extent = (a.region.hi - a.region.lo).max(1) as usize;
    let b = instantiate(app, profile, small, Some(probe_chunk(extent, a.chunk)), &mut gpu);
    let (_rep_b, imp_b) = run_import(&mut gpu, &b.region, &*b.builder, ExecModel::PipelinedBuffer);

    for model in [ExecModel::Pipelined, ExecModel::PipelinedBuffer] {
        let (report, imp_a) = run_import(&mut gpu, &a.region, &*a.builder, model);

        // Offline analyzer vs live attributor: stall partition, busy
        // times, and stage histograms must agree exactly.
        let analysis = imp_a.analyze();
        let offline_matches_live = analysis.stalls == report.stalls
            && analysis.stage_metrics == report.stage_metrics
            && analysis.busy_h2d == report.h2d
            && analysis.busy_d2h == report.d2h
            && analysis.busy_kernel == report.kernel;

        let fit = fit_profile(&truth, &[&imp_a, &imp_b]);
        let (h2d, d2h, duplex, api) = (fit.h2d, fit.d2h, fit.duplex, fit.api_overhead);
        let (h2d_bw, d2h_bw) = (fit.profile.h2d_peak_bw, fit.profile.d2h_peak_bw);
        let rep = calibrate_with_fit(
            &gpu, fit, &a.region, &*a.builder, model, a.chunk, a.streams, &imp_a,
        )
        .expect("closure prediction");
        rows.push(CalibRow {
            app: app.name(),
            profile,
            model,
            h2d,
            d2h,
            h2d_bw_err: rel_err(h2d_bw, truth.h2d_peak_bw),
            d2h_bw_err: rel_err(d2h_bw, truth.d2h_peak_bw),
            duplex,
            api_overhead: api,
            calibration: rep.calibration,
            predicted: rep.predicted.total,
            measured: rep.measured_total,
            closure_err: rep.closure_err(),
            offline_matches_live,
        });
    }
}

/// Diff pair: 3dconv on a stock K40m vs a K40m whose H2D peak bandwidth
/// is slowed 6×. The differ must localize the regression: the summed
/// `wait-h2d` stall bucket grows.
fn diff_pair(small: bool) -> DiffCell {
    let mut slowed = DeviceProfile::k40m();
    slowed.h2d_peak_bw /= 6.0;
    let run_one = |p: DeviceProfile| -> ImportedTrace {
        let mut gpu = Gpu::new(p, ExecMode::Timing).expect("context creation");
        let r = instantiate(App::Conv3d, "k40m", small, None, &mut gpu);
        run_import(&mut gpu, &r.region, &*r.builder, ExecModel::PipelinedBuffer).1
    };
    let a = run_one(DeviceProfile::k40m());
    let b = run_one(slowed);
    let d = diff_traces(&a, &b);
    DiffCell {
        wait_h2d_delta_ns: d.total_stall_delta_ns(StallCause::WaitingOnH2D),
        makespan_delta_ns: d.makespan_delta_ns(),
        matched: d.matched,
        rendered: render_diff(&d),
    }
}

/// Diff two exported trace documents (the `--diff A B` path): parse
/// both through the importer and render the attribution-delta table.
pub fn diff_docs(a: &str, b: &str) -> Result<String, String> {
    let ta = ImportedTrace::parse(a).map_err(|e| format!("trace A: {e}"))?;
    let tb = ImportedTrace::parse(b).map_err(|e| format!("trace B: {e}"))?;
    Ok(render_diff(&diff_traces(&ta, &tb)))
}

/// Heterogeneous fleet: a stock K40m plus a K40m whose host-API costs
/// are 12× (invisible to the engine-bound probe heuristic). Each
/// device's profile is calibrated from its own solo probe traces; the
/// calibrated (profile, multipliers) pairs then drive
/// `MultiOptions::with_model_partition`.
fn fleet_cell(small: bool) -> FleetCell {
    let fast = DeviceProfile::k40m();
    let mut laggy = fast.clone();
    laggy.api_overhead = laggy.api_overhead * 12;
    laggy.kernel_launch_latency = laggy.kernel_launch_latency * 12;

    // Calibrate each device from a solo small-shape probe sweep. The
    // profile fit is shape-independent, so the probes stay small even
    // at paper scale.
    let overrides: Vec<Option<(DeviceProfile, Calibration)>> = [&fast, &laggy]
        .into_iter()
        .map(|p| {
            let mut gpu = Gpu::new(p.clone(), ExecMode::Timing).expect("context creation");
            let a = instantiate(App::Conv3d, "k40m", true, None, &mut gpu);
            let (_rep, imp_a) =
                run_import(&mut gpu, &a.region, &*a.builder, ExecModel::PipelinedBuffer);
            let extent = (a.region.hi - a.region.lo).max(1) as usize;
            let b =
                instantiate(App::Conv3d, "k40m", true, Some(probe_chunk(extent, a.chunk)), &mut gpu);
            let (_rep_b, imp_b) =
                run_import(&mut gpu, &b.region, &*b.builder, ExecModel::PipelinedBuffer);
            let fit = fit_profile(p, &[&imp_a, &imp_b]);
            let rep = calibrate_with_fit(
                &gpu,
                fit,
                &a.region,
                &*a.builder,
                ExecModel::PipelinedBuffer,
                a.chunk,
                a.streams,
                &imp_a,
            )
            .expect("fleet calibration");
            Some((rep.fit.profile.clone(), rep.calibration))
        })
        .collect();

    let cfg = if small {
        Conv3dConfig::test_small()
    } else {
        Conv3dConfig { ni: 256, nj: 256, nk: 128, chunk: 2, streams: 3 }
    };
    let pool = HostPool::new(ExecMode::Timing);
    let mut gpus: Vec<Gpu> = [fast, laggy]
        .into_iter()
        .map(|p| Gpu::with_host_pool(p, pool.clone()).expect("fleet device"))
        .collect();
    let inst = cfg.setup(&mut gpus[0]).expect("fleet setup");
    let builder = cfg.builder();
    let plane = cfg.plane() as u64;

    let mut shares = |multi: MultiOptions| -> Vec<i64> {
        let rep = run_model_multi(&mut gpus, &inst.region, &builder, &multi).expect("fleet run");
        rep.partitions.iter().map(|(lo, hi)| hi - lo).collect()
    };
    let heuristic = shares(MultiOptions::default().with_probe_cost(21 * plane, 12 * plane));
    let modeled = shares(MultiOptions::default().with_model_partition(overrides));
    FleetCell { heuristic, modeled }
}

/// Run the full calibration report. Smoke tier: 3dconv on both
/// profiles, small shapes. Full tier: every app on the K40m at paper
/// shapes, plus 3dconv on the HD 7970.
pub fn run(smoke: bool) -> CalibReport {
    let mut rows = Vec::new();
    if smoke {
        run_cells(App::Conv3d, "k40m", true, &mut rows);
        run_cells(App::Conv3d, "hd7970", true, &mut rows);
    } else {
        for app in [App::Conv3d, App::Stencil, App::Qcd] {
            run_cells(app, "k40m", false, &mut rows);
        }
        run_cells(App::Conv3d, "hd7970", false, &mut rows);
    }
    CalibReport {
        rows,
        diff: diff_pair(smoke),
        fleet: fleet_cell(smoke),
    }
}

/// Gate check: the offline analyzer must reproduce every live
/// attribution, the median closure error must stay under
/// [`CLOSURE_GATE`], and the differ must see the slowed H2D engine.
pub fn check(rep: &CalibReport) -> Result<(), String> {
    for r in &rep.rows {
        if !r.offline_matches_live {
            return Err(format!(
                "{}/{}/{}: offline trace analysis diverged from the live attribution",
                r.app, r.model, r.profile
            ));
        }
    }
    let med = rep.median_closure();
    if med > CLOSURE_GATE {
        return Err(format!(
            "median closure error {:.1}% exceeds the {:.0}% gate",
            med * 100.0,
            CLOSURE_GATE * 100.0
        ));
    }
    if rep.diff.wait_h2d_delta_ns <= 0 {
        return Err(format!(
            "differ missed the slowed H2D engine: wait-h2d delta {} ns",
            rep.diff.wait_h2d_delta_ns
        ));
    }
    Ok(())
}

fn model_name(m: ExecModel) -> &'static str {
    match m {
        ExecModel::Naive => "naive",
        ExecModel::Pipelined => "pipelined",
        _ => "buffer",
    }
}

/// Print the calibration table, the diff-pair delta table, and the
/// fleet share shift.
pub fn print(rep: &CalibReport) {
    println!(
        "{:<8} {:<10} {:<8} {:>10} {:>10} {:>7} {:>8} {:>9} {:>9} {:>8}",
        "app", "model", "profile", "h2d GB/s", "d2h GB/s", "duplex", "api us", "fit-err", "closure",
        "offline"
    );
    for r in &rep.rows {
        println!(
            "{:<8} {:<10} {:<8} {:>10.2} {:>10.2} {:>7} {:>8.1} {:>8.1}% {:>8.1}% {:>8}",
            r.app,
            model_name(r.model),
            r.profile,
            r.h2d.peak_bw / 1e9,
            r.d2h.peak_bw / 1e9,
            r.duplex.map(|d| format!("{d:.2}")).unwrap_or_else(|| "-".into()),
            r.api_overhead.as_secs_f64() * 1e6,
            r.h2d.median_err.max(r.d2h.median_err) * 100.0,
            r.closure_err * 100.0,
            if r.offline_matches_live { "exact" } else { "DIVERGED" },
        );
    }
    println!(
        "median closure error {:.1}% (gate {:.0}%)",
        rep.median_closure() * 100.0,
        CLOSURE_GATE * 100.0
    );
    println!("\n-- diff pair: stock k40m vs h2d/6 ({} spans aligned)", rep.diff.matched);
    print!("{}", rep.diff.rendered);
    println!(
        "\n-- fleet: k40m + api-bound k40m; shares heuristic {:?} -> modeled {:?} (fast-device share {:+.1}%)",
        rep.fleet.heuristic,
        rep.fleet.modeled,
        rep.fleet.share_delta() * 100.0
    );
}

/// CSV of the per-cell table.
pub fn csv(rep: &CalibReport) -> String {
    let mut out = String::from(
        "app,model,profile,h2d_peak_gbs,d2h_peak_gbs,h2d_bw_err,d2h_bw_err,duplex,api_us,\
         h2d_fit_err,d2h_fit_err,closure_err,offline_matches_live\n",
    );
    for r in &rep.rows {
        out.push_str(&format!(
            "{},{},{},{:.4},{:.4},{:.6},{:.6},{},{:.3},{:.6},{:.6},{:.6},{}\n",
            r.app,
            model_name(r.model),
            r.profile,
            r.h2d.peak_bw / 1e9,
            r.d2h.peak_bw / 1e9,
            r.h2d_bw_err,
            r.d2h_bw_err,
            r.duplex.map(|d| format!("{d:.4}")).unwrap_or_default(),
            r.api_overhead.as_secs_f64() * 1e6,
            r.h2d.median_err,
            r.d2h.median_err,
            r.closure_err,
            r.offline_matches_live,
        ));
    }
    out
}

/// The `CALIB_sim.json` document: per-cell fit + closure, the diff
/// pair's deltas, and the fleet share shift.
pub fn json(rep: &CalibReport) -> String {
    let num = Json::Num;
    let cells: Vec<Json> = rep
        .rows
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("app".into(), Json::Str(r.app.into())),
                ("model".into(), Json::Str(model_name(r.model).into())),
                ("profile".into(), Json::Str(r.profile.into())),
                ("h2d_peak_gbs".into(), num(r.h2d.peak_bw / 1e9)),
                ("d2h_peak_gbs".into(), num(r.d2h.peak_bw / 1e9)),
                ("h2d_bw_err".into(), num(r.h2d_bw_err)),
                ("d2h_bw_err".into(), num(r.d2h_bw_err)),
                (
                    "duplex".into(),
                    r.duplex.map(num).unwrap_or(Json::Null),
                ),
                ("api_overhead_us".into(), num(r.api_overhead.as_secs_f64() * 1e6)),
                ("h2d_fit_err".into(), num(r.h2d.median_err)),
                ("d2h_fit_err".into(), num(r.d2h.median_err)),
                ("kernel_multiplier".into(), num(r.calibration.kernel)),
                ("predicted_ms".into(), num(r.predicted.as_ms_f64())),
                ("measured_ms".into(), num(r.measured.as_ms_f64())),
                ("closure_err".into(), num(r.closure_err)),
                ("offline_matches_live".into(), Json::Bool(r.offline_matches_live)),
            ])
        })
        .collect();
    let shares = |v: &[i64]| Json::Arr(v.iter().map(|&s| num(s as f64)).collect());
    Json::Obj(vec![
        ("closure_gate".into(), num(CLOSURE_GATE)),
        ("median_closure_err".into(), num(rep.median_closure())),
        ("cells".into(), Json::Arr(cells)),
        (
            "diff".into(),
            Json::Obj(vec![
                ("wait_h2d_delta_ms".into(), num(rep.diff.wait_h2d_delta_ns as f64 / 1e6)),
                ("makespan_delta_ms".into(), num(rep.diff.makespan_delta_ns as f64 / 1e6)),
                ("spans_matched".into(), num(rep.diff.matched as f64)),
            ]),
        ),
        (
            "fleet".into(),
            Json::Obj(vec![
                ("heuristic_shares".into(), shares(&rep.fleet.heuristic)),
                ("modeled_shares".into(), shares(&rep.fleet.modeled)),
                ("fast_share_delta".into(), num(rep.fleet.share_delta())),
            ]),
        ),
    ])
    .dump()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_passes_every_gate() {
        let rep = run(true);
        assert_eq!(rep.rows.len(), 4, "2 profiles x 2 models");
        check(&rep).unwrap();
        // The probe sweep determines the bandwidth line: recovered
        // peaks must be close to the true profile's.
        for r in &rep.rows {
            assert!(r.h2d_bw_err < 0.05, "{}/{}: h2d {:.3}", r.app, r.profile, r.h2d_bw_err);
            assert!(r.d2h_bw_err < 0.05, "{}/{}: d2h {:.3}", r.app, r.profile, r.d2h_bw_err);
        }
        // The API-bound device must lose share once the model sees it.
        assert!(
            rep.fleet.share_delta() > 0.0,
            "expected the calibrated model to shift share to the fast device: {:?} -> {:?}",
            rep.fleet.heuristic,
            rep.fleet.modeled
        );
        let doc = json(&rep);
        let parsed = gpsim::json::parse(&doc).expect("CALIB json parses");
        assert!(parsed.get("cells").is_some());
    }

    #[test]
    fn diff_docs_round_trips_rendered_table() {
        let mut gpu = gpu_k40m();
        let r = instantiate(App::Conv3d, "k40m", true, None, &mut gpu);
        let report =
            run_model(&mut gpu, &r.region, &*r.builder, ExecModel::PipelinedBuffer, &RunOptions::default())
                .unwrap();
        let doc = to_perfetto_trace(
            gpu.timeline(),
            gpu.host_spans(),
            gpu.wait_records(),
            &report.counter_tracks,
        );
        let rendered = diff_docs(&doc, &doc).unwrap();
        assert!(rendered.contains("makespan"));
        assert!(diff_docs("not json", &doc).is_err());
    }
}
