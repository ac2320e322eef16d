//! Import → fit → predict, end to end: run a stencil twice (a
//! two-chunk-size probe sweep), export both runs as Perfetto trace
//! JSON, parse them back through the importer, fit a `DeviceProfile`
//! from the imported copy samples — starting from a deliberately
//! *wrong* belief (the HD 7970 profile, while the runs actually
//! executed on a K40m) — and prove closure: the fitted profile's
//! cost-model prediction lands within a few percent of the imported
//! trace's actual makespan.
//!
//! ```text
//! cargo run --release --example trace_calibration
//! ```

use gpsim::{to_perfetto_trace, DeviceProfile, ExecMode, Gpu};
use dbpp::prelude::*;
use dbpp::rt::{calibrate_with_fit, fit_profile, ImportedTrace};
use pipeline_apps::StencilConfig;

fn run_and_export(cfg: &StencilConfig) -> (Gpu, pipeline_rt::Region, String) {
    let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Timing).unwrap();
    let inst = cfg.setup(&mut gpu).unwrap();
    let builder = cfg.builder();
    let report = run_model(
        &mut gpu,
        &inst.region,
        &builder,
        ExecModel::PipelinedBuffer,
        &RunOptions::default(),
    )
    .unwrap();
    let doc = to_perfetto_trace(
        gpu.timeline(),
        gpu.host_spans(),
        gpu.wait_records(),
        &report.counter_tracks,
    );
    (gpu, inst.region, doc)
}

fn main() {
    let base = StencilConfig {
        nx: 512,
        ny: 512,
        nz: 48,
        chunk: 5,
        ..StencilConfig::parboil_default()
    };
    let probe = StencilConfig { chunk: 7, ..base };

    // 1. Run the probe sweep on the *actual* device (a K40m) and keep
    //    only the exported trace documents — from here on, the traces
    //    are the sole source of truth.
    let (gpu, region, doc_a) = run_and_export(&base);
    let (_, _, doc_b) = run_and_export(&probe);
    println!("exported two probe traces ({} + {} bytes)", doc_a.len(), doc_b.len());

    // 2. Import them back through the one Perfetto-reading code path.
    let trace_a = ImportedTrace::parse(&doc_a).unwrap();
    let trace_b = ImportedTrace::parse(&doc_b).unwrap();
    let analysis = trace_a.analyze();
    println!(
        "imported {} device spans; offline attribution: makespan {}, api overhead {}",
        trace_a.timeline.len(),
        analysis.total,
        analysis.api_overhead,
    );

    // 3. Fit a profile from the traces, starting from a deliberately
    //    wrong belief. The fit must recover the K40m's components from
    //    the copy samples, not echo the base.
    let wrong_belief = DeviceProfile::hd7970();
    let truth = DeviceProfile::k40m();
    let fit = fit_profile(&wrong_belief, &[&trace_a, &trace_b]);
    println!(
        "\nfitted from traces (belief was hd7970, truth is k40m):\n\
         h2d peak  {:>7.2} GB/s (truth {:.2}, {} samples)\n\
         d2h peak  {:>7.2} GB/s (truth {:.2}, {} samples)\n\
         duplex    {:>7} (truth {:.2})\n\
         api       {:>7} (truth {})",
        fit.profile.h2d_peak_bw / 1e9,
        truth.h2d_peak_bw / 1e9,
        fit.h2d.samples,
        fit.profile.d2h_peak_bw / 1e9,
        truth.d2h_peak_bw / 1e9,
        fit.d2h.samples,
        fit.duplex.map(|d| format!("{d:.2}")).unwrap_or_else(|| "-".into()),
        truth.duplex_factor,
        fit.api_overhead,
        truth.api_overhead,
    );

    // 4. Closure: predict the traced schedule's makespan with the
    //    fitted profile (+ residual per-engine calibration) and compare
    //    against what the trace actually measured.
    let rep = calibrate_with_fit(
        &gpu,
        fit,
        &region,
        &base.builder(),
        ExecModel::PipelinedBuffer,
        base.chunk,
        base.streams,
        &trace_a,
    )
    .unwrap();
    println!(
        "\nclosure: predicted {} vs measured {} ({:.1}% error)",
        rep.predicted.total,
        rep.measured_total,
        rep.closure_err() * 100.0,
    );
    assert!(rep.closure_err() < 0.10, "closure must hold within 10%");
}
