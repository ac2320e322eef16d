//! Regenerate every table and figure of the paper's evaluation section.
//!
//! ```text
//! cargo run --release -p pipeline-bench --bin figures              # all
//! cargo run --release -p pipeline-bench --bin figures -- fig5      # one
//! cargo run --release -p pipeline-bench --bin figures -- --csv out # + CSVs
//! ```

#![forbid(unsafe_code)]

use std::fs;
use std::path::PathBuf;

use pipeline_bench::{
    ablate, calibrate, chaos, failover, faults, fig3, fig4, fig56, fig7, fig8, fig910, fleet,
    header, model, serve, trace,
};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let csv_dir: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--csv")
        .map(|i| {
            let dir = args
                .get(i + 1)
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("figures_csv"));
            args.drain(i..(i + 2).min(args.len()));
            dir
        });
    if let Some(dir) = &csv_dir {
        fs::create_dir_all(dir).expect("create csv dir");
    }
    let smoke = args
        .iter()
        .position(|a| a == "--smoke")
        .map(|i| args.remove(i))
        .is_some();
    let trace_dir: PathBuf = args
        .iter()
        .position(|a| a == "--trace-out")
        .map(|i| {
            let dir = args
                .get(i + 1)
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("traces"));
            args.drain(i..(i + 2).min(args.len()));
            dir
        })
        .unwrap_or_else(|| PathBuf::from("traces"));
    let write_csv = |name: &str, content: String| {
        if let Some(dir) = &csv_dir {
            let path = dir.join(name);
            fs::write(&path, content).expect("write csv");
            eprintln!("wrote {}", path.display());
        }
    };
    let diff_pair: Option<(PathBuf, PathBuf)> = args
        .iter()
        .position(|a| a == "--diff")
        .map(|i| {
            let a = args.get(i + 1).map(PathBuf::from);
            let b = args.get(i + 2).map(PathBuf::from);
            let (Some(a), Some(b)) = (a, b) else {
                eprintln!("--diff needs two trace files: --diff A.trace.json B.trace.json");
                std::process::exit(2);
            };
            args.drain(i..(i + 3).min(args.len()));
            (a, b)
        });
    const KNOWN: &[&str] = &[
        "all", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
        "future", "ablations", "model", "trace", "faults", "failover", "fleet",
        "calibrate", "serve", "chaos",
    ];
    for a in &args {
        if !KNOWN.contains(&a.as_str()) {
            eprintln!("unknown figure '{a}' (expected one of: {})", KNOWN.join(", "));
            std::process::exit(2);
        }
    }
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name || a == "all");

    if want("fig3") {
        header("Figure 3 — Lattice QCD time distribution & pipelined speedup (K40m)");
        let rows = fig3::run(&fig3::paper_sizes());
        fig3::print(&rows);
        let mut csv = String::from("dataset,n,d2h_frac,h2d_frac,kernel_frac,speedup\n");
        for r in &rows {
            csv.push_str(&format!(
                "{},{},{:.4},{:.4},{:.4},{:.4}\n",
                r.dataset, r.n, r.d2h_frac, r.h2d_frac, r.kernel_frac, r.speedup
            ));
        }
        write_csv("fig3.csv", csv);
    }
    if want("fig4") {
        header("Figure 4 — chunk size x stream count, QCD large (K40m)");
        let (chunks, streams) = fig4::paper_grid();
        let rows = fig4::run(36, &chunks, &streams);
        fig4::print(&rows);
        let mut csv = String::from("chunk,streams,time_ms\n");
        for r in &rows {
            csv.push_str(&format!("{},{},{:.6}\n", r.chunk, r.streams, r.time.as_ms_f64()));
        }
        write_csv("fig4.csv", csv);
    }
    if want("fig5") || want("fig6") {
        let rows = fig56::run();
        header("Figure 5 — normalized speedup over Naive (K40m)");
        fig56::print_fig5(&rows);
        header("Figure 6 — GPU memory usage (K40m)");
        fig56::print_fig6(&rows);
        let mut csv5 = String::from("benchmark,pipelined_speedup,buffer_speedup\n");
        let mut csv6 =
            String::from("benchmark,naive_mb,pipelined_mb,buffer_mb,saving_frac\n");
        for r in &rows {
            let (p, b) = r.speedups();
            csv5.push_str(&format!("{},{:.4},{:.4}\n", r.name, p, b));
            csv6.push_str(&format!(
                "{},{:.1},{:.1},{:.1},{:.4}\n",
                r.name,
                r.naive.gpu_mem_bytes as f64 / 1e6,
                r.pipelined.gpu_mem_bytes as f64 / 1e6,
                r.buffer.gpu_mem_bytes as f64 / 1e6,
                r.mem_saving()
            ));
        }
        write_csv("fig5.csv", csv5);
        write_csv("fig6.csv", csv6);
    }
    if want("fig7") {
        header("Figure 7 — execution time vs stream count (K40m)");
        let rows = fig7::run(&fig7::paper_streams());
        fig7::print(&rows);
        let mut csv = String::from("bench,streams,pipelined_ms,buffer_ms\n");
        for r in &rows {
            csv.push_str(&format!(
                "{},{},{:.6},{:.6}\n",
                r.bench.name(),
                r.streams,
                r.pipelined.as_ms_f64(),
                r.buffer.as_ms_f64()
            ));
        }
        write_csv("fig7.csv", csv);
    }
    if want("fig8") {
        header("Figure 8 — AMD HD 7970: speedup vs number of chunks");
        let rows = fig8::run(&fig8::paper_chunk_counts());
        fig8::print(&rows);
        let mut csv = String::from("bench,requested_chunks,actual_chunks,speedup\n");
        for r in &rows {
            csv.push_str(&format!(
                "{},{},{},{:.4}\n",
                r.bench.name(),
                if r.n_chunks == 0 { "default".into() } else { r.n_chunks.to_string() },
                r.actual_chunks,
                r.speedup
            ));
        }
        write_csv("fig8.csv", csv);
    }
    if want("fig9") || want("fig10") {
        let rows = fig910::run(&fig910::paper_sizes());
        header("Figure 9 — GEMM normalized speedup (K40m)");
        fig910::print_fig9(&rows);
        header("Figure 10 — GEMM memory consumption (K40m)");
        fig910::print_fig10(&rows);
        let mut csv = String::from(
            "n,baseline_ms,block_shared_ms,buffer_ms,baseline_mb,block_shared_mb,buffer_mb\n",
        );
        for r in &rows {
            let cell_ms = |v: &fig910::VersionResult| {
                v.report()
                    .map(|r| format!("{:.6}", r.total.as_ms_f64()))
                    .unwrap_or_else(|| "OOM".into())
            };
            let cell_mb = |v: &fig910::VersionResult| {
                v.report()
                    .map(|r| format!("{:.1}", r.gpu_mem_bytes as f64 / 1e6))
                    .unwrap_or_else(|| "OOM".into())
            };
            csv.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                r.n,
                cell_ms(&r.baseline),
                cell_ms(&r.block_shared),
                cell_ms(&r.pipeline_buffer),
                cell_mb(&r.baseline),
                cell_mb(&r.block_shared),
                cell_mb(&r.pipeline_buffer)
            ));
        }
        write_csv("fig9_10.csv", csv);
    }
    if want("future") {
        header("Future hardware — Figure 5 on a P100-class profile (no paper counterpart)");
        let rows = pipeline_bench::future_hw::run();
        pipeline_bench::future_hw::print(&rows);
        let mut csv =
            String::from("benchmark,speedup_k40m,speedup_p100,share_k40m,share_p100\n");
        for r in &rows {
            csv.push_str(&format!(
                "{},{:.4},{:.4},{:.4},{:.4}\n",
                r.name, r.speedup_k40m, r.speedup_p100, r.transfer_share_k40m, r.transfer_share_p100
            ));
        }
        write_csv("future_hw.csv", csv);
    }
    if want("ablations") {
        header("Ablations — design-choice studies (DESIGN.md §7)");
        let rows = ablate::run_all();
        ablate::print(&rows);
        let mut csv = String::from("ablation,metric,with,without,penalty\n");
        for r in &rows {
            csv.push_str(&format!(
                "{},{},{:.6},{:.6},{:.4}\n",
                r.name, r.metric, r.with, r.without, r.penalty()
            ));
        }
        write_csv("ablations.csv", csv);
    }
    if want("model") {
        header(if smoke {
            "Cost-model accuracy — predicted vs simulated makespan, smoke grid"
        } else {
            "Cost-model accuracy — predicted vs simulated makespan (fig4 + fig8 grids)"
        });
        let rep = model::run(smoke);
        model::print(&rep);
        write_csv("model.csv", model::csv(&rep));
        fs::write("MODEL_sim.json", model::json(&rep)).expect("write MODEL_sim.json");
        eprintln!("wrote MODEL_sim.json");
        let med = rep.median_err();
        if med > model::MAX_MEDIAN_ERR {
            eprintln!(
                "cost-model accuracy regression: median error {:.1}% exceeds the {:.0}% gate",
                med * 100.0,
                model::MAX_MEDIAN_ERR * 100.0
            );
            std::process::exit(1);
        }
    }
    if want("faults") {
        header(if smoke {
            "Overhead of resilience — fault-rate sweep, smoke shape (3dconv, K40m)"
        } else {
            "Overhead of resilience — fault-rate sweep (3dconv, K40m)"
        });
        let sweep = faults::run(smoke);
        faults::print(&sweep);
        fs::write("FAULTS_sim.json", faults::json(&sweep)).expect("write FAULTS_sim.json");
        eprintln!("wrote FAULTS_sim.json");
        fs::create_dir_all(&trace_dir).expect("create trace dir");
        let path = trace_dir.join("3dconv_buffer_faults.trace.json");
        fs::write(&path, &sweep.trace_json).expect("write faults trace");
        eprintln!("wrote {}", path.display());
        let mut csv = String::from("rate,injected,retries,reissued,backoff_us,total_ms,overhead\n");
        for r in &sweep.rows {
            csv.push_str(&format!(
                "{:.4},{},{},{},{:.3},{:.6},{:.6}\n",
                r.rate,
                r.injected,
                r.report.recovery.total_retries(),
                r.report.recovery.reissued_commands,
                r.report.recovery.backoff_time.as_secs_f64() * 1e6,
                r.report.total.as_ms_f64(),
                r.overhead()
            ));
        }
        write_csv("faults.csv", csv);
    }
    if want("failover") {
        header(if smoke {
            "Cost of losing a device — failover sweep, smoke shape (3dconv, 2 x K40m)"
        } else {
            "Cost of losing a device — failover sweep (3dconv, 2 x K40m)"
        });
        let sweep = failover::run(smoke);
        failover::print(&sweep);
        fs::write("FAILOVER_sim.json", failover::json(&sweep))
            .expect("write FAILOVER_sim.json");
        eprintln!("wrote FAILOVER_sim.json");
        fs::create_dir_all(&trace_dir).expect("create trace dir");
        let path = trace_dir.join("3dconv_failover_survivor.trace.json");
        fs::write(&path, &sweep.trace_json).expect("write failover trace");
        eprintln!("wrote {}", path.display());
        let mut csv = String::from("kind,x,migrated,makespan_ms,baseline_ms,metric\n");
        for r in &sweep.loss_rows {
            csv.push_str(&format!(
                "loss,{:.2},{},{:.6},{:.6},{:.6}\n",
                r.frac,
                r.migrated,
                r.makespan.as_ms_f64(),
                r.clean_makespan.as_ms_f64(),
                r.overhead()
            ));
        }
        for r in &sweep.straggler_rows {
            csv.push_str(&format!(
                "straggler,{:.1},{},{:.6},{:.6},{:.6}\n",
                r.factor,
                r.migrated,
                r.rebalanced.as_ms_f64(),
                r.pinned.as_ms_f64(),
                r.gain()
            ));
        }
        write_csv("failover.csv", csv);
    }
    if want("fleet") {
        header(if smoke {
            "Fleet sweep — simulator throughput, smoke tier (3dconv, 64 heterogeneous devices)"
        } else {
            "Fleet sweep — simulator throughput at 64/256/1000 heterogeneous devices (3dconv)"
        });
        let tiers = fleet::run(smoke);
        fleet::print(&tiers);
        fs::write("FLEET_sim.json", fleet::json(&tiers)).expect("write FLEET_sim.json");
        eprintln!("wrote FLEET_sim.json");
        fs::create_dir_all(&trace_dir).expect("create trace dir");
        for t in &tiers {
            let path = trace_dir.join(format!(
                "3dconv_fleet_{}dev_sampled.trace.json",
                t.devices
            ));
            fs::write(&path, &t.trace_json).expect("write fleet trace");
            eprintln!("wrote {}", path.display());
        }
        let mut csv = String::from(
            "devices,nk,commands,makespan_ms,wall_ms,cmds_per_sec_core,util_min,util_p50,util_max\n",
        );
        for t in &tiers {
            csv.push_str(&format!(
                "{},{},{},{:.6},{:.3},{:.1},{:.6},{:.6},{:.6}\n",
                t.devices,
                t.nk,
                t.commands,
                t.makespan.as_ms_f64(),
                t.wall_ms,
                t.cmds_per_sec_core,
                t.util_min,
                t.util_p50,
                t.util_max
            ));
        }
        write_csv("fleet.csv", csv);
        if let Err(e) = fleet::check_floor(&tiers) {
            eprintln!("fleet throughput regression: {e}");
            std::process::exit(1);
        }
    }
    if want("calibrate") {
        if let Some((pa, pb)) = &diff_pair {
            header("Trace diff — attribution delta (B − A)");
            let read = |p: &PathBuf| {
                fs::read_to_string(p).unwrap_or_else(|e| {
                    eprintln!("cannot read {}: {e}", p.display());
                    std::process::exit(2);
                })
            };
            match calibrate::diff_docs(&read(pa), &read(pb)) {
                Ok(table) => print!("{table}"),
                Err(e) => {
                    eprintln!("trace diff failed: {e}");
                    std::process::exit(2);
                }
            }
        } else {
            header(if smoke {
                "Profile auto-calibration — import -> fit -> closure, smoke cells"
            } else {
                "Profile auto-calibration — import -> fit -> closure (all apps, K40m + HD 7970)"
            });
            let rep = calibrate::run(smoke);
            calibrate::print(&rep);
            write_csv("calibrate.csv", calibrate::csv(&rep));
            fs::write("CALIB_sim.json", calibrate::json(&rep)).expect("write CALIB_sim.json");
            eprintln!("wrote CALIB_sim.json");
            if let Err(e) = calibrate::check(&rep) {
                eprintln!("calibration gate: {e}");
                std::process::exit(1);
            }
        }
    }
    if want("serve") {
        header(if smoke {
            "Multi-tenant serving — 1000 jobs, 3 tenants, 4-device fleet (smoke)"
        } else {
            "Multi-tenant serving — fairness, queue waits and preemption bit-identity"
        });
        let results = serve::run(smoke);
        serve::print(&results);
        fs::write("SERVE_sim.json", serve::json(&results)).expect("write SERVE_sim.json");
        eprintln!("wrote SERVE_sim.json");
        let mut csv = String::from(
            "cell,tenant,weight,done,preempted,deadline_misses,wait_p50_ms,wait_p95_ms,makespan_p50_ms,makespan_p95_ms\n",
        );
        for r in &results {
            for t in &r.report.tenants {
                csv.push_str(&format!(
                    "{},{},{:.1},{},{},{},{:.6},{:.6},{:.6},{:.6}\n",
                    r.cell.name,
                    t.name,
                    t.weight,
                    t.done,
                    t.preempted,
                    t.deadline_misses,
                    t.queue_wait.p50_ns() as f64 / 1e6,
                    t.queue_wait.p95_ns() as f64 / 1e6,
                    t.makespan.p50_ns() as f64 / 1e6,
                    t.makespan.p95_ns() as f64 / 1e6,
                ));
            }
        }
        write_csv("serve.csv", csv);
        if let Err(e) = serve::check(&results) {
            eprintln!("serving gate: {e}");
            std::process::exit(1);
        }
    }
    if want("chaos") {
        header(if smoke {
            "Chaos matrix — failover, admission and EDF shedding (smoke streams)"
        } else {
            "Chaos matrix — failover, admission and EDF shedding under injected faults"
        });
        let results = chaos::run(smoke);
        chaos::print(&results);
        fs::write("CHAOS_sim.json", chaos::json(&results)).expect("write CHAOS_sim.json");
        eprintln!("wrote CHAOS_sim.json");
        let mut csv = String::from(
            "cell,policy,submitted,done,rejected,miss_rate,fairness,devices_lost,failed_slices,recovered,degraded_slices,breaker_trips,verified,verified_ok\n",
        );
        for r in &results {
            for p in [&r.fifo, &r.hardened] {
                let rep = &p.report;
                csv.push_str(&format!(
                    "{},{},{},{},{},{:.6},{:.6},{},{},{},{},{},{},{}\n",
                    r.cell.chaos.name(),
                    p.policy,
                    rep.submitted,
                    rep.done,
                    rep.rejected.total(),
                    rep.miss_rate().unwrap_or(0.0),
                    rep.fairness,
                    rep.devices_lost,
                    rep.failed_slices,
                    rep.recovered,
                    rep.degraded_slices,
                    rep.breaker_trips,
                    rep.verified,
                    rep.verified_ok,
                ));
            }
        }
        write_csv("chaos.csv", csv);
        if let Err(e) = chaos::check(&results) {
            eprintln!("chaos gate: {e}");
            std::process::exit(1);
        }
    }
    if want("trace") {
        header(if smoke {
            "Correlated traces — smoke shapes (3dconv, K40m + HD 7970)"
        } else {
            "Correlated traces — paper shapes (all apps on K40m, 3dconv on HD 7970)"
        });
        let rows = if smoke { trace::run_smoke() } else { trace::run() };
        trace::print(&rows);
        fs::create_dir_all(&trace_dir).expect("create trace dir");
        for r in &rows {
            let path = trace_dir.join(r.file_name());
            fs::write(&path, &r.trace_json).expect("write trace");
            eprintln!("wrote {}", path.display());
        }
    }
}
