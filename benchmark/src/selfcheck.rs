//! The benchmark's determinism self-check: every simulated end-to-end
//! metric and every `gpsim` counter must repeat bit for bit across runs
//! and across sweep worker counts, and on every engine busy time plus
//! the stall buckets must add up exactly to the makespan.
//!
//! Run with `cargo test --release` in this directory (debug builds work
//! but simulate the paper grid slowly).

use crate::report::{Metrics, END_TO_END};
use crate::{paper, runs, serving};

/// The simulated metrics of `m` (every end-to-end metric that is not a
/// host measurement), as exact bit patterns.
fn sim_bits(m: &Metrics) -> Vec<(String, u64)> {
    m.0.iter()
        .filter(|(k, _)| !["throughput", "setup_s", "peak_rss_mb"].contains(&k.as_str()))
        .map(|(k, v)| (k.clone(), v.to_bits()))
        .collect()
}

#[test]
fn paper_sweep_is_bit_identical_across_runs_and_worker_counts() {
    let cells = paper::prepare(paper::grid(7)).expect("set-up");
    let serial = paper::run_pass(&cells, 1);
    let again = paper::run_pass(&cells, 1);
    let nproc = std::thread::available_parallelism().map_or(2, |n| n.get().max(2));
    let parallel = paper::run_pass(&cells, nproc);
    assert!(serial == again, "two serial passes differ");
    assert!(serial == parallel, "1 vs {nproc} sweep workers differ");
    assert!(
        paper::problems(&cells, &serial).is_empty(),
        "{:?}",
        paper::problems(&cells, &serial)
    );

    let metrics = |results: &[paper::CellResult]| {
        let mut m = Metrics::default();
        paper::sim_metrics(&cells, results, &mut m);
        runs::gpsim_metrics(&mut m, &paper::all_runs(results));
        m
    };
    let (a, b) = (metrics(&serial), metrics(&parallel));
    assert_eq!(sim_bits(&a), sim_bits(&b));
    for (name, _) in END_TO_END
        .iter()
        .filter(|(n, _)| n.starts_with("sim_") || *n == "paper_err")
    {
        assert!(a.get(name).is_some_and(|v| v > 0.0), "{name} not measured");
    }
}

#[test]
fn every_engine_partitions_its_makespan_exactly() {
    let cells = paper::prepare(paper::grid(3)).expect("set-up");
    let results = paper::run_pass(&cells, 1);
    let all = paper::all_runs(&results);
    assert!(all.len() > 100);
    for r in all {
        assert!(r.partition_exact(), "{r:?}");
    }
}

#[test]
fn held_out_cells_follow_the_seed() {
    let labels = |seed| {
        format!(
            "{:?}",
            paper::grid(seed)
                .iter()
                .map(|c| &c.work)
                .collect::<Vec<_>>()
        )
    };
    assert_eq!(labels(11), labels(11));
    assert_ne!(labels(11), labels(12));
}

/// Serve every call of stream 0 twice; reports and metrics must match.
fn serve_twice(kind: serving::Kind) {
    let setup = serving::setup(kind, 5);
    let run = || {
        let reports: Vec<_> = setup.streams[0]
            .iter()
            .map(|c| {
                serving::run_call(c, &setup.tenants, &c.opts)
                    .expect("serve")
                    .0
            })
            .collect();
        for r in &reports {
            assert!(
                serving::problems(kind, r).is_empty(),
                "{:?}",
                serving::problems(kind, r)
            );
        }
        let mut m = Metrics::default();
        serving::sim_metrics(std::slice::from_ref(&reports), &mut m);
        let jobs: Vec<_> = setup.streams[0]
            .iter()
            .flat_map(|c| c.jobs.iter())
            .collect();
        let study = serving::shape_study(&jobs, &mut m);
        assert!(study.problems.is_empty(), "{:?}", study.problems);
        for r in &study.runs {
            assert!(r.partition_exact(), "{r:?}");
        }
        let refs: Vec<_> = study.runs.iter().collect();
        runs::gpsim_metrics(&mut m, &refs);
        (format!("{reports:?}"), sim_bits(&m))
    };
    let (first, second) = (run(), run());
    assert!(first.0 == second.0, "serve reports differ between runs");
    assert_eq!(first.1, second.1);
}

#[test]
fn serve_steady_is_bit_identical_across_runs() {
    serve_twice(serving::Kind::Steady);
}

#[test]
fn serve_chaos_is_bit_identical_across_runs() {
    serve_twice(serving::Kind::Chaos);
}

#[test]
fn functional_spot_check_passes() {
    let (checks, failures) = crate::checks::spot_check();
    assert_eq!(checks, 15);
    assert!(failures.is_empty(), "{failures:?}");
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = gpsim::json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed("end_to_end"), e2e);
    let layers: Vec<(String, String)> = crate::report::per_layer_names()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed("per_layer"), layers);
}

/// The `key = value` lines of the `[profile.release]` table of the
/// manifest at `path`, comments and blank lines left out.
fn release_profile(path: &str) -> std::collections::BTreeMap<String, String> {
    let text = std::fs::read_to_string(path).expect(path);
    text.lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (k, v) = l.split_once('=').expect("key = value");
            (k.trim().to_string(), v.trim().to_string())
        })
        .collect()
}

#[test]
fn release_profile_matches_the_repository_workspace() {
    // The benchmark is a workspace of its own, so Cargo ignores the
    // repository's profile for it: the two must be kept equal by hand.
    let root = release_profile(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
    let ours = release_profile(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
    assert!(
        !root.is_empty(),
        "no [profile.release] in the repository's Cargo.toml"
    );
    assert_eq!(ours, root);
}
