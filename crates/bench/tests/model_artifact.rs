//! The committed simulation artifacts are the output of full `figures`
//! runs and must equal, value for value, the documents fresh runs
//! produce:
//!
//! * `MODEL_sim.json` — `figures model` (the fig4 + fig8 grids);
//! * `SERVE_sim.json` — `figures serve` (every serving cell);
//! * `CHAOS_sim.json` — `figures chaos` (every chaos cell).
//!
//! None of them holds a host wall-clock field, so any difference is a
//! moved simulated number: a stale file (a cost-model, driver, scheduler
//! or server change without regenerating it) or a `--smoke` overwrite
//! fails here. Regenerate with
//! `cargo run --release -p pipeline-bench --bin figures -- model serve chaos`
//! from the repository root.

use pipeline_bench::{chaos, model, serve};

#[test]
fn committed_sim_artifacts_match_fresh_full_runs() {
    let fresh = [
        ("MODEL_sim.json", "model", model::json(&model::run(false))),
        ("SERVE_sim.json", "serve", serve::json(&serve::run(false))),
        ("CHAOS_sim.json", "chaos", chaos::json(&chaos::run(false))),
    ];
    for (file, figure, doc) in fresh {
        let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file} is committed: {e}"));
        let committed =
            gpsim::json::parse(&text).unwrap_or_else(|e| panic!("committed {file} parses: {e}"));
        let fresh = gpsim::json::parse(&doc).expect("fresh JSON parses");
        assert_eq!(
            committed, fresh,
            "{file} is stale; regenerate it with `figures {figure}` (no --smoke)"
        );
    }
}
