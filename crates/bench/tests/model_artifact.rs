//! The committed `MODEL_sim.json` is the output of a full
//! `figures model` run: it must equal, value for value, the document a
//! fresh run of the fig4 + fig8 grids produces. A stale file (a cost-model
//! or driver change without regenerating it) or a `--smoke` overwrite
//! fails here. Regenerate with
//! `cargo run --release -p pipeline-bench --bin figures -- model`
//! from the repository root.

use pipeline_bench::model;

#[test]
fn committed_model_artifact_matches_a_fresh_full_run() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../MODEL_sim.json");
    let text = std::fs::read_to_string(path).expect("MODEL_sim.json is committed");
    let committed = gpsim::json::parse(&text).expect("committed MODEL_sim.json parses");
    let fresh = gpsim::json::parse(&model::json(&model::run(false))).expect("fresh JSON parses");
    assert_eq!(
        committed, fresh,
        "MODEL_sim.json is stale; regenerate it with `figures model` (no --smoke)"
    );
}
