//! The repository benchmark: one command per workload that measures the
//! end-to-end metrics (untraced run) or the per-layer metrics (traced
//! run), checks the program's outputs, and prints one JSON result line.
//!
//! ```text
//! dbpp-benchmark --workload <paper-sweep|serve-steady|serve-chaos>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! See `README.md` beside this package for the workloads and metrics.

mod checks;
mod paper;
mod report;
mod runs;
#[cfg(test)]
mod selfcheck;
mod serving;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{cpu_seconds, median, wall_seconds, Metrics, END_TO_END, LAYERS};
use trace::span;

const USAGE: &str = "usage: dbpp-benchmark --workload <paper-sweep|serve-steady|serve-chaos> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Least share of traced time the layer spans must cover.
const MIN_COVERAGE: f64 = 0.95;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperSweep,
    ServeSteady,
    ServeChaos,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper-sweep",
            Workload::ServeSteady => "serve-steady",
            Workload::ServeChaos => "serve-chaos",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "paper-sweep" => Workload::PaperSweep,
                    "serve-steady" => Workload::ServeSteady,
                    "serve-chaos" => Workload::ServeChaos,
                    w => return Err(format!("unknown workload {w}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace must be 0 or 1, not {t}")),
                })
            }
            f => return Err(format!("unknown flag {f}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a run produced.
#[derive(Default)]
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    problems: Vec<String>,
    notes: Vec<String>,
}

impl Outcome {
    fn problem(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }
}

/// Nominal host seconds ([`report::nominal`]) and op count of each pass,
/// grouped by stream.
struct Passes {
    /// `(pass index, nominal host seconds, traced)` per stream.
    times: Vec<Vec<(usize, f64, bool)>>,
    /// Ops one pass over each stream completes.
    ops: Vec<u64>,
}

impl Passes {
    /// Ops per nominal host second over the passes with `traced`.
    ///
    /// The first cycle over the streams is warm-up and left out: every
    /// stream served for the first time runs slower (the heap is still
    /// growing). Each stream then counts once, at the mean time of its
    /// passes, since streams differ in cost and a run ends partway
    /// through a cycle.
    fn throughput(&self, traced: bool) -> f64 {
        let streams = self.times.len();
        let (mut ops, mut secs) = (0u64, 0.0);
        for (k, times) in self.times.iter().enumerate() {
            let t: Vec<f64> = times
                .iter()
                .filter(|&&(i, _, tr)| tr == traced && i >= streams)
                .map(|&(_, s, _)| s)
                .collect();
            if !t.is_empty() {
                ops += self.ops[k];
                secs += report::mean(&t);
            }
        }
        ops as f64 / secs
    }
}

/// Run passes until `seconds` have passed and every stream ran at least
/// twice (three times in a traced run). Pass `i` serves stream
/// `i % streams`; cycle 0 is warm-up, and in a traced run odd cycles are
/// traced and even ones are not, so the two alternate under the same
/// host conditions. `pass` returns the host seconds it measured and the
/// ops it completed; `speed` is the reference loop's speed on the clock
/// `pass` measures with.
fn pass_loop(
    seconds: f64,
    streams: usize,
    traced_run: bool,
    speed: impl Fn() -> f64,
    mut pass: impl FnMut(usize, usize) -> (f64, u64),
) -> Passes {
    // A warm-up cycle, then at least one measured cycle of each kind.
    let min_cycles = if traced_run { 3 } else { 2 };
    let mut p = Passes {
        times: vec![Vec::new(); streams],
        ops: vec![0; streams],
    };
    let start = Instant::now();
    let mut i = 0;
    while i < streams * min_cycles || start.elapsed() < Duration::from_secs_f64(seconds) {
        let (k, cycle) = (i % streams, i / streams);
        let traced = traced_run && cycle % 2 == 1;
        trace::enable(traced);
        trace::set_pass(i as u32);
        // Where the heap places the program's buffers moves its speed by up
        // to a fifth (a fixed-size allocation made before a run shifts
        // throughput that much), and one seed's run keeps one layout. A
        // live allocation of a different size per pass gives every pass
        // another layout, so a run measures the program over many.
        let pad = vec![1u8; 16 * (paper::SplitMix(i as u64).next_u64() % 8192) as usize];
        let (ops, secs) = report::nominal(&speed, || {
            let (secs, ops) = span("bench:pass", || pass(i, k));
            (ops, secs)
        });
        drop(std::hint::black_box(pad));
        trace::set_pass(trace::NO_PASS);
        trace::enable(traced_run);
        p.times[k].push((i, secs, traced));
        if cycle == 0 {
            p.ops[k] = ops;
        }
        i += 1;
    }
    p
}

/// Time [`SETUPS`] set-ups on the CPU clock rescaled to the nominal host
/// ([`report::nominal`]), keep the last result, set `setup_s`.
fn timed_setup<T>(out: &mut Outcome, mut setup: impl FnMut() -> T) -> T {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let (out, secs) = report::nominal(cpu_speed, || {
            let start = cpu_seconds();
            let out = span("bench:setup", &mut setup);
            (out, cpu_seconds() - start)
        });
        last = Some(out);
        times.push(secs);
    }
    out.metrics.set("setup_s", median(&times));
    last.expect("at least one set-up")
}

/// The reference loop's speed on the process CPU clock.
fn cpu_speed() -> f64 {
    report::host_speed(cpu_seconds)
}

fn paper_sweep(args: &Args, out: &mut Outcome) {
    let threads = pipeline_rt::sweep_threads();
    let cells = match timed_setup(out, || paper::prepare(paper::grid(args.seed))) {
        Ok(c) => c,
        Err(e) => return out.problem(format!("set-up failed: {e}")),
    };
    let mut first: Option<Vec<paper::CellResult>> = None;
    let mut problems = Vec::new();
    // A pass runs on `threads` sweep workers, so it is timed on the wall
    // clock against the reference loop run on as many threads: CPU time
    // summed over the workers would not show whether they ran at once.
    let speed = || report::parallel_wall_speed(threads);
    let passes = pass_loop(args.seconds, 1, args.trace, speed, |i, _| {
        let start = wall_seconds();
        let results = paper::run_pass(&cells, threads);
        let secs = wall_seconds() - start;
        let ops = paper::region_runs(&results) as u64;
        span("bench:check", || match &first {
            None => {
                problems.extend(paper::problems(&cells, &results));
                first = Some(results);
            }
            Some(f) if *f != results => problems.push(format!("pass {i} differs from pass 0")),
            Some(_) => {}
        });
        (secs, ops)
    });
    let results = first.expect("at least one pass");
    let n_passes: usize = passes.times.iter().map(Vec::len).sum();
    out.attempted += (paper::region_runs(&results) * n_passes) as u64;
    out.problems.extend(problems);
    out.metrics.set("throughput", passes.throughput(false));
    paper::sim_metrics(&cells, &results, &mut out.metrics);
    if let Some((_, lines)) = paper::paper_err(&cells, &results) {
        out.notes.extend(lines);
    }
    let runs = paper::all_runs(&results);
    runs::gpsim_metrics(&mut out.metrics, &runs);

    if args.trace {
        let m = &mut out.metrics;
        let buffer: Vec<_> = runs.iter().filter(|r| r.version == "buffer").collect();
        let reused = buffer.iter().filter(|r| r.plan_reused).count();
        m.set(
            "plan.reuse_ratio",
            reused as f64 / buffer.len().max(1) as f64,
        );
        let des: usize = results.iter().filter_map(|r| r.tune).map(|t| t.3).sum();
        m.set("autotune.des_trials", des as f64);
        m.set("sweep.threads", threads as f64);
        let commands: u64 = runs.iter().map(|r| r.commands).sum();
        let (_, in_passes) = layer_metrics(out, &passes);
        // Every traced pass runs the same commands.
        let traced = passes.times.iter().flatten().filter(|p| p.2).count();
        let run_ns = span_ns(&in_passes, |s| s.layer() == "run");
        let m = &mut out.metrics;
        m.set(
            "run.host_ns_per_cmd",
            run_ns / (commands * traced as u64) as f64,
        );
        let items = span_ns(&in_passes, |s| s.name == "sweep:item");
        let wall = span_ns(&in_passes, |s| s.name == "sweep:sweep_map_threads");
        m.set("sweep.busy_frac", items / (threads as f64 * wall));
    }
}

fn serve_workload(kind: serving::Kind, args: &Args, out: &mut Outcome) {
    let setup = timed_setup(out, || {
        let setup = serving::setup(kind, args.seed);
        // One fleet build and calibration, as every pass makes per call.
        serving::fleet_for(&setup.streams[0][0]).map(|_| setup)
    });
    let setup = match setup {
        Ok(s) => s,
        Err(e) => return out.problem(format!("set-up failed: {e}")),
    };
    // Each call's first report and its digest, by stream and call index.
    let mut first: Vec<Vec<Option<(String, pipeline_serve::ServeReport)>>> = setup
        .streams
        .iter()
        .map(|calls| calls.iter().map(|_| None).collect())
        .collect();
    let mut problems = Vec::new();
    let mut attempted = 0u64;
    let streams = setup.streams.len();
    let passes = pass_loop(args.seconds, streams, args.trace, cpu_speed, |i, k| {
        let (mut secs, mut ops) = (0.0, 0);
        for (c, call) in setup.streams[k].iter().enumerate() {
            attempted += call.jobs.len() as u64;
            let (report, s) = match serving::run_call(call, &setup.tenants, &call.opts) {
                Ok(r) => r,
                Err(e) => {
                    problems.push(format!("pass {i} call {c}: {e}"));
                    continue;
                }
            };
            secs += s;
            ops += report.done;
            span("bench:check", || {
                let digest = format!("{report:?}");
                match &first[k][c] {
                    None => {
                        problems.extend(
                            serving::problems(kind, &report)
                                .into_iter()
                                .map(|p| format!("stream {k} call {c}: {p}")),
                        );
                        first[k][c] = Some((digest, report));
                    }
                    Some((d, _)) if *d != digest => problems.push(format!(
                        "pass {i}: stream {k} call {c} differs from its first pass"
                    )),
                    Some(_) => {}
                }
            });
        }
        (secs, ops)
    });
    out.attempted += attempted;
    out.problems.extend(problems);
    out.metrics.set("throughput", passes.throughput(false));
    let reports: Vec<Vec<_>> = first
        .into_iter()
        .map(|calls| calls.into_iter().flatten().map(|(_, r)| r).collect())
        .collect();
    serving::sim_metrics(&reports, &mut out.metrics);

    let jobs: Vec<_> = setup
        .streams
        .iter()
        .flatten()
        .flat_map(|c| c.jobs.iter())
        .collect();
    let study = serving::shape_study(&jobs, &mut out.metrics);
    out.attempted += study.runs.len() as u64 + study.problems.len() as u64;
    out.problems.extend(study.problems.iter().cloned());
    let study_runs: Vec<_> = study.runs.iter().collect();
    runs::gpsim_metrics(&mut out.metrics, &study_runs);

    // The paper's headline values, re-checked on every workload (untraced:
    // the per-layer call times describe the stream's own shapes).
    trace::enable(false);
    let cells = paper::headline_cells();
    let results: Vec<_> = cells.iter().map(paper::run_cell).collect();
    trace::enable(args.trace);
    out.attempted += paper::region_runs(&results) as u64;
    out.problems.extend(paper::problems(&cells, &results));
    match paper::paper_err(&cells, &results) {
        Some((err, lines)) => {
            out.metrics.set("paper_err", err);
            out.notes.extend(lines);
        }
        None => out.problem("paper headline cells did not run"),
    }

    if args.trace {
        match serving::verify_share(&setup) {
            Ok(share) => out.metrics.set("serve.verify_share", share),
            Err(e) => out.problem(format!("verify-share runs failed: {e}")),
        }
        let (spans, _) = layer_metrics(out, &passes);
        // `serve` makes its own `run_model` calls; the host cost per command
        // comes from the standalone runs of the streams' shapes.
        let commands: u64 = study.runs.iter().map(|r| r.commands).sum();
        let run_ns = span_ns(&spans, |s| s.layer() == "run" && s.pass == trace::NO_PASS);
        out.metrics
            .set("run.host_ns_per_cmd", run_ns / commands as f64);
    }
}

/// Per-layer metrics every traced run shares, from its spans: median
/// call times, self and inclusive time per layer per traced pass, span
/// coverage of pass wall time and the tracing overhead. Writes the spans
/// out and returns them with the subset recorded in traced passes.
fn layer_metrics(out: &mut Outcome, passes: &Passes) -> (Vec<trace::Span>, Vec<trace::Span>) {
    let spans = trace::drain();
    let median_of = |name: &str, scale: f64| {
        let d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64 / scale)
            .collect();
        median(&d)
    };
    let m = &mut out.metrics;
    m.set(
        "directive.parse_us",
        median_of("directive:parse_directive", 1e3),
    );
    m.set("apps.setup_ms", median_of("apps:setup", 1e6));
    m.set("plan.compile_ms", median_of("plan:compile_plan", 1e6));
    for model in ["naive", "pipelined", "buffer", "auto"] {
        let name = format!("run:{model}");
        m.set(format!("run.host_ms.{model}"), median_of(&name, 1e6));
    }
    m.set("costmodel.predict_us", median_of("costmodel:predict", 1e3));
    m.set("autotune.ms", median_of("costmodel:autotune", 1e6));
    m.set("serve.generate_ms", median_of("serve:generate", 1e6));
    m.set("serve.fleet_build_ms", median_of("serve:Fleet::build", 1e6));
    m.set("serve.calibrate_ms", median_of("serve:calibrate", 1e6));
    m.set("serve.serve_ms", median_of("serve:serve", 1e6));

    let traced: Vec<u32> = passes
        .times
        .iter()
        .flatten()
        .filter(|p| p.2)
        .map(|p| p.0 as u32)
        .collect();
    let in_passes: Vec<trace::Span> = spans
        .iter()
        .filter(|s| traced.contains(&s.pass))
        .cloned()
        .collect();
    let n = traced.len().max(1) as f64;
    let times = trace::layer_times(&in_passes);
    for layer in LAYERS {
        let (s, i) = times.get(layer).copied().unwrap_or((0, 0));
        m.set(report::self_metric(layer), s as f64 / 1e6 / n);
        m.set(report::incl_metric(layer), i as f64 / 1e6 / n);
    }
    let mut coverage = trace::min_coverage(&in_passes, "bench:pass");
    if in_passes.iter().any(|s| s.name == "sweep:item") {
        // A paper-sweep pass's only child is the sweep call, which covers
        // it by construction, so the cells' calls are measured one level
        // deeper: their share of the sweep items' time.
        coverage = coverage.min(trace::total_coverage(&in_passes, "sweep:item"));
    }
    m.set("trace.coverage", coverage);
    m.set(
        "trace.overhead",
        1.0 - passes.throughput(true) / passes.throughput(false),
    );
    if coverage.is_nan() || coverage < MIN_COVERAGE {
        out.problem(format!(
            "layer spans cover {coverage:.3} of traced time, below {MIN_COVERAGE}"
        ));
    }
    out.notes.push(format!(
        "traced passes: {}; spans recorded: {}",
        traced.len(),
        spans.len()
    ));
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join("trace.json");
    match std::fs::create_dir_all(&dir).and_then(|_| trace::write_chrome_trace(&path, &spans)) {
        Ok(()) => out
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => out.notes.push(format!("spans not written: {e}")),
    }
    (spans, in_passes)
}

/// Total duration (ns) of the spans in `spans` that `keep` selects.
fn span_ns(spans: &[trace::Span], keep: impl Fn(&trace::Span) -> bool) -> f64 {
    spans
        .iter()
        .filter(|s| keep(s))
        .map(|s| s.dur() as f64)
        .sum()
}

fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    trace::enable(args.trace);
    let (checks, failures) = span("bench:spot_check", checks::spot_check);
    out.attempted += checks;
    out.problems.extend(failures);
    match args.workload {
        Workload::PaperSweep => paper_sweep(args, &mut out),
        Workload::ServeSteady => serve_workload(serving::Kind::Steady, args, &mut out),
        Workload::ServeChaos => serve_workload(serving::Kind::Chaos, args, &mut out),
    }
    trace::enable(false);
    out.metrics.set("peak_rss_mb", report::peak_rss_mb());
    if args.trace {
        checks::kernel_bodies(&mut out.metrics);
    }
    out
}

/// The checkout's commit, read from its `.git` directory (no `git`
/// process, nothing read outside the checkout); `none` without one.
fn git_rev() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(r) => read(r).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(&format!(" {r}")))
                .map(str::to_string)
        }),
        None => Some(head),
    };
    rev.and_then(|r| {
        r.split_whitespace()
            .next()
            .map(|h| h.chars().take(12).collect())
    })
    .unwrap_or_else(|| "none".into())
}

fn fingerprint(args: &Args) -> String {
    use report::{json_num, json_str};
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"fingerprint\": {{\"nproc\": {nproc}, \"git_rev\": {}, \
         \"build_profile\": \"{profile}\", \"sweep_workers\": {}}}, \
         \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        json_str(&git_rev()),
        pipeline_rt::sweep_threads(),
        args.workload.name(),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", fingerprint(&args));
    let mut out = run(&args);
    let names: Vec<(String, &str)> = if args.trace {
        report::per_layer_names()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for (name, _) in &names {
        match out.metrics.get(name) {
            None if args.trace => out.metrics.set(name.clone(), 0.0),
            Some(v) if v.is_finite() => {}
            _ => out.problem(format!("metric {name} was not measured")),
        }
    }
    for note in &out.notes {
        println!("# {note}");
    }
    for p in &out.problems {
        println!("# FAILED: {p}");
    }
    let failed = out.problems.len() as u64;
    println!(
        "{}",
        report::result_line(
            failed == 0,
            out.attempted.max(1),
            failed,
            &out.metrics,
            &names
        )
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
