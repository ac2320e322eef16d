//! Golden command streams: every app × model × schedule of the paper's
//! Fig. 3–10 grids (timing mode) and every serving job kind × model
//! (functional mode), each run on a fresh context with the timeline on.
//!
//! Each line of `tests/golden/commands.txt` records one cell: a hash of
//! the full device timeline (label, kind, stream, start, end, sequence
//! number and enqueue instant of every command), of the host spans, of
//! the wait records and of the counter tracks; the [`RunReport`]
//! scalars; and, for region cells, the [`CostModel::predict`] fields.
//! Any change to the commands a driver issues, or to what the cost model
//! predicts for them, shows up as a differing line.
//!
//! The golden file was generated from the tree *before* the three
//! drivers and the three cost-model walkers were folded into one plan
//! interpreter, by running the ignored test in this file:
//!
//! ```text
//! cargo test --release -p pipeline-bench --test golden_commands -- --ignored
//! ```
//!
//! Regenerate it only for a deliberate behaviour change, and list every
//! line that changed, with its cause, in EXPERIMENTS.md.

use std::fmt::Write as _;
use std::path::PathBuf;

use gpsim::{DeviceProfile, ExecMode, Gpu};
use pipeline_apps::{Conv3dConfig, MatmulConfig, QcdConfig, StencilConfig};
use pipeline_rt::{
    run_model, CostModel, ExecModel, KernelBuilder, Region, ResumableRun, RtResult, RunOptions,
    RunReport,
};
use pipeline_serve::{GemmConfig, JobShape};

/// FNV-1a, 64-bit: a hash that is stable across toolchains.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Everything one run left on its context and in its report, as one
/// line fragment.
fn run_line(gpu: &Gpu, result: RtResult<RunReport>) -> String {
    let report = match result {
        Ok(r) => r,
        Err(e) => return format!("error={e}"),
    };
    let mut tl = Fnv::new();
    for e in gpu.timeline() {
        tl.str(&e.label);
        tl.str(&format!("{:?}", e.kind));
        tl.u64(e.stream as u64);
        tl.u64(e.start_ns);
        tl.u64(e.end_ns);
        tl.u64(e.seq);
        tl.u64(e.enqueue_ns);
    }
    let mut hs = Fnv::new();
    for s in gpu.host_spans() {
        hs.str(&s.label);
        hs.str(&format!("{:?}", s.kind));
        hs.u64(s.start_ns);
        hs.u64(s.end_ns);
        hs.u64(s.flow.map_or(u64::MAX, |f| f));
    }
    let mut wr = Fnv::new();
    for w in gpu.wait_records() {
        wr.u64(w.stream as u64);
        wr.str(&format!("{:?}", w.cause));
        wr.u64(w.from_ns);
        wr.u64(w.until_ns);
    }
    let mut ct = Fnv::new();
    for t in &report.counter_tracks {
        ct.str(&t.name);
        for &(ns, v) in &t.samples {
            ct.u64(ns);
            ct.u64(v.to_bits());
        }
    }
    let mut st = Fnv::new();
    st.str(&format!("{:?}", report.stalls));
    st.str(&format!("{:?}", report.stage_metrics));
    st.str(&format!("{:?}", report.recovery));
    format!(
        "cmds={} tl={:016x} host={:016x} waits={:016x} tracks={:016x} stalls={:016x} \
         model={:?} total={} h2d={} d2h={} kernel={} api={} bytes={}/{} mem={} arr={} \
         chunks={} streams={} commands={} reused={}",
        gpu.timeline().len(),
        tl.0,
        hs.0,
        wr.0,
        ct.0,
        st.0,
        report.model,
        report.total.as_ns(),
        report.h2d.as_ns(),
        report.d2h.as_ns(),
        report.kernel.as_ns(),
        report.host_api.as_ns(),
        report.h2d_bytes,
        report.d2h_bytes,
        report.gpu_mem_bytes,
        report.array_bytes,
        report.chunks,
        report.streams,
        report.commands,
        report.plan_reused,
    )
}

/// A region app at one schedule.
#[derive(Clone, Copy)]
enum App {
    Conv3d(Conv3dConfig),
    Stencil(StencilConfig),
    Qcd(QcdConfig),
}

impl App {
    fn bind(&self, gpu: &mut Gpu) -> (Region, Box<KernelBuilder<'static>>) {
        match self {
            App::Conv3d(c) => (c.setup(gpu).unwrap().region, Box::new(c.builder())),
            App::Stencil(c) => (c.setup(gpu).unwrap().region, Box::new(c.builder())),
            App::Qcd(c) => (c.setup(gpu).unwrap().region, Box::new(c.builder())),
        }
    }

    fn schedule(&self) -> (usize, usize) {
        match self {
            App::Conv3d(c) => (c.chunk, c.streams),
            App::Stencil(c) => (c.chunk, c.streams),
            App::Qcd(c) => (c.chunk, c.streams),
        }
    }
}

const THREE: [ExecModel; 3] = [
    ExecModel::Naive,
    ExecModel::Pipelined,
    ExecModel::PipelinedBuffer,
];

fn profiles() -> [(&'static str, DeviceProfile); 2] {
    [
        ("k40m", DeviceProfile::k40m()),
        ("hd7970", DeviceProfile::hd7970()),
    ]
}

/// One region cell: each model on its own fresh context, then the cost
/// model's prediction of each.
fn region_cell(out: &mut Vec<String>, name: &str, app: App, models: &[ExecModel]) {
    for (pname, profile) in profiles() {
        for &model in models {
            let mut gpu = Gpu::new(profile.clone(), ExecMode::Timing).unwrap();
            let (region, builder) = app.bind(&mut gpu);
            let r = run_model(&mut gpu, &region, &*builder, model, &RunOptions::default());
            out.push(format!(
                "{name} {pname} {model:?} run {}",
                run_line(&gpu, r)
            ));
        }
        let mut gpu = Gpu::new(profile.clone(), ExecMode::Timing).unwrap();
        let (region, builder) = app.bind(&mut gpu);
        let cm = CostModel::new(&gpu, &region, &*builder).unwrap();
        let (chunk, streams) = app.schedule();
        for model in THREE {
            let line = match cm.predict(model, chunk, streams) {
                Ok(p) => format!(
                    "chunk={} streams={} total={} h2d={} d2h={} kernel={} api={} bottleneck={:?}",
                    p.chunk_size,
                    p.num_streams,
                    p.total.as_ns(),
                    p.h2d.as_ns(),
                    p.d2h.as_ns(),
                    p.kernel.as_ns(),
                    p.host_api.as_ns(),
                    p.bottleneck
                ),
                Err(e) => format!("error={e}"),
            };
            out.push(format!("{name} {pname} {model:?} predict {line}"));
        }
    }
}

fn with_schedule(app: App, chunk: usize, streams: usize) -> App {
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

fn paper_grid(out: &mut Vec<String>) {
    // Figs. 3, 5 and 6: every benchmark under every model.
    let conv = App::Conv3d(Conv3dConfig::polybench_default());
    let sten = App::Stencil(StencilConfig::parboil_default());
    let mut fig5 = vec![("3dconv", conv), ("stencil", sten)];
    for (name, n) in [("qcd-small", 12), ("qcd-medium", 24), ("qcd-large", 36)] {
        fig5.push((name, App::Qcd(QcdConfig::paper_size(n))));
    }
    for (name, app) in fig5 {
        region_cell(out, &format!("fig5/{name}"), app, &THREE);
    }
    // Fig. 4: chunk × streams on the large lattice.
    for chunk in [1, 2, 4, 8] {
        for streams in 1..=5 {
            let app = with_schedule(App::Qcd(QcdConfig::paper_size(36)), chunk, streams);
            region_cell(
                out,
                &format!("fig4/c{chunk}s{streams}"),
                app,
                &[ExecModel::PipelinedBuffer],
            );
        }
    }
    // Fig. 7: stream scaling of both hand-pipelined and buffered.
    for streams in 2..=8 {
        for (name, app) in [("3dconv", conv), ("stencil", sten)] {
            let (chunk, _) = app.schedule();
            region_cell(
                out,
                &format!("fig7/{name}-s{streams}"),
                with_schedule(app, chunk, streams),
                &[ExecModel::Pipelined, ExecModel::PipelinedBuffer],
            );
        }
    }
    // Fig. 8: the chunk-count sweep of the HD 7970 shapes.
    let amd = [
        (
            "3dconv",
            App::Conv3d(Conv3dConfig {
                nk: 256,
                ..Conv3dConfig::polybench_default()
            }),
            256usize - 2,
        ),
        (
            "stencil",
            App::Stencil(StencilConfig {
                nz: 512,
                ..StencilConfig::parboil_default()
            }),
            512usize - 2,
        ),
    ];
    for (name, app, iters) in amd {
        for n_chunks in [2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 50, 0] {
            let chunk = if n_chunks == 0 {
                1
            } else {
                iters.div_ceil(n_chunks)
            };
            region_cell(
                out,
                &format!("fig8/{name}-{n_chunks}"),
                with_schedule(app, chunk, 3),
                &[ExecModel::Naive, ExecModel::Pipelined],
            );
        }
    }
    // Figs. 9 and 10: the three GEMM versions.
    for n in [1024, 2048, 4096, 8192, 10240, 12288, 14336, 20480, 24576] {
        for (pname, profile) in profiles() {
            let cfg = MatmulConfig::with_n(n);
            type Version = fn(
                &MatmulConfig,
                &mut Gpu,
                gpsim::HostBufId,
                gpsim::HostBufId,
                gpsim::HostBufId,
            ) -> RtResult<RunReport>;
            let versions: [(&str, Version); 3] = [
                ("baseline", MatmulConfig::run_baseline),
                ("block-shared", MatmulConfig::run_block_shared),
                ("pipeline-buffer", MatmulConfig::run_pipeline_buffer),
            ];
            for (vname, run) in versions {
                let mut gpu = Gpu::new(profile.clone(), ExecMode::Timing).unwrap();
                let (a, b, c) = cfg.host_matrices(&mut gpu).unwrap();
                let r = run(&cfg, &mut gpu, a, b, c);
                out.push(format!(
                    "fig9/{n} {pname} {vname} run {}",
                    run_line(&gpu, r)
                ));
            }
        }
    }
}

fn serve_grid(out: &mut Vec<String>) {
    let shapes = [
        JobShape::Conv3d(Conv3dConfig::test_small()),
        JobShape::Stencil(StencilConfig::test_small()),
        JobShape::Gemm(GemmConfig {
            n: 16,
            bs: 4,
            chunk: 1,
            streams: 2,
        }),
        JobShape::Qcd(QcdConfig::test_small()),
    ];
    for (pname, profile) in [
        ("k40m", DeviceProfile::k40m()),
        ("p100", DeviceProfile::p100()),
    ] {
        for shape in &shapes {
            for model in THREE {
                let name = format!("serve/{} {pname} {model:?}", shape.name());
                let mut gpu = Gpu::new(profile.clone(), ExecMode::Functional).unwrap();
                let job = shape.setup(&mut gpu, 7).unwrap();
                let r = run_model(
                    &mut gpu,
                    &job.region,
                    &*job.builder,
                    model,
                    &RunOptions::default(),
                );
                out.push(format!("{name} run {}", run_line(&gpu, r)));
                if model == ExecModel::Naive {
                    continue;
                }
                // Preempted every two iterations: the sub-range runs.
                let mut gpu = Gpu::new(profile.clone(), ExecMode::Functional).unwrap();
                let job = shape.setup(&mut gpu, 7).unwrap();
                let mut run = ResumableRun::new(&gpu, &job.region).unwrap();
                let mut slice = 0;
                while !run.is_done() {
                    let r = run
                        .run_slice(&mut gpu, &*job.builder, model, &RunOptions::default(), 2)
                        .map(|r| r.expect("not done"));
                    out.push(format!("{name} slice{slice} {}", run_line(&gpu, r)));
                    slice += 1;
                }
            }
        }
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/commands.txt")
}

fn compute() -> Vec<String> {
    let mut out = Vec::new();
    paper_grid(&mut out);
    serve_grid(&mut out);
    out
}

#[test]
fn command_streams_match_the_golden_file() {
    let want = std::fs::read_to_string(golden_path()).expect("golden file");
    let got = compute();
    let want: Vec<&str> = want.lines().collect();
    let mut diff = String::new();
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        if w != g {
            let _ = writeln!(diff, "line {}:\n  want {w}\n  got  {g}", i + 1);
        }
    }
    assert_eq!(want.len(), got.len(), "cell count changed\n{diff}");
    assert!(
        diff.is_empty(),
        "command streams differ from the golden file:\n{diff}"
    );
}

/// Writes the golden file from the current tree (see the module docs).
#[test]
#[ignore]
fn regenerate_golden_file() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    let mut text = compute().join("\n");
    text.push('\n');
    std::fs::write(path, text).unwrap();
}
