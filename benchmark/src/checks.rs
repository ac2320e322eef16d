//! Untimed functional spot-checks, and the kernel-body microbenchmark of
//! the traced run.

use std::hint::black_box;

use gpsim::{DeviceProfile, ExecMode, Gpu};
use pipeline_apps::util::{max_rel_error, read_host};
use pipeline_apps::{conv3d, matmul, qcd, stencil};
use pipeline_apps::{Conv3dConfig, MatmulConfig, QcdConfig, StencilConfig};
use pipeline_rt::{run_model, ExecModel, RtResult, RunOptions};

use crate::report::{cpu_seconds, Metrics};
use crate::runs::model_name;

const MODELS: [ExecModel; 4] = [
    ExecModel::Naive,
    ExecModel::Pipelined,
    ExecModel::PipelinedBuffer,
    ExecModel::Auto,
];

fn functional_gpu() -> Gpu {
    Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).expect("functional context creation")
}

/// Run every app at its `test_small` shape under every execution model
/// in functional mode and compare the output with the app's
/// `cpu_reference`: bit-exact, except the pipeline-buffer GEMM, which
/// reassociates its sums (relative error below 1e-4). Returns the
/// number of checks and a line per failed one.
pub fn spot_check() -> (u64, Vec<String>) {
    let mut checks = 0;
    let mut failures = Vec::new();
    let mut record = |what: String, result: RtResult<f32>, tol: f32| {
        checks += 1;
        match result {
            Ok(err) if err <= tol => {}
            Ok(err) => failures.push(format!("{what}: max relative error {err} vs cpu_reference")),
            Err(e) => failures.push(format!("{what}: {e}")),
        }
    };
    for model in MODELS {
        let m = model_name(model);
        record(format!("conv3d {m}"), check_conv3d(model), 0.0);
        record(format!("stencil {m}"), check_stencil(model), 0.0);
        record(format!("qcd {m}"), check_qcd(model), 0.0);
    }
    for (version, tol) in [("naive", 0.0), ("block_shared", 0.0), ("buffer", 1e-4)] {
        record(format!("gemm {version}"), check_gemm(version), tol);
    }
    (checks, failures)
}

fn check_conv3d(model: ExecModel) -> RtResult<f32> {
    let cfg = Conv3dConfig::test_small();
    let mut gpu = functional_gpu();
    let inst = cfg.setup(&mut gpu)?;
    let expect = cfg.cpu_reference(&read_host(&gpu, inst.a)?);
    run_model(
        &mut gpu,
        &inst.region,
        &cfg.builder(),
        model,
        &RunOptions::default(),
    )?;
    Ok(max_rel_error(&read_host(&gpu, inst.b)?, &expect))
}

fn check_stencil(model: ExecModel) -> RtResult<f32> {
    let cfg = StencilConfig::test_small();
    let mut gpu = functional_gpu();
    let inst = cfg.setup(&mut gpu)?;
    let expect = cfg.cpu_reference(&read_host(&gpu, inst.a0)?);
    run_model(
        &mut gpu,
        &inst.region,
        &cfg.builder(),
        model,
        &RunOptions::default(),
    )?;
    Ok(max_rel_error(&read_host(&gpu, inst.anext)?, &expect))
}

fn check_qcd(model: ExecModel) -> RtResult<f32> {
    let cfg = QcdConfig::test_small();
    let mut gpu = functional_gpu();
    let inst = cfg.setup(&mut gpu)?;
    let expect = cfg.cpu_reference(
        &read_host(&gpu, inst.psi)?,
        &read_host(&gpu, inst.u)?,
        &read_host(&gpu, inst.f)?,
    );
    run_model(
        &mut gpu,
        &inst.region,
        &cfg.builder(),
        model,
        &RunOptions::default(),
    )?;
    Ok(max_rel_error(&read_host(&gpu, inst.out)?, &expect))
}

fn check_gemm(version: &str) -> RtResult<f32> {
    let cfg = MatmulConfig::test_small();
    let mut gpu = functional_gpu();
    let (a, b, c) = cfg.host_matrices(&mut gpu)?;
    let expect = cfg.cpu_reference(&read_host(&gpu, a)?, &read_host(&gpu, b)?);
    match version {
        "naive" => cfg.run_baseline(&mut gpu, a, b, c)?,
        "block_shared" => cfg.run_block_shared(&mut gpu, a, b, c)?,
        _ => cfg.run_pipeline_buffer(&mut gpu, a, b, c)?,
    };
    Ok(max_rel_error(&read_host(&gpu, c)?, &expect))
}

/// Deterministic values in `[-1, 1)`.
fn fill(seed: u64, len: usize) -> Vec<f32> {
    let mut rng = crate::paper::SplitMix(seed);
    (0..len)
        .map(|_| (rng.next_u64() >> 40) as f32 / (1u64 << 23) as f32 - 1.0)
        .collect()
}

/// Host CPU ns per output element of `body`, which writes `elems`
/// outputs, timed over repeated calls for at least 20 ms.
fn ns_per_elem(elems: usize, mut body: impl FnMut()) -> f64 {
    body();
    let mut calls = 0u64;
    let start = cpu_seconds();
    while cpu_seconds() - start < 0.02 {
        for _ in 0..64 {
            body();
        }
        calls += 64;
    }
    (cpu_seconds() - start) * 1e9 / (calls * elems as u64) as f64
}

/// Time the public kernel bodies on the serving jobs' largest shapes and
/// set `apps.kernel_ns_per_elem.*`.
pub fn kernel_bodies(m: &mut Metrics) {
    // conv3d and stencil planes of the serving shapes (test_small).
    let c = Conv3dConfig::test_small();
    let plane = c.plane();
    let vol = fill(0xC0, 3 * plane);
    let mut out = vec![0.0f32; plane];
    let conv = ns_per_elem(plane, || {
        let (km, rest) = vol.split_at(plane);
        let (kmid, kp) = rest.split_at(plane);
        conv3d::conv3d_plane(black_box(&mut out), km, kmid, kp, c.ni, c.nj);
    });
    m.set("apps.kernel_ns_per_elem.conv3d", conv);

    let s = StencilConfig::test_small();
    let plane = s.plane();
    let grid = fill(0x57, 3 * plane);
    let mut out = vec![0.0f32; plane];
    let sten = ns_per_elem(plane, || {
        let (below, rest) = grid.split_at(plane);
        let (mid, above) = rest.split_at(plane);
        stencil::stencil_plane(
            black_box(&mut out),
            below,
            mid,
            above,
            s.nx,
            s.ny,
            s.c0,
            s.c1,
        );
    });
    m.set("apps.kernel_ns_per_elem.stencil", sten);

    let q = QcdConfig::test_small();
    let (ps, us) = (q.psi_slice(), q.u_slice());
    let psi = fill(0x9C1, 3 * ps);
    let u = fill(0x9C2, 2 * us);
    let f = fill(0x9C3, 2 * us);
    let mut out = vec![0.0f32; ps];
    let hop = ns_per_elem(ps, || {
        let slices = qcd::HopSlices {
            psi_m: &psi[..ps],
            psi_0: &psi[ps..2 * ps],
            psi_p: &psi[2 * ps..],
            u_m: &u[..us],
            u_0: &u[us..],
            f_m: &f[..us],
            f_0: &f[us..],
        };
        qcd::hopping_sweep(q.n, &slices, black_box(&mut out));
    });
    m.set("apps.kernel_ns_per_elem.qcd", hop);

    // The largest serving GEMM (n = 32), one full rank-n update.
    let n = 32;
    let a = fill(0xA, n * n);
    let b = fill(0xB, n * n);
    let mut cm = vec![0.0f32; n * n];
    let gemm = ns_per_elem(n * n, || {
        cm.fill(0.0);
        matmul::gemm_rank_update(black_box(&mut cm), n, &a, n, &b, n);
    });
    m.set("apps.kernel_ns_per_elem.gemm", gemm);
}
