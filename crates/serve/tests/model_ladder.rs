//! The degradation ladder's standing guarantee: every exec model, at
//! every schedule and across mid-job rung switches, produces the app's
//! scalar CPU reference bit for bit for the same region and salt, so a
//! job admitted at a lower rung still verifies — including a job
//! resumed under the naive model, which then moves only its slices'
//! windows instead of whole arrays.

use std::collections::HashSet;

use gpsim::{DeviceProfile, ExecMode, Gpu};
use pipeline_apps::util::read_host;
use pipeline_rt::{run_model, ExecModel, ResumableRun, RunOptions, TuneSpace};
use pipeline_serve::{JobInstance, JobShape, JobSpec, WorkloadConfig};

/// One job of each shape kind from a seeded stream.
fn one_of_each_shape() -> Vec<JobSpec> {
    let jobs = WorkloadConfig::new(0xC4A0_0004, 40, 3).generate();
    let mut seen = HashSet::new();
    jobs.into_iter()
        .filter(|j| seen.insert(std::mem::discriminant(&j.shape)))
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

fn output_bits(g: &Gpu, inst: &JobInstance) -> Vec<u32> {
    bits(&read_host(g, inst.output).unwrap())
}

/// `shape` set up for `job` on a fresh K40m context, and the bits of
/// [`JobShape::cpu_reference`] on its seeded inputs.
fn seeded(job: &JobSpec, shape: &JobShape) -> (Gpu, JobInstance, Vec<u32>) {
    let mut g = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();
    let inst = shape.setup(&mut g, job.id).unwrap();
    let inputs: Vec<Vec<f32>> = inst
        .buffers
        .iter()
        .filter(|&&b| b != inst.output)
        .map(|&b| read_host(&g, b).unwrap())
        .collect();
    let oracle = bits(&shape.cpu_reference(&inputs));
    (g, inst, oracle)
}

fn with_schedule(mut shape: JobShape, chunk: usize, streams: usize) -> JobShape {
    let s = (chunk, streams);
    match &mut shape {
        JobShape::Conv3d(c) => (c.chunk, c.streams) = s,
        JobShape::Stencil(c) => (c.chunk, c.streams) = s,
        JobShape::Gemm(c) => (c.chunk, c.streams) = s,
        JobShape::Qcd(c) => (c.chunk, c.streams) = s,
    }
    shape
}

/// The oracle grid: one job of every distinct shape and size the
/// generator emits × the three ladder rungs × every `(chunk, streams)`
/// of [`TuneSpace::default`], each run compared bit for bit with
/// [`JobShape::cpu_reference`] on its seeded inputs.
#[test]
fn every_ladder_rung_is_bit_identical() {
    let mut sizes = HashSet::new();
    let jobs: Vec<JobSpec> = WorkloadConfig::new(0x0AC1E, 4000, 3)
        .generate()
        .into_iter()
        .filter(|j| sizes.insert(with_schedule(j.shape, 1, 1).sig()))
        .collect();
    // conv3d, stencil and QCD at three sizes each; GEMM at three sizes
    // × two block sizes.
    assert_eq!(jobs.len(), 15, "the generator's shape set changed");
    let space = TuneSpace::default();
    let mut cells = 0;
    let mut diverged = Vec::new();
    for job in &jobs {
        for model in [
            ExecModel::Naive,
            ExecModel::Pipelined,
            ExecModel::PipelinedBuffer,
        ] {
            for &chunk in &space.chunks {
                for &streams in &space.streams {
                    let shape = with_schedule(job.shape, chunk, streams);
                    let (mut g, inst, oracle) = seeded(job, &shape);
                    g.set_timeline_enabled(false);
                    run_model(
                        &mut g,
                        &inst.region,
                        &*inst.builder,
                        model,
                        &RunOptions::default(),
                    )
                    .unwrap();
                    cells += 1;
                    if output_bits(&g, &inst) != oracle {
                        diverged.push(format!("{shape:?} under {model:?}"));
                    }
                }
            }
        }
    }
    assert_eq!(cells, 15 * 3 * 35);
    assert!(
        diverged.is_empty(),
        "{} of {cells} cells diverged from the CPU reference: {diverged:#?}",
        diverged.len()
    );
}

/// A mid-job switch between the two pipelined rungs is bit-clean:
/// chunk-granular slices are model-independent.
#[test]
fn pipelined_rung_switch_mid_job_is_bit_identical() {
    for job in &one_of_each_shape() {
        let (mut g, inst, reference) = seeded(job, &job.shape);
        let mut run = ResumableRun::new(&g, &inst.region).unwrap();
        let half = (run.remaining() / 2).max(1);
        run.run_slice(
            &mut g,
            &*inst.builder,
            ExecModel::PipelinedBuffer,
            &RunOptions::default(),
            half,
        )
        .unwrap();
        while !run.is_done() {
            run.run_slice(
                &mut g,
                &*inst.builder,
                ExecModel::Pipelined,
                &RunOptions::default(),
                2,
            )
            .unwrap();
        }
        assert_eq!(
            output_bits(&g, &inst),
            reference,
            "job {} diverged after a rung switch",
            job.id
        );
    }
}

/// Resuming a partially-run job under the naive model must not write
/// back whole arrays (that would clobber earlier slices' output): the
/// naive slices move only their windows and the job stays bit-clean.
#[test]
fn naive_resumes_a_partially_run_job_bit_identically() {
    for job in &one_of_each_shape() {
        let (mut g, inst, reference) = seeded(job, &job.shape);
        let mut run = ResumableRun::new(&g, &inst.region).unwrap();
        let half = (run.remaining() / 2).max(1);
        run.run_slice(
            &mut g,
            &*inst.builder,
            ExecModel::PipelinedBuffer,
            &RunOptions::default(),
            half,
        )
        .unwrap();
        assert!(run.remaining() > 0, "need a partial job for this test");
        while !run.is_done() {
            run.run_slice(
                &mut g,
                &*inst.builder,
                ExecModel::Naive,
                &RunOptions::default(),
                2,
            )
            .unwrap();
        }
        assert_eq!(output_bits(&g, &inst), reference, "job {} diverged", job.id);
    }
}
