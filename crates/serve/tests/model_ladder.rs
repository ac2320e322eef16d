//! The degradation ladder's standing guarantee: every exec model
//! produces bit-identical output for the same region and salt, so a
//! job admitted at a lower rung still verifies against its requested
//! model — including a job resumed under the naive model, which then
//! moves only its slices' windows instead of whole arrays.

use gpsim::{DeviceProfile, ExecMode, Gpu};
use pipeline_apps::util::read_host;
use pipeline_rt::{run_model, ExecModel, ResumableRun, RunOptions};
use pipeline_serve::{JobSpec, WorkloadConfig};

/// One job of each shape kind from a seeded stream.
fn one_of_each_shape() -> Vec<JobSpec> {
    let jobs = WorkloadConfig::new(0xC4A0_0004, 40, 3).generate();
    let mut seen = std::collections::HashSet::new();
    jobs.into_iter()
        .filter(|j| seen.insert(std::mem::discriminant(&j.shape)))
        .collect()
}

fn clean_bits(job: &JobSpec, model: ExecModel) -> Vec<u32> {
    let mut g = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();
    let inst = job.shape.setup(&mut g, job.id).unwrap();
    run_model(
        &mut g,
        &inst.region,
        &*inst.builder,
        model,
        &RunOptions::default(),
    )
    .unwrap();
    read_host(&g, inst.output)
        .unwrap()
        .iter()
        .map(|f| f.to_bits())
        .collect()
}

#[test]
fn every_ladder_rung_is_bit_identical() {
    for job in &one_of_each_shape() {
        let reference = clean_bits(job, ExecModel::PipelinedBuffer);
        for rung in [ExecModel::Pipelined, ExecModel::Naive] {
            assert_eq!(
                clean_bits(job, rung),
                reference,
                "job {} under {rung:?} diverged from PipelinedBuffer",
                job.id
            );
        }
    }
}

/// A mid-job switch between the two pipelined rungs is bit-clean:
/// chunk-granular slices are model-independent.
#[test]
fn pipelined_rung_switch_mid_job_is_bit_identical() {
    for job in &one_of_each_shape() {
        let reference = clean_bits(job, ExecModel::PipelinedBuffer);
        let mut g = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();
        let inst = job.shape.setup(&mut g, job.id).unwrap();
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
        let got: Vec<u32> = read_host(&g, inst.output)
            .unwrap()
            .iter()
            .map(|f| f.to_bits())
            .collect();
        assert_eq!(got, reference, "job {} diverged after a rung switch", job.id);
    }
}

/// Resuming a partially-run job under the naive model must not write
/// back whole arrays (that would clobber earlier slices' output): the
/// naive slices move only their windows and the job stays bit-clean.
#[test]
fn naive_resumes_a_partially_run_job_bit_identically() {
    for job in &one_of_each_shape() {
        let mut g = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();
        let inst = job.shape.setup(&mut g, job.id).unwrap();
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
        let got: Vec<u32> = read_host(&g, inst.output)
            .unwrap()
            .iter()
            .map(|f| f.to_bits())
            .collect();
        assert_eq!(
            got,
            clean_bits(job, ExecModel::Naive),
            "job {} diverged",
            job.id
        );
    }
}
