//! Preemptible execution: run a region in caller-sized slices that can
//! be suspended and resumed — on the same device or another one sharing
//! the host pool — with results bit-identical to an uninterrupted run.
//!
//! This is the core primitive behind the multi-tenant job server
//! (`pipeline-serve`): a scheduler gives a job a time slice, runs a
//! bounded iteration range through the same degradation-ladder path as
//! [`run_model`](crate::run_model), and requeues the rest. Correctness
//! rests on two properties the runtime already enforces elsewhere:
//!
//! * Output maps whose windows stay within their stride write disjoint
//!   host slices per iteration sub-range (the same rule that makes
//!   multi-device partitioning deterministic — see
//!   [`run_model_multi`](crate::run_model_multi)), so executing the
//!   sub-ranges in sequence is indistinguishable from one run.
//! * The [`ToFromSnapshot`] checkpoint from the failover path restores a
//!   failed slice's `ToFrom` windows to their pre-run contents, so a
//!   slice that dies mid-flight can be re-dispatched cleanly elsewhere.

use gpsim::Gpu;

use crate::error::{RtError, RtResult};
use crate::exec::{KernelBuilder, Region};
use crate::multi::validate_sliceable;
use crate::recovery::ToFromSnapshot;
use crate::report::{ExecModel, RunReport};
use crate::run::{run_ladder, RunOptions};

/// A region execution that can be carried out in increments.
///
/// Create one with [`ResumableRun::new`], then call
/// [`run_slice`](ResumableRun::run_slice) until it reports completion.
/// Between slices the run holds no device state at all — everything
/// lives in the host arrays — so consecutive slices may run on
/// different devices, as long as they share the host pool the region's
/// arrays were allocated from.
pub struct ResumableRun {
    region: Region,
    cursor: i64,
    completed: Vec<(i64, i64)>,
    snapshot: ToFromSnapshot,
    report: Option<RunReport>,
    slices: usize,
    failed_slices: usize,
}

impl ResumableRun {
    /// Prepare a region for sliced execution.
    ///
    /// Rejects regions whose output maps write overlapping host slices
    /// across iteration sub-ranges (the result would then depend on the
    /// slice schedule), and checkpoints the `ToFrom` host windows so a
    /// failed slice can be rolled back.
    pub fn new(gpu: &Gpu, region: &Region) -> RtResult<ResumableRun> {
        validate_sliceable(&region.spec)?;
        let snapshot = ToFromSnapshot::take(gpu, region)?;
        Ok(ResumableRun {
            region: region.clone(),
            cursor: region.lo,
            completed: Vec::new(),
            snapshot,
            report: None,
            slices: 0,
            failed_slices: 0,
        })
    }

    /// Run the next at-most-`max_iters` iterations on `gpu`.
    ///
    /// Returns `Ok(Some(report))` for the slice just executed, or
    /// `Ok(None)` when the region was already finished. On error the
    /// slice's `ToFrom` windows are restored from the checkpoint before
    /// the error propagates, so the job can be retried (here or on
    /// another device) without seeing half-written state.
    ///
    /// [`ExecModel::Auto`] is resolved to
    /// [`ExecModel::PipelinedBuffer`]: per-slice autotuning would let
    /// the slice schedule influence chunking and defeat bit-identity
    /// with the uninterrupted run.
    ///
    /// [`ExecModel::Naive`] moves whole arrays only for a slice covering
    /// the entire region; a partial slice (or one resuming progress made
    /// under another model) moves just its windows, since whole-array
    /// write-back would overwrite host slices earlier slices computed.
    pub fn run_slice(
        &mut self,
        gpu: &mut Gpu,
        builder: &KernelBuilder<'_>,
        model: ExecModel,
        opts: &RunOptions,
        max_iters: i64,
    ) -> RtResult<Option<RunReport>> {
        if self.is_done() {
            return Ok(None);
        }
        if max_iters <= 0 {
            return Err(RtError::Spec("slice must cover at least one iteration".into()));
        }
        let model = match model {
            ExecModel::Auto => ExecModel::PipelinedBuffer,
            m => m,
        };
        let k0 = self.cursor;
        let k1 = k0.saturating_add(max_iters).min(self.region.hi);
        let sub_range = k0 > self.region.lo || k1 < self.region.hi;
        let sub = Region::new(self.region.spec.clone(), k0, k1, self.region.arrays.clone());
        match run_ladder(gpu, &sub, builder, model, opts, sub_range) {
            Ok(report) => {
                self.cursor = k1;
                self.completed.push((k0, k1));
                self.slices += 1;
                match &mut self.report {
                    Some(agg) => agg.merge_slice(&report),
                    None => self.report = Some(report.clone()),
                }
                Ok(Some(report))
            }
            Err(e) => {
                self.failed_slices += 1;
                self.snapshot.restore_window(gpu, &self.region, k0, k1)?;
                Err(e)
            }
        }
    }

    /// True once every iteration of the region has run.
    pub fn is_done(&self) -> bool {
        self.cursor >= self.region.hi
    }

    /// First iteration the next slice would execute.
    pub fn cursor(&self) -> i64 {
        self.cursor
    }

    /// Iterations still to run.
    pub fn remaining(&self) -> i64 {
        self.region.hi - self.cursor
    }

    /// Slices executed so far.
    pub fn slices(&self) -> usize {
        self.slices
    }

    /// Slices that errored out and were rolled back (device faults,
    /// losses, hang escalations). The cursor never advances past a
    /// failed slice, so these are re-dispatchable — the job server uses
    /// this count for its failover accounting.
    pub fn failed_slices(&self) -> usize {
        self.failed_slices
    }

    /// Iteration ranges completed so far, in execution order. They are
    /// contiguous and tile `[region.lo, cursor)` exactly.
    pub fn completed(&self) -> &[(i64, i64)] {
        &self.completed
    }

    /// Consume the run and produce the job-level report.
    ///
    /// Errors if the region is not fully executed yet — a partial
    /// report would silently undercount the job.
    pub fn finish(self) -> RtResult<JobReport> {
        if !self.is_done() {
            return Err(RtError::Spec(format!(
                "job unfinished: {} of {} iterations remain",
                self.remaining(),
                self.region.hi - self.region.lo,
            )));
        }
        Ok(JobReport {
            report: self.report.expect("done implies at least one slice"),
            slices: self.slices,
            completed: self.completed,
        })
    }
}

/// Aggregate accounting of one job executed through [`ResumableRun`]:
/// the per-slice [`RunReport`]s stitched together the same way the
/// multi-device supervisor stitches per-slice device reports.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Merged report: times and byte counts summed over slices, memory
    /// footprints maxed, stage histograms and recovery accounting
    /// merged.
    pub report: RunReport,
    /// Number of slices the job ran in (1 = never preempted).
    pub slices: usize,
    /// The slice ranges in execution order; they tile the region
    /// exactly.
    pub completed: Vec<(i64, i64)>,
}

impl JobReport {
    /// Preemption count: slice boundaries beyond the first slice.
    pub fn preemptions(&self) -> usize {
        self.slices.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Affine, MapDir, MapSpec, RegionSpec, Schedule, SplitSpec};
    use gpsim::{DeviceProfile, ExecMode, KernelCost, KernelLaunch};

    fn window_region(gpu: &mut Gpu, nz: usize, slice: usize) -> (Region, gpsim::HostBufId) {
        let input = gpu.alloc_host(nz * slice, true).unwrap();
        let output = gpu.alloc_host(nz * slice, true).unwrap();
        gpu.host_fill(input, |i| (i % 97) as f32).unwrap();
        gpu.host_fill(output, |_| 0.0).unwrap();
        let spec = RegionSpec::new(Schedule::static_(2, 2))
            .with_map(MapSpec {
                name: "in".into(),
                dir: MapDir::To,
                split: SplitSpec::OneD {
                    offset: Affine::shifted(-1),
                    window: 3,
                    extent: nz,
                    slice_elems: slice,
                },
            })
            .with_map(MapSpec {
                name: "out".into(),
                dir: MapDir::From,
                split: SplitSpec::OneD {
                    offset: Affine::IDENTITY,
                    window: 1,
                    extent: nz,
                    slice_elems: slice,
                },
            });
        let region = Region::new(spec, 1, (nz - 1) as i64, vec![input, output]);
        (region, output)
    }

    fn sum3(slice: usize) -> impl Fn(&crate::view::ChunkCtx) -> KernelLaunch + 'static {
        move |ctx: &crate::view::ChunkCtx| {
            let (k0, k1) = (ctx.k0, ctx.k1);
            let (vin, vout) = (ctx.view(0), ctx.view(1));
            KernelLaunch::new(
                "sum3",
                KernelCost {
                    flops: (k1 - k0) as u64 * slice as u64 * 3,
                    bytes: 0,
                },
                move |kc| {
                    for k in k0..k1 {
                        let up = kc.read(vin.slice_ptr(k - 1), slice)?;
                        let mid = kc.read(vin.slice_ptr(k), slice)?;
                        let dn = kc.read(vin.slice_ptr(k + 1), slice)?;
                        let mut out = kc.write(vout.slice_ptr(k), slice)?;
                        for i in 0..slice {
                            out[i] = up[i] + mid[i] + dn[i];
                        }
                    }
                    Ok(())
                },
            )
        }
    }

    #[test]
    fn sliced_run_matches_uninterrupted() {
        let (nz, slice) = (24usize, 16usize);

        let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();
        let (region, output) = window_region(&mut gpu, nz, slice);
        let builder = sum3(slice);
        let opts = RunOptions::default();
        let whole = crate::run::run_model(
            &mut gpu,
            &region,
            &|c| builder(c),
            ExecModel::PipelinedBuffer,
            &opts,
        )
        .unwrap();
        let mut want = vec![0.0f32; nz * slice];
        gpu.host_read(output, 0, &mut want).unwrap();

        let mut gpu2 = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();
        let (region2, output2) = window_region(&mut gpu2, nz, slice);
        let mut run = ResumableRun::new(&gpu2, &region2).unwrap();
        let mut lens = [3i64, 1, 7, 2].iter().cycle();
        while !run.is_done() {
            let n = *lens.next().unwrap();
            run.run_slice(&mut gpu2, &|c| builder(c), ExecModel::PipelinedBuffer, &opts, n)
                .unwrap()
                .expect("not done yet");
        }
        let mut got = vec![0.0f32; nz * slice];
        gpu2.host_read(output2, 0, &mut got).unwrap();
        assert_eq!(want, got, "sliced run must be bit-identical");
        assert!(whole.chunks >= 1);

        let job = run.finish().unwrap();
        assert!(job.slices >= 4);
        assert_eq!(job.preemptions(), job.slices - 1);
        assert_eq!(job.completed.first().unwrap().0, region2.lo);
        assert_eq!(job.completed.last().unwrap().1, region2.hi);
        for w in job.completed.windows(2) {
            assert_eq!(w[0].1, w[1].0, "slices must tile contiguously");
        }
        assert!(job.report.chunks >= job.slices);
    }

    #[test]
    fn overlapping_output_windows_are_rejected() {
        let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();
        let out = gpu.alloc_host(8 * 4, true).unwrap();
        let spec = RegionSpec::new(Schedule::static_(1, 2)).with_map(MapSpec {
            name: "out".into(),
            dir: MapDir::From,
            split: SplitSpec::OneD {
                offset: Affine::IDENTITY,
                window: 2,
                extent: 8,
                slice_elems: 4,
            },
        });
        let region = Region::new(spec, 0, 6, vec![out]);
        assert!(matches!(
            ResumableRun::new(&gpu, &region),
            Err(RtError::Spec(_))
        ));
    }

    /// Run the canonical region slice by slice, taking `(model, slice
    /// length)` from `plan` in turn (cycled), and return the output.
    fn sliced(nz: usize, slice: usize, plan: &[(ExecModel, i64)]) -> Vec<f32> {
        let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();
        let (region, output) = window_region(&mut gpu, nz, slice);
        let builder = sum3(slice);
        let opts = RunOptions::default();
        let mut run = ResumableRun::new(&gpu, &region).unwrap();
        for &(model, n) in plan.iter().cycle() {
            if run.is_done() {
                break;
            }
            run.run_slice(&mut gpu, &|c| builder(c), model, &opts, n)
                .unwrap()
                .expect("not done yet");
        }
        let mut got = vec![0.0f32; nz * slice];
        gpu.host_read(output, 0, &mut got).unwrap();
        got
    }

    /// Pins the "naive slices clobbering output" bug: a partial Naive
    /// slice that staged and wrote back *whole* arrays would overwrite
    /// host outputs computed by earlier slices with untouched device
    /// memory. Partial Naive slices move only their windows.
    #[test]
    fn naive_slices_match_an_uninterrupted_naive_run() {
        let want = sliced(16, 8, &[(ExecModel::Naive, i64::MAX)]);
        // (a) Naive over partial slices only.
        let got = sliced(16, 8, &[(ExecModel::Naive, 3)]);
        assert_eq!(want, got, "partial naive slices diverged");
        // (b) Naive resuming progress made under the buffered model.
        let got = sliced(
            16,
            8,
            &[
                (ExecModel::PipelinedBuffer, 5),
                (ExecModel::Naive, i64::MAX),
            ],
        );
        assert_eq!(want, got, "naive resume after buffered progress diverged");
    }

    #[test]
    fn finish_before_done_errors() {
        let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();
        let (region, _) = window_region(&mut gpu, 16, 8);
        let builder = sum3(8);
        let mut run = ResumableRun::new(&gpu, &region).unwrap();
        run.run_slice(
            &mut gpu,
            &|c| builder(c),
            ExecModel::PipelinedBuffer,
            &RunOptions::default(),
            3,
        )
        .unwrap();
        assert!(!run.is_done());
        assert!(run.finish().is_err());
    }
}
