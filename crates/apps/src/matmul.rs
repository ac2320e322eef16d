//! Polybench-style matrix multiplication (paper §V-E, Figures 9–10):
//! the case study for **non-contiguous** (2-D strided) transfers.
//!
//! Three versions, as in the paper:
//!
//! * [`MatmulConfig::run_baseline`] — naive GEMM: all three matrices
//!   device-resident, one thread per `C` element, memory-bound (gathers a
//!   row of `A` and a column of `B` from global memory per element).
//! * [`MatmulConfig::run_block_shared`] — same data movement, but a
//!   tiled/shared-memory kernel ≈3× faster ("using shared memory
//!   significantly reduces global memory access").
//! * [`MatmulConfig::run_pipeline_buffer`] — the paper's approach:
//!   partition the *reduction* dimension into blocks; task `l` needs a
//!   **column block of `A`** (non-contiguous, strided copy) and a **row
//!   block of `B`** (contiguous), accumulating into a device-resident
//!   `C` (addressed via `deviceptr`, outside the pipeline maps). The ring
//!   buffers hold only a few blocks, cutting device memory ≈66 % and
//!   letting problem sizes that OOM the other two versions run.

use gpsim::{DevPtr, Gpu, HostBufId, KernelCost, KernelLaunch};
use pipeline_rt::{
    run_model, Affine, ChunkCtx, ExecModel, MapDir, MapSpec, Region, RegionSpec, RtResult,
    RunOptions, Schedule, SplitSpec,
};
use pipeline_rt::RunReport;

use crate::util::fill_random;

/// Column width of the j-blocked inner loops: one block of a `C` row and
/// a `B` row stays L1-resident across the whole k pass.
const GEMM_JB: usize = 512;

/// Scalar i-j-k GEMM accumulating into `c` (which must be zeroed): one
/// register accumulator per output element. This is the pre-blocking
/// kernel body, kept as the bit-exact reference the blocked body is
/// tested against.
pub fn gemm_scalar(c: &mut [f32], a: &[f32], b: &[f32], n: usize) {
    for i in 0..n {
        for j in 0..n {
            let mut acc = c[i * n + j];
            for k in 0..n {
                acc += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

/// Cache-blocked i-k-j rank-`bc` update: `C += A·B` where `a` holds `n`
/// rows of `bc` elements at stride `a_stride` and `b` is `bc × n`
/// contiguous.
///
/// For a fixed output element the products are added in ascending `k`
/// starting from the incoming value — the identical f32 addition sequence
/// to [`gemm_scalar`]'s register accumulator — so a full multiply built
/// from ascending blocks over a zeroed `C` is bit-identical to the scalar
/// reference while the j-contiguous inner loop autovectorizes.
pub fn gemm_rank_update(
    c: &mut [f32],
    n: usize,
    a: &[f32],
    a_stride: usize,
    b: &[f32],
    bc: usize,
) {
    gemm_rank_update_jb(c, n, a, a_stride, b, bc, GEMM_JB)
}

/// [`gemm_rank_update`] with an explicit j-block width, so tests can
/// cross the block seam at small problem sizes.
#[doc(hidden)]
pub fn gemm_rank_update_jb(
    c: &mut [f32],
    n: usize,
    a: &[f32],
    a_stride: usize,
    b: &[f32],
    bc: usize,
    jb: usize,
) {
    for i in 0..n {
        let a_row = &a[i * a_stride..i * a_stride + bc];
        let c_row = &mut c[i * n..(i + 1) * n];
        let mut j0 = 0;
        while j0 < n {
            let jw = (n - j0).min(jb);
            let c_blk = &mut c_row[j0..j0 + jw];
            for (kk, &av) in a_row.iter().enumerate() {
                let b_blk = &b[kk * n + j0..kk * n + j0 + jw];
                for (cv, &bv) in c_blk.iter_mut().zip(b_blk) {
                    *cv += av * bv;
                }
            }
            j0 += jw;
        }
    }
}

/// Matrix multiplication configuration (`C = A × B`, all `n × n`).
#[derive(Debug, Clone, Copy)]
pub struct MatmulConfig {
    /// Matrix dimension.
    pub n: usize,
    /// Reduction-dimension block size (columns of `A` / rows of `B` per
    /// task). Must divide `n`.
    pub bc: usize,
    /// Tasks per chunk.
    pub chunk: usize,
    /// GPU streams.
    pub streams: usize,
}

/// Calibration of the kernel cost models against the K40m profile:
/// the naive one-thread-per-element kernel streams ≈1 operand byte per
/// 5 flops from global memory (≈3× slower than the compute roofline),
/// while the tiled kernel reuses tiles enough to be compute-bound.
const BASELINE_BYTES_PER_FLOP_INV: u64 = 5;
const TILED_BYTES_PER_FLOP_INV: u64 = 50;

impl MatmulConfig {
    /// Configuration with the schedule used in the paper's GEMM study.
    /// The reduction block is kept small relative to `n` so the ring
    /// buffers stay negligible next to the resident `C` (the source of
    /// the paper's ≈66 % memory saving).
    pub fn with_n(n: usize) -> Self {
        // ≥256 columns so each strided row is ≥1 KB (useful 2-D DMA
        // size), but ≤n/64 at scale so the rings stay negligible.
        let bc = (n / 64).max(256).min(n);
        MatmulConfig {
            n,
            bc,
            chunk: 1,
            streams: 4,
        }
    }

    /// Small shape for functional validation.
    pub fn test_small() -> Self {
        MatmulConfig {
            n: 24,
            bc: 4,
            chunk: 1,
            streams: 3,
        }
    }

    /// Elements per matrix.
    pub fn elems(&self) -> usize {
        self.n * self.n
    }

    /// Number of reduction blocks.
    pub fn nblocks(&self) -> usize {
        assert_eq!(self.n % self.bc, 0, "bc must divide n");
        self.n / self.bc
    }

    /// Total flops of the full GEMM.
    fn total_flops(&self) -> u64 {
        2 * (self.n as u64).pow(3)
    }

    /// Allocate and fill host matrices; returns `(a, b, c)`.
    pub fn host_matrices(&self, gpu: &mut Gpu) -> RtResult<(HostBufId, HostBufId, HostBufId)> {
        let a = gpu.alloc_host(self.elems(), true)?;
        let b = gpu.alloc_host(self.elems(), true)?;
        let c = gpu.alloc_host(self.elems(), true)?;
        fill_random(gpu, a, 0xA)?;
        fill_random(gpu, b, 0xB)?;
        Ok((a, b, c))
    }

    /// Sequential CPU reference (same arithmetic order as the baseline
    /// kernel: exact equality expected).
    pub fn cpu_reference(&self, a: &[f32], b: &[f32]) -> Vec<f32> {
        let n = self.n;
        let mut c = vec![0.0f32; n * n];
        gemm_scalar(&mut c, a, b, n);
        c
    }

    /// A full-matrix map (whole array needed by the single naive task).
    fn full_map(&self, name: &str, dir: MapDir) -> MapSpec {
        MapSpec {
            name: name.into(),
            dir,
            split: SplitSpec::OneD {
                offset: Affine { scale: 0, bias: 0 },
                window: self.n,
                extent: self.n,
                slice_elems: self.n,
            },
        }
    }

    fn naive_region(&self, a: HostBufId, b: HostBufId, c: HostBufId) -> Region {
        let spec = RegionSpec::new(Schedule::static_(1, 1))
            .with_map(self.full_map("A", MapDir::To))
            .with_map(self.full_map("B", MapDir::To))
            .with_map(self.full_map("C", MapDir::From));
        Region::new(spec, 0, 1, vec![a, b, c])
    }

    fn gemm_kernel(
        &self,
        name: &'static str,
        bytes_per_flop_inv: u64,
    ) -> impl Fn(&ChunkCtx) -> KernelLaunch + 'static {
        let cfg = *self;
        let flops = cfg.total_flops();
        move |ctx: &ChunkCtx| {
            let (va, vb, vc) = (ctx.view(0), ctx.view(1), ctx.view(2));
            let n = cfg.n;
            KernelLaunch::new(
                name,
                KernelCost {
                    flops,
                    bytes: flops / bytes_per_flop_inv,
                },
                move |kc| {
                    // Full GEMM over direct views (rows are slices):
                    // borrow each matrix once, then run the blocked core
                    // as a single rank-n update over zeroed C.
                    let mut cw = kc.write_view(vc.slice_ptr(0))?;
                    let ar = kc.read_view(va.slice_ptr(0))?;
                    let br = kc.read_view(vb.slice_ptr(0))?;
                    let c = cw.slice_mut(vc.slice_ptr(0), n * n)?;
                    let a = ar.slice(va.slice_ptr(0), n * n)?;
                    let b = br.slice(vb.slice_ptr(0), n * n)?;
                    c.fill(0.0);
                    gemm_rank_update(c, n, a, n, b, n);
                    Ok(())
                },
            )
        }
    }

    /// Run the naive **baseline** version (one thread per `C` element).
    pub fn run_baseline(
        &self,
        gpu: &mut Gpu,
        a: HostBufId,
        b: HostBufId,
        c: HostBufId,
    ) -> RtResult<RunReport> {
        let region = self.naive_region(a, b, c);
        run_model(
            gpu,
            &region,
            &self.gemm_kernel("gemm_baseline", BASELINE_BYTES_PER_FLOP_INV),
            ExecModel::Naive,
            &RunOptions::default(),
        )
    }

    /// Run the **block-shared** version: tiled kernel, naive data
    /// movement.
    pub fn run_block_shared(
        &self,
        gpu: &mut Gpu,
        a: HostBufId,
        b: HostBufId,
        c: HostBufId,
    ) -> RtResult<RunReport> {
        let region = self.naive_region(a, b, c);
        run_model(
            gpu,
            &region,
            &self.gemm_kernel("gemm_block_shared", TILED_BYTES_PER_FLOP_INV),
            ExecModel::Naive,
            &RunOptions::default(),
        )
    }

    /// Region for the pipeline-buffer version: loop `l in 0..nblocks`
    /// over reduction blocks; `A` by column blocks (strided copies), `B`
    /// by row blocks (contiguous). `C` lives outside the maps.
    pub fn pipeline_region(&self, a: HostBufId, b: HostBufId) -> Region {
        let n = self.n;
        let bc = self.bc;
        let spec = RegionSpec::new(Schedule::static_(self.chunk, self.streams))
            .with_map(MapSpec {
                name: "A".into(),
                dir: MapDir::To,
                split: SplitSpec::ColBlocks {
                    offset: Affine { scale: 1, bias: 0 },
                    window: 1,
                    extent: self.nblocks(),
                    rows: n,
                    block_cols: bc,
                    row_stride: n,
                },
            })
            .with_map(MapSpec {
                name: "B".into(),
                dir: MapDir::To,
                split: SplitSpec::OneD {
                    offset: Affine {
                        scale: bc as i64,
                        bias: 0,
                    },
                    window: bc,
                    extent: n,
                    slice_elems: n,
                },
            });
        Region::new(spec, 0, self.nblocks() as i64, vec![a, b])
    }

    /// Run the **pipeline-buffer** version. `C` is pre-allocated on the
    /// device (zero-initialized), tasks accumulate rank-`bc` updates into
    /// it, and it is copied back once at the end.
    pub fn run_pipeline_buffer(
        &self,
        gpu: &mut Gpu,
        a: HostBufId,
        b: HostBufId,
        c: HostBufId,
    ) -> RtResult<RunReport> {
        let n = self.n;
        let bc = self.bc;
        let t0 = gpu.now();
        let c_dev: DevPtr = gpu.alloc(self.elems())?;
        // Zero the accumulator explicitly — a real cudaMalloc does not
        // zero memory, and the rank updates accumulate into C.
        gpu.memset_async(gpu.default_stream(), c_dev, self.elems(), 0.0)?;
        gpu.stream_synchronize(gpu.default_stream())?;
        let region = self.pipeline_region(a, b);

        let per_task_flops = 2 * (n as u64) * (n as u64) * bc as u64;
        let builder = move |ctx: &ChunkCtx| {
            let (l0, l1) = (ctx.k0, ctx.k1);
            let (va, vb) = (ctx.view(0), ctx.view(1));
            let flops = per_task_flops * (l1 - l0) as u64;
            KernelLaunch::new(
                "gemm_rank_update",
                KernelCost {
                    flops,
                    bytes: flops / TILED_BYTES_PER_FLOP_INV,
                },
                move |kc| {
                    // One borrow per array for the whole chunk; the A
                    // column block is addressed through its view with a
                    // stride instead of one `read` per matrix row.
                    let mut cw = kc.write_view(c_dev)?;
                    let ar = kc.read_view(va.base())?;
                    let br = kc.read_view(vb.base())?;
                    let c = cw.slice_mut(c_dev, n * n)?;
                    for l in l0..l1 {
                        let (a_ptr, a_stride) = va.block_ptr(l);
                        let a = ar.slice(a_ptr, (n - 1) * a_stride + bc)?;
                        // B rows l·bc .. (l+1)·bc are contiguous slices.
                        let b_rows = br.slice(vb.slice_ptr(l * bc as i64), bc * n)?;
                        gemm_rank_update(c, n, a, a_stride, b_rows, bc);
                    }
                    Ok(())
                },
            )
            .writing(c_dev, n * n)
        };

        let mut report = match run_model(
            gpu,
            &region,
            &builder,
            ExecModel::PipelinedBuffer,
            &RunOptions::default(),
        ) {
            Ok(r) => r,
            Err(e) => {
                let _ = gpu.free(c_dev);
                return Err(e);
            }
        };
        // Drain C (outside the pipeline maps, like the paper's deviceptr
        // buffer) and fold the copy into the measured region.
        gpu.memcpy_d2h(c_dev, self.elems(), c, 0)?;
        report.total = gpu.now() - t0;
        report.d2h = gpu.counters().d2h_time;
        report.d2h_bytes = gpu.counters().d2h_bytes;
        // The region snapshot already includes the C allocation (it was
        // live before the region ran); only the per-array accounting
        // needs the explicit addition.
        report.array_bytes += self.elems() as u64 * 4;
        gpu.free(c_dev)?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{assert_exact, max_rel_error, read_host};
    use gpsim::{DeviceProfile, ExecMode};

    fn gpu() -> Gpu {
        Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap()
    }

    #[test]
    fn baseline_and_block_shared_match_cpu_exactly() {
        let cfg = MatmulConfig::test_small();
        let mut gpu = gpu();
        let (a, b, c) = cfg.host_matrices(&mut gpu).unwrap();
        let expect = cfg.cpu_reference(&read_host(&gpu, a).unwrap(), &read_host(&gpu, b).unwrap());

        cfg.run_baseline(&mut gpu, a, b, c).unwrap();
        assert_exact(&read_host(&gpu, c).unwrap(), &expect, "baseline");

        gpu.host_fill(c, |_| 0.0).unwrap();
        cfg.run_block_shared(&mut gpu, a, b, c).unwrap();
        assert_exact(&read_host(&gpu, c).unwrap(), &expect, "block_shared");
    }

    #[test]
    fn pipeline_buffer_matches_cpu_within_fp_reassociation() {
        let cfg = MatmulConfig::test_small();
        let mut gpu = gpu();
        gpu.set_race_check(true);
        let (a, b, c) = cfg.host_matrices(&mut gpu).unwrap();
        let expect = cfg.cpu_reference(&read_host(&gpu, a).unwrap(), &read_host(&gpu, b).unwrap());
        cfg.run_pipeline_buffer(&mut gpu, a, b, c).unwrap();
        let got = read_host(&gpu, c).unwrap();
        let err = max_rel_error(&got, &expect);
        assert!(err < 1e-4, "relative error {err}");
    }

    #[test]
    fn blocked_gemm_is_bit_identical_to_scalar() {
        // Odd n and a tiny j-block so the blocked core crosses several
        // seams; bc split into uneven ascending rank updates.
        let n = 21;
        let a: Vec<f32> = (0..n * n).map(|i| ((i * 37 + 11) % 97) as f32 * 0.17 - 5.0).collect();
        let b: Vec<f32> = (0..n * n).map(|i| ((i * 53 + 29) % 89) as f32 * 0.23 - 7.0).collect();
        let mut expect = vec![0.0f32; n * n];
        gemm_scalar(&mut expect, &a, &b, n);
        let mut c = vec![0.0f32; n * n];
        for (k0, bc) in [(0usize, 7usize), (7, 7), (14, 7)] {
            let b_rows = &b[k0 * n..(k0 + bc) * n];
            gemm_rank_update_jb(&mut c, n, &a[k0..], n, b_rows, bc, 5);
        }
        assert_eq!(c, expect, "blocked i-k-j GEMM must be bit-exact");
    }

    #[test]
    fn pipeline_buffer_uses_about_one_third_of_memory() {
        // "it reduces memory use nearly 66%" — only C (plus small rings)
        // stays resident instead of all three matrices.
        let cfg = MatmulConfig {
            n: 512,
            bc: 8,
            chunk: 1,
            streams: 4,
        };
        let mut gpu = gpu();
        let (a, b, c) = cfg.host_matrices(&mut gpu).unwrap();
        let base = cfg.run_baseline(&mut gpu, a, b, c).unwrap();
        let buf = cfg.run_pipeline_buffer(&mut gpu, a, b, c).unwrap();
        let ratio = buf.array_bytes as f64 / base.array_bytes as f64;
        assert!(
            (0.30..0.45).contains(&ratio),
            "expected ≈1/3 memory, got ratio {ratio}"
        );
    }

    #[test]
    fn block_shared_is_about_3x_baseline_in_kernel_time() {
        let cfg = MatmulConfig {
            n: 512,
            bc: 32,
            chunk: 1,
            streams: 4,
        };
        let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Timing).unwrap();
        let (a, b, c) = cfg.host_matrices(&mut gpu).unwrap();
        let base = cfg.run_baseline(&mut gpu, a, b, c).unwrap();
        let tiled = cfg.run_block_shared(&mut gpu, a, b, c).unwrap();
        let ratio = base.kernel.as_secs_f64() / tiled.kernel.as_secs_f64();
        assert!((2.5..3.5).contains(&ratio), "kernel ratio {ratio}");
    }
}
