//! Polybench-style 3-D convolution (paper §V-B): a 3×3×3 tap applied to
//! a dense volume, split along the outermost dimension with a ±1 halo.
//!
//! Uses the Polybench `conv3d` coefficient pattern: the output at
//! `(i,j,k)` combines the eight "diagonal" taps of the `k−1` and `k+1`
//! planes plus the center column of the `k` plane.

use gpsim::{Gpu, HostBufId, KernelCost, KernelLaunch};
use pipeline_directive::parse_directive;
use pipeline_rt::{ChunkCtx, Region, RtError, RtResult};

use crate::util::fill_random;

/// One k-plane of the 11-tap convolution, scalar-indexed: the
/// pre-blocking kernel body, kept as the bit-exact reference the
/// blocked body is tested against.
pub fn conv3d_plane_scalar(out: &mut [f32], km: &[f32], kmid: &[f32], kp: &[f32], ni: usize, nj: usize) {
    let [c11, c12, c13, c21, c22, c23, c31, c32, c33] = Conv3dConfig::C;
    for j in 1..nj - 1 {
        for i in 1..ni - 1 {
            let at = |p: &[f32], di: i64, dj: i64| {
                p[((j as i64 + dj) as usize) * ni + (i as i64 + di) as usize]
            };
            out[j * ni + i] = c11 * at(km, -1, -1)
                + c13 * at(km, 1, -1)
                + c21 * at(km, -1, 0)
                + c23 * at(km, 1, 0)
                + c31 * at(km, -1, 1)
                + c33 * at(km, 1, 1)
                + c12 * at(kmid, 0, -1)
                + c22 * at(kmid, 0, 0)
                + c32 * at(kmid, 0, 1)
                + c11 * at(kp, -1, -1)
                + c13 * at(kp, 1, -1);
        }
    }
}

/// One k-plane of the 11-tap convolution over row slices: each tap is a
/// fixed-length stream, so the inner loop is bounds-check-free and
/// autovectorizes. Tap addition order matches [`conv3d_plane_scalar`]
/// exactly — results are bit-identical.
pub fn conv3d_plane(out: &mut [f32], km: &[f32], kmid: &[f32], kp: &[f32], ni: usize, nj: usize) {
    let [c11, c12, c13, c21, c22, c23, c31, c32, c33] = Conv3dConfig::C;
    let w = ni - 2;
    for j in 1..nj - 1 {
        let (jm, j0, jp) = ((j - 1) * ni, j * ni, (j + 1) * ni);
        let o = &mut out[j0 + 1..j0 + 1 + w];
        let (km_nw, km_ne) = (&km[jm..jm + w], &km[jm + 2..jm + 2 + w]);
        let (km_w, km_e) = (&km[j0..j0 + w], &km[j0 + 2..j0 + 2 + w]);
        let (km_sw, km_se) = (&km[jp..jp + w], &km[jp + 2..jp + 2 + w]);
        let (mid_n, mid_c, mid_s) = (
            &kmid[jm + 1..jm + 1 + w],
            &kmid[j0 + 1..j0 + 1 + w],
            &kmid[jp + 1..jp + 1 + w],
        );
        let (kp_nw, kp_ne) = (&kp[jm..jm + w], &kp[jm + 2..jm + 2 + w]);
        for x in 0..w {
            o[x] = c11 * km_nw[x]
                + c13 * km_ne[x]
                + c21 * km_w[x]
                + c23 * km_e[x]
                + c31 * km_sw[x]
                + c33 * km_se[x]
                + c12 * mid_n[x]
                + c22 * mid_c[x]
                + c32 * mid_s[x]
                + c11 * kp_nw[x]
                + c13 * kp_ne[x];
        }
    }
}

/// 3-D convolution problem configuration.
#[derive(Debug, Clone, Copy)]
pub struct Conv3dConfig {
    /// Fastest-varying dimension.
    pub ni: usize,
    /// Middle dimension.
    pub nj: usize,
    /// Split (outermost) dimension.
    pub nk: usize,
    /// Iterations per chunk.
    pub chunk: usize,
    /// GPU streams.
    pub streams: usize,
}

impl Conv3dConfig {
    /// Paper-scale shape: the default Polybench test case is "relatively
    /// large" — the Naive/Pipelined versions need ≈3.5 GB of device
    /// memory (Figure 6). 768³ × 4 B × 2 arrays = 3.6 GB.
    pub fn polybench_default() -> Self {
        // Chunk size 1 is the paper's default ("we split the task by the
        // outer loop into small chunks, which means the chunk size is 1",
        // §V-B).
        Conv3dConfig {
            ni: 768,
            nj: 768,
            nk: 768,
            chunk: 1,
            streams: 3,
        }
    }

    /// Small shape for functional validation.
    pub fn test_small() -> Self {
        Conv3dConfig {
            ni: 10,
            nj: 12,
            nk: 14,
            chunk: 3,
            streams: 2,
        }
    }

    /// Elements per k-plane.
    pub fn plane(&self) -> usize {
        self.ni * self.nj
    }

    /// Total volume elements.
    pub fn total(&self) -> usize {
        self.plane() * self.nk
    }

    /// Directive in the paper's clause syntax.
    pub fn directive(&self) -> String {
        format!(
            "pipeline(static[{},{}]) \
             pipeline_map(to:A[k-1:3][0:{}][0:{}]) \
             pipeline_map(from:B[k:1][0:{}][0:{}])",
            self.chunk, self.streams, self.nj, self.ni, self.nj, self.ni
        )
    }

    /// Allocate, initialize and bind the region (loop `k in 1..nk-1`).
    pub fn setup(&self, gpu: &mut Gpu) -> RtResult<Conv3dInstance> {
        let inst = self.bind(gpu)?;
        self.fill(gpu, &inst)?;
        Ok(inst)
    }

    /// Fill the input `A` of a bound instance from its canonical seed.
    pub fn fill(&self, gpu: &Gpu, inst: &Conv3dInstance) -> RtResult<()> {
        Ok(fill_random(gpu, inst.a, 0xC0417)?)
    }

    /// Allocate zeroed host arrays and bind the region, without filling
    /// the inputs: enough for a cost-model probe, since costs depend on
    /// shapes and never on data. [`setup`](Self::setup) is this plus
    /// [`fill`](Self::fill).
    pub fn bind(&self, gpu: &mut Gpu) -> RtResult<Conv3dInstance> {
        let a = gpu.alloc_host(self.total(), true)?;
        let b = gpu.alloc_host(self.total(), true)?;
        let parsed = parse_directive(&self.directive())
            .map_err(|e| RtError::Spec(format!("conv3d directive: {e}")))?;
        let nk = self.nk;
        let spec = parsed
            .to_region_spec(|_| Some(nk))
            .map_err(|e| RtError::Spec(format!("conv3d binding: {e}")))?;
        let region = Region::new(spec, 1, (self.nk - 1) as i64, vec![a, b]);
        Ok(Conv3dInstance {
            config: *self,
            region,
            a,
            b,
        })
    }

    /// Kernel cost per plane: 11 taps → 21 flops/point, streaming ~12
    /// bytes/point.
    fn plane_cost(&self) -> KernelCost {
        let pts = self.plane() as u64;
        KernelCost {
            flops: 21 * pts,
            bytes: 12 * pts,
        }
    }

    /// Polybench conv3d coefficients.
    const C: [f32; 9] = [2.0, -3.0, 4.0, 5.0, 6.0, -7.0, 8.0, -9.0, 10.0];

    /// Chunk-kernel builder shared by all execution models.
    pub fn builder(&self) -> impl Fn(&ChunkCtx) -> KernelLaunch + 'static {
        let cfg = *self;
        move |ctx: &ChunkCtx| {
            let (k0, k1) = (ctx.k0, ctx.k1);
            let (vin, vout) = (ctx.view(0), ctx.view(1));
            let per_plane = cfg.plane_cost();
            let planes = (k1 - k0) as u64;
            KernelLaunch::new(
                "conv3d",
                KernelCost {
                    flops: per_plane.flops * planes,
                    bytes: per_plane.bytes * planes,
                },
                move |kc| {
                    let (ni, nj) = (cfg.ni, cfg.nj);
                    let plane = cfg.plane();
                    // One borrow per mapped array for the whole chunk.
                    let vi = kc.read_view(vin.base())?;
                    let mut vo = kc.write_view(vout.base())?;
                    for k in k0..k1 {
                        let km = vi.slice(vin.slice_ptr(k - 1), plane)?;
                        let kmid = vi.slice(vin.slice_ptr(k), plane)?;
                        let kp = vi.slice(vin.slice_ptr(k + 1), plane)?;
                        let out = vo.slice_mut(vout.slice_ptr(k), plane)?;
                        conv3d_plane(out, km, kmid, kp, ni, nj);
                    }
                    Ok(())
                },
            )
        }
    }

    /// Sequential CPU reference with identical arithmetic order.
    pub fn cpu_reference(&self, a: &[f32]) -> Vec<f32> {
        let (ni, nj, nk) = (self.ni, self.nj, self.nk);
        let plane = self.plane();
        let mut out = vec![0.0f32; self.total()];
        for k in 1..nk - 1 {
            conv3d_plane_scalar(
                &mut out[k * plane..(k + 1) * plane],
                &a[(k - 1) * plane..k * plane],
                &a[k * plane..(k + 1) * plane],
                &a[(k + 1) * plane..(k + 2) * plane],
                ni,
                nj,
            );
        }
        out
    }
}

/// A bound 3-D convolution problem.
pub struct Conv3dInstance {
    /// The configuration that produced this instance.
    pub config: Conv3dConfig,
    /// The bound region (loop `k in 1..nk-1`).
    pub region: Region,
    /// Input volume host buffer.
    pub a: HostBufId,
    /// Output volume host buffer.
    pub b: HostBufId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{assert_exact, read_host};
    use gpsim::{DeviceProfile, ExecMode};
    use pipeline_rt::{run_model, ExecModel, RunOptions};

    #[test]
    fn all_models_match_cpu_reference() {
        let cfg = Conv3dConfig::test_small();
        let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();
        gpu.set_race_check(true);
        let inst = cfg.setup(&mut gpu).unwrap();
        let a = read_host(&gpu, inst.a).unwrap();
        let expect = cfg.cpu_reference(&a);
        let builder = cfg.builder();

        for (name, model) in [
            ("naive", ExecModel::Naive),
            ("pipelined", ExecModel::Pipelined),
            ("buffer", ExecModel::PipelinedBuffer),
        ] {
            gpu.host_fill(inst.b, |_| 0.0).unwrap();
            run_model(&mut gpu, &inst.region, &builder, model, &RunOptions::default()).unwrap();
            assert_exact(&read_host(&gpu, inst.b).unwrap(), &expect, name);
        }
    }

    #[test]
    fn paper_scale_footprint_is_about_3_5_gb() {
        let cfg = Conv3dConfig::polybench_default();
        let bytes = 2 * cfg.total() as u64 * 4;
        assert!((3_400_000_000..3_800_000_000).contains(&bytes), "{bytes}");
    }
}
