//! Parboil-style 7-point stencil: one Jacobi sweep of the 3-D heat
//! equation (the paper's Figure 2 example and §V-C benchmark).
//!
//! The grid is `nz` planes of `ny × nx` points, split along `z`. Input
//! `A0` maps with window `[k-1:3]`, output `Anext` with `[k:1]` — the
//! region spec is built by parsing the *paper's own directive syntax*
//! through `pipeline-directive`.

use gpsim::{Gpu, HostBufId, KernelCost, KernelLaunch};
use pipeline_directive::parse_directive;
use pipeline_rt::{ChunkCtx, Region, RtError, RtResult};

use crate::util::fill_random;

/// One z-plane of the 7-point sweep, scalar-indexed: the pre-blocking
/// kernel body, kept as the bit-exact reference the blocked body is
/// tested against.
#[allow(clippy::too_many_arguments)]
pub fn stencil_plane_scalar(
    out: &mut [f32],
    below: &[f32],
    mid: &[f32],
    above: &[f32],
    nx: usize,
    ny: usize,
    c0: f32,
    c1: f32,
) {
    for j in 1..ny - 1 {
        for i in 1..nx - 1 {
            let c = j * nx + i;
            out[c] =
                (above[c] + below[c] + mid[c + nx] + mid[c - nx] + mid[c + 1] + mid[c - 1]) * c1
                    - mid[c] * c0;
        }
    }
}

/// One z-plane of the 7-point sweep over row slices: every tap stream is
/// a fixed-length sub-slice, so the inner loop carries no bounds checks
/// and autovectorizes. The tap addition order is identical to
/// [`stencil_plane_scalar`] — results are bit-exact.
#[allow(clippy::too_many_arguments)]
pub fn stencil_plane(
    out: &mut [f32],
    below: &[f32],
    mid: &[f32],
    above: &[f32],
    nx: usize,
    ny: usize,
    c0: f32,
    c1: f32,
) {
    let w = nx - 2;
    for j in 1..ny - 1 {
        let r = j * nx;
        let o = &mut out[r + 1..r + 1 + w];
        let up = &above[r + 1..r + 1 + w];
        let dn = &below[r + 1..r + 1 + w];
        let north = &mid[r + nx + 1..r + nx + 1 + w];
        let south = &mid[r - nx + 1..r - nx + 1 + w];
        let east = &mid[r + 2..r + 2 + w];
        let west = &mid[r..r + w];
        let center = &mid[r + 1..r + 1 + w];
        for i in 0..w {
            o[i] = (up[i] + dn[i] + north[i] + south[i] + east[i] + west[i]) * c1
                - center[i] * c0;
        }
    }
}

/// Stencil problem configuration.
#[derive(Debug, Clone, Copy)]
pub struct StencilConfig {
    /// Fastest-varying dimension.
    pub nx: usize,
    /// Middle dimension.
    pub ny: usize,
    /// Split (outermost) dimension.
    pub nz: usize,
    /// Center coefficient.
    pub c0: f32,
    /// Neighbour coefficient.
    pub c1: f32,
    /// Iterations per chunk.
    pub chunk: usize,
    /// GPU streams.
    pub streams: usize,
}

impl StencilConfig {
    /// Parboil default-class shape (512 × 512 × 64), the paper's test
    /// size, with the Figure 2 schedule `static[1,3]`.
    pub fn parboil_default() -> Self {
        StencilConfig {
            nx: 512,
            ny: 512,
            nz: 64,
            c0: 1.0 / 6.0,
            c1: 1.0 / 6.0 / 6.0,
            chunk: 1,
            streams: 3,
        }
    }

    /// Small shape for functional validation.
    pub fn test_small() -> Self {
        StencilConfig {
            nx: 12,
            ny: 10,
            nz: 16,
            c0: 0.5,
            c1: 0.1,
            chunk: 2,
            streams: 3,
        }
    }

    /// Elements per z-plane.
    pub fn plane(&self) -> usize {
        self.nx * self.ny
    }

    /// Total grid elements.
    pub fn total(&self) -> usize {
        self.plane() * self.nz
    }

    /// The directive string for this configuration, in the paper's
    /// Figure 2 syntax.
    pub fn directive(&self) -> String {
        format!(
            "#pragma omp target pipeline(static[{},{}]) \
             pipeline_map(to:A0[k-1:3][0:{}][0:{}]) \
             pipeline_map(from:Anext[k:1][0:{}][0:{}])",
            self.chunk, self.streams, self.ny, self.nx, self.ny, self.nx
        )
    }

    /// Allocate and initialize host arrays, parse the directive, and bind
    /// the region (loop `k in 1..nz-1`).
    pub fn setup(&self, gpu: &mut Gpu) -> RtResult<StencilInstance> {
        let inst = self.bind(gpu)?;
        self.fill(gpu, &inst)?;
        Ok(inst)
    }

    /// Fill the input `A0` of a bound instance from its canonical seed.
    pub fn fill(&self, gpu: &Gpu, inst: &StencilInstance) -> RtResult<()> {
        Ok(fill_random(gpu, inst.a0, 0x57E7C11)?)
    }

    /// Allocate zeroed host arrays and bind the region, without filling
    /// the inputs: enough for a cost-model probe, since costs depend on
    /// shapes and never on data. [`setup`](Self::setup) is this plus
    /// [`fill`](Self::fill).
    pub fn bind(&self, gpu: &mut Gpu) -> RtResult<StencilInstance> {
        let a0 = gpu.alloc_host(self.total(), true)?;
        let anext = gpu.alloc_host(self.total(), true)?;
        let parsed = parse_directive(&self.directive())
            .map_err(|e| RtError::Spec(format!("stencil directive: {e}")))?;
        let nz = self.nz;
        let spec = parsed
            .to_region_spec(|_| Some(nz))
            .map_err(|e| RtError::Spec(format!("stencil binding: {e}")))?;
        let region = Region::new(spec, 1, (self.nz - 1) as i64, vec![a0, anext]);
        Ok(StencilInstance {
            config: *self,
            region,
            a0,
            anext,
        })
    }

    /// Kernel cost per z-plane: 8 flops/point and ~20 streamed bytes per
    /// point (read + write + imperfect cache reuse across the 7 taps —
    /// calibrated against the Parboil kernel's memory-bound behaviour).
    fn plane_cost(&self) -> KernelCost {
        let pts = self.plane() as u64;
        KernelCost {
            flops: 8 * pts,
            bytes: 24 * pts,
        }
    }

    /// The chunk-kernel builder shared by all execution models.
    pub fn builder(&self) -> impl Fn(&ChunkCtx) -> KernelLaunch + 'static {
        let cfg = *self;
        move |ctx: &ChunkCtx| {
            let (k0, k1) = (ctx.k0, ctx.k1);
            let (vin, vout) = (ctx.view(0), ctx.view(1));
            let per_plane = cfg.plane_cost();
            let planes = (k1 - k0) as u64;
            KernelLaunch::new(
                "stencil7",
                KernelCost {
                    flops: per_plane.flops * planes,
                    bytes: per_plane.bytes * planes,
                },
                move |kc| {
                    let (nx, ny) = (cfg.nx, cfg.ny);
                    let plane = cfg.plane();
                    // One borrow per mapped array for the whole chunk;
                    // ring slots resolve through the views per plane.
                    let vi = kc.read_view(vin.base())?;
                    let mut vo = kc.write_view(vout.base())?;
                    for k in k0..k1 {
                        let below = vi.slice(vin.slice_ptr(k - 1), plane)?;
                        let mid = vi.slice(vin.slice_ptr(k), plane)?;
                        let above = vi.slice(vin.slice_ptr(k + 1), plane)?;
                        let out = vo.slice_mut(vout.slice_ptr(k), plane)?;
                        stencil_plane(out, below, mid, above, nx, ny, cfg.c0, cfg.c1);
                    }
                    Ok(())
                },
            )
        }
    }

    /// Sequential CPU reference (identical arithmetic order → exact
    /// equality with the simulated device result).
    pub fn cpu_reference(&self, a0: &[f32]) -> Vec<f32> {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let plane = self.plane();
        let mut out = vec![0.0f32; self.total()];
        for k in 1..nz - 1 {
            stencil_plane_scalar(
                &mut out[k * plane..(k + 1) * plane],
                &a0[(k - 1) * plane..k * plane],
                &a0[k * plane..(k + 1) * plane],
                &a0[(k + 1) * plane..(k + 2) * plane],
                nx,
                ny,
                self.c0,
                self.c1,
            );
        }
        out
    }
}

/// A bound stencil problem ready to run.
pub struct StencilInstance {
    /// The configuration that produced this instance.
    pub config: StencilConfig,
    /// The bound region (loop `k in 1..nz-1`).
    pub region: Region,
    /// Input grid host buffer.
    pub a0: HostBufId,
    /// Output grid host buffer.
    pub anext: HostBufId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{assert_exact, read_host};
    use gpsim::{DeviceProfile, ExecMode};
    use pipeline_rt::{run_model, ExecModel, RunOptions};

    #[test]
    fn all_models_match_cpu_reference() {
        let cfg = StencilConfig::test_small();
        let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();
        gpu.set_race_check(true);
        let inst = cfg.setup(&mut gpu).unwrap();
        let a0 = read_host(&gpu, inst.a0).unwrap();
        let expect = cfg.cpu_reference(&a0);
        let builder = cfg.builder();

        run_model(&mut gpu, &inst.region, &builder, ExecModel::Naive, &RunOptions::default()).unwrap();
        assert_exact(&read_host(&gpu, inst.anext).unwrap(), &expect, "naive");

        gpu.host_fill(inst.anext, |_| 0.0).unwrap();
        run_model(&mut gpu, &inst.region, &builder, ExecModel::Pipelined, &RunOptions::default()).unwrap();
        assert_exact(&read_host(&gpu, inst.anext).unwrap(), &expect, "pipelined");

        gpu.host_fill(inst.anext, |_| 0.0).unwrap();
        run_model(&mut gpu, &inst.region, &builder, ExecModel::PipelinedBuffer, &RunOptions::default()).unwrap();
        assert_exact(&read_host(&gpu, inst.anext).unwrap(), &expect, "buffer");
    }

    #[test]
    fn directive_matches_figure2_shape() {
        let cfg = StencilConfig::parboil_default();
        let d = cfg.directive();
        assert!(d.contains("pipeline(static[1,3])"));
        assert!(d.contains("A0[k-1:3]"));
        assert!(d.contains("Anext[k:1]"));
    }

    #[test]
    fn buffer_model_reduces_stencil_memory() {
        let cfg = StencilConfig::test_small();
        let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();
        let inst = cfg.setup(&mut gpu).unwrap();
        let builder = cfg.builder();
        let naive = run_model(&mut gpu, &inst.region, &builder, ExecModel::Naive, &RunOptions::default()).unwrap();
        let buf = run_model(&mut gpu, &inst.region, &builder, ExecModel::PipelinedBuffer, &RunOptions::default()).unwrap();
        assert!(buf.array_bytes < naive.array_bytes / 2);
    }
}
