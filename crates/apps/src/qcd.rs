//! Lattice QCD proxy (paper §V-D): a staggered-fermion hopping operator
//! on an `n⁴` lattice.
//!
//! The paper's application is a SciDAC production code characterized by
//! `O(C·n⁴)` data with a "relatively large" constant `C`,
//! high-dimensional indexing, and several parallel regions per
//! transferred slice. This proxy preserves those properties with the
//! standard structure of a HISQ-style staggered solver:
//!
//! * Each site carries **four right-hand-side vectors** (`ψ`, 4 × 3
//!   complex = 24 floats), **thin links** (`U`, 4 × 3×3 complex = 72
//!   floats) and **fat links** (`F`, 72 floats) — `C` = 192 floats/site.
//! * The hopping term, applied with both link fields to every RHS:
//!   `out(x) = Σ_μ [ (U+F)_μ(x)·ψ(x+μ̂) − (U+F)†_μ(x−μ̂)·ψ(x−μ̂) ]`
//!   with periodic boundaries in the three spatial directions and open
//!   boundaries in `t`, the split dimension (window `[t-1:3]`).
//! * The production code makes many passes over each resident slice
//!   (solver iterations); the proxy computes one representative sweep
//!   functionally and charges [`SWEEPS_PER_SLICE`] passes to the cost
//!   model, reproducing the paper's ≈50 % transfer share (Figure 3).

use gpsim::{Gpu, HostBufId, KernelCost, KernelLaunch};
use pipeline_rt::{
    Affine, ChunkCtx, MapDir, MapSpec, Region, RegionSpec, RtResult, Schedule, SplitSpec,
};

use crate::util::fill_random;

/// Right-hand-side vectors per site.
pub const N_RHS: usize = 4;
/// Floats per ψ site (4 RHS × 3 complex components).
pub const PSI_SITE: usize = N_RHS * 6;
/// Floats per link-field site (4 directions × 3×3 complex).
pub const U_SITE: usize = 72;
/// Solver passes charged to the cost model per resident slice.
pub const SWEEPS_PER_SLICE: u64 = 16;

/// Lattice QCD proxy configuration (lattice `n³ × nt`, split along `t`).
#[derive(Debug, Clone, Copy)]
pub struct QcdConfig {
    /// Spatial extent (per dimension).
    pub n: usize,
    /// Temporal extent (the split dimension).
    pub nt: usize,
    /// Time slices per chunk.
    pub chunk: usize,
    /// GPU streams.
    pub streams: usize,
}

impl QcdConfig {
    /// The paper's test sizes: `n = 12` (small), `24` (medium), `36`
    /// (large), with `nt = n`.
    pub fn paper_size(n: usize) -> Self {
        QcdConfig {
            n,
            nt: n,
            chunk: 1,
            streams: 3,
        }
    }

    /// Small shape for functional validation.
    pub fn test_small() -> Self {
        QcdConfig {
            n: 4,
            nt: 8,
            chunk: 2,
            streams: 3,
        }
    }

    /// Spatial sites per time slice.
    pub fn vol3(&self) -> usize {
        self.n * self.n * self.n
    }

    /// ψ floats per time slice.
    pub fn psi_slice(&self) -> usize {
        self.vol3() * PSI_SITE
    }

    /// Link-field floats per time slice (same for `U` and `F`).
    pub fn u_slice(&self) -> usize {
        self.vol3() * U_SITE
    }

    /// Total device bytes of the naive model (ψ, U, F, out fully
    /// resident).
    pub fn naive_bytes(&self) -> u64 {
        ((2 * self.psi_slice() + 2 * self.u_slice()) * self.nt) as u64 * 4
    }

    /// Build the region spec: ψ, U and F as `[t-1:3]` inputs, out as
    /// `[t:1]` output; loop `t in 1..nt-1`.
    pub fn spec(&self) -> RegionSpec {
        let input = |name: &str, slice_elems: usize| MapSpec {
            name: name.into(),
            dir: MapDir::To,
            split: SplitSpec::OneD {
                offset: Affine::shifted(-1),
                window: 3,
                extent: self.nt,
                slice_elems,
            },
        };
        RegionSpec::new(Schedule::static_(self.chunk, self.streams))
            .with_map(input("psi", self.psi_slice()))
            .with_map(input("U", self.u_slice()))
            .with_map(input("F", self.u_slice()))
            .with_map(MapSpec {
                name: "out".into(),
                dir: MapDir::From,
                split: SplitSpec::OneD {
                    offset: Affine::IDENTITY,
                    window: 1,
                    extent: self.nt,
                    slice_elems: self.psi_slice(),
                },
            })
            // The paper observes the QCD kernel's "huge indexing
            // operation" makes the buffered version measurably slower
            // than the hand-coded pipeline (§V-D).
            .with_index_overhead(0.12)
    }

    /// Allocate and initialize host fields, and bind the region.
    pub fn setup(&self, gpu: &mut Gpu) -> RtResult<QcdInstance> {
        let inst = self.bind(gpu)?;
        self.fill(gpu, &inst)?;
        Ok(inst)
    }

    /// Fill ψ, `U` and `F` of a bound instance from their canonical seeds.
    pub fn fill(&self, gpu: &Gpu, inst: &QcdInstance) -> RtResult<()> {
        fill_random(gpu, inst.psi, 0x9C1)?;
        fill_random(gpu, inst.u, 0x9C2)?;
        fill_random(gpu, inst.f, 0x9C3)?;
        Ok(())
    }

    /// Allocate zeroed host fields and bind the region, without filling
    /// the inputs: enough for a cost-model probe, since costs depend on
    /// shapes and never on data. [`setup`](Self::setup) is this plus
    /// [`fill`](Self::fill).
    pub fn bind(&self, gpu: &mut Gpu) -> RtResult<QcdInstance> {
        let psi = gpu.alloc_host(self.psi_slice() * self.nt, true)?;
        let u = gpu.alloc_host(self.u_slice() * self.nt, true)?;
        let f = gpu.alloc_host(self.u_slice() * self.nt, true)?;
        let out = gpu.alloc_host(self.psi_slice() * self.nt, true)?;
        let region = Region::new(self.spec(), 1, (self.nt - 1) as i64, vec![psi, u, f, out]);
        Ok(QcdInstance {
            config: *self,
            region,
            psi,
            u,
            f,
            out,
        })
    }

    /// Cost of one chunk: [`SWEEPS_PER_SLICE`] hopping sweeps per slice.
    /// Per site and sweep: 2 link fields × 8 hops × 4 RHS ≈ 4200 flops,
    /// ≈1600 streamed bytes (memory-bound, like the real operator).
    fn chunk_cost(&self, slices: u64) -> KernelCost {
        let sites = self.vol3() as u64 * slices;
        KernelCost {
            flops: 4200 * sites * SWEEPS_PER_SLICE,
            bytes: 1600 * sites * SWEEPS_PER_SLICE,
        }
    }

    /// Chunk-kernel builder shared by all execution models.
    pub fn builder(&self) -> impl Fn(&ChunkCtx) -> KernelLaunch + 'static {
        let cfg = *self;
        move |ctx: &ChunkCtx| {
            let (t0, t1) = (ctx.k0, ctx.k1);
            let (vpsi, vu, vf, vout) = (ctx.view(0), ctx.view(1), ctx.view(2), ctx.view(3));
            KernelLaunch::new(
                "qcd_hopping",
                cfg.chunk_cost((t1 - t0) as u64),
                move |kc| {
                    let psi_slice = cfg.psi_slice();
                    let u_slice = cfg.u_slice();
                    // One borrow per mapped array for the whole chunk;
                    // the seven per-slice windows resolve through them.
                    let pv = kc.read_view(vpsi.base())?;
                    let uv = kc.read_view(vu.base())?;
                    let fv = kc.read_view(vf.base())?;
                    let mut ov = kc.write_view(vout.base())?;
                    for t in t0..t1 {
                        let slices = HopSlices {
                            psi_m: pv.slice(vpsi.slice_ptr(t - 1), psi_slice)?,
                            psi_0: pv.slice(vpsi.slice_ptr(t), psi_slice)?,
                            psi_p: pv.slice(vpsi.slice_ptr(t + 1), psi_slice)?,
                            u_m: uv.slice(vu.slice_ptr(t - 1), u_slice)?,
                            u_0: uv.slice(vu.slice_ptr(t), u_slice)?,
                            f_m: fv.slice(vf.slice_ptr(t - 1), u_slice)?,
                            f_0: fv.slice(vf.slice_ptr(t), u_slice)?,
                        };
                        let out = ov.slice_mut(vout.slice_ptr(t), psi_slice)?;
                        hopping_sweep(cfg.n, &slices, out);
                    }
                    Ok(())
                },
            )
        }
    }

    /// Sequential CPU reference over the full lattice (identical
    /// arithmetic order → exact equality).
    pub fn cpu_reference(&self, psi: &[f32], u: &[f32], f: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.psi_slice() * self.nt];
        let ps = self.psi_slice();
        let us = self.u_slice();
        for t in 1..self.nt - 1 {
            let slices = HopSlices {
                psi_m: &psi[(t - 1) * ps..t * ps],
                psi_0: &psi[t * ps..(t + 1) * ps],
                psi_p: &psi[(t + 1) * ps..(t + 2) * ps],
                u_m: &u[(t - 1) * us..t * us],
                u_0: &u[t * us..(t + 1) * us],
                f_m: &f[(t - 1) * us..t * us],
                f_0: &f[t * us..(t + 1) * us],
            };
            hopping_sweep_scalar(self.n, &slices, &mut out[t * ps..(t + 1) * ps]);
        }
        out
    }
}

/// The seven input slices of one sweep.
pub struct HopSlices<'a> {
    /// ψ at slice `t-1`.
    pub psi_m: &'a [f32],
    /// ψ at slice `t`.
    pub psi_0: &'a [f32],
    /// ψ at slice `t+1`.
    pub psi_p: &'a [f32],
    /// Thin links at slice `t-1`.
    pub u_m: &'a [f32],
    /// Thin links at slice `t`.
    pub u_0: &'a [f32],
    /// Fat links at slice `t-1`.
    pub f_m: &'a [f32],
    /// Fat links at slice `t`.
    pub f_0: &'a [f32],
}

/// Complex 3-vector accumulator.
#[derive(Clone, Copy, Default)]
struct Vec3 {
    re: [f32; 3],
    im: [f32; 3],
}

#[inline]
fn load_vec(psi: &[f32], site: usize, rhs: usize) -> Vec3 {
    let o = site * PSI_SITE + rhs * 6;
    Vec3 {
        re: [psi[o], psi[o + 2], psi[o + 4]],
        im: [psi[o + 1], psi[o + 3], psi[o + 5]],
    }
}

/// `acc += U(site,mu) · v` (3×3 complex mat-vec).
#[inline]
fn mat_vec_acc(u: &[f32], site: usize, mu: usize, v: &Vec3, acc: &mut Vec3) {
    let base = (site * 4 + mu) * 18;
    for r in 0..3 {
        for c in 0..3 {
            let o = base + (r * 3 + c) * 2;
            let (ur, ui) = (u[o], u[o + 1]);
            acc.re[r] += ur * v.re[c] - ui * v.im[c];
            acc.im[r] += ur * v.im[c] + ui * v.re[c];
        }
    }
}

/// `acc -= U†(site,mu) · v` (conjugate-transpose mat-vec).
#[inline]
fn mat_dag_vec_sub(u: &[f32], site: usize, mu: usize, v: &Vec3, acc: &mut Vec3) {
    let base = (site * 4 + mu) * 18;
    for r in 0..3 {
        for c in 0..3 {
            // (U†)[r][c] = conj(U[c][r])
            let o = base + (c * 3 + r) * 2;
            let (ur, ui) = (u[o], -u[o + 1]);
            acc.re[r] -= ur * v.re[c] - ui * v.im[c];
            acc.im[r] -= ur * v.im[c] + ui * v.re[c];
        }
    }
}

/// One hopping sweep for one time slice, scalar-indexed: the pre-PR
/// kernel body, kept as the bit-exact reference ([`QcdConfig::cpu_reference`]
/// uses it) the optimized sweep is tested against.
/// Spatial directions (μ = 0,1,2) are periodic; the temporal direction
/// (μ = 3) couples the neighbouring slices.
pub fn hopping_sweep_scalar(n: usize, s: &HopSlices<'_>, out: &mut [f32]) {
    let idx = |x: usize, y: usize, z: usize| (z * n + y) * n + x;
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                let site = idx(x, y, z);
                let fwd = [
                    idx((x + 1) % n, y, z),
                    idx(x, (y + 1) % n, z),
                    idx(x, y, (z + 1) % n),
                ];
                let bwd = [
                    idx((x + n - 1) % n, y, z),
                    idx(x, (y + n - 1) % n, z),
                    idx(x, y, (z + n - 1) % n),
                ];
                for rhs in 0..N_RHS {
                    let mut acc = Vec3::default();
                    for links in [s.u_0, s.f_0] {
                        for mu in 0..3 {
                            let vf = load_vec(s.psi_0, fwd[mu], rhs);
                            mat_vec_acc(links, site, mu, &vf, &mut acc);
                            let vb = load_vec(s.psi_0, bwd[mu], rhs);
                            mat_dag_vec_sub(links, bwd[mu], mu, &vb, &mut acc);
                        }
                    }
                    // Temporal hops to the neighbouring slices.
                    let vf = load_vec(s.psi_p, site, rhs);
                    mat_vec_acc(s.u_0, site, 3, &vf, &mut acc);
                    let vb = load_vec(s.psi_m, site, rhs);
                    mat_dag_vec_sub(s.u_m, site, 3, &vb, &mut acc);
                    let vf = load_vec(s.psi_p, site, rhs);
                    mat_vec_acc(s.f_0, site, 3, &vf, &mut acc);
                    let vb = load_vec(s.psi_m, site, rhs);
                    mat_dag_vec_sub(s.f_m, site, 3, &vb, &mut acc);

                    let o = site * PSI_SITE + rhs * 6;
                    out[o] = acc.re[0];
                    out[o + 1] = acc.im[0];
                    out[o + 2] = acc.re[1];
                    out[o + 3] = acc.im[1];
                    out[o + 4] = acc.re[2];
                    out[o + 5] = acc.im[2];
                }
            }
        }
    }
}

/// The 3×3 complex link matrix `U_mu(site)`: 9 entries, re/im
/// interleaved, row-major.
#[inline]
fn link(u: &[f32], site: usize, mu: usize) -> &[f32; 18] {
    let base = (site * 4 + mu) * 18;
    u[base..base + 18]
        .try_into()
        .expect("an 18-float range is an SU(3) matrix")
}

/// One lane per right-hand side: a complex 3-vector for each of the
/// [`N_RHS`] RHS at one site, component-major so each `[f32; N_RHS]`
/// row is one vector register.
#[derive(Clone, Copy, Default)]
struct Vec3x4 {
    re: [[f32; N_RHS]; 3],
    im: [[f32; N_RHS]; 3],
}

/// ψ at `site` for all [`N_RHS`] RHS, transposed into lanes.
#[inline]
fn load_vec4(psi: &[f32], site: usize) -> Vec3x4 {
    let p = &psi[site * PSI_SITE..(site + 1) * PSI_SITE];
    let mut v = Vec3x4::default();
    for rhs in 0..N_RHS {
        for c in 0..3 {
            v.re[c][rhs] = p[rhs * 6 + 2 * c];
            v.im[c][rhs] = p[rhs * 6 + 2 * c + 1];
        }
    }
    v
}

/// `acc += M · v` in every lane: per lane, the multiply/subtract/add
/// sequence of [`mat_vec_acc`], with no fused multiply-add.
#[inline(always)]
fn su3_mv_acc4(m: &[f32; 18], v: &Vec3x4, acc: &mut Vec3x4) {
    for r in 0..3 {
        for c in 0..3 {
            let e = r * 3 + c;
            let (mr, mi) = (m[2 * e], m[2 * e + 1]);
            for l in 0..N_RHS {
                acc.re[r][l] += mr * v.re[c][l] - mi * v.im[c][l];
                acc.im[r][l] += mr * v.im[c][l] + mi * v.re[c][l];
            }
        }
    }
}

/// `acc -= M† · v` in every lane (mirror of [`mat_dag_vec_sub`]).
#[inline(always)]
fn su3_mv_dag_sub4(m: &[f32; 18], v: &Vec3x4, acc: &mut Vec3x4) {
    for r in 0..3 {
        for c in 0..3 {
            // (M†)[r][c] = conj(M[c][r])
            let e = c * 3 + r;
            let (ur, ui) = (m[2 * e], -m[2 * e + 1]);
            for l in 0..N_RHS {
                acc.re[r][l] -= ur * v.re[c][l] - ui * v.im[c][l];
                acc.im[r][l] -= ur * v.im[c][l] + ui * v.re[c][l];
            }
        }
    }
}

/// One hopping sweep for one time slice, optimized: the four
/// right-hand sides are the lanes of one accumulator (`Vec3x4`, one
/// `[f32; N_RHS]` per complex component), so every link entry is loaded
/// once per site and applied to all RHS in a single vectorizable lane
/// loop, and each neighbour's ψ is transposed into lanes once. The 16
/// link matrices a site needs (6 spatial forward + 6 spatial backward +
/// 4 temporal) are applied in the order of [`hopping_sweep_scalar`]'s
/// links × μ loop nest, and each lane runs exactly its
/// multiply/subtract/add sequence (no FMA), so results are bit-exact.
///
/// On an x86-64 host with AVX2 the same body is compiled for AVX2 and
/// chosen at run time; elsewhere it runs for the build's baseline
/// target. AVX2 does not enable FMA and Rust never contracts a
/// multiply and an add, so both builds give the same bits.
pub fn hopping_sweep(n: usize, s: &HopSlices<'_>, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        #[target_feature(enable = "avx2")]
        fn sweep_avx2(n: usize, s: &HopSlices<'_>, out: &mut [f32]) {
            hopping_sweep_portable(n, s, out);
        }
        // SAFETY: `is_x86_feature_detected!("avx2")` just confirmed
        // that this CPU supports AVX2, the only feature `sweep_avx2`
        // is compiled for.
        unsafe { sweep_avx2(n, s, out) };
        return;
    }
    hopping_sweep_portable(n, s, out);
}

/// The body of [`hopping_sweep`], inlined into each target build.
#[inline(always)]
fn hopping_sweep_portable(n: usize, s: &HopSlices<'_>, out: &mut [f32]) {
    let idx = |x: usize, y: usize, z: usize| (z * n + y) * n + x;
    // Periodic neighbours without an integer division per hop.
    let next = |i: usize| if i + 1 == n { 0 } else { i + 1 };
    let prev = |i: usize| if i == 0 { n - 1 } else { i - 1 };
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                let site = idx(x, y, z);
                let fwd = [idx(next(x), y, z), idx(x, next(y), z), idx(x, y, next(z))];
                let bwd = [idx(prev(x), y, z), idx(x, prev(y), z), idx(x, y, prev(z))];
                let pf = fwd.map(|i| load_vec4(s.psi_0, i));
                let pb = bwd.map(|i| load_vec4(s.psi_0, i));
                let mut acc = Vec3x4::default();
                for links in [s.u_0, s.f_0] {
                    for mu in 0..3 {
                        su3_mv_acc4(link(links, site, mu), &pf[mu], &mut acc);
                        su3_mv_dag_sub4(link(links, bwd[mu], mu), &pb[mu], &mut acc);
                    }
                }
                // Temporal hops to the neighbouring slices.
                let vt_p = load_vec4(s.psi_p, site);
                let vt_m = load_vec4(s.psi_m, site);
                su3_mv_acc4(link(s.u_0, site, 3), &vt_p, &mut acc);
                su3_mv_dag_sub4(link(s.u_m, site, 3), &vt_m, &mut acc);
                su3_mv_acc4(link(s.f_0, site, 3), &vt_p, &mut acc);
                su3_mv_dag_sub4(link(s.f_m, site, 3), &vt_m, &mut acc);

                let o = &mut out[site * PSI_SITE..(site + 1) * PSI_SITE];
                for rhs in 0..N_RHS {
                    for c in 0..3 {
                        o[rhs * 6 + 2 * c] = acc.re[c][rhs];
                        o[rhs * 6 + 2 * c + 1] = acc.im[c][rhs];
                    }
                }
            }
        }
    }
}

/// A bound QCD problem.
pub struct QcdInstance {
    /// The configuration that produced this instance.
    pub config: QcdConfig,
    /// The bound region (loop `t in 1..nt-1`).
    pub region: Region,
    /// ψ field host buffer (4 RHS).
    pub psi: HostBufId,
    /// Thin gauge links host buffer.
    pub u: HostBufId,
    /// Fat gauge links host buffer.
    pub f: HostBufId,
    /// Output field host buffer.
    pub out: HostBufId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{assert_exact, read_host};
    use gpsim::{DeviceProfile, ExecMode};
    use pipeline_rt::{run_model, ExecModel, RunOptions};

    #[test]
    fn all_models_match_cpu_reference() {
        let cfg = QcdConfig::test_small();
        let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();
        gpu.set_race_check(true);
        let inst = cfg.setup(&mut gpu).unwrap();
        let psi = read_host(&gpu, inst.psi).unwrap();
        let u = read_host(&gpu, inst.u).unwrap();
        let f = read_host(&gpu, inst.f).unwrap();
        let expect = cfg.cpu_reference(&psi, &u, &f);
        let builder = cfg.builder();

        run_model(&mut gpu, &inst.region, &builder, ExecModel::Naive, &RunOptions::default()).unwrap();
        assert_exact(&read_host(&gpu, inst.out).unwrap(), &expect, "naive");

        gpu.host_fill(inst.out, |_| 0.0).unwrap();
        run_model(&mut gpu, &inst.region, &builder, ExecModel::Pipelined, &RunOptions::default()).unwrap();
        assert_exact(&read_host(&gpu, inst.out).unwrap(), &expect, "pipelined");

        gpu.host_fill(inst.out, |_| 0.0).unwrap();
        run_model(&mut gpu, &inst.region, &builder, ExecModel::PipelinedBuffer, &RunOptions::default()).unwrap();
        assert_exact(&read_host(&gpu, inst.out).unwrap(), &expect, "buffer");
    }

    #[test]
    fn optimized_sweep_is_bit_identical_to_scalar() {
        let fill = |seed: u64, len: usize| -> Vec<f32> {
            let mut state = seed;
            (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
                })
                .collect()
        };
        // Small lattices lean on the periodic wrap: at n = 3, 26 of the
        // 27 sites have a wrapped neighbour. Odd n has no even/odd
        // symmetry in it.
        for n in [3, 4, 5] {
            let vol3 = n * n * n;
            let (ps, us) = (vol3 * PSI_SITE, vol3 * U_SITE);
            let psi = fill(1 + n as u64, 3 * ps);
            let u = fill(2 + n as u64, 2 * us);
            let f = fill(3 + n as u64, 2 * us);
            let slices = HopSlices {
                psi_m: &psi[..ps],
                psi_0: &psi[ps..2 * ps],
                psi_p: &psi[2 * ps..],
                u_m: &u[..us],
                u_0: &u[us..],
                f_m: &f[..us],
                f_0: &f[us..],
            };
            let bits = |sweep: fn(usize, &HopSlices<'_>, &mut [f32])| -> Vec<u32> {
                let mut out = vec![f32::NAN; ps];
                sweep(n, &slices, &mut out);
                out.iter().map(|x| x.to_bits()).collect()
            };
            let scalar = bits(hopping_sweep_scalar);
            // The portable body runs on every host; the dispatched
            // sweep runs the AVX2 build where the CPU has it.
            assert_eq!(
                scalar,
                bits(hopping_sweep_portable),
                "portable lane-parallel sweep must be bit-exact at n = {n}"
            );
            assert_eq!(
                scalar,
                bits(hopping_sweep),
                "dispatched lane-parallel sweep must be bit-exact at n = {n}"
            );
        }
    }

    #[test]
    fn naive_transfer_share_is_about_half() {
        // Figure 3 (left): "data transfers consume nearly 50% of
        // execution time" in the naive QCD model on the K40m.
        let cfg = QcdConfig::paper_size(24);
        let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Timing).unwrap();
        let inst = cfg.setup(&mut gpu).unwrap();
        let rep = run_model(&mut gpu, &inst.region, &cfg.builder(), ExecModel::Naive, &RunOptions::default()).unwrap();
        let share = rep.transfer_fraction();
        assert!(
            (0.35..0.65).contains(&share),
            "transfer share {share} not ≈50%"
        );
    }

    #[test]
    fn space_complexity_drops_by_one_dimension() {
        // §V-F: splitting reduces O(n⁴) resident data to O(C·n³).
        let cfg = QcdConfig::paper_size(12);
        let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Timing).unwrap();
        let inst = cfg.setup(&mut gpu).unwrap();
        let builder = cfg.builder();
        let naive = run_model(&mut gpu, &inst.region, &builder, ExecModel::Naive, &RunOptions::default()).unwrap();
        let buf = run_model(&mut gpu, &inst.region, &builder, ExecModel::PipelinedBuffer, &RunOptions::default()).unwrap();
        // Ring ≈ C slices vs nt slices.
        let per_slice = (2 * cfg.psi_slice() + 2 * cfg.u_slice()) as u64 * 4;
        assert_eq!(naive.array_bytes, per_slice * cfg.nt as u64);
        assert!(buf.array_bytes < per_slice * 8, "{}", buf.array_bytes);
    }
}
