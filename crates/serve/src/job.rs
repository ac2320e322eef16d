//! Job descriptions: what a tenant submits to the server.
//!
//! A [`JobSpec`] names an application shape, an execution model, a
//! tenant, a priority and an arrival time. The server materializes it
//! into a [`JobInstance`] — a bound region plus a kernel builder — on
//! first dispatch, entirely deterministically: re-running
//! [`JobShape::setup`] with the same salt reproduces the exact input
//! bits, which is what lets the server prove preempted jobs finished
//! bit-identical to [`JobShape::cpu_reference`] on those inputs.

use gpsim::{Gpu, HostBufId, KernelCost, KernelLaunch, SimTime};
use pipeline_apps::matmul::gemm_scalar;
use pipeline_apps::util::fill_random;
use pipeline_apps::{Conv3dConfig, QcdConfig, StencilConfig};
use pipeline_rt::{
    Affine, ChunkCtx, ExecModel, MapDir, MapSpec, Region, RegionSpec, RtError, RtResult, Schedule,
    SplitSpec,
};

/// A blocked GEMM shaped for serving: `C = A·B` with `A` and `C`
/// streamed in row blocks and `B` held device-resident for the whole
/// job via a constant (scale-0) input map. Unlike
/// [`pipeline_apps::MatmulConfig`] — whose accumulator lives only in
/// device memory between chunks — every output row block lands back in
/// host memory as soon as it is produced, so the job can be preempted
/// at block granularity and resumed on any device.
#[derive(Debug, Clone, Copy)]
pub struct GemmConfig {
    /// Matrix dimension (`n × n`).
    pub n: usize,
    /// Rows per streamed block; must divide `n`.
    pub bs: usize,
    /// Row blocks per pipeline chunk.
    pub chunk: usize,
    /// Stream count.
    pub streams: usize,
}

impl GemmConfig {
    /// Row blocks in the job (the pipeline's iteration count).
    pub fn blocks(&self) -> usize {
        self.n / self.bs
    }

    fn validate(&self) -> RtResult<()> {
        if self.n == 0 || self.bs == 0 || !self.n.is_multiple_of(self.bs) {
            return Err(RtError::Spec(format!(
                "gemm block size {} must divide n {}",
                self.bs, self.n
            )));
        }
        Ok(())
    }
}

/// The application an individual job runs (all shapes are
/// preemption-safe: outputs stream back to host slices, so a checkpoint
/// at an iteration boundary captures the full job state).
#[derive(Debug, Clone, Copy)]
pub enum JobShape {
    /// 3-plane 3D convolution ([`Conv3dConfig`]).
    Conv3d(Conv3dConfig),
    /// 7-point Jacobi stencil sweep ([`StencilConfig`]).
    Stencil(StencilConfig),
    /// Blocked GEMM with a resident `B` operand ([`GemmConfig`]).
    Gemm(GemmConfig),
    /// Staggered-fermion Dslash ([`QcdConfig`]).
    Qcd(QcdConfig),
}

impl JobShape {
    /// Stable application name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            JobShape::Conv3d(_) => "conv3d",
            JobShape::Stencil(_) => "stencil",
            JobShape::Gemm(_) => "gemm",
            JobShape::Qcd(_) => "qcd",
        }
    }

    /// Pipeline iterations the job runs (its preemption granularity).
    pub fn iterations(&self) -> i64 {
        match self {
            JobShape::Conv3d(c) => c.nk as i64 - 2,
            JobShape::Stencil(c) => c.nz as i64 - 2,
            JobShape::Gemm(c) => c.blocks() as i64,
            JobShape::Qcd(c) => c.nt as i64 - 2,
        }
    }

    /// The shape's requested static schedule (chunk, streams) — what
    /// cost-model predictions are asked for.
    pub fn schedule(&self) -> (usize, usize) {
        match self {
            JobShape::Conv3d(c) => (c.chunk, c.streams),
            JobShape::Stencil(c) => (c.chunk, c.streams),
            JobShape::Gemm(c) => (c.chunk, c.streams),
            JobShape::Qcd(c) => (c.chunk, c.streams),
        }
    }

    /// The shape's cost signature: two jobs with equal signatures have
    /// identical per-iteration cost-model predictions (same kernel
    /// shape, same transfer footprint, same schedule), regardless of
    /// their data salts. Keys the server's admission-time cost cache.
    pub fn sig(&self) -> ShapeSig {
        let (kind, dims) = self.kind_dims();
        let (chunk, streams) = self.schedule();
        ShapeSig {
            kind,
            dims,
            chunk: chunk as u64,
            streams: streams as u64,
        }
    }

    /// The job's data identity: two jobs with equal keys get
    /// bit-identical inputs from [`JobShape::setup`] and so the same
    /// [`JobShape::cpu_reference`] output under any model and schedule.
    /// Unlike [`JobShape::sig`] it covers every field that moves those
    /// bits — the stencil's `c0`/`c1` and the GEMM fill `salt` — and
    /// leaves the schedule out. Keys the server's input cache and oracle
    /// memo.
    pub(crate) fn data_key(&self, salt: u64) -> DataKey {
        let (kind, dims) = self.kind_dims();
        let (coeffs, salt) = match self {
            JobShape::Stencil(c) => ([c.c0.to_bits(), c.c1.to_bits()], None),
            JobShape::Gemm(_) => ([0, 0], Some(salt)),
            JobShape::Conv3d(_) | JobShape::Qcd(_) => ([0, 0], None),
        };
        DataKey {
            kind,
            dims,
            coeffs,
            salt,
        }
    }

    fn kind_dims(&self) -> (u8, [u64; 3]) {
        match self {
            JobShape::Conv3d(c) => (0, [c.ni as u64, c.nj as u64, c.nk as u64]),
            JobShape::Stencil(c) => (1, [c.nx as u64, c.ny as u64, c.nz as u64]),
            JobShape::Gemm(c) => (2, [c.n as u64, c.bs as u64, 0]),
            JobShape::Qcd(c) => (3, [c.n as u64, c.nt as u64, 0]),
        }
    }

    /// Allocate and fill this shape's host arrays on `gpu` and bind the
    /// region. `salt` perturbs the GEMM fill seeds so distinct jobs get
    /// distinct data; the conv3d/stencil/qcd apps use their fixed
    /// canonical seeds. Same shape + same salt ⇒ bit-identical inputs.
    pub fn setup(&self, gpu: &mut Gpu, salt: u64) -> RtResult<JobInstance> {
        self.materialize(gpu, Some(salt))
    }

    /// [`setup`](JobShape::setup) without the input fills: the same
    /// `alloc_host` calls and bound region, inputs left zeroed. Enough
    /// for a cost-model probe, whose predictions depend on shapes and
    /// never on data, and for the server's input cache, which copies
    /// stored input bits in.
    pub(crate) fn bind(&self, gpu: &mut Gpu) -> RtResult<JobInstance> {
        self.materialize(gpu, None)
    }

    /// The job's output computed sequentially on the CPU from `inputs`,
    /// its input buffers in [`JobInstance::buffers`] order without the
    /// output: the app's `cpu_reference`, or for GEMM [`gemm_scalar`]
    /// (the serving body's i-j-k order). Every exec model and schedule
    /// must match it bit for bit. Panics on a wrong input count.
    pub fn cpu_reference(&self, inputs: &[Vec<f32>]) -> Vec<f32> {
        match (self, inputs) {
            (JobShape::Conv3d(c), [a]) => c.cpu_reference(a),
            (JobShape::Stencil(c), [a0]) => c.cpu_reference(a0),
            (JobShape::Qcd(c), [psi, u, f]) => c.cpu_reference(psi, u, f),
            (JobShape::Gemm(c), [a, b]) => {
                let mut out = vec![0.0; c.n * c.n];
                gemm_scalar(&mut out, a, b, c.n);
                out
            }
            _ => panic!("{}: {} inputs", self.name(), inputs.len()),
        }
    }

    /// Bind, then fill the inputs when given the fill salt.
    fn materialize(&self, gpu: &mut Gpu, fill: Option<u64>) -> RtResult<JobInstance> {
        match self {
            JobShape::Conv3d(c) => {
                let inst = c.bind(gpu)?;
                if fill.is_some() {
                    c.fill(gpu, &inst)?;
                }
                Ok(JobInstance {
                    region: inst.region,
                    builder: Box::new(c.builder()),
                    buffers: vec![inst.a, inst.b],
                    output: inst.b,
                })
            }
            JobShape::Stencil(c) => {
                let inst = c.bind(gpu)?;
                if fill.is_some() {
                    c.fill(gpu, &inst)?;
                }
                Ok(JobInstance {
                    region: inst.region,
                    builder: Box::new(c.builder()),
                    buffers: vec![inst.a0, inst.anext],
                    output: inst.anext,
                })
            }
            JobShape::Qcd(c) => {
                let inst = c.bind(gpu)?;
                if fill.is_some() {
                    c.fill(gpu, &inst)?;
                }
                Ok(JobInstance {
                    region: inst.region,
                    builder: Box::new(c.builder()),
                    buffers: vec![inst.psi, inst.u, inst.f, inst.out],
                    output: inst.out,
                })
            }
            JobShape::Gemm(c) => gemm_setup(c, gpu, fill),
        }
    }
}

/// A shape's cost-model identity — see [`JobShape::sig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShapeSig {
    kind: u8,
    dims: [u64; 3],
    chunk: u64,
    streams: u64,
}

/// A job's data identity — see [`JobShape::data_key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct DataKey {
    kind: u8,
    dims: [u64; 3],
    coeffs: [u32; 2],
    salt: Option<u64>,
}

impl DataKey {
    /// Whether the job's inputs depend on its salt (GEMM). Such a key
    /// is unique to one job, so the server drops what it stored under
    /// it when the job retires.
    pub(crate) fn is_salted(&self) -> bool {
        self.salt.is_some()
    }
}

/// A materialized job: bound region, kernel builder, and the host
/// buffers the server must free when the job retires.
pub struct JobInstance {
    /// The bound pipeline region.
    pub region: Region,
    /// Kernel builder for the region.
    pub builder: Box<dyn Fn(&ChunkCtx) -> KernelLaunch + Sync>,
    /// Every host buffer the job owns (inputs and outputs).
    pub buffers: Vec<HostBufId>,
    /// The buffer holding the job's result.
    pub output: HostBufId,
}

fn gemm_setup(cfg: &GemmConfig, gpu: &mut Gpu, fill: Option<u64>) -> RtResult<JobInstance> {
    cfg.validate()?;
    let (n, bs) = (cfg.n, cfg.bs);
    let nb = cfg.blocks();
    let a = gpu.alloc_host(n * n, true)?;
    let b = gpu.alloc_host(n * n, true)?;
    let c = gpu.alloc_host(n * n, true)?;
    if let Some(salt) = fill {
        fill_random(gpu, a, 0x6E44 ^ salt)?;
        fill_random(gpu, b, 0xB0B ^ salt.rotate_left(17))?;
    }
    let spec = RegionSpec::new(Schedule::static_(cfg.chunk, cfg.streams))
        .with_map(MapSpec {
            name: "A".into(),
            dir: MapDir::To,
            split: SplitSpec::OneD {
                offset: Affine::IDENTITY,
                window: 1,
                extent: nb,
                slice_elems: bs * n,
            },
        })
        .with_map(MapSpec {
            name: "B".into(),
            dir: MapDir::To,
            // Constant map: every chunk needs slice 0 and nothing else,
            // so residency tracking copies B exactly once per run.
            split: SplitSpec::OneD {
                offset: Affine { scale: 0, bias: 0 },
                window: 1,
                extent: 1,
                slice_elems: n * n,
            },
        })
        .with_map(MapSpec {
            name: "C".into(),
            dir: MapDir::From,
            split: SplitSpec::OneD {
                offset: Affine::IDENTITY,
                window: 1,
                extent: nb,
                slice_elems: bs * n,
            },
        });
    let region = Region::new(spec, 0, nb as i64, vec![a, b, c]);
    let shape = *cfg;
    let builder = move |ctx: &ChunkCtx| {
        let (k0, k1) = (ctx.k0, ctx.k1);
        let (va, vb, vc) = (ctx.view(0), ctx.view(1), ctx.view(2));
        let (n, bs) = (shape.n, shape.bs);
        KernelLaunch::new(
            "gemm_block",
            KernelCost {
                flops: (k1 - k0) as u64 * 2 * (bs * n * n) as u64,
                bytes: 0,
            },
            move |kc| {
                for k in k0..k1 {
                    let ab = kc.read(va.slice_ptr(k), bs * n)?;
                    let bb = kc.read(vb.slice_ptr(0), n * n)?;
                    let mut cb = kc.write(vc.slice_ptr(k), bs * n)?;
                    for r in 0..bs {
                        for col in 0..n {
                            let mut acc = 0.0f32;
                            for j in 0..n {
                                acc += ab[r * n + j] * bb[j * n + col];
                            }
                            cb[r * n + col] = acc;
                        }
                    }
                }
                Ok(())
            },
        )
    };
    Ok(JobInstance {
        region,
        builder: Box::new(builder),
        buffers: vec![a, b, c],
        output: c,
    })
}

/// One submitted job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Unique id (also the determinism salt for data fills).
    pub id: u64,
    /// Index into the server's tenant table.
    pub tenant: usize,
    /// What to run.
    pub shape: JobShape,
    /// Which execution model to run it under.
    pub model: ExecModel,
    /// Higher runs earlier *within* a tenant; never across tenants.
    pub priority: u8,
    /// Simulated arrival time (open loop: fixed before the run).
    pub arrival: SimTime,
    /// Optional latency budget, *relative to release*: the job's
    /// absolute deadline is `release + deadline`, where release is
    /// `arrival` for open-loop jobs and the predecessor's completion
    /// plus think time for closed-loop chains. A job misses iff it
    /// finishes after that instant on the serving clock.
    pub deadline: Option<SimTime>,
    /// Closed-loop chaining: `(predecessor id, think time)`. The job is
    /// released `think` after the predecessor completes (or is
    /// rejected), rather than at `arrival`. `arrival` then only breaks
    /// ties in generation order.
    pub after: Option<(u64, SimTime)>,
}

/// A tenant sharing the fleet.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name.
    pub name: String,
    /// Fair-share weight (relative service rate; must be positive).
    pub weight: f64,
    /// Best-effort tenants absorb overload first: their jobs are
    /// degraded down the exec-model ladder and, past the shed horizon,
    /// rejected outright. Guaranteed tenants (the default) are never
    /// degraded or overload-shed.
    pub best_effort: bool,
}

impl TenantSpec {
    /// A guaranteed tenant with the given name and weight.
    pub fn new(name: impl Into<String>, weight: f64) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            weight,
            best_effort: false,
        }
    }

    /// Mark the tenant best-effort (see [`TenantSpec::best_effort`]).
    pub fn best_effort(mut self) -> TenantSpec {
        self.best_effort = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsim::{DeviceProfile, ExecMode};
    use pipeline_apps::util::read_host;

    fn gemm(n: usize) -> JobShape {
        JobShape::Gemm(GemmConfig {
            n,
            bs: 4,
            chunk: 1,
            streams: 2,
        })
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

    /// Every buffer `setup` fills (inputs and the zeroed output).
    fn setup_bits(shape: &JobShape, salt: u64) -> Vec<Vec<u32>> {
        let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();
        let inst = shape.setup(&mut gpu, salt).unwrap();
        inst.buffers
            .iter()
            .map(|&b| {
                read_host(&gpu, b)
                    .unwrap()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn equal_data_keys_mean_identical_inputs() {
        // The schedule is not data, and only GEMM reads its salt, so
        // each pair below shares a key and must fill identical buffers.
        let pairs = [
            (JobShape::Conv3d(Conv3dConfig::test_small()), 1, 2),
            (JobShape::Stencil(StencilConfig::test_small()), 3, 4),
            (JobShape::Qcd(QcdConfig::test_small()), 5, 6),
            (gemm(16), 7, 7),
        ];
        for (shape, salt_a, salt_b) in pairs {
            let other = with_schedule(shape, 1, 4);
            assert_eq!(
                shape.data_key(salt_a),
                other.data_key(salt_b),
                "{}",
                shape.name()
            );
            assert_eq!(
                setup_bits(&shape, salt_a),
                setup_bits(&other, salt_b),
                "{}: equal keys, different inputs",
                shape.name()
            );
            assert_eq!(shape.data_key(salt_a).is_salted(), shape.name() == "gemm");
        }
    }

    #[test]
    fn gemm_salts_give_distinct_keys_and_inputs() {
        let shape = gemm(16);
        assert_ne!(shape.data_key(1), shape.data_key(2));
        assert_ne!(setup_bits(&shape, 1), setup_bits(&shape, 2));
        // Dims still count: equal salts on different sizes differ.
        assert_ne!(shape.data_key(1), gemm(24).data_key(1));
    }

    #[test]
    fn stencil_coefficients_are_part_of_the_key() {
        let base = StencilConfig::test_small();
        let shape = JobShape::Stencil(base);
        let c0 = JobShape::Stencil(StencilConfig { c0: 0.25, ..base });
        let c1 = JobShape::Stencil(StencilConfig { c1: 0.2, ..base });
        for other in [c0, c1] {
            // Same cost identity and same inputs, different outputs:
            // only the data key can tell these apart.
            assert_eq!(shape.sig(), other.sig());
            assert_ne!(shape.data_key(0), other.data_key(0));
            let inputs = setup_bits(&shape, 0);
            assert_eq!(inputs, setup_bits(&other, 0));
            let a0 = [inputs[0].iter().map(|&b| f32::from_bits(b)).collect()];
            assert_ne!(shape.cpu_reference(&a0), other.cpu_reference(&a0));
        }
    }
}
