//! Property tests of the supervised multi-device co-scheduler: for
//! *random* region shapes and *random* loss/hang/spike plans on one
//! device (the other stays clean, so a survivor always exists), the
//! recovered run must be observationally identical to a fault-free
//! co-scheduled run — bit-identical output — and no finished iteration
//! may be re-executed on a survivor.

use gpsim::{DeviceProfile, ExecMode, FaultPlan, Gpu, HostPool, KernelCost, KernelLaunch, SimTime};
use proptest::prelude::*;
use pipeline_rt::{
    run_model_multi, Affine, ChunkCtx, MapDir, MapSpec, MultiOptions, Region, RegionSpec,
    Schedule, SplitSpec,
};

/// A randomly shaped pipeline problem: `out[k] (+)= Σ in[k+bias ..]`.
#[derive(Debug, Clone)]
struct Shape {
    extent: usize,
    slice: usize,
    window: usize,
    bias: i64,
    chunk: usize,
    streams: usize,
    /// Output map direction: `From` (overwrite) or `ToFrom` (in-place
    /// accumulate — exercises the failover snapshot restore).
    tofrom: bool,
}

/// A seeded plan for the faulty device: whole-context loss after a
/// command count or at an instant, hangs, or latency spikes.
#[derive(Debug, Clone)]
struct Disruption {
    seed: u64,
    kind: u32,
    knob: u32,
}

fn shapes() -> impl Strategy<Value = Shape> {
    (
        8usize..28,  // extent
        1usize..48,  // slice elems
        1usize..4,   // window
        -2i64..2,    // bias
        1usize..5,   // chunk
        1usize..4,   // streams
        0u32..2,     // output dir
    )
        .prop_map(|(extent, slice, window, bias, chunk, streams, tf)| Shape {
            extent,
            slice,
            window,
            bias,
            chunk,
            streams,
            tofrom: tf == 1,
        })
}

fn disruptions() -> impl Strategy<Value = Disruption> {
    (any::<u64>(), 0u32..5, 0u32..1000).prop_map(|(seed, kind, knob)| Disruption {
        seed,
        kind,
        knob,
    })
}

impl Shape {
    /// Loop bounds keeping `[k+bias, k+bias+window)` inside the array.
    fn bounds(&self) -> Option<(i64, i64)> {
        let lo = (-self.bias).max(0);
        let hi = (self.extent as i64 - self.window as i64 - self.bias + 1).min(self.extent as i64);
        if hi <= lo {
            None
        } else {
            Some((lo, hi))
        }
    }
}

impl Disruption {
    fn plan(&self) -> Option<FaultPlan> {
        let p = FaultPlan::seeded(self.seed);
        match self.kind {
            0 => None,
            1 => Some(p.device_lost_after(1 + (self.knob % 60) as u64)),
            2 => Some(p.device_lost_after(SimTime::from_us(20 + (self.knob % 800) as u64))),
            3 => Some(p.hang_rate((1 + self.knob % 100) as f64 / 100.0)),
            _ => Some(p.spikes(1.0, 8.0 + (self.knob % 32) as f64)),
        }
    }
}

/// Two contexts on one host pool plus a freshly filled region.
fn build(s: &Shape, lo: i64, hi: i64) -> (Vec<Gpu>, Region) {
    let pool = HostPool::new(ExecMode::Functional);
    let mut gpus = vec![
        Gpu::with_host_pool(DeviceProfile::k40m(), pool.clone()).unwrap(),
        Gpu::with_host_pool(DeviceProfile::hd7970(), pool).unwrap(),
    ];
    let n = s.extent * s.slice;
    let input = gpus[0].alloc_host(n, true).unwrap();
    let output = gpus[0].alloc_host(n, true).unwrap();
    gpus[0]
        .host_fill(input, |i| ((i * 7 + 3) % 101) as f32)
        .unwrap();
    gpus[0].host_fill(output, |i| (i % 17) as f32).unwrap();
    let spec = RegionSpec::new(Schedule::static_(s.chunk, s.streams))
        .with_map(MapSpec {
            name: "in".into(),
            dir: MapDir::To,
            split: SplitSpec::OneD {
                offset: Affine {
                    scale: 1,
                    bias: s.bias,
                },
                window: s.window,
                extent: s.extent,
                slice_elems: s.slice,
            },
        })
        .with_map(MapSpec {
            name: "out".into(),
            dir: if s.tofrom { MapDir::ToFrom } else { MapDir::From },
            split: SplitSpec::OneD {
                offset: Affine::IDENTITY,
                window: 1,
                extent: s.extent,
                slice_elems: s.slice,
            },
        });
    let region = Region::new(spec, lo, hi, vec![input, output]);
    (gpus, region)
}

fn window_sum_builder(s: &Shape) -> impl Fn(&ChunkCtx) -> KernelLaunch + 'static {
    let shape = s.clone();
    move |ctx: &ChunkCtx| {
        let (k0, k1) = (ctx.k0, ctx.k1);
        let (vin, vout) = (ctx.view(0), ctx.view(1));
        let (slice, window, bias, tofrom) =
            (shape.slice, shape.window, shape.bias, shape.tofrom);
        KernelLaunch::new(
            "window_sum",
            KernelCost {
                flops: (k1 - k0) as u64 * slice as u64 * window as u64,
                bytes: 0,
            },
            move |kc| {
                for k in k0..k1 {
                    let mut out = kc.write(vout.slice_ptr(k), slice)?;
                    if !tofrom {
                        out.fill(0.0);
                    }
                    for w in 0..window as i64 {
                        let src = kc.read(vin.slice_ptr(k + bias + w), slice)?;
                        for i in 0..slice {
                            out[i] += src[i];
                        }
                    }
                }
                Ok(())
            },
        )
    }
}

fn read_interior(gpu: &Gpu, region: &Region, s: &Shape, lo: i64, hi: i64) -> Vec<f32> {
    let mut v = vec![0.0f32; s.extent * s.slice];
    gpu.host_read(region.arrays[1], 0, &mut v).unwrap();
    v[lo as usize * s.slice..hi as usize * s.slice].to_vec()
}

fn supervise(s: &Shape) -> MultiOptions {
    MultiOptions::default()
        .with_probe_cost(
            s.slice as u64 * s.window as u64,
            s.slice as u64 * 4 * (s.window as u64 + 1),
        )
        .with_slice_chunks(2)
        .with_watchdog(SimTime::from_us(200))
}

fn check(s: &Shape, d: &Disruption) -> Result<(), TestCaseError> {
    let Some((lo, hi)) = s.bounds() else {
        return Ok(()); // degenerate shape: nothing to test
    };

    // Fault-free reference on a fresh, identically filled setup.
    let (mut gpus, region) = build(s, lo, hi);
    let builder = window_sum_builder(s);
    let clean = run_model_multi(&mut gpus, &region, &builder, &supervise(s))
        .map_err(|e| TestCaseError::fail(format!("clean run failed: {e}")))?;
    prop_assert!(clean.recovery.is_clean(), "fault-free run recorded recovery");
    let expect = read_interior(&gpus[0], &region, s, lo, hi);

    // Disrupted run: device 1 carries the plan; device 0 stays clean so
    // a survivor always exists.
    let (mut gpus, region) = build(s, lo, hi);
    gpus[1].set_fault_plan(d.plan());
    let multi = run_model_multi(&mut gpus, &region, &builder, &supervise(s))
        .map_err(|e| TestCaseError::fail(format!("disrupted run failed: {e}")))?;

    // Observational cleanliness: bit-identical output.
    let got = read_interior(&gpus[0], &region, s, lo, hi);
    prop_assert_eq!(&got, &expect, "output diverged under {:?}", d);

    // Completed ranges tile the region exactly — no gap, no iteration
    // finished on two devices (i.e. nothing already finished was
    // re-executed on a survivor).
    let mut all: Vec<(i64, i64)> = multi.completed.iter().flatten().copied().collect();
    all.sort_unstable();
    for w in all.windows(2) {
        prop_assert!(w[0].1 <= w[1].0, "overlap in completed ranges {:?}", all);
    }
    let covered: i64 = all.iter().map(|(a, b)| b - a).sum();
    prop_assert_eq!(covered, hi - lo, "completed ranges {:?} != [{}, {})", all, lo, hi);

    // Recovery accounting is internally consistent.
    let rec = &multi.recovery;
    let migrated: i64 = rec.migrations.iter().map(|m| m.range.1 - m.range.0).sum();
    prop_assert_eq!(migrated as u64, rec.iterations_migrated);
    prop_assert!(rec.watchdog_fires as usize <= rec.devices_lost.len());
    if rec.devices_lost.is_empty() && rec.rebalance_events == 0 {
        prop_assert!(rec.migrations.is_empty());
    }
    match gpus[1].device_lost() {
        Some(_) => {
            prop_assert_eq!(rec.devices_lost.as_slice(), &[1usize][..]);
            // Everything the dead device didn't finish moved to dev 0.
            for m in &rec.migrations {
                prop_assert_eq!((m.from, m.to), (1, 0));
            }
        }
        None => prop_assert!(rec.devices_lost.is_empty()),
    }
    prop_assert!(gpus[0].device_lost().is_none(), "clean device got lost");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn disrupted_multi_run_is_observationally_clean(s in shapes(), d in disruptions()) {
        check(&s, &d)?;
    }
}
