//! Device-loss failover and straggler rebalancing: the supervised
//! multi-device co-scheduler must survive whole-context loss (injected
//! or watchdog-escalated hangs) and deliver output bit-identical to a
//! fault-free run.

use gpsim::{
    DeviceProfile, ExecMode, FaultPlan, Gpu, HostPool, KernelCost, KernelLaunch, SimTime,
};
use pipeline_rt::{
    run_model, run_model_multi, Affine, ChunkCtx, ExecModel, MapDir, MapSpec, MigrationCause,
    MultiOptions, MultiReport, Region, RegionSpec, RtResult, RunOptions, Schedule, SplitSpec,
};

const NZ: usize = 64;
const SLICE: usize = 4096;
const PROBE: (u64, u64) = (2 * SLICE as u64, 16 * SLICE as u64);

fn shared_setup(profiles: &[DeviceProfile]) -> (Vec<Gpu>, Region) {
    let pool = HostPool::new(ExecMode::Functional);
    let mut gpus: Vec<Gpu> = profiles
        .iter()
        .map(|p| Gpu::with_host_pool(p.clone(), pool.clone()).unwrap())
        .collect();
    let input = gpus[0].alloc_host(NZ * SLICE, true).unwrap();
    let output = gpus[0].alloc_host(NZ * SLICE, true).unwrap();
    gpus[0].host_fill(input, |i| (i % 113) as f32).unwrap();
    let spec = RegionSpec::new(Schedule::static_(2, 3))
        .with_map(MapSpec {
            name: "in".into(),
            dir: MapDir::To,
            split: SplitSpec::OneD {
                offset: Affine::shifted(-1),
                window: 3,
                extent: NZ,
                slice_elems: SLICE,
            },
        })
        .with_map(MapSpec {
            name: "out".into(),
            dir: MapDir::From,
            split: SplitSpec::OneD {
                offset: Affine::IDENTITY,
                window: 1,
                extent: NZ,
                slice_elems: SLICE,
            },
        });
    let region = Region::new(spec, 1, (NZ - 1) as i64, vec![input, output]);
    (gpus, region)
}

fn builder(ctx: &ChunkCtx) -> KernelLaunch {
    let (k0, k1) = (ctx.k0, ctx.k1);
    let (vin, vout) = (ctx.view(0), ctx.view(1));
    KernelLaunch::new(
        "sum3",
        KernelCost {
            flops: (k1 - k0) as u64 * SLICE as u64 * 2,
            bytes: (k1 - k0) as u64 * SLICE as u64 * 16,
        },
        move |kc| {
            for k in k0..k1 {
                let a = kc.read(vin.slice_ptr(k - 1), SLICE)?;
                let b = kc.read(vin.slice_ptr(k), SLICE)?;
                let c = kc.read(vin.slice_ptr(k + 1), SLICE)?;
                let mut out = kc.write(vout.slice_ptr(k), SLICE)?;
                for i in 0..SLICE {
                    out[i] = a[i] + b[i] + c[i];
                }
            }
            Ok(())
        },
    )
}

fn expected(gpu: &Gpu, input: gpsim::HostBufId) -> Vec<f32> {
    let mut data = vec![0.0f32; NZ * SLICE];
    gpu.host_read(input, 0, &mut data).unwrap();
    let mut out = vec![0.0f32; NZ * SLICE];
    for k in 1..NZ - 1 {
        for i in 0..SLICE {
            out[k * SLICE + i] =
                data[(k - 1) * SLICE + i] + data[k * SLICE + i] + data[(k + 1) * SLICE + i];
        }
    }
    out
}

fn assert_output_matches(gpus: &[Gpu], region: &Region, expect: &[f32]) {
    let mut got = vec![0.0f32; NZ * SLICE];
    gpus[0].host_read(region.arrays[1], 0, &mut got).unwrap();
    assert_eq!(
        &got[SLICE..(NZ - 1) * SLICE],
        &expect[SLICE..(NZ - 1) * SLICE],
        "recovered output differs from the fault-free reference"
    );
}

/// Co-schedule `region` under supervision: slices of 2 chunks, a 2 ms
/// hang watchdog.
fn supervised(gpus: &mut [Gpu], region: &Region) -> RtResult<MultiReport> {
    let multi = MultiOptions::default()
        .with_probe_cost(PROBE.0, PROBE.1)
        .with_slice_chunks(2)
        .with_watchdog(SimTime::from_ms(2));
    run_model_multi(gpus, region, &builder, &multi)
}

/// Completed ranges must be pairwise disjoint and tile the region.
fn assert_tiling(completed: &[Vec<(i64, i64)>], lo: i64, hi: i64) {
    let mut all: Vec<(i64, i64)> = completed.iter().flatten().copied().collect();
    all.sort_unstable();
    for w in all.windows(2) {
        assert!(w[0].1 <= w[1].0, "overlapping completed ranges {all:?}");
    }
    assert_eq!(all.first().map(|r| r.0), Some(lo), "{all:?}");
    assert_eq!(all.last().map(|r| r.1), Some(hi), "{all:?}");
    let total: i64 = all.iter().map(|(a, b)| b - a).sum();
    assert_eq!(total, hi - lo, "gaps in completed ranges {all:?}");
}

/// Commands device 0 retires in a fault-free co-scheduled run — the
/// yardstick for placing command-triggered loss at a progress fraction.
fn clean_device0_commands() -> u64 {
    let (mut gpus, region) = shared_setup(&[DeviceProfile::k40m(), DeviceProfile::hd7970()]);
    let multi = supervised(&mut gpus, &region).unwrap();
    assert!(multi.recovery.is_clean());
    multi.per_device[0].as_ref().unwrap().commands
}

#[test]
fn device_loss_at_each_progress_stage_is_observationally_clean() {
    let budget = clean_device0_commands();
    assert!(budget > 8, "test needs a non-trivial command stream");
    for frac in [0.25, 0.5, 0.75] {
        let (mut gpus, region) =
            shared_setup(&[DeviceProfile::k40m(), DeviceProfile::hd7970()]);
        let expect = expected(&gpus[0], region.arrays[0]);
        let after = ((budget as f64 * frac) as u64).max(1);
        gpus[0].set_fault_plan(Some(FaultPlan::seeded(42).device_lost_after(after)));

        let multi = supervised(&mut gpus, &region)
            .unwrap_or_else(|e| panic!("failover at {frac} failed: {e}"));

        assert_eq!(multi.recovery.devices_lost, vec![0], "at {frac}");
        assert_eq!(multi.recovery.watchdog_fires, 0);
        assert_eq!(multi.recovery.rebalance_events, 1);
        assert!(multi.recovery.iterations_migrated > 0);
        for m in &multi.recovery.migrations {
            assert_eq!(m.from, 0);
            assert_eq!(m.to, 1);
            assert_eq!(m.why, MigrationCause::DeviceLoss);
        }
        let migrated: i64 = multi
            .recovery
            .migrations
            .iter()
            .map(|m| m.range.1 - m.range.0)
            .sum();
        assert_eq!(migrated as u64, multi.recovery.iterations_migrated);

        assert_tiling(&multi.completed, region.lo, region.hi);
        // No finished iteration is re-executed: the survivor's completed
        // ranges never overlap what the dead device finished.
        for &(a, b) in &multi.completed[0] {
            for &(c, d) in &multi.completed[1] {
                assert!(b <= c || d <= a, "survivor re-ran [{c},{d}) over [{a},{b})");
            }
        }
        assert!(gpus[0].device_lost().is_some());
        assert!(gpus[1].device_lost().is_none());
        assert_output_matches(&gpus, &region, &expect);
    }
}

#[test]
fn hang_is_escalated_by_the_watchdog_and_survivor_finishes() {
    let (mut gpus, region) = shared_setup(&[DeviceProfile::k40m(), DeviceProfile::hd7970()]);
    let expect = expected(&gpus[0], region.arrays[0]);
    // Every command on device 0 hangs: the very first slice stalls and
    // the watchdog must escalate it to device loss.
    gpus[0].set_fault_plan(Some(FaultPlan::seeded(7).hang_rate(1.0)));

    let multi = supervised(&mut gpus, &region).unwrap();
    assert_eq!(multi.recovery.devices_lost, vec![0]);
    assert_eq!(multi.recovery.watchdog_fires, 1);
    assert_eq!(multi.recovery.rebalance_events, 1);
    // Device 0 completed nothing; device 1 ran the whole region.
    assert!(multi.completed[0].is_empty());
    assert_tiling(&multi.completed, region.lo, region.hi);
    assert!(matches!(
        gpus[0].device_lost(),
        Some((_, gpsim::LossCause::HangEscalated))
    ));
    assert_output_matches(&gpus, &region, &expect);
}

#[test]
fn straggler_sheds_a_bounded_tail() {
    let (mut gpus, region) = shared_setup(&[DeviceProfile::k40m(), DeviceProfile::k40m()]);
    let expect = expected(&gpus[0], region.arrays[0]);
    // Device 0's commands all run 32x slow — way past the straggler
    // threshold — but nothing fails outright.
    gpus[0].set_fault_plan(Some(FaultPlan::seeded(9).spikes(1.0, 32.0)));

    let multi = supervised(&mut gpus, &region).unwrap();
    let rep0 = multi.per_device[0].as_ref().unwrap();
    assert!(rep0.spikes > 0, "spike injection must be visible in the report");
    assert!(multi.recovery.devices_lost.is_empty());
    assert_eq!(multi.recovery.rebalance_events, 1);
    assert!(multi.recovery.iterations_migrated > 0);
    for m in &multi.recovery.migrations {
        assert_eq!((m.from, m.to), (0, 1));
        assert_eq!(m.why, MigrationCause::Straggler);
    }
    // Bounded shed: no more than half of device 0's partition may move.
    let part0 = multi.partitions[0].1 - multi.partitions[0].0;
    assert!(
        (multi.recovery.iterations_migrated as i64) <= part0 / 2 + 1,
        "shed {} of a {part0}-iteration partition",
        multi.recovery.iterations_migrated
    );
    assert_tiling(&multi.completed, region.lo, region.hi);
    assert_output_matches(&gpus, &region, &expect);
}

#[test]
fn losing_every_device_is_an_error() {
    let (mut gpus, region) = shared_setup(&[DeviceProfile::k40m(), DeviceProfile::k40m()]);
    gpus[0].set_fault_plan(Some(FaultPlan::seeded(1).device_lost_after(2u64)));
    gpus[1].set_fault_plan(Some(FaultPlan::seeded(2).device_lost_after(2u64)));
    let err = supervised(&mut gpus, &region).unwrap_err();
    assert!(err.to_string().contains("device lost"), "{err}");
    assert!(gpus.iter().all(|g| g.device_lost().is_some()));
}

#[test]
fn survivor_trace_carries_migration_spans_and_alive_counter() {
    let budget = clean_device0_commands();
    let (mut gpus, region) = shared_setup(&[DeviceProfile::k40m(), DeviceProfile::hd7970()]);
    gpus[0].set_fault_plan(Some(FaultPlan::seeded(42).device_lost_after(budget / 2)));
    let multi = supervised(&mut gpus, &region).unwrap();

    assert_eq!(multi.devices_alive.samples.first(), Some(&(0, 2.0)));
    assert_eq!(multi.devices_alive.samples.len(), 2);
    assert_eq!(multi.devices_alive.samples[1].1, 1.0);

    let json = multi.device_trace_json(1);
    assert!(json.contains("migrate["), "no migration span in survivor trace");
    assert!(json.contains("devices_alive"), "no alive counter track");
    assert!(
        multi.traces[1]
            .host_spans
            .iter()
            .any(|s| s.label.contains("migrate[")),
        "survivor host spans miss the migrate marker"
    );
}

#[test]
fn deterministic_failover_is_reproducible() {
    let budget = clean_device0_commands();
    let run = || {
        let (mut gpus, region) =
            shared_setup(&[DeviceProfile::k40m(), DeviceProfile::hd7970()]);
        gpus[0].set_fault_plan(Some(FaultPlan::seeded(42).device_lost_after(budget / 2)));
        let multi = supervised(&mut gpus, &region).unwrap();
        let mut got = vec![0.0f32; NZ * SLICE];
        gpus[0].host_read(region.arrays[1], 0, &mut got).unwrap();
        (multi.makespan, multi.recovery, got)
    };
    let (mk1, rec1, out1) = run();
    let (mk2, rec2, out2) = run();
    assert_eq!(mk1, mk2);
    assert_eq!(rec1, rec2);
    assert_eq!(out1, out2);
}

#[test]
fn spike_count_surfaces_in_single_device_report() {
    let (mut gpus, region) = shared_setup(&[DeviceProfile::k40m()]);
    gpus[0].set_fault_plan(Some(FaultPlan::seeded(3).spikes(1.0, 2.0)));
    let report = run_model(
        &mut gpus[0],
        &region,
        &builder,
        ExecModel::PipelinedBuffer,
        &RunOptions::default(),
    )
    .unwrap();
    assert!(report.spikes > 0, "every command was spiked");
    assert_eq!(report.spikes, gpus[0].spikes_injected());
}
