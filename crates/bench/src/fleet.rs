//! `figures fleet` — simulator scalability: heterogeneous 64/256/1000-
//! device fleet sweeps over one shared host pool.
//!
//! Each tier co-schedules the 3-D convolution benchmark across a fleet
//! of alternating K40m / P100 contexts (two throughput classes ~2×
//! apart) with [`run_model_multi`]. The workload
//! scales with the tier — a fixed number of k-planes per device — so
//! the metric under test is the *simulator's* wall-clock throughput
//! (DES commands retired per second per host core), not the simulated
//! makespan. Per-device utilization spread (engine-busy time over the
//! fleet makespan) shows the probe-proportional partitioning at work:
//! the spread stays tight even though the fleet is heterogeneous.
//!
//! One device per tier keeps its timeline on and exports a
//! Perfetto-loadable trace, which the sweep self-validates (it must
//! parse and carry the fleet-wide `devices_alive` counter track). All
//! other contexts run with the timeline off — the configuration whose
//! cost the arena/calendar rework drove to near zero.

use std::time::Instant;

use gpsim::{DeviceProfile, ExecMode, Gpu, HostPool, SimTime};
use pipeline_apps::Conv3dConfig;
use pipeline_rt::{run_model_multi, MultiOptions};

/// Committed throughput floor (DES commands per second per host core)
/// for the 64-device smoke tier. Deliberately conservative — about half
/// a typical single-core measurement — because shared CI runners are
/// noisy; CI fails only below `0.8 ×` this floor (a >20 % regression
/// against the committed floor), which still catches order-of-magnitude
/// slowdowns in the DES hot loop.
pub const FLOOR_CMDS_PER_SEC_CORE: f64 = 400_000.0;

/// k-planes of work assigned per device (before the probe-proportional
/// repartition skews ranges toward the faster profiles).
pub const PLANES_PER_DEVICE: usize = 32;

/// One fleet tier's measurements.
#[derive(Debug, Clone)]
pub struct FleetTier {
    /// Fleet size.
    pub devices: usize,
    /// Outer (split) dimension of the scaled workload.
    pub nk: usize,
    /// DES commands retired across the whole fleet.
    pub commands: u64,
    /// Simulated fleet makespan.
    pub makespan: SimTime,
    /// Wall-clock time of the co-scheduled run (single host thread).
    /// Console and CSV only, like `cmds_per_sec_core`: `FLEET_sim.json`
    /// holds simulated results alone, so a fresh run reproduces it
    /// exactly.
    pub wall_ms: f64,
    /// Wall-clock DES throughput: `commands / wall seconds / cores`,
    /// judged against the floor by [`check_floor`].
    pub cmds_per_sec_core: f64,
    /// Minimum per-device utilization (bottleneck-engine busy time over
    /// the fleet makespan).
    pub util_min: f64,
    /// Median per-device utilization.
    pub util_p50: f64,
    /// Maximum per-device utilization.
    pub util_max: f64,
    /// Device whose timeline was sampled for the exported trace.
    pub sampled_device: usize,
    /// Perfetto trace document of the sampled device.
    pub trace_json: String,
}

/// Fleet sizes of the full sweep.
pub fn paper_tiers() -> Vec<usize> {
    vec![64, 256, 1000]
}

/// Fleet sizes of the CI smoke sweep.
pub fn smoke_tiers() -> Vec<usize> {
    vec![64]
}

fn config(devices: usize) -> Conv3dConfig {
    Conv3dConfig {
        ni: 24,
        nj: 24,
        nk: devices * PLANES_PER_DEVICE,
        chunk: 2,
        streams: 3,
    }
}

/// Heterogeneous fleet: cycle the Kepler- and Pascal-class profiles
/// (~2× apart on this transfer-bound workload). The HD 7970 profile is
/// deliberately excluded: its multi-MB bandwidth half-size makes these
/// few-KB slice transfers ~two orders of magnitude slower (the Figure 8
/// mechanism), so proportional partitioning would correctly starve it
/// to zero iterations and the tier would no longer measure a working
/// fleet.
fn profile_for(dev: usize) -> DeviceProfile {
    if dev.is_multiple_of(2) {
        DeviceProfile::k40m()
    } else {
        DeviceProfile::p100()
    }
}

/// Run one tier: build the fleet, co-schedule, measure, self-validate.
pub fn run_tier(devices: usize) -> FleetTier {
    let cfg = config(devices);
    // The sampled device sits mid-fleet so the trace shows an interior
    // partition (not the first or last range, which rounding can skew).
    let sampled = devices / 2;

    let pool = HostPool::new(ExecMode::Timing);
    let mut gpus: Vec<Gpu> = (0..devices)
        .map(|d| {
            let mut g = Gpu::with_host_pool(profile_for(d), pool.clone()).expect("fleet context");
            g.set_timeline_enabled(d == sampled);
            g
        })
        .collect();
    let inst = cfg.setup(&mut gpus[0]).expect("conv3d setup");
    let builder = cfg.builder();
    let plane = cfg.plane() as u64;
    let mo = MultiOptions::default().with_probe_cost(plane * 54, plane * 8);

    let t = Instant::now();
    let multi = run_model_multi(&mut gpus, &inst.region, &builder, &mo)
        .expect("fleet co-schedule");
    let wall = t.elapsed().as_secs_f64();

    assert!(multi.recovery.is_clean(), "fault-free fleet recorded recovery");
    let commands: u64 = multi
        .per_device
        .iter()
        .filter_map(|r| r.as_ref())
        .map(|r| r.commands)
        .sum();

    // Utilization = the device's bottleneck engine's busy time over the
    // fleet makespan — 1.0 means the device's dominant engine never
    // idled while the slowest partition was still running.
    let makespan_s = multi.makespan.as_secs_f64();
    let mut utils: Vec<f64> = multi
        .per_device
        .iter()
        .filter_map(|r| r.as_ref())
        .map(|r| r.h2d.max(r.d2h).max(r.kernel).as_secs_f64() / makespan_s)
        .collect();
    assert_eq!(utils.len(), devices, "a device executed nothing");
    utils.sort_by(|a, b| a.partial_cmp(b).unwrap());

    // The sampled device's trace must stand on its own: parse as JSON
    // and carry both engine slices and the fleet-wide counter track.
    let trace_json = multi.device_trace_json(sampled);
    gpsim::json::parse(&trace_json).expect("sampled fleet trace parses");
    assert!(
        trace_json.contains("conv3d"),
        "sampled trace lacks kernel slices"
    );
    assert!(
        trace_json.contains("devices_alive"),
        "sampled trace lacks the devices_alive counter track"
    );

    FleetTier {
        devices,
        nk: cfg.nk,
        commands,
        makespan: multi.makespan,
        wall_ms: wall * 1e3,
        cmds_per_sec_core: commands as f64 / wall,
        util_min: utils[0],
        util_p50: utils[utils.len() / 2],
        util_max: utils[utils.len() - 1],
        sampled_device: sampled,
        trace_json,
    }
}

/// Run the sweep. `smoke` keeps only the 64-device tier for CI.
pub fn run(smoke: bool) -> Vec<FleetTier> {
    let tiers = if smoke { smoke_tiers() } else { paper_tiers() };
    tiers.into_iter().map(run_tier).collect()
}

/// CI floor check: error if a tier regressed more than 20 % below the
/// committed floor.
pub fn check_floor(tiers: &[FleetTier]) -> Result<(), String> {
    for t in tiers {
        let min = 0.8 * FLOOR_CMDS_PER_SEC_CORE;
        if t.cmds_per_sec_core < min {
            return Err(format!(
                "{}-device tier retired {:.0} cmds/s/core, below 0.8 x committed floor {:.0}",
                t.devices, t.cmds_per_sec_core, FLOOR_CMDS_PER_SEC_CORE
            ));
        }
    }
    Ok(())
}

/// Table the way EXPERIMENTS.md reports it.
pub fn print(tiers: &[FleetTier]) {
    println!(
        "3dconv, {} planes/device, chunk=2 x 3 streams, k40m/p100 alternating; \
         one timeline-on sampled device per tier",
        PLANES_PER_DEVICE
    );
    println!(
        "{:>8}  {:>8}  {:>9}  {:>12}  {:>9}  {:>14}  {:>22}",
        "devices", "nk", "commands", "makespan", "wall", "cmds/sec/core", "utilization min/p50/max"
    );
    for t in tiers {
        println!(
            "{:>8}  {:>8}  {:>9}  {:>9.3} ms  {:>6.1} ms  {:>14.0}  {:>6.3} /{:>6.3} /{:>6.3}",
            t.devices,
            t.nk,
            t.commands,
            t.makespan.as_ms_f64(),
            t.wall_ms,
            t.cmds_per_sec_core,
            t.util_min,
            t.util_p50,
            t.util_max
        );
    }
    println!(
        "every sampled trace parsed and carries conv3d slices + the devices_alive track; \
         committed floor {FLOOR_CMDS_PER_SEC_CORE:.0} cmds/sec/core"
    );
}

/// The `FLEET_sim.json` payload.
pub fn json(tiers: &[FleetTier]) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"workload\": \"3dconv ni=24 nj=24, {} planes/device, chunk=2, streams=3, \
         heterogeneous k40m/p100 alternating\",\n",
        PLANES_PER_DEVICE
    ));
    s.push_str("  \"threads\": 1,\n");
    s.push_str(&format!(
        "  \"floor_cmds_per_sec_core\": {FLOOR_CMDS_PER_SEC_CORE:.1},\n"
    ));
    s.push_str("  \"tiers\": [\n");
    for (i, t) in tiers.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"devices\": {}, \"nk\": {}, \"commands\": {}, \"makespan_ms\": {:.6}, \
             \"util_min\": {:.6}, \"util_p50\": {:.6}, \"util_max\": {:.6}, \
             \"sampled_device\": {}}}{}\n",
            t.devices,
            t.nk,
            t.commands,
            t.makespan.as_ms_f64(),
            t.util_min,
            t.util_p50,
            t.util_max,
            t.sampled_device,
            if i + 1 == tiers.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mini_fleet_runs_and_self_validates() {
        // A 6-device mini tier exercises the heterogeneous cycle
        // (three of each profile) without smoke-tier runtime.
        let t = run_tier(6);
        assert_eq!(t.devices, 6);
        assert_eq!(t.nk, 6 * PLANES_PER_DEVICE);
        assert!(t.commands > 0);
        assert!(!t.makespan.is_zero());
        assert!(t.util_min <= t.util_p50 && t.util_p50 <= t.util_max);
        assert!(t.util_max <= 1.0 + 1e-9, "utilization above 1: {}", t.util_max);
        assert!(t.util_min > 0.0, "an idle device in a balanced fleet");
        gpsim::json::parse(&t.trace_json).expect("trace parses");
        let payload = json(&[t]);
        gpsim::json::parse(&payload).expect("payload parses");
    }

    #[test]
    fn floor_check_flags_regressions() {
        // Fixed boundary cases, independent of this host's speed: the
        // gate admits exactly 0.8 x the floor and rejects anything below.
        let mut t = run_tier(6);
        let min = 0.8 * FLOOR_CMDS_PER_SEC_CORE;
        t.cmds_per_sec_core = min;
        assert!(check_floor(std::slice::from_ref(&t)).is_ok());
        t.cmds_per_sec_core = min.next_down();
        assert!(check_floor(std::slice::from_ref(&t)).is_err());
    }
}
