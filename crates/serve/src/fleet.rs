//! The shared device fleet: heterogeneous contexts over one host pool,
//! with per-device calibrated cost-model state for placement and
//! optional per-device fault plans for chaos runs.

use gpsim::{DeviceProfile, ExecMode, FaultPlan, Gpu, HostPool, SimTime};
use pipeline_apps::StencilConfig;
use pipeline_rt::{run_model, Calibration, CostModel, ExecModel, RtResult, RunOptions};

/// One device's placement state: its profile plus the calibration
/// multipliers learned from a probe run on that device.
#[derive(Debug, Clone)]
pub struct DeviceModel {
    /// The device's profile (what predictions are computed against).
    pub profile: DeviceProfile,
    /// Learned cost-model multipliers for this device.
    pub calibration: Calibration,
}

/// A heterogeneous fleet sharing one functional-mode host pool, so a
/// job preempted on one device can resume on any other.
pub struct Fleet {
    /// The device contexts.
    pub gpus: Vec<Gpu>,
    /// The shared host pool (for liveness accounting).
    pub pool: HostPool,
    /// Per-device placement models, filled by [`Fleet::calibrate`].
    pub models: Vec<DeviceModel>,
}

impl Fleet {
    /// Build a fleet of `devices` contexts alternating K40m and P100
    /// profiles on one shared functional-mode host pool.
    pub fn build(devices: usize) -> RtResult<Fleet> {
        let pool = HostPool::new(ExecMode::Functional);
        let mut gpus = Vec::with_capacity(devices);
        let mut models = Vec::with_capacity(devices);
        for d in 0..devices {
            let profile = if d % 2 == 0 {
                DeviceProfile::k40m()
            } else {
                DeviceProfile::p100()
            };
            gpus.push(Gpu::with_host_pool(profile.clone(), pool.clone())?);
            models.push(DeviceModel {
                profile,
                calibration: Calibration::default(),
            });
        }
        Ok(Fleet { gpus, pool, models })
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.gpus.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.gpus.is_empty()
    }

    /// Arm a fault plan on device `d`. [`LossTrigger::Time`] instants
    /// in the plan are interpreted as *relative to arming* and rebased
    /// onto the device's current clock — fleet contexts have already
    /// burned simulated time on calibration probes, so an absolute
    /// small instant would be in the device's past and fire on the
    /// first command. Also arms the device's hang watchdog with
    /// `watchdog` grace so injected hangs escalate to a detectable loss
    /// instead of wedging the serve loop.
    ///
    /// [`LossTrigger::Time`]: gpsim::LossTrigger::Time
    pub fn arm_fault_plan(&mut self, d: usize, plan: FaultPlan, watchdog: SimTime) {
        let base = self.gpus[d].now();
        self.gpus[d].set_fault_plan(Some(plan.rebased(base)));
        self.gpus[d].set_hang_watchdog(Some(watchdog));
    }

    /// Run a small stencil probe on every device and fold the measured
    /// run into that device's calibration multipliers
    /// ([`Calibration::update`](pipeline_rt::Calibration::update) of the
    /// cost model's prediction against the run). Probe buffers are freed
    /// afterwards, so fleet memory accounting starts clean.
    pub fn calibrate(&mut self) -> RtResult<()> {
        let cfg = StencilConfig::test_small();
        let opts = RunOptions::default();
        for d in 0..self.gpus.len() {
            let inst = cfg.setup(&mut self.gpus[d])?;
            let builder = cfg.builder();
            let pred = {
                let cm = CostModel::new(&self.gpus[d], &inst.region, &builder)?;
                cm.predict(ExecModel::PipelinedBuffer, cfg.chunk, cfg.streams)?
            };
            let report = run_model(
                &mut self.gpus[d],
                &inst.region,
                &builder,
                ExecModel::PipelinedBuffer,
                &opts,
            )?;
            self.models[d].calibration.update(&pred, &report);
            self.gpus[d].free_host(inst.a0)?;
            self.gpus[d].free_host(inst.anext)?;
        }
        Ok(())
    }
}
