//! `serve-steady` and `serve-chaos`: the job server on a K40m/P100
//! fleet in functional mode, fed open-loop streams generated from the
//! seed.
//!
//! Arrivals are fixed in simulated time before a call starts, so a host
//! stall can never make the generator late, and every latency counts
//! from the job's due arrival. A run serves [`STREAMS`] streams once each
//! (the deterministic passes the simulated metrics come from), then
//! keeps cycling through them until the measuring time is up.

use std::collections::BTreeMap;

use gpsim::{FaultPlan, SimTime};
use pipeline_rt::{run_model, CostModel, ExecModel, Histogram, RtResult, RunOptions};
use pipeline_serve::{
    serve, Fleet, JobSpec, Rejection, ServeOptions, ServeReport, ShapeSig, TenantSpec,
    WorkloadConfig,
};

use crate::paper::SplitMix;
use crate::report::{cpu_seconds, geomean, hist_quantile_ns, mean, median, Metrics};
use crate::runs::{run_span, Device, RunSim};
use crate::trace::span;

/// Streams per run. Latency tails are taken per stream and averaged,
/// and a stream's tail rests on few jobs, so a run serves many.
pub const STREAMS: usize = 16;

/// Jobs per `serve-steady` stream.
pub const STEADY_JOBS: usize = 1000;

/// Jobs per `serve-chaos` condition (four conditions per stream).
pub const CHAOS_JOBS: usize = 260;

/// The two serving workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One clean 4-device fleet, EDF, every preempted job verified.
    Steady,
    /// The hardened policy over four fleet conditions.
    Chaos,
}

/// The fleet condition of one serve call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chaos {
    /// No faults.
    Clean,
    /// Device 1 is lost 2 ms into the stream.
    DeviceLoss,
    /// Device 2 hangs (escalated by the watchdog) and spikes.
    HangSpike,
    /// No faults, arrivals twice as dense.
    Overload,
}

/// Hang watchdog grace armed with every fault plan, so injected hangs
/// escalate to a detectable device loss.
const WATCHDOG: SimTime = SimTime::from_ms(1);

/// One serve call: a stream on a freshly built fleet.
pub struct Call {
    /// Fleet condition.
    pub chaos: Chaos,
    /// Fleet size.
    pub devices: usize,
    /// The stream.
    pub jobs: Vec<JobSpec>,
    /// Seed of the condition's fault plan.
    pub fault_seed: u64,
    /// Server policy.
    pub opts: ServeOptions,
}

/// Everything generated in set-up: tenants and the calls of each stream.
pub struct Setup {
    /// Tenants shared by every call.
    pub tenants: Vec<TenantSpec>,
    /// `streams[k]` holds the calls one pass over stream `k` makes.
    pub streams: Vec<Vec<Call>>,
}

/// Generate the run's streams from `seed`.
pub fn setup(kind: Kind, seed: u64) -> Setup {
    let mut rng = SplitMix(seed);
    let streams = (0..STREAMS)
        .map(|_| match kind {
            Kind::Steady => vec![Call {
                chaos: Chaos::Clean,
                devices: 4,
                jobs: span("serve:generate", || {
                    WorkloadConfig::new(rng.next_u64(), STEADY_JOBS, 3).generate()
                }),
                fault_seed: 0,
                opts: ServeOptions::new(),
            }],
            Kind::Chaos => [
                (Chaos::Clean, 3),
                (Chaos::DeviceLoss, 4),
                (Chaos::HangSpike, 3),
                (Chaos::Overload, 2),
            ]
            .into_iter()
            .map(|(chaos, devices)| Call {
                chaos,
                devices,
                jobs: span("serve:generate", || chaos_stream(chaos, rng.next_u64())),
                fault_seed: rng.next_u64(),
                opts: hardened(chaos),
            })
            .collect(),
        })
        .collect();
    let tenants = match kind {
        Kind::Steady => (0..3)
            .map(|i| TenantSpec::new(format!("tenant{i}"), 1.0))
            .collect(),
        Kind::Chaos => vec![
            TenantSpec::new("latency0", 1.0),
            TenantSpec::new("latency1", 1.0),
            TenantSpec::new("batch", 1.0).best_effort(),
        ],
    };
    Setup { tenants, streams }
}

/// A chaos stream: bursty open loop, half the jobs carrying budgets of
/// 0.5–9.5 ms against multi-ms backlogs, so queue order decides who
/// misses; the overload condition halves the mean gap.
fn chaos_stream(chaos: Chaos, seed: u64) -> Vec<JobSpec> {
    let mut cfg = WorkloadConfig::new(seed, CHAOS_JOBS, 3);
    cfg.mean_gap = SimTime::from_us(if chaos == Chaos::Overload { 4 } else { 8 });
    cfg.deadline_frac = 0.5;
    let mut jobs = cfg.generate();
    for j in &mut jobs {
        if j.deadline.is_some() {
            j.deadline = Some(SimTime::from_us(500 + (j.id % 10) * 900));
        }
    }
    jobs
}

/// The hardened policy: EDF within the fair share, feasibility shedding,
/// the default breaker; under overload also degradation and overload
/// shedding of the best-effort tenant.
fn hardened(chaos: Chaos) -> ServeOptions {
    let opts = ServeOptions::new().with_feasibility(true);
    if chaos == Chaos::Overload {
        opts.with_degrade_horizon(SimTime::from_us(300))
            .with_shed_horizon(SimTime::from_ms(6))
    } else {
        opts
    }
}

/// Build and calibrate a fleet for `call` and arm its fault plan.
pub fn fleet_for(call: &Call) -> RtResult<Fleet> {
    let mut fleet = span("serve:Fleet::build", || Fleet::build(call.devices))?;
    span("serve:calibrate", || fleet.calibrate())?;
    match call.chaos {
        Chaos::Clean | Chaos::Overload => {}
        Chaos::DeviceLoss => fleet.arm_fault_plan(
            1,
            FaultPlan::seeded(call.fault_seed).device_lost_after(SimTime::from_ms(2)),
            WATCHDOG,
        ),
        Chaos::HangSpike => fleet.arm_fault_plan(
            2,
            FaultPlan::seeded(call.fault_seed)
                .hang_rate(0.002)
                .spikes(0.05, 4.0),
            WATCHDOG,
        ),
    }
    Ok(fleet)
}

/// Serve `call` on a fresh fleet; returns the report and the host CPU
/// seconds of the `serve` call alone.
pub fn run_call(
    call: &Call,
    tenants: &[TenantSpec],
    opts: &ServeOptions,
) -> RtResult<(ServeReport, f64)> {
    let mut fleet = fleet_for(call)?;
    let start = cpu_seconds();
    let report = span("serve:serve", || {
        serve(&mut fleet, tenants, &call.jobs, opts)
    })?;
    Ok((report, cpu_seconds() - start))
}

/// Conservation and verification problems in one report.
pub fn problems(kind: Kind, r: &ServeReport) -> Vec<String> {
    let mut out = Vec::new();
    if r.done + r.rejected.total() != r.submitted {
        out.push(format!(
            "{} done + {} rejected != {} submitted",
            r.done,
            r.rejected.total(),
            r.submitted
        ));
    }
    if r.verified_ok != r.verified {
        out.push(format!(
            "{} of {} verified jobs diverged",
            r.verified - r.verified_ok,
            r.verified
        ));
    }
    if kind == Kind::Steady && r.verified != r.preempted {
        out.push(format!(
            "{} of {} preempted jobs verified",
            r.verified, r.preempted
        ));
    }
    out
}

/// The simulated end-to-end metrics and serve counters over the
/// deterministic passes: `streams[k]` holds the reports of stream `k`'s
/// calls.
///
/// Latency quantiles are taken per stream (its calls' tenant histograms
/// merged) and averaged over the streams. Only bucket counts and the
/// maximum survive in a histogram, so a p99 over every stream at once
/// would sit next to the single worst job of the run.
pub fn sim_metrics(streams: &[Vec<ServeReport>], m: &mut Metrics) {
    let (mut p50, mut p99, mut wait_p99) = (Vec::new(), Vec::new(), Vec::new());
    for calls in streams {
        let (mut latency, mut wait) = (Histogram::default(), Histogram::default());
        for t in calls.iter().flat_map(|r| r.tenants.iter()) {
            latency.merge(&t.makespan);
            wait.merge(&t.queue_wait);
        }
        p50.push(hist_quantile_ns(&latency, 0.5) / 1e6);
        p99.push(hist_quantile_ns(&latency, 0.99) / 1e6);
        wait_p99.push(hist_quantile_ns(&wait, 0.99) / 1e6);
    }
    let (mut submitted, mut done, mut on_time, mut deadline_total, mut deadline_missed) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut sim_s = 0.0;
    let mut fairness = Vec::new();
    let mut rejected = [0u64; 3];
    let (mut slices, mut preempted, mut verified, mut verified_ok) = (0u64, 0u64, 0u64, 0u64);
    let (mut failed, mut recovered, mut degraded, mut trips) = (0u64, 0u64, 0u64, 0u64);
    let mut peak_live = 0u64;
    for r in streams.iter().flatten() {
        submitted += r.submitted;
        done += r.done;
        sim_s += r.makespan.as_secs_f64();
        fairness.push(r.fairness);
        for why in Rejection::ALL {
            rejected[why.index()] += r.rejected.get(why);
        }
        slices += r.total_slices;
        preempted += r.preempted;
        verified += r.verified;
        verified_ok += r.verified_ok;
        failed += r.failed_slices;
        recovered += r.recovered;
        degraded += r.degraded_slices;
        trips += r.breaker_trips;
        peak_live = peak_live.max(r.peak_live_bytes);
        for t in &r.tenants {
            on_time += t.done - t.deadline_misses;
            deadline_total += t.deadline_total;
            deadline_missed += t.deadline_misses + t.deadline_rejected;
        }
    }
    m.set("sim_goodput", on_time as f64 / sim_s);
    m.set("job_latency_p50_ms", mean(&p50));
    m.set("job_latency_p99_ms", mean(&p99));
    m.set(
        "deadline_met_rate",
        1.0 - deadline_missed as f64 / deadline_total.max(1) as f64,
    );
    m.set("admit_rate", done as f64 / submitted.max(1) as f64);
    m.set("jain", median(&fairness));

    let per_job = |x: u64| x as f64 / done.max(1) as f64;
    m.set("serve.slices_per_job", per_job(slices));
    m.set("serve.preempted_frac", per_job(preempted));
    m.set("serve.verified", verified as f64);
    m.set(
        "serve.verify_ok_ratio",
        verified_ok as f64 / verified.max(1) as f64,
    );
    m.set("serve.failed_slices", failed as f64);
    m.set("serve.recovered", recovered as f64);
    m.set("serve.degraded_slices", degraded as f64);
    m.set("serve.breaker_trips", trips as f64);
    for why in Rejection::ALL {
        m.set(
            format!("serve.rejected.{}", why.name()),
            rejected[why.index()] as f64,
        );
    }
    m.set("serve.queue_wait_p99_ms", mean(&wait_p99));
    m.set("serve.peak_live_mb", peak_live as f64 / 1e6);
}

/// Timing-mode runs of the streams' job shapes, standalone: what
/// pipelining buys on the served jobs and how close the cost model that
/// places them is to the DES. Weighted by job count.
pub struct ShapeStudy {
    /// Completed standalone runs, for the `gpsim` counters.
    pub runs: Vec<RunSim>,
    /// Problems (a standalone run failed).
    pub problems: Vec<String>,
}

/// Run every distinct (shape, model, device) of `jobs` once and set
/// `sim_speedup`, `sim_mem_ratio` and `model_err`.
pub fn shape_study(jobs: &[&JobSpec], m: &mut Metrics) -> ShapeStudy {
    let mut cache: BTreeMap<(ShapeSig, &'static str, usize), Option<RunSim>> = BTreeMap::new();
    let mut study = ShapeStudy {
        runs: Vec::new(),
        problems: Vec::new(),
    };
    let mut run = |job: &JobSpec, model: ExecModel, dev: usize, study: &mut ShapeStudy| {
        let version = crate::runs::model_name(model);
        cache
            .entry((job.shape.sig(), version, dev))
            .or_insert_with(|| {
                let device = [Device::K40m, Device::P100][dev];
                match standalone(job, model, device) {
                    Ok(r) => {
                        study.runs.push(r.clone());
                        Some(r)
                    }
                    Err(e) => {
                        study
                            .problems
                            .push(format!("{} {version} on {device:?}: {e}", job.shape.name()));
                        None
                    }
                }
            })
            .clone()
    };
    let (mut speedups, mut mem_ratios, mut errs) = (Vec::new(), Vec::new(), Vec::new());
    for job in jobs {
        if let (Some(n), Some(b)) = (
            run(job, ExecModel::Naive, 0, &mut study),
            run(job, ExecModel::PipelinedBuffer, 0, &mut study),
        ) {
            speedups.push(n.total_ns as f64 / b.total_ns as f64);
            mem_ratios.push(b.mem_bytes as f64 / n.mem_bytes as f64);
        }
        for dev in 0..2 {
            if let Some(r) = run(job, job.model, dev, &mut study) {
                errs.extend(r.model_err());
            }
        }
    }
    m.set("sim_speedup", geomean(&speedups));
    m.set("sim_mem_ratio", median(&mem_ratios));
    m.set("model_err", mean(&errs));
    study
}

fn standalone(job: &JobSpec, model: ExecModel, device: Device) -> RtResult<RunSim> {
    let mut gpu = device.timing_gpu();
    let inst = span("apps:setup", || job.shape.setup(&mut gpu, job.id))?;
    let (chunk, streams) = job.shape.schedule();
    let predicted = span("costmodel:predict", || {
        CostModel::new(&gpu, &inst.region, &*inst.builder)?.predict(model, chunk, streams)
    })?;
    let report = span(run_span(model), || {
        run_model(
            &mut gpu,
            &inst.region,
            &*inst.builder,
            model,
            &RunOptions::default(),
        )
    })?;
    Ok(RunSim::new(
        crate::runs::model_name(model),
        &report,
        Some(predicted.total.as_ns()),
    ))
}

/// Host share of `serve` spent re-executing preempted jobs for
/// verification: `1 − t(verify off) / t(verify on)` over the calls of
/// stream 0, alternating the two settings twice.
pub fn verify_share(setup: &Setup) -> RtResult<f64> {
    let (mut on, mut off) = (0.0, 0.0);
    for _ in 0..2 {
        for call in &setup.streams[0] {
            off += run_call(
                call,
                &setup.tenants,
                &call.opts.clone().with_verify_preempted(false),
            )?
            .1;
            on += run_call(call, &setup.tenants, &call.opts)?.1;
        }
    }
    Ok(1.0 - off / on)
}
