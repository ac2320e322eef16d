//! The job server: admission, fair-share dispatch, cost-model
//! placement, quantum preemption, device failover, overload
//! degradation, and completion verification.
//!
//! The server is a serial discrete-event loop over per-device relative
//! clocks. Each device's context advances only when work runs on it, so
//! the fleet executes "in parallel" in simulated time even though the
//! loop dispatches one slice at a time: global *now* is the minimum
//! clock across devices still in rotation, releases admit against it,
//! and a slice dispatched to device `d` occupies exactly
//! `[rel(d), rel(d) + slice_time)`.
//!
//! # Time and deadlines
//!
//! A job is *released* at its arrival time (open loop) or `think` after
//! its predecessor completes ([`JobSpec::after`], closed loop).
//! [`JobSpec::deadline`] is a latency budget relative to release; the
//! absolute deadline `release + budget` drives both EDF ordering and
//! miss accounting. Admission — token bucket, overload shed,
//! feasibility — runs once, at release.
//!
//! # Failure handling
//!
//! Devices may carry [`FaultPlan`](gpsim::FaultPlan)s (armed via
//! [`Fleet::arm_fault_plan`]). A slice that dies — injected fault,
//! device loss, or hang escalated by the watchdog — is rolled back by
//! [`ResumableRun`]'s checkpoint and the job requeued with its cursor
//! intact; a lost device is taken out of rotation and the remainder
//! re-placed on survivors by the same calibrated cost model that placed
//! it initially. Flaky-but-alive devices are circuit-broken once half
//! of their last 8 quanta failed, with half-open probing re-admission
//! (see [`CircuitBreaker`]).
//!
//! # Verification
//!
//! Every job that was preempted *or* touched by a failure must match,
//! bit for bit, the app's scalar CPU reference
//! ([`JobShape::cpu_reference`]) on the job's seeded inputs. The oracle
//! shares no code with the planner, executor or kernel bodies it
//! checks, and no exec model or schedule moves its output, so each
//! `serve` call evaluates it once per data identity
//! (`JobShape::data_key`). [`ServeReport::verify_reference_runs`]
//! counts the evaluations.
//!
//! The same key keeps a per-call input cache. The first job with a key
//! fills its inputs from the seeds and the cache keeps its own copy of
//! every buffer but the output; later jobs with the key bind their
//! buffers and copy the bits in, at no simulated time, so a copied job
//! is bit-identical to a seeded one and a job writing into its own
//! inputs cannot change what later jobs or the oracle read. Salted GEMM
//! keys never recur, so their entries go when the job retires.
//! [`ServeReport::input_fills`] counts the seeded fills.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

use gpsim::{Gpu, HostBufId, SimError, SimTime};
use pipeline_apps::util::read_host;
use pipeline_rt::{
    CostModel, ExecModel, KernelBuilder, Region, ResumableRun, RtError, RtResult, RunOptions,
};

use crate::admission::{RateLimit, Rejection, RejectionCounts, TokenBucket};
use crate::breaker::CircuitBreaker;
use crate::fleet::{DeviceModel, Fleet};
use crate::job::{DataKey, JobInstance, JobShape, JobSpec, ShapeSig, TenantSpec};
use crate::metrics::{ServeReport, TenantStats};
use crate::sched::{FairScheduler, QueueEntry, QueueOrder};

/// Serving policy knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Target device time per slice; jobs predicted to run longer are
    /// preempted at the nearest iteration boundary and requeued.
    pub quantum: SimTime,
    /// Require every preempted or failure-touched job to match the
    /// app's scalar CPU reference bit for bit (the server's self-check;
    /// oracle outputs are memoized per call — see the module docs).
    pub verify_preempted: bool,
    /// Within-tenant queue order (EDF by default; FIFO is the PR 9
    /// baseline the chaos harness compares against).
    pub order: QueueOrder,
    /// Per-tenant token-bucket admission quota; `None` admits
    /// everything.
    pub rate_limit: Option<RateLimit>,
    /// Shed deadline jobs whose predicted completion already exceeds
    /// their budget at release time ([`Rejection::Infeasible`]).
    pub feasibility: bool,
    /// Downgrade best-effort tenants' exec model when the predicted
    /// queue drain time at *release* exceeds this horizon (one ladder
    /// rung; two beyond twice the horizon). The rung is pinned per job
    /// at admission. `None` never degrades.
    pub degrade_horizon: Option<SimTime>,
    /// Shed best-effort tenants' jobs outright when the predicted drain
    /// time exceeds this ([`Rejection::Overload`]). `None` never sheds.
    pub shed_horizon: Option<SimTime>,
}

impl ServeOptions {
    /// Defaults: 150 µs quantum, verification on, EDF ordering, no
    /// admission quota, no feasibility shedding, no overload horizons.
    /// Every device always carries a [`CircuitBreaker`].
    pub fn new() -> ServeOptions {
        ServeOptions {
            quantum: SimTime::from_us(150),
            verify_preempted: true,
            order: QueueOrder::Edf,
            rate_limit: None,
            feasibility: false,
            degrade_horizon: None,
            shed_horizon: None,
        }
    }

    /// Set the preemption quantum.
    pub fn with_quantum(mut self, quantum: SimTime) -> ServeOptions {
        self.quantum = quantum;
        self
    }

    /// Enable or disable preempted/recovered-job verification.
    pub fn with_verify_preempted(mut self, verify: bool) -> ServeOptions {
        self.verify_preempted = verify;
        self
    }

    /// Set the within-tenant queue order.
    pub fn with_order(mut self, order: QueueOrder) -> ServeOptions {
        self.order = order;
        self
    }

    /// Set the per-tenant admission quota.
    pub fn with_rate_limit(mut self, limit: RateLimit) -> ServeOptions {
        self.rate_limit = Some(limit);
        self
    }

    /// Enable or disable deadline feasibility shedding.
    pub fn with_feasibility(mut self, on: bool) -> ServeOptions {
        self.feasibility = on;
        self
    }

    /// Set the degradation horizon.
    pub fn with_degrade_horizon(mut self, h: SimTime) -> ServeOptions {
        self.degrade_horizon = Some(h);
        self
    }

    /// Set the overload shed horizon.
    pub fn with_shed_horizon(mut self, h: SimTime) -> ServeOptions {
        self.shed_horizon = Some(h);
        self
    }
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions::new()
    }
}

/// A job that has been dispatched at least once.
struct Active {
    inst: JobInstance,
    run: ResumableRun,
}

/// Release-time bookkeeping for an admitted job.
struct JobState {
    released: SimTime,
    abs_deadline: Option<SimTime>,
    /// Best-device per-iteration estimate fixed at admission; drives
    /// the backlog (`pending_ns`) accounting so additions and
    /// subtractions cancel exactly per job.
    pred_per_iter: u64,
    /// The exec model every slice of this job runs — the requested
    /// model, or a lower ladder rung fixed at admission if the job was
    /// released into overload. Pinned per job, so every slice runs the
    /// rung whose cost table admission filled and whose per-iteration
    /// estimate `pred_per_iter` holds.
    model: ExecModel,
    /// Touched by a device loss, hang escalation or injected fault.
    hit_failure: bool,
}

fn effective(model: ExecModel) -> ExecModel {
    match model {
        ExecModel::Auto => ExecModel::PipelinedBuffer,
        m => m,
    }
}

/// One rung of overload degradation per level: buffered → unbuffered →
/// naive. Every rung produces bit-identical output (the degradation
/// ladder's standing guarantee), so verification is unaffected.
fn degrade(model: ExecModel, level: usize) -> ExecModel {
    let mut m = model;
    for _ in 0..level.min(2) {
        m = match m {
            ExecModel::PipelinedBuffer => ExecModel::Pipelined,
            ExecModel::Pipelined => ExecModel::Naive,
            other => other,
        };
    }
    m
}

/// Whether a slice failure is survivable by requeue + re-placement
/// (injected faults and device deaths) rather than a bug in the region
/// or the server (spec errors), which must propagate.
fn recoverable(e: &RtError) -> bool {
    matches!(
        e,
        RtError::Device { .. }
            | RtError::RetriesExhausted { .. }
            | RtError::Sim(SimError::Injected { .. })
            | RtError::Sim(SimError::DeviceLost)
    )
}

/// Per-device per-iteration predictions for one region under one
/// model, swept over the fleet's calibrated profiles. Two jobs with
/// equal [`ShapeSig`]s get identical tables (costs depend on shape and
/// schedule, never on data), which is what makes the cache sound.
fn per_iter_table(
    gpu: &Gpu,
    models: &[DeviceModel],
    region: &Region,
    builder: &KernelBuilder<'_>,
    model: ExecModel,
    (chunk, streams): (usize, usize),
    iters_total: u64,
) -> RtResult<Vec<u64>> {
    let mut cm = CostModel::new(gpu, region, builder)?;
    let mut out = Vec::with_capacity(models.len());
    for m in models {
        cm.set_profile(m.profile.clone());
        cm.calibration = m.calibration;
        let pred = cm.predict(model, chunk, streams)?;
        out.push((pred.total.as_ns() / iters_total).max(1));
    }
    Ok(out)
}

/// The admission-time cost probe: bind `shape` on `gpu` without
/// filling its inputs, sweep its per-iteration predictions over the
/// fleet's `models`, and free the buffers unread. Host-only — the
/// `alloc_host`/`free_host` calls are the only simulated time it costs.
fn probe_table(
    gpu: &mut Gpu,
    models: &[DeviceModel],
    shape: &JobShape,
    model: ExecModel,
) -> RtResult<Vec<u64>> {
    let inst = shape.bind(gpu)?;
    let table = per_iter_table(
        gpu,
        models,
        &inst.region,
        &*inst.builder,
        model,
        shape.schedule(),
        shape.iterations().max(1) as u64,
    )?;
    for &b in &inst.buffers {
        gpu.free_host(b)?;
    }
    Ok(table)
}

/// Serve `jobs` (any order; released by arrival or closed-loop chain)
/// for `tenants` on `fleet` and drain the stream: every job either
/// completes or is rejected at admission with a typed reason.
pub fn serve(
    fleet: &mut Fleet,
    tenants: &[TenantSpec],
    jobs: &[JobSpec],
    opts: &ServeOptions,
) -> RtResult<ServeReport> {
    if fleet.is_empty() {
        return Err(RtError::Spec("serve: empty fleet".into()));
    }
    if tenants.is_empty() {
        return Err(RtError::Spec("serve: no tenants".into()));
    }
    let mut id_to_idx: HashMap<u64, usize> = HashMap::with_capacity(jobs.len());
    for (i, j) in jobs.iter().enumerate() {
        if j.tenant >= tenants.len() {
            return Err(RtError::Spec(format!(
                "job {} names tenant {} of {}",
                j.id,
                j.tenant,
                tenants.len()
            )));
        }
        if id_to_idx.insert(j.id, i).is_some() {
            return Err(RtError::Spec(format!("duplicate job id {}", j.id)));
        }
    }
    // Closed-loop chains: dependents keyed by predecessor id.
    let mut deps: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, j) in jobs.iter().enumerate() {
        if let Some((pred, _)) = j.after {
            if pred == j.id || !id_to_idx.contains_key(&pred) {
                return Err(RtError::Spec(format!(
                    "job {} chained after unknown or self id {pred}",
                    j.id
                )));
            }
            deps.entry(pred).or_default().push(i);
        }
    }

    let ndev = fleet.len();
    let t0: Vec<SimTime> = fleet.gpus.iter().map(|g| g.now()).collect();
    let rel = |gpus: &[Gpu], d: usize| gpus[d].now().saturating_sub(t0[d]);

    let weights: Vec<f64> = tenants.iter().map(|t| t.weight).collect();
    let mut sched = FairScheduler::with_order(&weights, opts.order);
    let mut stats: Vec<TenantStats> = tenants
        .iter()
        .map(|t| TenantStats::new(t.name.clone(), t.weight))
        .collect();
    let mut buckets: Vec<TokenBucket> = match opts.rate_limit {
        Some(l) => tenants.iter().map(|_| TokenBucket::new(l)).collect(),
        None => Vec::new(),
    };
    let mut breakers = vec![CircuitBreaker::default(); ndev];
    let mut alive = vec![true; ndev];

    // Release queue: (release time, id) min-heap. Open-loop jobs enter
    // up front at their arrival; chained jobs enter when their
    // predecessor finishes (or is rejected — the client still thinks
    // and submits its next request).
    let mut releases: BinaryHeap<Reverse<(SimTime, u64, usize)>> = jobs
        .iter()
        .enumerate()
        .filter(|(_, j)| j.after.is_none())
        .map(|(i, j)| Reverse((j.arrival, j.id, i)))
        .collect();

    // (ShapeSig, model) → per-device per-iteration ns. Admission fills
    // it with a throwaway host-only bind on a cache miss; placement
    // and quantum sizing reuse it for free thereafter.
    let mut cost_cache: BTreeMap<(ShapeSig, ExecModel), Vec<u64>> = BTreeMap::new();
    // Predicted device-ns of admitted-but-unfinished work; drain time
    // is `pending_ns / alive devices`.
    let mut pending_ns: u64 = 0;

    let mut active: Vec<Option<Active>> = (0..jobs.len()).map(|_| None).collect();
    let mut states: Vec<Option<JobState>> = (0..jobs.len()).map(|_| None).collect();
    let mut done = 0usize;
    let mut rejected_jobs = 0usize;
    let mut rejected_fleet = RejectionCounts::default();
    let mut preempted = 0u64;
    let mut recovered = 0u64;
    let mut total_slices = 0u64;
    let mut failed_slices = 0u64;
    let mut degraded_slices = 0u64;
    let mut devices_lost = 0usize;
    let mut verified = 0u64;
    let mut verified_ok = 0u64;
    let mut inputs = Inputs::default();
    let mut peak_live_bufs = fleet.pool.live_bufs();
    let mut peak_live_bytes = fleet.pool.live_bytes();

    while done + rejected_jobs < jobs.len() {
        let alive_n = alive.iter().filter(|&&a| a).count();
        if alive_n == 0 {
            return Err(RtError::Spec(format!(
                "serve: every device lost with {} jobs outstanding",
                jobs.len() - done - rejected_jobs
            )));
        }
        let now = (0..ndev)
            .filter(|&d| alive[d])
            .map(|d| rel(&fleet.gpus, d))
            .min()
            .expect("alive devices exist");
        let frontier = (0..ndev)
            .filter(|&d| alive[d])
            .min_by_key(|&d| rel(&fleet.gpus, d))
            .expect("alive devices exist");

        // Releases: everything due by global now, in (time, id) order.
        while let Some(&Reverse((t, _, idx))) = releases.peek() {
            if t > now {
                break;
            }
            releases.pop();
            let spec = &jobs[idx];
            let tenant = spec.tenant;
            let base_model = effective(spec.model);
            let iters_total = spec.shape.iterations().max(1) as u64;
            stats[tenant].submitted += 1;
            if spec.deadline.is_some() {
                stats[tenant].deadline_total += 1;
            }

            // Admission, cheapest checks first.
            let drain = SimTime::from_ns(pending_ns / alive_n as u64);
            let mut verdict = if !buckets.is_empty() && !buckets[tenant].try_admit(t) {
                Some(Rejection::OverQuota)
            } else if tenants[tenant].best_effort
                && opts.shed_horizon.is_some_and(|h| drain > h)
            {
                Some(Rejection::Overload)
            } else {
                None
            };

            // Overload degradation: best-effort work released while the
            // predicted drain time exceeds the horizon is admitted one
            // ladder rung down (two beyond twice the horizon) and runs
            // every slice there.
            let model = match opts.degrade_horizon {
                Some(h) if tenants[tenant].best_effort && verdict.is_none() => {
                    let level = if drain > h + h {
                        2
                    } else if drain > h {
                        1
                    } else {
                        0
                    };
                    degrade(base_model, level)
                }
                _ => base_model,
            };

            // Per-iteration estimate for the rung the job will run
            // (cache probe is host-only: bind, predict, free — no
            // engine commands, so it cannot fault; the inputs stay
            // unfilled because costs never depend on data).
            let mut pred_per_iter = 0u64;
            if verdict.is_none() {
                let key = (spec.shape.sig(), model);
                if let std::collections::btree_map::Entry::Vacant(slot) = cost_cache.entry(key) {
                    slot.insert(probe_table(
                        &mut fleet.gpus[frontier],
                        &fleet.models,
                        &spec.shape,
                        model,
                    )?);
                }
                pred_per_iter = cost_cache[&key]
                    .iter()
                    .enumerate()
                    .filter(|&(d, _)| alive[d])
                    .map(|(_, &p)| p)
                    .min()
                    .expect("alive devices exist");
                if opts.feasibility {
                    if let Some(budget) = spec.deadline {
                        if drain + SimTime::from_ns(pred_per_iter * iters_total) > budget {
                            verdict = Some(Rejection::Infeasible);
                        }
                    }
                }
            }
            if let Some(why) = verdict {
                stats[tenant].rejected.record(why);
                rejected_fleet.record(why);
                if spec.deadline.is_some() {
                    stats[tenant].deadline_rejected += 1;
                }
                rejected_jobs += 1;
                if let Some(dependents) = deps.get(&spec.id) {
                    for &dep in dependents {
                        let (_, think) = jobs[dep].after.expect("dependent has a chain link");
                        releases.push(Reverse((t + think, jobs[dep].id, dep)));
                    }
                }
                continue;
            }

            let abs_deadline = spec.deadline.map(|budget| t + budget);
            states[idx] = Some(JobState {
                released: t,
                abs_deadline,
                pred_per_iter,
                model,
                hit_failure: false,
            });
            pending_ns += pred_per_iter * iters_total;
            sched.push(
                tenant,
                QueueEntry {
                    job: idx,
                    priority: spec.priority,
                    arrival: t,
                    id: spec.id,
                    deadline: abs_deadline,
                },
            );
        }

        if sched.is_empty() {
            if done + rejected_jobs == jobs.len() {
                // The release pass above rejected the last outstanding
                // jobs; the stream is fully drained.
                break;
            }
            // All released work is finished; fast-forward the frontier
            // device to the next release.
            let Some(&Reverse((target, _, _))) = releases.peek() else {
                return Err(RtError::Spec(
                    "serve: internal inconsistency (no queue, no releases, jobs unfinished)"
                        .into(),
                ));
            };
            let gap = target.saturating_sub(rel(&fleet.gpus, frontier));
            fleet.gpus[frontier].host_busy(gap.max(SimTime::from_ns(1)));
            continue;
        }

        let (tenant, entry) = sched.pop().expect("non-empty scheduler");
        let spec = &jobs[entry.job];
        let (chunk, _streams) = spec.shape.schedule();

        // Every slice runs the rung pinned at admission.
        let base_model = effective(spec.model);
        let model = states[entry.job].as_ref().expect("admitted").model;

        // Materialize on first dispatch, on the least-loaded device so
        // the setup's host-API time lands on the frontier clock.
        let first_dispatch = active[entry.job].is_none();
        if first_dispatch {
            let inst = inputs.setup(&mut fleet.gpus[frontier], spec)?;
            let run = ResumableRun::new(&fleet.gpus[frontier], &inst.region)?;
            active[entry.job] = Some(Active { inst, run });
        }

        // Placement: cached per-device per-iteration predictions
        // (admission filled the job's rung); earliest predicted
        // completion of the *remaining* iterations among devices in
        // rotation whose breaker admits.
        let a = active[entry.job].as_mut().expect("just materialized");
        let remaining = a.run.remaining().max(1) as u64;
        let table = &cost_cache[&(spec.shape.sig(), model)];
        let placement = (0..ndev)
            .filter(|&d| alive[d])
            .filter(|&d| breakers[d].admits(rel(&fleet.gpus, d)))
            .map(|d| (rel(&fleet.gpus, d).as_ns() + table[d] * remaining, d))
            .min();
        let Some((_, best_d)) = placement else {
            // Every in-rotation device is circuit-broken: idle the
            // frontier to the earliest retry instant, then re-pop.
            let retry = (0..ndev)
                .filter(|&d| alive[d])
                .filter_map(|d| breakers[d].retry_at())
                .min()
                .expect("no admitting device implies an open breaker");
            let gap = retry.saturating_sub(rel(&fleet.gpus, frontier));
            fleet.gpus[frontier].host_busy(gap.max(SimTime::from_ns(1)));
            sched.requeue(tenant, entry);
            continue;
        };
        let per_iter_ns = table[best_d];

        // Slice length: one quantum of predicted work, at least one
        // chunk, never past the end of the region. Naive jobs are a
        // single monolithic launch with no chunk boundary to preempt
        // at, so they always run to completion.
        let iters = if model == ExecModel::Naive {
            remaining as i64
        } else {
            ((opts.quantum.as_ns() / per_iter_ns) as i64)
                .max(chunk as i64)
                .min(remaining as i64)
                .max(1)
        };

        if breakers[best_d].is_open() {
            // Dispatching off an expired cooldown: this is the probe.
            breakers[best_d].begin_probe();
        }
        let started = fleet.gpus[best_d].now();
        if first_dispatch {
            let released = states[entry.job].as_ref().expect("admitted").released;
            let wait = rel(&fleet.gpus, best_d).saturating_sub(released);
            stats[tenant].queue_wait.record(wait.as_ns());
        }
        let outcome = a.run.run_slice(
            &mut fleet.gpus[best_d],
            &*a.inst.builder,
            model,
            &RunOptions::default(),
            iters,
        );
        let slice_end = rel(&fleet.gpus, best_d);
        match outcome {
            Ok(s) => {
                debug_assert!(s.is_some(), "run_slice on an unfinished job");
                breakers[best_d].record(slice_end, true);
            }
            Err(e) => {
                // The slice is rolled back (cursor intact, ToFrom
                // windows restored); classify and requeue.
                failed_slices += 1;
                let lost = fleet.gpus[best_d].device_lost().is_some();
                if !lost && !recoverable(&e) {
                    return Err(e);
                }
                breakers[best_d].record(slice_end, false);
                if lost {
                    alive[best_d] = false;
                    devices_lost += 1;
                }
                states[entry.job].as_mut().expect("admitted").hit_failure = true;
                sched.requeue(tenant, entry);
                continue;
            }
        }
        let service = fleet.gpus[best_d].now().saturating_sub(started);
        sched.charge(tenant, service);
        stats[tenant].service += service;
        if model != base_model {
            stats[tenant].degraded_slices += 1;
            degraded_slices += 1;
        }
        let state = states[entry.job].as_mut().expect("admitted");
        pending_ns = pending_ns.saturating_sub(state.pred_per_iter * iters as u64);
        peak_live_bufs = peak_live_bufs.max(fleet.pool.live_bufs());
        peak_live_bytes = peak_live_bytes.max(fleet.pool.live_bytes());

        if a.run.is_done() {
            let act = active[entry.job].take().expect("active job");
            let job = act.run.finish()?;
            let finish_rel = rel(&fleet.gpus, best_d);
            let state = states[entry.job].as_ref().expect("admitted");
            let st = &mut stats[tenant];
            st.done += 1;
            st.slices += job.slices as u64;
            total_slices += job.slices as u64;
            st.makespan
                .record(finish_rel.saturating_sub(state.released).as_ns());
            if let Some(deadline) = state.abs_deadline {
                if finish_rel > deadline {
                    st.deadline_misses += 1;
                }
            }
            if job.slices > 1 {
                st.preempted += 1;
                preempted += 1;
            }
            if state.hit_failure {
                st.recovered += 1;
                recovered += 1;
            }
            if (job.slices > 1 || state.hit_failure) && opts.verify_preempted {
                verified += 1;
                let got = read_host(&fleet.gpus[best_d], act.inst.output)?;
                if same_bits(&got, inputs.reference(spec)) {
                    verified_ok += 1;
                }
            }
            for &b in &act.inst.buffers {
                fleet.gpus[best_d].free_host(b)?;
            }
            inputs.retire(spec);
            done += 1;
            if let Some(dependents) = deps.get(&spec.id) {
                for &dep in dependents {
                    let (_, think) = jobs[dep].after.expect("dependent has a chain link");
                    releases.push(Reverse((finish_rel + think, jobs[dep].id, dep)));
                }
            }
        } else {
            sched.requeue(tenant, entry);
        }
    }

    let makespan = (0..ndev)
        .map(|d| rel(&fleet.gpus, d))
        .max()
        .expect("non-empty fleet");
    let fairness = ServeReport::compute_fairness(&stats);
    Ok(ServeReport {
        devices: ndev,
        submitted: jobs.len() as u64,
        done: done as u64,
        rejected: rejected_fleet,
        preempted,
        recovered,
        total_slices,
        failed_slices,
        degraded_slices,
        devices_lost,
        breaker_trips: breakers.iter().map(|b| b.trips()).sum(),
        verified,
        verified_ok,
        verify_reference_runs: inputs.oracle_runs,
        input_fills: inputs.fills,
        fairness,
        makespan,
        peak_live_bufs,
        peak_live_bytes,
        tenants: stats,
    })
}

/// Per-call seeded input bits (every buffer but the output, in
/// [`JobInstance::buffers`] order) and the oracle outputs computed from
/// them, both keyed by data identity alone (see the module docs).
#[derive(Default)]
struct Inputs {
    bits: HashMap<DataKey, Vec<Vec<f32>>>,
    references: HashMap<DataKey, Vec<f32>>,
    /// Seeded fills executed (one per data key set up).
    fills: u64,
    /// Oracle evaluations executed (one per data key verified).
    oracle_runs: u64,
}

impl Inputs {
    /// [`JobShape::setup`] for `spec` on `gpu`, with the inputs copied
    /// from the cache when an earlier job with the same data key filled
    /// them. Both paths make the same `alloc_host` calls and leave the
    /// same bits.
    fn setup(&mut self, gpu: &mut Gpu, spec: &JobSpec) -> RtResult<JobInstance> {
        let key = spec.shape.data_key(spec.id);
        if let Some(bits) = self.bits.get(&key) {
            let inst = spec.shape.bind(gpu)?;
            for (b, src) in input_buffers(&inst).zip(bits) {
                gpu.host_write(b, 0, src)?;
            }
            return Ok(inst);
        }
        self.fills += 1;
        let inst = spec.shape.setup(gpu, spec.id)?;
        let bits = input_buffers(&inst)
            .map(|b| read_host(gpu, b))
            .collect::<Result<_, _>>()?;
        self.bits.insert(key, bits);
        Ok(inst)
    }

    /// The oracle's output for `spec`'s seeded inputs, evaluated once
    /// per data key. `spec` must be set up here and not yet retired.
    fn reference(&mut self, spec: &JobSpec) -> &[f32] {
        let key = spec.shape.data_key(spec.id);
        let inputs = &self.bits[&key];
        self.references.entry(key).or_insert_with(|| {
            self.oracle_runs += 1;
            spec.shape.cpu_reference(inputs)
        })
    }

    /// Forget a retired job's entries when its data key can never recur.
    fn retire(&mut self, spec: &JobSpec) {
        let key = spec.shape.data_key(spec.id);
        if key.is_salted() {
            self.bits.remove(&key);
            self.references.remove(&key);
        }
    }
}

/// Every buffer of `inst` except its output.
fn input_buffers(inst: &JobInstance) -> impl Iterator<Item = HostBufId> + '_ {
    inst.buffers.iter().copied().filter(|&b| b != inst.output)
}

/// Whether two outputs have the same length and the same bits in every
/// element (so `NaN` matches its own bit pattern and `-0.0` differs
/// from `0.0`).
fn same_bits(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.to_bits() == w.to_bits())
}

#[cfg(test)]
mod tests {
    use super::{input_buffers, per_iter_table, probe_table, same_bits, Inputs};
    use crate::fleet::Fleet;
    use crate::job::{GemmConfig, JobInstance, JobShape, JobSpec};
    use crate::workload::WorkloadConfig;
    use gpsim::{DeviceProfile, ExecMode, Gpu};
    use pipeline_apps::util::read_host;
    use pipeline_apps::{Conv3dConfig, QcdConfig, StencilConfig};
    use pipeline_rt::ExecModel;
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;

    fn k40m() -> Gpu {
        Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap()
    }

    /// Bits of every buffer `inst` owns, output included.
    fn all_bits(gpu: &Gpu, inst: &JobInstance) -> Vec<Vec<u32>> {
        inst.buffers
            .iter()
            .map(|&b| read_host(gpu, b).unwrap().iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    /// The first two jobs of a long generated stream for every unsalted
    /// data key it holds: the generator's whole conv3d / stencil / QCD
    /// shape set, each pair differing in id and usually in schedule.
    fn generated_pairs() -> Vec<(JobSpec, JobSpec)> {
        // Per key: the first job until its pair is found, then `None`.
        let mut first = HashMap::new();
        let mut pairs = Vec::new();
        for job in WorkloadConfig::new(0x1A9F, 2000, 1).generate() {
            let key = job.shape.data_key(job.id);
            if key.is_salted() {
                continue;
            }
            match first.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert(Some(job));
                }
                Entry::Occupied(mut seen) => {
                    if let Some(a) = seen.get_mut().take() {
                        pairs.push((a, job));
                    }
                }
            }
        }
        pairs
    }

    #[test]
    fn cache_hits_match_a_fresh_setup_for_every_generated_shape() {
        let pairs = generated_pairs();
        // conv3d, stencil and QCD at each of their three sizes.
        assert_eq!(pairs.len(), 9, "the generator's unsalted shape set changed");
        let mut inputs = Inputs::default();
        for (a, b) in &pairs {
            let mut filled = k40m();
            inputs.setup(&mut filled, a).unwrap();
            let mut copied = k40m();
            let hit = inputs.setup(&mut copied, b).unwrap();
            let mut fresh = k40m();
            let want = b.shape.setup(&mut fresh, b.id).unwrap();
            let what = format!("{} job {}", b.shape.name(), b.id);
            assert_eq!(all_bits(&copied, &hit), all_bits(&fresh, &want), "{what}");
            assert_eq!(copied.now(), fresh.now(), "{what}: host clocks differ");
        }
        assert_eq!(inputs.fills, pairs.len() as u64, "one fill per data key");
    }

    #[test]
    fn the_cache_keeps_its_own_copy_of_the_inputs() {
        // Two GEMM jobs of one shape, whose salts (their ids) differ.
        let gemm = WorkloadConfig::new(0x1A9F, 100, 1)
            .generate()
            .into_iter()
            .find(|j| j.shape.data_key(j.id).is_salted())
            .unwrap();
        let mut pairs = generated_pairs();
        pairs.push((gemm.clone(), JobSpec { id: 1 << 20, ..gemm }));
        let mut inputs = Inputs::default();
        for (a, b) in &pairs {
            let mut gpu = k40m();
            // Both the job that filled the cache and one that copied
            // from it (a salted pair shares nothing) scribble over their
            // inputs, as a kernel writing in place would; the oracle and
            // a later job must still see the seeded bits.
            for job in [a, b] {
                let inst = inputs.setup(&mut gpu, job).unwrap();
                for buf in input_buffers(&inst) {
                    let len = gpu.host_len(buf).unwrap();
                    gpu.host_write(buf, 0, &vec![f32::NAN; len]).unwrap();
                }
                let mut fresh = k40m();
                let seeded = job.shape.setup(&mut fresh, job.id).unwrap();
                let seeded: Vec<_> = input_buffers(&seeded)
                    .map(|b| read_host(&fresh, b).unwrap())
                    .collect();
                let want = job.shape.cpu_reference(&seeded);
                assert!(
                    same_bits(inputs.reference(job), &want),
                    "{} job {}: the oracle missed the job's seeded inputs",
                    job.shape.name(),
                    job.id
                );
            }
            let again = inputs.setup(&mut gpu, b).unwrap();
            let mut fresh = k40m();
            let want = b.shape.setup(&mut fresh, b.id).unwrap();
            assert_eq!(
                all_bits(&gpu, &again),
                all_bits(&fresh, &want),
                "{}: a served job's writes reached the cache",
                b.shape.name()
            );
            inputs.retire(a);
            inputs.retire(b);
        }
        // One evaluation per unsalted key and per salted job.
        assert_eq!(inputs.oracle_runs, 9 + 2);
        let (a, b) = pairs.last().unwrap();
        for key in [a, b].map(|j| j.shape.data_key(j.id)) {
            assert!(
                !inputs.bits.contains_key(&key) && !inputs.references.contains_key(&key),
                "a retired salted job left its entry behind"
            );
        }
        assert_eq!(inputs.bits.len(), 9, "an unsalted key lost its inputs");
    }

    #[test]
    fn bind_only_probe_matches_a_full_setup() {
        let shapes = [
            JobShape::Conv3d(Conv3dConfig::test_small()),
            JobShape::Stencil(StencilConfig::test_small()),
            JobShape::Gemm(GemmConfig {
                n: 16,
                bs: 4,
                chunk: 1,
                streams: 2,
            }),
            JobShape::Qcd(QcdConfig::test_small()),
        ];
        let models = [
            ExecModel::Naive,
            ExecModel::Pipelined,
            ExecModel::PipelinedBuffer,
        ];
        let mut probed = Fleet::build(2).unwrap();
        let mut full = Fleet::build(2).unwrap();
        probed.calibrate().unwrap();
        full.calibrate().unwrap();
        for shape in &shapes {
            for &model in &models {
                let got = probe_table(&mut probed.gpus[0], &probed.models, shape, model).unwrap();
                // The probe as it was before it skipped the fills.
                let gpu = &mut full.gpus[0];
                let inst = shape.setup(gpu, 7).unwrap();
                let iters = shape.iterations().max(1) as u64;
                let want = per_iter_table(
                    gpu,
                    &full.models,
                    &inst.region,
                    &*inst.builder,
                    model,
                    shape.schedule(),
                    iters,
                )
                .unwrap();
                for &b in &inst.buffers {
                    gpu.free_host(b).unwrap();
                }
                let what = format!("{} under {model:?}", shape.name());
                assert_eq!(got, want, "{what}: cost tables differ");
                assert_eq!(
                    probed.gpus[0].now(),
                    full.gpus[0].now(),
                    "{what}: host clocks differ"
                );
            }
        }
        assert_eq!(probed.pool.live_bufs(), full.pool.live_bufs());
    }

    #[test]
    fn same_bits_catches_one_flipped_bit_and_length_mismatch() {
        let want = vec![1.0f32, -2.5, f32::NAN, 0.0];
        assert!(same_bits(&want, &want));
        for i in 0..want.len() {
            for bit in [0, 22, 31] {
                let mut got = want.clone();
                got[i] = f32::from_bits(got[i].to_bits() ^ (1 << bit));
                assert!(!same_bits(&got, &want), "flip of bit {bit} at {i} passed");
            }
        }
        assert!(!same_bits(&want[..3], &want));
        assert!(!same_bits(&want, &want[..3]));
        assert!(!same_bits(&[], &want));
    }
}
