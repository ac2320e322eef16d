//! Parallel sweep engine: fan independent simulation trials over OS
//! threads.
//!
//! Everything this workspace measures — figure grids, autotuning, cost
//! probes — is a list of *independent* simulations: each trial builds
//! its own [`Gpu`](gpsim::Gpu) context, runs a region, and returns plain
//! data. The contexts are deliberately `!Send` (host pools are
//! `Rc<RefCell<..>>`), so parallelism happens at the *trial* granularity:
//! the worker closure receives a trial index, constructs every context
//! it needs inside the worker thread, and only the `Send` result crosses
//! back.
//!
//! Determinism: results are scattered into their slot by trial index, so
//! the output of [`sweep_map`] is byte-for-byte the same as the serial
//! loop `(0..n).map(f).collect()` regardless of thread count or
//! scheduling (each trial is a closed simulation with its own clock —
//! nothing about a trial depends on which worker ran it or when).
//!
//! Thread count comes from [`sweep_threads`]: the `DBPP_SWEEP_THREADS`
//! environment variable when set, otherwise
//! [`std::thread::available_parallelism`]. `DBPP_SWEEP_THREADS=1`
//! forces the serial path (no threads are spawned at all).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Worker-pool size used by [`sweep_map`]: `DBPP_SWEEP_THREADS` if set
/// to a positive integer, else the machine's available parallelism
/// (falling back to 1 if that is unavailable).
pub fn sweep_threads() -> usize {
    if let Ok(v) = std::env::var("DBPP_SWEEP_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Run `f(0), f(1), …, f(n-1)` across [`sweep_threads`] workers and
/// return the results in index order.
///
/// Equivalent to `(0..n).map(f).collect()` — including panic behaviour
/// (a panicking trial propagates after all workers join) — but
/// wall-clock scales with the thread count. See the module docs for the
/// determinism argument.
pub fn sweep_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    sweep_map_threads(sweep_threads(), n, f)
}

/// [`sweep_map`] with an explicit worker count (`threads == 1` runs
/// inline without spawning).
pub fn sweep_map_threads<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // Dynamic (work-stealing-ish) assignment: uneven trial
                // costs — a qcd-large cell next to a qcd-small one —
                // self-balance instead of idling a statically-partitioned
                // worker.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                slots.lock().expect("sweep result lock")[i] = Some(value);
            });
        }
    });
    slots
        .into_inner()
        .expect("sweep result lock")
        .into_iter()
        .map(|slot| slot.expect("every trial index visited"))
        .collect()
}

/// [`sweep_map`] with **per-worker reusable state**: each worker thread
/// lazily builds one `S` via `init` on its first trial and passes it by
/// mutable reference to every trial it runs.
///
/// This is how a sweep amortizes expensive non-`Send` setup — a
/// simulated [`Gpu`](gpsim::Gpu) context plus its pinned host arrays —
/// across trials instead of rebuilding it per trial: the state never
/// crosses threads (it is created and dropped inside the worker), so
/// `S` needs neither `Send` nor `Sync`. Trials must leave the state
/// *quiesced* (device synchronized, everything freed) so results stay
/// independent of which worker ran them; determinism then follows from
/// the same argument as [`sweep_map`].
pub fn sweep_map_with<S, T, I, F>(n: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = sweep_threads().clamp(1, n.max(1));
    if threads <= 1 {
        let mut state = None;
        return (0..n)
            .map(|i| f(state.get_or_insert_with(&init), i))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                // Built on first trial: a worker that never wins a trial
                // (more workers than trials) never pays for the state.
                let mut state: Option<S> = None;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let value = f(state.get_or_insert_with(&init), i);
                    slots.lock().expect("sweep result lock")[i] = Some(value);
                }
            });
        }
    });
    slots
        .into_inner()
        .expect("sweep result lock")
        .into_iter()
        .map(|slot| slot.expect("every trial index visited"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_index_order() {
        let out = sweep_map_threads(4, 100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(7);
        assert_eq!(
            sweep_map_threads(1, 33, f),
            sweep_map_threads(8, 33, f),
        );
    }

    #[test]
    fn empty_and_single_trial() {
        assert_eq!(sweep_map_threads(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(sweep_map_threads(8, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn more_threads_than_trials_is_fine() {
        assert_eq!(sweep_map_threads(64, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn workers_can_build_their_own_gpu_contexts() {
        use gpsim::{DeviceProfile, ExecMode, Gpu};
        // The whole point: Gpu is !Send, so each trial builds its own
        // context inside the worker and returns plain data.
        let times = sweep_map_threads(4, 8, |i| {
            let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Timing).unwrap();
            let h = gpu.alloc_host(1 << 12, true).unwrap();
            let d = gpu.alloc(1 << 12).unwrap();
            let s = gpu.create_stream().unwrap();
            for _ in 0..=i {
                gpu.memcpy_h2d_async(s, h, 0, d, 1 << 12).unwrap();
            }
            gpu.synchronize().unwrap();
            gpu.now().as_ns()
        });
        // More copies take longer; each context has its own clock.
        for w in times.windows(2) {
            assert!(w[0] < w[1], "{times:?}");
        }
    }

    #[test]
    fn sweep_threads_is_positive() {
        assert!(sweep_threads() >= 1);
    }

    #[test]
    fn sweep_map_with_builds_at_most_one_state_per_worker() {
        let inits = AtomicUsize::new(0);
        let out = sweep_map_with(
            16,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u32
            },
            |st, i| {
                *st += 1;
                i
            },
        );
        assert_eq!(out, (0..16).collect::<Vec<_>>());
        let built = inits.load(Ordering::Relaxed);
        assert!(built >= 1);
        assert!(built <= sweep_threads().clamp(1, 16), "built {built} states");
    }

    #[test]
    fn sweep_map_with_matches_plain_map() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(7);
        let out = sweep_map_with(33, || (), |(), i| f(i));
        assert_eq!(out, (0..33).map(f).collect::<Vec<_>>());
    }
}
