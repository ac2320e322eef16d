//! A dropped context parks its per-command buffers for the next context
//! on its thread (see "Buffer reuse" on [`Gpu`]). Only capacity may cross:
//! a program run on a context built right after a larger, different one
//! was dropped must produce exactly the records, counters, event ids,
//! failures and clocks it produces on a context built on a fresh thread.

use gpsim::{Counters, DeviceProfile, ExecMode, FaultPlan, Gpu, KernelCost, KernelLaunch, SimTime};

const ELEMS: usize = 512;
const CHUNKS: usize = 4;

/// Everything the reference program observes, rendered so that a run on
/// one thread can be compared with a run on another.
#[derive(Debug, PartialEq)]
struct Outcome {
    results: Vec<String>,
    event_ids: Vec<String>,
    timeline: String,
    host_spans: String,
    wait_records: String,
    counters: String,
    failures: String,
    health: String,
    now: SimTime,
    output: Vec<f32>,
}

/// Two streams: chunked H2D and a kernel on the first, an event record,
/// a cross-stream wait and D2H on the second, then a stream sync and a
/// device sync. Recording, the race checker and a seeded fault plan are
/// all on; every call's result is kept, errors included.
fn program(g: &mut Gpu) -> Outcome {
    g.set_race_check(true);
    g.set_fault_plan(Some(
        FaultPlan::seeded(11)
            .h2d_rate(0.2)
            .kernel_rate(0.2)
            .spikes(0.3, 3.0),
    ));
    let mut results = Vec::new();
    let mut event_ids = Vec::new();
    let d_in = g.alloc(ELEMS).unwrap();
    let d_out = g.alloc(ELEMS).unwrap();
    let h_in = g.alloc_host(ELEMS, true).unwrap();
    let h_out = g.alloc_host(ELEMS, true).unwrap();
    g.host_fill(h_in, |i| i as f32).unwrap();
    let up = g.create_stream().unwrap();
    let down = g.create_stream().unwrap();
    let n = ELEMS / CHUNKS;
    for c in 0..CHUNKS {
        let off = c * n;
        let (src, dst) = (d_in.add(off), d_out.add(off));
        let ev = g.create_event();
        event_ids.push(format!("{ev:?}"));
        results.push(format!("{:?}", g.memcpy_h2d_async(up, h_in, off, src, n)));
        let kernel = KernelLaunch::new("scale", KernelCost::default(), move |kc| {
            let v: Vec<f32> = kc.read(src, n)?.iter().map(|x| 2.0 * x).collect();
            kc.write(dst, n)?.copy_from_slice(&v);
            Ok(())
        })
        .reading(src, n)
        .writing(dst, n);
        results.push(format!("{:?}", g.launch(up, kernel)));
        results.push(format!("{:?}", g.record_event(up, ev)));
        results.push(format!("{:?}", g.wait_event(down, ev)));
        results.push(format!(
            "{:?}",
            g.memcpy_d2h_async(down, dst, n, h_out, off)
        ));
    }
    results.push(format!("{:?}", g.stream_synchronize(down)));
    results.push(format!("{:?}", g.synchronize()));
    let mut output = vec![0.0; ELEMS];
    g.host_read(h_out, 0, &mut output).unwrap();
    Outcome {
        results,
        event_ids,
        timeline: format!("{:?}", g.timeline()),
        host_spans: format!("{:?}", g.host_spans()),
        wait_records: format!("{:?}", g.wait_records()),
        counters: format!("{:?}", g.counters()),
        failures: format!("{:?}", g.take_failures()),
        health: format!("{:?}", g.health()),
        now: g.now(),
        output,
    }
}

/// A larger context on another profile and mode: more streams, events and
/// commands and its own spike plan. A sync rebases its arena away from 0,
/// and it is dropped with work still queued, so the arena it parks holds
/// entries.
fn larger_context_dropped() {
    let mut g = Gpu::new(DeviceProfile::k40m(), ExecMode::Timing).unwrap();
    g.set_fault_plan(Some(FaultPlan::seeded(3).spikes(0.2, 5.0)));
    let d = g.alloc(1 << 16).unwrap();
    let h = g.alloc_host(1 << 16, false).unwrap();
    let streams: Vec<_> = (0..4).map(|_| g.create_stream().unwrap()).collect();
    for c in 0..64 {
        let (s, t) = (streams[c % 4], streams[(c + 1) % 4]);
        let off = (c % 64) * 1024;
        let ev = g.create_event();
        g.memcpy_h2d_async(s, h, off, d.add(off), 1024).unwrap();
        g.launch(s, KernelLaunch::cost_only("big", KernelCost::default()))
            .unwrap();
        g.record_event(s, ev).unwrap();
        g.wait_event(t, ev).unwrap();
        g.memcpy_d2h_async(t, d.add(off), 1024, h, off).unwrap();
    }
    g.synchronize().unwrap();
    assert!(
        g.timeline().len() > 3 * CHUNKS * 4,
        "the donor must be the larger context"
    );
    g.memcpy_h2d_async(streams[0], h, 0, d, 1024).unwrap();
    g.launch(
        streams[1],
        KernelLaunch::cost_only("pending", KernelCost::default()),
    )
    .unwrap();
    assert!(g.health().queued + g.health().in_flight > 0);
}

fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::spawn(f).join().expect("test thread panicked")
}

fn uniform() -> Gpu {
    Gpu::new(DeviceProfile::uniform_test(), ExecMode::Functional).unwrap()
}

#[test]
fn recycled_context_runs_a_program_exactly_like_a_fresh_one() {
    let fresh = on_fresh_thread(|| program(&mut uniform()));
    assert!(
        fresh.failures != "[]",
        "the fault plan must fire: {}",
        fresh.failures
    );
    assert!(
        fresh.wait_records != "[]",
        "a cross-stream wait must delay a stream"
    );
    let recycled = on_fresh_thread(|| {
        larger_context_dropped();
        program(&mut uniform())
    });
    assert_eq!(recycled, fresh);
}

#[test]
fn new_context_starts_with_empty_records() {
    on_fresh_thread(|| {
        larger_context_dropped();
        let mut g = uniform();
        assert!(g.timeline().is_empty());
        assert!(g.host_spans().is_empty());
        assert!(g.wait_records().is_empty());
        assert_eq!(g.counters(), &Counters::default());
        assert_eq!(g.next_seq(), 0);
        assert!(g.take_failures().is_empty());
        assert_eq!(format!("{:?}", g.create_event()), "EventId(0)");
    });
}
