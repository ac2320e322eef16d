//! Oracle for the live-stream index: a context that already created and
//! destroyed many streams must simulate a program exactly like a fresh
//! one. Destroyed streams are drained before they die and never take
//! work again, so skipping them in per-step bookkeeping may not move a
//! single command or counter.

use gpsim::{
    Counters, DeviceProfile, ExecMode, Gpu, KernelCost, KernelLaunch, SimError, SimTime,
    TimelineKind,
};

/// Per engine command, relative to the program's start on the host
/// clock: (kind, label, start, end).
type Trace = Vec<(TimelineKind, String, u64, u64)>;

fn kernel(name: &'static str, flops: u64) -> KernelLaunch {
    KernelLaunch::cost_only(
        name,
        KernelCost {
            flops,
            bytes: flops / 4,
        },
    )
}

/// Two streams: H2D, kernels and D2H on each, linked by cross-stream
/// event record/wait in both directions, with copies in flight on both
/// copy engines at once. Destroys its streams at the end.
fn program(g: &mut Gpu) -> (Trace, Counters) {
    let t0 = g.now().as_ns();
    let s = [g.create_stream().unwrap(), g.create_stream().unwrap()];
    let (ready, back) = (g.create_event(), g.create_event());
    let host: Vec<_> = (0..4)
        .map(|_| g.alloc_host(1 << 18, true).unwrap())
        .collect();
    let dev: Vec<_> = (0..4).map(|_| g.alloc(1 << 18).unwrap()).collect();

    g.memcpy_h2d_async(s[0], host[0], 0, dev[0], 1 << 18)
        .unwrap();
    g.launch(s[0], kernel("produce", 1 << 30)).unwrap();
    g.record_event(s[0], ready).unwrap();
    g.memcpy_h2d_async(s[1], host[1], 0, dev[1], 1 << 17)
        .unwrap();
    g.wait_event(s[1], ready).unwrap();
    g.launch(s[1], kernel("consume", 1 << 29)).unwrap();
    g.memcpy_d2h_async(s[1], dev[1], 1 << 17, host[2], 0)
        .unwrap();
    g.record_event(s[1], back).unwrap();
    g.memcpy_h2d_async(s[0], host[3], 0, dev[3], 1 << 18)
        .unwrap();
    g.memcpy_d2h_async(s[0], dev[0], 1 << 18, host[0], 0)
        .unwrap();
    g.wait_event(s[0], back).unwrap();
    g.launch(s[0], kernel("finish", 1 << 28)).unwrap();
    g.memcpy_d2h_async(s[0], dev[3], 1 << 16, host[3], 0)
        .unwrap();
    g.synchronize().unwrap();
    for id in s {
        g.destroy_stream(id).unwrap();
    }

    let trace = g
        .timeline()
        .iter()
        .map(|t| (t.kind, t.label.to_string(), t.start_ns - t0, t.end_ns - t0))
        .collect();
    (trace, g.counters().clone())
}

#[test]
fn stream_churn_leaves_the_simulation_unchanged() {
    let mut fresh = Gpu::new(DeviceProfile::k40m(), ExecMode::Timing).unwrap();
    let expect = program(&mut fresh);

    let mut churned = Gpu::new(DeviceProfile::k40m(), ExecMode::Timing).unwrap();
    let mut dead = Vec::new();
    for _ in 0..1000 {
        let s = churned.create_stream().unwrap();
        churned.destroy_stream(s).unwrap();
        dead.push(s);
    }
    assert_eq!(
        churned.stream_count(),
        1,
        "only the default stream is alive"
    );
    churned.reset_counters();
    let got = program(&mut churned);

    assert_eq!(expect.0.len(), 9, "every engine command retired");
    assert!(
        expect.1.kernel_time > SimTime::ZERO && expect.1.d2h_count == 3,
        "{:?}",
        expect.1
    );
    assert_eq!(
        got.0, expect.0,
        "per-command (start, end) moved after churn"
    );
    assert_eq!(got.1, expect.1, "counters moved after churn");
    assert_eq!(churned.stream_count(), 1);

    // Ids are never reused: a destroyed id still reports as destroyed.
    let h = churned.alloc_host(8, true).unwrap();
    let d = churned.alloc(8).unwrap();
    for s in [dead[0], dead[999]] {
        match churned.memcpy_h2d_async(s, h, 0, d, 8) {
            Err(SimError::InvalidHandle(msg)) => assert!(msg.contains("destroyed"), "{msg}"),
            other => panic!("enqueue on destroyed stream {s:?}: {other:?}"),
        }
    }
}
