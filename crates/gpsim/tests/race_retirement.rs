//! Deterministic oracle tests for incremental race-record retirement:
//! a scripted interleaving of `check_insert` and `retire` where every
//! verdict is known by hand, checked against the naive O(n²) reference
//! at each step. Complements the randomized equivalence suite with a
//! case-by-case script that pins down the retirement semantics —
//! records ending at or before the frontier are dropped, and dropping
//! them never changes a future verdict.

use gpsim::race::{AccessRange, NaiveRaceLog, RaceLog};
use gpsim::SimTime;

struct Pair {
    fast: RaceLog,
    naive: NaiveRaceLog,
}

impl Pair {
    fn new() -> Pair {
        Pair {
            fast: RaceLog::new(),
            naive: NaiveRaceLog::new(),
        }
    }

    /// Insert into both logs, assert they agree, and return the shared
    /// verdict (`true` = accepted).
    fn insert(
        &mut self,
        label: &str,
        t0: u64,
        t1: u64,
        reads: Vec<AccessRange>,
        writes: Vec<AccessRange>,
    ) -> bool {
        let got = self.fast.check_insert(
            label.to_string().into(),
            SimTime::from_ns(t0),
            SimTime::from_ns(t1),
            reads.clone(),
            writes.clone(),
        );
        let want = self.naive.check_insert(
            label.to_string().into(),
            SimTime::from_ns(t0),
            SimTime::from_ns(t1),
            reads,
            writes,
        );
        assert_eq!(
            got.is_ok(),
            want.is_ok(),
            "{label}: optimized said {got:?}, naive said {want:?}"
        );
        got.is_ok()
    }

    /// Retire the *fast* log only: the naive oracle keeps every record
    /// forever, which is exactly what makes it an oracle for retirement
    /// — if dropping expired records ever changed a verdict, the two
    /// logs would disagree on a later insert.
    fn retire(&mut self, frontier: u64) {
        self.fast.retire(SimTime::from_ns(frontier));
    }
}

fn span(lo: usize, hi: usize) -> Vec<AccessRange> {
    vec![AccessRange::contiguous(0, lo, hi)]
}

#[test]
fn retirement_frontier_drops_expired_records_only() {
    let mut p = Pair::new();
    // Writer A holds [0,16) over [0,10).
    assert!(p.insert("A", 0, 10, vec![], span(0, 16)));
    // Reader B on the same range, starting exactly when A ends: no race.
    assert!(p.insert("B", 10, 20, span(0, 16), vec![]));
    // Retire at the frontier 10: A (ends at 10) is dropped, B stays.
    p.retire(10);
    // Writer C overlapping live reader B in time and space: rejected —
    // retirement must NOT have taken B with it.
    assert!(!p.insert("C", 12, 15, vec![], span(0, 16)));
    // Writer D after B ends: accepted. (The rejected C was not stored.)
    assert!(p.insert("D", 20, 30, vec![], span(0, 16)));
    // Retire at 20: B goes, in-flight D (ends 30) must survive.
    p.retire(20);
    assert!(!p.insert("E", 25, 28, vec![], span(0, 16)));
    // Disjoint range at the same instant is still fine.
    assert!(p.insert("F", 25, 28, vec![], span(16, 32)));
    // After D ends the original range frees up again.
    assert!(p.insert("G", 30, 40, span(0, 16), vec![]));
}

#[test]
fn retirement_with_strided_records_keeps_gap_semantics() {
    let mut p = Pair::new();
    // Strided writer: 4 rows of 4 elems with stride 8 → touches
    // [0,4) [8,12) [16,20) [24,28) over [0,100).
    let strided = vec![AccessRange::strided(0, 0, 4, 8, 4)];
    assert!(p.insert("W", 0, 100, vec![], strided.clone()));
    // A reader inside a stride gap races nowhere, even while W is live.
    assert!(p.insert("gap", 10, 20, span(4, 8), vec![]));
    // A reader overlapping the third row does race.
    assert!(!p.insert("row2", 10, 20, span(17, 19), vec![]));
    // Frontier below W's end keeps every row armed...
    p.retire(50);
    assert!(!p.insert("row3", 60, 70, span(24, 25), vec![]));
    // ...and a frontier at W's end disarms all of them at once.
    p.retire(100);
    assert!(p.insert("after", 100, 110, vec![], strided));
}

#[test]
fn repeated_retirement_is_idempotent_and_monotone() {
    let mut p = Pair::new();
    for i in 0..8u64 {
        let t0 = i * 10;
        assert!(p.insert(
            &format!("w{i}"),
            t0,
            t0 + 10,
            vec![],
            span((i as usize % 2) * 8, (i as usize % 2) * 8 + 8),
        ));
        // Retire after every insert — the frontier equals the current
        // start, so exactly the fully-elapsed records drop each time.
        p.retire(t0);
        p.retire(t0); // idempotent: a second pass drops nothing new
    }
    // All eight writers alternate two disjoint ranges in disjoint time
    // windows, so the final state accepts both ranges immediately after
    // the last writer ends.
    assert!(p.insert("r0", 80, 90, span(0, 8), vec![]));
    assert!(p.insert("r1", 80, 90, span(8, 16), vec![]));
}
