//! Property test: the indexed, strided race detector ([`RaceLog`]) gives
//! the same race/no-race verdict as the naive O(n²) per-row reference
//! ([`NaiveRaceLog`]) on random command interleavings — including across
//! retirement of old records, which must never change an outcome.

use gpsim::race::{AccessRange, NaiveRaceLog, RaceLog};
use gpsim::{Label, SimTime};
use proptest::collection::vec;
use proptest::prelude::*;

/// (alloc, lo, row_elems, extra_stride, rows) — compact generator shape
/// for a possibly-strided access range.
type RangeSpec = (u32, usize, usize, usize, usize);

fn build_ranges(specs: &[RangeSpec]) -> Vec<AccessRange> {
    specs
        .iter()
        .map(|&(alloc, lo, row_elems, extra, rows)| {
            AccessRange::strided(alloc, lo, row_elems, row_elems + extra, rows)
        })
        .collect()
}

fn range_spec() -> impl Strategy<Value = RangeSpec> {
    (0u32..3, 0usize..48, 1usize..6, 0usize..6, 1usize..5)
}

/// (start_advance, duration, reads, writes) for one command.
type CmdSpec = (u64, u64, Vec<RangeSpec>, Vec<RangeSpec>);

fn cmd_spec() -> impl Strategy<Value = CmdSpec> {
    (
        0u64..8,
        1u64..40,
        vec(range_spec(), 0..3),
        vec(range_spec(), 0..3),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn optimized_log_matches_naive_reference(cmds in vec(cmd_spec(), 0..40)) {
        let mut fast = RaceLog::new();
        let mut naive = NaiveRaceLog::new();
        // Monotonically nondecreasing start times, as the simulator
        // produces them (commands dispatch in time order); this also
        // makes `start` a valid retirement frontier at every step.
        let mut now = 0u64;
        for (i, (adv, dur, reads, writes)) in cmds.iter().enumerate() {
            now += adv;
            let start = SimTime::from_ns(now);
            let end = SimTime::from_ns(now + dur);
            let label = Label::from(format!("cmd{i}"));
            let r = build_ranges(reads);
            let w = build_ranges(writes);
            let got = fast.check_insert(label.clone(), start, end, r.clone(), w.clone());
            let want = naive.check_insert(label, start, end, r, w);
            prop_assert_eq!(
                got.is_err(),
                want.is_err(),
                "insert {}: optimized said {:?}, naive said {:?}",
                i,
                got,
                want
            );
            // Exercise amortized retirement mid-stream: every record
            // ending at or before the current start can never overlap a
            // future command, so dropping them must not change verdicts.
            if i % 7 == 6 {
                fast.retire(start);
            }
        }
    }

    #[test]
    fn conflicting_insert_leaves_log_usable(
        lo in 0usize..32,
        len in 1usize..16,
        dur in 1u64..50,
    ) {
        // A rejected insert is not stored (the simulator aborts the
        // command): re-checking the same non-conflicting access later
        // must still succeed on both implementations.
        let mut fast = RaceLog::new();
        let mut naive = NaiveRaceLog::new();
        let w = vec![AccessRange::contiguous(0, lo, lo + len)];
        let t = |ns| SimTime::from_ns(ns);
        prop_assert!(fast
            .check_insert("a".into(), t(0), t(dur), vec![], w.clone())
            .is_ok());
        prop_assert!(naive
            .check_insert("a".into(), t(0), t(dur), vec![], w.clone())
            .is_ok());
        // Overlapping writer in the same window: both reject.
        prop_assert!(fast
            .check_insert("b".into(), t(0), t(dur), vec![], w.clone())
            .is_err());
        prop_assert!(naive
            .check_insert("b".into(), t(0), t(dur), vec![], w.clone())
            .is_err());
        // After the first writer finishes, the same range is free again.
        prop_assert!(fast
            .check_insert("c".into(), t(dur), t(dur + 1), vec![], w.clone())
            .is_ok());
        prop_assert!(naive
            .check_insert("c".into(), t(dur), t(dur + 1), vec![], w)
            .is_ok());
    }
}
