//! Concurrent-access race detection over declared device-memory ranges.
//!
//! The simulator records, for every completed engine command, the device
//! ranges it read and wrote together with its execution interval. Two
//! commands race when their intervals overlap in time, they touch the
//! same allocation, their element ranges intersect, and at least one of
//! them writes.
//!
//! Two detectors live here:
//!
//! * [`RaceLog`] — the production detector. Ranges are kept in **strided**
//!   form (a pitched 2-D copy is one record, not one per row), records
//!   are indexed **per allocation** and sorted by completion time so an
//!   overlap query only walks records that can still overlap in time.
//!   Retirement is **fully incremental**: each per-allocation list is
//!   end-sorted, so records behind the retirement frontier are dropped
//!   from the list head — on [`RaceLog::retire`] and again on the query
//!   path — and each record is popped exactly once per list it sits in.
//!   There is no periodic slab rescan or index rebuild.
//! * [`NaiveRaceLog`] — an O(n²·rows²) reference that expands every
//!   strided range to per-row contiguous ranges and compares all pairs.
//!   It exists so property tests can assert the optimized detector gives
//!   exactly the same race/no-race verdicts.

use std::collections::{HashMap, VecDeque};

use crate::label::Label;
use crate::time::SimTime;

/// A (possibly strided) range of device elements inside one allocation.
///
/// Row `k` (for `k` in `0..rows`) covers `[lo + k·stride, lo + k·stride
/// + row_elems)`. A contiguous range is the `rows == 1` case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRange {
    /// Raw allocation id the range lives in.
    pub alloc: u32,
    /// First element of the first row.
    pub lo: usize,
    /// Contiguous elements per row.
    pub row_elems: usize,
    /// Distance between row starts, in elements (≥ `row_elems`).
    pub stride: usize,
    /// Number of rows (≥ 1).
    pub rows: usize,
}

impl AccessRange {
    /// A contiguous range `[lo, hi)`.
    pub fn contiguous(alloc: u32, lo: usize, hi: usize) -> AccessRange {
        debug_assert!(lo < hi, "empty access range");
        AccessRange {
            alloc,
            lo,
            row_elems: hi - lo,
            stride: hi - lo,
            rows: 1,
        }
    }

    /// A strided range of `rows` rows of `row_elems` elements each.
    pub fn strided(alloc: u32, lo: usize, row_elems: usize, stride: usize, rows: usize) -> AccessRange {
        debug_assert!(row_elems > 0 && rows > 0, "empty access range");
        debug_assert!(stride >= row_elems, "stride smaller than row");
        AccessRange {
            alloc,
            lo,
            row_elems,
            stride,
            rows,
        }
    }

    /// One past the last element of the bounding interval.
    pub fn span_end(&self) -> usize {
        self.lo + (self.rows - 1) * self.stride + self.row_elems
    }

    /// Whether any element is covered by both ranges. Exact (not a
    /// bounding-box approximation) and O(1) except when both ranges are
    /// strided with *different* pitches, where it walks the smaller row
    /// count.
    pub fn intersects(&self, other: &AccessRange) -> bool {
        if self.alloc != other.alloc {
            return false;
        }
        if !(self.lo < other.span_end() && other.lo < self.span_end()) {
            return false;
        }
        if self.rows == 1 {
            return other.intersects_contiguous(self.lo, self.lo + self.row_elems);
        }
        if other.rows == 1 {
            return self.intersects_contiguous(other.lo, other.lo + other.row_elems);
        }
        if self.stride == other.stride {
            // Row i of self and row j of other intersect iff, with
            // m = i - j and d = other.lo - self.lo:
            //   m·stride < d + other.row_elems   and
            //   m·stride > d - self.row_elems.
            // A valid (i, j) pair exists for any m in
            // [-(other.rows-1), self.rows-1].
            let st = self.stride as i128;
            let d = other.lo as i128 - self.lo as i128;
            let m_hi = div_floor(d + other.row_elems as i128 - 1, st).min(self.rows as i128 - 1);
            let m_lo = div_ceil(d - self.row_elems as i128 + 1, st).max(-(other.rows as i128 - 1));
            return m_lo <= m_hi;
        }
        // Mixed pitches within one allocation are rare; walk the smaller
        // side row by row.
        let (small, big) = if self.rows <= other.rows {
            (self, other)
        } else {
            (other, self)
        };
        (0..small.rows).any(|r| {
            let lo = small.lo + r * small.stride;
            big.intersects_contiguous(lo, lo + small.row_elems)
        })
    }

    fn intersects_contiguous(&self, c_lo: usize, c_hi: usize) -> bool {
        if !(self.lo < c_hi && c_lo < self.span_end()) {
            return false;
        }
        if self.rows == 1 {
            return true; // bounding intervals overlap and both are contiguous
        }
        // Row k covers [lo + k·stride, lo + k·stride + row_elems); it
        // intersects [c_lo, c_hi) iff
        //   k·stride < c_hi - lo   and   k·stride > c_lo - lo - row_elems.
        let st = self.stride as i128;
        let k_hi = div_floor(c_hi as i128 - self.lo as i128 - 1, st).min(self.rows as i128 - 1);
        let k_lo = div_ceil(c_lo as i128 - self.lo as i128 - self.row_elems as i128 + 1, st).max(0);
        k_lo <= k_hi
    }
}

fn div_floor(a: i128, b: i128) -> i128 {
    a.div_euclid(b)
}

fn div_ceil(a: i128, b: i128) -> i128 {
    -((-a).div_euclid(b))
}

/// Which access pair conflicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictKind {
    /// Both commands wrote.
    WriteWrite,
    /// The new command wrote what an older one read.
    WriteRead,
    /// The new command read what an older one wrote.
    ReadWrite,
}

/// A detected race between the inserted record and a stored one.
#[derive(Debug, Clone)]
pub struct RaceConflict {
    /// Conflict classification.
    pub kind: ConflictKind,
    /// Label of the record being inserted.
    pub label_new: Label,
    /// Label of the stored record it conflicts with.
    pub label_old: Label,
    /// The inserted record's conflicting range.
    pub range_new: AccessRange,
    /// The stored record's conflicting range.
    pub range_old: AccessRange,
}

/// Declared access ranges of one completed command.
#[derive(Debug, Clone)]
struct Record {
    label: Label,
    start: SimTime,
    end: SimTime,
    reads: Vec<AccessRange>,
    writes: Vec<AccessRange>,
    /// Number of per-allocation lists holding this record; the slab slot
    /// is freed when the last list drops it. Unused by [`NaiveRaceLog`].
    refs: u32,
}

impl Record {
    fn conflict_with(&self, prev: &Record) -> Option<RaceConflict> {
        if !(self.start < prev.end && prev.start < self.end) {
            return None;
        }
        let hit = |kind: ConflictKind, a: &AccessRange, b: &AccessRange| RaceConflict {
            kind,
            label_new: self.label.clone(),
            label_old: prev.label.clone(),
            range_new: *a,
            range_old: *b,
        };
        for w in &self.writes {
            for pw in &prev.writes {
                if w.intersects(pw) {
                    return Some(hit(ConflictKind::WriteWrite, w, pw));
                }
            }
            for pr in &prev.reads {
                if w.intersects(pr) {
                    return Some(hit(ConflictKind::WriteRead, w, pr));
                }
            }
        }
        for r in &self.reads {
            for pw in &prev.writes {
                if r.intersects(pw) {
                    return Some(hit(ConflictKind::ReadWrite, r, pw));
                }
            }
        }
        None
    }

    fn allocs(&self) -> impl Iterator<Item = u32> + '_ {
        self.reads
            .iter()
            .chain(self.writes.iter())
            .map(|r| r.alloc)
    }
}

/// The production race detector: per-allocation index, end-sorted record
/// lists for early query cut-off, and fully incremental retirement —
/// dead records are popped off the head of each end-sorted list (on
/// [`RaceLog::retire`] and on the query path), each exactly once per
/// list membership, with slab slots recycled through a free list.
#[derive(Debug, Default)]
pub struct RaceLog {
    records: Vec<Option<Record>>,
    /// Recycled slab slots available for the next insert.
    free: Vec<usize>,
    /// Per allocation: indices into `records`, sorted by record end time
    /// (front = oldest to finish, the first to retire).
    by_alloc: HashMap<u32, VecDeque<usize>>,
    /// Retirement frontier: every command still running or yet to be
    /// dispatched starts at or after this instant.
    frontier: SimTime,
    live: usize,
}

/// Pop dead records (`end <= frontier`) off the head of one allocation
/// list, freeing slab slots whose last list membership dropped. Free
/// function so callers can split borrows across `RaceLog` fields.
fn prune_front(
    records: &mut [Option<Record>],
    free: &mut Vec<usize>,
    live: &mut usize,
    list: &mut VecDeque<usize>,
    frontier: SimTime,
) {
    while let Some(&idx) = list.front() {
        let rec = records[idx].as_mut().expect("indexed record is live");
        if rec.end > frontier {
            break;
        }
        list.pop_front();
        rec.refs -= 1;
        if rec.refs == 0 {
            records[idx] = None;
            free.push(idx);
            *live -= 1;
        }
    }
}

impl RaceLog {
    /// Empty log.
    pub fn new() -> RaceLog {
        RaceLog::default()
    }

    /// Number of live (non-retired) records.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the log holds no live records.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.records.clear();
        self.free.clear();
        self.by_alloc.clear();
        self.frontier = SimTime::ZERO;
        self.live = 0;
    }

    /// Check the command's declared accesses against every stored record
    /// it can overlap with; on success, store it. On conflict the record
    /// is **not** stored (matching the simulator, which aborts).
    // The Err variant carries both ranges and labels; it only exists on
    // the abort path, so its size never touches the hot loop.
    #[allow(clippy::result_large_err)]
    pub fn check_insert(
        &mut self,
        label: Label,
        start: SimTime,
        end: SimTime,
        reads: Vec<AccessRange>,
        writes: Vec<AccessRange>,
    ) -> Result<(), RaceConflict> {
        let rec = Record {
            label,
            start,
            end,
            reads,
            writes,
            refs: 0,
        };
        // Walk each touched allocation's record list newest-first; lists
        // are sorted by end time, so the first record that finished at or
        // before `start` bounds the walk — nothing older can overlap.
        // First drop the list's dead prefix (retirement on the query
        // path): each popped record is work already paid for by its
        // insert, so the walk below only ever sees live candidates.
        let mut checked_allocs: Vec<u32> = Vec::new();
        for alloc in rec.allocs() {
            if checked_allocs.contains(&alloc) {
                continue;
            }
            checked_allocs.push(alloc);
            let Some(list) = self.by_alloc.get_mut(&alloc) else {
                continue;
            };
            prune_front(
                &mut self.records,
                &mut self.free,
                &mut self.live,
                list,
                self.frontier,
            );
            for &idx in list.iter().rev() {
                let prev = self.records[idx].as_ref().expect("indexed record is live");
                if prev.end <= rec.start {
                    break;
                }
                if let Some(conflict) = rec.conflict_with(prev) {
                    return Err(conflict);
                }
            }
        }
        if checked_allocs.is_empty() {
            // No declared accesses: the record can never conflict with
            // anything, so there is nothing to index or retire.
            return Ok(());
        }
        let idx = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.records.push(None);
                self.records.len() - 1
            }
        };
        for &alloc in &checked_allocs {
            let list = self.by_alloc.entry(alloc).or_default();
            // Records normally arrive in completion (end) order, making
            // this a push; a binary search keeps the list sorted even for
            // out-of-order insertion (direct API use in tests).
            let pos = list.partition_point(|&i| {
                self.records[i].as_ref().expect("indexed record is live").end <= rec.end
            });
            list.insert(pos, idx);
        }
        let mut rec = rec;
        rec.refs = checked_allocs.len() as u32;
        self.records[idx] = Some(rec);
        self.live += 1;
        Ok(())
    }

    /// Retire records that can no longer overlap anything: every command
    /// still running or yet to be dispatched starts at or after
    /// `frontier`, so records whose interval ends at or before it are
    /// dead. Retirement is incremental — each end-sorted per-allocation
    /// list drops its dead prefix, so a record is popped exactly once per
    /// list it sits in (amortized O(1) per record, no slab rebuild).
    pub fn retire(&mut self, frontier: SimTime) {
        if frontier <= self.frontier {
            return;
        }
        self.frontier = frontier;
        for list in self.by_alloc.values_mut() {
            prune_front(
                &mut self.records,
                &mut self.free,
                &mut self.live,
                list,
                frontier,
            );
        }
    }
}

/// Reference detector: expands strided ranges to per-row contiguous
/// ranges and compares the new record against every stored one. Only
/// meant for equivalence testing of [`RaceLog`].
#[derive(Debug, Default)]
pub struct NaiveRaceLog {
    records: Vec<Record>,
}

impl NaiveRaceLog {
    /// Empty log.
    pub fn new() -> NaiveRaceLog {
        NaiveRaceLog::default()
    }

    /// Same contract as [`RaceLog::check_insert`], O(n²·rows²).
    #[allow(clippy::result_large_err)]
    pub fn check_insert(
        &mut self,
        label: Label,
        start: SimTime,
        end: SimTime,
        reads: Vec<AccessRange>,
        writes: Vec<AccessRange>,
    ) -> Result<(), RaceConflict> {
        fn expand(ranges: &[AccessRange]) -> Vec<AccessRange> {
            let mut out = Vec::new();
            for r in ranges {
                for k in 0..r.rows {
                    let lo = r.lo + k * r.stride;
                    out.push(AccessRange::contiguous(r.alloc, lo, lo + r.row_elems));
                }
            }
            out
        }
        let rec = Record {
            label,
            start,
            end,
            reads: expand(&reads),
            writes: expand(&writes),
            refs: 0,
        };
        for prev in &self.records {
            if let Some(conflict) = rec.conflict_with(prev) {
                return Err(conflict);
            }
        }
        self.records.push(rec);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn contiguous_intersection_is_interval_overlap() {
        let a = AccessRange::contiguous(0, 0, 10);
        let b = AccessRange::contiguous(0, 9, 20);
        let c = AccessRange::contiguous(0, 10, 20);
        let d = AccessRange::contiguous(1, 0, 10);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(!a.intersects(&d));
    }

    #[test]
    fn strided_vs_contiguous_respects_row_gaps() {
        // Rows at [0,4), [10,14), [20,24).
        let s = AccessRange::strided(0, 0, 4, 10, 3);
        assert!(s.intersects(&AccessRange::contiguous(0, 3, 5)));
        assert!(!s.intersects(&AccessRange::contiguous(0, 4, 10)));
        assert!(s.intersects(&AccessRange::contiguous(0, 5, 11)));
        assert!(s.intersects(&AccessRange::contiguous(0, 23, 30)));
        assert!(!s.intersects(&AccessRange::contiguous(0, 24, 30)));
    }

    #[test]
    fn equal_stride_phase_analysis_is_exact() {
        // Rows [0,4), [10,14); other rows [4,8), [14,18): disjoint.
        let a = AccessRange::strided(0, 0, 4, 10, 2);
        let b = AccessRange::strided(0, 4, 4, 10, 2);
        assert!(!a.intersects(&b));
        // Shift by one element: rows [3,7)... overlap [3,4).
        let c = AccessRange::strided(0, 3, 4, 10, 2);
        assert!(a.intersects(&c));
        // Same phase, row ranges disjoint in absolute terms.
        let d = AccessRange::strided(0, 20, 4, 10, 2);
        assert!(!a.intersects(&d));
        assert!(b.intersects(&c));
    }

    #[test]
    fn mixed_stride_falls_back_to_row_walk() {
        let a = AccessRange::strided(0, 0, 2, 7, 4); // [0,2) [7,9) [14,16) [21,23)
        let b = AccessRange::strided(0, 2, 2, 5, 4); // [2,4) [7,9) [12,14) [17,19)
        assert!(a.intersects(&b)); // both cover [7,9)
        let c = AccessRange::strided(0, 2, 2, 4, 3); // [2,4) [6,8)... wait [2,4),[6,8),[10,12)
        assert!(a.intersects(&c)); // [6,8) ∩ [7,9)
        let d = AccessRange::strided(0, 3, 2, 7, 3); // [3,5) [10,12) [17,19)
        assert!(!a.intersects(&d));
    }

    #[test]
    fn log_flags_time_overlapping_write_write() {
        let mut log = RaceLog::new();
        log.check_insert(
            "a".into(),
            t(0),
            t(10),
            vec![],
            vec![AccessRange::contiguous(0, 0, 100)],
        )
        .unwrap();
        let err = log
            .check_insert(
                "b".into(),
                t(5),
                t(15),
                vec![],
                vec![AccessRange::contiguous(0, 50, 60)],
            )
            .unwrap_err();
        assert_eq!(err.kind, ConflictKind::WriteWrite);
        // Disjoint in time: fine.
        log.check_insert(
            "c".into(),
            t(10),
            t(20),
            vec![],
            vec![AccessRange::contiguous(0, 0, 100)],
        )
        .unwrap();
    }

    #[test]
    fn conflicting_record_is_not_stored() {
        let mut log = RaceLog::new();
        log.check_insert(
            "a".into(),
            t(0),
            t(10),
            vec![],
            vec![AccessRange::contiguous(0, 0, 10)],
        )
        .unwrap();
        assert_eq!(log.len(), 1);
        let _ = log
            .check_insert(
                "b".into(),
                t(0),
                t(10),
                vec![],
                vec![AccessRange::contiguous(0, 5, 15)],
            )
            .unwrap_err();
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn retirement_drops_only_dead_records() {
        let mut log = RaceLog::new();
        for i in 0..100u64 {
            log.check_insert(
                format!("w{i}").into(),
                t(i * 10),
                t(i * 10 + 10),
                vec![],
                vec![AccessRange::contiguous(0, (i as usize) * 10, (i as usize) * 10 + 10)],
            )
            .unwrap();
        }
        assert_eq!(log.len(), 100);
        log.retire(t(500));
        assert!(log.len() <= 50, "records ending before 500 retired, {} live", log.len());
        // A record overlapping a surviving one still races.
        let err = log.check_insert(
            "late".into(),
            t(995),
            t(1005),
            vec![],
            vec![AccessRange::contiguous(0, 990, 1000)],
        );
        assert!(err.is_err());
    }
}
