//! A set of `u32` values stored as disjoint half-open ranges.
//!
//! Used by the receiver (which segments have arrived) and by the sender's
//! scoreboard (which segments have been SACKed). Ranges keep memory bounded
//! even for the 100 MB long flows in the Fig. 13 experiments.

use std::collections::BTreeMap;

/// An ordered set of disjoint, coalesced half-open ranges `[start, end)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeSet {
    // start -> end, disjoint and non-adjacent (always coalesced).
    ranges: BTreeMap<u32, u32>,
    count: u64,
}

netsim::snap_struct!(RangeSet { ranges, count });

impl RangeSet {
    /// Empty set.
    pub fn new() -> Self {
        RangeSet::default()
    }

    /// Number of values in the set.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True if no values are present.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Insert a single value; returns true if it was newly added.
    pub fn insert(&mut self, v: u32) -> bool {
        self.insert_range(v, v + 1) > 0
    }

    /// Insert `[start, end)`; returns how many values were newly added.
    pub fn insert_range(&mut self, start: u32, end: u32) -> u64 {
        if start >= end {
            return 0;
        }
        // Fast paths against the predecessor range (the one with the
        // greatest start <= `start`): in-order arrivals and sequential
        // transmissions nearly always extend it in place, and duplicates
        // land inside it. Both avoid the remove/re-insert churn below.
        if let Some((&ps, &pe)) = self.ranges.range(..=start).next_back() {
            if pe >= end {
                return 0;
            }
            if pe >= start {
                let follower = self
                    .ranges
                    .range((std::ops::Bound::Excluded(ps), std::ops::Bound::Unbounded))
                    .next()
                    .map(|(&s, _)| s);
                // The follower must stay disjoint and non-adjacent.
                if follower.is_none_or(|fs| fs > end) {
                    let added = (end - pe) as u64;
                    *self.ranges.get_mut(&ps).expect("predecessor exists") = end;
                    self.count += added;
                    return added;
                }
            }
        }
        let mut new_start = start;
        let mut new_end = end;
        // Remove all ranges overlapping or adjacent to the insertion,
        // tracking how much of the insertion they already covered.
        let mut added: u64 = (end - start) as u64;
        let mut to_remove = Vec::new();
        // Candidate ranges: any with start <= new_end, ending >= new_start.
        for (&s, &e) in self.ranges.range(..=new_end) {
            if e >= new_start {
                to_remove.push((s, e));
            }
        }
        for (s, e) in to_remove {
            // Subtract the overlap with [start, end) from `added`.
            let ov_start = s.max(start);
            let ov_end = e.min(end);
            if ov_start < ov_end {
                added -= (ov_end - ov_start) as u64;
            }
            new_start = new_start.min(s);
            new_end = new_end.max(e);
            self.ranges.remove(&s);
        }
        self.ranges.insert(new_start, new_end);
        self.count += added;
        added
    }

    /// Does the set contain `v`?
    pub fn contains(&self, v: u32) -> bool {
        match self.ranges.range(..=v).next_back() {
            Some((_, &e)) => v < e,
            None => false,
        }
    }

    /// The smallest value `>= from` *not* in the set.
    pub fn first_missing_from(&self, from: u32) -> u32 {
        let mut v = from;
        while let Some((&s, &e)) = self.ranges.range(..=v).next_back() {
            if v < e && v >= s {
                v = e;
            } else {
                break;
            }
        }
        v
    }

    /// Iterate the stored ranges in ascending order.
    pub fn iter_ranges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.ranges.iter().map(|(&s, &e)| (s, e))
    }

    /// The complement within `[lo, hi)`: maximal ranges of values NOT in
    /// the set, ascending. Lets callers process only new values when
    /// merging a large, mostly-overlapping range (the SACK hot path).
    pub fn missing_within(&self, lo: u32, hi: u32) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        self.missing_within_into(lo, hi, &mut out);
        out
    }

    /// [`missing_within`], but clearing and filling a caller-supplied
    /// buffer so a hot loop (the scoreboard's per-ACK walk) can reuse its
    /// allocation.
    pub fn missing_within_into(&self, lo: u32, hi: u32, out: &mut Vec<(u32, u32)>) {
        out.clear();
        if lo >= hi {
            return;
        }
        let mut cursor = lo;
        // Start from any range containing/preceding `lo`.
        if let Some((_, &e)) = self.ranges.range(..=lo).next_back() {
            if e > cursor {
                cursor = e;
            }
        }
        for (&s, &e) in self.ranges.range(lo..) {
            if s >= hi {
                break;
            }
            if s > cursor {
                out.push((cursor, s.min(hi)));
            }
            if e > cursor {
                cursor = e;
            }
            if cursor >= hi {
                return;
            }
        }
        if cursor < hi {
            out.push((cursor, hi));
        }
    }

    /// Ranges intersected with `[lo, hi)`, ascending, without allocating —
    /// the receiver's SACK builder calls this once per data packet.
    pub fn ranges_within_iter(&self, lo: u32, hi: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        // A range starting at or before `lo` can still straddle it.
        let head = self
            .ranges
            .range(..=lo)
            .next_back()
            .map(|(&s, &e)| (s, e))
            .filter(|&(_, e)| e > lo);
        head.into_iter()
            .chain(
                self.ranges
                    .range((std::ops::Bound::Excluded(lo), std::ops::Bound::Unbounded))
                    .map(|(&s, &e)| (s, e)),
            )
            .take_while(move |&(s, _)| s < hi)
            .map(move |(s, e)| (s.max(lo), e.min(hi)))
            .filter(|&(s, e)| s < e)
    }

    /// Ranges intersected with `[lo, hi)`, ascending.
    pub fn ranges_within(&self, lo: u32, hi: u32) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (&s, &e) in &self.ranges {
            if e <= lo {
                continue;
            }
            if s >= hi {
                break;
            }
            out.push((s.max(lo), e.min(hi)));
        }
        out
    }

    /// Number of set values strictly greater than `v`.
    pub fn count_above(&self, v: u32) -> u64 {
        let mut n = 0u64;
        for (&s, &e) in self.ranges.range(..) {
            if e <= v + 1 {
                continue;
            }
            n += (e - s.max(v + 1)) as u64;
        }
        n
    }

    /// Remove everything below `v` (bookkeeping once the cumulative ACK
    /// passes; keeps the map small for long flows).
    pub fn prune_below(&mut self, v: u32) {
        let mut to_fix = Vec::new();
        for (&s, &e) in self.ranges.range(..) {
            if s >= v {
                break;
            }
            to_fix.push((s, e));
        }
        for (s, e) in to_fix {
            self.ranges.remove(&s);
            if e > v {
                self.ranges.insert(v, e);
                self.count -= (v - s) as u64;
            } else {
                self.count -= (e - s) as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::rng::SimRng;
    use std::collections::BTreeSet;

    #[test]
    fn insert_and_contains() {
        let mut r = RangeSet::new();
        assert!(r.insert(5));
        assert!(!r.insert(5));
        assert!(r.contains(5));
        assert!(!r.contains(4));
        assert!(!r.contains(6));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn adjacent_ranges_coalesce() {
        let mut r = RangeSet::new();
        r.insert_range(0, 5);
        r.insert_range(5, 10);
        assert_eq!(r.iter_ranges().collect::<Vec<_>>(), vec![(0, 10)]);
        assert_eq!(r.len(), 10);
    }

    #[test]
    fn overlapping_insert_counts_only_new() {
        let mut r = RangeSet::new();
        assert_eq!(r.insert_range(0, 10), 10);
        assert_eq!(r.insert_range(5, 15), 5);
        assert_eq!(r.insert_range(0, 15), 0);
        assert_eq!(r.len(), 15);
    }

    #[test]
    fn bridge_insert_merges_three() {
        let mut r = RangeSet::new();
        r.insert_range(0, 3);
        r.insert_range(6, 9);
        r.insert_range(3, 6);
        assert_eq!(r.iter_ranges().collect::<Vec<_>>(), vec![(0, 9)]);
    }

    #[test]
    fn first_missing_walks_through_ranges() {
        let mut r = RangeSet::new();
        r.insert_range(0, 3);
        r.insert_range(4, 7);
        assert_eq!(r.first_missing_from(0), 3);
        assert_eq!(r.first_missing_from(3), 3);
        assert_eq!(r.first_missing_from(4), 7);
        assert_eq!(r.first_missing_from(10), 10);
    }

    #[test]
    fn count_above_counts_strictly_greater() {
        let mut r = RangeSet::new();
        r.insert_range(0, 5); // {0..4}
        r.insert_range(8, 10); // {8, 9}
        assert_eq!(r.count_above(2), 2 + 2); // {3,4,8,9}
        assert_eq!(r.count_above(4), 2);
        assert_eq!(r.count_above(9), 0);
    }

    #[test]
    fn prune_below_trims() {
        let mut r = RangeSet::new();
        r.insert_range(0, 10);
        r.insert_range(20, 30);
        r.prune_below(25);
        assert_eq!(r.iter_ranges().collect::<Vec<_>>(), vec![(25, 30)]);
        assert_eq!(r.len(), 5);
        assert!(!r.contains(5));
        assert!(r.contains(26));
    }

    #[test]
    fn ranges_within_clips() {
        let mut r = RangeSet::new();
        r.insert_range(0, 10);
        r.insert_range(20, 30);
        assert_eq!(r.ranges_within(5, 25), vec![(5, 10), (20, 25)]);
        assert_eq!(r.ranges_within(10, 20), vec![]);
    }

    /// Random `(start, len)` insert operations for the reference tests.
    fn random_ops(
        rng: &mut SimRng,
        max_ops: usize,
        max_start: u32,
        max_len: u32,
    ) -> Vec<(u32, u32)> {
        let n = rng.index(max_ops + 1);
        (0..n)
            .map(|_| {
                (
                    rng.index(max_start as usize) as u32,
                    1 + rng.index(max_len as usize - 1) as u32,
                )
            })
            .collect()
    }

    /// RangeSet agrees with a reference BTreeSet on arbitrary operations.
    #[test]
    fn matches_reference_set() {
        let mut rng = SimRng::new(0xA11CE);
        for case in 0..256 {
            let ops = random_ops(&mut rng, 60, 200, 20);
            let mut rs = RangeSet::new();
            let mut reference = BTreeSet::new();
            for &(start, len) in &ops {
                let end = start + len;
                rs.insert_range(start, end);
                for v in start..end {
                    reference.insert(v);
                }
                assert_eq!(rs.len(), reference.len() as u64, "case {case} ops {ops:?}");
            }
            for v in 0u32..240 {
                assert_eq!(
                    rs.contains(v),
                    reference.contains(&v),
                    "case {case} value {v} ops {ops:?}"
                );
            }
            // Ranges must be disjoint, sorted and coalesced.
            let ranges: Vec<_> = rs.iter_ranges().collect();
            for w in ranges.windows(2) {
                assert!(
                    w[0].1 < w[1].0,
                    "case {case}: ranges {ranges:?} not coalesced"
                );
            }
        }
    }

    /// first_missing_from matches a linear scan of the reference.
    #[test]
    fn first_missing_matches_reference() {
        let mut rng = SimRng::new(0xF157);
        for case in 0..256 {
            let ops = random_ops(&mut rng, 30, 100, 10);
            let probe = rng.index(120) as u32;
            let mut rs = RangeSet::new();
            let mut reference = BTreeSet::new();
            for &(start, len) in &ops {
                rs.insert_range(start, start + len);
                for v in start..start + len {
                    reference.insert(v);
                }
            }
            let mut expect = probe;
            while reference.contains(&expect) {
                expect += 1;
            }
            assert_eq!(
                rs.first_missing_from(probe),
                expect,
                "case {case} probe {probe} ops {ops:?}"
            );
        }
    }

    /// count_above matches a linear scan.
    #[test]
    fn count_above_matches_reference() {
        let mut rng = SimRng::new(0xC07);
        for case in 0..256 {
            let ops = random_ops(&mut rng, 30, 100, 10);
            let probe = rng.index(120) as u32;
            let mut rs = RangeSet::new();
            let mut reference = BTreeSet::new();
            for &(start, len) in &ops {
                rs.insert_range(start, start + len);
                for v in start..start + len {
                    reference.insert(v);
                }
            }
            let expect = reference.iter().filter(|&&v| v > probe).count() as u64;
            assert_eq!(
                rs.count_above(probe),
                expect,
                "case {case} probe {probe} ops {ops:?}"
            );
        }
    }
}

#[cfg(test)]
mod missing_tests {
    use super::*;
    use netsim::rng::SimRng;

    #[test]
    fn missing_within_basic() {
        let mut r = RangeSet::new();
        r.insert_range(2, 5);
        r.insert_range(8, 10);
        assert_eq!(r.missing_within(0, 12), vec![(0, 2), (5, 8), (10, 12)]);
        assert_eq!(r.missing_within(3, 4), vec![]);
        assert_eq!(r.missing_within(4, 9), vec![(5, 8)]);
        assert_eq!(RangeSet::new().missing_within(1, 3), vec![(1, 3)]);
        assert_eq!(r.missing_within(5, 5), vec![]);
    }

    #[test]
    fn missing_within_matches_reference() {
        let mut rng = SimRng::new(0x6a95);
        for case in 0..256 {
            let n_ops = rng.index(21);
            let ops: Vec<(u32, u32)> = (0..n_ops)
                .map(|_| (rng.index(80) as u32, 1 + rng.index(9) as u32))
                .collect();
            let lo = rng.index(90) as u32;
            let len = rng.index(30) as u32;
            let mut rs = RangeSet::new();
            let mut member = std::collections::BTreeSet::new();
            for &(s, l) in &ops {
                rs.insert_range(s, s + l);
                for v in s..s + l {
                    member.insert(v);
                }
            }
            let hi = lo + len;
            let gaps = rs.missing_within(lo, hi);
            // Flatten and compare against a linear scan.
            let mut expect = Vec::new();
            for v in lo..hi {
                if !member.contains(&v) {
                    expect.push(v);
                }
            }
            let mut got = Vec::new();
            for (s, e) in &gaps {
                assert!(s < e, "case {case} ops {ops:?}");
                for v in *s..*e {
                    got.push(v);
                }
            }
            assert_eq!(got, expect, "case {case} [{lo}, {hi}) ops {ops:?}");
            // Gaps must be disjoint and sorted.
            for w in gaps.windows(2) {
                assert!(w[0].1 <= w[1].0, "case {case} gaps {gaps:?}");
            }
        }
    }
}
