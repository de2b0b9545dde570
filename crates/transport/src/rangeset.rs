//! A set of `u32` values stored as disjoint half-open ranges.
//!
//! Used by the receiver (which segments have arrived) and by the sender's
//! scoreboard (which segments have been SACKed). Ranges keep memory bounded
//! even for the 100 MB long flows in the Fig. 13 experiments.
//!
//! The ranges live in one sorted `Vec`: in-order traffic keeps every set at
//! a single range and loss adds a handful, so the range a lookup wants is
//! almost always the last one, which `RangeSet::seek` tries before it
//! searches.

/// An ordered set of disjoint, coalesced half-open ranges `[start, end)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeSet {
    // Ascending, disjoint and non-adjacent (always coalesced).
    ranges: Vec<(u32, u32)>,
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

    /// Index of the first range that ends above `v`: the one containing
    /// `v`, else the first one past it, else `ranges.len()`.
    fn seek(&self, v: u32) -> usize {
        match self.ranges.last() {
            // Every earlier range ends below the last one's start.
            Some(&(s, e)) if s <= v => self.ranges.len() - (e > v) as usize,
            _ => self.ranges.partition_point(|&(_, e)| e <= v),
        }
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
        // Ranges `i..j` overlap or abut the insertion: `i` is the first to
        // end at or after `start`, `j` the first to begin after `end`.
        let i = self.seek(start.saturating_sub(1));
        let mut j = i;
        let mut added = (end - start) as u64;
        while let Some(&(s, e)) = self.ranges.get(j).filter(|r| r.0 <= end) {
            added -= e.min(end).saturating_sub(s.max(start)) as u64;
            j += 1;
        }
        if i == j {
            self.ranges.insert(i, (start, end));
        } else {
            // In-order arrivals extend the one range here, duplicates fall
            // inside it; only a bridging insert has anything to drain.
            self.ranges[i] = (start.min(self.ranges[i].0), end.max(self.ranges[j - 1].1));
            self.ranges.drain(i + 1..j);
        }
        self.count += added;
        added
    }

    /// Remove a single value; returns true if it was present. Trims the
    /// range holding it in place, splitting it only when `v` is interior.
    pub fn remove(&mut self, v: u32) -> bool {
        let i = self.seek(v);
        let Some(&(s, e)) = self.ranges.get(i).filter(|r| r.0 <= v) else {
            return false;
        };
        match (s == v, e == v + 1) {
            (true, true) => {
                self.ranges.remove(i);
            }
            (true, false) => self.ranges[i].0 = v + 1,
            (false, true) => self.ranges[i].1 = v,
            (false, false) => {
                self.ranges[i].1 = v;
                self.ranges.insert(i + 1, (v + 1, e));
            }
        }
        self.count -= 1;
        true
    }

    /// Does the set contain `v`?
    pub fn contains(&self, v: u32) -> bool {
        self.ranges.get(self.seek(v)).is_some_and(|&(s, _)| s <= v)
    }

    /// The smallest value `>= from` *not* in the set.
    pub fn first_missing_from(&self, from: u32) -> u32 {
        match self.ranges.get(self.seek(from)) {
            // Ranges are coalesced: the end of one is never in the set.
            Some(&(s, e)) if s <= from => e,
            _ => from,
        }
    }

    /// Iterate the stored ranges in ascending order.
    pub fn iter_ranges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.ranges.iter().copied()
    }

    /// The complement within `[lo, hi)`: maximal ranges of values NOT in
    /// the set, ascending. Lets callers process only new values when
    /// merging a large, mostly-overlapping range (the SACK hot path).
    pub fn missing_within(&self, lo: u32, hi: u32) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        self.missing_within_into(lo, hi, &mut out);
        out
    }

    /// [`missing_within`](Self::missing_within), but clearing and filling a
    /// caller-supplied buffer so a hot loop (the scoreboard's per-ACK walk)
    /// can reuse its allocation.
    pub fn missing_within_into(&self, lo: u32, hi: u32, out: &mut Vec<(u32, u32)>) {
        out.clear();
        let mut cursor = lo;
        for (s, e) in self.ranges_within_iter(lo, hi) {
            if s > cursor {
                out.push((cursor, s));
            }
            cursor = e;
        }
        if cursor < hi {
            out.push((cursor, hi));
        }
    }

    /// Ranges intersected with `[lo, hi)`, ascending, without allocating —
    /// the receiver's SACK builder calls this once per data packet.
    pub fn ranges_within_iter(&self, lo: u32, hi: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.ranges[self.seek(lo)..]
            .iter()
            .take_while(move |&&(s, _)| s < hi)
            .map(move |&(s, e)| (s.max(lo), e.min(hi)))
            // Only an empty window (`lo >= hi`) inside a range gets here.
            .filter(|&(s, e)| s < e)
    }

    /// Number of set values strictly greater than `v`.
    pub fn count_above(&self, v: u32) -> u64 {
        let lo = v.saturating_add(1);
        self.ranges
            .iter()
            .rev()
            .take_while(|&&(_, e)| e > lo)
            .map(|&(s, e)| (e - s.max(lo)) as u64)
            .sum()
    }

    /// Remove everything below `v` (bookkeeping once the cumulative ACK
    /// passes; keeps the set small for long flows).
    pub fn prune_below(&mut self, v: u32) {
        let keep = self.seek(v);
        let gone = self.ranges.drain(..keep);
        self.count -= gone.map(|(s, e)| (e - s) as u64).sum::<u64>();
        if let Some(first) = self.ranges.first_mut().filter(|r| r.0 < v) {
            self.count -= (v - first.0) as u64;
            first.0 = v;
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
        let within = |lo, hi| r.ranges_within_iter(lo, hi).collect::<Vec<_>>();
        assert_eq!(within(5, 25), vec![(5, 10), (20, 25)]);
        assert_eq!(within(10, 20), vec![]);
        assert_eq!(within(7, 7), vec![]);
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

    #[test]
    fn remove_trims_splits_and_drops() {
        let mut r = RangeSet::new();
        r.insert_range(0, 5);
        r.insert_range(10, 11);
        assert!(r.remove(0)); // front
        assert!(r.remove(4)); // back
        assert!(r.remove(2)); // interior: splits
        assert!(r.remove(10)); // a whole one-value range
        assert!(!r.remove(2) && !r.remove(7) && !r.remove(99));
        assert_eq!(r.iter_ranges().collect::<Vec<_>>(), vec![(1, 2), (3, 4)]);
        assert_eq!(r.len(), 2);
        assert!(!RangeSet::new().remove(0));
    }

    /// Inserts interleaved with `prune_below` and `remove`, the way a
    /// flow's cumulative ACK chases its SACKed ranges and a retransmission
    /// clears a lost mark: after every step the set, its count and every
    /// windowed query agree with the reference.
    #[test]
    fn interleaved_prunes_match_reference_set() {
        let mut rng = SimRng::new(0x9E0E);
        for case in 0..128 {
            let mut rs = RangeSet::new();
            let mut reference = BTreeSet::new();
            for step in 0..rng.index(40) {
                let at = rng.index(200) as u32;
                let op = rng.index(8);
                if op == 0 {
                    rs.prune_below(at);
                    reference = reference.split_off(&at);
                } else if op < 3 {
                    // Mostly values the set holds, so ranges get split and
                    // trimmed rather than missed.
                    let v = match reference.iter().nth(at as usize % (reference.len() + 1)) {
                        Some(&v) => v,
                        None => at,
                    };
                    assert_eq!(
                        rs.remove(v),
                        reference.remove(&v),
                        "case {case} step {step}"
                    );
                } else {
                    let end = at + 1 + rng.index(19) as u32;
                    let before = reference.len();
                    reference.extend(at..end);
                    assert_eq!(
                        rs.insert_range(at, end),
                        (reference.len() - before) as u64,
                        "case {case} step {step}"
                    );
                }
                assert_eq!(rs.len(), reference.len() as u64, "case {case} step {step}");
                let flat: Vec<u32> = rs.iter_ranges().flat_map(|(s, e)| s..e).collect();
                assert!(flat.iter().eq(reference.iter()), "case {case} step {step}");
                let ranges: Vec<_> = rs.iter_ranges().collect();
                assert!(ranges.windows(2).all(|w| w[0].1 < w[1].0), "{ranges:?}");

                let (lo, hi) = (rng.index(230) as u32, rng.index(230) as u32);
                let within: Vec<_> = rs.ranges_within_iter(lo, hi).collect();
                assert!(within.iter().all(|&(s, e)| lo <= s && s < e && e <= hi));
                assert!(within.windows(2).all(|w| w[0].1 < w[1].0), "{within:?}");
                let flat: Vec<u32> = within.iter().flat_map(|&(s, e)| s..e).collect();
                let expect: Vec<u32> = reference.range(lo..hi.max(lo)).copied().collect();
                assert_eq!(flat, expect, "case {case} step {step} [{lo}, {hi})");
                let gaps: Vec<u32> = rs
                    .missing_within(lo, hi)
                    .into_iter()
                    .flat_map(|(s, e)| s..e)
                    .collect();
                let expect: Vec<u32> = (lo..hi).filter(|v| !reference.contains(v)).collect();
                assert_eq!(gaps, expect, "case {case} step {step} [{lo}, {hi})");
                assert_eq!(rs.contains(lo), reference.contains(&lo));
                assert_eq!(
                    rs.count_above(lo),
                    reference.range(lo + 1..).count() as u64,
                    "case {case} step {step}"
                );
                let missing = (lo..).find(|v| !reference.contains(v)).unwrap();
                assert_eq!(rs.first_missing_from(lo), missing);
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
