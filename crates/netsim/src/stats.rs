//! Small statistics helpers shared by experiments and tests.

/// An empirical distribution over a fixed sample set: percentiles and CDF
/// series for the paper's CDF/CCDF figures.
///
/// Built once by [`Ecdf::from_samples`], which drops non-finite samples and
/// sorts the rest; every query then reads the sorted run. Memory is linear
/// in the sample count, so this is for samples the caller already holds
/// (a figure's flow records); flow-scaled runs aggregate through
/// [`LogHistogram`].
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from a vector of samples; NaN and infinite samples are dropped.
    pub fn from_samples(mut xs: Vec<f64>) -> Self {
        xs.retain(|x| x.is_finite());
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Ecdf { sorted: xs }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Mean of the samples (summed in sorted order), or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (!self.is_empty()).then(|| self.sorted.iter().sum::<f64>() / self.len() as f64)
    }

    /// Percentile in `\[0, 100\]` using nearest-rank; `None` if empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.sorted.is_empty() {
            return None;
        }
        let n = self.sorted.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        Some(self.sorted[rank.clamp(1, n) - 1])
    }

    /// Median (50th percentile).
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// The full `(value, percent <= value)` series for plotting a CDF, one
    /// point per sample (like the paper's gnuplot CDFs).
    pub fn cdf_series(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, 100.0 * (i + 1) as f64 / n as f64))
            .collect()
    }

    /// The `(value, percent > value)` series for a complementary CDF.
    pub fn ccdf_series(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, 100.0 * (n - i - 1) as f64 / n as f64))
            .collect()
    }
}

/// Mantissa bits kept per bucket: 32 sub-buckets per power of two, so a
/// bucket spans a relative width of 2^-5 = 3.125 % and the midpoint
/// representative is within **1.57 % relative error** of any sample in it.
const SKETCH_SUB_BITS: u32 = 5;

/// Per-bucket bookkeeping cost estimate for [`LogHistogram::memory_bytes`]:
/// a `(u32, u64)` entry plus `BTreeMap` node overhead.
const SKETCH_BUCKET_COST: usize = 48;

/// A deterministic, mergeable fixed-bucket log-histogram quantile sketch.
///
/// Samples land in buckets keyed by their IEEE-754 exponent plus the top
/// [`SKETCH_SUB_BITS`] mantissa bits — a pure bit shift, no floating-point
/// log, so bucketing is exact and identical on every platform. Bucket
/// counts are integers, which makes merges **exact, associative, and
/// commutative**: summaries computed from sketches are byte-identical
/// across `--jobs N` and `--shards N` no matter how the samples were
/// partitioned.
///
/// Memory is O(distinct buckets) — a few hundred entries even for
/// distributions spanning nine decades — instead of O(samples), which is
/// what lets `repro planetlab100k` aggregate 10^5..10^6 flow completion
/// times without retaining a single `FlowRecord`.
///
/// Contract: samples must be finite; non-finite samples are filtered like
/// [`Ecdf::from_samples`]. Samples `<= 0` are counted in a dedicated zero bucket
/// (FCTs, RTTs, and counts are non-negative; a true negative is a caller
/// bug and debug-asserts). Quantiles are bucket midpoints clamped to the
/// exact observed `[min, max]`, so the relative error bound of 1.57 %
/// holds for every positive quantile.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    /// Bucket key -> sample count. BTreeMap so iteration is in ascending
    /// value order (bucket keys are order-preserving for positive f64).
    buckets: std::collections::BTreeMap<u32, u64>,
    /// Samples with value <= 0 (exactly representable; no bucket error).
    zeros: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// High-water mark of distinct buckets, for memory accounting.
    hiwater: usize,
}

// `hiwater` rides along so a resumed run's memory accounting matches the
// uninterrupted one.
crate::snap_struct!(LogHistogram {
    buckets,
    zeros,
    count,
    sum,
    min,
    max,
    hiwater
});

/// Bucket key for a positive finite sample: sign bit is zero, so shifting
/// keeps (exponent, top mantissa bits) — order-preserving and exact.
fn sketch_bucket(x: f64) -> u32 {
    (x.to_bits() >> (52 - SKETCH_SUB_BITS)) as u32
}

/// Inclusive-exclusive value range `[lo, hi)` covered by a bucket key.
fn sketch_bounds(key: u32) -> (f64, f64) {
    let lo = f64::from_bits((key as u64) << (52 - SKETCH_SUB_BITS));
    let hi = f64::from_bits(((key as u64) + 1) << (52 - SKETCH_SUB_BITS));
    (lo, hi)
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty sketch.
    pub fn new() -> Self {
        LogHistogram {
            buckets: std::collections::BTreeMap::new(),
            zeros: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            hiwater: 0,
        }
    }

    /// Add a sample. Non-finite samples are filtered; negatives
    /// debug-assert and count as zero.
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        debug_assert!(x >= 0.0, "negative sketch sample: {x}");
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if x <= 0.0 {
            self.zeros += 1;
        } else {
            *self.buckets.entry(sketch_bucket(x)).or_insert(0) += 1;
            self.hiwater = self.hiwater.max(self.buckets.len());
        }
    }

    /// Merge another sketch in. Integer bucket counts make this exact:
    /// `(a ∪ b) ∪ c == a ∪ (b ∪ c)` and `a ∪ b == b ∪ a`, bit for bit
    /// (the float `sum` is commutative-associative only as far as IEEE
    /// addition is; merge in a deterministic order when byte-identity of
    /// the *mean* matters, as the harness and shard runner both do).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (&k, &n) in &other.buckets {
            *self.buckets.entry(k).or_insert(0) += n;
        }
        self.hiwater = self.hiwater.max(self.buckets.len());
        self.zeros += other.zeros;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean (tracked outside the buckets), or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Exact minimum, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Nearest-rank quantile for `p` in `[0, 100]`, or `None` if empty.
    /// The result is the midpoint of the bucket holding the ranked sample,
    /// clamped to the observed `[min, max]` — within 1.57 % relative error
    /// of the exact [`Ecdf::percentile`] answer.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "quantile out of range: {p}");
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        if rank <= self.zeros {
            return Some(0.0);
        }
        let mut seen = self.zeros;
        for (&k, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let (lo, hi) = sketch_bounds(k);
                return Some((0.5 * (lo + hi)).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Distinct non-zero buckets currently held.
    pub fn buckets_len(&self) -> usize {
        self.buckets.len()
    }

    /// Estimated heap + inline footprint, deterministic in the bucket
    /// count (used for the manifest's sketch memory high-water line).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.hiwater * SKETCH_BUCKET_COST
    }

    /// `(bucket upper edge, percent of samples <= edge)` series for
    /// plotting a CDF: one point per non-empty bucket instead of one per
    /// sample, so a 10^5-flow CDF is a few hundred points. The final
    /// point is pinned to the exact maximum at 100 %.
    pub fn cdf_series(&self) -> Vec<(f64, f64)> {
        if self.count == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.buckets.len() + 2);
        let mut seen = 0u64;
        if self.zeros > 0 {
            seen += self.zeros;
            out.push((0.0, 100.0 * seen as f64 / self.count as f64));
        }
        for (&k, &n) in &self.buckets {
            seen += n;
            let (_, hi) = sketch_bounds(k);
            out.push((hi.min(self.max), 100.0 * seen as f64 / self.count as f64));
        }
        out
    }
}

/// Windowed sketches over virtual time with warm-up trimming: one
/// [`LogHistogram`] per fixed-width window, samples before the warm-up
/// mark dropped (counted, not stored). This is the steady-state shape
/// ROADMAP item 2 needs — tail percentiles per window, plus an exact
/// aggregate over everything past warm-up — in O(windows) memory.
#[derive(Debug, Clone)]
pub struct WindowedSketch {
    window_ns: u64,
    warmup_ns: u64,
    windows: Vec<LogHistogram>,
    trimmed: u64,
}

crate::snap_struct!(WindowedSketch {
    window_ns,
    warmup_ns,
    windows,
    trimmed
});

impl WindowedSketch {
    /// Create with the given window width; samples before `warmup_ns` are
    /// trimmed.
    pub fn new(window_ns: u64, warmup_ns: u64) -> Self {
        assert!(window_ns > 0, "window width must be positive");
        WindowedSketch {
            window_ns,
            warmup_ns,
            windows: Vec::new(),
            trimmed: 0,
        }
    }

    /// Add sample `x` observed at virtual time `t_ns`.
    pub fn add(&mut self, t_ns: u64, x: f64) {
        if t_ns < self.warmup_ns {
            self.trimmed += 1;
            return;
        }
        let idx = ((t_ns - self.warmup_ns) / self.window_ns) as usize;
        if idx >= self.windows.len() {
            self.windows.resize_with(idx + 1, LogHistogram::new);
        }
        self.windows[idx].add(x);
    }

    /// Merge another windowed sketch (same window width and warm-up).
    /// Window-by-window integer merges keep the same exactness contract
    /// as [`LogHistogram::merge`].
    pub fn merge(&mut self, other: &WindowedSketch) {
        assert_eq!(self.window_ns, other.window_ns, "window width mismatch");
        assert_eq!(self.warmup_ns, other.warmup_ns, "warm-up mismatch");
        if other.windows.len() > self.windows.len() {
            self.windows
                .resize_with(other.windows.len(), LogHistogram::new);
        }
        for (w, o) in self.windows.iter_mut().zip(&other.windows) {
            w.merge(o);
        }
        self.trimmed += other.trimmed;
    }

    /// Merge of every post-warm-up window.
    pub fn aggregate(&self) -> LogHistogram {
        let mut all = LogHistogram::new();
        for w in &self.windows {
            all.merge(w);
        }
        all
    }

    /// Per-window snapshots, in time order (some may be empty).
    pub fn windows(&self) -> &[LogHistogram] {
        &self.windows
    }

    /// Samples dropped by warm-up trimming.
    pub fn trimmed(&self) -> u64 {
        self.trimmed
    }

    /// Window width in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Warm-up mark in nanoseconds.
    pub fn warmup_ns(&self) -> u64 {
        self.warmup_ns
    }

    /// Footprint estimate: sum of the per-window sketch footprints.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .windows
                .iter()
                .map(LogHistogram::memory_bytes)
                .sum::<usize>()
    }
}

/// Bins event counts into fixed-width time buckets — used for the Fig. 15
/// throughput-over-time traces (the paper samples every 60 ms).
#[derive(Debug, Clone)]
pub struct TimeBinned {
    bin_width_ns: u64,
    bins: Vec<f64>,
    /// Instant the series was closed (e.g. flow completion). When set, rate
    /// conversions scale the final bin by the time actually covered instead
    /// of silently under-reporting the partial bin.
    end_ns: Option<u64>,
}

impl TimeBinned {
    /// Create with the given bin width in nanoseconds.
    pub fn new(bin_width_ns: u64) -> Self {
        assert!(bin_width_ns > 0);
        TimeBinned {
            bin_width_ns,
            bins: Vec::new(),
            end_ns: None,
        }
    }

    /// Add `amount` at time `t_ns`.
    pub fn add(&mut self, t_ns: u64, amount: f64) {
        let idx = (t_ns / self.bin_width_ns) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0.0);
        }
        self.bins[idx] += amount;
    }

    /// Mark the series as ending at `t_ns` (the flow-completion instant).
    /// The final partial bin then converts to a rate over its real width.
    /// Later `add`s past the mark reopen the series.
    pub fn close_at(&mut self, t_ns: u64) {
        self.end_ns = Some(t_ns);
    }

    /// The close instant, if [`TimeBinned::close_at`] was called.
    pub fn end_ns(&self) -> Option<u64> {
        self.end_ns
    }

    /// Bin width in nanoseconds.
    pub fn bin_width_ns(&self) -> u64 {
        self.bin_width_ns
    }

    /// Add another series' bins element-wise. Bin widths must match; the
    /// later of the two close marks survives.
    pub fn merge(&mut self, other: &TimeBinned) {
        assert_eq!(
            self.bin_width_ns, other.bin_width_ns,
            "merging TimeBinned series with different bin widths"
        );
        if other.bins.len() > self.bins.len() {
            self.bins.resize(other.bins.len(), 0.0);
        }
        for (i, v) in other.bins.iter().enumerate() {
            self.bins[i] += v;
        }
        self.end_ns = match (self.end_ns, other.end_ns) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// `(bin_start_seconds, sum)` series.
    pub fn series(&self) -> Vec<(f64, f64)> {
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as f64 * self.bin_width_ns as f64 / 1e9, v))
            .collect()
    }

    /// Convert byte counts per bin into a Mbit/s series. If the series was
    /// closed with [`TimeBinned::close_at`], the final bin is averaged over
    /// the time it actually covers (completion mid-bin must not dilute the
    /// rate over the full bin width).
    pub fn as_mbps(&self) -> Vec<(f64, f64)> {
        let full_secs = self.bin_width_ns as f64 / 1e9;
        let last = self.bins.len().saturating_sub(1);
        let last_secs = match self.end_ns {
            Some(end) if (end / self.bin_width_ns) as usize == last => {
                let into_bin = end - last as u64 * self.bin_width_ns;
                if into_bin == 0 {
                    full_secs
                } else {
                    into_bin as f64 / 1e9
                }
            }
            _ => full_secs,
        };
        self.series()
            .into_iter()
            .enumerate()
            .map(|(i, (t, bytes))| {
                let secs = if i == last { last_secs } else { full_secs };
                (t, bytes * 8.0 / 1e6 / secs)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sketch_snapshot_roundtrip_is_exact() {
        let mut ws = WindowedSketch::new(1_000, 500);
        let mut h = LogHistogram::new();
        for i in 0..5_000u64 {
            let x = (i as f64 * 0.37).sin().abs() * 1e6 + (i % 7) as f64;
            ws.add(i * 3, x);
            h.add(x);
        }
        h.add(0.0); // exercise the zero bucket

        let h2 = crate::snap::assert_roundtrip(&h);
        let ws2 = crate::snap::assert_roundtrip(&ws);

        assert_eq!(h.count(), h2.count());
        assert_eq!(h.mean(), h2.mean());
        assert_eq!(h.quantile(99.0), h2.quantile(99.0));
        assert_eq!(h.memory_bytes(), h2.memory_bytes());
        assert_eq!(ws.trimmed(), ws2.trimmed());
        assert_eq!(ws.windows().len(), ws2.windows().len());
        assert_eq!(
            ws.aggregate().quantile(50.0),
            ws2.aggregate().quantile(50.0)
        );
    }

    #[test]
    fn percentiles_nearest_rank() {
        let e = Ecdf::from_samples((1..=100).map(|i| i as f64).collect());
        assert_eq!(e.percentile(50.0), Some(50.0));
        assert_eq!(e.percentile(99.0), Some(99.0));
        assert_eq!(e.percentile(100.0), Some(100.0));
        assert_eq!(e.percentile(1.0), Some(1.0));
        assert_eq!(e.percentile(0.0), Some(1.0));
    }

    #[test]
    fn cdf_series_counts_fraction() {
        let e = Ecdf::from_samples(vec![3.0, 1.0, 4.0, 2.0]);
        assert_eq!(
            e.cdf_series(),
            vec![(1.0, 25.0), (2.0, 50.0), (3.0, 75.0), (4.0, 100.0)]
        );
    }

    #[test]
    fn cdf_and_ccdf_are_complementary() {
        let e = Ecdf::from_samples(vec![5.0, 1.0, 3.0, 3.0]);
        let cdf = e.cdf_series();
        let ccdf = e.ccdf_series();
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.len(), ccdf.len());
        for ((xa, pa), (xb, pb)) in cdf.iter().zip(ccdf.iter()) {
            assert_eq!(xa, xb);
            assert!((pa + pb - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn non_finite_samples_are_dropped_at_construction() {
        let e = Ecdf::from_samples(vec![2.0, f64::NAN, f64::INFINITY, 1.0, f64::NEG_INFINITY]);
        assert_eq!(e.len(), 2);
        assert_eq!(e.mean(), Some(1.5));
        assert_eq!(e.percentile(0.0), Some(1.0));
        assert_eq!(e.percentile(100.0), Some(2.0));
        assert_eq!(e.cdf_series(), vec![(1.0, 50.0), (2.0, 100.0)]);
    }

    #[test]
    fn empty_ecdf_has_no_statistics_and_empty_series() {
        for e in [
            Ecdf::from_samples(Vec::new()),
            Ecdf::from_samples(vec![f64::NAN]),
        ] {
            assert!(e.is_empty());
            assert_eq!(e.mean(), None);
            assert_eq!(e.median(), None);
            assert_eq!(e.percentile(99.0), None);
            assert!(e.cdf_series().is_empty());
            assert!(e.ccdf_series().is_empty());
        }
    }

    /// Seeded sample sets spanning the distributions the figures actually
    /// aggregate (exponential FCT-ish, lognormal, pareto tails, zeros).
    fn seeded_samples(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = crate::rng::SimRng::new(seed);
        (0..n)
            .map(|i| match i % 4 {
                0 => rng.exponential(120.0),
                1 => rng.lognormal(3.0, 1.2),
                2 => rng.pareto(5.0, 1.8),
                _ => {
                    if rng.chance(0.05) {
                        0.0
                    } else {
                        rng.uniform_range(0.5, 5000.0)
                    }
                }
            })
            .collect()
    }

    #[test]
    fn sketch_quantiles_track_exact_ecdf_within_error_bound() {
        for seed in [1u64, 7, 42] {
            let xs = seeded_samples(seed, 20_000);
            let exact = Ecdf::from_samples(xs.clone());
            let mut sketch = LogHistogram::new();
            for &x in &xs {
                sketch.add(x);
            }
            assert_eq!(sketch.count(), xs.len() as u64);
            let exact_mean = exact.mean().unwrap();
            assert!((sketch.mean().unwrap() - exact_mean).abs() < 1e-9 * exact_mean.abs());
            for p in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                let truth = exact.percentile(p).unwrap();
                let approx = sketch.quantile(p).unwrap();
                if truth == 0.0 {
                    assert_eq!(approx, 0.0, "seed {seed} p{p}");
                } else {
                    let rel = (approx - truth).abs() / truth;
                    // Documented bound: bucket midpoint within 2^-6 of any
                    // sample in the bucket.
                    assert!(
                        rel <= 0.016,
                        "seed {seed} p{p}: {approx} vs {truth} ({rel})"
                    );
                }
            }
        }
    }

    #[test]
    fn sketch_merge_is_associative_and_commutative() {
        let parts: Vec<LogHistogram> = (0..3)
            .map(|s| {
                let mut h = LogHistogram::new();
                for x in seeded_samples(s + 100, 5_000) {
                    h.add(x);
                }
                h
            })
            .collect();
        let digest = |h: &LogHistogram| {
            let mut d = format!("{}|{}|", h.count(), h.buckets_len());
            for p in [50.0, 99.0, 99.9] {
                d.push_str(&format!("{:.17e},", h.quantile(p).unwrap()));
            }
            d.push_str(&format!(
                "{:.17e},{:.17e}",
                h.min().unwrap(),
                h.max().unwrap()
            ));
            d
        };
        // (a ∪ b) ∪ c
        let mut abc = parts[0].clone();
        abc.merge(&parts[1]);
        abc.merge(&parts[2]);
        // a ∪ (b ∪ c)
        let mut bc = parts[1].clone();
        bc.merge(&parts[2]);
        let mut a_bc = parts[0].clone();
        a_bc.merge(&bc);
        // c ∪ b ∪ a
        let mut cba = parts[2].clone();
        cba.merge(&parts[1]);
        cba.merge(&parts[0]);
        assert_eq!(digest(&abc), digest(&a_bc));
        assert_eq!(digest(&abc), digest(&cba));
        // Merging an empty sketch is the identity (min/max must survive).
        let mut with_empty = abc.clone();
        with_empty.merge(&LogHistogram::new());
        assert_eq!(digest(&abc), digest(&with_empty));
        // And the merged sketch equals the all-at-once sketch exactly.
        let mut whole = LogHistogram::new();
        for s in 0..3 {
            for x in seeded_samples(s + 100, 5_000) {
                whole.add(x);
            }
        }
        assert_eq!(digest(&abc), digest(&whole));
    }

    #[test]
    fn sketch_cdf_series_is_bucket_bounded_and_monotone() {
        let mut h = LogHistogram::new();
        for x in seeded_samples(9, 10_000) {
            h.add(x);
        }
        let series = h.cdf_series();
        assert!(series.len() <= h.buckets_len() + 2);
        assert!(series.len() < 1_000, "bucket CDF must stay small");
        for w in series.windows(2) {
            assert!(w[0].0 <= w[1].0, "x monotone");
            assert!(w[0].1 <= w[1].1, "percent monotone");
        }
        let last = series.last().unwrap();
        assert_eq!(last.0, h.max().unwrap());
        assert!((last.1 - 100.0).abs() < 1e-9);
        // Memory stays bucket-bounded no matter the sample count.
        assert!(h.memory_bytes() < 64 * 1024, "{}", h.memory_bytes());
    }

    #[test]
    fn windowed_sketch_trims_warmup_and_merges() {
        let mut w = WindowedSketch::new(1_000, 500);
        w.add(100, 9.0); // pre-warm-up: trimmed
        w.add(500, 1.0); // window 0
        w.add(1_499, 2.0); // window 0
        w.add(1_500, 3.0); // window 1
        w.add(3_700, 4.0); // window 3 (window 2 stays empty)
        assert_eq!(w.trimmed(), 1);
        assert_eq!(w.windows().len(), 4);
        assert_eq!(w.windows()[0].count(), 2);
        assert_eq!(w.windows()[2].count(), 0);
        let agg = w.aggregate();
        assert_eq!(agg.count(), 4);
        assert_eq!(agg.min(), Some(1.0));
        assert_eq!(agg.max(), Some(4.0));

        let mut other = WindowedSketch::new(1_000, 500);
        other.add(0, 5.0);
        other.add(2_600, 6.0); // window 2
        w.merge(&other);
        assert_eq!(w.trimmed(), 2);
        assert_eq!(w.windows()[2].count(), 1);
        assert_eq!(w.aggregate().count(), 5);
    }

    #[test]
    fn time_binned_throughput() {
        let mut tb = TimeBinned::new(60_000_000); // 60 ms bins
        tb.add(0, 7500.0); // 7.5 KB in first bin
        tb.add(59_999_999, 7500.0);
        tb.add(60_000_000, 1500.0);
        let mbps = tb.as_mbps();
        // 15 KB in 60 ms = 2 Mbit/s.
        assert!((mbps[0].1 - 2.0).abs() < 1e-9, "{:?}", mbps);
        assert!((mbps[1].1 - 0.2).abs() < 1e-9);
    }

    #[test]
    fn time_binned_close_scales_final_partial_bin() {
        let mut tb = TimeBinned::new(60_000_000);
        tb.add(0, 7500.0);
        tb.add(60_000_000, 1500.0);
        // The flow completes 15 ms into the second bin: 1.5 KB over 15 ms
        // is 0.8 Mbit/s, not the 0.2 Mbit/s a full-width average reports.
        tb.close_at(75_000_000);
        let mbps = tb.as_mbps();
        assert!((mbps[0].1 - 1.0).abs() < 1e-9, "{:?}", mbps);
        assert!((mbps[1].1 - 0.8).abs() < 1e-9, "{:?}", mbps);
        // Closing exactly on a later bin boundary leaves earlier bins full
        // width, and a close in a bin that got no samples changes nothing.
        let mut tb2 = TimeBinned::new(60_000_000);
        tb2.add(0, 7500.0);
        tb2.close_at(60_000_000);
        assert!((tb2.as_mbps()[0].1 - 1.0).abs() < 1e-9);
    }
}
