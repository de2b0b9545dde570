//! Deterministic randomness for simulations.
//!
//! Every source of randomness in a scenario flows from a single `u64` seed.
//! Substreams are derived by hashing a textual label together with the parent
//! seed ([`SimRng::fork`]), so adding a new consumer of randomness does not
//! perturb the draws seen by existing consumers — a property the experiment
//! harness relies on when comparing protocols under *identical* flow-arrival
//! schedules (paper §4.3.2).

/// A seeded random number generator with labelled forking.
///
/// The generator is xoshiro256++ (Blackman & Vigna), seeded through
/// SplitMix64 as its authors recommend. It is implemented in-repo so the
/// simulator has no external dependencies and its streams are identical on
/// every platform and toolchain.
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    state: [u64; 4],
}

// Checkpointed whole: the original seed (fork labels derive from it alone)
// plus the current xoshiro256++ state words, so a restored generator resumes
// its stream exactly where it was.
crate::snap_struct!(SimRng { seed, state });

impl SimRng {
    /// Create a generator from a root seed.
    pub fn new(seed: u64) -> Self {
        // Expand the 64-bit seed into the 256-bit state with SplitMix64;
        // the all-zero state is unreachable this way.
        let mut s = seed;
        let mut state = [0u64; 4];
        for w in &mut state {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *w = splitmix64(s);
        }
        SimRng { seed, state }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent substream identified by `label`. Forking with
    /// the same (seed, label) always yields the same stream, regardless of
    /// how much the parent has been used.
    pub fn fork(&self, label: &str) -> SimRng {
        let sub = splitmix_hash(self.seed, label);
        SimRng::new(sub)
    }

    /// Derive an independent substream identified by a label and an index
    /// (e.g. one stream per path in a population).
    pub fn fork_indexed(&self, label: &str, index: u64) -> SimRng {
        let sub =
            splitmix_hash(self.seed, label) ^ splitmix64(index.wrapping_add(0x9E37_79B9_7F4A_7C15));
        SimRng::new(sub)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits of a u64 draw, scaled into [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "invalid range [{lo}, {hi})");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot draw an index from an empty range");
        // Lemire's multiply-shift method with rejection: unbiased for any n.
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let lo = m as u64;
            if lo >= n.wrapping_neg() % n {
                return (m >> 64) as usize;
            }
        }
    }

    /// Bernoulli trial with success probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.uniform() < p
    }

    /// Exponentially distributed draw with the given mean (inverse-CDF
    /// method). Used for Poisson interarrival times.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean > 0.0 && mean.is_finite(),
            "exponential mean must be positive: {mean}"
        );
        // 1 - U is in (0, 1], so ln never sees zero.
        -mean * (1.0 - self.uniform()).ln()
    }

    /// Standard normal draw (Box–Muller; one value per call keeps the stream
    /// layout simple and deterministic).
    pub fn standard_normal(&mut self) -> f64 {
        let u1: f64 = 1.0 - self.uniform(); // (0, 1]
        let u2: f64 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normally distributed draw with the given parameters of the
    /// underlying normal (`mu`, `sigma`).
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Pareto draw with scale `x_min` and shape `alpha`.
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        assert!(x_min > 0.0 && alpha > 0.0);
        x_min / (1.0 - self.uniform()).powf(1.0 / alpha)
    }

    /// Raw `u64` draw (for seeding nested structures).
    pub fn next_u64(&mut self) -> u64 {
        // xoshiro256++ step.
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// SplitMix64 finalizer — a solid 64-bit mixing function.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a's initial state: the hash of no bytes.
pub(crate) const FNV1A64_EMPTY: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a. Labels are hashed with it, and `snap` seals checkpoint
/// files with it.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV1A64_EMPTY, bytes)
}

/// Continue an FNV-1a hash `h` over `bytes`: hashing a stream in pieces
/// gives the hash of the whole.
pub(crate) fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Hash a seed together with a textual label (FNV-1a folded through
/// SplitMix64).
fn splitmix_hash(seed: u64, label: &str) -> u64 {
    splitmix64(fnv1a64(label.as_bytes()) ^ splitmix64(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_of_parent_usage() {
        let a = SimRng::new(7);
        let mut a_used = SimRng::new(7);
        for _ in 0..50 {
            a_used.next_u64();
        }
        let mut f1 = a.fork("loss");
        let mut f2 = a_used.fork("loss");
        for _ in 0..20 {
            assert_eq!(f1.next_u64(), f2.next_u64());
        }
    }

    #[test]
    fn distinct_labels_give_distinct_streams() {
        let root = SimRng::new(7);
        let x = root.fork("alpha").next_u64();
        let y = root.fork("beta").next_u64();
        assert_ne!(x, y);
        let i = root.fork_indexed("path", 0).next_u64();
        let j = root.fork_indexed("path", 1).next_u64();
        assert_ne!(i, j);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SimRng::new(1);
        let n = 20_000;
        let mean = 3.5;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let emp = sum / n as f64;
        assert!((emp - mean).abs() < 0.1, "empirical mean {emp}");
    }

    #[test]
    fn chance_frequency_is_close() {
        let mut r = SimRng::new(2);
        let n = 50_000;
        let hits = (0..n).filter(|_| r.chance(0.3)).count();
        let f = hits as f64 / n as f64;
        assert!((f - 0.3).abs() < 0.01, "frequency {f}");
    }

    #[test]
    fn lognormal_median_is_exp_mu() {
        let mut r = SimRng::new(3);
        let mut xs: Vec<f64> = (0..10_001).map(|_| r.lognormal(2.0, 0.7)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        let expect = 2.0_f64.exp();
        assert!(
            (median / expect - 1.0).abs() < 0.1,
            "median {median} vs {expect}"
        );
    }
}
