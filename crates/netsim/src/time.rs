//! Virtual time for the discrete-event simulator.
//!
//! All simulation time is kept in integer nanoseconds ([`SimTime`] /
//! [`SimDuration`]) so event ordering is exact and runs are reproducible
//! bit-for-bit. Link speeds are expressed as [`Rate`] in bits per second;
//! serialization delays are computed in integer arithmetic with rounding up
//! (a packet is never done transmitting early).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The beginning of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// A time later than any event a simulation will ever schedule.
    pub const FAR_FUTURE: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since the start of the run.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the start of the run, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds since the start of the run, as a float (for reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration elapsed since `earlier`. Saturates at zero if `earlier`
    /// is in the future (callers compare clock snapshots; never panic).
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (for workload generators; the result
    /// is still an exact integer nanosecond count).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "duration must be finite and non-negative: {s}"
        );
        SimDuration((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float (reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds as a float (reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Integer multiplication, saturating.
    pub const fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Scale by a float factor (used by RTO backoff and estimators).
    pub fn mul_f64(self, k: f64) -> SimDuration {
        assert!(
            k.is_finite() && k >= 0.0,
            "scale must be finite and non-negative: {k}"
        );
        SimDuration((self.0 as f64 * k).round() as u64)
    }

    /// Element-wise maximum.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Element-wise minimum.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// A transmission rate in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rate(u64);

impl Rate {
    /// Construct from bits per second.
    pub const fn from_bps(bps: u64) -> Self {
        Rate(bps)
    }

    /// Construct from kilobits per second (10^3 bits).
    pub const fn from_kbps(kbps: u64) -> Self {
        Rate(kbps * 1_000)
    }

    /// Construct from megabits per second (10^6 bits).
    pub const fn from_mbps(mbps: u64) -> Self {
        Rate(mbps * 1_000_000)
    }

    /// Construct from gigabits per second (10^9 bits).
    pub const fn from_gbps(gbps: u64) -> Self {
        Rate(gbps * 1_000_000_000)
    }

    /// Bits per second.
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Megabits per second as a float (reporting only).
    pub fn as_mbps_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time to serialize `bytes` onto a wire of this rate, rounded up so a
    /// packet never finishes early.
    pub fn transmission_time(self, bytes: u32) -> SimDuration {
        assert!(self.0 > 0, "cannot transmit on a zero-rate link");
        let bits = bytes as u128 * 8;
        let ns = (bits * 1_000_000_000).div_ceil(self.0 as u128);
        SimDuration(ns as u64)
    }

    /// How many bytes this rate carries in `dur` (rounded down).
    pub fn bytes_in(self, dur: SimDuration) -> u64 {
        ((self.0 as u128 * dur.0 as u128) / (8 * 1_000_000_000)) as u64
    }

    /// The rate that transmits `bytes` in `dur` (rounded up). Returns `None`
    /// for a zero duration.
    pub fn for_bytes_in(bytes: u64, dur: SimDuration) -> Option<Rate> {
        if dur.is_zero() {
            return None;
        }
        let bits = bytes as u128 * 8;
        let bps = (bits * 1_000_000_000).div_ceil(dur.0 as u128);
        Some(Rate(bps.min(u64::MAX as u128) as u64))
    }

    /// Scale by a float factor (used for utilization targeting).
    pub fn mul_f64(self, k: f64) -> Rate {
        assert!(k.is_finite() && k >= 0.0);
        Rate((self.0 as f64 * k).round() as u64)
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}Mbps", self.as_mbps_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_nanos(1_500_000);
        let d = SimDuration::from_millis(2);
        assert_eq!((t + d).as_nanos(), 3_500_000);
        assert_eq!((t + d).saturating_since(t), d);
        assert_eq!(t.saturating_since(t + d), SimDuration::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(
            SimDuration::from_secs_f64(0.25),
            SimDuration::from_millis(250)
        );
    }

    #[test]
    fn transmission_time_matches_hand_calculation() {
        // 1500 bytes at 15 Mbps = 12_000 bits / 15e6 bps = 800 microseconds.
        let r = Rate::from_mbps(15);
        assert_eq!(r.transmission_time(1500), SimDuration::from_micros(800));
        // 1 Gbps: 1500B = 12 microseconds.
        assert_eq!(
            Rate::from_gbps(1).transmission_time(1500),
            SimDuration::from_micros(12)
        );
    }

    #[test]
    fn transmission_time_rounds_up() {
        // 1 byte at 3 bps: 8/3 s = 2.666..s -> must round up.
        let r = Rate::from_bps(3);
        assert_eq!(r.transmission_time(1).as_nanos(), 2_666_666_667);
    }

    #[test]
    fn bytes_in_inverts_transmission_time() {
        let r = Rate::from_mbps(15);
        let d = r.transmission_time(100_000);
        let b = r.bytes_in(d);
        assert!((100_000..=100_001).contains(&b), "got {b}");
    }

    #[test]
    fn rate_for_bytes_in_is_sufficient() {
        // Pacing 100 KB over 60 ms must finish within 60 ms.
        let dur = SimDuration::from_millis(60);
        let rate = Rate::for_bytes_in(100_000, dur).unwrap();
        assert!(rate.transmission_time(100_000) <= dur + SimDuration::from_nanos(1));
        assert_eq!(Rate::for_bytes_in(100, SimDuration::ZERO), None);
    }

    #[test]
    fn saturating_behaviour() {
        let big = SimDuration::from_nanos(u64::MAX);
        assert_eq!(big + big, big);
        assert_eq!(SimTime::FAR_FUTURE + big, SimTime::FAR_FUTURE);
        assert_eq!(big.saturating_mul(3), big);
    }

    #[test]
    #[should_panic]
    fn negative_float_duration_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }
}
