//! RTT estimation and retransmission timeout per RFC 6298.
//!
//! Because every ACK echoes the data packet's transmit timestamp
//! ([`crate::wire::AckHeader::echo_tx_time`]), every sample is exact and
//! Karn's problem does not arise.

use netsim::SimDuration;

/// Smoothed RTT estimator with RFC 6298 RTO computation.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    min_rtt: Option<SimDuration>,
    latest: Option<SimDuration>,
    rto_backoff: u32,
    min_rto: SimDuration,
    max_rto: SimDuration,
}

netsim::snap_struct!(RttEstimator {
    srtt,
    rttvar,
    min_rtt,
    latest,
    rto_backoff,
    min_rto,
    max_rto,
});

impl Default for RttEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl RttEstimator {
    /// Initial RTO before any sample (RFC 6298: 1 s).
    pub const INITIAL_RTO: SimDuration = SimDuration::from_millis(1000);

    /// Fresh estimator with the RFC 6298 1 s floor and a 60 s ceiling.
    ///
    /// The 1 s minimum matters for reproducing the paper: timeouts are
    /// *expensive* (the paper's PlanetLab TCP mean of 1883 ms for 100 KB
    /// flows, and the seconds-scale collapse in Figs. 12/17, are RTO-
    /// dominated), which is exactly why JumpStart's lost line-rate
    /// retransmission bursts hurt and Halfback's timeout-avoiding ROPR
    /// wins.
    pub fn new() -> Self {
        RttEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            min_rtt: None,
            latest: None,
            rto_backoff: 0,
            min_rto: SimDuration::from_secs(1),
            max_rto: SimDuration::from_secs(60),
        }
    }

    /// Override the minimum RTO (tests and sensitivity studies).
    pub fn set_min_rto(&mut self, min: SimDuration) {
        self.min_rto = min;
    }

    /// Incorporate a sample (RFC 6298 EWMA: alpha = 1/8, beta = 1/4).
    pub fn on_sample(&mut self, sample: SimDuration) {
        self.latest = Some(sample);
        self.min_rtt = Some(match self.min_rtt {
            Some(m) => m.min(sample),
            None => sample,
        });
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                let err = if sample > srtt {
                    sample - srtt
                } else {
                    srtt - sample
                };
                // rttvar = 3/4 rttvar + 1/4 |err|, rounded to nearest:
                // truncating each term separately loses up to 3 ns per
                // update and biases both estimators below the true mean.
                self.rttvar =
                    SimDuration::from_nanos((3 * self.rttvar.as_nanos() + err.as_nanos() + 2) / 4);
                // srtt = 7/8 srtt + 1/8 sample, rounded to nearest.
                self.srtt = Some(SimDuration::from_nanos(
                    (7 * srtt.as_nanos() + sample.as_nanos() + 4) / 8,
                ));
            }
        }
    }

    /// Smoothed RTT, if any sample has arrived.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// The most recent sample.
    pub fn latest(&self) -> Option<SimDuration> {
        self.latest
    }

    /// Smallest sample seen.
    pub fn min_rtt(&self) -> Option<SimDuration> {
        self.min_rtt
    }

    /// Current RTO including exponential backoff.
    pub fn rto(&self) -> SimDuration {
        let base = match self.srtt {
            None => Self::INITIAL_RTO,
            Some(srtt) => {
                // RTO = SRTT + max(G, 4*RTTVAR); clock granularity ~ 1 ms.
                let var4 = self
                    .rttvar
                    .saturating_mul(4)
                    .max(SimDuration::from_millis(1));
                srtt + var4
            }
        };
        let backed = base.saturating_mul(1u64 << self.rto_backoff.min(16));
        backed.max(self.min_rto).min(self.max_rto)
    }

    /// Double the RTO (called on each timeout).
    pub fn backoff(&mut self) {
        self.rto_backoff = (self.rto_backoff + 1).min(16);
    }

    /// Reset backoff (called when an ACK of new data arrives).
    pub fn reset_backoff(&mut self) {
        self.rto_backoff = 0;
    }

    /// The current backoff exponent (for tests and reporting).
    pub fn backoff_level(&self) -> u32 {
        self.rto_backoff
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: fn(u64) -> SimDuration = SimDuration::from_millis;

    #[test]
    fn initial_rto_is_one_second() {
        let e = RttEstimator::new();
        assert_eq!(e.rto(), SimDuration::from_millis(1000));
        assert_eq!(e.srtt(), None);
    }

    #[test]
    fn first_sample_seeds_srtt() {
        let mut e = RttEstimator::new();
        e.on_sample(MS(60));
        assert_eq!(e.srtt(), Some(MS(60)));
        // RTO = 60 + 4*30 = 180ms, floored at the RFC's 1 s minimum.
        assert_eq!(e.rto(), MS(1000));
        // With a Linux-style floor the computed value shows through.
        e.set_min_rto(MS(100));
        assert_eq!(e.rto(), MS(180));
    }

    #[test]
    fn steady_samples_converge() {
        let mut e = RttEstimator::new();
        e.set_min_rto(MS(1));
        for _ in 0..100 {
            e.on_sample(MS(80));
        }
        let srtt = e.srtt().unwrap();
        assert!(srtt >= MS(79) && srtt <= MS(81), "srtt {srtt}");
        // Variance decays toward zero; RTO approaches srtt + floor-var.
        assert!(e.rto() < MS(250), "rto {}", e.rto());
    }

    /// Regression for the truncating integer EWMAs: on a constant 60 ms
    /// stream whose nanosecond count is not divisible by 8, the old
    /// `(x/8)*7 + s/8` arithmetic lost the remainders every update and
    /// settled tens of nanoseconds *below* the true RTT (and likewise for
    /// rttvar). Round-to-nearest keeps srtt pinned to the sample exactly.
    #[test]
    fn constant_rtt_converges_without_downward_bias() {
        let sample = SimDuration::from_nanos(60_000_001);
        let mut e = RttEstimator::new();
        for _ in 0..200 {
            e.on_sample(sample);
        }
        assert_eq!(e.srtt(), Some(sample), "srtt must not drift below 60 ms");
        // Variance decays toward zero but the 1 ms granularity floor keeps
        // RTO at srtt + 1 ms — never below the path RTT.
        e.set_min_rto(MS(1));
        assert!(e.rto() >= sample + MS(1), "rto {}", e.rto());
        assert!(e.rto() <= sample + MS(2), "rto {}", e.rto());
    }

    #[test]
    fn backoff_doubles_and_resets() {
        let mut e = RttEstimator::new();
        e.set_min_rto(MS(1));
        e.on_sample(MS(100));
        let base = e.rto();
        e.backoff();
        assert_eq!(e.rto(), base.saturating_mul(2));
        e.backoff();
        assert_eq!(e.rto(), base.saturating_mul(4));
        e.reset_backoff();
        assert_eq!(e.rto(), base);
    }

    /// Regression for the give-up path added with transport hardening:
    /// the full backoff schedule doubles per timeout, clamps at the 60 s
    /// ceiling, and the first cumulative ACK restores the exact RFC 6298
    /// value (`srtt + max(G, 4*rttvar)`), with `backoff_level` tracking
    /// the consecutive-timeout count the abort thresholds are checked
    /// against.
    #[test]
    fn backoff_schedule_doubles_clamps_and_resets() {
        let mut e = RttEstimator::new();
        e.set_min_rto(MS(1));
        e.on_sample(MS(200));
        // RFC 6298 on the first sample: srtt = 200, rttvar = 100.
        let rfc = MS(200) + MS(100).saturating_mul(4);
        assert_eq!(e.rto(), rfc);

        // Each timeout doubles the RTO until the 60 s ceiling clamps it.
        let mut expected = rfc;
        for level in 1..=10u32 {
            e.backoff();
            assert_eq!(e.backoff_level(), level, "level counts every timeout");
            expected = expected.saturating_mul(2).min(SimDuration::from_secs(60));
            assert_eq!(e.rto(), expected, "after {level} timeouts");
        }
        assert_eq!(e.rto(), SimDuration::from_secs(60), "clamped at max_rto");

        // New cumulative progress: back to the RFC 6298 value, not some
        // partially decayed one, and the abort counter restarts from zero.
        e.reset_backoff();
        assert_eq!(e.backoff_level(), 0);
        assert_eq!(e.rto(), rfc);
    }

    #[test]
    fn rto_respects_ceiling() {
        let mut e = RttEstimator::new();
        e.on_sample(SimDuration::from_secs(5));
        for _ in 0..20 {
            e.backoff();
        }
        assert_eq!(e.rto(), SimDuration::from_secs(60));
    }

    #[test]
    fn min_rtt_tracks_smallest() {
        let mut e = RttEstimator::new();
        e.on_sample(MS(90));
        e.on_sample(MS(60));
        e.on_sample(MS(120));
        assert_eq!(e.min_rtt(), Some(MS(60)));
        assert_eq!(e.latest(), Some(MS(120)));
    }

    #[test]
    fn variance_reacts_to_jitter() {
        let mut e = RttEstimator::new();
        for i in 0..50 {
            e.on_sample(if i % 2 == 0 { MS(50) } else { MS(150) });
        }
        // High jitter must keep RTO well above srtt.
        assert!(e.rto() > MS(200), "rto {}", e.rto());
    }
}
