//! Wire loss models.
//!
//! Queue-overflow loss emerges naturally from [`crate::queue::DropTail`];
//! these models add *path* loss that is not congestion at the modelled
//! bottleneck — e.g. WiFi corruption on the home-network profiles (§4.2.2)
//! or loss inside the un-modelled middle of a PlanetLab path (§4.2.1).

use crate::rng::SimRng;

/// A random loss process applied to packets traversing a link.
#[derive(Debug, Clone)]
pub enum LossModel {
    /// No random loss; only queue overflow drops packets.
    None,
    /// Independent per-packet loss with probability `p`.
    Bernoulli {
        /// Loss probability in `\[0, 1\]`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott bursty loss. In the Good state packets are
    /// lost with probability `loss_good` (usually 0); in the Bad state with
    /// `loss_bad`. Transitions happen per packet with probabilities
    /// `p_good_to_bad` and `p_bad_to_good`.
    GilbertElliott {
        /// P(transition Good -> Bad) per packet.
        p_good_to_bad: f64,
        /// P(transition Bad -> Good) per packet.
        p_bad_to_good: f64,
        /// Loss probability while in the Good state.
        loss_good: f64,
        /// Loss probability while in the Bad state.
        loss_bad: f64,
    },
    /// Deterministically drop specific packets by their 1-based transmission
    /// ordinal on the link. Used by tests and the Fig. 3 walkthrough, where
    /// exactly one known packet must be lost.
    DropList {
        /// Sorted 1-based ordinals of packets to drop.
        ordinals: Vec<u64>,
    },
}

impl LossModel {
    /// A Gilbert–Elliott model tuned to resemble consumer WiFi: rare bursts
    /// (~0.5 % of packets start a burst), bursts last ~10 packets, and most
    /// packets inside a burst are lost.
    pub fn wifi_bursty() -> LossModel {
        LossModel::GilbertElliott {
            p_good_to_bad: 0.005,
            p_bad_to_good: 0.10,
            loss_good: 0.0002,
            loss_bad: 0.35,
        }
    }

    /// True for [`LossModel::None`] — the model never drops, and its
    /// evaluator consumes no randomness and keeps no state.
    pub fn is_none(&self) -> bool {
        matches!(self, LossModel::None)
    }

    /// Expected long-run loss rate of the model.
    pub fn mean_loss_rate(&self) -> f64 {
        match *self {
            LossModel::None => 0.0,
            LossModel::Bernoulli { p } => p,
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                // Stationary distribution of the two-state chain.
                let denom = p_good_to_bad + p_bad_to_good;
                if denom == 0.0 {
                    return loss_good;
                }
                let pi_bad = p_good_to_bad / denom;
                (1.0 - pi_bad) * loss_good + pi_bad * loss_bad
            }
            LossModel::DropList { .. } => 0.0, // finite drops: zero long-run rate
        }
    }
}

/// Stateful evaluator for a [`LossModel`]; one per link.
#[derive(Debug, Clone)]
pub struct LossProcess {
    model: LossModel,
    in_bad_state: bool,
    packets_seen: u64,
}

impl LossProcess {
    /// Create a process starting in the Good state.
    pub fn new(model: LossModel) -> Self {
        LossProcess {
            model,
            in_bad_state: false,
            packets_seen: 0,
        }
    }

    /// The model this process evaluates.
    pub fn model(&self) -> &LossModel {
        &self.model
    }

    // The dynamic state an engine snapshot carries: the Gilbert–Elliott
    // chain position and the per-link packet ordinal (which the DropList
    // model indexes). The model itself comes from the topology rebuild.
    crate::snap_fields!(pub(crate) fn save_cursor, load_cursor { in_bad_state, packets_seen });

    /// Decide whether the next packet is lost. [`LossModel::None`] answers
    /// without counting the packet: a loss-free link's cursor stays as it
    /// was built, in a checkpoint as in memory.
    pub fn should_drop(&mut self, rng: &mut SimRng) -> bool {
        if self.model.is_none() {
            return false;
        }
        self.packets_seen += 1;
        match self.model {
            LossModel::None => false,
            LossModel::Bernoulli { p } => p > 0.0 && rng.chance(p),
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                if self.in_bad_state {
                    if rng.chance(p_bad_to_good) {
                        self.in_bad_state = false;
                    }
                } else if rng.chance(p_good_to_bad) {
                    self.in_bad_state = true;
                }
                let p = if self.in_bad_state {
                    loss_bad
                } else {
                    loss_good
                };
                p > 0.0 && rng.chance(p)
            }
            LossModel::DropList { ref ordinals } => {
                ordinals.binary_search(&self.packets_seen).is_ok()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_drops() {
        let mut rng = SimRng::new(1);
        let mut lp = LossProcess::new(LossModel::None);
        assert!((0..1000).all(|_| !lp.should_drop(&mut rng)));
    }

    #[test]
    fn none_keeps_no_state() {
        // What a checkpoint carries of a loss-free link is what it was
        // built with, however many packets have crossed it.
        let cursor = |lp: &LossProcess| {
            let mut w = crate::snap::SnapWriter::new();
            lp.save_cursor(&mut w);
            w.into_bytes()
        };
        let mut rng = SimRng::new(1);
        let mut lp = LossProcess::new(LossModel::None);
        let fresh = cursor(&lp);
        for _ in 0..1000 {
            lp.should_drop(&mut rng);
        }
        assert_eq!(cursor(&lp), fresh);
        assert_eq!(rng.next_u64(), SimRng::new(1).next_u64());
    }

    #[test]
    fn bernoulli_rate_matches() {
        let mut rng = SimRng::new(2);
        let mut lp = LossProcess::new(LossModel::Bernoulli { p: 0.05 });
        let n = 100_000;
        let drops = (0..n).filter(|_| lp.should_drop(&mut rng)).count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.005, "rate {rate}");
    }

    #[test]
    fn gilbert_elliott_long_run_rate_matches_formula() {
        let model = LossModel::wifi_bursty();
        let expect = model.mean_loss_rate();
        let mut rng = SimRng::new(3);
        let mut lp = LossProcess::new(model);
        let n = 400_000;
        let drops = (0..n).filter(|_| lp.should_drop(&mut rng)).count();
        let rate = drops as f64 / n as f64;
        assert!(
            (rate - expect).abs() < expect * 0.25 + 0.002,
            "rate {rate} expected {expect}"
        );
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Compare the number of loss "runs" with a Bernoulli process of the
        // same mean rate: GE should have fewer, longer runs.
        let model = LossModel::wifi_bursty();
        let mean = model.mean_loss_rate();
        let n = 200_000;

        let runs = |seq: &[bool]| seq.windows(2).filter(|w| !w[0] && w[1]).count();

        let mut rng = SimRng::new(4);
        let mut ge = LossProcess::new(model);
        let ge_seq: Vec<bool> = (0..n).map(|_| ge.should_drop(&mut rng)).collect();

        let mut rng2 = SimRng::new(5);
        let mut be = LossProcess::new(LossModel::Bernoulli { p: mean });
        let be_seq: Vec<bool> = (0..n).map(|_| be.should_drop(&mut rng2)).collect();

        // GE losses cluster inside Bad periods, so distinct loss runs are
        // noticeably fewer than under an independent process of equal rate
        // (in-burst losses still interleave with successes, so the gap is
        // well under the naive burst-length factor).
        assert!(
            runs(&ge_seq) < runs(&be_seq) * 4 / 5,
            "GE runs {} not much burstier than Bernoulli runs {}",
            runs(&ge_seq),
            runs(&be_seq)
        );
    }
}

#[cfg(test)]
mod droplist_tests {
    use super::*;

    #[test]
    fn droplist_drops_exact_ordinals() {
        let mut rng = SimRng::new(1);
        let mut lp = LossProcess::new(LossModel::DropList {
            ordinals: vec![2, 5],
        });
        let dropped: Vec<bool> = (0..6).map(|_| lp.should_drop(&mut rng)).collect();
        assert_eq!(dropped, vec![false, true, false, false, true, false]);
        assert_eq!(lp.model().mean_loss_rate(), 0.0);
    }
}
