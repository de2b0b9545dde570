//! Halfback configuration: the ROPR variant (for the §5 ablations) and the
//! optional extensions the paper names. The Pacing Threshold is not
//! configurable: it is the receiver's advertised window, as in the paper's
//! experiments (§4.1; see `Halfback::on_established`).

/// Order and rate policy of the proactive retransmission phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoprVariant {
    /// The paper's design: reverse order, one retransmission per ACK
    /// received (§3.2).
    Reverse,
    /// Ablation (§5, "Retransmission direction"): forward order, same rate.
    /// Feasible capacity collapses because the front of the flow rarely
    /// holds the losses.
    Forward,
    /// Ablation (§5, "Retransmission rate"): reverse order but the entire
    /// proactive batch is burst at line rate on the first ACK.
    Burst,
    /// ROPR disabled entirely (pacing-only — behaves like JumpStart's
    /// startup with Halfback's reactive policy; used in ablation benches).
    Off,
}

/// Configuration of a Halfback sender.
#[derive(Debug, Clone)]
pub struct HalfbackConfig {
    /// Proactive retransmission variant.
    pub variant: RoprVariant,
    /// Proactive retransmissions per ACK, as a `(sends, acks)` ratio.
    /// `(1, 1)` is the paper's design; §5 floats e.g. `(2, 3)` as future
    /// work ("two retransmissions for every three ACKs").
    pub ropr_ratio: (u32, u32),
    /// §4.2.4 refinement: burst this many segments immediately before the
    /// paced stream starts (0 disables; 10 mimics TCP-10's head start so
    /// tiny flows skip the pacing delay).
    pub burst_first_segments: u32,
}

impl Default for HalfbackConfig {
    fn default() -> Self {
        HalfbackConfig {
            variant: RoprVariant::Reverse,
            ropr_ratio: (1, 1),
            burst_first_segments: 0,
        }
    }
}

impl HalfbackConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Self::default()
    }

    /// The Halfback-Forward ablation (§5).
    pub fn forward() -> Self {
        HalfbackConfig {
            variant: RoprVariant::Forward,
            ..Self::default()
        }
    }

    /// The Halfback-Burst ablation (§5).
    pub fn burst() -> Self {
        HalfbackConfig {
            variant: RoprVariant::Burst,
            ..Self::default()
        }
    }

    /// Pacing-only (ROPR off) — isolates the startup phase.
    pub fn pacing_only() -> Self {
        HalfbackConfig {
            variant: RoprVariant::Off,
            ..Self::default()
        }
    }

    /// The §4.2.4 burst-first refinement with a 10-segment head start.
    pub fn burst_first() -> Self {
        HalfbackConfig {
            burst_first_segments: 10,
            ..Self::default()
        }
    }

    /// Tunable proactive bandwidth (§5 future work): `sends` proactive
    /// retransmissions for every `acks` ACKs.
    pub fn with_ratio(sends: u32, acks: u32) -> Self {
        assert!(sends > 0 && acks > 0, "ratio parts must be positive");
        HalfbackConfig {
            ropr_ratio: (sends, acks),
            ..Self::default()
        }
    }

    /// The display name for reports.
    pub fn display_name(&self) -> &'static str {
        match self.variant {
            RoprVariant::Reverse => {
                if self.burst_first_segments > 0 {
                    "Halfback-BurstFirst"
                } else if self.ropr_ratio != (1, 1) {
                    "Halfback-Tuned"
                } else {
                    "Halfback"
                }
            }
            RoprVariant::Forward => "Halfback-Forward",
            RoprVariant::Burst => "Halfback-Burst",
            RoprVariant::Off => "Halfback-NoROPR",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(HalfbackConfig::paper().display_name(), "Halfback");
        assert_eq!(HalfbackConfig::forward().display_name(), "Halfback-Forward");
        assert_eq!(HalfbackConfig::burst().display_name(), "Halfback-Burst");
        assert_eq!(
            HalfbackConfig::pacing_only().display_name(),
            "Halfback-NoROPR"
        );
        assert_eq!(
            HalfbackConfig::burst_first().display_name(),
            "Halfback-BurstFirst"
        );
        assert_eq!(
            HalfbackConfig::with_ratio(2, 3).display_name(),
            "Halfback-Tuned"
        );
    }

    #[test]
    #[should_panic]
    fn zero_ratio_rejected() {
        HalfbackConfig::with_ratio(0, 1);
    }
}
