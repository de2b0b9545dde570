//! The protocol registry: every scheme the paper evaluates, constructible
//! by name, plus the Table 1 design-space taxonomy.

use baselines::{JumpStart, PathCache, Pcp, ProactiveTcp, ReactiveTcp, Tcp, TcpCache};
use halfback::{Halfback, HalfbackConfig};
use netsim::NodeId;
use transport::strategy::Strategy;

/// Every scheme in the evaluation (§4: "eight schemes"), plus the §5
/// ablation variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Vanilla NewReno TCP, ICW = 2.
    Tcp,
    /// TCP with ICW = 10.
    Tcp10,
    /// Per-path cwnd/ssthresh caching.
    TcpCache,
    /// Tail-loss-probe TCP (\[18\]).
    Reactive,
    /// Duplicate-everything TCP (\[18\]).
    Proactive,
    /// Whole-flow pacing, bursty reactive retransmission (\[25\]).
    JumpStart,
    /// Probe-then-send (\[7\]).
    Pcp,
    /// The paper's contribution (§3).
    Halfback,
    /// §5 ablation: forward-order proactive retransmission.
    HalfbackForward,
    /// §5 ablation: line-rate proactive retransmission.
    HalfbackBurst,
    /// Pacing-only (ROPR disabled) — isolates the startup phase.
    HalfbackNoRopr,
    /// §4.2.4 refinement: 10-segment head-start burst before pacing.
    HalfbackBurstFirst,
    /// §5 future-work knob: two proactive copies per three ACKs (~33%).
    HalfbackRatio23,
    /// §5 future-work knob: one proactive copy per two ACKs (~25%).
    HalfbackRatio12,
}

// Travels by display name, so a checkpoint does not depend on registry order.
netsim::snap_via!(Protocol as String, |p| p.name().to_string(), |name| {
    Protocol::parse(&name)
        .ok_or_else(|| netsim::snap::SnapError::Unsupported(format!("unknown scheme {name:?}")))
});

impl Protocol {
    /// The eight schemes of §4, in the paper's listing order.
    pub const EVALUATED: [Protocol; 8] = [
        Protocol::Tcp,
        Protocol::Tcp10,
        Protocol::TcpCache,
        Protocol::JumpStart,
        Protocol::Pcp,
        Protocol::Reactive,
        Protocol::Proactive,
        Protocol::Halfback,
    ];

    /// The six schemes shown in the PlanetLab figures (PCP's released code
    /// ran separately in the paper; TCP-Cache needs repeat visits).
    pub const PLANETLAB: [Protocol; 6] = [
        Protocol::Halfback,
        Protocol::JumpStart,
        Protocol::Tcp10,
        Protocol::Reactive,
        Protocol::Tcp,
        Protocol::Proactive,
    ];

    /// The Fig. 17 ablation set.
    pub const ABLATION: [Protocol; 7] = [
        Protocol::Proactive,
        Protocol::Tcp,
        Protocol::Tcp10,
        Protocol::HalfbackBurst,
        Protocol::HalfbackForward,
        Protocol::JumpStart,
        Protocol::Halfback,
    ];

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Tcp => "TCP",
            Protocol::Tcp10 => "TCP-10",
            Protocol::TcpCache => "TCP-Cache",
            Protocol::Reactive => "Reactive",
            Protocol::Proactive => "Proactive",
            Protocol::JumpStart => "JumpStart",
            Protocol::Pcp => "PCP",
            Protocol::Halfback => "Halfback",
            Protocol::HalfbackForward => "Halfback-Forward",
            Protocol::HalfbackBurst => "Halfback-Burst",
            Protocol::HalfbackNoRopr => "Halfback-NoROPR",
            Protocol::HalfbackBurstFirst => "Halfback-BurstFirst",
            Protocol::HalfbackRatio23 => "Halfback-2per3",
            Protocol::HalfbackRatio12 => "Halfback-1per2",
        }
    }

    /// Every scheme in registry order — the "scheme set" the run manifest
    /// records so perf trajectories stay comparable across builds.
    pub const ALL: [Protocol; 14] = [
        Protocol::Tcp,
        Protocol::Tcp10,
        Protocol::TcpCache,
        Protocol::Reactive,
        Protocol::Proactive,
        Protocol::JumpStart,
        Protocol::Pcp,
        Protocol::Halfback,
        Protocol::HalfbackForward,
        Protocol::HalfbackBurst,
        Protocol::HalfbackNoRopr,
        Protocol::HalfbackBurstFirst,
        Protocol::HalfbackRatio23,
        Protocol::HalfbackRatio12,
    ];

    /// Parse a name (case-insensitive, hyphens optional).
    pub fn parse(s: &str) -> Option<Protocol> {
        let norm: String = s
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_lowercase();
        Protocol::ALL.into_iter().find(|p| {
            p.name()
                .chars()
                .filter(|c| c.is_ascii_alphanumeric())
                .collect::<String>()
                .to_lowercase()
                == norm
        })
    }

    /// Build a sender strategy for a flow on path `key`. `cache` is the
    /// scenario-wide TCP-Cache store (ignored by other schemes).
    pub fn make(self, cache: &PathCache, key: (NodeId, NodeId)) -> Box<dyn Strategy> {
        match self {
            Protocol::Tcp => Box::new(Tcp::new()),
            Protocol::Tcp10 => Box::new(Tcp::with_icw10()),
            Protocol::TcpCache => Box::new(TcpCache::new(cache.clone(), key)),
            Protocol::Reactive => Box::new(ReactiveTcp::new()),
            Protocol::Proactive => Box::new(ProactiveTcp::new()),
            Protocol::JumpStart => Box::new(JumpStart::new()),
            Protocol::Pcp => Box::new(Pcp::new()),
            Protocol::Halfback => Box::new(Halfback::new()),
            Protocol::HalfbackForward => Box::new(Halfback::with_config(HalfbackConfig::forward())),
            Protocol::HalfbackBurst => Box::new(Halfback::with_config(HalfbackConfig::burst())),
            Protocol::HalfbackNoRopr => {
                Box::new(Halfback::with_config(HalfbackConfig::pacing_only()))
            }
            Protocol::HalfbackBurstFirst => {
                Box::new(Halfback::with_config(HalfbackConfig::burst_first()))
            }
            Protocol::HalfbackRatio23 => {
                Box::new(Halfback::with_config(HalfbackConfig::with_ratio(2, 3)))
            }
            Protocol::HalfbackRatio12 => {
                Box::new(Halfback::with_config(HalfbackConfig::with_ratio(1, 2)))
            }
        }
    }

    /// Table 1 row: (startup phase, additional bandwidth, retransmission
    /// direction, retransmission rate).
    pub fn table1_row(self) -> (&'static str, &'static str, &'static str, &'static str) {
        match self {
            Protocol::Tcp | Protocol::Reactive => {
                ("slow start (ICW 2)", "0%", "original order", "ACK-clocked")
            }
            Protocol::Tcp10 => ("slow start (ICW 10)", "0%", "original order", "ACK-clocked"),
            Protocol::TcpCache => ("cached window", "0%", "original order", "ACK-clocked"),
            Protocol::Proactive => ("slow start (ICW 2)", "100%", "original order", "with data"),
            Protocol::JumpStart => (
                "pacing, whole flow in 1 RTT",
                "0%",
                "original order",
                "line rate",
            ),
            Protocol::Pcp => ("probe trains", "probe overhead", "original order", "paced"),
            Protocol::Halfback | Protocol::HalfbackBurstFirst => (
                "pacing, whole flow in 1 RTT",
                "~50%",
                "reverse order",
                "ACK-clocked",
            ),
            Protocol::HalfbackForward => (
                "pacing, whole flow in 1 RTT",
                "~50%",
                "forward order",
                "ACK-clocked",
            ),
            Protocol::HalfbackBurst => (
                "pacing, whole flow in 1 RTT",
                "~50-100%",
                "reverse order",
                "line rate",
            ),
            Protocol::HalfbackNoRopr => ("pacing, whole flow in 1 RTT", "0%", "-", "-"),
            Protocol::HalfbackRatio23 => (
                "pacing, whole flow in 1 RTT",
                "~33%",
                "reverse order",
                "2 per 3 ACKs",
            ),
            Protocol::HalfbackRatio12 => (
                "pacing, whole flow in 1 RTT",
                "~25%",
                "reverse order",
                "1 per 2 ACKs",
            ),
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::path_cache;

    #[test]
    fn names_round_trip_through_parse() {
        for p in [
            Protocol::Tcp,
            Protocol::Tcp10,
            Protocol::TcpCache,
            Protocol::Reactive,
            Protocol::Proactive,
            Protocol::JumpStart,
            Protocol::Pcp,
            Protocol::Halfback,
            Protocol::HalfbackForward,
            Protocol::HalfbackBurst,
        ] {
            assert_eq!(Protocol::parse(p.name()), Some(p), "{p}");
        }
        assert_eq!(Protocol::parse("halfback"), Some(Protocol::Halfback));
        assert_eq!(Protocol::parse("tcp-10"), Some(Protocol::Tcp10));
        assert_eq!(Protocol::parse("nonsense"), None);
    }

    #[test]
    fn make_produces_matching_strategy_names() {
        let cache = path_cache();
        let key = (NodeId(0), NodeId(1));
        for p in Protocol::EVALUATED {
            let s = p.make(&cache, key);
            assert_eq!(s.name(), p.name(), "{p}");
        }
    }

    #[test]
    fn table1_covers_all_evaluated() {
        for p in Protocol::EVALUATED {
            let (startup, bw, dir, rate) = p.table1_row();
            assert!(!startup.is_empty() && !bw.is_empty() && !dir.is_empty() && !rate.is_empty());
        }
    }
}
