//! # baselines — the seven comparison schemes from the Halfback paper
//!
//! Each scheme is a [`transport::Strategy`] plugged into the shared sender
//! chassis, exactly mirroring the paper's methodology of sender-side-only
//! changes over a common UDT+SACK substrate (§4.1):
//!
//! | Scheme | Module | One-line description |
//! |---|---|---|
//! | TCP | [`tcp`] | NewReno, ICW = 2 |
//! | TCP-10 | [`tcp`] | NewReno, ICW = 10 (\[6, 15\]) |
//! | TCP-Cache | [`tcp_cache`] | per-path cwnd/ssthresh cache (\[28\]) |
//! | Reactive | [`reactive`] | tail loss probe / PTO (\[18\]) |
//! | Proactive | [`proactive`] | every segment sent twice (\[18\]) |
//! | JumpStart | [`jumpstart`] | whole flow paced in 1 RTT, bursty reactive retx (\[25\]) |
//! | PCP | [`pcp`] | packet-train probing, rate-paced transfer (\[7\]) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod jumpstart;
pub mod pcp;
pub mod proactive;
pub mod reactive;
pub mod tcp;
pub mod tcp_cache;

pub use jumpstart::JumpStart;
pub use pcp::Pcp;
pub use proactive::ProactiveTcp;
pub use reactive::ReactiveTcp;
pub use tcp::Tcp;
pub use tcp_cache::{path_cache, CacheEntry, PathCache, TcpCache};
