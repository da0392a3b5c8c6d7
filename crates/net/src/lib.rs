//! # jsplit-net — simulated IP network and the custom wire codec
//!
//! The paper runs over "standard IP-based communication" through the Java
//! socket interface (paper §2); the reproduction substitutes a simulated
//! network whose per-message latency is calibrated from the paper's Table 3:
//! `latency = base(sender JVM) + size · per_byte`, where the base term is the
//! (JVM-brand-dependent) socket-stack overhead and the per-byte term the
//! 100 Mbit/s wire. Links are FIFO and loss-free, like TCP over a quiet LAN.
//!
//! The codec — the paper's custom fast serialization (paper §2 rejects
//! `java.io` serialization) — is `jsplit_mjvm::wire`, re-exported as
//! [`codec`]; the frame records ([`transport`]) and TCP envelopes ([`tcp`])
//! defined here are written and read through it.

pub mod codec;
pub mod sim;
pub mod stats;
pub mod tcp;
pub mod transport;
#[cfg(test)]
#[path = "../../mjvm/src/wire_check.rs"]
mod wire_check;

pub use codec::{Reader, Writer};
pub use sim::{LinkParams, Network, NodeId, LOOPBACK_PS};
pub use stats::{MsgKind, NetStats};
pub use transport::{
    ChannelEndpoint, Frame, FrameError, FrameLink, FrameStats, MeshSetup, SoloSetup, Transport, WireMsg,
    FRAME_CHUNK,
};
