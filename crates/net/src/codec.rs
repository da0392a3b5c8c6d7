//! The custom fast wire codec (paper §2). It is defined once, in
//! [`jsplit_mjvm::wire`] — the dependency-free crate every encoder already
//! depends on — and re-exported here under the names the protocol crates
//! import.

pub use jsplit_mjvm::wire::{CodecError, Counter, Patch, Reader, Writer};
