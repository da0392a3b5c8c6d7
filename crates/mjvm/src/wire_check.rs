//! Test support shared by every crate that defines a wire format. It needs
//! proptest (a dev-dependency everywhere), so it cannot be a `pub` item of
//! this crate: each user includes the file itself, with
//! `#[cfg(test)] #[path = "…/mjvm/src/wire_check.rs"] mod wire_check;`.
#![allow(dead_code)] // not every includer pins bytes *and* checks totality

use proptest::collection::vec;
use proptest::prelude::*;

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The encoder under test still emits exactly the bytes pinned as
/// `(length, FNV-1a)` when the format was defined. A failure here means the
/// format moved: virtual time sees `.mjvm`, `Msg` and frame bytes, and a
/// peer of another build sees the rest (`tcp::VERSION`).
pub fn assert_pinned(what: &str, bytes: &[u8], pinned: (usize, u64)) {
    let got = (bytes.len(), fnv1a(bytes));
    assert_eq!(got, pinned, "{what}: encoded bytes moved, now ({}, {:#018x})", got.0, got.1);
}

/// `decode` is total on outside bytes: it accepts `good` (one complete
/// encoding), refuses every strict prefix of it and any trailing garbage,
/// and on arbitrary input — random bytes up to 512 long, `good` with one
/// byte replaced, a prefix of `good` spliced onto random bytes — returns
/// without panicking.
pub fn assert_total<T, E: std::fmt::Debug>(decode: impl Fn(&[u8]) -> Result<T, E>, good: &[u8]) {
    if let Err(e) = decode(good) {
        panic!("the reference encoding was refused: {e:?}");
    }
    for len in 0..good.len() {
        assert!(decode(&good[..len]).is_err(), "prefix of {len}/{} bytes accepted", good.len());
    }
    for garbage in [0u8, 0xFF] {
        let mut trailing = good.to_vec();
        trailing.push(garbage);
        assert!(decode(&trailing).is_err(), "trailing {garbage:#04x} accepted");
    }
    TestRunner::default()
        .run(&(vec(any::<u8>(), 0..513), any::<usize>(), any::<u8>()), |(noise, at, byte)| {
            let _ = decode(&noise);
            let at = at % good.len().max(1);
            let mut mutated = good.to_vec();
            if let Some(b) = mutated.get_mut(at) {
                *b = byte;
            }
            let _ = decode(&mutated);
            mutated.truncate(at);
            mutated.extend_from_slice(&noise);
            let _ = decode(&mutated);
            Ok(())
        })
        .unwrap();
}
