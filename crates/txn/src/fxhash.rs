//! A small multiplicative hasher for the automata's per-transaction tables.
//!
//! `Tid` keys are short `u32` paths; SipHash's per-lookup setup dominates
//! hashing them. This is the rotate-xor-multiply scheme of the Firefox /
//! rustc "Fx" hasher: not DoS-resistant, which is fine for keys the
//! automata mint themselves.

use std::hash::{BuildHasherDefault, Hasher};

/// The hasher state.
#[derive(Clone, Copy, Default)]
pub(crate) struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    /// A `Tid` path hashes as its `u32`s' bytes: whole 8-byte words, then
    /// a 4-byte tail for an odd length (explicit branches, not a
    /// variable-length copy, keep this inlined into the table probes).
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let mut rest = words.remainder();
        if let Some((half, tail)) = rest.split_first_chunk::<4>() {
            self.add(u64::from(u32::from_le_bytes(*half)));
            rest = tail;
        }
        for &b in rest {
            self.add(u64::from(b));
        }
    }

    /// The slice length prefix.
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The `BuildHasher` that gives `HashMap`/`HashSet` an [`FxHasher`].
pub(crate) type FxBuild = BuildHasherDefault<FxHasher>;
