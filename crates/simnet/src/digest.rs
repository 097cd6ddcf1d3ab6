//! FNV-1a over 64-bit words: the one mixer the workspace's completion
//! digests are built from.
//!
//! Each word is folded in with a single xor-then-multiply step (FNV-1a
//! applied per word rather than per byte). A digest is only as
//! deterministic as the order its words are mixed in, so callers feed
//! ordered collections (`BTreeMap` iteration, id-sorted slices).

/// Streaming FNV-1a state over 64-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The 64-bit FNV offset basis: the digest of an empty stream.
    pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// The 64-bit FNV prime.
    pub const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh digest at the offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(Self::OFFSET)
    }

    /// Folds one word into the digest.
    pub fn mix(&mut self, word: u64) {
        self.0 ^= word;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    /// The digest of every word mixed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stream_is_the_offset_basis() {
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn mixing_is_order_sensitive_and_pinned() {
        let mut a = Fnv1a::new();
        a.mix(1);
        a.mix(2);
        let mut b = Fnv1a::new();
        b.mix(2);
        b.mix(1);
        assert_ne!(a.finish(), b.finish());
        // One word: (offset ^ 1) * prime, wrapping.
        let mut one = Fnv1a::new();
        one.mix(1);
        assert_eq!(
            one.finish(),
            (0xcbf2_9ce4_8422_2325u64 ^ 1).wrapping_mul(0x0000_0100_0000_01b3)
        );
    }
}
