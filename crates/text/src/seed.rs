//! Deterministic seed derivation shared by every seeded pipeline stage.

/// Mix `(master, stream, item)` into an independent RNG seed
/// (splitmix64-style finalizer). `stream` names a stage or draw kind and
/// `item` an index within it, so every `(stage, item)` pair gets its own
/// reproducible RNG without sharing (or reordering) state with any other.
/// Collisions across distinct inputs are as unlikely as any 64-bit hash;
/// what matters is determinism and stream independence.
#[inline]
pub fn derive_seed(master: u64, stream: u64, item: u64) -> u64 {
    let mut z = master
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ item.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_separates_streams_and_items() {
        let a = derive_seed(42, 2, 0);
        let b = derive_seed(42, 2, 1);
        let c = derive_seed(42, 4, 0);
        let d = derive_seed(43, 2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }
}
