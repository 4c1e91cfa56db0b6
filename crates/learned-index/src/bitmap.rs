//! The per-key accuracy bitmap used by LearnedFTL's in-place-update model.

/// A fixed-length bitmap with one bit per key slot.
///
/// In LearnedFTL every GTD entry covers 512 LPNs and carries a 512-bit bitmap
/// filter: bit `i` is `1` when the learned model predicts the `i`-th LPN of
/// the entry exactly, and `0` when the prediction must not be trusted (the
/// FTL then falls back to the ordinary double-read path). The bitmap is also
/// what makes in-place model updates safe: before any write, the bit of the
/// written LPN is cleared so a stale model can never return a wrong PPN.
///
/// ```
/// use learned_index::BitmapFilter;
/// let mut bm = BitmapFilter::new(512);
/// bm.set(17);
/// assert!(bm.get(17));
/// assert_eq!(bm.count_ones(), 1);
/// bm.clear(17);
/// assert!(!bm.get(17));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitmapFilter {
    words: Vec<u64>,
    len: usize,
}

impl BitmapFilter {
    /// Creates an all-zero bitmap with `len` bits.
    pub fn new(len: usize) -> Self {
        BitmapFilter {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits in the bitmap.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn get(&self, index: usize) -> bool {
        assert!(index < self.len, "bitmap index {index} out of range");
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Sets the bit at `index` to 1.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn set(&mut self, index: usize) {
        assert!(index < self.len, "bitmap index {index} out of range");
        self.words[index / 64] |= 1 << (index % 64);
    }

    /// Clears the bit at `index` to 0.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn clear(&mut self, index: usize) {
        assert!(index < self.len, "bitmap index {index} out of range");
        self.words[index / 64] &= !(1 << (index % 64));
    }

    /// Sets every bit in `range` (half-open) to 1.
    ///
    /// # Panics
    ///
    /// Panics if the range end exceeds `len`.
    pub fn set_range(&mut self, range: std::ops::Range<usize>) {
        assert!(range.end <= self.len, "bitmap range out of bounds");
        for i in range {
            self.words[i / 64] |= 1 << (i % 64);
        }
    }

    /// Clears every bit in `range` (half-open) to 0.
    ///
    /// # Panics
    ///
    /// Panics if the range end exceeds `len`.
    pub fn clear_range(&mut self, range: std::ops::Range<usize>) {
        assert!(range.end <= self.len, "bitmap range out of bounds");
        for i in range {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Clears the whole bitmap.
    pub fn clear_all(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Number of bits currently set to 1.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of bits set, in `[0, 1]`. Returns 0 for an empty bitmap.
    pub fn coverage(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count_ones() as f64 / self.len as f64
        }
    }

    /// Memory consumed by the bit storage, in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_bitmap_is_all_zero() {
        let bm = BitmapFilter::new(512);
        assert_eq!(bm.len(), 512);
        assert_eq!(bm.count_ones(), 0);
        assert!((0..512).all(|i| !bm.get(i)));
        assert_eq!(bm.storage_bytes(), 64);
    }

    #[test]
    fn set_clear_get() {
        let mut bm = BitmapFilter::new(130);
        bm.set(0);
        bm.set(64);
        bm.set(129);
        assert_eq!(bm.count_ones(), 3);
        assert!(bm.get(64));
        bm.clear(64);
        assert!(!bm.get(64));
        assert_eq!(bm.count_ones(), 2);
    }

    #[test]
    fn range_operations() {
        let mut bm = BitmapFilter::new(200);
        bm.set_range(10..90);
        assert_eq!(bm.count_ones(), 80);
        bm.clear_range(20..30);
        assert_eq!(bm.count_ones(), 70);
        assert!(bm.get(10));
        assert!(!bm.get(25));
        bm.clear_all();
        assert_eq!(bm.count_ones(), 0);
    }

    #[test]
    fn coverage_fraction() {
        let mut bm = BitmapFilter::new(100);
        bm.set_range(0..25);
        assert!((bm.coverage() - 0.25).abs() < 1e-9);
        assert_eq!(BitmapFilter::new(0).coverage(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        BitmapFilter::new(10).get(10);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_set_range_panics() {
        BitmapFilter::new(10).set_range(5..11);
    }

    proptest! {
        #[test]
        fn prop_count_matches_model(ops in proptest::collection::vec((0usize..512, any::<bool>()), 0..300)) {
            let mut bm = BitmapFilter::new(512);
            let mut model = std::collections::BTreeSet::new();
            for (idx, set) in ops {
                if set {
                    bm.set(idx);
                    model.insert(idx);
                } else {
                    bm.clear(idx);
                    model.remove(&idx);
                }
            }
            prop_assert_eq!(bm.count_ones(), model.len());
            for i in 0..512 {
                prop_assert_eq!(bm.get(i), model.contains(&i));
            }
        }
    }
}
