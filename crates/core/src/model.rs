//! The in-place-update linear model with its bitmap filter (paper § III-B).

use learned_index::{BitmapFilter, GreedyPlr, LinearSegment, Point};

/// Error bound used when fitting pieces: 0.5 means the rounded prediction of
/// every trained point is exact, which is the precondition for setting its
/// bit in the bitmap filter.
const EXACT_GAMMA: f64 = 0.5;

/// One in-place-update piecewise linear model, attached to a single GTD entry.
///
/// The model covers the entry's LPN range (512 LPNs with 4 KiB pages) and
/// consists of
///
/// * at most `max_pieces` linear pieces `<k, b, off>` predicting LPN→VPPN, and
/// * a bitmap filter with one bit per LPN: bit set ⇒ the model's prediction
///   for that LPN is exact and may be used instead of a flash translation
///   read; bit clear ⇒ the FTL must fall back to the ordinary double-read
///   path.
///
/// The bitmap is what makes the model updatable in place: a host write first
/// clears the bit of the written LPN (so a stale piece can never produce a
/// wrong physical address), and training — during GC or sequential
/// initialisation — replaces pieces and re-derives the bitmap.
///
/// With the paper's parameters (8 pieces of `<k, b, off>` at 2 bytes per
/// field plus a 512-bit bitmap) one model occupies 128 bytes, cheap enough to
/// keep **all** models in DRAM; [`InPlaceModel::nominal_bytes`] reports that
/// figure.
#[derive(Debug, Clone)]
pub struct InPlaceModel {
    start_lpn: u64,
    span: u32,
    max_pieces: usize,
    segments: Vec<LinearSegment>,
    bitmap: BitmapFilter,
}

impl InPlaceModel {
    /// Creates an empty (never trained) model covering
    /// `[start_lpn, start_lpn + span)`.
    ///
    /// # Panics
    ///
    /// Panics if `span` or `max_pieces` is zero.
    pub fn new(start_lpn: u64, span: u32, max_pieces: usize) -> Self {
        assert!(span > 0, "model span must be non-zero");
        assert!(max_pieces > 0, "a model needs at least one piece");
        InPlaceModel {
            start_lpn,
            span,
            max_pieces,
            segments: Vec::new(),
            bitmap: BitmapFilter::new(span as usize),
        }
    }

    /// First LPN covered by this model.
    pub fn start_lpn(&self) -> u64 {
        self.start_lpn
    }

    /// Number of LPNs covered by this model.
    pub fn span(&self) -> u32 {
        self.span
    }

    /// Number of linear pieces currently in use.
    pub fn piece_count(&self) -> usize {
        self.segments.len()
    }

    /// Fraction of the entry's LPNs whose predictions are trusted (bit set).
    pub fn coverage(&self) -> f64 {
        self.bitmap.coverage()
    }

    /// Number of LPNs whose predictions are trusted.
    pub fn trusted_lpns(&self) -> usize {
        self.bitmap.count_ones()
    }

    /// Nominal DRAM footprint of one model in bytes: `max_pieces` pieces of
    /// three 2-byte fields plus the bitmap (paper: 8·6 + 512/8 ≈ 128 B with
    /// rounding to the next power of two).
    pub fn nominal_bytes(&self) -> usize {
        self.max_pieces * 6 + self.span as usize / 8
    }

    /// Whether the prediction for `lpn` may be trusted.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is outside the model's range.
    pub fn is_trusted(&self, lpn: u64) -> bool {
        self.bitmap.get(self.offset(lpn))
    }

    /// Predicts the VPPN for `lpn`, returning `None` when the bitmap filter
    /// forbids using the model for that LPN.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is outside the model's range.
    pub fn predict(&self, lpn: u64) -> Option<u64> {
        if !self.is_trusted(lpn) {
            return None;
        }
        self.segments
            .iter()
            .find(|s| s.covers(lpn))
            .map(|s| s.predict_unchecked(lpn))
    }

    /// Clears the trust bit for `lpn`. Called on every host write to the LPN
    /// so the model can never return a stale physical address (paper's data
    /// consistency rule).
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is outside the model's range.
    pub fn invalidate(&mut self, lpn: u64) {
        let off = self.offset(lpn);
        self.bitmap.clear(off);
    }

    /// Clears every trust bit (e.g. when the entry's pages are relocated and
    /// the model has not been retrained yet).
    pub fn invalidate_all(&mut self) {
        self.bitmap.clear_all();
    }

    /// Fully retrains the model from `points` (LPN→VPPN pairs sorted by
    /// strictly increasing LPN, all inside the model's range). Used during GC
    /// and rewrite training (paper § III-E2/E3).
    ///
    /// Fits exact pieces, keeps the `max_pieces` longest ones and rebuilds the
    /// bitmap so that exactly the points predicted correctly by the kept
    /// pieces are trusted.
    ///
    /// # Panics
    ///
    /// Panics if a point lies outside the model's range or the points are not
    /// strictly increasing.
    pub fn train(&mut self, points: &[Point]) {
        for p in points {
            assert!(
                self.contains(p.key),
                "training point {} outside model range",
                p.key
            );
        }
        let mut fitted = GreedyPlr::new(EXACT_GAMMA).fit(points);
        if fitted.len() > self.max_pieces {
            // Keep the pieces that cover the most keys; drop the rest.
            fitted.sort_by_key(|s| std::cmp::Reverse(s.key_span()));
            fitted.truncate(self.max_pieces);
            fitted.sort_by_key(LinearSegment::first_key);
        }
        self.segments = fitted;
        self.bitmap.clear_all();
        for p in points {
            let exact = self
                .segments
                .iter()
                .find(|s| s.covers(p.key))
                .map(|s| s.predict_unchecked(p.key) == p.value)
                .unwrap_or(false);
            if exact {
                self.bitmap.set(self.offset(p.key));
            }
        }
    }

    /// Sequential initialisation (paper § III-E1): updates the model in place
    /// from one write request's run of consecutive LPNs mapped to consecutive
    /// VPPNs.
    ///
    /// The written LPN range is carved out of any overlapping pieces (their
    /// untouched head/tail keep serving their trusted LPNs, matching the
    /// paper's Fig. 10 where the neighbouring model's offset is adjusted
    /// rather than the model being thrown away) and a new exact piece covers
    /// the run. If the piece budget overflows, the piece serving the fewest
    /// trusted LPNs is dropped. Returns whether the model was updated.
    ///
    /// # Panics
    ///
    /// Panics if the run is empty, not consecutive in both LPN and VPPN, or
    /// outside the model's range.
    pub fn sequential_init(&mut self, run: &[Point]) -> bool {
        assert!(!run.is_empty(), "sequential run must not be empty");
        for w in run.windows(2) {
            assert_eq!(w[1].key, w[0].key + 1, "run LPNs must be consecutive");
            assert_eq!(w[1].value, w[0].value + 1, "run VPPNs must be consecutive");
        }
        for p in run {
            assert!(
                self.contains(p.key),
                "run point {} outside model range",
                p.key
            );
        }
        let run_start = run[0].key;
        let run_end = run[run.len() - 1].key;

        // Carve the run's range out of every overlapping piece: keep the head
        // and tail parts (with identical prediction functions) so their
        // trusted LPNs survive the in-place update.
        let mut rebuilt: Vec<LinearSegment> = Vec::with_capacity(self.segments.len() + 2);
        for seg in std::mem::take(&mut self.segments) {
            if seg.last_key() < run_start || seg.first_key() > run_end {
                rebuilt.push(seg);
                continue;
            }
            if seg.first_key() < run_start {
                let head_span = run_start - seg.first_key();
                rebuilt.push(LinearSegment::new(
                    seg.first_key(),
                    seg.slope(),
                    seg.intercept(),
                    head_span,
                ));
            }
            if seg.last_key() > run_end {
                let tail_first = run_end + 1;
                let tail_intercept =
                    seg.slope() * (tail_first - seg.first_key()) as f64 + seg.intercept();
                rebuilt.push(LinearSegment::new(
                    tail_first,
                    seg.slope(),
                    tail_intercept,
                    seg.last_key() - run_end,
                ));
            }
        }
        // Insert the new exact piece for the run itself.
        rebuilt.push(LinearSegment::new(
            run_start,
            1.0,
            run[0].value as f64,
            run.len() as u64,
        ));
        rebuilt.sort_by_key(LinearSegment::first_key);
        self.segments = rebuilt;

        while self.segments.len() > self.max_pieces {
            // Evict the piece serving the fewest trusted LPNs (never the one
            // we just inserted if avoidable).
            let evict = self
                .segments
                .iter()
                .enumerate()
                .filter(|(_, s)| s.first_key() != run_start || s.key_span() != run.len() as u64)
                .min_by_key(|(_, s)| self.trusted_in(s.first_key(), s.last_key()))
                .map(|(i, _)| i);
            let Some(i) = evict else { break };
            let seg = self.segments.remove(i);
            let lo = self.offset(seg.first_key().max(self.start_lpn));
            let hi = self.offset(
                seg.last_key()
                    .min(self.start_lpn + u64::from(self.span) - 1),
            );
            self.bitmap.clear_range(lo..hi + 1);
        }
        let lo = self.offset(run_start);
        self.bitmap.set_range(lo..lo + run.len());
        true
    }

    fn trusted_in(&self, first_key: u64, last_key: u64) -> usize {
        let lo = first_key.max(self.start_lpn);
        let hi = last_key.min(self.start_lpn + u64::from(self.span) - 1);
        if lo > hi {
            return 0;
        }
        (self.offset(lo)..=self.offset(hi))
            .filter(|&i| self.bitmap.get(i))
            .count()
    }

    fn contains(&self, lpn: u64) -> bool {
        lpn >= self.start_lpn && lpn < self.start_lpn + u64::from(self.span)
    }

    fn offset(&self, lpn: u64) -> usize {
        assert!(self.contains(lpn), "lpn {lpn} outside model range");
        (lpn - self.start_lpn) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn points(pairs: &[(u64, u64)]) -> Vec<Point> {
        pairs.iter().map(|&(k, v)| Point::new(k, v)).collect()
    }

    #[test]
    fn untrained_model_trusts_nothing() {
        let m = InPlaceModel::new(512, 512, 8);
        assert_eq!(m.predict(512), None);
        assert_eq!(m.coverage(), 0.0);
        assert_eq!(m.piece_count(), 0);
        assert_eq!(m.nominal_bytes(), 8 * 6 + 64);
    }

    #[test]
    fn train_on_linear_points_trusts_everything() {
        let mut m = InPlaceModel::new(0, 512, 8);
        let pts: Vec<Point> = (0..512).map(|i| Point::new(i, 9000 + i)).collect();
        m.train(&pts);
        assert_eq!(m.piece_count(), 1);
        assert_eq!(m.trusted_lpns(), 512);
        for p in &pts {
            assert_eq!(m.predict(p.key), Some(p.value));
        }
    }

    #[test]
    fn train_with_too_many_runs_keeps_longest_pieces() {
        let mut m = InPlaceModel::new(0, 512, 2);
        // Three disjoint runs with different value bases: needs 3 pieces.
        let mut pts = Vec::new();
        pts.extend((0..200).map(|i| Point::new(i, 1000 + i)));
        pts.extend((200..300).map(|i| Point::new(i, 5000 + i)));
        pts.extend((300..330).map(|i| Point::new(i, 9000 + i)));
        m.train(&pts);
        assert_eq!(m.piece_count(), 2);
        // The two longest runs are trusted, the short one is not.
        assert_eq!(m.predict(10), Some(1010));
        assert_eq!(m.predict(250), Some(5250));
        assert_eq!(m.predict(310), None);
        assert_eq!(m.trusted_lpns(), 300);
    }

    #[test]
    fn invalidate_clears_trust_for_that_lpn_only() {
        let mut m = InPlaceModel::new(0, 64, 4);
        m.train(&points(&[(0, 10), (1, 11), (2, 12), (3, 13)]));
        m.invalidate(2);
        assert_eq!(m.predict(2), None);
        assert_eq!(m.predict(1), Some(11));
        assert_eq!(m.trusted_lpns(), 3);
    }

    #[test]
    fn sequential_init_replaces_shorter_model() {
        let mut m = InPlaceModel::new(0, 512, 8);
        m.train(&points(&[(10, 100), (11, 101)]));
        assert_eq!(m.trusted_lpns(), 2);
        // A longer run overlapping the old piece replaces it.
        let run: Vec<Point> = (8..20).map(|i| Point::new(i, 700 + (i - 8))).collect();
        assert!(m.sequential_init(&run));
        assert_eq!(m.predict(10), Some(702));
        assert_eq!(m.predict(19), Some(711));
        assert_eq!(m.trusted_lpns(), 12);
    }

    #[test]
    fn sequential_init_carves_out_of_a_longer_model() {
        let mut m = InPlaceModel::new(0, 512, 8);
        let long: Vec<Point> = (0..100).map(|i| Point::new(i, 4000 + i)).collect();
        m.train(&long);
        // A 2-page run in the middle of a 100-page trusted piece updates just
        // that range; the head and tail of the old piece keep serving reads.
        let run = points(&[(50, 8000), (51, 8001)]);
        assert!(m.sequential_init(&run));
        assert_eq!(m.predict(50), Some(8000));
        assert_eq!(m.predict(51), Some(8001));
        assert_eq!(m.predict(49), Some(4049), "head of the old piece survives");
        assert_eq!(m.predict(52), Some(4052), "tail of the old piece survives");
        assert_eq!(m.trusted_lpns(), 100);
        assert_eq!(m.piece_count(), 3);
    }

    #[test]
    fn sequential_init_respects_piece_budget() {
        let mut m = InPlaceModel::new(0, 512, 2);
        assert!(m.sequential_init(&points(&[(0, 10), (1, 11)])));
        assert!(m.sequential_init(&points(&[(100, 210), (101, 211), (102, 212)])));
        assert!(m.sequential_init(&points(&[(200, 450), (201, 451), (202, 452), (203, 453)])));
        assert!(m.piece_count() <= 2);
        // The newest run is always trusted.
        assert_eq!(m.predict(200), Some(450));
        assert_eq!(m.predict(203), Some(453));
    }

    #[test]
    #[should_panic(expected = "consecutive")]
    fn sequential_init_rejects_non_consecutive_runs() {
        let mut m = InPlaceModel::new(0, 64, 4);
        m.sequential_init(&points(&[(0, 10), (2, 12)]));
    }

    #[test]
    #[should_panic(expected = "outside model range")]
    fn train_rejects_out_of_range_points() {
        let mut m = InPlaceModel::new(0, 64, 4);
        m.train(&points(&[(100, 1)]));
    }

    proptest! {
        /// Core safety invariant of the bitmap filter: a trusted prediction is
        /// always exactly the value the model was trained with, no matter what
        /// sequence of trainings, sequential initialisations and invalidations
        /// happened.
        #[test]
        fn prop_trusted_predictions_are_always_exact(
            ops in proptest::collection::vec(
                (0u8..3, 0u64..64, 1u64..32, 0u64..100_000),
                1..40,
            )
        ) {
            let mut model = InPlaceModel::new(0, 64, 4);
            let mut truth: BTreeMap<u64, u64> = BTreeMap::new();
            for (op, start, len, base) in ops {
                match op {
                    0 => {
                        // Sequential run write: update truth, invalidate bits,
                        // then try sequential init.
                        let end = (start + len).min(64);
                        if start >= end { continue; }
                        let run: Vec<Point> = (start..end)
                            .map(|l| Point::new(l, base + (l - start)))
                            .collect();
                        for p in &run {
                            truth.insert(p.key, p.value);
                            model.invalidate(p.key);
                        }
                        model.sequential_init(&run);
                    }
                    1 => {
                        // Full retrain from the current truth (as GC does).
                        let mut pts: Vec<Point> = truth
                            .iter()
                            .map(|(&k, &v)| Point::new(k, v))
                            .collect();
                        pts.sort_by_key(|p| p.key);
                        model.train(&pts);
                    }
                    _ => {
                        // Single-page overwrite: truth changes, bit must clear.
                        let lpn = start.min(63);
                        truth.insert(lpn, base);
                        model.invalidate(lpn);
                    }
                }
                // Invariant: every trusted prediction matches the truth.
                for lpn in 0..64u64 {
                    if let Some(pred) = model.predict(lpn) {
                        let expected = truth.get(&lpn);
                        prop_assert_eq!(
                            Some(&pred), expected,
                            "lpn {} predicted {} truth {:?}", lpn, pred, expected
                        );
                    }
                }
                prop_assert!(model.piece_count() <= 4);
            }
        }
    }
}
