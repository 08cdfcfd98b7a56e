//! Candidate gating for `pmr-serve`: per-window postings that let a query
//! skip every candidate sharing no feature with the user's model.
//!
//! [`WindowPostings`] maps each feature key to the sorted ids of the
//! window candidates carrying it. The serving engine updates it on ingest
//! and eviction, and at query time scores only the candidates
//! [`WindowPostings::matched`] returns, zero-filling the rest. That gate is
//! exact, not a heuristic: a candidate sharing no term with a bag model
//! scores exactly `0.0` under CS/JS/GJS (zero overlap ⇒ zero numerator /
//! zero intersection — the proptest below pins this), and one sharing no
//! gram with a graph model shares no edge either. Serving output is
//! therefore byte-identical to scoring every candidate, for any window
//! content.

use std::collections::BTreeMap;

/// Incremental postings over a serving window: key → sorted candidate ids.
///
/// The serving engine inserts a candidate's keys on ingest and removes
/// them on window eviction; at query time [`WindowPostings::matched`]
/// returns exactly the candidates sharing at least one key with the model,
/// and the shard scores only those (zero-filling the rest). `BTreeMap`
/// keeps every traversal in key order — nothing here depends on hash
/// iteration order.
#[derive(Debug, Clone, Default)]
pub struct WindowPostings<K: Ord> {
    lists: BTreeMap<K, Vec<u32>>,
}

impl<K: Ord + Clone> WindowPostings<K> {
    /// An empty postings map.
    pub fn new() -> WindowPostings<K> {
        WindowPostings { lists: BTreeMap::new() }
    }

    /// Number of distinct keys currently posted.
    pub fn keys(&self) -> usize {
        self.lists.len()
    }

    /// Post `doc` under each of `keys` (duplicates are deduplicated).
    pub fn insert<I: IntoIterator<Item = K>>(&mut self, doc: u32, keys: I) {
        for key in keys {
            let list = self.lists.entry(key).or_default();
            if let Err(at) = list.binary_search(&doc) {
                list.insert(at, doc);
            }
        }
    }

    /// Remove `doc` from each of `keys`' lists, dropping emptied lists.
    pub fn remove<'a, I: IntoIterator<Item = &'a K>>(&mut self, doc: u32, keys: I)
    where
        K: 'a,
    {
        for key in keys {
            if let Some(list) = self.lists.get_mut(key) {
                if let Ok(at) = list.binary_search(&doc) {
                    list.remove(at);
                }
                if list.is_empty() {
                    self.lists.remove(key);
                }
            }
        }
    }

    /// The ascending, deduplicated union of candidates posted under any of
    /// `keys`.
    pub fn matched<'a, I: IntoIterator<Item = &'a K>>(&self, keys: I) -> Vec<u32>
    where
        K: 'a,
    {
        let mut out: Vec<u32> = Vec::new();
        for key in keys {
            if let Some(list) = self.lists.get(key) {
                out.extend_from_slice(list);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_postings_track_insert_and_evict() {
        let mut postings: WindowPostings<u32> = WindowPostings::new();
        postings.insert(10, [1, 2, 2]); // duplicate key deduplicated
        postings.insert(11, [2, 3]);
        assert_eq!(postings.matched([1, 2, 9].iter()), vec![10, 11]);
        assert_eq!(postings.matched([3].iter()), vec![11]);
        assert_eq!(postings.matched([9].iter()), Vec::<u32>::new());
        postings.remove(10, [1, 2].iter());
        assert_eq!(postings.matched([1, 2].iter()), vec![11]);
        assert_eq!(postings.keys(), 2, "emptied lists are dropped");
    }

    #[test]
    fn window_postings_string_keys_for_graph_features() {
        let mut postings: WindowPostings<String> = WindowPostings::new();
        postings.insert(5, ["cats".to_owned(), "purr".to_owned()]);
        postings.insert(6, ["rust".to_owned()]);
        let model_keys = ["cats".to_owned(), "code".to_owned()];
        assert_eq!(postings.matched(model_keys.iter()), vec![5]);
    }
}

#[cfg(test)]
mod proptests {
    use pmr_bag::{BagSimilarity, ScoringKernel, SparseVector};
    use proptest::prelude::*;

    proptest! {
        /// Zero-overlap candidates score exactly 0.0 under every bag
        /// similarity — the invariant that makes zero-filling gated-out
        /// candidates exact rather than approximate.
        #[test]
        fn zero_overlap_scores_exactly_zero(
            model_pairs in proptest::collection::vec((0u32..20, -4.0f32..4.0), 0..12),
            doc_pairs in proptest::collection::vec((20u32..40, -4.0f32..4.0), 0..12),
        ) {
            let model = SparseVector::from_pairs(model_pairs);
            let doc = SparseVector::from_pairs(doc_pairs);
            for sim in [BagSimilarity::Cosine, BagSimilarity::Jaccard, BagSimilarity::GeneralizedJaccard] {
                let kernel = ScoringKernel::new(sim, &model);
                prop_assert_eq!(kernel.score(&doc).to_bits(), 0.0f64.to_bits(), "{}", sim.name());
            }
        }
    }
}
