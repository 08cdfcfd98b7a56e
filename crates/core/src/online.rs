//! Online user modeling: incremental updates for a deployed recommender.
//!
//! The paper's evaluation is batch (train once, rank once), but its stated
//! purpose is fine-tuning models "for use in real recommender systems" (§1).
//! A deployed system cannot refit on every retweet; this module maintains a
//! user model *incrementally*:
//!
//! * the **bag** variant ([`OnlineProfile`]) keeps an exponentially-decayed
//!   sum of unit document vectors — the centroid aggregation of §3.2 with a
//!   recency half-life, reducing to the plain centroid (up to scale) when
//!   decay is 1;
//! * the **graph** variant reuses the n-gram graphs' update operator, which
//!   is already incremental by construction (its learning factor
//!   `1/(k+1)` is the running-average schedule).
//!
//! Both variants score candidates with the same similarity measures as the
//! batch models (a bag profile through `pmr_bag::ScoringKernel`), so an
//! online model converges to its batch counterpart on a static stream.

use pmr_bag::SparseVector;
use pmr_graph::{GraphSimilarity, GraphSpace, NGramGraph};
use serde::{Deserialize, Serialize};

/// An online bag user model: an exponentially decayed sum of unit document
/// vectors.
///
/// Vectorizer-free, so a serving engine with one *shared* feature space
/// (`pmr_bag::IndexedVectorizer`) can keep a profile per user without
/// cloning a vectorizer into each of them; the caller supplies
/// already-transformed, unit-normalized vectors, and scores candidates —
/// normalized the same way — against [`OnlineProfile::vector`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineProfile {
    /// Decay multiplier applied to the accumulated model before each
    /// update; 1.0 = no forgetting (running centroid up to scale).
    decay: f32,
    accumulated: SparseVector,
    documents: usize,
}

impl OnlineProfile {
    /// Start an empty profile.
    ///
    /// `decay` ∈ (0, 1]: the weight multiplier applied to history per
    /// update. With decay `d`, a document observed `k` updates ago carries
    /// relative weight `d^k` — a half-life of `ln 2 / ln(1/d)` updates.
    pub fn new(decay: f32) -> Self {
        assert!(decay > 0.0 && decay <= 1.0, "decay must be in (0, 1]");
        OnlineProfile { decay, accumulated: SparseVector::new(), documents: 0 }
    }

    /// Fold one observed document's *unit-normalized* vector into the
    /// profile: one decay step, then the new document at full weight.
    pub fn observe_unit(&mut self, unit: &SparseVector) {
        self.accumulated.scale(self.decay);
        self.accumulated.add_scaled(unit, 1.0);
        self.documents += 1;
    }

    /// The decay multiplier.
    pub fn decay(&self) -> f32 {
        self.decay
    }

    /// Number of observed documents.
    pub fn documents(&self) -> usize {
        self.documents
    }

    /// The current (unnormalized) model vector.
    pub fn vector(&self) -> &SparseVector {
        &self.accumulated
    }
}

/// An incrementally-updated n-gram graph user model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineGraphModel {
    space: GraphSpace,
    similarity: GraphSimilarity,
    window: usize,
    user: NGramGraph,
}

impl OnlineGraphModel {
    /// Start an empty model. `window` is the co-occurrence window (= n).
    pub fn new(similarity: GraphSimilarity, window: usize) -> Self {
        OnlineGraphModel { space: GraphSpace::new(), similarity, window, user: NGramGraph::new() }
    }

    /// Fold one observed document into the model via the update operator.
    pub fn observe<S: AsRef<str>>(&mut self, grams: &[S]) {
        let g = self.space.graph_from_grams(grams, self.window);
        self.user.merge(&g);
    }

    /// Score a candidate document against the current model.
    pub fn score<S: AsRef<str>>(&mut self, grams: &[S]) -> f64 {
        let g = self.space.graph_from_grams(grams, self.window);
        self.similarity.compare(&self.user, &g)
    }

    /// Number of observed documents.
    pub fn documents(&self) -> usize {
        self.user.merged_docs()
    }

    /// Sorted, deduplicated surface forms of the user graph's nodes — the
    /// key set a serving window's postings are gated on. A candidate
    /// sharing no node gram with the model cannot share an edge either, so
    /// its score is exactly 0.0 and may be zero-filled without scoring.
    pub fn node_terms(&self) -> Vec<String> {
        let mut terms: Vec<&str> = Vec::new();
        for (a, b, _) in self.user.edges() {
            terms.push(self.space.gram(a));
            terms.push(self.space.gram(b));
        }
        terms.sort_unstable();
        terms.dedup();
        terms.into_iter().map(str::to_owned).collect()
    }

    /// Build (and intern) a candidate's graph exactly as [`Self::score`]
    /// does, but skip the comparison, returning the exact `0.0` it would
    /// produce. The serving engine calls this for gated-out candidates so
    /// the space's interning sequence — and therefore every later score's
    /// bits — stays identical to the exhaustive path.
    pub fn intern_only<S: AsRef<str>>(&mut self, grams: &[S]) -> f64 {
        let _g = self.space.graph_from_grams(grams, self.window);
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_bag::{BagSimilarity, BagVectorizer, ScoringKernel, WeightingScheme};

    fn docs() -> Vec<Vec<String>> {
        let d = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        vec![d("cats purr softly"), d("cats nap often"), d("rust code compiles")]
    }

    fn grams(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    /// A bag profile over `docs()`' TF space: the vectorizer that
    /// unit-normalizes observed and candidate documents alike, as the
    /// serving engine's shared vectorizer does.
    fn unit_of() -> impl Fn(&[String]) -> SparseVector {
        let vectorizer = BagVectorizer::fit(WeightingScheme::TF, docs().iter());
        move |doc| vectorizer.transform(doc).normalized()
    }

    fn score(profile: &OnlineProfile, similarity: BagSimilarity, candidate: &SparseVector) -> f64 {
        ScoringKernel::new(similarity, profile.vector()).score(candidate)
    }

    #[test]
    fn decay_forgets_old_interests() {
        let unit = unit_of();
        let mut fast_forget = OnlineProfile::new(0.2);
        let mut no_forget = OnlineProfile::new(1.0);
        // Old interest: cats. New interest: rust.
        for d in docs() {
            fast_forget.observe_unit(&unit(&d));
            no_forget.observe_unit(&unit(&d));
        }
        let cats = unit(&grams("cats purr"));
        assert!(
            score(&fast_forget, BagSimilarity::Cosine, &cats)
                < score(&no_forget, BagSimilarity::Cosine, &cats),
            "decayed model must care less about stale interests"
        );
    }

    #[test]
    fn observe_decays_history_exactly() {
        // One observe = one decay step on the history, then the new
        // document at full weight.
        let unit = unit_of();
        let (a, b) = (unit(&docs()[0]), unit(&docs()[2]));
        let mut profile = OnlineProfile::new(0.5);
        profile.observe_unit(&a);
        profile.observe_unit(&b);
        let mut want = a.clone();
        want.scale(0.5);
        want.add_scaled(&b, 1.0);
        assert_eq!(profile.vector(), &want);
        assert_eq!(profile.documents(), 2);
    }

    #[test]
    fn online_graph_tracks_observed_content() {
        let mut model = OnlineGraphModel::new(GraphSimilarity::Value, 2);
        for d in docs() {
            model.observe(&d);
        }
        assert_eq!(model.documents(), 3);
        let seen = grams("cats purr softly");
        let unseen = grams("quantum flux capacitor");
        assert!(model.score(&seen) > model.score(&unseen));
        assert_eq!(model.score(&unseen), 0.0);
    }

    #[test]
    fn gated_graph_scoring_matches_exhaustive_bit_for_bit() {
        // The serving engine's retrieval gate: candidates sharing no node
        // gram with the model take `intern_only` (score 0.0 without the
        // comparison). That must (a) equal the exhaustive score exactly
        // and (b) leave the interning sequence — and therefore every
        // *later* score's bits — identical to the exhaustive path.
        let mut exhaustive = OnlineGraphModel::new(GraphSimilarity::Value, 2);
        for d in docs() {
            exhaustive.observe(&d);
        }
        let mut gated = exhaustive.clone();
        let nodes = gated.node_terms();
        let unseen: Vec<String> =
            "quantum flux capacitor".split_whitespace().map(str::to_owned).collect();
        assert!(
            !unseen.iter().any(|g| nodes.binary_search(g).is_ok()),
            "probe must be outside the gate for this test to bite"
        );
        assert_eq!(gated.intern_only(&unseen).to_bits(), exhaustive.score(&unseen).to_bits());
        let seen: Vec<String> = "cats purr softly".split_whitespace().map(str::to_owned).collect();
        assert_eq!(
            gated.score(&seen).to_bits(),
            exhaustive.score(&seen).to_bits(),
            "post-gate scores must not drift: interning order diverged"
        );
    }

    #[test]
    fn online_graph_converges_to_batch_on_a_static_stream() {
        let train = docs();
        let mut online = OnlineGraphModel::new(GraphSimilarity::Value, 2);
        for d in &train {
            online.observe(d);
        }
        // The batch counterpart: merge every document graph over a shared
        // space in one pass, exactly as the batch recommender builds its
        // user graphs.
        let mut space = GraphSpace::new();
        let mut batch = NGramGraph::new();
        for d in &train {
            let g = space.graph_from_grams(d, 2);
            batch.merge(&g);
        }
        for probe in ["cats purr softly", "rust code compiles", "cats nap rust"] {
            let grams: Vec<String> = probe.split_whitespace().map(str::to_owned).collect();
            let got = online.score(&grams);
            let g = space.graph_from_grams(&grams, 2);
            let want = GraphSimilarity::Value.compare(&batch, &g);
            assert!(
                (got - want).abs() < 1e-9,
                "online ({got}) and batch ({want}) scores diverge on {probe:?}"
            );
        }
    }

    #[test]
    fn generalized_jaccard_self_similarity_is_one() {
        // With the candidate normalized like the observations, one observed
        // document compared against itself is a comparison of identical
        // unit vectors — self-similarity 1 for the Jaccard family, which
        // is magnitude-sensitive where cosine is not.
        let unit = unit_of();
        let d = unit(&grams("cats purr softly"));
        let mut profile = OnlineProfile::new(1.0);
        profile.observe_unit(&d);
        let s = score(&profile, BagSimilarity::GeneralizedJaccard, &d);
        assert!((s - 1.0).abs() < 1e-6, "self-similarity must be 1, got {s}");
    }

    #[test]
    fn empty_profiles_score_zero() {
        let profile = OnlineProfile::new(1.0);
        assert_eq!(score(&profile, BagSimilarity::Cosine, &unit_of()(&grams("cats"))), 0.0);
        assert_eq!(profile.documents(), 0);
    }

    #[test]
    #[should_panic(expected = "decay must be in (0, 1]")]
    fn zero_decay_is_rejected() {
        let _ = OnlineProfile::new(0.0);
    }
}
