//! Biterm Topic Model (Yan, Guo, Lan & Cheng 2013; Cheng et al. 2014).
//!
//! BTM sidesteps short-text sparsity (challenge C1) by modeling the
//! generation of *biterms* — unordered word pairs co-occurring within a
//! window — over the whole corpus instead of per-document word generation.
//! A single corpus-level topic distribution θ is drawn from `Dir(α)`, each
//! biterm picks a topic from θ and both its words from that topic's `φ_z`.
//!
//! Document distributions are not part of the generative process; they are
//! recovered as `P(z|d) = Σ_b P(z|b) · P(b|d)` with `P(b|d)` the empirical
//! biterm distribution of the document and `P(z|b) ∝ θ_z φ_z,w1 φ_z,w2`.
//!
//! The sampler keeps `n_zw` word-major (`model::WordTopicCounts`), so
//! resampling a biterm reads the two contiguous rows of its words instead
//! of two strided loads per topic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use pmr_text::vocab::TermId;

use crate::corpus::TopicCorpus;
use crate::lda::estimate_phi;
use crate::model::{normalize, sample_discrete, uniform, TopicModel, WordTopicCounts};

/// BTM hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BtmConfig {
    /// Number of topics `|Z|`.
    pub topics: usize,
    /// Dirichlet prior on the corpus topic distribution.
    pub alpha: f64,
    /// Dirichlet prior on topic–word distributions.
    pub beta: f64,
    /// Gibbs sweeps over the biterm set.
    pub iterations: usize,
    /// Context window `r`: maximum token distance within a document for a
    /// biterm. The paper uses the tweet length for individual tweets and
    /// r = 30 for pooled pseudo-documents.
    pub window: usize,
    /// Sampler seed.
    pub seed: u64,
}

impl BtmConfig {
    /// The paper's tuning: α = 50/|Z|, β = 0.01, r = 30, 1000 iterations.
    pub fn paper(topics: usize, iterations: usize, seed: u64) -> Self {
        BtmConfig { topics, alpha: 50.0 / topics as f64, beta: 0.01, iterations, window: 30, seed }
    }
}

/// A trained BTM model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BtmModel {
    /// `phi[k][w] = P(w | z=k)`.
    phi: Vec<Vec<f32>>,
    /// Corpus-level topic distribution θ.
    theta: Vec<f32>,
    /// Window used for document-side biterm extraction.
    window: usize,
}

/// Enumerate the biterms of a document: unordered pairs of tokens at
/// distance ≤ `window`. Pairs of the same position are excluded; pairs of
/// equal words at different positions are kept (they are informative
/// co-occurrences).
pub fn biterms(doc: &[TermId], window: usize) -> Vec<(TermId, TermId)> {
    let mut out = Vec::new();
    for i in 0..doc.len() {
        for j in (i + 1)..doc.len().min(i + window + 1) {
            let (a, b) = if doc[i] <= doc[j] { (doc[i], doc[j]) } else { (doc[j], doc[i]) };
            out.push((a, b));
        }
    }
    out
}

impl BtmModel {
    /// Train with collapsed Gibbs sampling over the corpus biterm set.
    pub fn train(cfg: &BtmConfig, corpus: &TopicCorpus) -> Self {
        assert!(cfg.topics >= 1);
        let k = cfg.topics;
        let v = corpus.vocab_size().max(1);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let all: Vec<(TermId, TermId)> =
            corpus.docs.iter().flat_map(|d| biterms(d, cfg.window)).collect();
        let mut n_z = vec![0u32; k];
        let mut n_zw = WordTopicCounts::new(v, k);
        let mut z: Vec<usize> = all
            .iter()
            .map(|&(w1, w2)| {
                let t = rng.gen_range(0..k);
                n_z[t] += 1;
                n_zw.inc(w1, t);
                n_zw.inc(w2, t);
                t
            })
            .collect();
        let vb = v as f64 * cfg.beta;
        // The topic-only factors of the weight, `nz + α` and
        // `(2nz + vb)(2nz + 1 + vb)`, change only for the two topics a
        // biterm leaves and joins; keep them per topic.
        let factors = |nz: u32| {
            let nz = nz as f64;
            (nz + cfg.alpha, (2.0 * nz + vb) * (2.0 * nz + 1.0 + vb))
        };
        let mut topic: Vec<(f64, f64)> = n_z.iter().map(|&nz| factors(nz)).collect();
        let mut weights = vec![0.0f64; k];
        for _ in 0..cfg.iterations {
            let _iter = pmr_obs::timer("gibbs_iter.btm");
            for (bi, &(w1, w2)) in all.iter().enumerate() {
                let old = z[bi];
                n_z[old] -= 1;
                topic[old] = factors(n_z[old]);
                n_zw.dec(w1, old);
                n_zw.dec(w2, old);
                let (row1, row2) = (n_zw.row(w1), n_zw.row(w2));
                for (((wt, &(num, den)), &c1), &c2) in
                    weights.iter_mut().zip(&topic).zip(row1).zip(row2)
                {
                    *wt = num * (c1 as f64 + cfg.beta) * (c2 as f64 + cfg.beta) / den;
                }
                let new = sample_discrete(&mut rng, &weights);
                z[bi] = new;
                n_z[new] += 1;
                topic[new] = factors(n_z[new]);
                n_zw.inc(w1, new);
                n_zw.inc(w2, new);
            }
        }
        let total_b = all.len() as f64;
        let mut theta: Vec<f32> = n_z
            .iter()
            .map(|&c| ((c as f64 + cfg.alpha) / (total_b + k as f64 * cfg.alpha)) as f32)
            .collect();
        normalize(&mut theta);
        // Each biterm puts two words into its topic.
        let words_per_topic: Vec<u32> = n_z.iter().map(|&nz| 2 * nz).collect();
        let phi = estimate_phi(&n_zw, &words_per_topic, cfg.beta);
        BtmModel { phi, theta, window: cfg.window }
    }

    /// The corpus-level topic distribution θ.
    pub fn theta(&self) -> &[f32] {
        &self.theta
    }

    /// `P(w | z=k)` rows.
    pub fn phi(&self) -> &[Vec<f32>] {
        &self.phi
    }

    /// `P(z | b) ∝ θ_z · φ_z,w1 · φ_z,w2`.
    fn topic_given_biterm(&self, w1: TermId, w2: TermId) -> Vec<f32> {
        let mut p: Vec<f32> = self
            .theta
            .iter()
            .enumerate()
            .map(|(t, &th)| {
                th * self.phi[t].get(w1 as usize).copied().unwrap_or(0.0)
                    * self.phi[t].get(w2 as usize).copied().unwrap_or(0.0)
            })
            .collect();
        normalize(&mut p);
        p
    }
}

impl TopicModel for BtmModel {
    fn num_topics(&self) -> usize {
        self.phi.len()
    }

    /// BTM document inference is deterministic (no sampling): it averages
    /// `P(z|b)` over the document's biterms. The RNG is unused but kept for
    /// interface uniformity.
    fn infer(&self, doc: &[TermId], _rng: &mut StdRng) -> Vec<f32> {
        let k = self.num_topics();
        // For individual short documents the paper sets the window to the
        // document length; our stored window is an upper bound, so short
        // docs naturally pair all tokens.
        let bs = biterms(doc, self.window.max(doc.len()));
        if bs.is_empty() {
            // Single-word fallback: P(z|w) ∝ θ_z φ_z,w.
            if let Some(&w) = doc.first() {
                let mut p: Vec<f32> = self
                    .theta
                    .iter()
                    .enumerate()
                    .map(|(t, &th)| th * self.phi[t].get(w as usize).copied().unwrap_or(0.0))
                    .collect();
                normalize(&mut p);
                if p.iter().sum::<f32>() > 0.0 {
                    return p;
                }
            }
            return uniform(k);
        }
        let mut acc = vec![0.0f32; k];
        let share = 1.0 / bs.len() as f32;
        for (w1, w2) in bs {
            let p = self.topic_given_biterm(w1, w2);
            for (a, q) in acc.iter_mut().zip(p) {
                *a += q * share;
            }
        }
        normalize(&mut acc);
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cluster_corpus() -> TopicCorpus {
        let mut docs = Vec::new();
        for i in 0..40 {
            if i % 2 == 0 {
                docs.push(vec!["cat", "dog", "pet"]);
            } else {
                docs.push(vec!["rust", "code", "bug"]);
            }
        }
        TopicCorpus::from_token_docs(docs)
    }

    #[test]
    fn biterm_extraction_respects_window() {
        let doc = vec![0u32, 1, 2, 3];
        assert_eq!(biterms(&doc, 1), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(biterms(&doc, 3).len(), 6);
        assert!(biterms(&[0], 5).is_empty());
    }

    #[test]
    fn biterms_are_unordered() {
        let b1 = biterms(&[5, 2], 1);
        let b2 = biterms(&[2, 5], 1);
        assert_eq!(b1, b2);
    }

    #[test]
    fn recovers_two_topics() {
        let corpus = two_cluster_corpus();
        let model = BtmModel::train(&BtmConfig::paper(2, 150, 3), &corpus);
        let mut rng = StdRng::seed_from_u64(1);
        let pet = model.infer(&corpus.encode(&["cat", "pet"]), &mut rng);
        let code = model.infer(&corpus.encode(&["rust", "bug"]), &mut rng);
        let pet_top = crate::model::argmax(&pet);
        let code_top = crate::model::argmax(&code);
        assert_ne!(pet_top, code_top);
        assert!(pet[pet_top] > 0.8, "{pet:?}");
        assert!(code[code_top] > 0.8, "{code:?}");
    }

    #[test]
    fn single_word_documents_use_the_fallback() {
        let corpus = two_cluster_corpus();
        let model = BtmModel::train(&BtmConfig::paper(2, 100, 3), &corpus);
        let mut rng = StdRng::seed_from_u64(1);
        let p = model.infer(&corpus.encode(&["cat"]), &mut rng);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        assert!(p[0] != p[1], "single informative word should not be uniform");
    }

    #[test]
    fn empty_document_is_uniform() {
        let corpus = two_cluster_corpus();
        let model = BtmModel::train(&BtmConfig::paper(3, 50, 3), &corpus);
        let mut rng = StdRng::seed_from_u64(1);
        let p = model.infer(&[], &mut rng);
        assert!(p.iter().all(|&x| (x - 1.0 / 3.0).abs() < 1e-6));
    }

    #[test]
    fn theta_and_phi_are_distributions() {
        let corpus = two_cluster_corpus();
        let model = BtmModel::train(&BtmConfig::paper(4, 50, 9), &corpus);
        assert!((model.theta().iter().sum::<f32>() - 1.0).abs() < 1e-4);
        for row in model.phi() {
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn training_is_deterministic() {
        let corpus = two_cluster_corpus();
        let a = BtmModel::train(&BtmConfig::paper(2, 30, 5), &corpus);
        let b = BtmModel::train(&BtmConfig::paper(2, 30, 5), &corpus);
        assert_eq!(a.theta(), b.theta());
    }
}
