//! Latent Dirichlet Allocation with collapsed Gibbs sampling.
//!
//! Blei, Ng & Jordan 2003; the collapsed Gibbs sampler follows Griffiths &
//! Steyvers 2004: the topic of token `i` in document `d` is resampled from
//!
//! ```text
//! P(z_i = k | rest) ∝ (n_dk + α) · (n_kw + β) / (n_k + V·β)
//! ```
//!
//! The paper estimates all topic models with Gibbs sampling (§3.2) and tunes
//! α = 50/|Z|, β = 0.01 per Steyvers & Griffiths 2007 (Table 4).
//!
//! The counts `n_kw` are word-major (`model::WordTopicCounts`): the K-loop
//! over a token reads one contiguous row of its word. `estimate_phi` turns
//! such counts into φ for every dense-count trainer (LDA, LLDA, BTM, HDP,
//! ATM, DMM).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use pmr_text::vocab::TermId;

use crate::corpus::TopicCorpus;
use crate::model::{normalize, sample_discrete, uniform, TopicModel, WordTopicCounts};

/// LDA hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LdaConfig {
    /// Number of latent topics `|Z|`.
    pub topics: usize,
    /// Dirichlet prior on document–topic distributions.
    pub alpha: f64,
    /// Dirichlet prior on topic–word distributions.
    pub beta: f64,
    /// Gibbs sweeps over the training corpus.
    pub iterations: usize,
    /// Fold-in Gibbs sweeps per inferred document.
    pub infer_iterations: usize,
    /// Sampler seed.
    pub seed: u64,
}

impl LdaConfig {
    /// The paper's tuning for a given topic count: α = 50/|Z|, β = 0.01.
    pub fn paper(topics: usize, iterations: usize, seed: u64) -> Self {
        LdaConfig {
            topics,
            alpha: 50.0 / topics as f64,
            beta: 0.01,
            iterations,
            infer_iterations: 20,
            seed,
        }
    }
}

impl Default for LdaConfig {
    fn default() -> Self {
        LdaConfig::paper(50, 200, 42)
    }
}

/// A trained LDA model: topic–word distributions plus the θ prior.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LdaModel {
    /// `phi[k][w] = P(w | z=k)`, row-stochastic.
    phi: Vec<Vec<f32>>,
    /// Per-topic prior mass used at inference (`α` for every topic).
    alpha: f64,
    /// Fold-in sweeps at inference.
    infer_iterations: usize,
    /// Per-document topic distributions of the *training* documents
    /// (available without re-inference).
    theta_train: Vec<Vec<f32>>,
}

impl LdaModel {
    /// Train with collapsed Gibbs sampling.
    pub fn train(cfg: &LdaConfig, corpus: &TopicCorpus) -> Self {
        assert!(cfg.topics >= 1, "at least one topic required");
        let k = cfg.topics;
        let v = corpus.vocab_size().max(1);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut n_dk = vec![vec![0u32; k]; corpus.len()];
        let mut n_kw = WordTopicCounts::new(v, k);
        let mut n_k = vec![0u32; k];
        // Random initialization.
        let mut z: Vec<Vec<usize>> = corpus
            .docs
            .iter()
            .enumerate()
            .map(|(d, doc)| {
                doc.iter()
                    .map(|&w| {
                        let t = rng.gen_range(0..k);
                        n_dk[d][t] += 1;
                        n_kw.inc(w, t);
                        n_k[t] += 1;
                        t
                    })
                    .collect()
            })
            .collect();
        let vb = v as f64 * cfg.beta;
        let mut weights = vec![0.0f64; k];
        for _ in 0..cfg.iterations {
            let _iter = pmr_obs::timer("gibbs_iter.lda");
            for (d, doc) in corpus.docs.iter().enumerate() {
                let (z_d, n_d) = (&mut z[d], &mut n_dk[d]);
                for (i, &w) in doc.iter().enumerate() {
                    let old = z_d[i];
                    n_d[old] -= 1;
                    n_kw.dec(w, old);
                    n_k[old] -= 1;
                    let row = n_kw.row(w);
                    for (((wt, &ndt), &nkw), &nk) in
                        weights.iter_mut().zip(&*n_d).zip(row).zip(&n_k)
                    {
                        *wt = (ndt as f64 + cfg.alpha) * (nkw as f64 + cfg.beta) / (nk as f64 + vb);
                    }
                    let new = sample_discrete(&mut rng, &weights);
                    z_d[i] = new;
                    n_d[new] += 1;
                    n_kw.inc(w, new);
                    n_k[new] += 1;
                }
            }
        }
        let phi = estimate_phi(&n_kw, &n_k, cfg.beta);
        let theta_train = corpus
            .docs
            .iter()
            .enumerate()
            .map(|(d, doc)| estimate_theta(&n_dk[d], doc.len(), cfg.alpha))
            .collect();
        LdaModel { phi, alpha: cfg.alpha, infer_iterations: cfg.infer_iterations, theta_train }
    }

    /// The topic distribution of training document `d` (no re-inference).
    pub fn theta_train(&self, d: usize) -> &[f32] {
        &self.theta_train[d]
    }

    /// `P(w | z=k)` rows.
    pub fn phi(&self) -> &[Vec<f32>] {
        &self.phi
    }
}

/// Smoothed maximum-likelihood estimate of φ from Gibbs counts: `n_k[t]`
/// is the number of words assigned to topic `t`.
pub(crate) fn estimate_phi(n_kw: &WordTopicCounts, n_k: &[u32], beta: f64) -> Vec<Vec<f32>> {
    debug_assert_eq!(n_k.len(), n_kw.topics());
    let v = n_kw.vocab_size();
    n_k.iter()
        .enumerate()
        .map(|(t, &nk)| {
            let denom = nk as f64 + v as f64 * beta;
            (0..v as TermId).map(|w| ((n_kw.get(w, t) as f64 + beta) / denom) as f32).collect()
        })
        .collect()
}

/// Smoothed estimate of θ from per-document topic counts.
pub(crate) fn estimate_theta(n_dk: &[u32], doc_len: usize, alpha: f64) -> Vec<f32> {
    let k = n_dk.len();
    let denom = doc_len as f64 + k as f64 * alpha;
    let mut theta: Vec<f32> = n_dk.iter().map(|&c| ((c as f64 + alpha) / denom) as f32).collect();
    normalize(&mut theta);
    theta
}

/// One document's fold-in Gibbs state against a frozen φ: each token's
/// topic `z` and the document's topic counts `n_dk`. Shared by batch
/// document inference ([`fold_in`]) and the online background's fold-in,
/// which differ only in where their RNGs come from and how they turn the
/// final counts into θ.
pub(crate) struct FoldIn {
    z: Vec<usize>,
    n_dk: Vec<u32>,
    weights: Vec<f64>,
}

impl FoldIn {
    /// Assign each of `doc_len` tokens a uniformly random topic of `k`.
    pub(crate) fn new(k: usize, doc_len: usize, rng: &mut StdRng) -> FoldIn {
        let mut n_dk = vec![0u32; k];
        let z = (0..doc_len)
            .map(|_| {
                let t = rng.gen_range(0..k);
                n_dk[t] += 1;
                t
            })
            .collect();
        FoldIn { z, n_dk, weights: vec![0.0; k] }
    }

    /// One sweep: resample every token's topic given all the others, with
    /// `P(z=t) ∝ (n_dt + α_t) · φ_t[w]`.
    pub(crate) fn sweep(
        &mut self,
        phi: &[Vec<f32>],
        alpha_per_topic: &[f64],
        doc: &[TermId],
        rng: &mut StdRng,
    ) {
        // Plain slices, so stores through one buffer never force a reload
        // of another's pointer and length from `self` in the inner loop.
        let (z, n_dk, weights) = (&mut self.z[..], &mut self.n_dk[..], &mut self.weights[..]);
        for (i, &w) in doc.iter().enumerate() {
            let old = z[i];
            n_dk[old] -= 1;
            for (t, wt) in weights.iter_mut().enumerate() {
                *wt = (n_dk[t] as f64 + alpha_per_topic[t])
                    * phi[t].get(w as usize).copied().unwrap_or(0.0) as f64;
            }
            let new = sample_discrete(rng, weights);
            z[i] = new;
            n_dk[new] += 1;
        }
    }

    /// The document's topic counts.
    pub(crate) fn counts(&self) -> &[u32] {
        &self.n_dk
    }
}

/// Shared fold-in Gibbs inference over a fixed φ: used by LDA, LLDA and HDP
/// document inference.
pub(crate) fn fold_in(
    phi: &[Vec<f32>],
    alpha_per_topic: &[f64],
    doc: &[TermId],
    iterations: usize,
    rng: &mut StdRng,
) -> Vec<f32> {
    let k = phi.len();
    if doc.is_empty() || k == 0 {
        return uniform(k);
    }
    let mut state = FoldIn::new(k, doc.len(), rng);
    for _ in 0..iterations.max(1) {
        state.sweep(phi, alpha_per_topic, doc, rng);
    }
    let n_dk = state.counts();
    let alpha_sum: f64 = alpha_per_topic.iter().sum();
    let denom = doc.len() as f64 + alpha_sum;
    let mut theta: Vec<f32> =
        n_dk.iter().zip(alpha_per_topic).map(|(&c, &a)| ((c as f64 + a) / denom) as f32).collect();
    normalize(&mut theta);
    theta
}

impl TopicModel for LdaModel {
    fn num_topics(&self) -> usize {
        self.phi.len()
    }

    fn infer(&self, doc: &[TermId], rng: &mut StdRng) -> Vec<f32> {
        let alphas = vec![self.alpha; self.phi.len()];
        fold_in(&self.phi, &alphas, doc, self.infer_iterations, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A corpus with two cleanly separated word communities.
    pub(crate) fn two_cluster_corpus() -> TopicCorpus {
        let mut docs = Vec::new();
        for i in 0..30 {
            if i % 2 == 0 {
                docs.push(vec!["cat", "dog", "pet", "vet", "cat", "dog"]);
            } else {
                docs.push(vec!["rust", "code", "bug", "test", "rust", "code"]);
            }
        }
        TopicCorpus::from_token_docs(docs)
    }

    #[test]
    fn recovers_two_topics() {
        let corpus = two_cluster_corpus();
        // A weak α: the paper's 50/|Z| heuristic is calibrated for large
        // corpora and would swamp a 3-token test document's θ.
        let cfg = LdaConfig { alpha: 0.1, ..LdaConfig::paper(2, 100, 7) };
        let model = LdaModel::train(&cfg, &corpus);
        let mut rng = StdRng::seed_from_u64(9);
        let pet = model.infer(&corpus.encode(&["cat", "dog", "pet"]), &mut rng);
        let code = model.infer(&corpus.encode(&["rust", "code", "bug"]), &mut rng);
        let pet_top = crate::model::argmax(&pet);
        let code_top = crate::model::argmax(&code);
        assert_ne!(pet_top, code_top, "clusters must land in different topics");
        assert!(pet[pet_top] > 0.7, "confident assignment expected: {pet:?}");
        assert!(code[code_top] > 0.7, "confident assignment expected: {code:?}");
    }

    #[test]
    fn theta_train_matches_inference_cluster() {
        let corpus = two_cluster_corpus();
        let model = LdaModel::train(&LdaConfig::paper(2, 100, 7), &corpus);
        // Documents 0 and 2 share a cluster; 0 and 1 do not.
        let t0 = model.theta_train(0);
        let t1 = model.theta_train(1);
        let t2 = model.theta_train(2);
        assert_eq!(crate::model::argmax(t0), crate::model::argmax(t2));
        assert_ne!(crate::model::argmax(t0), crate::model::argmax(t1));
    }

    #[test]
    fn inferred_distributions_are_normalized() {
        let corpus = two_cluster_corpus();
        let model = LdaModel::train(&LdaConfig::paper(4, 50, 1), &corpus);
        let mut rng = StdRng::seed_from_u64(2);
        let theta = model.infer(&corpus.docs[0], &mut rng);
        assert_eq!(theta.len(), 4);
        assert!((theta.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        assert!(theta.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn empty_document_infers_uniform() {
        let corpus = two_cluster_corpus();
        let model = LdaModel::train(&LdaConfig::paper(3, 20, 1), &corpus);
        let mut rng = StdRng::seed_from_u64(2);
        let theta = model.infer(&[], &mut rng);
        assert!(theta.iter().all(|&p| (p - 1.0 / 3.0).abs() < 1e-6));
    }

    #[test]
    fn phi_rows_are_distributions() {
        let corpus = two_cluster_corpus();
        let model = LdaModel::train(&LdaConfig::paper(3, 20, 1), &corpus);
        for row in model.phi() {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-3, "phi row sums to {s}");
        }
    }

    #[test]
    fn training_is_deterministic_in_the_seed() {
        let corpus = two_cluster_corpus();
        let a = LdaModel::train(&LdaConfig::paper(2, 30, 5), &corpus);
        let b = LdaModel::train(&LdaConfig::paper(2, 30, 5), &corpus);
        assert_eq!(a.phi(), b.phi());
    }
}
