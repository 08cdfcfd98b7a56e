//! The common topic-model interface plus shared sampling utilities.

use rand::rngs::StdRng;
use rand::Rng;

use pmr_text::vocab::TermId;

/// Anything that can turn a (test or training) tweet into a dense topic
/// distribution. Training happens in each model's `train` constructor; this
/// trait only covers what the recommendation framework needs afterwards.
pub trait TopicModel: Send + Sync {
    /// Dimensionality of the inferred distributions.
    fn num_topics(&self) -> usize;

    /// Infer the topic distribution `θ_d` of a document given the trained
    /// model. Deterministic given the RNG state. Returns a distribution
    /// (non-negative, sums to 1); an empty or fully out-of-vocabulary
    /// document yields the uniform distribution.
    fn infer(&self, doc: &[TermId], rng: &mut StdRng) -> Vec<f32>;
}

/// Sample an index from unnormalized non-negative weights.
///
/// Falls back to the last index on floating-point underflow and to a
/// uniform draw when all weights are zero.
pub(crate) fn sample_discrete(rng: &mut StdRng, weights: &[f64]) -> usize {
    debug_assert!(!weights.is_empty());
    let total: f64 = weights.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        return rng.gen_range(0..weights.len());
    }
    let mut x = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

/// The uniform distribution over `k` topics.
pub(crate) fn uniform(k: usize) -> Vec<f32> {
    vec![1.0 / k as f32; k.max(1)]
}

/// Normalize a non-negative vector into a distribution in place (uniform if
/// the sum is zero).
pub(crate) fn normalize(v: &mut [f32]) {
    let sum: f32 = v.iter().sum();
    if sum > 0.0 {
        for x in v.iter_mut() {
            *x /= sum;
        }
    } else if !v.is_empty() {
        let u = 1.0 / v.len() as f32;
        v.iter_mut().for_each(|x| *x = u);
    }
}

/// Natural log of the Gamma function (Lanczos approximation, g = 7).
/// Accurate to ~1e-13 for x > 0, which is far beyond what Gibbs likelihood
/// ratios need.
pub(crate) fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    const COEFFS: [f64; 8] = [
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = 0.999_999_999_999_809_9;
    for (i, &c) in COEFFS.iter().enumerate() {
        a += c / (x + i as f64 + 1.0);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Topic–word counts of a collapsed Gibbs sampler in word-major layout:
/// the counts of word `w` over all `k` topics are one contiguous row, so a
/// sampler's K-loop over one token reads a single slice instead of `k`
/// strided loads.
///
/// Each row is its own allocation of `k` counts. One table-sized block of
/// megabytes would lift the allocator's mmap threshold when freed, after
/// which later tables stay resident in its arenas and the process's peak
/// RSS rises.
#[derive(Debug, Clone)]
pub(crate) struct WordTopicCounts {
    k: usize,
    rows: Vec<Vec<u32>>,
}

impl WordTopicCounts {
    /// All-zero counts for `vocab` words over `k` topics.
    pub(crate) fn new(vocab: usize, k: usize) -> Self {
        WordTopicCounts { k, rows: vec![vec![0; k]; vocab] }
    }

    /// Vocabulary size `V`.
    pub(crate) fn vocab_size(&self) -> usize {
        self.rows.len()
    }

    /// Number of topics `k`.
    pub(crate) fn topics(&self) -> usize {
        self.k
    }

    /// The `k` topic counts of word `w`.
    pub(crate) fn row(&self, w: TermId) -> &[u32] {
        &self.rows[w as usize]
    }

    /// The count of word `w` in topic `t`.
    pub(crate) fn get(&self, w: TermId, t: usize) -> u32 {
        self.rows[w as usize][t]
    }

    pub(crate) fn inc(&mut self, w: TermId, t: usize) {
        self.rows[w as usize][t] += 1;
    }

    pub(crate) fn dec(&mut self, w: TermId, t: usize) {
        self.rows[w as usize][t] -= 1;
    }

    /// Append an empty topic `k`.
    pub(crate) fn add_topic(&mut self) {
        for row in &mut self.rows {
            row.push(0);
        }
        self.k += 1;
    }

    /// Keep only topics `keep` (ascending), renumbered `0..keep.len()`.
    pub(crate) fn retain_topics(&mut self, keep: &[usize]) {
        for row in &mut self.rows {
            for (new, &old) in keep.iter().enumerate() {
                row[new] = row[old];
            }
            row.truncate(keep.len());
        }
        self.k = keep.len();
    }
}

/// The distinct words of a token multiset with their counts, sorted by
/// term: the canonical order for float sums over a document's words.
pub(crate) fn term_counts(mut words: Vec<TermId>) -> Vec<(TermId, u32)> {
    words.sort_unstable();
    let mut out: Vec<(TermId, u32)> = Vec::new();
    for w in words {
        match out.last_mut() {
            Some((last, c)) if *last == w => *c += 1,
            _ => out.push((w, 1)),
        }
    }
    out
}

/// Argmax helper shared by the model test suites.
#[cfg(test)]
pub(crate) fn argmax(v: &[f32]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .expect("non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sample_discrete_respects_point_mass() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            assert_eq!(sample_discrete(&mut rng, &[0.0, 1.0, 0.0]), 1);
        }
    }

    #[test]
    fn sample_discrete_handles_all_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let idx = sample_discrete(&mut rng, &[0.0, 0.0]);
        assert!(idx < 2);
    }

    #[test]
    fn sample_discrete_covers_support() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[sample_discrete(&mut rng, &[1.0, 1.0, 1.0])] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normalize_makes_distributions() {
        let mut v = vec![1.0, 3.0];
        normalize(&mut v);
        assert!((v[0] - 0.25).abs() < 1e-6);
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.5, 0.5]);
    }

    #[test]
    fn uniform_sums_to_one() {
        let u = uniform(7);
        assert!((u.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn term_counts_are_sorted_run_lengths() {
        assert_eq!(term_counts(vec![7, 2, 7, 7, 0, 2]), vec![(0, 1), (2, 2), (7, 3)]);
        assert!(term_counts(Vec::new()).is_empty());
    }

    #[test]
    fn word_topic_counts_survive_topic_birth_and_compaction() {
        let mut c = WordTopicCounts::new(3, 1);
        c.inc(2, 0);
        for t in 1..5 {
            c.add_topic();
            c.inc(t as TermId % 3, t);
        }
        assert_eq!(c.topics(), 5);
        assert_eq!(c.row(1), &[0, 1, 0, 0, 1]);
        assert_eq!(c.row(2), &[1, 0, 1, 0, 0]);
        c.retain_topics(&[0, 2, 4]);
        assert_eq!(c.row(1), &[0, 0, 1]);
        assert_eq!(c.row(2), &[1, 1, 0]);
        c.add_topic();
        assert_eq!(c.row(2), &[1, 1, 0, 0], "a reborn topic starts empty");
        c.dec(2, 1);
        assert_eq!(c.get(2, 1), 0);
    }

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(1) = Γ(2) = 1; Γ(5) = 24; Γ(0.5) = √π.
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn ln_gamma_satisfies_recurrence() {
        for x in [0.3, 1.7, 4.2, 11.0, 123.4] {
            let lhs = ln_gamma(x + 1.0);
            let rhs = ln_gamma(x) + x.ln();
            assert!((lhs - rhs).abs() < 1e-9, "x={x}: {lhs} vs {rhs}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::btm::{BtmConfig, BtmModel};
    use crate::corpus::TopicCorpus;
    use crate::lda::{LdaConfig, LdaModel};
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn arb_corpus() -> impl Strategy<Value = Vec<Vec<String>>> {
        proptest::collection::vec(proptest::collection::vec("[a-f]{1,3}", 0..10), 1..12)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// LDA inference yields a valid distribution on any corpus and any
        /// (possibly out-of-vocabulary) query document.
        #[test]
        fn lda_inference_is_a_distribution(docs in arb_corpus(), query in proptest::collection::vec("[a-h]{1,3}", 0..8)) {
            let corpus = TopicCorpus::from_token_docs(&docs);
            let model = LdaModel::train(&LdaConfig::paper(3, 10, 1), &corpus);
            let mut rng = StdRng::seed_from_u64(2);
            let theta = model.infer(&corpus.encode(&query), &mut rng);
            prop_assert_eq!(theta.len(), 3);
            prop_assert!((theta.iter().sum::<f32>() - 1.0).abs() < 1e-3);
            prop_assert!(theta.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }

        /// Same for BTM.
        #[test]
        fn btm_inference_is_a_distribution(docs in arb_corpus(), query in proptest::collection::vec("[a-h]{1,3}", 0..8)) {
            let corpus = TopicCorpus::from_token_docs(&docs);
            let model = BtmModel::train(&BtmConfig::paper(3, 10, 1), &corpus);
            let mut rng = StdRng::seed_from_u64(2);
            let theta = model.infer(&corpus.encode(&query), &mut rng);
            prop_assert_eq!(theta.len(), 3);
            prop_assert!((theta.iter().sum::<f32>() - 1.0).abs() < 1e-3);
        }
    }
}
