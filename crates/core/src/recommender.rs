//! Unified model building and scoring — Definition 2.1 made executable.
//!
//! For a `(configuration, representation source)` pair and a set of users,
//! this module builds the user models, scores every user's test documents
//! and returns per-user Average Precision plus the two timing measures of
//! §4: training time (TTime — building all user models, including the
//! one-off topic-model training `M(s)`) and testing time (ETime — scoring
//! and ranking the test sets).
//!
//! The two model-family regimes follow the paper exactly:
//!
//! * **context-based models** (TN, CN, TNG, CNG) fit a separate model per
//!   `(user, source)` on that user's train set;
//! * **topic models** train one `M(s)` per source on the train sets of all
//!   users (pooled per the configuration's scheme), then infer
//!   distributions for each user's training tweets (centroid/Rocchio →
//!   user model) and testing tweets (document models), compared by cosine.
//!
//! Configurations that differ only in a field applied after training (see
//! [`ModelIdentity`](crate::ModelIdentity)) are scored together by
//! [`score_variants`]: the model is built once and each variant only
//! aggregates or compares.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use pmr_bag::{
    AggregationFunction, BagSimilarity, IndexedVectorizer, RocchioParams, ScoringKernel,
    SparseVector,
};
use pmr_graph::{GraphSimilarity, GraphSpace, NGramGraph};
use pmr_sim::{TweetId, UserId};
use pmr_topics::pooling::{pool_indexed, PoolInput};
use pmr_topics::{
    BtmConfig, BtmModel, HdpConfig, HdpModel, HldaConfig, HldaModel, Labeler, LdaConfig, LdaModel,
    LldaConfig, LldaModel, PlsaConfig, PlsaModel, PoolingScheme, TopicCorpus, TopicModel,
};

use crate::config::{AggKind, ModelConfiguration};
use crate::eval::{average_precision, ScoredDoc};
use crate::features::GramKind;
use crate::prepare::PreparedCorpus;
use crate::source::RepresentationSource;

/// Per-user outcome of one scored configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UserResult {
    /// The user.
    pub user: UserId,
    /// Her Average Precision.
    pub ap: f64,
}

/// Outcome of scoring one `(configuration, source)` pair.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ScoreOutcome {
    /// Per-user APs (only users with a valid split).
    pub per_user: Vec<UserResult>,
    /// Aggregate model-building time (TTime contribution).
    pub train_time: Duration,
    /// Aggregate scoring/ranking time (ETime contribution).
    pub test_time: Duration,
}

/// Knobs for scaled-down (or scaled-up) runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScoringOptions {
    /// Multiplier on the configuration's Gibbs/EM iteration counts
    /// (1.0 = the paper's counts; experiment harnesses use much less).
    pub iteration_scale: f64,
    /// Fold-in sweeps per inferred document (topic models).
    pub infer_iterations: usize,
    /// Base seed for all stochastic steps.
    pub seed: u64,
}

impl Default for ScoringOptions {
    fn default() -> Self {
        ScoringOptions { iteration_scale: 0.02, infer_iterations: 10, seed: 13 }
    }
}

impl ScoringOptions {
    /// The paper's full iteration counts.
    pub fn paper() -> Self {
        ScoringOptions { iteration_scale: 1.0, infer_iterations: 20, ..ScoringOptions::default() }
    }

    fn scale(&self, iterations: usize) -> usize {
        ((iterations as f64 * self.iteration_scale).round() as usize).max(5)
    }
}

/// Score a configuration on a source for the given users: the one-variant
/// case of [`score_variants`].
pub fn score_configuration(
    prepared: &PreparedCorpus,
    config: &ModelConfiguration,
    source: RepresentationSource,
    users: &[UserId],
    opts: &ScoringOptions,
) -> ScoreOutcome {
    let mut outcomes = score_variants(prepared, &[config], source, users, opts);
    // pmr-lint: allow(lib-unwrap): score_variants returns one outcome per variant
    outcomes.pop().expect("one variant, one outcome")
}

/// Score every variant of one [`ModelIdentity`](crate::ModelIdentity) on a
/// source for the given users, training the shared model once. Returns one
/// outcome per variant, in order; each is bit-identical to scoring that
/// configuration alone.
///
/// The shared work is a topic model's training and inference, or per user
/// a bag model's fit/transform/aggregate or a graph model's merge and test
/// graphs. A variant's `train_time` and `test_time` are the shared time
/// divided by the number of variants plus its own, so the outcomes' times
/// still add up to the work done.
pub fn score_variants(
    prepared: &PreparedCorpus,
    variants: &[&ModelConfiguration],
    source: RepresentationSource,
    users: &[UserId],
    opts: &ScoringOptions,
) -> Vec<ScoreOutcome> {
    let Some(&first) = variants.first() else { return Vec::new() };
    for config in variants {
        assert!(
            config.valid_for_source(source),
            "{} is invalid for source {source} (Rocchio needs negatives)",
            config.describe()
        );
        assert!(
            config.identity() == first.identity(),
            "{} and {} train different models",
            config.describe(),
            first.describe()
        );
    }
    let k = variants.len();
    match first {
        ModelConfiguration::Bag { char_grams, n, weighting, aggregation, .. } => {
            let similarities: Vec<BagSimilarity> = variants
                .iter()
                .map(|c| match c {
                    ModelConfiguration::Bag { similarity, .. } => *similarity,
                    _ => unreachable!("variants share one identity"),
                })
                .collect();
            // One shared gram table per (kind, n) serves every user of every
            // configuration; per-user work is reduced to remapping global
            // gram ids into the user's local vector space.
            let table = prepared.gram_table(GramKind::of(*char_grams), *n);
            context_scores(prepared, source, users, k, |train, test, pos_flags| {
                let t0 = Instant::now();
                let vectorizer = {
                    let _t = pmr_obs::timer("bag.fit");
                    IndexedVectorizer::fit(*weighting, train.iter().map(|&id| table.doc(id)))
                };
                let vectors: Vec<SparseVector> = {
                    let _t = pmr_obs::timer("bag.transform");
                    train.iter().map(|&id| vectorizer.transform(table.doc(id))).collect()
                };
                let user_model = {
                    let _t = pmr_obs::timer("bag.aggregate");
                    match aggregation {
                        AggKind::Sum => AggregationFunction::Sum.aggregate(&vectors, &[]),
                        AggKind::Centroid => AggregationFunction::Centroid.aggregate(&vectors, &[]),
                        AggKind::Rocchio => {
                            // Only Rocchio needs the positive/negative split;
                            // cloning it for Sum/Centroid was wasted work.
                            let (pos, neg): (Vec<_>, Vec<_>) =
                                vectors.iter().zip(pos_flags).partition(|(_, &p)| p);
                            let positives: Vec<SparseVector> =
                                pos.into_iter().map(|(v, _)| v.clone()).collect();
                            let negatives: Vec<SparseVector> =
                                neg.into_iter().map(|(v, _)| v.clone()).collect();
                            AggregationFunction::Rocchio(RocchioParams::PAPER)
                                .aggregate(&positives, &negatives)
                        }
                    }
                };
                let shared_train = t0.elapsed();
                let t1 = Instant::now();
                let test_vectors: Vec<SparseVector> = {
                    let _t = pmr_obs::timer("bag.transform");
                    test.iter().map(|&id| vectorizer.transform(table.doc(id))).collect()
                };
                let shared_test = t1.elapsed();
                similarities
                    .iter()
                    .map(|&similarity| {
                        let t2 = Instant::now();
                        let kernel = {
                            let _t = pmr_obs::timer("bag.kernel_build");
                            ScoringKernel::new(similarity, &user_model)
                        };
                        let own_train = t2.elapsed();
                        let t3 = Instant::now();
                        let scores: Vec<f64> = {
                            let _timer = pmr_obs::timer("kernel.score");
                            test_vectors.iter().map(|v| kernel.score(v)).collect()
                        };
                        (
                            scores,
                            amortized(shared_train, k, own_train),
                            amortized(shared_test, k, t3.elapsed()),
                        )
                    })
                    .collect()
            })
        }
        ModelConfiguration::Graph { char_grams, n, .. } => {
            let similarities: Vec<GraphSimilarity> = variants
                .iter()
                .map(|c| match c {
                    ModelConfiguration::Graph { similarity, .. } => *similarity,
                    _ => unreachable!("variants share one identity"),
                })
                .collect();
            let table = prepared.gram_table(GramKind::of(*char_grams), *n);
            context_scores(prepared, source, users, k, |train, test, _pos_flags| {
                let t0 = Instant::now();
                let mut space = GraphSpace::new();
                let mut user_model = NGramGraph::new();
                for &id in train {
                    let g = space.graph_from_grams(&table.doc_terms(id), *n);
                    user_model.merge(&g);
                }
                let shared_train = t0.elapsed();
                let t1 = Instant::now();
                let test_graphs: Vec<NGramGraph> = test
                    .iter()
                    .map(|&id| space.graph_from_grams(&table.doc_terms(id), *n))
                    .collect();
                let shared_test = t1.elapsed();
                similarities
                    .iter()
                    .map(|similarity| {
                        let t2 = Instant::now();
                        let scores: Vec<f64> = test_graphs
                            .iter()
                            .map(|g| similarity.compare(&user_model, g))
                            .collect();
                        (
                            scores,
                            amortized(shared_train, k, Duration::ZERO),
                            amortized(shared_test, k, t2.elapsed()),
                        )
                    })
                    .collect()
            })
        }
        _ => {
            let aggregations: Vec<AggKind> =
                variants.iter().filter_map(|c| c.aggregation()).collect();
            topic_scores(prepared, source, users, first, &aggregations, opts)
        }
    }
}

/// Train the topic model `M(s)` of a topic configuration.
fn train_topic_model(
    config: &ModelConfiguration,
    corpus: &TopicCorpus,
    opts: &ScoringOptions,
) -> Box<dyn TopicModel> {
    match *config {
        ModelConfiguration::Lda { topics, iterations, .. } => {
            let mut cfg = LdaConfig::paper(topics, opts.scale(iterations), opts.seed);
            cfg.infer_iterations = opts.infer_iterations;
            Box::new(LdaModel::train(&cfg, corpus))
        }
        ModelConfiguration::Llda { topics, iterations, .. } => {
            let mut cfg = LldaConfig::paper(topics, opts.scale(iterations), opts.seed);
            cfg.infer_iterations = opts.infer_iterations;
            Box::new(LldaModel::train(&cfg, corpus))
        }
        ModelConfiguration::Btm { topics, pooling, .. } => {
            let mut cfg = BtmConfig::paper(topics, opts.scale(1_000), opts.seed);
            // Individual tweets: the window is the tweet itself (§4).
            cfg.window = if pooling == PoolingScheme::NP { 10_000 } else { 30 };
            Box::new(BtmModel::train(&cfg, corpus))
        }
        ModelConfiguration::Hdp { beta, .. } => {
            let mut cfg = HdpConfig::paper(beta, opts.scale(1_000), opts.seed);
            cfg.infer_iterations = opts.infer_iterations;
            Box::new(HdpModel::train(&cfg, corpus))
        }
        ModelConfiguration::Hlda { alpha, beta, gamma, .. } => {
            let mut cfg = HldaConfig::paper(alpha, beta, gamma, opts.scale(1_000), opts.seed);
            cfg.infer_iterations = opts.infer_iterations.min(10);
            Box::new(HldaModel::train(&cfg, corpus))
        }
        ModelConfiguration::Plsa { topics, iterations, .. } => {
            let cfg = PlsaConfig {
                topics,
                iterations: opts.scale(iterations),
                infer_iterations: opts.infer_iterations,
                seed: opts.seed,
            };
            Box::new(PlsaModel::train(&cfg, corpus))
        }
        ModelConfiguration::Bag { .. } | ModelConfiguration::Graph { .. } => {
            unreachable!("{} is not a topic model", config.describe())
        }
    }
}

/// A variant's share of time measured once for all `k` variants of an
/// identity, plus the time spent on it alone.
fn amortized(shared: Duration, k: usize, own: Duration) -> Duration {
    shared / u32::try_from(k).unwrap_or(u32::MAX) + own
}

/// One variant's test scores for one user, with its (amortized) train and
/// test time.
type VariantScores = (Vec<f64>, Duration, Duration);

/// Shared driver for the per-user context-based models. The closure gets
/// `(train ids, test ids, positivity flags of train ids)` and returns the
/// test scores and timing of each of the `k` variants.
fn context_scores<F>(
    prepared: &PreparedCorpus,
    source: RepresentationSource,
    users: &[UserId],
    k: usize,
    per_user: F,
) -> Vec<ScoreOutcome>
where
    F: Fn(&[TweetId], &[TweetId], &[bool]) -> Vec<VariantScores> + Sync,
{
    let split = &prepared.split;
    let corpus = &prepared.corpus;
    // Work items are independent; run them on scoped threads and collect
    // deterministically by index.
    let results: Vec<Option<Vec<(UserResult, Duration, Duration)>>> =
        parallel_map(users, |&user| {
            let user_split = split.user(user)?;
            let train = split.train_ids(corpus, user, source);
            let test = user_split.test_docs();
            let flags: Vec<bool> =
                train.iter().map(|&id| split.is_positive_train_doc(corpus, user, id)).collect();
            let variants = per_user(&train, &test, &flags);
            Some(
                variants
                    .into_iter()
                    .map(|(scores, tt, et)| {
                        let docs: Vec<ScoredDoc> = test
                            .iter()
                            .zip(&scores)
                            .map(|(&id, &score)| ScoredDoc {
                                score,
                                relevant: user_split.is_positive(id),
                                tie_break: crate::eval::tie_break_key(id.0),
                            })
                            .collect();
                        (UserResult { user, ap: average_precision(&docs) }, tt, et)
                    })
                    .collect(),
            )
        });
    let mut outcomes = vec![ScoreOutcome::default(); k];
    for variants in results.into_iter().flatten() {
        for (outcome, (result, tt, et)) in outcomes.iter_mut().zip(variants) {
            outcome.per_user.push(result);
            outcome.train_time += tt;
            outcome.test_time += et;
        }
    }
    outcomes
}

/// Run `f` over `items` on scoped threads, preserving order. Respects the
/// executor's inner-thread hint so that a parallel sweep of runs does not
/// oversubscribe the machine with `jobs × n_cpu` threads.
fn parallel_map<T: Sync, R: Send, F>(items: &[T], f: F) -> Vec<R>
where
    F: Fn(&T) -> R + Sync,
{
    let threads = crate::executor::inner_threads();
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (ci, items_chunk) in items.chunks(chunk).enumerate() {
            let f = &f;
            handles.push((ci, scope.spawn(move || items_chunk.iter().map(f).collect::<Vec<R>>())));
        }
        for (ci, h) in handles {
            // pmr-lint: allow(lib-unwrap): re-raises a worker panic on the coordinating thread
            let results = h.join().expect("worker panicked");
            for (i, r) in results.into_iter().enumerate() {
                out[ci * chunk + i] = Some(r);
            }
        }
    });
    // pmr-lint: allow(lib-unwrap): every index is written exactly once by the chunk loop above
    out.into_iter().map(|r| r.expect("all slots filled")).collect()
}

/// Topic-model regime: train one `M(s)` and infer distributions once, then
/// aggregate and score with cosine under each of the `aggregations`.
fn topic_scores(
    prepared: &PreparedCorpus,
    source: RepresentationSource,
    users: &[UserId],
    config: &ModelConfiguration,
    aggregations: &[AggKind],
    opts: &ScoringOptions,
) -> Vec<ScoreOutcome> {
    let pooling = match *config {
        ModelConfiguration::Lda { pooling, .. }
        | ModelConfiguration::Llda { pooling, .. }
        | ModelConfiguration::Btm { pooling, .. }
        | ModelConfiguration::Hdp { pooling, .. }
        | ModelConfiguration::Plsa { pooling, .. } => pooling,
        // HLDA is restricted to user pooling by the time constraint (§4).
        _ => PoolingScheme::UP,
    };
    let split = &prepared.split;
    let corpus = &prepared.corpus;
    let t0 = Instant::now();
    // Union of all users' train sets for this source.
    let mut train_union: Vec<TweetId> =
        users.iter().flat_map(|&u| split.train_ids(corpus, u, source)).collect();
    train_union.sort();
    train_union.dedup();
    // Pool into pseudo-documents.
    let inputs: Vec<PoolInput<'_>> = train_union
        .iter()
        .map(|&id| PoolInput {
            tokens: prepared.content(id),
            author: corpus.tweet(id).author.0,
            hashtags: prepared.hashtags(id),
        })
        .collect();
    let pooled = pool_indexed(pooling, &inputs);
    let mut topic_corpus =
        TopicCorpus::from_token_docs(pooled.iter().map(|(doc, _)| doc.as_slice()));
    // Labels for Labeled LDA: union of the member tweets' labels.
    let labeler =
        Labeler::fit(train_union.iter().map(|&id| prepared.tokens(id)), Labeler::PAPER_MIN_COUNT);
    let mut label_vocab = pmr_topics::label::LabelVocabulary::new();
    topic_corpus.labels = pooled
        .iter()
        .map(|(_, members)| {
            let mut ids: Vec<u32> = members
                .iter()
                .flat_map(|&m| {
                    let id = train_union[m];
                    labeler.label(prepared.raw_text(id), prepared.tokens(id), m)
                })
                .map(|l| label_vocab.intern(&l))
                .collect();
            ids.sort();
            ids.dedup();
            ids
        })
        .collect();
    let model = train_topic_model(config, &topic_corpus, opts);
    // Inference cache over every tweet we will need (train + test).
    let mut needed: Vec<TweetId> = train_union.clone();
    for &u in users {
        if let Some(s) = split.user(u) {
            needed.extend(s.test_docs());
        }
    }
    needed.sort();
    needed.dedup();
    let model_ref: &dyn TopicModel = model.as_ref();
    let thetas: Vec<Vec<f32>> = parallel_map(&needed, |&id| {
        let encoded = topic_corpus.encode(prepared.content(id));
        let mut rng =
            StdRng::seed_from_u64(opts.seed ^ (id.0 as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
        model_ref.infer(&encoded, &mut rng)
    });
    let theta_of: HashMap<TweetId, usize> =
        needed.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let shared = t0.elapsed();
    let k = aggregations.len();
    aggregations
        .iter()
        .map(|&aggregation| {
            // User models.
            let mut per_user = Vec::with_capacity(users.len());
            let mut train_time = amortized(shared, k, Duration::ZERO);
            let mut test_time = Duration::ZERO;
            for &user in users {
                let Some(user_split) = split.user(user) else { continue };
                let tm = Instant::now();
                let train = split.train_ids(corpus, user, source);
                let mut pos: Vec<&[f32]> = Vec::new();
                let mut neg: Vec<&[f32]> = Vec::new();
                for &id in &train {
                    let th = thetas[theta_of[&id]].as_slice();
                    if aggregation != AggKind::Rocchio
                        || split.is_positive_train_doc(corpus, user, id)
                    {
                        pos.push(th);
                    } else {
                        neg.push(th);
                    }
                }
                let user_model = match aggregation {
                    // The paper builds topic user models as the centroid of the
                    // training distributions; Sum differs from Centroid only by a
                    // scale factor, which cosine ignores.
                    AggKind::Sum | AggKind::Centroid => dense_centroid(&pos, model.num_topics()),
                    AggKind::Rocchio => dense_rocchio(&pos, &neg, model.num_topics()),
                };
                train_time += tm.elapsed();
                let te = Instant::now();
                let docs: Vec<ScoredDoc> = user_split
                    .test_docs()
                    .into_iter()
                    .map(|id| ScoredDoc {
                        score: dense_cosine(&user_model, &thetas[theta_of[&id]]),
                        relevant: user_split.is_positive(id),
                        tie_break: crate::eval::tie_break_key(id.0),
                    })
                    .collect();
                per_user.push(UserResult { user, ap: average_precision(&docs) });
                test_time += te.elapsed();
            }
            ScoreOutcome { per_user, train_time, test_time }
        })
        .collect()
}

/// Mean of L2-normalized dense vectors.
fn dense_centroid(docs: &[&[f32]], k: usize) -> Vec<f32> {
    let mut acc = vec![0.0f32; k];
    if docs.is_empty() {
        return acc;
    }
    for d in docs {
        let n: f32 = d.iter().map(|x| x * x).sum::<f32>().sqrt();
        if n > 0.0 {
            for (a, x) in acc.iter_mut().zip(*d) {
                *a += x / n;
            }
        }
    }
    let inv = 1.0 / docs.len() as f32;
    acc.iter_mut().for_each(|a| *a *= inv);
    acc
}

/// Rocchio over dense distributions with the paper's α = 0.8, β = 0.2.
fn dense_rocchio(pos: &[&[f32]], neg: &[&[f32]], k: usize) -> Vec<f32> {
    let p = dense_centroid(pos, k);
    let n = dense_centroid(neg, k);
    p.iter().zip(&n).map(|(a, b)| 0.8 * a - 0.2 * b).collect()
}

/// Cosine similarity of dense vectors (0 when either is zero).
fn dense_cosine(a: &[f32], b: &[f32]) -> f64 {
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        dot += x as f64 * y as f64;
        na += x as f64 * x as f64;
        nb += y as f64 * y as f64;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_centroid_averages_unit_vectors() {
        let a = [1.0f32, 0.0];
        let b = [0.0f32, 2.0];
        let c = dense_centroid(&[&a, &b], 2);
        assert!((c[0] - 0.5).abs() < 1e-6);
        assert!((c[1] - 0.5).abs() < 1e-6, "magnitude must not matter: {c:?}");
    }

    #[test]
    fn dense_centroid_of_nothing_is_zero() {
        assert_eq!(dense_centroid(&[], 3), vec![0.0; 3]);
    }

    #[test]
    fn dense_rocchio_weights_pos_and_neg() {
        let pos = [1.0f32, 0.0];
        let neg = [0.0f32, 1.0];
        let m = dense_rocchio(&[&pos], &[&neg], 2);
        assert!((m[0] - 0.8).abs() < 1e-6);
        assert!((m[1] + 0.2).abs() < 1e-6);
    }

    #[test]
    fn dense_cosine_basics() {
        assert!((dense_cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-9);
        assert_eq!(dense_cosine(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
        assert_eq!(dense_cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..97).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<usize> = Vec::new();
        assert!(parallel_map(&empty, |&x: &usize| x).is_empty());
        assert_eq!(parallel_map(&[7usize], |&x| x + 1), vec![8]);
    }

    #[test]
    fn scoring_options_scale_floors_at_five() {
        let opts = ScoringOptions { iteration_scale: 0.001, infer_iterations: 5, seed: 1 };
        assert_eq!(opts.scale(1_000), 5);
        let opts = ScoringOptions::paper();
        assert_eq!(opts.scale(1_000), 1_000);
    }
}
