//! Integration: the online user models the serving shards run track a
//! simulated user's stream and rank her future retweets above unretweeted
//! feed content — the deployment scenario behind the paper's motivation —
//! and, undecayed, rank like their batch counterparts.

use proptest::prelude::*;

use pmr::bag::{
    AggregationFunction, BagSimilarity, BagVectorizer, ScoringKernel, SparseVector, WeightingScheme,
};
use pmr::core::{
    OnlineGraphModel, OnlineProfile, PreparedCorpus, RepresentationSource, SplitConfig,
};
use pmr::graph::GraphSimilarity;
use pmr::sim::{generate_corpus, ScalePreset, SimConfig, TweetId};
use pmr::text::token_ngrams;
use pmr::topics::{OnlineTopicConfig, TopicBackground, TopicProfile};

fn setup() -> PreparedCorpus {
    let corpus = generate_corpus(&SimConfig::preset(ScalePreset::Smoke, 42));
    PreparedCorpus::new(corpus, SplitConfig::default()).expect("corpus is well-formed")
}

/// Streaming the training retweets through an online bag profile yields a
/// ranker that scores test positives above test negatives on average.
#[test]
fn online_bag_model_learns_from_the_stream() {
    let prepared = setup();
    let mut lifted = 0usize;
    let mut total = 0usize;
    for user in prepared.split.users().take(12) {
        let split = prepared.split.user(user).expect("users() yields split users");
        let train = prepared.split.train_ids(&prepared.corpus, user, RepresentationSource::R);
        if train.len() < 5 {
            continue;
        }
        let grams = |id: TweetId| token_ngrams(prepared.content(id), 1);
        let train_grams: Vec<Vec<String>> = train.iter().map(|&id| grams(id)).collect();
        let vectorizer = BagVectorizer::fit(WeightingScheme::TFIDF, train_grams.iter());
        let unit = |g: &[String]| vectorizer.transform(g).normalized();
        let mut profile = OnlineProfile::new(1.0);
        for g in &train_grams {
            profile.observe_unit(&unit(g));
        }
        let kernel = ScoringKernel::new(BagSimilarity::Cosine, profile.vector());
        let mean = |ids: &[TweetId]| -> f64 {
            if ids.is_empty() {
                return 0.0;
            }
            ids.iter().map(|&id| kernel.score(&unit(&grams(id)))).sum::<f64>() / ids.len() as f64
        };
        total += 1;
        if mean(&split.positives) > mean(&split.negatives) {
            lifted += 1;
        }
    }
    assert!(total >= 8, "not enough testable users: {total}");
    assert!(
        lifted * 4 >= total * 3,
        "online model should lift positives for most users: {lifted}/{total}"
    );
}

/// The online graph model does the same through the update operator.
#[test]
fn online_graph_model_learns_from_the_stream() {
    let prepared = setup();
    // Pick a user with a substantial retweet history.
    let user = prepared
        .split
        .users()
        .max_by_key(|&u| {
            prepared.split.train_ids(&prepared.corpus, u, RepresentationSource::R).len()
        })
        .expect("split users exist");
    let split = prepared.split.user(user).expect("selected above");
    let train = prepared.split.train_ids(&prepared.corpus, user, RepresentationSource::R);
    // Unigram-node graphs: their edges encode word bigrams, the order
    // information the simulated collocations actually supply (higher-n
    // graph edges need verbatim 2n-token repetition — see
    // tests/paper_shapes.rs).
    let mut model = OnlineGraphModel::new(GraphSimilarity::Value, 1);
    for &id in &train {
        model.observe(&token_ngrams(prepared.content(id), 1));
    }
    assert_eq!(model.documents(), train.len());
    let mut mean = |ids: &[TweetId]| -> f64 {
        if ids.is_empty() {
            return 0.0;
        }
        ids.iter().map(|&id| model.score(&token_ngrams(prepared.content(id), 1))).sum::<f64>()
            / ids.len() as f64
    };
    let pos = mean(&split.positives);
    let neg = mean(&split.negatives);
    assert!(pos > neg, "positives must outscore negatives: {pos:.4} vs {neg:.4}");
}

/// Online and batch scores agree within `tol`, and whenever batch
/// separates two probes by more than `tol` the online side orders them
/// identically.
fn assert_ranks_alike(online: &[f64], batch: &[f64], tol: f64) -> Result<(), String> {
    for (o, b) in online.iter().zip(batch) {
        prop_assert!((o - b).abs() < tol, "scores diverge: online {o}, batch {b}");
    }
    for i in 0..batch.len() {
        for j in 0..batch.len() {
            if batch[i] > batch[j] + tol {
                prop_assert!(
                    online[i] > online[j],
                    "ranking flip between probes {i} and {j}: online ({}, {}) vs batch ({}, {})",
                    online[i],
                    online[j],
                    batch[i],
                    batch[j]
                );
            }
        }
    }
    Ok(())
}

fn arb_gram_doc() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-f]{1,3}", 1..10)
}

/// Token-id documents over a small vocabulary.
fn arb_token_doc() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..12, 1..10)
}

proptest! {
    /// The shard's bag path — [`OnlineProfile::observe_unit`] with decay
    /// 1, scored through a [`ScoringKernel`] — is the *sum* of unit
    /// document vectors; the batch centroid is their *mean*, a scale
    /// factor cosine ignores, so both must induce the same candidate
    /// ranking on any static stream.
    #[test]
    fn undecayed_online_bag_ranks_like_the_batch_centroid(
        train in proptest::collection::vec(arb_gram_doc(), 1..8),
        probes in proptest::collection::vec(arb_gram_doc(), 2..6),
    ) {
        let vectorizer = BagVectorizer::fit(WeightingScheme::TF, train.iter());
        let unit = |d: &[String]| vectorizer.transform(d).normalized();
        let mut profile = OnlineProfile::new(1.0);
        for d in &train {
            profile.observe_unit(&unit(d));
        }
        let kernel = ScoringKernel::new(BagSimilarity::Cosine, profile.vector());
        let vectors: Vec<SparseVector> = train.iter().map(|d| vectorizer.transform(d)).collect();
        let batch = AggregationFunction::Centroid.aggregate(&vectors, &[]);
        let online_scores: Vec<f64> = probes.iter().map(|p| kernel.score(&unit(p))).collect();
        let batch_scores: Vec<f64> =
            probes.iter().map(|p| BagSimilarity::Cosine.compare(&batch, &unit(p))).collect();
        assert_ranks_alike(&online_scores, &batch_scores, 1e-6)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The topic counterpart: with decay 1 and background epoch 0, the
    /// shard's [`TopicProfile`] over [`TopicBackground::fold_in`] θs is
    /// the undecayed sum of the stream's θs. The batch side folds every
    /// document in, in reverse order — fold-in is a pure function of
    /// `(φ, document, key)` — sums the θs in f64 and scores by f64 cosine;
    /// both must agree on every score (to float noise) and every ranking.
    #[test]
    fn undecayed_online_topic_ranks_like_batch_fold_in(
        train in proptest::collection::vec(arb_token_doc(), 1..8),
        probes in proptest::collection::vec(arb_token_doc(), 2..6),
    ) {
        let slices: Vec<&[u32]> = train.iter().map(Vec::as_slice).collect();
        let cfg = OnlineTopicConfig::paper(3, 15, 11);
        let bg = TopicBackground::train(&cfg, &slices, 12, 0);

        // Online: observe the stream in order with no forgetting.
        let mut profile = TopicProfile::new(1.0, bg.topics());
        for (i, doc) in train.iter().enumerate() {
            profile.observe(&bg.fold_in(doc, i as u64));
        }

        // Batch: fold every document in and sum the θs.
        let mut sum = vec![0.0f64; bg.topics()];
        for (i, doc) in train.iter().enumerate().rev() {
            for (s, &t) in sum.iter_mut().zip(&bg.fold_in(doc, i as u64)) {
                *s += f64::from(t);
            }
        }
        let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
        let cosine = |theta: &[f32]| {
            let theta: Vec<f64> = theta.iter().map(|&t| f64::from(t)).collect();
            let dot: f64 = sum.iter().zip(&theta).map(|(s, t)| s * t).sum();
            dot / (norm(&sum) * norm(&theta))
        };

        let thetas: Vec<Vec<f32>> =
            probes.iter().enumerate().map(|(i, p)| bg.fold_in(p, 1_000 + i as u64)).collect();
        let online_scores: Vec<f64> = thetas.iter().map(|t| profile.score(t)).collect();
        let batch_scores: Vec<f64> = thetas.iter().map(|t| cosine(t)).collect();
        assert_ranks_alike(&online_scores, &batch_scores, 1e-6)?;
    }
}
