//! Persistence round-trips: every trained artifact must survive a JSON
//! round-trip and keep scoring identically — the property a deployed system
//! relies on for model checkpointing.

use rand::rngs::StdRng;
use rand::SeedableRng;

use pmr::bag::{BagSimilarity, BagVectorizer, ScoringKernel, SparseVector, WeightingScheme};
use pmr::core::{OnlineGraphModel, OnlineProfile};
use pmr::graph::GraphSimilarity;
use pmr::topics::{BtmConfig, BtmModel, LdaConfig, LdaModel, TopicCorpus, TopicModel};

fn docs() -> Vec<Vec<String>> {
    let d = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
    vec![d("cat dog pet cat"), d("rust code bug rust"), d("cat pet vet"), d("code test bug")]
}

#[test]
fn bag_vectorizer_roundtrips() {
    let v = BagVectorizer::fit(WeightingScheme::TFIDF, docs().iter());
    let json = serde_json::to_string(&v).expect("serializes");
    let back: BagVectorizer = serde_json::from_str(&json).expect("deserializes");
    let probe = vec!["cat".to_owned(), "bug".to_owned()];
    assert_eq!(v.transform(&probe), back.transform(&probe));
    assert_eq!(v.dimensionality(), back.dimensionality());
}

#[test]
fn lda_model_roundtrips_and_scores_identically() {
    let corpus = TopicCorpus::from_token_docs(docs());
    let model = LdaModel::train(&LdaConfig::paper(3, 30, 7), &corpus);
    let json = serde_json::to_string(&model).expect("serializes");
    let back: LdaModel = serde_json::from_str(&json).expect("deserializes");
    let query = corpus.encode(&["cat", "dog"]);
    let a = model.infer(&query, &mut StdRng::seed_from_u64(1));
    let b = back.infer(&query, &mut StdRng::seed_from_u64(1));
    assert_eq!(a, b);
}

#[test]
fn btm_model_roundtrips() {
    let corpus = TopicCorpus::from_token_docs(docs());
    let model = BtmModel::train(&BtmConfig::paper(3, 30, 7), &corpus);
    let json = serde_json::to_string(&model).expect("serializes");
    let back: BtmModel = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(model.theta(), back.theta());
    assert_eq!(model.phi(), back.phi());
}

/// A unit-normalizing vectorizer over `docs()`: the serving engine's
/// shared feature space, which bag profiles observe and score in.
fn unit_vectors(weighting: WeightingScheme) -> impl Fn(&[String]) -> SparseVector {
    let vectorizer = BagVectorizer::fit(weighting, docs().iter());
    move |doc| vectorizer.transform(doc).normalized()
}

/// A bag profile's score for `candidate`, through the shard's kernel.
fn bag_score(profile: &OnlineProfile, similarity: BagSimilarity, candidate: &SparseVector) -> f64 {
    ScoringKernel::new(similarity, profile.vector()).score(candidate)
}

#[test]
fn online_models_roundtrip_mid_stream() {
    let unit = unit_vectors(WeightingScheme::TF);
    let mut bag = OnlineProfile::new(0.9);
    let mut graph = OnlineGraphModel::new(GraphSimilarity::Value, 2);
    for d in docs().iter().take(2) {
        bag.observe_unit(&unit(d));
        graph.observe(d);
    }
    // Checkpoint, restore, continue the stream on both copies.
    let bag_json = serde_json::to_string(&bag).expect("serializes");
    let graph_json = serde_json::to_string(&graph).expect("serializes");
    let mut bag_restored: OnlineProfile = serde_json::from_str(&bag_json).expect("ok");
    let mut graph_restored: OnlineGraphModel = serde_json::from_str(&graph_json).expect("ok");
    for d in docs().iter().skip(2) {
        bag.observe_unit(&unit(d));
        bag_restored.observe_unit(&unit(d));
        graph.observe(d);
        graph_restored.observe(d);
    }
    let probe = vec!["cat".to_owned(), "code".to_owned()];
    assert_eq!(
        bag_score(&bag, BagSimilarity::Cosine, &unit(&probe)),
        bag_score(&bag_restored, BagSimilarity::Cosine, &unit(&probe))
    );
    assert_eq!(graph.score(&probe), graph_restored.score(&probe));
}

#[test]
fn online_models_roundtrip_with_identical_scores_on_a_probe_set() {
    // The serving engine's snapshot/restore contract reduces to this
    // property: a deserialized model is *score-indistinguishable* from the
    // original on any probe, for every similarity — not just well-behaved
    // cosine. Exact equality on purpose: the JSON float encoding is
    // shortest-round-trip, so nothing may drift by even an ulp.
    let probes: Vec<Vec<String>> = ["cat dog", "rust bug code", "vet pet cat dog", "unseen words"]
        .iter()
        .map(|s| s.split_whitespace().map(str::to_owned).collect())
        .collect();
    let unit = unit_vectors(WeightingScheme::TFIDF);
    let mut profile = OnlineProfile::new(0.8);
    for d in docs() {
        profile.observe_unit(&unit(&d));
    }
    let json = serde_json::to_string(&profile).expect("serializes");
    let back: OnlineProfile = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back.documents(), profile.documents(), "document count must survive");
    assert_eq!(back.vector(), profile.vector(), "profile vector must survive bit-exactly");
    for similarity in
        [BagSimilarity::Cosine, BagSimilarity::Jaccard, BagSimilarity::GeneralizedJaccard]
    {
        for p in &probes {
            assert_eq!(
                bag_score(&profile, similarity, &unit(p)),
                bag_score(&back, similarity, &unit(p)),
                "{similarity:?} score drifted on {p:?}"
            );
        }
    }
    for similarity in
        [GraphSimilarity::Containment, GraphSimilarity::Value, GraphSimilarity::NormalizedValue]
    {
        let mut model = OnlineGraphModel::new(similarity, 2);
        for d in docs() {
            model.observe(&d);
        }
        let json = serde_json::to_string(&model).expect("serializes");
        let mut back: OnlineGraphModel = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back.documents(), model.documents(), "document count must survive");
        for p in &probes {
            assert_eq!(model.score(p), back.score(p), "{similarity:?} score drifted on {p:?}");
        }
    }
}

#[test]
fn serve_engine_snapshot_roundtrips_through_the_facade() {
    use pmr::core::{PreparedCorpus, SplitConfig};
    use pmr::serve::{EngineConfig, EngineSnapshot, Replay, ReplayOptions, ServeModel};
    use pmr::sim::{generate_corpus, ScalePreset, SimConfig};

    let corpus = generate_corpus(&SimConfig::preset(ScalePreset::Smoke, 9));
    let prepared = PreparedCorpus::new(corpus, SplitConfig::default()).expect("well-formed");
    let options = ReplayOptions {
        config: EngineConfig {
            model: ServeModel::Graph {
                similarity: GraphSimilarity::Value,
                char_grams: false,
                n: 1,
            },
            window: 16,
        },
        ..ReplayOptions::default()
    };
    let mut replay = Replay::new(&prepared, options);
    replay.run_to(replay.stream_len() / 2);
    let snapshot = replay.snapshot().expect("all shards alive");
    let _ = replay.finish();
    let wire = snapshot.to_jsonl().expect("serializes");
    let back = EngineSnapshot::from_jsonl(&wire).expect("parses");
    assert_eq!(back.to_jsonl().expect("re-serializes"), wire, "JSONL must be byte-stable");
    assert_eq!(back.header, snapshot.header);
    assert_eq!(back.users.len(), snapshot.users.len());
}

#[test]
fn simulated_corpus_roundtrips() {
    use pmr::sim::{generate_corpus, Corpus, ScalePreset, SimConfig};
    let corpus = generate_corpus(&SimConfig::preset(ScalePreset::Smoke, 5));
    let json = serde_json::to_string(&corpus).expect("serializes");
    let back: Corpus = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(corpus.len(), back.len());
    assert_eq!(corpus.tweets[10].text, back.tweets[10].text);
    let u = corpus.evaluated_user_ids().next().unwrap();
    assert_eq!(corpus.incoming_of(u), back.incoming_of(u));
}
