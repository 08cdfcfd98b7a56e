//! End-to-end integration: corpus generation → preprocessing → split →
//! model building → ranking → evaluation, across crate boundaries.

use pmr::bag::{BagSimilarity, WeightingScheme};
use pmr::core::config::AggKind;
use pmr::core::experiment::{ExperimentRunner, RunnerOptions};
use pmr::core::recommender::ScoringOptions;
use pmr::core::{ModelConfiguration, PreparedCorpus, RepresentationSource, SplitConfig};
use pmr::graph::GraphSimilarity;
use pmr::sim::usertype::UserGroup;
use pmr::sim::{generate_corpus, ScalePreset, SimConfig};
use pmr::topics::PoolingScheme;

fn prepared(seed: u64) -> PreparedCorpus {
    let corpus = generate_corpus(&SimConfig::preset(ScalePreset::Smoke, seed));
    PreparedCorpus::new(corpus, SplitConfig::default()).expect("corpus is well-formed")
}

fn quick_opts() -> RunnerOptions {
    RunnerOptions {
        scoring: ScoringOptions { iteration_scale: 0.015, infer_iterations: 6, seed: 5 },
        ran_iterations: 200,
    }
}

#[test]
fn every_model_family_produces_valid_scores() {
    let p = prepared(1);
    let runner = ExperimentRunner::new(&p);
    let opts = quick_opts();
    let configs = vec![
        ModelConfiguration::Bag {
            char_grams: false,
            n: 2,
            weighting: WeightingScheme::TF,
            aggregation: AggKind::Sum,
            similarity: BagSimilarity::GeneralizedJaccard,
        },
        ModelConfiguration::Bag {
            char_grams: true,
            n: 3,
            weighting: WeightingScheme::BF,
            aggregation: AggKind::Sum,
            similarity: BagSimilarity::Jaccard,
        },
        ModelConfiguration::Graph {
            char_grams: false,
            n: 1,
            similarity: GraphSimilarity::Containment,
        },
        ModelConfiguration::Graph {
            char_grams: true,
            n: 2,
            similarity: GraphSimilarity::NormalizedValue,
        },
        ModelConfiguration::Lda {
            topics: 20,
            iterations: 1_000,
            pooling: PoolingScheme::NP,
            aggregation: AggKind::Centroid,
        },
        ModelConfiguration::Llda {
            topics: 20,
            iterations: 1_000,
            pooling: PoolingScheme::HP,
            aggregation: AggKind::Centroid,
        },
        ModelConfiguration::Btm {
            topics: 20,
            pooling: PoolingScheme::NP,
            aggregation: AggKind::Centroid,
        },
        ModelConfiguration::Hdp {
            beta: 0.1,
            pooling: PoolingScheme::UP,
            aggregation: AggKind::Centroid,
        },
        ModelConfiguration::Hlda {
            alpha: 10.0,
            beta: 0.1,
            gamma: 0.5,
            aggregation: AggKind::Centroid,
        },
        ModelConfiguration::Plsa {
            topics: 20,
            iterations: 200,
            pooling: PoolingScheme::UP,
            aggregation: AggKind::Centroid,
        },
    ];
    for config in configs {
        let r = runner.run(&config, RepresentationSource::TR, UserGroup::All, &opts);
        assert!((0.0..=1.0).contains(&r.map), "{}: MAP out of range: {}", config.describe(), r.map);
        assert!(!r.per_user_ap.is_empty(), "{}: no users scored", config.describe());
        for &(_, ap) in &r.per_user_ap {
            assert!((0.0..=1.0).contains(&ap));
        }
    }
}

#[test]
fn rocchio_runs_on_sources_with_negatives() {
    let p = prepared(2);
    let runner = ExperimentRunner::new(&p);
    let opts = quick_opts();
    let config = ModelConfiguration::Bag {
        char_grams: false,
        n: 1,
        weighting: WeightingScheme::TFIDF,
        aggregation: AggKind::Rocchio,
        similarity: BagSimilarity::Cosine,
    };
    for source in [RepresentationSource::E, RepresentationSource::RC, RepresentationSource::EF] {
        assert!(config.valid_for_source(source));
        let r = runner.run(&config, source, UserGroup::BU, &opts);
        assert!((0.0..=1.0).contains(&r.map), "{source}: {}", r.map);
    }
    assert!(!config.valid_for_source(RepresentationSource::R));
}

#[test]
#[should_panic(expected = "invalid for source")]
fn rocchio_on_positive_only_source_panics() {
    let p = prepared(3);
    let runner = ExperimentRunner::new(&p);
    let config = ModelConfiguration::Bag {
        char_grams: false,
        n: 1,
        weighting: WeightingScheme::TF,
        aggregation: AggKind::Rocchio,
        similarity: BagSimilarity::Cosine,
    };
    runner.run(&config, RepresentationSource::T, UserGroup::All, &quick_opts());
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let run = || {
        let p = prepared(7);
        let runner = ExperimentRunner::new(&p);
        let config = ModelConfiguration::Lda {
            topics: 15,
            iterations: 1_000,
            pooling: PoolingScheme::UP,
            aggregation: AggKind::Centroid,
        };
        runner.run(&config, RepresentationSource::R, UserGroup::All, &quick_opts()).map
    };
    assert_eq!(run(), run());
}

#[test]
fn timing_measures_are_populated() {
    let p = prepared(4);
    let runner = ExperimentRunner::new(&p);
    let config =
        ModelConfiguration::Graph { char_grams: false, n: 3, similarity: GraphSimilarity::Value };
    let r = runner.run(&config, RepresentationSource::R, UserGroup::All, &quick_opts());
    assert!(r.train_time > std::time::Duration::ZERO);
    assert!(r.test_time > std::time::Duration::ZERO);
}
