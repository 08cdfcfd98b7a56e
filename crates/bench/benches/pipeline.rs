//! End-to-end pipeline benchmarks: corpus generation, preprocessing and
//! whole-configuration scoring — the units that dominate a sweep's wall
//! clock.

use criterion::{criterion_group, criterion_main, Criterion};

use pmr_bag::{BagSimilarity, WeightingScheme};
use pmr_core::config::AggKind;
use pmr_core::recommender::{score_configuration, ScoringOptions};
use pmr_core::{ModelConfiguration, PreparedCorpus, RepresentationSource, SplitConfig};
use pmr_graph::GraphSimilarity;
use pmr_sim::{generate_corpus, ScalePreset, SimConfig, UserId};

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("corpus");
    group.sample_size(10);
    group.bench_function("generate_smoke", |b| {
        b.iter(|| generate_corpus(&SimConfig::preset(ScalePreset::Smoke, 5)).len())
    });
    let corpus = generate_corpus(&SimConfig::preset(ScalePreset::Smoke, 5));
    group.bench_function("prepare_smoke", |b| {
        b.iter(|| {
            PreparedCorpus::new(corpus.clone(), SplitConfig::default())
                .expect("well-formed")
                .split
                .len()
        })
    });
    group.finish();
}

fn bench_scoring(c: &mut Criterion) {
    let corpus = generate_corpus(&SimConfig::preset(ScalePreset::Smoke, 5));
    let prepared =
        PreparedCorpus::new(corpus, SplitConfig::default()).expect("corpus is well-formed");
    let users: Vec<UserId> = prepared.split.users().collect();
    let opts = ScoringOptions { iteration_scale: 0.01, infer_iterations: 5, seed: 1 };
    let mut group = c.benchmark_group("score_configuration");
    group.sample_size(10);
    group.bench_function("tn_tfidf_on_R", |b| {
        let cfg = ModelConfiguration::Bag {
            char_grams: false,
            n: 1,
            weighting: WeightingScheme::TFIDF,
            aggregation: AggKind::Centroid,
            similarity: BagSimilarity::Cosine,
        };
        b.iter(|| {
            score_configuration(&prepared, &cfg, RepresentationSource::R, &users, &opts)
                .per_user
                .len()
        })
    });
    group.bench_function("tng_n3_on_R", |b| {
        let cfg = ModelConfiguration::Graph {
            char_grams: false,
            n: 3,
            similarity: GraphSimilarity::Value,
        };
        b.iter(|| {
            score_configuration(&prepared, &cfg, RepresentationSource::R, &users, &opts)
                .per_user
                .len()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_generation, bench_scoring
}
criterion_main!(benches);
