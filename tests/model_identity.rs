//! Training each model identity once per sweep: every variant scored from
//! a shared model must equal that configuration run alone, the sweep must
//! return results in canonical order for any worker count, and its work
//! counters must show each model trained once.
//!
//! pmr-obs's recorder is process-global, so every test in this binary holds
//! one lock: no other test's work can land in the counters a test reads.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use pmr::bag::{BagSimilarity, WeightingScheme};
use pmr::core::experiment::{ConfigResult, ExperimentRunner, RunnerOptions};
use pmr::core::recommender::ScoringOptions;
use pmr::core::{
    AggKind, ConfigGrid, ModelConfiguration, PreparedCorpus, RepresentationSource, SplitConfig,
};
use pmr::graph::GraphSimilarity;
use pmr::sim::usertype::UserGroup;
use pmr::sim::{generate_corpus, ScalePreset, SimConfig, UserId};
use pmr::topics::PoolingScheme;

static RECORDER: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    RECORDER.lock().unwrap_or_else(PoisonError::into_inner)
}

fn prepared() -> PreparedCorpus {
    let corpus = generate_corpus(&SimConfig::preset(ScalePreset::Smoke, 42));
    PreparedCorpus::new(corpus, SplitConfig::default()).expect("corpus is well-formed")
}

fn quick_opts() -> RunnerOptions {
    RunnerOptions {
        scoring: ScoringOptions { iteration_scale: 0.01, infer_iterations: 5, seed: 13 },
        ran_iterations: 100,
    }
}

fn hdp(aggregation: AggKind) -> ModelConfiguration {
    ModelConfiguration::Hdp { beta: 0.1, pooling: PoolingScheme::UP, aggregation }
}

fn tng(similarity: GraphSimilarity) -> ModelConfiguration {
    ModelConfiguration::Graph { char_grams: false, n: 1, similarity }
}

fn tn(
    n: usize,
    weighting: WeightingScheme,
    aggregation: AggKind,
    similarity: BagSimilarity,
) -> ModelConfiguration {
    ModelConfiguration::Bag { char_grams: false, n, weighting, aggregation, similarity }
}

/// Four identities, interleaved so that grouping reorders the runs: an HDP
/// Centroid/Rocchio pair, a TNG n=1 similarity triple, a TN configuration
/// under both of its valid similarities, and a singleton.
fn mini_grid() -> ConfigGrid {
    ConfigGrid::from_configs(vec![
        hdp(AggKind::Centroid),
        tng(GraphSimilarity::Containment),
        tn(1, WeightingScheme::TF, AggKind::Sum, BagSimilarity::Cosine),
        tng(GraphSimilarity::Value),
        hdp(AggKind::Rocchio),
        tn(1, WeightingScheme::TF, AggKind::Sum, BagSimilarity::GeneralizedJaccard),
        tn(2, WeightingScheme::TFIDF, AggKind::Rocchio, BagSimilarity::Cosine),
        tng(GraphSimilarity::NormalizedValue),
    ])
}

/// A result's MAP and per-user APs, as bits.
fn bits(r: &ConfigResult) -> (u64, Vec<(UserId, u64)>) {
    (r.map.to_bits(), r.per_user_ap.iter().map(|&(u, ap)| (u, ap.to_bits())).collect())
}

#[test]
fn every_variant_matches_its_configuration_run_alone() {
    let _lock = serialized();
    let p = prepared();
    let runner = ExperimentRunner::new(&p);
    let opts = quick_opts();
    let grid = mini_grid();
    // R has no negatives, so its Rocchio runs drop out: 8 runs on E, 6 on R.
    let sources = [RepresentationSource::E, RepresentationSource::R];
    let canonical: Vec<(RepresentationSource, &ModelConfiguration)> =
        sources.iter().flat_map(|&s| grid.valid_for(s).into_iter().map(move |c| (s, c))).collect();
    assert_eq!(canonical.len(), 14);
    let j1 = runner.sweep_jobs(&grid, &sources, UserGroup::All, &opts, 1);
    let j4 = runner.sweep_jobs(&grid, &sources, UserGroup::All, &opts, 4);
    assert_eq!(j1.results.len(), canonical.len());
    assert_eq!(j4.results.len(), canonical.len());
    for (i, &(source, config)) in canonical.iter().enumerate() {
        let alone = runner.run(config, source, UserGroup::All, &opts);
        assert!(!alone.per_user_ap.is_empty());
        for (jobs, sweep) in [(1, &j1), (4, &j4)] {
            let r = &sweep.results[i];
            assert_eq!((r.source, &r.config), (source, config), "slot {i} at jobs {jobs}");
            assert_eq!(
                bits(r),
                bits(&alone),
                "{} on {source} at jobs {jobs} differs from its run alone",
                config.describe()
            );
        }
    }
}

#[test]
fn an_identity_trains_once_and_its_times_add_up() {
    let _lock = serialized();
    let p = prepared();
    let runner = ExperimentRunner::new(&p);
    let opts = quick_opts();
    let source = RepresentationSource::E;
    let gibbs_sweeps =
        |s: &pmr_obs::MetricsSnapshot| s.histogram("gibbs_iter.hdp").map_or(0, |h| h.count);

    pmr_obs::install(pmr_obs::Recorder::monotonic());
    runner.run(&hdp(AggKind::Centroid), source, UserGroup::All, &opts);
    let alone = pmr_obs::snapshot().expect("a recorder is installed");
    pmr_obs::uninstall();

    pmr_obs::install(pmr_obs::Recorder::monotonic());
    let pair = ConfigGrid::from_configs(vec![hdp(AggKind::Centroid), hdp(AggKind::Rocchio)]);
    let sweep = runner.sweep_jobs(&pair, &[source], UserGroup::All, &opts, 4);
    let paired = pmr_obs::snapshot().expect("a recorder is installed");
    pmr_obs::uninstall();

    assert_eq!(paired.counter("sweep.runs"), 2);
    assert_eq!(paired.counter("sweep.models_trained"), 1);
    assert!(gibbs_sweeps(&alone) > 0, "HDP training records its Gibbs sweeps");
    assert_eq!(gibbs_sweeps(&paired), gibbs_sweeps(&alone), "the pair trains one chain");
    // Each variant reports its share of the shared training, so the runs'
    // times still add up to no more than the work the pool did.
    let accounted: Duration = sweep.results.iter().map(|r| r.train_time + r.test_time).sum();
    let busy = paired.histogram("executor.task").expect("the pool timed its task").total();
    assert!(accounted <= busy, "runs account for {accounted:?} of {busy:?} pool time");
    assert!(accounted > Duration::ZERO);
}
