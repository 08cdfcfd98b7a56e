//! Integration checks at the *default* corpus scale — the scale
//! EXPERIMENTS.md documents. Slower than the smoke tests (tens of seconds),
//! but they pin the properties the smoke corpus can only approximate.

use pmr::bag::{BagSimilarity, WeightingScheme};
use pmr::core::config::AggKind;
use pmr::core::experiment::{ExperimentRunner, RunnerOptions};
use pmr::core::recommender::ScoringOptions;
use pmr::core::{ModelConfiguration, PreparedCorpus, RepresentationSource, SplitConfig};
use pmr::sim::usertype::{partition_users, UserGroup};
use pmr::sim::{generate_corpus, ScalePreset, SimConfig, Table2};

#[test]
fn default_scale_corpus_is_fully_evaluable() {
    let corpus = generate_corpus(&SimConfig::preset(ScalePreset::Default, 42));
    assert!(corpus.len() > 20_000, "default corpus too small: {}", corpus.len());
    let prepared =
        PreparedCorpus::new(corpus, SplitConfig::default()).expect("corpus is well-formed");
    // Every one of the 60 users must have a valid test set at this scale.
    assert_eq!(prepared.split.len(), 60);
    // And the 1:4 class ratio must hold for essentially every user (a
    // single tiny-feed user may come up a negative or two short).
    let mut skewed = 0;
    for u in prepared.split.users() {
        let s = prepared.split.user(u).unwrap();
        assert!(!s.positives.is_empty());
        assert!(s.negatives.len() <= s.positives.len() * 4);
        if s.negatives.len() < s.positives.len() * 4 {
            skewed += 1;
        }
    }
    assert!(skewed <= 2, "too many skewed test sets: {skewed}/60");
}

#[test]
fn default_scale_partition_mirrors_the_paper() {
    let corpus = generate_corpus(&SimConfig::preset(ScalePreset::Default, 42));
    let partition = partition_users(&corpus);
    assert_eq!(partition.is.len(), 20);
    assert_eq!(partition.bu.len(), 20);
    // The paper found exactly 9 users above posting ratio 2 (after manual
    // intervention at the BU/IP boundary, §4); our measured partition lands
    // within one boundary user of that.
    assert!((8..=10).contains(&partition.ip.len()), "IP group size off: {}", partition.ip.len());
    assert_eq!(partition.ip.len() + partition.rest.len(), 20);
    // Threshold structure of §4: a clear gap between IS and BU.
    let max_is = partition.is.iter().map(|&u| partition.ratio_of(u)).fold(0.0f64, f64::max);
    let min_bu = partition.bu.iter().map(|&u| partition.ratio_of(u)).fold(f64::INFINITY, f64::min);
    assert!(max_is < 0.5, "IS ratios stay low: {max_is:.3}");
    assert!(min_bu > max_is, "IS and BU separate: {min_bu:.3} vs {max_is:.3}");
}

/// The paper's source and user-type orderings, asserted strictly at the
/// scale EXPERIMENTS.md documents: R beats T and E as a representation
/// source, and information producers are easier to model than seekers.
#[test]
fn default_scale_source_and_user_type_orderings() {
    let corpus = generate_corpus(&SimConfig::preset(ScalePreset::Default, 42));
    let prepared =
        PreparedCorpus::new(corpus, SplitConfig::default()).expect("corpus is well-formed");
    let runner = ExperimentRunner::new(&prepared);
    let opts = RunnerOptions {
        scoring: ScoringOptions { iteration_scale: 0.02, infer_iterations: 8, seed: 13 },
        ran_iterations: 200,
    };
    let tn = ModelConfiguration::Bag {
        char_grams: false,
        n: 1,
        weighting: WeightingScheme::TFIDF,
        aggregation: AggKind::Centroid,
        similarity: BagSimilarity::Cosine,
    };
    let map = |s, g| runner.run(&tn, s, g, &opts).map;
    let r = map(RepresentationSource::R, UserGroup::All);
    let t = map(RepresentationSource::T, UserGroup::All);
    let e = map(RepresentationSource::E, UserGroup::All);
    assert!(r > t, "R must beat T at default scale: {r:.3} vs {t:.3}");
    assert!(r > e, "R must beat E at default scale: {r:.3} vs {e:.3}");
    let ip = map(RepresentationSource::R, UserGroup::IP);
    let is = map(RepresentationSource::R, UserGroup::IS);
    assert!(ip > is, "IP must beat IS at default scale: {ip:.3} vs {is:.3}");
}

#[test]
fn default_scale_table2_shapes_hold() {
    let corpus = generate_corpus(&SimConfig::preset(ScalePreset::Default, 42));
    let partition = partition_users(&corpus);
    let t2 = Table2::compute(&corpus, &partition);
    use pmr::sim::usertype::UserGroup;
    let is = t2.group(UserGroup::IS);
    let ip = t2.group(UserGroup::IP);
    // The paper's qualitative structure: IS users receive far more than
    // they post; IP users post far more than they receive; followers'
    // volumes exceed feed volumes for producers.
    assert!(is.incoming.total > is.outgoing.total * 5);
    assert!(ip.outgoing.total > ip.incoming.total * 2);
    assert!(ip.followers_tweets.total > ip.incoming.total);
}
