//! Golden bytes for the serving engine: each configuration replays the
//! smoke corpus through `Replay::run` and digests the recommendation log
//! (FNV-1a over its bytes, as in `gibbs_golden.rs`). The log carries every
//! answered query's ranked tweet ids and exact score bits, so any change to
//! which window candidates get scored, how they are scored, or the order a
//! graph space interns grams in, changes a digest. The digests pin serving
//! output across commits; `pmr-serve`'s own determinism suite pins it
//! across shard and worker layouts within one commit.

use std::sync::OnceLock;

use pmr::bag::{BagSimilarity, WeightingScheme};
use pmr::core::{PreparedCorpus, SplitConfig};
use pmr::graph::GraphSimilarity;
use pmr::serve::{rec_log, EngineConfig, Replay, ReplayOptions, RuntimeOptions, ServeModel};
use pmr::sim::{generate_corpus, ScalePreset, SimConfig};

fn prepared() -> &'static PreparedCorpus {
    static PREPARED: OnceLock<PreparedCorpus> = OnceLock::new();
    PREPARED.get_or_init(|| {
        let corpus = generate_corpus(&SimConfig::preset(ScalePreset::Smoke, 42));
        PreparedCorpus::new(corpus, SplitConfig::default()).expect("corpus is well-formed")
    })
}

/// FNV-1a over a recommendation log's bytes.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Window and query cadence as in `pmr-serve`'s determinism suite: a
/// 32-entry window queried every 10 events for bag, 16 every 25 for graph.
fn options(model: ServeModel) -> ReplayOptions {
    let (window, query_every) = match model {
        ServeModel::Bag { .. } => (32, 10),
        _ => (16, 25),
    };
    ReplayOptions {
        config: EngineConfig { model, window },
        runtime: RuntimeOptions { shards: 1, queue_capacity: 64, ..RuntimeOptions::default() },
        k: 5,
        query_every,
        jobs: 1,
    }
}

/// Replay each `(name, model, golden)` and report every digest that moved.
fn assert_golden(cases: &[(&str, ServeModel, u64)]) {
    let mut moved = Vec::new();
    for &(name, model, golden) in cases {
        let outcome = Replay::run(prepared(), options(model));
        assert!(outcome.queries > 0, "{name}: the replay must issue queries");
        let log = rec_log(&outcome.recommendations).expect("log serializes");
        let got = digest(log.as_bytes());
        if got != golden {
            moved.push(format!("{name}: digest {got:#018x}, golden {golden:#018x}"));
        }
    }
    assert!(moved.is_empty(), "rec-log bytes changed:\n{}", moved.join("\n"));
}

#[test]
fn bag_rec_logs_are_pinned() {
    let bag = |similarity| ServeModel::Bag {
        weighting: WeightingScheme::TF,
        similarity,
        char_grams: false,
        n: 1,
        decay: 0.95,
    };
    assert_golden(&[
        ("bag TF cosine", bag(BagSimilarity::Cosine), 0x0d5b_f2e0_b3f2_ee6f),
        ("bag TF jaccard", bag(BagSimilarity::Jaccard), 0x0ebf_e88f_9745_f982),
        (
            "bag TF generalized jaccard",
            bag(BagSimilarity::GeneralizedJaccard),
            0x583c_acc4_4c87_c52d,
        ),
    ]);
}

#[test]
fn token_graph_rec_logs_are_pinned() {
    let graph = |similarity, n| ServeModel::Graph { similarity, char_grams: false, n };
    assert_golden(&[
        ("graph containment n=1", graph(GraphSimilarity::Containment, 1), 0xf11b_a533_67c9_a290),
        ("graph containment n=2", graph(GraphSimilarity::Containment, 2), 0xbf5b_3aeb_dad9_f784),
        ("graph value n=1", graph(GraphSimilarity::Value, 1), 0x2283_7d02_f5c5_2f04),
        ("graph value n=2", graph(GraphSimilarity::Value, 2), 0x74ba_011b_e783_700e),
        (
            "graph normalized value n=1",
            graph(GraphSimilarity::NormalizedValue, 1),
            0x10dc_3d9b_d76a_797e,
        ),
        (
            "graph normalized value n=2",
            graph(GraphSimilarity::NormalizedValue, 2),
            0x9ed3_c3d9_2b79_e347,
        ),
    ]);
}

#[test]
fn char_trigram_graph_rec_log_is_pinned() {
    let model = ServeModel::Graph { similarity: GraphSimilarity::Value, char_grams: true, n: 3 };
    assert_golden(&[("graph char trigrams value", model, 0x5028_0643_5140_8870)]);
}
