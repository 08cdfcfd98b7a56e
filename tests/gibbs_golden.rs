//! Golden bits for every collapsed Gibbs trainer: each model is trained on
//! one small fixed corpus and its estimates (φ/θ, plus `infer` on a few
//! probe documents) are digested bit for bit. A kernel rewrite that keeps
//! every count update and RNG draw in order keeps these digests; a missed
//! or misplaced count, or a draw taken out of turn, changes them. (An
//! ulp-level reordering of one sampler weight almost never moves a draw
//! across a bucket boundary, so it stays invisible here, as in the sweep.)

use rand::rngs::StdRng;
use rand::SeedableRng;

use pmr::topics::{
    AtmConfig, AtmModel, BtmConfig, BtmModel, DmmConfig, DmmModel, HdpConfig, HdpModel, HldaConfig,
    HldaModel, LdaConfig, LdaModel, LldaConfig, LldaModel, TopicCorpus, TopicModel,
};

/// FNV-1a over the `f32` bit patterns (and lengths) of a model's outputs.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f32]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits() as u64);
        }
    }
}

/// 48 documents over three word communities plus a shared "noise" block;
/// every fourth document is long enough (> 30 tokens) for a pooled BTM
/// window to cut biterms.
fn corpus() -> TopicCorpus {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move |n: u64| {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % n
    };
    let docs: Vec<Vec<String>> = (0..48u64)
        .map(|d| {
            let len = if d % 4 == 0 { 34 + next(8) } else { 3 + next(9) };
            (0..len)
                .map(|_| {
                    let community = if next(5) == 0 { 3 } else { d % 3 };
                    format!("w{}_{}", community, next(10))
                })
                .collect()
        })
        .collect();
    let mut corpus = TopicCorpus::from_token_docs(docs);
    // Half the documents carry their community as a label (LLDA).
    corpus.labels = (0..48u32).map(|d| if d % 2 == 0 { vec![d % 3] } else { Vec::new() }).collect();
    corpus
}

/// Probe documents for `infer`: one per community, a mixed one, a single
/// word and an empty one.
fn probes(corpus: &TopicCorpus) -> Vec<Vec<u32>> {
    vec![
        corpus.encode(&["w0_1", "w0_2", "w0_3", "w0_4"]),
        corpus.encode(&["w1_5", "w1_6", "w1_0"]),
        corpus.encode(&["w2_7", "w2_8", "w2_9", "w2_1", "w2_2"]),
        corpus.encode(&["w0_1", "w1_1", "w2_1", "w3_1"]),
        corpus.encode(&["w3_4"]),
        Vec::new(),
    ]
}

/// Digest `infer` on every probe, sharing one seeded RNG across them.
fn digest_infer(model: &dyn TopicModel, corpus: &TopicCorpus, digest: &mut Digest) {
    let mut rng = StdRng::seed_from_u64(17);
    digest.word(model.num_topics() as u64);
    for probe in probes(corpus) {
        digest.floats(&model.infer(&probe, &mut rng));
    }
}

fn assert_golden(name: &str, digest: Digest, expected: u64) {
    assert_eq!(
        digest.0, expected,
        "{name}: output bits changed (digest {:#018x}, golden {expected:#018x})",
        digest.0
    );
}

#[test]
fn btm_bits_are_pinned() {
    let corpus = corpus();
    for (window, expected) in [(10_000, 0xf20c_35d0_1e1c_f8c1), (3, 0x69c1_480f_cfe7_d5bd)] {
        let cfg = BtmConfig { window, ..BtmConfig::paper(6, 40, 3) };
        let model = BtmModel::train(&cfg, &corpus);
        let mut d = Digest::new();
        d.floats(model.theta());
        for row in model.phi() {
            d.floats(row);
        }
        digest_infer(&model, &corpus, &mut d);
        assert_golden(&format!("BTM window {window}"), d, expected);
    }
}

#[test]
fn lda_bits_are_pinned() {
    let corpus = corpus();
    let model = LdaModel::train(&LdaConfig::paper(5, 40, 11), &corpus);
    let mut d = Digest::new();
    for row in model.phi() {
        d.floats(row);
    }
    for doc in 0..corpus.len() {
        d.floats(model.theta_train(doc));
    }
    digest_infer(&model, &corpus, &mut d);
    assert_golden("LDA", d, 0x2672_3712_e2b8_62f3);
}

#[test]
fn llda_bits_are_pinned() {
    let corpus = corpus();
    let model = LldaModel::train(&LldaConfig::paper(3, 40, 12), &corpus);
    let mut d = Digest::new();
    d.word(model.num_labels() as u64);
    for doc in 0..corpus.len() {
        d.floats(model.theta_train(doc));
    }
    digest_infer(&model, &corpus, &mut d);
    assert_golden("LLDA", d, 0x1f36_5527_2059_e666);
}

#[test]
fn hlda_bits_are_pinned() {
    let corpus = corpus();
    let model = HldaModel::train(&HldaConfig::paper(10.0, 0.1, 0.5, 25, 13), &corpus);
    let mut d = Digest::new();
    d.word(model.num_nodes() as u64);
    for doc in 0..corpus.len() {
        d.floats(model.theta_train(doc));
    }
    digest_infer(&model, &corpus, &mut d);
    assert_golden("HLDA", d, 0xb160_0b3d_44cc_1f0a);
}

#[test]
fn hdp_bits_are_pinned() {
    let corpus = corpus();
    let model = HdpModel::train(&HdpConfig::paper(0.1, 40, 14), &corpus);
    let mut d = Digest::new();
    d.word(model.discovered_topics() as u64);
    for doc in 0..corpus.len() {
        d.floats(model.theta_train(doc));
    }
    digest_infer(&model, &corpus, &mut d);
    assert_golden("HDP", d, 0x0592_7932_46c0_b6c9);
}

#[test]
fn atm_bits_are_pinned() {
    let corpus = corpus();
    let authors: Vec<u32> = (0..corpus.len() as u32).map(|d| d % 5).collect();
    let model = AtmModel::train(&AtmConfig::paper(4, 40, 15), &corpus, &authors);
    let mut d = Digest::new();
    for a in 0..model.num_authors() as u32 {
        d.floats(model.author_profile(a));
    }
    digest_infer(&model, &corpus, &mut d);
    assert_golden("ATM", d, 0x87e4_b7fe_e472_e332);
}

#[test]
fn dmm_bits_are_pinned() {
    let corpus = corpus();
    let model =
        DmmModel::train(&DmmConfig { topics: 8, seed: 16, ..DmmConfig::default() }, &corpus);
    let mut d = Digest::new();
    for doc in 0..corpus.len() {
        d.word(model.assignment(doc) as u64);
    }
    digest_infer(&model, &corpus, &mut d);
    assert_golden("DMM", d, 0xe72b_8277_52cb_3ab0);
}
