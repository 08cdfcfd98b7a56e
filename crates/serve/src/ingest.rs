//! Streaming ingest: drive an [`Engine`] directly from a
//! [`pmr_sim::StreamGenerator`] — no materialized corpus anywhere.
//!
//! [`crate::Replay`] needs the whole corpus in memory (tweets, prepared
//! gram tables, a dense feature vector per original). That is the right
//! trade at paper scale and a non-starter at the ROADMAP's 10^5–10^6
//! users. This adapter instead consumes the generator's timestamp-ordered
//! chunks as they are rendered:
//!
//! * chunks are rendered **in parallel** over
//!   [`pmr_core::executor::run_tasks`] in windows of `jobs`, and consumed
//!   in chunk order — `run_tasks` returns results in input order, so the
//!   engine always sees the exact global event stream regardless of
//!   worker count;
//! * features are computed inside the worker from each record's own text
//!   (for a retweet, from the carried original text), so peak memory is
//!   one window of rendered chunks rather than a corpus-wide feature
//!   table;
//! * each event then goes through the same [`StreamDriver`] rule as
//!   replay, with follower lists from the generator's graph.
//!
//! **Model restrictions.** Graph models and TF/BF bag models are
//! streamable. A TF/BF bag vector depends only on the document itself plus
//! a *dimension id space*, and the id space can be grown incrementally:
//! `StreamBagVectorizer` interns unknown grams in first-seen stream
//! order over original tweets, which reproduces — prefix by prefix — the
//! exact local ids [`pmr_bag::IndexedVectorizer::fit`] assigns over the
//! materialized corpus (original tweet ids are allocated in stream order,
//! so first-seen-in-stream *is* first-seen-in-id-order). Two families stay
//! rejected with typed errors: **TF-IDF** needs corpus-wide document
//! frequencies a single pass cannot know, and **topic** needs the
//! materialized corpus to bootstrap its epoch-0 background model.
//!
//! **Featurization difference vs. replay.** Replay's token grams pass
//! through the corpus-fitted stop-word filter
//! ([`pmr_core::PreparedCorpus::stopwords`]); a streaming consumer has no
//! corpus to fit that filter on, so token grams here are built from the
//! unfiltered token stream. That filter is the *only* difference: a test
//! pins that stop-filtering the streamed tokens reproduces replay's token
//! grams exactly, and that char grams (`char_grams: true`, lower-cased raw
//! text) agree unfiltered — which is why the ingest-vs-replay
//! equivalence tests (graph *and* bag) use char grams.

use std::sync::Arc;

use pmr_bag::{weigh_runs, SparseVector, WeightingScheme};
use pmr_core::executor::run_tasks;
use pmr_core::{PmrError, PmrResult};
use pmr_sim::scale::IngestRecord;
use pmr_sim::StreamGenerator;
use pmr_text::vocab::{TermId, Vocabulary};
use pmr_text::{char_ngrams, token_ngrams, Tokenizer};

use crate::config::ServeModel;
use crate::driver::StreamDriver;
use crate::engine::Engine;
use crate::replay::{ReplayOptions, ReplayOutcome};
use crate::shard::TweetFeatures;

/// The unfiltered token texts of one tweet: the token-gram input.
fn stream_tokens(text: &str) -> Vec<String> {
    Tokenizer::default().tokenize(text).into_iter().map(|t| t.text).collect()
}

/// Gram surface forms of one tweet text under a serving model's alphabet.
fn extract_grams(model: ServeModel, text: &str) -> Vec<String> {
    if model.char_grams() {
        char_ngrams(&text.to_lowercase(), model.n())
    } else {
        token_ngrams(&stream_tokens(text), model.n())
    }
}

/// Single-pass TF/BF bag vectorizer over an incremental vocabulary.
///
/// Dimensions are interned in first-seen stream order over *original*
/// tweets — the same first-seen order [`pmr_bag::IndexedVectorizer::fit`]
/// walks over the materialized corpus, because original tweet ids are
/// allocated in stream order. Counting is the same [`weigh_runs`]
/// `IndexedVectorizer::transform` uses, so every emitted vector is
/// bit-identical to the replay path's (the equivalence test pins this).
/// Retweets transform *without* growing the vocabulary: their grams come
/// from the carried origin text, whose original has already been interned.
struct StreamBagVectorizer {
    weighting: WeightingScheme,
    vocab: Vocabulary,
}

impl StreamBagVectorizer {
    fn new(weighting: WeightingScheme) -> Self {
        StreamBagVectorizer { weighting, vocab: Vocabulary::new() }
    }

    /// Intern an original document's grams (unknown grams are appended in
    /// first-seen order), then transform it.
    fn observe_original(&mut self, grams: &[String]) -> SparseVector {
        let ids: Vec<TermId> = grams.iter().map(|g| self.vocab.intern(g)).collect();
        self.weigh(ids, grams.len())
    }

    /// Transform without growing the vocabulary; grams outside it are
    /// dropped, exactly as a fitted vectorizer drops unseen grams.
    fn transform(&self, grams: &[String]) -> SparseVector {
        let ids: Vec<TermId> = grams.iter().filter_map(|g| self.vocab.get(g)).collect();
        self.weigh(ids, grams.len())
    }

    /// Weigh by [`weigh_runs`], the counting `IndexedVectorizer::transform`
    /// uses, so the f32 weights match bitwise. TF-IDF is rejected before
    /// ingest starts, so the IDF discount is never read.
    fn weigh(&self, ids: Vec<TermId>, n_d: usize) -> SparseVector {
        weigh_runs(self.weighting, ids, n_d, |_| 0.0)
    }
}

/// Drive `gen`'s full event stream through a fresh engine and collect the
/// recommendations. Output is a pure function of the generator and
/// [`crate::EngineConfig`]; `jobs`, `shards` and `queue_capacity` are
/// mechanical.
pub fn ingest_stream(gen: &StreamGenerator, options: ReplayOptions) -> PmrResult<ReplayOutcome> {
    let model = options.config.model;
    if matches!(model, ServeModel::Bag { weighting: WeightingScheme::TFIDF, .. }) {
        return Err(PmrError::invariant(
            "streaming ingest cannot serve TF-IDF bag models: inverse document frequencies \
             need the full corpus, which a single-pass stream cannot provide",
        ));
    }
    if matches!(model, ServeModel::Topic { .. }) {
        return Err(PmrError::invariant(
            "streaming ingest cannot serve topic models: the epoch-0 background model is \
             trained on the materialized corpus, which a single-pass stream cannot provide",
        ));
    }
    let mut bag = match model {
        ServeModel::Bag { weighting, .. } => Some(StreamBagVectorizer::new(weighting)),
        _ => None,
    };
    let followers = gen.build_followers();
    let mut driver = StreamDriver::new(&options, gen.evaluated_user_ids().collect());
    let jobs = options.jobs.max(1);
    let mut engine = Engine::start(options.config, options.runtime);

    let num_chunks = gen.num_chunks();
    let mut window_start = 0usize;
    while window_start < num_chunks {
        let window: Vec<usize> = (window_start..(window_start + jobs).min(num_chunks)).collect();
        window_start += window.len();
        // Render + gram-extract this window in parallel; results come back
        // in chunk order, so consumption below is the global stream order.
        // Bag vectorization happens in the sequential loop below, not
        // here: the incremental vocabulary's first-seen id assignment is
        // order-dependent, so it must only ever see the global stream.
        let rendered: Vec<Vec<(IngestRecord, Vec<String>)>> =
            run_tasks(window, jobs, |_, chunk| {
                gen.render_chunk(chunk)
                    .into_iter()
                    .map(|rec| {
                        let text = rec.origin_text.as_deref().unwrap_or(&rec.text);
                        let grams = extract_grams(model, text);
                        (rec, grams)
                    })
                    .collect()
            });
        for (rec, grams) in rendered.into_iter().flatten() {
            let event = rec.event;
            let features = Arc::new(match &mut bag {
                Some(vectorizer) => {
                    // A retweet's grams are its *original's* (carried
                    // origin text), already interned when the original
                    // streamed by — transform must not grow the space.
                    let vector = match event.retweet_of {
                        None => vectorizer.observe_original(&grams),
                        Some(_) => vectorizer.transform(&grams),
                    };
                    TweetFeatures::Bag(vector.normalized())
                }
                None => TweetFeatures::Graph(grams),
            });
            driver.event(&event, Some(&features), &followers[event.author.index()], |op| {
                engine.apply(&op);
            });
        }
    }

    Ok(ReplayOutcome::finish(engine, &driver))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, RuntimeOptions};
    use crate::replay::{rec_log, Replay};
    use pmr_core::{GramKind, PreparedCorpus, SplitConfig};
    use pmr_sim::ScaleConfig;

    fn graph_config() -> EngineConfig {
        EngineConfig {
            model: ServeModel::Graph {
                similarity: pmr_graph::GraphSimilarity::Value,
                char_grams: true,
                n: 3,
            },
            window: 64,
        }
    }

    fn smoke_gen(seed: u64) -> StreamGenerator {
        StreamGenerator::plan(ScaleConfig::smoke(seed))
    }

    fn run(gen: &StreamGenerator, options: ReplayOptions) -> ReplayOutcome {
        ingest_stream(gen, options).expect("streamable model ingest succeeds")
    }

    /// Stream `config` through `ingest_stream` and replay it over the
    /// materialized corpus: the logs must be byte-identical.
    fn assert_ingest_matches_replay(config: EngineConfig) {
        let gen = smoke_gen(42);
        let options = ReplayOptions { config, jobs: 2, ..ReplayOptions::default() };
        let streamed = run(&gen, options);
        let prepared = PreparedCorpus::new(gen.materialize(), SplitConfig::default())
            .expect("materialized corpus is well-formed");
        let replayed = Replay::run(&prepared, ReplayOptions { jobs: 1, ..options });
        assert_eq!(streamed.events, replayed.events);
        assert_eq!(streamed.queries, replayed.queries);
        assert!(streamed.queries > 0);
        assert_eq!(
            rec_log(&streamed.recommendations).unwrap(),
            rec_log(&replayed.recommendations).unwrap()
        );
    }

    /// Run `base` under 1 and 4 shards with a small queue: the logs must
    /// be byte-identical.
    fn assert_layout_free(gen: &StreamGenerator, base: ReplayOptions) {
        let logs: Vec<String> = [1, 4]
            .into_iter()
            .map(|shards| {
                let runtime = RuntimeOptions { shards, queue_capacity: 64, ..base.runtime };
                let outcome = run(gen, ReplayOptions { runtime, ..base });
                assert!(outcome.queries > 0);
                rec_log(&outcome.recommendations).unwrap()
            })
            .collect();
        assert_eq!(logs[0], logs[1]);
    }

    fn bag_config(weighting: WeightingScheme) -> EngineConfig {
        EngineConfig {
            model: ServeModel::Bag {
                weighting,
                similarity: pmr_bag::BagSimilarity::Cosine,
                char_grams: true,
                n: 3,
                decay: 0.9,
            },
            window: 64,
        }
    }

    #[test]
    fn tfidf_and_topic_models_are_rejected() {
        let gen = smoke_gen(1);
        let tfidf = ReplayOptions {
            config: bag_config(WeightingScheme::TFIDF),
            ..ReplayOptions::default()
        };
        assert!(ingest_stream(&gen, tfidf).is_err(), "TF-IDF needs corpus document frequencies");
        let topic = ReplayOptions {
            config: EngineConfig {
                model: ServeModel::Topic {
                    topics: 4,
                    alpha: 12.5,
                    beta: 0.01,
                    train_iterations: 5,
                    foldin_iterations: 2,
                    seed: 1,
                    decay: 1.0,
                    background_refresh: 0,
                },
                window: 64,
            },
            ..ReplayOptions::default()
        };
        assert!(ingest_stream(&gen, topic).is_err(), "topic needs the materialized corpus");
    }

    #[test]
    fn bag_ingest_agrees_with_replay_on_the_materialized_corpus() {
        // Char grams + TF: the streamed incremental vocabulary must
        // reproduce the replay path's `IndexedVectorizer` vectors
        // bit-for-bit — same first-seen dimension ids (originals stream in
        // id order), same sort-and-run-length counting. Token grams differ
        // by the corpus-fitted stop filter (pinned below), so char grams
        // are what the byte-equality pin uses, mirroring the graph test.
        assert_ingest_matches_replay(bag_config(WeightingScheme::TF));
    }

    #[test]
    fn bag_shard_layout_never_changes_the_recommendation_log() {
        let config = bag_config(WeightingScheme::BF);
        assert_layout_free(&smoke_gen(9), ReplayOptions { config, jobs: 2, ..Default::default() });
    }

    #[test]
    fn jobs_never_change_the_recommendation_log() {
        let gen = smoke_gen(5);
        let base = ReplayOptions { config: graph_config(), ..ReplayOptions::default() };
        let serial = run(&gen, ReplayOptions { jobs: 1, ..base });
        let parallel = run(&gen, ReplayOptions { jobs: 4, ..base });
        assert!(serial.queries > 0);
        assert_eq!(
            rec_log(&serial.recommendations).unwrap(),
            rec_log(&parallel.recommendations).unwrap()
        );
    }

    #[test]
    fn shard_layout_never_changes_the_recommendation_log() {
        let config = graph_config();
        assert_layout_free(&smoke_gen(9), ReplayOptions { config, jobs: 2, ..Default::default() });
    }

    #[test]
    fn ingest_agrees_with_replay_on_the_materialized_corpus() {
        // Char-gram features are computed identically by streaming ingest
        // and by the prepared-corpus replay path. With the same event
        // order, fan-out graph, and query schedule, the two paths must
        // produce byte-identical recommendation logs.
        assert_ingest_matches_replay(graph_config());
    }

    #[test]
    fn the_stop_filter_is_the_only_gram_difference_from_replay() {
        // For every original and n = 1..3: stop-filtering the streamed
        // tokens before n-gramming yields exactly replay's token grams, and
        // char grams agree with no filter at all. The unfiltered token
        // grams must differ somewhere, or this pin would show nothing.
        let gen = smoke_gen(42);
        let prepared = PreparedCorpus::new(gen.materialize(), SplitConfig::default())
            .expect("materialized corpus is well-formed");
        let stopwords = prepared.stopwords();
        let mut unfiltered_differs = 0;
        for n in 1..=3 {
            let tokens = prepared.gram_table(GramKind::Token, n);
            let chars = prepared.gram_table(GramKind::Char, n);
            for rec in (0..gen.num_chunks()).flat_map(|chunk| gen.render_chunk(chunk)) {
                if rec.event.retweet_of.is_some() {
                    continue;
                }
                let id = rec.event.tweet;
                let streamed = stream_tokens(&rec.text);
                let filtered: Vec<String> =
                    streamed.iter().filter(|t| !stopwords.contains(t)).cloned().collect();
                assert_eq!(token_ngrams(&filtered, n), tokens.doc_terms(id), "tweet {id:?}, n={n}");
                let char_model = ServeModel::Graph {
                    similarity: pmr_graph::GraphSimilarity::Value,
                    char_grams: true,
                    n,
                };
                assert_eq!(extract_grams(char_model, &rec.text), chars.doc_terms(id));
                if token_ngrams(&streamed, n) != tokens.doc_terms(id) {
                    unfiltered_differs += 1;
                }
            }
        }
        assert!(unfiltered_differs > 0, "the stop filter never changed a gram list");
    }

    #[test]
    fn celebrity_fan_out_trips_backpressure_deterministically() {
        // A power-law graph concentrates fan-out on the celebrity shard; a
        // tiny queue must trip the backpressure (block-and-retry) path,
        // and blocking must not change a byte of output across layouts.
        let gen = smoke_gen(13);
        let base = ReplayOptions { config: graph_config(), ..ReplayOptions::default() };
        let logs: Vec<String> = [1, 2, 5]
            .into_iter()
            .map(|shards| {
                let _ = pmr_obs::install(pmr_obs::Recorder::monotonic());
                let outcome = run(
                    &gen,
                    ReplayOptions {
                        runtime: RuntimeOptions {
                            shards,
                            queue_capacity: 2,
                            ..RuntimeOptions::default()
                        },
                        ..base
                    },
                );
                let metrics = pmr_obs::snapshot().expect("recorder is installed");
                assert!(
                    metrics.counter("serve.backpressure") > 0,
                    "queue_capacity=2 under celebrity fan-out must hit backpressure \
                     (shards={shards})"
                );
                let _ = pmr_obs::uninstall();
                rec_log(&outcome.recommendations).unwrap()
            })
            .collect();
        assert!(!logs[0].is_empty());
        assert_eq!(logs[0], logs[1]);
        assert_eq!(logs[0], logs[2]);
    }
}
