//! Shard state: the per-user online models and the message protocol.
//!
//! Every user's model and candidate window live in exactly one logical
//! shard (`user_id % shards`), and the single ingest thread sends a user's
//! messages through that shard's FIFO mailbox in global stream order. A
//! user's state therefore evolves through the same sequence of updates no
//! matter how many shards or threads exist — the mechanical layout only
//! changes *which thread* applies the sequence, never the sequence itself.
//! That argument is the whole determinism proof; everything else in this
//! module is bookkeeping. The thread-scheduling half lives in
//! [`crate::runtime`]; this module owns the pure state transition
//! ([`ShardState::apply`]).

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use pmr_bag::{ScoringKernel, SparseVector};
use pmr_core::{rank_cmp, OnlineGraphModel, OnlineProfile, WindowPostings};
use pmr_sim::{Timestamp, TweetId, UserId};
use pmr_text::vocab::TermId;
use pmr_topics::{TopicBackground, TopicDoc, TopicProfile};
use serde::{Deserialize, Serialize};

use crate::config::{EngineConfig, ServeModel};
use crate::snapshot::{UserModelSnapshot, UserSnapshot, WindowEntrySnapshot};

/// A tweet's model-ready features, computed once at ingest and shared by
/// reference with every shard that sees the tweet.
#[derive(Debug, Clone, PartialEq)]
pub enum TweetFeatures {
    /// Unit-normalized bag vector over the engine's shared vectorizer.
    Bag(SparseVector),
    /// Gram surface forms for the graph models.
    Graph(Vec<String>),
    /// Token ids plus the fold-in seed key for the topic family.
    Topic(TopicDoc),
}

/// One scored tweet in a recommendation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecItem {
    /// The recommended tweet's id.
    pub tweet: u32,
    /// Its similarity to the user's model.
    pub score: f64,
}

/// The engine's answer to one `recommend(user, k, now)` call.
///
/// Deliberately carries no timing fields: a recommendation log is a pure
/// function of the event stream and the [`EngineConfig`], so two runs with
/// different shard or thread counts must produce byte-identical logs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// Sequential query id, assigned at issue time.
    pub query: u64,
    /// The queried user.
    pub user: u32,
    /// The query's time horizon: only candidates posted at or before this
    /// instant are eligible.
    pub now: Timestamp,
    /// Top-k candidates, best first; ties broken by ascending tweet id.
    pub items: Vec<RecItem>,
}

/// Messages flowing from the ingest thread into a shard.
#[derive(Debug)]
pub(crate) enum ShardMsg {
    /// A tweet entered `user`'s feed: remember it as a candidate.
    Candidate { user: UserId, tweet: TweetId, at: Timestamp, features: Arc<TweetFeatures> },
    /// `user` retweeted: fold the original's features into their model.
    Observe { user: UserId, features: Arc<TweetFeatures> },
    /// Score `user`'s candidate window as of `now` and reply.
    Query { id: u64, user: UserId, k: usize, now: Timestamp },
    /// Swap in a (re)trained topic background. Posted by the single writer
    /// to every shard's FIFO at a fixed stream position, so each shard sees
    /// the epoch boundary at the same point of its message sequence no
    /// matter the layout — the same argument that covers every other
    /// message.
    Epoch(Arc<TopicBackground>),
    /// Emit the shard's full state; processing continues afterwards.
    Snapshot,
    /// Test-only: make the worker panic, exercising the abort protocol.
    #[cfg(test)]
    Poison,
}

/// Messages flowing back from a shard to the engine.
#[derive(Debug)]
pub(crate) enum ShardReply {
    /// Answer to a [`ShardMsg::Query`].
    Recommendation(Recommendation),
    /// Answer to a [`ShardMsg::Snapshot`].
    SnapshotPart { users: Vec<UserSnapshot> },
    /// The worker's event loop panicked. Sent from the panic guard so the
    /// engine fails fast instead of hanging on a snapshot barrier the dead
    /// shard will never answer.
    Aborted {
        /// The dead worker's shard index.
        shard: usize,
        /// The panic payload, if it was a string.
        detail: String,
    },
}

/// The per-user online model, matching the engine's [`ServeModel`]. The
/// topic variant holds only the user's decayed θ accumulator — the shared
/// background lives once per shard ([`ShardState::background`]), not per
/// user.
#[derive(Debug)]
enum UserModel {
    Bag(OnlineProfile),
    Graph(Box<OnlineGraphModel>),
    Topic(TopicProfile),
}

/// One remembered feed tweet.
#[derive(Debug)]
struct WindowEntry {
    tweet: TweetId,
    at: Timestamp,
    features: Arc<TweetFeatures>,
}

/// Incremental retrieval index over one user's candidate window, keyed by
/// the model family's feature space: bag vectors post under their term
/// ids, graph gram lists under their gram surface forms. Maintained on
/// every window insert/evict so queries can zero-fill candidates that
/// share no feature with the model — exactly the candidates every
/// similarity maps to `0.0`.
#[derive(Debug)]
enum WindowIndex {
    Bag(WindowPostings<TermId>),
    Graph(WindowPostings<String>),
    /// The topic family keeps no postings: a candidate sharing no token
    /// with the profile still folds to a θ with non-zero cosine (θ is
    /// smoothed by α, and an empty doc folds to uniform), so zero-filling
    /// unmatched candidates would *change* scores. Topic queries always
    /// score the window exhaustively.
    Topic,
}

impl WindowIndex {
    fn for_model(model: &UserModel) -> WindowIndex {
        match model {
            UserModel::Bag(_) => WindowIndex::Bag(WindowPostings::new()),
            UserModel::Graph(_) => WindowIndex::Graph(WindowPostings::new()),
            UserModel::Topic(_) => WindowIndex::Topic,
        }
    }

    /// Post a window entry's features under its tweet id. A features/model
    /// family mismatch posts nothing; the query path skips such entries
    /// too, so the postings stay exact.
    fn insert(&mut self, tweet: TweetId, features: &TweetFeatures) {
        match (self, features) {
            (WindowIndex::Bag(postings), TweetFeatures::Bag(v)) => {
                postings.insert(tweet.0, v.entries().iter().map(|&(t, _)| t));
            }
            (WindowIndex::Graph(postings), TweetFeatures::Graph(grams)) => {
                postings.insert(tweet.0, grams.iter().cloned());
            }
            _ => {}
        }
    }

    /// Remove an evicted entry's postings.
    fn remove(&mut self, tweet: TweetId, features: &TweetFeatures) {
        match (self, features) {
            (WindowIndex::Bag(postings), TweetFeatures::Bag(v)) => {
                let keys: Vec<TermId> = v.entries().iter().map(|&(t, _)| t).collect();
                postings.remove(tweet.0, keys.iter());
            }
            (WindowIndex::Graph(postings), TweetFeatures::Graph(grams)) => {
                postings.remove(tweet.0, grams.iter());
            }
            _ => {}
        }
    }
}

/// One user's complete serving state: their model plus the bounded window
/// of recent feed tweets still eligible for recommendation, mirrored by
/// the incremental retrieval index over that window.
#[derive(Debug)]
pub(crate) struct UserState {
    model: UserModel,
    window: VecDeque<WindowEntry>,
    index: WindowIndex,
}

impl UserState {
    fn new(model: ServeModel) -> UserState {
        let model = match model {
            ServeModel::Bag { decay, .. } => UserModel::Bag(OnlineProfile::new(decay)),
            ServeModel::Graph { similarity, n, .. } => {
                UserModel::Graph(Box::new(OnlineGraphModel::new(similarity, n)))
            }
            ServeModel::Topic { topics, decay, .. } => {
                UserModel::Topic(TopicProfile::new(decay, topics))
            }
        };
        let index = WindowIndex::for_model(&model);
        UserState { model, window: VecDeque::new(), index }
    }

    /// Rebuild a state from its snapshot, resolving window entries' tweet
    /// ids back to features through `resolve`.
    pub(crate) fn restore(
        snapshot: &UserSnapshot,
        resolve: &dyn Fn(TweetId) -> Option<Arc<TweetFeatures>>,
    ) -> UserState {
        let model = match &snapshot.model {
            UserModelSnapshot::Bag(profile) => UserModel::Bag(profile.clone()),
            UserModelSnapshot::Graph(graph) => UserModel::Graph(Box::new(graph.clone())),
            UserModelSnapshot::Topic(profile) => UserModel::Topic(profile.clone()),
        };
        let window: VecDeque<WindowEntry> = snapshot
            .window
            .iter()
            .filter_map(|e| {
                let features = resolve(TweetId(e.tweet))?;
                Some(WindowEntry { tweet: TweetId(e.tweet), at: e.at, features })
            })
            .collect();
        // The index is derived state: rebuild it from the restored window
        // so a resumed engine answers queries exactly like the original.
        let mut index = WindowIndex::for_model(&model);
        for e in &window {
            index.insert(e.tweet, &e.features);
        }
        UserState { model, window, index }
    }

    fn snapshot(&self, user: UserId) -> UserSnapshot {
        let model = match &self.model {
            UserModel::Bag(profile) => UserModelSnapshot::Bag(profile.clone()),
            UserModel::Graph(graph) => UserModelSnapshot::Graph((**graph).clone()),
            UserModel::Topic(profile) => UserModelSnapshot::Topic(profile.clone()),
        };
        let window = self
            .window
            .iter()
            .map(|e| WindowEntrySnapshot { tweet: e.tweet.0, at: e.at })
            .collect();
        UserSnapshot { user: user.0, model, window }
    }
}

/// One logical shard's complete state: a partition of the user space plus
/// the pure message-transition function ([`ShardState::apply`]). Owns no
/// thread and no channel — the scheduling half ([`crate::runtime`]) decides
/// which OS thread applies the shard's FIFO, and collects the replies
/// `apply` pushes.
/// Cleared-on-overflow capacity of the per-shard θ memo. Purely
/// mechanical: a hit and a recompute yield identical bytes (fold-in is a
/// pure function), so the cap — and the different hit patterns different
/// layouts produce — can never change an output.
const THETA_CACHE_CAP: usize = 8192;

pub(crate) struct ShardState {
    shard: usize,
    config: EngineConfig,
    users: BTreeMap<UserId, UserState>,
    /// The topic family's shared background model, swapped by
    /// [`ShardMsg::Epoch`]. `None` for the gram families (and before the
    /// writer's initial epoch broadcast).
    background: Option<Arc<TopicBackground>>,
    /// Per-tweet fold-in memo under the current background, keyed by the
    /// document's seed key. Cleared on every epoch swap (θ depends on φ)
    /// and on overflow.
    thetas: BTreeMap<u64, Arc<Vec<f32>>>,
}

impl ShardState {
    pub(crate) fn new(
        shard: usize,
        config: EngineConfig,
        users: BTreeMap<UserId, UserState>,
    ) -> ShardState {
        ShardState { shard, config, users, background: None, thetas: BTreeMap::new() }
    }

    /// Apply one message, pushing any replies. This is the *entire*
    /// observable behavior of a shard: a shard's output is a fold of
    /// `apply` over its FIFO message sequence, which is what makes the
    /// scheduling layer provably irrelevant to the recommendation log.
    pub(crate) fn apply(&mut self, msg: ShardMsg, replies: &mut Vec<ShardReply>) {
        match msg {
            ShardMsg::Candidate { user, tweet, at, features } => {
                self.candidate(user, tweet, at, features);
            }
            ShardMsg::Observe { user, features } => self.observe(user, &features),
            ShardMsg::Query { id, user, k, now } => {
                let rec = self.query(id, user, k, now);
                replies.push(ShardReply::Recommendation(rec));
            }
            ShardMsg::Epoch(background) => {
                // θs are functions of φ: a new background invalidates the
                // memo wholesale.
                self.thetas.clear();
                self.background = Some(background);
            }
            ShardMsg::Snapshot => {
                let users = self.users.iter().map(|(u, s)| s.snapshot(*u)).collect();
                replies.push(ShardReply::SnapshotPart { users });
            }
            #[cfg(test)]
            // pmr-lint: allow(lib-unwrap): test-only poison pill; the panic is the point
            ShardMsg::Poison => panic!("shard {} poisoned", self.shard),
        }
    }

    fn state(&mut self, user: UserId) -> &mut UserState {
        let model = self.config.model;
        self.users.entry(user).or_insert_with(|| UserState::new(model))
    }

    fn candidate(
        &mut self,
        user: UserId,
        tweet: TweetId,
        at: Timestamp,
        features: Arc<TweetFeatures>,
    ) {
        let cap = self.config.window;
        let state = self.state(user);
        // A user can see the same original twice (e.g. via the author and
        // via a retweeting followee); the first exposure wins.
        if state.window.iter().any(|e| e.tweet == tweet) {
            pmr_obs::counter_add("serve.window_duplicates", 1);
            return;
        }
        state.index.insert(tweet, &features);
        state.window.push_back(WindowEntry { tweet, at, features });
        while state.window.len() > cap {
            if let Some(evicted) = state.window.pop_front() {
                state.index.remove(evicted.tweet, &evicted.features);
            }
            pmr_obs::counter_add("serve.window_evictions", 1);
        }
    }

    /// Fold-in θ for `doc` under the current background, memoized per seed
    /// key. `None` when no background has been broadcast yet (gram-family
    /// shards, or a topic doc arriving before the writer's initial epoch —
    /// the latter is counted, not panicked on).
    fn theta(&mut self, doc: &TopicDoc) -> Option<Arc<Vec<f32>>> {
        let background = self.background.as_ref()?;
        if let Some(theta) = self.thetas.get(&doc.key) {
            return Some(Arc::clone(theta));
        }
        let sweeps =
            self.config.model.online_topic().map_or(1, |(cfg, _, _)| cfg.foldin_iterations.max(1));
        pmr_obs::counter_add("serve.topic.foldin_iters", sweeps as u64);
        let theta = {
            let _timer = pmr_obs::timer("topic.foldin");
            Arc::new(background.fold_in(&doc.tokens, doc.key))
        };
        if self.thetas.len() >= THETA_CACHE_CAP {
            self.thetas.clear();
        }
        self.thetas.insert(doc.key, Arc::clone(&theta));
        Some(theta)
    }

    fn observe(&mut self, user: UserId, features: &Arc<TweetFeatures>) {
        // Topic first: θ computation borrows the shard-level memo, so it
        // must run before the user-state borrow.
        if let TweetFeatures::Topic(doc) = features.as_ref() {
            let Some(theta) = self.theta(doc) else {
                pmr_obs::counter_add("serve.model_feature_mismatch", 1);
                return;
            };
            if let UserModel::Topic(profile) = &mut self.state(user).model {
                profile.observe(&theta);
            } else {
                pmr_obs::counter_add("serve.model_feature_mismatch", 1);
            }
            return;
        }
        let state = self.state(user);
        match (&mut state.model, features.as_ref()) {
            (UserModel::Bag(profile), TweetFeatures::Bag(unit)) => profile.observe_unit(unit),
            (UserModel::Graph(graph), TweetFeatures::Graph(grams)) => graph.observe(grams),
            // Unreachable when the engine computes features from its own
            // config; counted rather than panicking per the no-panic rule.
            _ => pmr_obs::counter_add("serve.model_feature_mismatch", 1),
        }
    }

    fn query(&mut self, id: u64, user: UserId, k: usize, now: Timestamp) -> Recommendation {
        let _timer = pmr_obs::timer("serve.query");
        if matches!(self.config.model, ServeModel::Topic { .. }) {
            return self.query_topic(id, user, k, now);
        }
        let mut items: Vec<RecItem> = Vec::new();
        let mut scored = 0u64;
        let mut pruned = 0u64;
        if let Some(state) = self.users.get_mut(&user) {
            let UserState { model, window, index } = state;
            match (model, &*index) {
                (UserModel::Bag(profile), WindowIndex::Bag(postings)) => {
                    if let ServeModel::Bag { similarity, .. } = self.config.model {
                        // One kernel per query amortizes the model-side
                        // normalization over the whole window. Candidates
                        // sharing no term with the model are zero-filled
                        // without a kernel call: every bag similarity maps
                        // empty overlap to exactly 0.0, so the scores are
                        // byte-identical to scoring every candidate.
                        let kernel = ScoringKernel::new(similarity, profile.vector());
                        let keys: Vec<TermId> =
                            profile.vector().entries().iter().map(|&(t, _)| t).collect();
                        let matched = postings.matched(keys.iter());
                        for e in window.iter().filter(|e| e.at <= now) {
                            if let TweetFeatures::Bag(v) = e.features.as_ref() {
                                let score = if matched.binary_search(&e.tweet.0).is_ok() {
                                    scored += 1;
                                    kernel.score(v)
                                } else {
                                    pruned += 1;
                                    0.0
                                };
                                items.push(RecItem { tweet: e.tweet.0, score });
                            }
                        }
                    }
                }
                (UserModel::Graph(graph), WindowIndex::Graph(postings)) => {
                    // A shared edge requires a shared node gram, so gating
                    // on gram overlap never drops a candidate that could
                    // score non-zero. Gated-out candidates still intern
                    // their grams (`intern_only`) so the graph space
                    // assigns ids in the same order as scoring every
                    // candidate would — later scores depend on that order.
                    let keys = graph.node_terms();
                    let matched = postings.matched(keys.iter());
                    for e in window.iter().filter(|e| e.at <= now) {
                        if let TweetFeatures::Graph(grams) = e.features.as_ref() {
                            let score = if matched.binary_search(&e.tweet.0).is_ok() {
                                scored += 1;
                                graph.score(grams)
                            } else {
                                pruned += 1;
                                graph.intern_only(grams)
                            };
                            items.push(RecItem { tweet: e.tweet.0, score });
                        }
                    }
                }
                // Unreachable: topic queries dispatch to `query_topic`, and
                // a user's index is always built for its own model family.
                _ => {}
            }
        }
        pmr_obs::counter_add("retrieval.candidates", scored);
        pmr_obs::counter_add("retrieval.pruned", pruned);
        rank(id, user, now, items, k)
    }

    /// The topic query path: always exhaustive over the eligible window
    /// (see [`WindowIndex::Topic`] for why gating cannot apply), with θs
    /// served from the shard memo. Split from [`ShardState::query`] because
    /// θ computation borrows shard-level state the gram paths never touch.
    fn query_topic(&mut self, id: u64, user: UserId, k: usize, now: Timestamp) -> Recommendation {
        let eligible: Vec<(u32, Arc<TweetFeatures>)> = self
            .users
            .get(&user)
            .map(|state| {
                state
                    .window
                    .iter()
                    .filter(|e| e.at <= now)
                    .map(|e| (e.tweet.0, Arc::clone(&e.features)))
                    .collect()
            })
            .unwrap_or_default();
        let mut thetas: Vec<(u32, Arc<Vec<f32>>)> = Vec::with_capacity(eligible.len());
        for (tweet, features) in &eligible {
            match features.as_ref() {
                TweetFeatures::Topic(doc) => {
                    if let Some(theta) = self.theta(doc) {
                        thetas.push((*tweet, theta));
                    }
                }
                _ => pmr_obs::counter_add("serve.model_feature_mismatch", 1),
            }
        }
        let mut items: Vec<RecItem> = Vec::new();
        if let Some(state) = self.users.get(&user) {
            if let UserModel::Topic(profile) = &state.model {
                for (tweet, theta) in &thetas {
                    items.push(RecItem { tweet: *tweet, score: profile.score(theta) });
                }
            }
        }
        rank(id, user, now, items, k)
    }
}

/// Keep the top `k` of `items` under the repo-wide top-k contract
/// ([`pmr_core::rank_cmp`]): best score first, ties broken by ascending
/// tweet id, total even for NaN.
fn rank(
    id: u64,
    user: UserId,
    now: Timestamp,
    mut items: Vec<RecItem>,
    k: usize,
) -> Recommendation {
    items.sort_by(|a, b| rank_cmp(a.score, &a.tweet, b.score, &b.tweet));
    items.truncate(k);
    Recommendation { query: id, user: user.0, now, items }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload was not a string".to_string()
    }
}

impl std::fmt::Debug for ShardState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardState")
            .field("shard", &self.shard)
            .field("config", &self.config)
            .field("users", &self.users.len())
            .finish()
    }
}

#[cfg(test)]
impl ShardState {
    /// The ungated reference for [`ShardState::query`]: score every
    /// eligible candidate of a bag or graph user, ignoring the window
    /// postings. The gate is exact only if the two always agree bit for
    /// bit.
    fn query_ungated(&mut self, id: u64, user: UserId, k: usize, now: Timestamp) -> Recommendation {
        let mut items: Vec<RecItem> = Vec::new();
        if let Some(state) = self.users.get_mut(&user) {
            for e in state.window.iter().filter(|e| e.at <= now) {
                let score = match (&mut state.model, e.features.as_ref(), self.config.model) {
                    (
                        UserModel::Bag(profile),
                        TweetFeatures::Bag(v),
                        ServeModel::Bag { similarity, .. },
                    ) => ScoringKernel::new(similarity, profile.vector()).score(v),
                    (UserModel::Graph(graph), TweetFeatures::Graph(grams), _) => graph.score(grams),
                    _ => continue,
                };
                items.push(RecItem { tweet: e.tweet.0, score });
            }
        }
        rank(id, user, now, items, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_bag::{BagSimilarity, WeightingScheme};
    use pmr_graph::GraphSimilarity;

    /// Two vocabularies: the users observe only `COMMON` words until
    /// `LATE`, while candidates alternate between `COMMON` and `RARE`, so
    /// every query window holds candidates sharing no feature with the
    /// model. After `LATE` the users observe `RARE` words too, so a gated
    /// candidate's grams later enter the model — which is where a graph
    /// space interning in a different order would show.
    const COMMON: [&str; 5] = ["cats", "purr", "nap", "milk", "yarn"];
    const RARE: [&str; 4] = ["rust", "code", "borrow", "trait"];
    const STEPS: u32 = 240;
    const LATE: u32 = 160;

    fn words(step: u32) -> Vec<&'static str> {
        let vocab: &[&str] = if step % 3 == 1 { &RARE } else { &COMMON };
        let len = vocab.len() as u32;
        (0..2 + step % 3).map(|j| vocab[((step * 7 + j * 3) % len) as usize]).collect()
    }

    fn observed_words(step: u32) -> Vec<&'static str> {
        if step >= LATE && step.is_multiple_of(2) {
            words(step / 2 * 3 + 1)
        } else {
            words(step / 2 * 3)
        }
    }

    fn term_id(word: &str) -> TermId {
        COMMON.iter().chain(RARE.iter()).position(|w| *w == word).map_or(99, |i| i as TermId)
    }

    fn bag_features(words: &[&str]) -> Arc<TweetFeatures> {
        let pairs = words.iter().map(|w| (term_id(w), 1.0)).collect();
        Arc::new(TweetFeatures::Bag(SparseVector::from_pairs(pairs).normalized()))
    }

    fn graph_features(words: &[&str]) -> Arc<TweetFeatures> {
        Arc::new(TweetFeatures::Graph(words.iter().map(|w| (*w).to_owned()).collect()))
    }

    /// Replay one stream through two identical shards, answering every
    /// query through the gate on one and [`ShardState::query_ungated`] on
    /// the other; items must match bit for bit, and so must the final
    /// snapshots (for graph users that includes the space's interning
    /// order).
    fn assert_gate_is_exact(model: ServeModel, features: fn(&[&str]) -> Arc<TweetFeatures>) {
        let config = EngineConfig { model, window: 6 };
        let mut gated = ShardState::new(0, config, BTreeMap::new());
        let mut ungated = ShardState::new(0, config, BTreeMap::new());
        let mut replies = Vec::new();
        // Test-side mirror of each user's observed words and window, to
        // count queries whose window holds a zero-overlap candidate.
        let mut observed: BTreeMap<u32, Vec<&str>> = BTreeMap::new();
        let mut windows: BTreeMap<u32, VecDeque<Vec<&str>>> = BTreeMap::new();
        let mut zero_overlap_queries = 0;
        for step in 0..STEPS {
            let user = UserId(step % 3);
            let observe = step.is_multiple_of(4);
            let msgs = || {
                let mut msgs = vec![ShardMsg::Candidate {
                    user,
                    tweet: TweetId(step),
                    at: Timestamp::from(step),
                    features: features(&words(step)),
                }];
                if observe {
                    msgs.push(ShardMsg::Observe {
                        user,
                        features: features(&observed_words(step)),
                    });
                }
                msgs
            };
            for msg in msgs() {
                gated.apply(msg, &mut replies);
            }
            for msg in msgs() {
                ungated.apply(msg, &mut replies);
            }
            let window = windows.entry(user.0).or_default();
            window.push_back(words(step));
            if window.len() > config.window {
                window.pop_front();
            }
            let seen = observed.entry(user.0).or_default();
            if observe {
                seen.extend(observed_words(step));
            }
            if step % 5 == 4 {
                let now = Timestamp::from(step);
                gated.apply(ShardMsg::Query { id: step as u64, user, k: 4, now }, &mut replies);
                let Some(ShardReply::Recommendation(got)) = replies.pop() else {
                    panic!("a query must answer with a recommendation");
                };
                let want = ungated.query_ungated(step as u64, user, 4, now);
                let bits = |r: &Recommendation| -> Vec<(u32, u64)> {
                    r.items.iter().map(|i| (i.tweet, i.score.to_bits())).collect()
                };
                assert_eq!(bits(&got), bits(&want), "{}: query {step} diverged", model.name());
                if !seen.is_empty()
                    && window.iter().any(|doc| doc.iter().all(|w| !seen.contains(w)))
                {
                    zero_overlap_queries += 1;
                }
            }
        }
        assert!(zero_overlap_queries > 0, "the stream must exercise zero-overlap candidates");
        let snapshot = |state: &mut ShardState| {
            let mut replies = Vec::new();
            state.apply(ShardMsg::Snapshot, &mut replies);
            let Some(ShardReply::SnapshotPart { users }) = replies.pop() else {
                panic!("a snapshot must answer with its users");
            };
            serde_json::to_string(&users).expect("users serialize")
        };
        assert_eq!(snapshot(&mut gated), snapshot(&mut ungated), "{} state diverged", model.name());
    }

    #[test]
    fn gated_bag_queries_match_the_ungated_reference() {
        for similarity in
            [BagSimilarity::Cosine, BagSimilarity::Jaccard, BagSimilarity::GeneralizedJaccard]
        {
            let model = ServeModel::Bag {
                weighting: WeightingScheme::TF,
                similarity,
                char_grams: false,
                n: 1,
                decay: 0.9,
            };
            assert_gate_is_exact(model, bag_features);
        }
    }

    #[test]
    fn gated_graph_queries_match_the_ungated_reference() {
        for similarity in
            [GraphSimilarity::Containment, GraphSimilarity::Value, GraphSimilarity::NormalizedValue]
        {
            for n in [1, 2] {
                let model = ServeModel::Graph { similarity, char_grams: false, n };
                assert_gate_is_exact(model, graph_features);
            }
        }
    }
}
