//! Hierarchical LDA over the nested Chinese Restaurant Process (Blei,
//! Griffiths, Jordan & Tenenbaum 2003).
//!
//! Topics are organized in an `L`-level tree; every document lives on a
//! single root-to-leaf path and draws each word from one of the `L` topics
//! on that path. The tree's branching is nonparametric: when a document
//! resamples its path it may open a new branch at any level with
//! probability governed by the nCRP concentration `γ`.
//!
//! The Gibbs sampler alternates the two standard moves:
//!
//! 1. **Path resampling** — detach the document, score every candidate path
//!    (existing paths plus one "new child" branch at each internal node) by
//!    nCRP prior × Dirichlet-multinomial likelihood of the document's
//!    per-level words, sample, and re-attach.
//! 2. **Level resampling** — per token, `P(l) ∝ (n_dl + α) ·
//!    (n_{c_l,w} + η) / (n_{c_l} + V·η)`, matching the paper's fixed-depth
//!    variant with a `Dir(α)` prior over levels.
//!
//! The paper runs HLDA only with user pooling and 3 levels (its other
//! configurations violated the 5-day training cap — Table 4).
//!
//! Path resampling builds the document's per-level word counts once, as
//! term-sorted `(word, count)` pairs, and scores every candidate against
//! them, computing each tree node's likelihood once per document. Each
//! level's log-likelihood therefore sums in term order, which no hash
//! seed can change.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use pmr_text::vocab::TermId;

use crate::corpus::TopicCorpus;
use crate::model::{ln_gamma, normalize, sample_discrete, term_counts, uniform, TopicModel};

/// HLDA hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HldaConfig {
    /// Tree depth (the paper fixes 3).
    pub levels: usize,
    /// Dirichlet prior over levels (Table 4 uses {10, 20}).
    pub alpha: f64,
    /// Dirichlet prior on topic–word distributions (Table 4: {0.1, 0.5}).
    pub eta: f64,
    /// nCRP concentration (Table 4: {0.5, 1.0}).
    pub gamma: f64,
    /// Gibbs sweeps over the training corpus.
    pub iterations: usize,
    /// Path/level sweeps per inferred document.
    pub infer_iterations: usize,
    /// Sampler seed.
    pub seed: u64,
}

impl HldaConfig {
    /// The paper's fixed-depth configuration.
    pub fn paper(alpha: f64, eta: f64, gamma: f64, iterations: usize, seed: u64) -> Self {
        HldaConfig { levels: 3, alpha, eta, gamma, iterations, infer_iterations: 10, seed }
    }
}

/// A tree node: one topic.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Node {
    parent: usize,
    children: Vec<usize>,
    level: usize,
    /// Word counts of tokens assigned to this node.
    counts: HashMap<TermId, u32>,
    /// Total tokens at this node.
    total: u32,
    /// Documents whose path passes through this node.
    docs: u32,
    alive: bool,
}

impl Node {
    fn new(parent: usize, level: usize) -> Self {
        Node {
            parent,
            children: Vec::new(),
            level,
            counts: HashMap::new(),
            total: 0,
            docs: 0,
            alive: true,
        }
    }
}

/// A trained HLDA model: the frozen topic tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HldaModel {
    nodes: Vec<Node>,
    /// Live node ids in stable order; distributions index into this list.
    live: Vec<usize>,
    levels: usize,
    alpha: f64,
    eta: f64,
    gamma: f64,
    vocab_size: usize,
    infer_iterations: usize,
    theta_train: Vec<Vec<f32>>,
}

/// Mutable training state.
struct Sampler<'a> {
    cfg: &'a HldaConfig,
    corpus: &'a TopicCorpus,
    nodes: Vec<Node>,
    root: usize,
    /// Per-document path (node id per level).
    paths: Vec<Vec<usize>>,
    /// Per-token level assignments.
    levels_z: Vec<Vec<usize>>,
    rng: StdRng,
}

impl<'a> Sampler<'a> {
    fn new(cfg: &'a HldaConfig, corpus: &'a TopicCorpus) -> Self {
        let mut nodes = vec![Node::new(usize::MAX, 0)];
        let root = 0;
        // Initial shared path root → c1 → … → c_{L-1}.
        let mut prev = root;
        for l in 1..cfg.levels {
            let id = nodes.len();
            nodes.push(Node::new(prev, l));
            nodes[prev].children.push(id);
            prev = id;
        }
        let rng = StdRng::seed_from_u64(cfg.seed);
        let shared_path: Vec<usize> = {
            let mut p = vec![root];
            let mut cur = root;
            for _ in 1..cfg.levels {
                cur = nodes[cur].children[0];
                p.push(cur);
            }
            p
        };
        let mut s = Sampler {
            cfg,
            corpus,
            nodes,
            root,
            paths: vec![shared_path; corpus.len()],
            levels_z: Vec::with_capacity(corpus.len()),
            rng,
        };
        for d in 0..corpus.len() {
            let z: Vec<usize> =
                corpus.docs[d].iter().map(|_| s.rng.gen_range(0..cfg.levels)).collect();
            s.levels_z.push(z);
            s.attach(d);
        }
        s
    }

    /// Add document `d`'s counts and path membership to the tree.
    fn attach(&mut self, d: usize) {
        let path = self.paths[d].clone();
        for &n in &path {
            self.nodes[n].docs += 1;
        }
        for (i, &w) in self.corpus.docs[d].iter().enumerate() {
            let node = path[self.levels_z[d][i]];
            *self.nodes[node].counts.entry(w).or_insert(0) += 1;
            self.nodes[node].total += 1;
        }
    }

    /// Remove document `d` from the tree, pruning emptied branches.
    fn detach(&mut self, d: usize) {
        let path = self.paths[d].clone();
        for (i, &w) in self.corpus.docs[d].iter().enumerate() {
            let node = path[self.levels_z[d][i]];
            // pmr-lint: allow(lib-unwrap): attach/detach are strictly paired; a missing count means corrupted sampler state, which must crash rather than silently skew the posterior
            let c = self.nodes[node].counts.get_mut(&w).expect("count was added at attach");
            *c -= 1;
            if *c == 0 {
                self.nodes[node].counts.remove(&w);
            }
            self.nodes[node].total -= 1;
        }
        for &n in path.iter().rev() {
            self.nodes[n].docs -= 1;
            if self.nodes[n].docs == 0 && n != self.root {
                // Prune: unlink from parent.
                let p = self.nodes[n].parent;
                self.nodes[p].children.retain(|&c| c != n);
                self.nodes[n].alive = false;
            }
        }
    }

    /// Enumerate candidate paths from `node` down to depth `levels`.
    /// `usize::MAX` marks "new node here and below".
    fn candidate_paths(
        &self,
        node: usize,
        prefix: &mut Vec<usize>,
        out: &mut Vec<(Vec<usize>, f64)>,
        log_prior: f64,
    ) {
        if prefix.len() == self.cfg.levels {
            out.push((prefix.clone(), log_prior));
            return;
        }
        let denom = (self.nodes[node].docs as f64 + self.cfg.gamma).ln();
        for &c in &self.nodes[node].children {
            let lp = (self.nodes[c].docs as f64).ln() - denom;
            prefix.push(c);
            self.candidate_paths(c, prefix, out, log_prior + lp);
            prefix.pop();
        }
        // New branch: everything below is new too (prior mass of the whole
        // new subtree is just the first γ step — deeper new nodes are
        // certain).
        let lp = self.cfg.gamma.ln() - denom;
        let remaining = self.cfg.levels - prefix.len();
        let mut p = prefix.clone();
        p.extend(std::iter::repeat_n(usize::MAX, remaining));
        out.push((p, log_prior + lp));
    }

    /// Document `d`'s words at each level, as term-sorted `(word, count)`
    /// pairs plus the level's token count `n_dl`.
    fn level_words(&self, d: usize) -> Vec<(Vec<(TermId, u32)>, u32)> {
        (0..self.cfg.levels)
            .map(|l| {
                let words: Vec<TermId> = self.corpus.docs[d]
                    .iter()
                    .zip(&self.levels_z[d])
                    .filter(|&(_, &z)| z == l)
                    .map(|(&w, _)| w)
                    .collect();
                let n_dl = words.len() as u32;
                (term_counts(words), n_dl)
            })
            .collect()
    }

    /// Dirichlet-multinomial log likelihood of one level's words (from
    /// [`Sampler::level_words`]) under `node` (or an empty new node for
    /// `usize::MAX`). The sum runs in term order, so it does not depend
    /// on any hash seed.
    fn level_likelihood(&self, words: &[(TermId, u32)], n_dl: u32, node: usize) -> f64 {
        if n_dl == 0 {
            return 0.0;
        }
        let v = self.corpus.vocab_size() as f64;
        let eta = self.cfg.eta;
        let (node_total, node_count): (u32, Option<&HashMap<TermId, u32>>) = if node == usize::MAX {
            (0, None)
        } else {
            (self.nodes[node].total, Some(&self.nodes[node].counts))
        };
        let mut ll = ln_gamma(node_total as f64 + v * eta)
            - ln_gamma(node_total as f64 + n_dl as f64 + v * eta);
        for &(w, c) in words {
            let base = node_count.and_then(|m| m.get(&w)).copied().unwrap_or(0) as f64;
            ll += ln_gamma(base + c as f64 + eta) - ln_gamma(base + eta);
        }
        ll
    }

    /// One full Gibbs sweep: path then levels, per document.
    fn sweep(&mut self) {
        for d in 0..self.corpus.len() {
            self.resample_path(d);
            self.resample_levels(d);
        }
    }

    fn resample_path(&mut self, d: usize) {
        self.detach(d);
        let mut cands = Vec::new();
        self.candidate_paths(self.root, &mut vec![self.root], &mut cands, 0.0);
        // The document's level words do not depend on the candidate: build
        // them once. Candidates share nodes, so each node's (and each
        // level's new node's) likelihood is computed once too.
        let level_words = self.level_words(d);
        let mut node_ll: Vec<Option<f64>> = vec![None; self.nodes.len()];
        let mut new_ll: Vec<Option<f64>> = vec![None; self.cfg.levels];
        let scores: Vec<f64> = cands
            .iter()
            .map(|(path, log_prior)| {
                let mut s = *log_prior;
                for (l, &node) in path.iter().enumerate().skip(1) {
                    let memo = if node == usize::MAX { &mut new_ll[l] } else { &mut node_ll[node] };
                    s += *memo.get_or_insert_with(|| {
                        let (words, n_dl) = &level_words[l];
                        self.level_likelihood(words, *n_dl, node)
                    });
                }
                // Level-0 words always live at the shared root; their
                // likelihood is path-independent and cancels.
                s
            })
            .collect();
        let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let weights: Vec<f64> = scores.iter().map(|&s| (s - max).exp()).collect();
        let choice = sample_discrete(&mut self.rng, &weights);
        let mut new_path = cands[choice].0.clone();
        // Materialize new nodes.
        for l in 1..self.cfg.levels {
            if new_path[l] == usize::MAX {
                let parent = new_path[l - 1];
                let id = self.nodes.len();
                self.nodes.push(Node::new(parent, l));
                self.nodes[parent].children.push(id);
                new_path[l] = id;
            }
        }
        self.paths[d] = new_path;
        self.attach(d);
    }

    fn resample_levels(&mut self, d: usize) {
        let path = self.paths[d].clone();
        let v = self.corpus.vocab_size() as f64;
        let eta = self.cfg.eta;
        // Per-level token counts of this document.
        let mut n_dl = vec![0u32; self.cfg.levels];
        for &z in &self.levels_z[d] {
            n_dl[z] += 1;
        }
        let doc = self.corpus.docs[d].clone();
        for (i, &w) in doc.iter().enumerate() {
            let old = self.levels_z[d][i];
            // Remove token.
            n_dl[old] -= 1;
            let node = path[old];
            // pmr-lint: allow(lib-unwrap): the token was counted when its level was assigned; absence means corrupted sampler state, which must crash loudly
            let c = self.nodes[node].counts.get_mut(&w).expect("token present");
            *c -= 1;
            if *c == 0 {
                self.nodes[node].counts.remove(&w);
            }
            self.nodes[node].total -= 1;
            // Sample level.
            let weights: Vec<f64> = (0..self.cfg.levels)
                .map(|l| {
                    let n = path[l];
                    (n_dl[l] as f64 + self.cfg.alpha)
                        * (self.nodes[n].counts.get(&w).copied().unwrap_or(0) as f64 + eta)
                        / (self.nodes[n].total as f64 + v * eta)
                })
                .collect();
            let new = sample_discrete(&mut self.rng, &weights);
            self.levels_z[d][i] = new;
            n_dl[new] += 1;
            let node = path[new];
            *self.nodes[node].counts.entry(w).or_insert(0) += 1;
            self.nodes[node].total += 1;
        }
    }
}

impl HldaModel {
    /// Train with nCRP path + level Gibbs sampling.
    pub fn train(cfg: &HldaConfig, corpus: &TopicCorpus) -> Self {
        assert!(cfg.levels >= 2, "a hierarchy needs at least two levels");
        let mut s = Sampler::new(cfg, corpus);
        for _ in 0..cfg.iterations {
            let _iter = pmr_obs::timer("gibbs_iter.hlda");
            s.sweep();
        }
        let live: Vec<usize> =
            (0..s.nodes.len()).filter(|&n| s.nodes[n].alive && s.nodes[n].docs > 0).collect();
        let index_of: HashMap<usize, usize> =
            live.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        // Training θ over live nodes: per-document level counts mapped to
        // the document's path.
        let theta_train: Vec<Vec<f32>> = (0..corpus.len())
            .map(|d| {
                let mut th = vec![0.0f32; live.len()];
                let denom = corpus.docs[d].len() as f64 + cfg.levels as f64 * cfg.alpha;
                let mut n_dl = vec![0u32; cfg.levels];
                for &z in &s.levels_z[d] {
                    n_dl[z] += 1;
                }
                for (l, &node) in s.paths[d].iter().enumerate() {
                    if let Some(&i) = index_of.get(&node) {
                        th[i] = ((n_dl[l] as f64 + cfg.alpha) / denom) as f32;
                    }
                }
                normalize(&mut th);
                th
            })
            .collect();
        HldaModel {
            nodes: s.nodes,
            live,
            levels: cfg.levels,
            alpha: cfg.alpha,
            eta: cfg.eta,
            gamma: cfg.gamma,
            vocab_size: corpus.vocab_size(),
            infer_iterations: cfg.infer_iterations,
            theta_train,
        }
    }

    /// Number of live topics (tree nodes) discovered.
    pub fn num_nodes(&self) -> usize {
        self.live.len()
    }

    /// Depth of the trained tree.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The topic distribution of training document `d`.
    pub fn theta_train(&self, d: usize) -> &[f32] {
        &self.theta_train[d]
    }

    /// Live root-to-leaf paths of the frozen tree.
    fn frozen_paths(&self) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut stack = vec![vec![0usize]];
        while let Some(p) = stack.pop() {
            // pmr-lint: allow(lib-unwrap): the stack is seeded with vec![0] and only ever grows paths by one node
            let last = *p.last().expect("paths are never empty");
            if p.len() == self.levels {
                out.push(p);
                continue;
            }
            let kids: Vec<usize> = self.nodes[last]
                .children
                .iter()
                .copied()
                .filter(|&c| self.nodes[c].alive && self.nodes[c].docs > 0)
                .collect();
            if kids.is_empty() {
                // Dead-end (shouldn't happen on live trees): pad with last.
                let mut q = p.clone();
                while q.len() < self.levels {
                    q.push(last);
                }
                out.push(q);
                continue;
            }
            for c in kids {
                let mut q = p.clone();
                q.push(c);
                stack.push(q);
            }
        }
        out
    }
}

impl TopicModel for HldaModel {
    fn num_topics(&self) -> usize {
        self.live.len()
    }

    /// Inference against the frozen tree: pick the MAP path among live
    /// paths, Gibbs-resample levels along it, and read θ off the path's
    /// nodes.
    fn infer(&self, doc: &[TermId], rng: &mut StdRng) -> Vec<f32> {
        let k = self.live.len();
        if doc.is_empty() || k == 0 {
            return uniform(k);
        }
        let paths = self.frozen_paths();
        let v = self.vocab_size as f64;
        // Initial levels: uniform random.
        let mut z: Vec<usize> = doc.iter().map(|_| rng.gen_range(0..self.levels)).collect();
        let mut best_path = paths[0].clone();
        for _ in 0..self.infer_iterations.max(1) {
            // Path by prior × likelihood with the frozen counts.
            let scores: Vec<f64> = paths
                .iter()
                .map(|p| {
                    let mut s = 0.0;
                    for (l, &node_id) in p.iter().enumerate().skip(1) {
                        let node = &self.nodes[node_id];
                        s += (node.docs as f64 + self.gamma).ln();
                        for (i, &w) in doc.iter().enumerate() {
                            if z[i] == l {
                                s += ((node.counts.get(&w).copied().unwrap_or(0) as f64
                                    + self.eta)
                                    / (node.total as f64 + v * self.eta))
                                    .ln();
                            }
                        }
                    }
                    s
                })
                .collect();
            let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let weights: Vec<f64> = scores.iter().map(|&s| (s - max).exp()).collect();
            best_path = paths[sample_discrete(rng, &weights)].clone();
            // Levels along the chosen path.
            let mut n_dl = vec![0u32; self.levels];
            for &l in &z {
                n_dl[l] += 1;
            }
            for (i, &w) in doc.iter().enumerate() {
                n_dl[z[i]] -= 1;
                let weights: Vec<f64> = (0..self.levels)
                    .map(|l| {
                        let node = &self.nodes[best_path[l]];
                        (n_dl[l] as f64 + self.alpha)
                            * (node.counts.get(&w).copied().unwrap_or(0) as f64 + self.eta)
                            / (node.total as f64 + v * self.eta)
                    })
                    .collect();
                z[i] = sample_discrete(rng, &weights);
                n_dl[z[i]] += 1;
            }
        }
        let index_of: HashMap<usize, usize> =
            self.live.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let mut th = vec![0.0f32; k];
        let denom = doc.len() as f64 + self.levels as f64 * self.alpha;
        let mut n_dl = vec![0u32; self.levels];
        for &l in &z {
            n_dl[l] += 1;
        }
        for (l, &node) in best_path.iter().enumerate() {
            if let Some(&i) = index_of.get(&node) {
                th[i] += ((n_dl[l] as f64 + self.alpha) / denom) as f32;
            }
        }
        normalize(&mut th);
        th
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cluster_corpus() -> TopicCorpus {
        let mut docs = Vec::new();
        for i in 0..24 {
            if i % 2 == 0 {
                docs.push(vec!["the", "cat", "dog", "pet", "cat", "dog"]);
            } else {
                docs.push(vec!["the", "rust", "code", "bug", "rust", "code"]);
            }
        }
        TopicCorpus::from_token_docs(docs)
    }

    fn paper_cfg(iterations: usize, seed: u64) -> HldaConfig {
        HldaConfig::paper(10.0, 0.1, 0.5, iterations, seed)
    }

    #[test]
    fn grows_a_tree_with_multiple_paths() {
        let corpus = two_cluster_corpus();
        let model = HldaModel::train(&paper_cfg(60, 3), &corpus);
        assert!(model.num_nodes() >= 3, "tree too small: {} nodes", model.num_nodes());
        assert!(model.frozen_paths().len() >= 2, "expected at least two leaf paths");
    }

    #[test]
    fn clusters_separate_into_different_paths() {
        let corpus = two_cluster_corpus();
        let model = HldaModel::train(&paper_cfg(60, 3), &corpus);
        let mut rng = StdRng::seed_from_u64(8);
        let pets = model.infer(&corpus.encode(&["cat", "dog", "pet", "cat"]), &mut rng);
        let code = model.infer(&corpus.encode(&["rust", "code", "bug", "rust"]), &mut rng);
        // The distributions should disagree on at least the leaf topic.
        let cos: f32 = {
            let dot: f32 = pets.iter().zip(&code).map(|(a, b)| a * b).sum();
            let na: f32 = pets.iter().map(|a| a * a).sum::<f32>().sqrt();
            let nb: f32 = code.iter().map(|a| a * a).sum::<f32>().sqrt();
            dot / (na * nb).max(1e-9)
        };
        assert!(cos < 0.9, "cluster distributions too similar: cos={cos}");
    }

    #[test]
    fn distributions_are_normalized_over_nodes() {
        let corpus = two_cluster_corpus();
        let model = HldaModel::train(&paper_cfg(30, 5), &corpus);
        let mut rng = StdRng::seed_from_u64(8);
        let th = model.infer(&corpus.docs[0], &mut rng);
        assert_eq!(th.len(), model.num_topics());
        assert!((th.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        let train = model.theta_train(0);
        assert!((train.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn empty_doc_is_uniform() {
        let corpus = two_cluster_corpus();
        let model = HldaModel::train(&paper_cfg(20, 5), &corpus);
        let mut rng = StdRng::seed_from_u64(8);
        let th = model.infer(&[], &mut rng);
        assert!((th.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn tree_respects_depth() {
        let corpus = two_cluster_corpus();
        let model = HldaModel::train(&paper_cfg(30, 7), &corpus);
        for p in model.frozen_paths() {
            assert_eq!(p.len(), 3);
        }
    }

    #[test]
    fn training_is_deterministic() {
        let corpus = two_cluster_corpus();
        let a = HldaModel::train(&paper_cfg(20, 9), &corpus);
        let b = HldaModel::train(&paper_cfg(20, 9), &corpus);
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.theta_train(0), b.theta_train(0));
    }
}
