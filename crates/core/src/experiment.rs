//! The experiment runner: sweeps configurations × sources × user groups and
//! aggregates everything the paper's figures and tables report.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use pmr_sim::usertype::{partition_users, Partition, UserGroup};
use pmr_sim::UserId;

use crate::baseline::{chronological_ap, random_ap};
use crate::config::{ConfigGrid, ModelConfiguration, ModelFamily, ModelIdentity};
use crate::eval::{mean_average_precision, MapSummary};
use crate::executor::Progress;
use crate::prepare::PreparedCorpus;
use crate::recommender::{score_variants, ScoringOptions};
use crate::source::RepresentationSource;
use crate::timing::TimeStats;

/// Options for a sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunnerOptions {
    /// Scoring knobs (iteration scaling, seeds).
    pub scoring: ScoringOptions,
    /// Random-baseline orderings per user (the paper uses 1,000).
    pub ran_iterations: usize,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        RunnerOptions { scoring: ScoringOptions::default(), ran_iterations: 1_000 }
    }
}

/// One `(configuration, source, group)` measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConfigResult {
    /// The configuration (full parameters).
    pub config: ModelConfiguration,
    /// Its family.
    pub family: ModelFamily,
    /// The representation source.
    pub source: RepresentationSource,
    /// The user group.
    pub group: UserGroup,
    /// Mean Average Precision over the group.
    pub map: f64,
    /// Per-user APs (ordered by user id).
    pub per_user_ap: Vec<(UserId, f64)>,
    /// Aggregate model-building time.
    pub train_time: Duration,
    /// Aggregate scoring time.
    pub test_time: Duration,
}

/// All measurements of a sweep.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SweepResult {
    /// Individual measurements.
    pub results: Vec<ConfigResult>,
}

impl SweepResult {
    /// The measurements of `(family, source, group)`.
    pub fn select(
        &self,
        family: ModelFamily,
        source: RepresentationSource,
        group: UserGroup,
    ) -> Vec<&ConfigResult> {
        self.results
            .iter()
            .filter(|r| r.family == family && r.source == source && r.group == group)
            .collect()
    }

    /// Min/mean/max MAP of a family on a source over its configurations —
    /// one bar triple of Figures 3–6.
    pub fn map_summary(
        &self,
        family: ModelFamily,
        source: RepresentationSource,
        group: UserGroup,
    ) -> MapSummary {
        let maps: Vec<f64> = self.select(family, source, group).iter().map(|r| r.map).collect();
        MapSummary::from_maps(&maps)
    }

    /// Min/mean/max MAP of a *source* over every configuration of every
    /// family — one cell triple of Table 6.
    pub fn source_summary(&self, source: RepresentationSource, group: UserGroup) -> MapSummary {
        let maps: Vec<f64> = self
            .results
            .iter()
            .filter(|r| r.source == source && r.group == group)
            .map(|r| r.map)
            .collect();
        MapSummary::from_maps(&maps)
    }

    /// The best configuration of a family on a source (averaged across the
    /// requested group) — one cell of Table 7.
    pub fn best_config(
        &self,
        family: ModelFamily,
        source: RepresentationSource,
        group: UserGroup,
    ) -> Option<&ConfigResult> {
        self.select(family, source, group).into_iter().max_by(|a, b| a.map.total_cmp(&b.map))
    }

    /// TTime statistics of a family across all its measurements (Fig. 7i).
    pub fn train_time_stats(&self, family: ModelFamily) -> TimeStats {
        let ds: Vec<Duration> =
            self.results.iter().filter(|r| r.family == family).map(|r| r.train_time).collect();
        TimeStats::from_durations(&ds)
    }

    /// ETime statistics of a family across all its measurements (Fig. 7ii).
    pub fn test_time_stats(&self, family: ModelFamily) -> TimeStats {
        let ds: Vec<Duration> =
            self.results.iter().filter(|r| r.family == family).map(|r| r.test_time).collect();
        TimeStats::from_durations(&ds)
    }

    /// Merge another sweep's measurements into this one.
    pub fn merge(&mut self, other: SweepResult) {
        self.results.extend(other.results);
    }
}

/// Drives sweeps over a prepared corpus.
#[derive(Debug)]
pub struct ExperimentRunner<'a> {
    prepared: &'a PreparedCorpus,
    partition: Partition,
}

impl<'a> ExperimentRunner<'a> {
    /// Partition the corpus's users and set up the runner.
    pub fn new(prepared: &'a PreparedCorpus) -> Self {
        let partition = partition_users(&prepared.corpus);
        ExperimentRunner { prepared, partition }
    }

    /// The measured user partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The prepared corpus.
    pub fn prepared(&self) -> &PreparedCorpus {
        self.prepared
    }

    /// The members of a group that have a valid train/test split.
    pub fn group_users(&self, group: UserGroup) -> Vec<UserId> {
        self.partition
            .members(group)
            .into_iter()
            .filter(|&u| self.prepared.split.user(u).is_some())
            .collect()
    }

    /// Score one `(configuration, source)` pair on a group: the one-variant
    /// case of [`run_identity`](Self::run_identity).
    pub fn run(
        &self,
        config: &ModelConfiguration,
        source: RepresentationSource,
        group: UserGroup,
        opts: &RunnerOptions,
    ) -> ConfigResult {
        let mut results = self.run_identity(&[config], source, group, opts);
        // pmr-lint: allow(lib-unwrap): run_identity returns one result per variant
        results.pop().expect("one variant, one result")
    }

    /// Score every variant of one model identity on a source and group,
    /// training the shared model once (see [`score_variants`]). Results
    /// come back in the order of `variants`.
    pub fn run_identity(
        &self,
        variants: &[&ModelConfiguration],
        source: RepresentationSource,
        group: UserGroup,
        opts: &RunnerOptions,
    ) -> Vec<ConfigResult> {
        let users = self.group_users(group);
        let outcomes = score_variants(self.prepared, variants, source, &users, &opts.scoring);
        variants
            .iter()
            .zip(outcomes)
            .map(|(&config, outcome)| {
                let aps: Vec<f64> = outcome.per_user.iter().map(|r| r.ap).collect();
                // Per-phase observability: fold each run's measured
                // train/test time into per-family histograms and journal
                // the run (no-ops unless a recorder is installed).
                let family = config.family();
                let train_us = u64::try_from(outcome.train_time.as_micros()).unwrap_or(u64::MAX);
                let test_us = u64::try_from(outcome.test_time.as_micros()).unwrap_or(u64::MAX);
                pmr_obs::observe_duration(
                    &format!("run.train.{}", family.name()),
                    outcome.train_time,
                );
                pmr_obs::observe_duration(
                    &format!("run.test.{}", family.name()),
                    outcome.test_time,
                );
                pmr_obs::event(
                    "run",
                    "run_complete",
                    &[
                        ("family", family.name().into()),
                        ("source", source.name().into()),
                        ("group", group.name().into()),
                        ("users", users.len().into()),
                        ("train_us", train_us.into()),
                        ("test_us", test_us.into()),
                    ],
                );
                ConfigResult {
                    config: config.clone(),
                    family,
                    source,
                    group,
                    map: mean_average_precision(&aps),
                    per_user_ap: outcome.per_user.iter().map(|r| (r.user, r.ap)).collect(),
                    train_time: outcome.train_time,
                    test_time: outcome.test_time,
                }
            })
            .collect()
    }

    /// Sweep a grid over sources for one group, fanning the runs across the
    /// machine's available parallelism. Equivalent to
    /// [`sweep_jobs`](Self::sweep_jobs) with the default worker count.
    pub fn sweep(
        &self,
        grid: &ConfigGrid,
        sources: &[RepresentationSource],
        group: UserGroup,
        opts: &RunnerOptions,
    ) -> SweepResult {
        self.sweep_jobs(grid, sources, group, opts, crate::executor::default_jobs())
    }

    /// Sweep a grid over sources for one group on a pool of `jobs` worker
    /// threads. Results are returned in canonical (source, config-index)
    /// order — the same order the sequential nested loop would produce — so
    /// the `SweepResult` is identical regardless of `jobs` or scheduling
    /// (up to the wall-clock `train_time`/`test_time` fields).
    ///
    /// The runs are grouped by `(source, model identity)`: each executor
    /// task trains one model and scores all its variants
    /// ([`run_identity`](Self::run_identity)).
    pub fn sweep_jobs(
        &self,
        grid: &ConfigGrid,
        sources: &[RepresentationSource],
        group: UserGroup,
        opts: &RunnerOptions,
        jobs: usize,
    ) -> SweepResult {
        self.sweep_grouped(grid, sources, group, opts, jobs, None)
    }

    /// [`sweep_jobs`](Self::sweep_jobs), ticking `progress` once per
    /// finished run.
    pub fn sweep_with_progress(
        &self,
        grid: &ConfigGrid,
        sources: &[RepresentationSource],
        group: UserGroup,
        opts: &RunnerOptions,
        jobs: usize,
        progress: &Progress,
    ) -> SweepResult {
        self.sweep_grouped(grid, sources, group, opts, jobs, Some(progress))
    }

    fn sweep_grouped(
        &self,
        grid: &ConfigGrid,
        sources: &[RepresentationSource],
        group: UserGroup,
        opts: &RunnerOptions,
        jobs: usize,
        progress: Option<&Progress>,
    ) -> SweepResult {
        let tasks: Vec<(RepresentationSource, &ModelConfiguration)> = sources
            .iter()
            .flat_map(|&source| {
                grid.valid_for(source).into_iter().map(move |config| (source, config))
            })
            .collect();
        // Group the runs by what they train, in first-occurrence order;
        // `members[g]` holds the canonical indices of identity g's runs.
        let mut identities: Vec<(RepresentationSource, ModelIdentity)> = Vec::new();
        let mut members: Vec<Vec<usize>> = Vec::new();
        for (i, &(source, config)) in tasks.iter().enumerate() {
            let key = (source, config.identity());
            match identities.iter().position(|k| *k == key) {
                Some(g) => members[g].push(i),
                None => {
                    identities.push(key);
                    members.push(vec![i]);
                }
            }
        }
        let _span = pmr_obs::span("sweep");
        pmr_obs::counter_add("sweep.runs", tasks.len() as u64);
        pmr_obs::counter_add("sweep.models_trained", members.len() as u64);
        // Build every shared gram table up front so the first worker of
        // each (kind, n) does not pay the build while its peers wait.
        self.prepared.prewarm_features(tasks.iter().map(|&(_, config)| config));
        let jobs = jobs.clamp(1, members.len().max(1));
        let _inner = crate::executor::inner_threads_for_jobs(jobs);
        let groups: Vec<&[usize]> = members.iter().map(Vec::as_slice).collect();
        let scored = crate::executor::run_tasks(groups, jobs, |_, indices| {
            let source = tasks[indices[0]].0;
            let variants: Vec<&ModelConfiguration> = indices.iter().map(|&i| tasks[i].1).collect();
            let results = self.run_identity(&variants, source, group, opts);
            if let Some(progress) = progress {
                for _ in &results {
                    progress.tick();
                }
            }
            results
        });
        // Scatter each identity's results back to their canonical slots.
        let mut slots: Vec<Option<ConfigResult>> = (0..tasks.len()).map(|_| None).collect();
        for (indices, results) in members.iter().zip(scored) {
            for (&i, result) in indices.iter().zip(results) {
                slots[i] = Some(result);
            }
        }
        let results: Vec<ConfigResult> = slots.into_iter().flatten().collect();
        debug_assert_eq!(results.len(), tasks.len(), "every run produces exactly one result");
        SweepResult { results }
    }

    /// The chronological baseline's MAP for a group.
    pub fn chronological_map(&self, group: UserGroup) -> f64 {
        let aps: Vec<f64> = self
            .group_users(group)
            .into_iter()
            .filter_map(|u| self.prepared.split.user(u))
            .map(|s| chronological_ap(&self.prepared.corpus, s))
            .collect();
        mean_average_precision(&aps)
    }

    /// The random baseline's MAP for a group.
    pub fn random_map(&self, group: UserGroup, opts: &RunnerOptions) -> f64 {
        let aps: Vec<f64> = self
            .group_users(group)
            .into_iter()
            .filter_map(|u| self.prepared.split.user(u))
            .map(|s| random_ap(s, opts.ran_iterations, opts.scoring.seed))
            .collect();
        mean_average_precision(&aps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::SplitConfig;
    use pmr_bag::{BagSimilarity, WeightingScheme};
    use pmr_graph::GraphSimilarity;
    use pmr_sim::{generate_corpus, ScalePreset, SimConfig};
    use pmr_topics::PoolingScheme;

    fn prepared() -> PreparedCorpus {
        let corpus = generate_corpus(&SimConfig::preset(ScalePreset::Smoke, 99));
        PreparedCorpus::new(corpus, SplitConfig::default()).expect("smoke corpus is well-formed")
    }

    fn quick_opts() -> RunnerOptions {
        RunnerOptions {
            scoring: ScoringOptions { iteration_scale: 0.01, infer_iterations: 5, seed: 13 },
            ran_iterations: 100,
        }
    }

    fn tn_config() -> ModelConfiguration {
        ModelConfiguration::Bag {
            char_grams: false,
            n: 1,
            weighting: WeightingScheme::TFIDF,
            aggregation: crate::config::AggKind::Centroid,
            similarity: BagSimilarity::Cosine,
        }
    }

    #[test]
    fn tn_beats_the_random_baseline_on_retweets() {
        let p = prepared();
        let runner = ExperimentRunner::new(&p);
        let opts = quick_opts();
        let result = runner.run(&tn_config(), RepresentationSource::R, UserGroup::All, &opts);
        let ran = runner.random_map(UserGroup::All, &opts);
        assert!(
            result.map > ran + 0.1,
            "content-based TN must clearly beat random: {} vs {}",
            result.map,
            ran
        );
    }

    #[test]
    fn tng_beats_the_random_baseline_on_retweets() {
        let p = prepared();
        let runner = ExperimentRunner::new(&p);
        let opts = quick_opts();
        // n = 1: bigram-edge graphs, the graph configuration the synthetic
        // corpus supplies order information for (see tests/paper_shapes.rs).
        let cfg = ModelConfiguration::Graph {
            char_grams: false,
            n: 1,
            similarity: GraphSimilarity::Value,
        };
        let result = runner.run(&cfg, RepresentationSource::R, UserGroup::All, &opts);
        let ran = runner.random_map(UserGroup::All, &opts);
        assert!(result.map > ran + 0.1, "TNG vs random: {} vs {}", result.map, ran);
    }

    #[test]
    fn lda_scores_run_and_bound() {
        let p = prepared();
        let runner = ExperimentRunner::new(&p);
        let opts = quick_opts();
        let cfg = ModelConfiguration::Lda {
            topics: 20,
            iterations: 1_000,
            pooling: PoolingScheme::UP,
            aggregation: crate::config::AggKind::Centroid,
        };
        let result = runner.run(&cfg, RepresentationSource::R, UserGroup::All, &opts);
        assert!((0.0..=1.0).contains(&result.map));
        assert!(!result.per_user_ap.is_empty());
    }

    #[test]
    fn chronological_baseline_is_weak() {
        let p = prepared();
        let runner = ExperimentRunner::new(&p);
        let opts = quick_opts();
        let chr = runner.chronological_map(UserGroup::All);
        let ran = runner.random_map(UserGroup::All, &opts);
        // The paper finds CHR below RAN; our simulator assigns retweet
        // decisions content-wise, so recency carries no signal either.
        assert!((0.0..=1.0).contains(&chr));
        assert!(chr < ran + 0.15, "CHR should not dominate RAN: {chr} vs {ran}");
    }

    #[test]
    fn sweep_covers_grid_times_sources() {
        let p = prepared();
        let runner = ExperimentRunner::new(&p);
        let opts = quick_opts();
        // A miniature grid: both graph families, one config each.
        let mut grid = ConfigGrid::default();
        grid_push(
            &mut grid,
            ModelConfiguration::Graph {
                char_grams: false,
                n: 2,
                similarity: GraphSimilarity::Value,
            },
        );
        grid_push(&mut grid, tn_config());
        let sources = [RepresentationSource::R, RepresentationSource::T];
        let sweep = runner.sweep(&grid, &sources, UserGroup::IP, &opts);
        assert_eq!(sweep.results.len(), 4);
        let summary = sweep.map_summary(ModelFamily::TNG, RepresentationSource::R, UserGroup::IP);
        assert!(summary.max >= summary.min);
        assert!(sweep
            .best_config(ModelFamily::TN, RepresentationSource::R, UserGroup::IP)
            .is_some());
        assert!(sweep.train_time_stats(ModelFamily::TN).max > Duration::ZERO);
    }

    /// Test-only helper to assemble ad-hoc grids.
    fn grid_push(grid: &mut ConfigGrid, config: ModelConfiguration) {
        // ConfigGrid is intentionally append-only through its constructors;
        // tests use a serde round-trip-free backdoor via merge on sweeps
        // instead. For grid assembly we just rebuild from parts.
        let mut configs: Vec<ModelConfiguration> = grid.configs().to_vec();
        configs.push(config);
        *grid = ConfigGrid::from_configs(configs);
    }
}
