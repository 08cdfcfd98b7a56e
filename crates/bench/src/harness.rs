//! Shared harness plumbing: CLI options, the sweep cache, table rendering.

use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use pmr_core::eval::MapSummary;
use pmr_core::executor::{self, Progress};
use pmr_core::experiment::{ConfigResult, ExperimentRunner, RunnerOptions, SweepResult};
use pmr_core::recommender::ScoringOptions;
use pmr_core::split::SplitConfig;
use pmr_core::{
    ConfigGrid, ModelFamily, PmrError, PmrResult, PreparedCorpus, RepresentationSource,
};
use pmr_sim::usertype::UserGroup;
use pmr_sim::{generate_corpus, ScalePreset, SimConfig, UserId};

/// Corpus/experiment scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Tiny corpus, heavily scaled-down sampler iterations (~minutes).
    Smoke,
    /// The documented default (EXPERIMENTS.md records this scale).
    Default,
    /// Approaches the paper's magnitudes. Hours to days.
    Full,
}

impl Scale {
    /// Parse from a CLI string.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "smoke" => Some(Scale::Smoke),
            "default" => Some(Scale::Default),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Lower-case name (cache-file key).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Default => "default",
            Scale::Full => "full",
        }
    }

    /// The simulator preset for this scale.
    pub fn preset(self) -> ScalePreset {
        match self {
            Scale::Smoke => ScalePreset::Smoke,
            Scale::Default => ScalePreset::Default,
            Scale::Full => ScalePreset::Full,
        }
    }

    /// The default Gibbs/EM iteration multiplier (relative to the paper's
    /// 1,000–2,000 sweeps) — the corpus is a simulator, not a 32-core Xeon
    /// running for 5 days, so the harness trades sampler convergence for
    /// tractability while keeping every configuration distinct.
    pub fn iteration_scale(self) -> f64 {
        match self {
            Scale::Smoke => 0.015,
            Scale::Default => 0.03,
            Scale::Full => 1.0,
        }
    }
}

/// Parsed harness options (shared by every experiment binary).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HarnessOptions {
    /// Corpus scale.
    pub scale: Scale,
    /// Corpus seed.
    pub seed: u64,
    /// Gibbs/EM iteration multiplier (defaults per scale).
    pub iteration_scale: f64,
    /// Restrict the sweep to these families (empty = all nine).
    pub families: Vec<ModelFamily>,
    /// Restrict the sweep to these sources (empty = all thirteen).
    pub sources: Vec<RepresentationSource>,
    /// Output/cache directory.
    pub out_dir: PathBuf,
    /// User group filter for figure binaries.
    pub group: Option<UserGroup>,
    /// Sweep worker threads (defaults to the available parallelism).
    pub jobs: usize,
    /// JSONL event journal path (`--journal`); `None` disables journaling.
    pub journal: Option<PathBuf>,
    /// Metrics summary path (`--metrics-out`); `None` disables the summary.
    pub metrics_out: Option<PathBuf>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            scale: Scale::Smoke,
            seed: 42,
            iteration_scale: Scale::Smoke.iteration_scale(),
            families: Vec::new(),
            sources: Vec::new(),
            out_dir: PathBuf::from("results"),
            group: None,
            jobs: executor::default_jobs(),
            journal: None,
            metrics_out: None,
        }
    }
}

impl HarnessOptions {
    /// Parse `--flag value` style arguments; unknown flags abort with usage.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> HarnessOptions {
        let mut opts = HarnessOptions::default();
        let mut explicit_iter_scale = false;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> String {
                it.next().unwrap_or_else(|| usage(&format!("{name} needs a value")))
            };
            match flag.as_str() {
                "--scale" => {
                    let v = value("--scale");
                    opts.scale =
                        Scale::parse(&v).unwrap_or_else(|| usage(&format!("bad scale {v}")));
                }
                "--seed" => {
                    opts.seed = value("--seed").parse().unwrap_or_else(|_| usage("bad seed"));
                }
                "--iter-scale" => {
                    opts.iteration_scale =
                        value("--iter-scale").parse().unwrap_or_else(|_| usage("bad iter-scale"));
                    explicit_iter_scale = true;
                }
                "--families" => {
                    opts.families = value("--families")
                        .split(',')
                        .map(|f| {
                            parse_family(f).unwrap_or_else(|| usage(&format!("bad family {f}")))
                        })
                        .collect();
                }
                "--sources" => {
                    let v = value("--sources");
                    opts.sources = match v.as_str() {
                        "all" => RepresentationSource::ALL.to_vec(),
                        "figures" => RepresentationSource::FIGURES.to_vec(),
                        list => list
                            .split(',')
                            .map(|s| {
                                parse_source(s).unwrap_or_else(|| usage(&format!("bad source {s}")))
                            })
                            .collect(),
                    };
                }
                "--out" => opts.out_dir = PathBuf::from(value("--out")),
                "--group" => {
                    let v = value("--group");
                    opts.group = Some(match v.as_str() {
                        "all" => UserGroup::All,
                        "is" => UserGroup::IS,
                        "bu" => UserGroup::BU,
                        "ip" => UserGroup::IP,
                        _ => usage(&format!("bad group {v}")),
                    });
                }
                "--jobs" => {
                    opts.jobs = value("--jobs")
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n >= 1)
                        .unwrap_or_else(|| usage("bad jobs (want an integer >= 1)"));
                }
                "--journal" => opts.journal = Some(PathBuf::from(value("--journal"))),
                "--metrics-out" => {
                    opts.metrics_out = Some(PathBuf::from(value("--metrics-out")));
                }
                "--help" | "-h" => usage("help requested"),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        if !explicit_iter_scale {
            opts.iteration_scale = opts.scale.iteration_scale();
        }
        opts
    }

    /// Parse from the process arguments.
    pub fn from_env() -> HarnessOptions {
        HarnessOptions::parse(std::env::args().skip(1))
    }

    /// The simulator configuration for these options.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig::preset(self.scale.preset(), self.seed)
    }

    /// The scoring/runner options for these options.
    pub fn runner_options(&self) -> RunnerOptions {
        RunnerOptions {
            scoring: ScoringOptions {
                iteration_scale: self.iteration_scale,
                infer_iterations: 8,
                seed: self.seed,
            },
            ran_iterations: 1_000,
        }
    }

    /// The sweep's cache path for these options.
    pub fn sweep_path(&self) -> PathBuf {
        self.out_dir.join(format!("sweep_{}_{}.json", self.scale.name(), self.seed))
    }

    /// The family filter in canonical form: sorted, deduplicated names.
    /// Empty means the full grid.
    pub fn family_filter_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.families.iter().map(|f| f.name().to_owned()).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// The effective source list (an empty filter means all thirteen), in
    /// sweep order. Order matters: it determines the canonical ordering of
    /// the sweep's measurements.
    pub fn effective_sources(&self) -> Vec<RepresentationSource> {
        if self.sources.is_empty() {
            RepresentationSource::ALL.to_vec()
        } else {
            self.sources.clone()
        }
    }

    /// Names of [`Self::effective_sources`].
    pub fn effective_source_names(&self) -> Vec<String> {
        self.effective_sources().iter().map(|s| s.name().to_owned()).collect()
    }

    /// Generate and prepare the corpus. Fails only when the generated
    /// corpus violates a structural invariant — a simulator bug, not a
    /// configuration problem.
    pub fn prepare_corpus(&self) -> PmrResult<PreparedCorpus> {
        let _span = pmr_obs::span("corpus_prep");
        let corpus = generate_corpus(&self.sim_config());
        PreparedCorpus::new(corpus, SplitConfig::default())
    }

    /// Install the global observability recorder when `--journal` or
    /// `--metrics-out` asks for it. With neither flag this is a no-op: no
    /// recorder is installed, every instrumentation site stays a single
    /// atomic load, and the sweep's output is byte-identical to an
    /// uninstrumented build. Returns whether a recorder was installed.
    pub fn install_observability(&self) -> bool {
        if self.journal.is_none() && self.metrics_out.is_none() {
            return false;
        }
        let mut recorder = pmr_obs::Recorder::monotonic();
        if let Some(path) = &self.journal {
            match pmr_obs::Journal::create(path) {
                Ok(journal) => {
                    eprintln!("journaling events to {}", path.display());
                    recorder = recorder.with_journal(journal);
                }
                Err(e) => eprintln!("could not create journal {}: {e}", path.display()),
            }
        }
        pmr_obs::install(recorder);
        true
    }

    /// Write the `--metrics-out` summary (if requested) and tear the
    /// recorder down, flushing the journal. Safe to call without a prior
    /// [`Self::install_observability`].
    pub fn finish_observability(&self) {
        if let Some(path) = &self.metrics_out {
            if let Some(snapshot) = pmr_obs::snapshot() {
                match serde_json::to_string_pretty(&snapshot) {
                    Ok(json) => {
                        if let Some(dir) = path.parent() {
                            if !dir.as_os_str().is_empty() {
                                let _ = std::fs::create_dir_all(dir);
                            }
                        }
                        match std::fs::write(path, json) {
                            Ok(()) => eprintln!("wrote metrics summary to {}", path.display()),
                            Err(e) => {
                                eprintln!("could not write metrics {}: {e}", path.display());
                            }
                        }
                    }
                    Err(e) => eprintln!("could not serialize metrics: {e}"),
                }
            }
        }
        pmr_obs::uninstall();
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: <bin> [--scale smoke|default|full] [--seed N] [--iter-scale F]\n\
         \x20      [--families TN,CN,...] [--sources all|figures|R,T,...]\n\
         \x20      [--out DIR] [--group all|is|bu|ip] [--jobs N]\n\
         \x20      [--journal PATH] [--metrics-out PATH]\n\
         \n\
         --jobs N fans the sweep across N worker threads (default: all\n\
         cores); results are identical for every N.\n\
         --journal PATH writes a JSONL event journal (diagnostic only;\n\
         excluded from determinism comparisons). --metrics-out PATH writes\n\
         a metrics summary (counters, gauges, duration histograms)."
    );
    std::process::exit(2);
}

fn parse_family(s: &str) -> Option<ModelFamily> {
    match s.to_ascii_uppercase().as_str() {
        "TN" => Some(ModelFamily::TN),
        "CN" => Some(ModelFamily::CN),
        "TNG" => Some(ModelFamily::TNG),
        "CNG" => Some(ModelFamily::CNG),
        "LDA" => Some(ModelFamily::LDA),
        "LLDA" => Some(ModelFamily::LLDA),
        "BTM" => Some(ModelFamily::BTM),
        "HDP" => Some(ModelFamily::HDP),
        "HLDA" => Some(ModelFamily::HLDA),
        "PLSA" => Some(ModelFamily::PLSA),
        _ => None,
    }
}

fn parse_source(s: &str) -> Option<RepresentationSource> {
    RepresentationSource::ALL.into_iter().find(|src| src.name().eq_ignore_ascii_case(s))
}

/// A persisted sweep: measurements over All Users plus the group membership
/// and baselines needed to derive every figure and table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepCache {
    /// Scale name the sweep ran at.
    pub scale: String,
    /// Corpus seed.
    pub seed: u64,
    /// Iteration multiplier used.
    pub iteration_scale: f64,
    /// Family filter the sweep ran with, as sorted names (empty = full
    /// grid). Caches produced under a filter must not masquerade as full
    /// sweeps, so this is validated on load.
    pub families: Vec<String>,
    /// The effective representation sources, in sweep order.
    pub sources: Vec<String>,
    /// Group name → member user ids (only users with a valid split).
    pub groups: BTreeMap<String, Vec<u32>>,
    /// Group name → (CHR MAP, RAN MAP).
    pub baselines: BTreeMap<String, (f64, f64)>,
    /// The raw measurements (group field is always All Users).
    pub sweep: SweepResult,
}

impl SweepCache {
    /// Load the cached sweep for `opts`, or run it (and cache it). A cache
    /// produced under different options (scale, seed, iteration scale, or
    /// family/source filters) is never reused — it is re-run with a stderr
    /// note instead, so a filtered smoke sweep can't silently stand in for
    /// the full grid.
    pub fn load_or_run(opts: &HarnessOptions) -> PmrResult<SweepCache> {
        let path = opts.sweep_path();
        if let Some(cache) = Self::load_if_valid(opts) {
            return Ok(cache);
        }
        let cache = Self::run(opts)?;
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let bytes = serde_json::to_vec(&cache)
            .map_err(|e| PmrError::Serialize { detail: e.to_string() })?;
        match std::fs::write(&path, bytes) {
            Ok(()) => {
                eprintln!("cached sweep at {}", path.display());
                pmr_obs::counter_add("sweep_cache.stored", 1);
                pmr_obs::event("cache", "stored", &[("path", path.display().to_string().into())]);
            }
            Err(e) => eprintln!("could not cache sweep: {e}"),
        }
        Ok(cache)
    }

    /// Load the cached sweep for `opts` if it exists, parses, and was
    /// produced under the same options; otherwise explain on stderr and
    /// return `None`. Pre-metadata caches (without the `families`/`sources`
    /// fields) fail to parse and are discarded.
    pub fn load_if_valid(opts: &HarnessOptions) -> Option<SweepCache> {
        let path = opts.sweep_path();
        let shown = path.display().to_string();
        let Ok(bytes) = std::fs::read(&path) else {
            pmr_obs::counter_add("sweep_cache.miss", 1);
            pmr_obs::event("cache", "miss", &[("path", shown.as_str().into())]);
            return None;
        };
        match serde_json::from_slice::<SweepCache>(&bytes) {
            Ok(cache) => match cache.matches(opts) {
                Ok(()) => {
                    eprintln!("loaded cached sweep from {shown}");
                    pmr_obs::counter_add("sweep_cache.hit", 1);
                    pmr_obs::event("cache", "hit", &[("path", shown.as_str().into())]);
                    Some(cache)
                }
                Err(why) => {
                    eprintln!(
                        "cached sweep {shown} was produced under different options \
                         ({why}); re-running"
                    );
                    pmr_obs::counter_add("sweep_cache.invalidated", 1);
                    pmr_obs::event(
                        "cache",
                        "invalidated",
                        &[("path", shown.as_str().into()), ("why", why.as_str().into())],
                    );
                    None
                }
            },
            Err(e) => {
                eprintln!("ignoring unreadable cache {shown}: {e}");
                pmr_obs::counter_add("sweep_cache.unreadable", 1);
                pmr_obs::event(
                    "cache",
                    "unreadable",
                    &[("path", shown.as_str().into()), ("error", e.to_string().into())],
                );
                None
            }
        }
    }

    /// Check that this cache was produced under `opts`; the error names the
    /// first mismatching option.
    pub fn matches(&self, opts: &HarnessOptions) -> Result<(), String> {
        if self.scale != opts.scale.name() {
            return Err(format!("scale {} vs requested {}", self.scale, opts.scale.name()));
        }
        if self.seed != opts.seed {
            return Err(format!("seed {} vs requested {}", self.seed, opts.seed));
        }
        if self.iteration_scale != opts.iteration_scale {
            return Err(format!(
                "iter-scale {} vs requested {}",
                self.iteration_scale, opts.iteration_scale
            ));
        }
        let families = opts.family_filter_names();
        if self.families != families {
            return Err(format!(
                "family filter [{}] vs requested [{}] (empty = full grid)",
                self.families.join(","),
                families.join(",")
            ));
        }
        let sources = opts.effective_source_names();
        if self.sources != sources {
            return Err(format!(
                "sources [{}] vs requested [{}]",
                self.sources.join(","),
                sources.join(",")
            ));
        }
        Ok(())
    }

    /// Run the sweep for `opts` without touching the cache, fanning the
    /// runs across `opts.jobs` worker threads through
    /// [`ExperimentRunner::sweep_with_progress`]: one task per model
    /// identity, results back in canonical (source, config-index) order, so
    /// the resulting cache JSON is identical for every `--jobs` value
    /// (wall-clock timing fields aside).
    pub fn run(opts: &HarnessOptions) -> PmrResult<SweepCache> {
        let prepared = opts.prepare_corpus()?;
        let runner = ExperimentRunner::new(&prepared);
        let runner_opts = opts.runner_options();
        let grid = ConfigGrid::from_configs(
            ConfigGrid::paper()
                .configs()
                .iter()
                .filter(|c| opts.families.is_empty() || opts.families.contains(&c.family()))
                .cloned()
                .collect(),
        );
        let sources = opts.effective_sources();
        let total: usize = sources.iter().map(|&s| grid.valid_for(s).len()).sum();
        eprintln!(
            "sweep: {} configs × {} sources = {total} runs at scale {} \
             (iter-scale {}, jobs {})",
            grid.len(),
            sources.len(),
            opts.scale.name(),
            opts.iteration_scale,
            opts.jobs.clamp(1, total.max(1))
        );
        let progress = Progress::new(total, 25);
        let sweep = runner.sweep_with_progress(
            &grid,
            &sources,
            UserGroup::All,
            &runner_opts,
            opts.jobs,
            &progress,
        );
        progress.finish();
        let mut groups = BTreeMap::new();
        let mut baselines = BTreeMap::new();
        for group in UserGroup::ALL {
            let users: Vec<u32> = runner.group_users(group).into_iter().map(|u| u.0).collect();
            let chr = runner.chronological_map(group);
            let ran = runner.random_map(group, &runner_opts);
            groups.insert(group.name().to_owned(), users);
            baselines.insert(group.name().to_owned(), (chr, ran));
        }
        Ok(SweepCache {
            scale: opts.scale.name().to_owned(),
            seed: opts.seed,
            iteration_scale: opts.iteration_scale,
            families: opts.family_filter_names(),
            sources: opts.effective_source_names(),
            groups,
            baselines,
            sweep,
        })
    }

    /// Members of a group.
    pub fn group_members(&self, group: UserGroup) -> Vec<UserId> {
        self.groups
            .get(group.name())
            .map(|ids| ids.iter().map(|&i| UserId(i)).collect())
            .unwrap_or_default()
    }

    /// Members of a group as a set, for repeated per-result filtering.
    /// Build this once per aggregation instead of per `(result, group)`
    /// pair — the old per-call `Vec` + linear `contains` made every summary
    /// quadratic in the user count.
    pub fn group_member_set(&self, group: UserGroup) -> HashSet<UserId> {
        self.groups
            .get(group.name())
            .map(|ids| ids.iter().map(|&i| UserId(i)).collect())
            .unwrap_or_default()
    }

    /// MAP of one measurement restricted to a precomputed member set.
    pub fn group_map_in(result: &ConfigResult, members: &HashSet<UserId>) -> f64 {
        let aps: Vec<f64> = result
            .per_user_ap
            .iter()
            .filter(|(u, _)| members.contains(u))
            .map(|&(_, ap)| ap)
            .collect();
        if aps.is_empty() {
            0.0
        } else {
            aps.iter().sum::<f64>() / aps.len() as f64
        }
    }

    /// MAP of one measurement restricted to a group.
    pub fn group_map(&self, result: &ConfigResult, group: UserGroup) -> f64 {
        Self::group_map_in(result, &self.group_member_set(group))
    }

    /// Min/mean/max MAP of `(family, source)` over its configurations for a
    /// group — one bar triple of Figures 3–6.
    pub fn summary(
        &self,
        family: ModelFamily,
        source: RepresentationSource,
        group: UserGroup,
    ) -> MapSummary {
        let members = self.group_member_set(group);
        let maps: Vec<f64> = self
            .sweep
            .results
            .iter()
            .filter(|r| r.family == family && r.source == source)
            .map(|r| Self::group_map_in(r, &members))
            .collect();
        MapSummary::from_maps(&maps)
    }

    /// Min/mean/max MAP of a source over every configuration — one Table 6
    /// cell triple.
    pub fn source_summary(&self, source: RepresentationSource, group: UserGroup) -> MapSummary {
        let members = self.group_member_set(group);
        let maps: Vec<f64> = self
            .sweep
            .results
            .iter()
            .filter(|r| r.source == source)
            .map(|r| Self::group_map_in(r, &members))
            .collect();
        MapSummary::from_maps(&maps)
    }

    /// The best configuration of `(family, source)` averaged over all user
    /// types — one Table 7 cell.
    pub fn best_config(
        &self,
        family: ModelFamily,
        source: RepresentationSource,
    ) -> Option<&ConfigResult> {
        let members = self.group_member_set(UserGroup::All);
        self.sweep.results.iter().filter(|r| r.family == family && r.source == source).max_by(
            |a, b| {
                let ma = Self::group_map_in(a, &members);
                let mb = Self::group_map_in(b, &members);
                ma.total_cmp(&mb)
            },
        )
    }

    /// The (CHR, RAN) baselines of a group.
    pub fn baselines(&self, group: UserGroup) -> (f64, f64) {
        self.baselines.get(group.name()).copied().unwrap_or((0.0, 0.0))
    }
}

/// Right-pad to a column width.
pub fn pad(s: &str, w: usize) -> String {
    format!("{s:<w$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags() {
        let opts = HarnessOptions::parse(
            ["--scale", "default", "--seed", "7", "--sources", "R,T", "--families", "TN"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(opts.scale, Scale::Default);
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.sources, vec![RepresentationSource::R, RepresentationSource::T]);
        assert_eq!(opts.families, vec![ModelFamily::TN]);
        assert_eq!(opts.iteration_scale, Scale::Default.iteration_scale());
    }

    #[test]
    fn parses_jobs_flag() {
        let opts = HarnessOptions::parse(["--jobs", "3"].iter().map(|s| s.to_string()));
        assert_eq!(opts.jobs, 3);
        let opts = HarnessOptions::parse(std::iter::empty());
        assert!(opts.jobs >= 1, "default jobs comes from available parallelism");
    }

    #[test]
    fn iter_scale_override_sticks() {
        let opts = HarnessOptions::parse(
            ["--iter-scale", "0.5", "--scale", "smoke"].iter().map(|s| s.to_string()),
        );
        assert_eq!(opts.iteration_scale, 0.5);
    }

    #[test]
    fn source_keywords_expand() {
        let opts = HarnessOptions::parse(["--sources", "figures"].iter().map(|s| s.to_string()));
        assert_eq!(opts.sources.len(), 8);
        let opts = HarnessOptions::parse(["--sources", "all"].iter().map(|s| s.to_string()));
        assert_eq!(opts.sources.len(), 13);
    }

    /// A 9-run TNG × R smoke sweep: small enough for unit tests.
    fn tiny_opts() -> HarnessOptions {
        HarnessOptions {
            families: vec![ModelFamily::TNG],
            sources: vec![RepresentationSource::R],
            iteration_scale: 0.01,
            ..HarnessOptions::default()
        }
    }

    /// Serialize a sweep with the wall-clock timing fields zeroed, so two
    /// runs can be compared byte-for-byte.
    fn json_sans_timings(sweep: &SweepResult) -> String {
        let mut sweep = sweep.clone();
        for r in &mut sweep.results {
            r.train_time = std::time::Duration::ZERO;
            r.test_time = std::time::Duration::ZERO;
        }
        serde_json::to_string(&sweep).unwrap()
    }

    #[test]
    fn tiny_sweep_roundtrips_through_cache_format() {
        let opts = tiny_opts();
        let cache = SweepCache::run(&opts).expect("tiny sweep runs");
        assert_eq!(cache.sweep.results.len(), 9, "TNG spans 3 n-sizes × 3 similarities");
        let summary = cache.summary(ModelFamily::TNG, RepresentationSource::R, UserGroup::All);
        assert!(summary.max > 0.0);
        assert_eq!(cache.families, vec!["TNG".to_owned()]);
        assert_eq!(cache.sources, vec!["R".to_owned()]);
        let json = serde_json::to_string(&cache).unwrap();
        let back: SweepCache = serde_json::from_str(&json).unwrap();
        assert_eq!(back.sweep.results.len(), 9);
        assert!(back.matches(&opts).is_ok());
    }

    #[test]
    fn sweep_json_is_identical_for_any_job_count() {
        let sequential = SweepCache::run(&HarnessOptions { jobs: 1, ..tiny_opts() }).expect("runs");
        let parallel = SweepCache::run(&HarnessOptions { jobs: 4, ..tiny_opts() }).expect("runs");
        assert_eq!(
            json_sans_timings(&sequential.sweep),
            json_sans_timings(&parallel.sweep),
            "jobs=1 and jobs=4 must produce byte-identical measurements"
        );
        assert_eq!(sequential.baselines, parallel.baselines);
        assert_eq!(sequential.groups, parallel.groups);
    }

    #[test]
    fn filtered_cache_is_rejected_for_full_grid() {
        let dir = std::env::temp_dir().join(format!("pmr_cache_validation_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let filtered = HarnessOptions { out_dir: dir.clone(), ..tiny_opts() };
        let cache = SweepCache::run(&filtered).expect("tiny sweep runs");
        std::fs::write(filtered.sweep_path(), serde_json::to_vec(&cache).unwrap()).unwrap();
        // The full grid at the same scale/seed maps to the same cache path,
        // but must not reuse the filtered measurements.
        let full = HarnessOptions { out_dir: dir.clone(), ..HarnessOptions::default() };
        assert_eq!(filtered.sweep_path(), full.sweep_path());
        assert!(full.families.is_empty() && full.sources.is_empty());
        assert!(cache.matches(&full).is_err());
        assert!(SweepCache::load_if_valid(&full).is_none());
        // The options that produced the cache still load it.
        assert!(SweepCache::load_if_valid(&filtered).is_some());
        // Different iteration scale: rejected.
        let coarser = HarnessOptions { iteration_scale: 0.5, ..filtered.clone() };
        assert!(SweepCache::load_if_valid(&coarser).is_none());
        // A cache that still records a top-level `retrieval` mode (written
        // before the sweep had a single scoring path) loads: unknown
        // fields are ignored.
        let json = serde_json::to_string(&cache).unwrap();
        let with_mode = json.replacen('{', "{\"retrieval\":\"exhaustive\",", 1);
        std::fs::write(filtered.sweep_path(), with_mode).unwrap();
        assert!(SweepCache::load_if_valid(&filtered).is_some());
        // A pre-metadata cache (no `families` field) fails to parse and is
        // discarded rather than trusted.
        let legacy = json.replacen("\"families\":", "\"families_legacy\":", 1);
        assert_ne!(json, legacy, "cache JSON must carry the families field");
        std::fs::write(filtered.sweep_path(), legacy).unwrap();
        assert!(SweepCache::load_if_valid(&filtered).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
