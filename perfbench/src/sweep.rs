//! The sweep workloads: one slice of the paper's configuration grid on one
//! representation source, run through `ExperimentRunner::sweep_jobs`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use pmr_bench::HarnessOptions;
use pmr_core::experiment::ConfigResult;
use pmr_core::{
    ConfigGrid, ExperimentRunner, ModelConfiguration, ModelFamily, PreparedCorpus,
    RepresentationSource, SplitConfig,
};
use pmr_sim::generate_corpus;
use pmr_sim::usertype::UserGroup;

use perfbench::{median, run_digest, Metric, Oracle, Verdict};

use crate::{layers, Args, Outcome, SETUP_REPS};

/// A slice of the paper grid on one source.
pub struct SweepSpec {
    /// Workload name (and oracle file stem).
    pub name: &'static str,
    pub source: RepresentationSource,
    /// The grid configurations in the slice.
    pub keep: fn(&ModelConfiguration) -> bool,
}

/// Topic models on source C. Every topic configuration is present as a
/// Centroid/Rocchio pair; the largest topic counts and iteration budgets
/// are left out so that one pass fits a few seconds on two cores.
pub const SWEEP_TOPIC: SweepSpec = SweepSpec {
    name: "sweep_topic",
    source: RepresentationSource::C,
    keep: |c| match *c {
        ModelConfiguration::Lda { topics, .. } | ModelConfiguration::Llda { topics, .. } => {
            topics == 50
        }
        ModelConfiguration::Btm { topics, .. } => topics == 50,
        ModelConfiguration::Hdp { .. } => true,
        ModelConfiguration::Hlda { alpha, beta, .. } => alpha == 10.0 && beta == 0.5,
        _ => false,
    },
};

/// Bag and graph models on source E: every TN, CN and TNG configuration,
/// and the CNG configurations for n = 2 (three similarities over one set
/// of merged graphs).
pub const SWEEP_GRAM: SweepSpec = SweepSpec {
    name: "sweep_gram",
    source: RepresentationSource::E,
    keep: |c| match *c {
        ModelConfiguration::Bag { .. } => true,
        ModelConfiguration::Graph { char_grams, n, .. } => !char_grams || n == 2,
        _ => false,
    },
};

/// The least share of the pool's busy time the runs' own train+test times
/// may account for before the trace counts as inconsistent.
const ACCOUNTED_MIN: f64 = 0.5;

/// The families a sweep can report, with the per-layer crate each one's
/// times are charged to.
const FAMILIES: [(ModelFamily, &str); 9] = [
    (ModelFamily::TN, "bag"),
    (ModelFamily::CN, "bag"),
    (ModelFamily::TNG, "graph"),
    (ModelFamily::CNG, "graph"),
    (ModelFamily::LDA, "topics"),
    (ModelFamily::LLDA, "topics"),
    (ModelFamily::BTM, "topics"),
    (ModelFamily::HDP, "topics"),
    (ModelFamily::HLDA, "topics"),
];

impl SweepSpec {
    /// The slice's configurations in grid order.
    pub fn configs(&self) -> Vec<ModelConfiguration> {
        ConfigGrid::paper()
            .configs()
            .iter()
            .filter(|c| (self.keep)(c) && c.valid_for_source(self.source))
            .cloned()
            .collect()
    }
}

/// The oracle key of one run.
pub fn run_key(source: RepresentationSource, config: &ModelConfiguration) -> String {
    let config = serde_json::to_string(config).expect("configurations serialize");
    format!("{} {config}", source.name())
}

fn result_digest(r: &ConfigResult) -> String {
    let aps: Vec<(u32, f64)> = r.per_user_ap.iter().map(|&(u, ap)| (u.0, ap)).collect();
    run_digest(r.map, &aps)
}

/// Check a pass's results against the oracle: one attempted run per
/// result, and every oracle entry must come back exactly once.
fn check(oracle: &Oracle, results: &[ConfigResult]) -> Verdict {
    let outputs: Vec<(String, String)> =
        results.iter().map(|r| (run_key(r.source, &r.config), result_digest(r))).collect();
    oracle.check_all(outputs.iter().map(|(k, d)| (k.as_str(), d.as_str())))
}

/// The set-up a sweep needs: the smoke corpus, prepared, with every gram
/// table of the slice built.
struct Setup {
    prepared: PreparedCorpus,
    /// generate, prepare, gram tables.
    times: [Duration; 3],
}

fn set_up(opts: &HarnessOptions, configs: &[ModelConfiguration]) -> Setup {
    let t0 = Instant::now();
    let corpus = generate_corpus(&opts.sim_config());
    let t1 = Instant::now();
    let prepared = PreparedCorpus::new(corpus, SplitConfig::default())
        .expect("the smoke corpus is well-formed");
    let t2 = Instant::now();
    prepared.prewarm_features(configs);
    let t3 = Instant::now();
    Setup { prepared, times: [t1 - t0, t2 - t1, t3 - t2] }
}

/// What one pass measured.
struct Pass {
    wall: Duration,
    results: Vec<ConfigResult>,
    /// Metrics recorded during the pass (traced passes only).
    obs: Option<pmr_obs::MetricsSnapshot>,
}

pub fn run(spec: &SweepSpec, args: &Args) -> Outcome {
    let opts = HarnessOptions::parse(
        ["--scale", "smoke", "--seed", &args.corpus_seed.to_string()].map(String::from),
    );
    let runner_opts = opts.runner_options();
    let configs = spec.configs();
    let oracle = crate::load_oracle(spec.name, args.corpus_seed);

    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous copy first so the peak RSS is that of one.
        drop(prepared.take());
        let s = set_up(&opts, &configs);
        setups.push(s.times);
        prepared = Some(s.prepared);
    }
    let prepared = prepared.expect("at least one set-up ran");
    let runner = ExperimentRunner::new(&prepared);

    let grid = ConfigGrid::from_configs(configs.clone());
    let mut verdict = Verdict::default();
    let mut sweep = |traced: bool| -> Pass {
        if traced {
            pmr_obs::install(pmr_obs::Recorder::monotonic());
        }
        let t0 = Instant::now();
        let results =
            runner.sweep_jobs(&grid, &[spec.source], UserGroup::All, &runner_opts, args.jobs);
        let wall = t0.elapsed();
        let obs = traced.then(|| {
            let snap = pmr_obs::snapshot().expect("a recorder is installed");
            pmr_obs::uninstall();
            snap
        });
        let v = check(&oracle, &results.results);
        if v.failed > 0 {
            eprintln!("{} of {} runs differ from the oracle", v.failed, v.attempted);
        }
        verdict.add(v);
        Pass { wall, results: results.results, obs }
    };
    // The first pass is a warm-up (cold caches, allocator growth): it is
    // checked but not timed.
    let warmup = sweep(false);
    let peak_rss_mb = crate::peak_rss_mb();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut passes: Vec<Pass> = Vec::new();
    // At least two passes, and in a traced run at least two of each kind.
    while passes.len() < 2 + 2 * usize::from(args.trace) || Instant::now() < deadline {
        passes.push(sweep(args.trace && passes.len() % 2 == 1));
    }
    let walls: Vec<String> =
        passes.iter().map(|p| format!("{:.3}", p.wall.as_secs_f64())).collect();
    eprintln!(
        "runs={} runs_failed={} jobs={} warm-up {:.3} s, pass walls [{}] s",
        verdict.attempted,
        verdict.failed,
        args.jobs,
        warmup.wall.as_secs_f64(),
        walls.join(", ")
    );

    let setup_s: Vec<f64> =
        setups.iter().map(|t| t.iter().sum::<Duration>().as_secs_f64()).collect();
    let mut accounted = true;
    let metrics = if args.trace {
        let metrics = traced_metrics(&passes, &setups, args.jobs);
        // The accounting check: the runs' own train+test times must add
        // back up to the pool's busy time, less the runner's bookkeeping.
        let share =
            metrics.iter().find(|m| m.name == "core.accounted_share").map_or(f64::NAN, |m| m.value);
        accounted = (ACCOUNTED_MIN..=1.0 + 1e-6).contains(&share);
        eprintln!(
            "accounting check: per-run task-seconds are {share:.4} of pool busy time ({})",
            if accounted { "ok" } else { "FAILED" }
        );
        metrics
    } else {
        let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
        crate::end_to_end(median(&setup_s), median(&walls), peak_rss_mb)
    };
    Outcome { verdict, metrics, correct: verdict.failed == 0 && accounted }
}

/// A pass's task-seconds: its runs' own train + test times, summed.
fn task_s(p: &Pass) -> f64 {
    p.results.iter().fold(0.0, |sum, r| sum + (r.train_time + r.test_time).as_secs_f64())
}

/// Per-layer metrics of a traced sweep run. Odd passes ran with the
/// recorder installed, even ones without; per-layer values are medians
/// over the traced passes.
fn traced_metrics(passes: &[Pass], setups: &[[Duration; 3]], jobs: usize) -> Vec<Metric> {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.obs.is_some()).collect();
    let untraced: Vec<f64> =
        passes.iter().filter(|p| p.obs.is_none()).map(|p| p.wall.as_secs_f64()).collect();
    let traced_wall: Vec<f64> = traced.iter().map(|p| p.wall.as_secs_f64()).collect();
    let per_traced = |f: &dyn Fn(&Pass) -> f64| -> f64 {
        median(&traced.iter().map(|p| f(p)).collect::<Vec<_>>())
    };
    // Pool busy time: the executor's own per-task timer, summed.
    let pool_busy_s = |p: &Pass| -> f64 {
        let obs = p.obs.as_ref().expect("traced pass");
        obs.histogram("executor.task").map_or(0.0, |h| h.total().as_secs_f64())
    };

    let mut values: BTreeMap<String, f64> = layers::zeroed();
    let setup = |i: usize| median(&setups.iter().map(|t| t[i].as_secs_f64()).collect::<Vec<_>>());
    values.insert("sim.generate_s".into(), setup(0));
    values.insert("core.prepare_s".into(), setup(1));
    values.insert("core.features_s".into(), setup(2));
    values.insert(
        "core.busy_share".into(),
        per_traced(&|p| task_s(p) / (jobs as f64 * p.wall.as_secs_f64())),
    );
    values.insert("core.accounted_share".into(), per_traced(&|p| task_s(p) / pool_busy_s(p)));
    values.insert("core.runs".into(), per_traced(&|p| p.results.len() as f64));
    for (family, layer) in FAMILIES {
        let of = |p: &Pass, pick: fn(&ConfigResult) -> Duration| -> f64 {
            p.results
                .iter()
                .filter(|r| r.family == family)
                .fold(0.0, |sum, r| sum + pick(r).as_secs_f64())
        };
        let name = family.name();
        values.insert(format!("{layer}.train_s.{name}"), per_traced(&|p| of(p, |r| r.train_time)));
        values.insert(format!("{layer}.test_s.{name}"), per_traced(&|p| of(p, |r| r.test_time)));
        if layer == "topics" {
            let timer = format!("gibbs_iter.{}", name.to_lowercase());
            values.insert(
                format!("topics.gibbs_sweeps.{name}"),
                per_traced(&|p| {
                    let obs = p.obs.as_ref().expect("traced pass");
                    obs.histogram(&timer).map_or(0.0, |h| h.count as f64)
                }),
            );
        }
    }
    values.insert("obs.overhead_share".into(), median(&traced_wall) / median(&untraced) - 1.0);
    layers::metrics(values)
}

/// Rewrite the slice's oracle from the committed sweep of the corpus seed:
/// one digest per `(source, configuration)` run of the slice.
pub fn record(spec: &SweepSpec, args: &Args) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("results")
        .join(format!("sweep_smoke_{}.json", args.corpus_seed));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let cache: pmr_bench::SweepCache = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
    let entries: Vec<(String, String)> = spec
        .configs()
        .iter()
        .map(|config| {
            let found = cache
                .sweep
                .results
                .iter()
                .find(|r| r.source == spec.source && &r.config == config)
                .unwrap_or_else(|| panic!("{} has no run {}", path.display(), config.describe()));
            (run_key(spec.source, config), result_digest(found))
        })
        .collect();
    let oracle = Oracle::from_entries(entries).expect("grid configurations are distinct");
    crate::store_oracle(spec.name, args.corpus_seed, &oracle);
}
