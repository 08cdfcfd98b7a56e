//! The repository benchmark: one named workload per process, timed from
//! outside through the public entry points of `pmr-core` and `pmr-serve`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_topic --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads: `sweep_topic` and `sweep_gram` (slices of the paper sweep
//! through `ExperimentRunner::sweep_jobs`), `serve_poisson` and
//! `serve_reads` (open-loop traffic through `pmr_serve::Engine`). `--seed`
//! is the workload seed: it draws the serving workloads' Poisson arrival
//! times; the sweeps have no random input besides the corpus. The corpus
//! seed is `--corpus-seed`, 42 by default, the seed the recorded oracles
//! under `perfbench/oracle/` belong to.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics, read from pmr-obs
//! counters and timers and from the benchmark's own timers around public
//! calls. Every output is checked against the oracle; a mismatch or an
//! unanswered query is a counted failure.
//!
//! `perfbench record --workload <name> [--corpus-seed N]` rewrites that
//! workload's oracle: from the committed `results/sweep_smoke_<N>.json`
//! for the sweeps, from a `Replay`-checked engine run for serving.

#![forbid(unsafe_code)]

mod serve;
mod sweep;

use std::process::exit;

use perfbench::{result_line, Metric, Oracle, Verdict};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub corpus_seed: u64,
    /// Sweep jobs and engine workers: the available parallelism.
    pub jobs: usize,
}

/// What a workload run reports.
pub struct Outcome {
    pub correct: bool,
    pub verdict: Verdict,
    pub metrics: Vec<Metric>,
}

/// `(name, unit)` of every end-to-end metric, in output order. Every
/// workload reports all of them:
///
/// - `setup_s`: corpus generation, `PreparedCorpus::new` and the feature
///   build (`prewarm_features`, or the gram table and
///   `precompute_features`); the median of [`SETUP_REPS`] set-ups.
/// - `pass_s`: one unpaced pass over the workload's whole input, median
///   over passes: the `sweep_jobs` call, or every operation offered at
///   once until `Engine::finish` returns (operations / `pass_s` is the
///   engine's capacity).
/// - `peak_rss_mb`: see [`peak_rss_mb`].
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MiB")];

pub const WORKLOADS: [&str; 4] = ["sweep_topic", "sweep_gram", "serve_poisson", "serve_reads"];

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--corpus-seed N]\n       perfbench record --workload <name> \
         [--corpus-seed N]",
        WORKLOADS.join("|")
    );
    exit(2);
}

fn parse_args(mut raw: Vec<String>) -> (bool, Args) {
    let record = raw.first().is_some_and(|a| a == "record");
    if record {
        raw.remove(0);
    }
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        corpus_seed: 42,
        jobs: pmr_core::executor::default_jobs(),
    };
    let mut it = raw.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = |what: &str| -> ! { usage(&format!("{flag} wants {what}, got {value:?}")) };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad("an integer")),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| bad("a positive number"))
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad("0 or 1"),
                }
            }
            "--corpus-seed" => {
                args.corpus_seed = value.parse().unwrap_or_else(|_| bad("an integer"))
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    (record, args)
}

/// The oracle file of a workload at a corpus seed.
pub fn oracle_path(workload: &str, corpus_seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("oracle")
        .join(format!("{workload}_{corpus_seed}.tsv"))
}

/// Load a workload's recorded oracle; without one nothing can be checked,
/// so the run stops before measuring anything.
pub fn load_oracle(workload: &str, corpus_seed: u64) -> Oracle {
    let path = oracle_path(workload, corpus_seed);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!(
            "perfbench: no oracle for {workload} at corpus seed {corpus_seed} ({}: {e}); \
             record one with `perfbench record`",
            path.display()
        );
        exit(2);
    });
    let oracle = Oracle::parse(&text).unwrap_or_else(|e| {
        eprintln!("perfbench: {}: {e}", path.display());
        exit(2);
    });
    if oracle.is_empty() {
        eprintln!("perfbench: {} is empty", path.display());
        exit(2);
    }
    oracle
}

/// Write a workload's oracle.
pub fn store_oracle(workload: &str, corpus_seed: u64, oracle: &Oracle) {
    let path = oracle_path(workload, corpus_seed);
    std::fs::write(&path, oracle.render()).expect("the oracle directory is writable");
    eprintln!("wrote {} ({} entries)", path.display(), oracle.len());
}

/// The process's resident-set high-water mark so far, in MiB. Valid as a
/// workload's figure because every run is a process of its own. Runs read
/// it after set-up and one full pass: repeating the pass adds only heap
/// fragmentation, and how often it repeats depends on the host's speed.
pub fn peak_rss_mb() -> f64 {
    let bytes = pmr_obs::peak_rss_bytes().unwrap_or_else(|| {
        eprintln!("perfbench: peak RSS is not readable on this platform");
        exit(2);
    });
    bytes as f64 / (1024.0 * 1024.0)
}

/// The end-to-end metrics from their values, in [`END_TO_END`] order.
pub fn end_to_end(setup_s: f64, pass_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let values = [setup_s, pass_s, peak_rss_mb];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name: name.into(), value, unit })
        .collect()
}

/// The per-layer metrics every traced run reports, in output order. A
/// workload that does not exercise a layer reports it as zero.
pub mod layers {
    use std::collections::BTreeMap;

    use perfbench::Metric;

    const TOPIC_FAMILIES: [&str; 5] = ["LDA", "LLDA", "BTM", "HDP", "HLDA"];

    /// `(name, unit)` of every per-layer metric.
    pub fn all() -> Vec<(String, &'static str)> {
        let mut out: Vec<(String, &'static str)> = Vec::new();
        let mut add = |name: &str, unit: &'static str| out.push((name.to_owned(), unit));
        add("sim.generate_s", "s");
        add("core.prepare_s", "s");
        add("core.features_s", "s");
        add("core.busy_share", "ratio");
        add("core.accounted_share", "ratio");
        add("core.runs", "count");
        for kind in ["train_s", "test_s"] {
            for family in TOPIC_FAMILIES {
                add(&format!("topics.{kind}.{family}"), "s");
            }
        }
        for family in TOPIC_FAMILIES {
            add(&format!("topics.gibbs_sweeps.{family}"), "count");
        }
        for (layer, families) in [("graph", ["TNG", "CNG"]), ("bag", ["TN", "CN"])] {
            for kind in ["train_s", "test_s"] {
                for family in families {
                    add(&format!("{layer}.{kind}.{family}"), "s");
                }
            }
        }
        add("serve.featurize_s", "s");
        add("serve.query_p50_ms", "ms");
        add("serve.query_p90_ms", "ms");
        add("serve.query_p99_ms", "ms");
        add("serve.ingest_p99_ms", "ms");
        add("serve.post_us.p50", "us");
        add("serve.post_us.p99", "us");
        add("serve.query_call_us.p99", "us");
        add("serve.poll_us.p99", "us");
        add("serve.finish_s", "s");
        add("serve.late_ms.p99", "ms");
        add("serve.backpressure", "count");
        add("serve.runtime.steals", "count");
        add("serve.runtime.parks", "count");
        add("serve.runtime.yields", "count");
        add("serve.window_evictions", "count");
        add("retrieval.candidates", "count");
        add("retrieval.rescored", "count");
        add("retrieval.rescored_share", "ratio");
        add("obs.overhead_share", "ratio");
        out
    }

    /// Every per-layer metric at zero.
    pub fn zeroed() -> BTreeMap<String, f64> {
        all().into_iter().map(|(name, _)| (name, 0.0)).collect()
    }

    /// Turn measured values into metrics in output order. Every value must
    /// name a listed metric.
    pub fn metrics(values: BTreeMap<String, f64>) -> Vec<Metric> {
        let all = all();
        for name in values.keys() {
            assert!(all.iter().any(|(n, _)| n == name), "unlisted per-layer metric {name}");
        }
        all.into_iter()
            .map(|(name, unit)| {
                let value = values.get(&name).copied().unwrap_or(0.0);
                Metric { name, value, unit }
            })
            .collect()
    }
}

fn main() {
    let (record, args) = parse_args(std::env::args().skip(1).collect());
    if record {
        match args.workload.as_str() {
            "sweep_topic" => sweep::record(&sweep::SWEEP_TOPIC, &args),
            "sweep_gram" => sweep::record(&sweep::SWEEP_GRAM, &args),
            "serve_poisson" => serve::record(&serve::SERVE_POISSON, &args),
            _ => serve::record(&serve::SERVE_READS, &args),
        }
        return;
    }
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} corpus seed {} jobs {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.corpus_seed,
        args.jobs
    );
    let outcome = match args.workload.as_str() {
        "sweep_topic" => sweep::run(&sweep::SWEEP_TOPIC, &args),
        "sweep_gram" => sweep::run(&sweep::SWEEP_GRAM, &args),
        "serve_poisson" => serve::run(&serve::SERVE_POISSON, &args),
        _ => serve::run(&serve::SERVE_READS, &args),
    };
    for m in &outcome.metrics {
        eprintln!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(outcome.correct, outcome.verdict, &outcome.metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics the runs print.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let listed = |section: &str| -> Vec<(String, String)> {
            let json: serde_json::Value = serde_json::from_str(text).expect("valid JSON");
            let serde_json::Value::Object(top) = json else { panic!("an object") };
            let (_, serde_json::Value::Array(items)) =
                top.iter().find(|(k, _)| k == section).expect("section present")
            else {
                panic!("{section} is a list")
            };
            items
                .iter()
                .map(|item| {
                    let serde_json::Value::Object(fields) = item else { panic!("an object") };
                    let field = |key: &str| match fields.iter().find(|(k, _)| k == key) {
                        Some((_, serde_json::Value::String(s))) => s.clone(),
                        _ => panic!("{section} item without {key}"),
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let per_layer: Vec<(String, String)> =
            layers::all().into_iter().map(|(n, u)| (n, u.to_owned())).collect();
        assert_eq!(listed("per_layer"), per_layer);
        let end_to_end: Vec<(String, String)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect();
        assert_eq!(listed("end_to_end"), end_to_end);
        let workloads: Vec<String> = {
            let json: serde_json::Value = serde_json::from_str(text).expect("valid JSON");
            let serde_json::Value::Object(top) = json else { panic!("an object") };
            let Some((_, serde_json::Value::Array(items))) =
                top.into_iter().find(|(k, _)| k == "workloads")
            else {
                panic!("workloads is a list")
            };
            items
                .into_iter()
                .map(|item| {
                    let serde_json::Value::Object(fields) = item else { panic!("an object") };
                    match fields.into_iter().find(|(k, _)| k == "name") {
                        Some((_, serde_json::Value::String(s))) => s,
                        _ => panic!("workload without a name"),
                    }
                })
                .collect()
        };
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn flags_parse_and_default() {
        let raw = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let (record, a) =
            parse_args(raw("--workload serve_reads --seed 7 --seconds 2.5 --trace 1"));
        assert!(!record);
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_reads", 7, 2.5, true)
        );
        assert_eq!(a.corpus_seed, 42);
        let (record, a) = parse_args(raw("record --workload sweep_gram --corpus-seed 5"));
        assert!(record);
        assert_eq!((a.workload.as_str(), a.corpus_seed), ("sweep_gram", 5));
    }
}
