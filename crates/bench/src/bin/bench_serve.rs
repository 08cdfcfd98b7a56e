//! Replays a seeded simulated tweet stream through the `pmr-serve` engine
//! and reports serving throughput and query-latency percentiles.
//!
//! ```text
//! cargo run --release -p pmr-bench --bin bench_serve -- \
//!     --scale smoke --seed 42 --model bag --shards 4 --jobs 4 \
//!     --out results/BENCH_serve.json --rec-log serve-recs.jsonl
//! ```
//!
//! The recommendation log (`--rec-log`) carries no timing fields: it is
//! the determinism artifact the `serve-smoke` CI job byte-diffs across
//! shard and thread counts. All timing lives in `BENCH_serve.json`, which
//! is machine-specific and *excluded* from any determinism comparison.

use std::process::exit;
use std::time::Instant;

use serde::Serialize;

use pmr_bench::Scale;
use pmr_core::{PreparedCorpus, SplitConfig};
use pmr_serve::{rec_log, EngineConfig, Replay, ReplayOptions, RuntimeOptions, ServeModel};
use pmr_sim::{generate_corpus, SimConfig};

#[derive(Debug, Serialize)]
struct LatencySummary {
    count: u64,
    mean_us: u64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
    p999_us: u64,
    max_us: u64,
}

#[derive(Debug, Serialize)]
struct ServeBaseline {
    benchmark: &'static str,
    scale: String,
    seed: u64,
    model: String,
    shards: usize,
    workers: usize,
    jobs: usize,
    k: usize,
    query_every: usize,
    window: usize,
    queue_capacity: usize,
    events: u64,
    queries: u64,
    candidates: u64,
    observes: u64,
    backpressure: u64,
    window_evictions: u64,
    /// Fold-in Gibbs sweeps run across all shards (0 for the gram
    /// families). Layout-dependent via the per-shard θ memo, which is fine
    /// here: this file is excluded from determinism comparisons.
    topic_foldin_iters: u64,
    /// Background-model (re)trains, including the epoch-0 bootstrap.
    topic_background_refreshes: u64,
    prep_s: f64,
    replay_s: f64,
    events_per_sec: f64,
    query_latency: LatencySummary,
}

fn usage(problem: &str) -> ! {
    eprintln!("bench_serve: {problem}");
    eprintln!(
        "usage: bench_serve [--scale smoke|default|full] [--seed N] [--model bag|graph|topic] \
         [--shards N] [--workers N] [--jobs N] [--k N] [--query-every N] \
          [--window N] [--queue N] [--refresh N] [--out PATH] [--rec-log PATH]"
    );
    exit(2);
}

fn main() {
    let mut scale = Scale::Smoke;
    let mut seed: u64 = 42;
    let mut model = String::from("bag");
    let mut shards: usize = 4;
    let mut workers: usize = RuntimeOptions::default().workers;
    let mut jobs: usize = 1;
    let mut k: usize = 10;
    let mut query_every: usize = 25;
    let mut window: usize = 128;
    let mut queue: usize = 1024;
    let mut refresh: u64 = 0;
    let mut out = String::from("results/BENCH_serve.json");
    let mut rec_log_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value =
            |flag: &str| args.next().unwrap_or_else(|| usage(&format!("{flag} requires a value")));
        match arg.as_str() {
            "--scale" => {
                let v = value("--scale");
                scale = Scale::parse(&v).unwrap_or_else(|| usage(&format!("unknown scale {v:?}")));
            }
            "--seed" => {
                seed = value("--seed").parse().unwrap_or_else(|_| usage("--seed wants a number"))
            }
            "--model" => model = value("--model"),
            "--shards" => {
                shards =
                    value("--shards").parse().unwrap_or_else(|_| usage("--shards wants a number"))
            }
            "--workers" => {
                workers =
                    value("--workers").parse().unwrap_or_else(|_| usage("--workers wants a number"))
            }
            "--jobs" => {
                jobs = value("--jobs").parse().unwrap_or_else(|_| usage("--jobs wants a number"))
            }
            "--k" => k = value("--k").parse().unwrap_or_else(|_| usage("--k wants a number")),
            "--query-every" => {
                query_every = value("--query-every")
                    .parse()
                    .unwrap_or_else(|_| usage("--query-every wants a number"))
            }
            "--window" => {
                window =
                    value("--window").parse().unwrap_or_else(|_| usage("--window wants a number"))
            }
            "--queue" => {
                queue = value("--queue").parse().unwrap_or_else(|_| usage("--queue wants a number"))
            }
            "--refresh" => {
                refresh =
                    value("--refresh").parse().unwrap_or_else(|_| usage("--refresh wants a number"))
            }
            "--out" => out = value("--out"),
            "--rec-log" => rec_log_path = Some(value("--rec-log")),
            other => usage(&format!("unknown flag {other}")),
        }
    }

    let serve_model = match model.as_str() {
        "bag" => ServeModel::Bag {
            weighting: pmr_bag::WeightingScheme::TFIDF,
            similarity: pmr_bag::BagSimilarity::Cosine,
            char_grams: false,
            n: 1,
            decay: 0.99,
        },
        "graph" => ServeModel::Graph {
            similarity: pmr_graph::GraphSimilarity::Value,
            char_grams: false,
            n: 1,
        },
        // Paper-style priors (α = 50/K, β = 0.01) at a serving-friendly
        // budget; `--refresh 0` (the default) keeps the epoch-0 background
        // for the whole replay.
        "topic" => ServeModel::Topic {
            topics: 16,
            alpha: 50.0 / 16.0,
            beta: 0.01,
            train_iterations: 50,
            foldin_iterations: 8,
            seed,
            decay: 0.99,
            background_refresh: refresh,
        },
        other => usage(&format!("unknown model {other:?} (bag|graph|topic)")),
    };

    // The injected-clock recorder feeds the `serve.query` histogram and
    // the engine's counters; without it every observation is a no-op.
    pmr_obs::install(pmr_obs::Recorder::monotonic());

    let prep_start = Instant::now();
    let corpus = generate_corpus(&SimConfig::preset(scale.preset(), seed));
    let prepared =
        PreparedCorpus::new(corpus, SplitConfig::default()).expect("corpus is well-formed");
    let options = ReplayOptions {
        config: EngineConfig { model: serve_model, window },
        runtime: RuntimeOptions { shards, workers, queue_capacity: queue },
        k,
        query_every,
        jobs,
    };
    let mut replay = Replay::new(&prepared, options);
    let prep_s = prep_start.elapsed().as_secs_f64();

    let replay_start = Instant::now();
    replay.run_to_end();
    let outcome = replay.finish();
    let replay_s = replay_start.elapsed().as_secs_f64();

    let metrics = pmr_obs::snapshot().expect("recorder is installed");
    let empty =
        pmr_obs::HistogramSnapshot { count: 0, sum_us: 0, min_us: 0, max_us: 0, buckets: vec![] };
    let latency = metrics.histogram("serve.query").unwrap_or(&empty);
    let baseline = ServeBaseline {
        benchmark: "serve",
        scale: format!("{scale:?}").to_lowercase(),
        seed,
        model,
        shards,
        workers,
        jobs,
        k,
        query_every,
        window,
        queue_capacity: queue,
        events: outcome.events,
        queries: outcome.queries,
        candidates: metrics.counter("serve.candidates"),
        observes: metrics.counter("serve.observes"),
        backpressure: metrics.counter("serve.backpressure"),
        window_evictions: metrics.counter("serve.window_evictions"),
        topic_foldin_iters: metrics.counter("serve.topic.foldin_iters"),
        topic_background_refreshes: metrics.counter("serve.topic.background_refresh"),
        prep_s,
        replay_s,
        events_per_sec: outcome.events as f64 / replay_s,
        query_latency: LatencySummary {
            count: latency.count,
            mean_us: latency.mean().as_micros() as u64,
            p50_us: latency.quantile_us(0.5),
            p90_us: latency.quantile_us(0.9),
            p99_us: latency.quantile_us(0.99),
            p999_us: latency.quantile_us(0.999),
            max_us: latency.max_us,
        },
    };

    if let Some(path) = rec_log_path {
        let log = rec_log(&outcome.recommendations).expect("recommendation log serializes");
        if let Some(parent) = std::path::Path::new(&path).parent() {
            std::fs::create_dir_all(parent).expect("rec-log directory is creatable");
        }
        std::fs::write(&path, log).expect("rec-log file is writable");
        eprintln!("wrote {path} ({} recommendations)", outcome.recommendations.len());
    }

    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    if let Some(parent) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(parent).expect("output directory is creatable");
    }
    std::fs::write(&out, json + "\n").expect("baseline file is writable");
    eprintln!("wrote {out}");
    eprintln!(
        "  {} events in {replay_s:.2}s ({:.0} events/s), {} queries, \
         p50 {}µs p99 {}µs",
        baseline.events,
        baseline.events_per_sec,
        baseline.queries,
        baseline.query_latency.p50_us,
        baseline.query_latency.p99_us
    );
}
