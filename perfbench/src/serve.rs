//! The serving workloads: the default-scale stream flattened into engine
//! operations and driven open-loop through `pmr_serve::Engine` from one
//! load-generating thread.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmr_core::{GramKind, PreparedCorpus, SplitConfig};
use pmr_serve::{
    precompute_features, rec_log, Engine, EngineConfig, Recommendation, Replay, ReplayOptions,
    RuntimeOptions, ServeModel, TweetFeatures,
};
use pmr_sim::{generate_corpus, ScalePreset, SimConfig, Timestamp, TweetId, UserId};

use perfbench::{
    median, poisson_schedule, quantile, quantile_sorted, Digest, Metric, Oracle, Verdict,
};

use crate::{layers, Args, Outcome, SETUP_REPS};

/// One open-loop traffic mix over the default-scale stream.
pub struct ServeSpec {
    /// Workload name (and oracle file stem).
    pub name: &'static str,
    /// A query after every `query_every` stream events.
    pub query_every: usize,
    /// Fixed offered rate of the paced passes, in engine operations per
    /// second (the value recorded in `BENCHMARK.json`).
    pub rate: f64,
}

/// Write-heavy: one query per 25 events, ~0.5% of operations.
pub const SERVE_POISSON: ServeSpec =
    ServeSpec { name: "serve_poisson", query_every: 25, rate: 150_000.0 };

/// Read-heavy: a query after every event, ~11% of operations.
pub const SERVE_READS: ServeSpec =
    ServeSpec { name: "serve_reads", query_every: 1, rate: 90_000.0 };

const SHARDS: usize = 64;
const K: usize = 10;
const WINDOW: usize = 128;
/// How long the load generator waits for the last answers of a paced pass.
const TAIL_DEADLINE: Duration = Duration::from_secs(30);

/// TF-IDF cosine over token unigrams, decay 0.99.
const MODEL: ServeModel = ServeModel::Bag {
    weighting: pmr_bag::WeightingScheme::TFIDF,
    similarity: pmr_bag::BagSimilarity::Cosine,
    char_grams: false,
    n: 1,
    decay: 0.99,
};

fn engine_config() -> EngineConfig {
    EngineConfig { model: MODEL, window: WINDOW }
}

fn runtime(jobs: usize) -> RuntimeOptions {
    RuntimeOptions { shards: SHARDS, workers: jobs, ..Default::default() }
}

/// One engine call, flattened from the stream the way a replay issues
/// them: originals fan out to the author's followers, a retweet observes
/// the original and fans it out to the reposter's followers, and every
/// `query_every` events the next evaluated user (round-robin) is queried.
enum Op {
    Candidate { user: UserId, tweet: TweetId, at: Timestamp, features: Arc<TweetFeatures> },
    Observe { user: UserId, features: Arc<TweetFeatures> },
    Query { user: UserId, at: Timestamp },
}

fn build_ops(
    prepared: &PreparedCorpus,
    features: &[Option<Arc<TweetFeatures>>],
    query_every: usize,
) -> Vec<Op> {
    let corpus = &prepared.corpus;
    let eval_users: Vec<UserId> = corpus.evaluated_user_ids().collect();
    assert!(!eval_users.is_empty(), "the corpus has evaluated users");
    let mut ops = Vec::new();
    let mut queries = 0usize;
    let fan_out = |ops: &mut Vec<Op>, author: UserId, tweet: TweetId, at: Timestamp| {
        if let Some(f) = &features[tweet.index()] {
            for &user in corpus.graph.followers(author) {
                ops.push(Op::Candidate { user, tweet, at, features: Arc::clone(f) });
            }
        }
    };
    for (i, event) in corpus.event_stream().iter().enumerate() {
        match event.retweet_of {
            None => fan_out(&mut ops, event.author, event.tweet, event.at),
            Some(original) => {
                if let Some(f) = &features[original.index()] {
                    ops.push(Op::Observe { user: event.author, features: Arc::clone(f) });
                }
                fan_out(&mut ops, event.author, original, event.at);
            }
        }
        if (i + 1) % query_every == 0 {
            ops.push(Op::Query { user: eval_users[queries % eval_users.len()], at: event.at });
            queries += 1;
        }
    }
    ops
}

/// The set-up serving needs: the default-scale corpus, prepared, its token
/// unigram table, and the per-tweet model features.
struct Setup {
    prepared: PreparedCorpus,
    features: Vec<Option<Arc<TweetFeatures>>>,
    /// generate, prepare, gram table, featurize.
    times: [Duration; 4],
}

fn set_up(corpus_seed: u64, jobs: usize) -> Setup {
    let t0 = Instant::now();
    let corpus = generate_corpus(&SimConfig::preset(ScalePreset::Default, corpus_seed));
    let t1 = Instant::now();
    let prepared = PreparedCorpus::new(corpus, SplitConfig::default())
        .expect("the default-scale corpus is well-formed");
    let t2 = Instant::now();
    prepared.gram_table(GramKind::of(MODEL.char_grams()), MODEL.n());
    let t3 = Instant::now();
    let features = precompute_features(&prepared, MODEL, jobs);
    let t4 = Instant::now();
    Setup { prepared, features, times: [t1 - t0, t2 - t1, t3 - t2, t4 - t3] }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Exact samples collected during a paced pass.
#[derive(Default)]
struct Samples {
    /// Query sojourn: completion seen by `poll_answered` minus arrival.
    query_ms: Vec<f64>,
    /// Candidate/observe sojourn: the call's return minus arrival.
    ingest_ms: Vec<f64>,
    /// How late each operation was issued.
    late_ms: Vec<f64>,
    /// Traced passes only: time inside `post_candidate`/`observe`, `query`
    /// and `poll_answered`.
    post_us: Vec<f64>,
    query_call_us: Vec<f64>,
    poll_us: Vec<f64>,
}

/// What one paced (open-loop) pass measured: each sample set reduced to
/// its quantiles when the pass ends. A run reports the median over passes
/// of each quantile, so one pass hit by a stall of the host does not set
/// the run's figure.
struct Paced {
    query_p50_ms: f64,
    query_p90_ms: f64,
    query_p99_ms: f64,
    ingest_p99_ms: f64,
    late_p99_ms: f64,
    post_p50_us: f64,
    post_p99_us: f64,
    query_call_p99_us: f64,
    poll_p99_us: f64,
    verdict: Verdict,
    obs: Option<pmr_obs::MetricsSnapshot>,
}

/// What one unpaced (capacity) pass measured.
struct Unpaced {
    /// First operation until `Engine::finish` returns.
    wall: Duration,
    /// Inside `Engine::finish`.
    finish: Duration,
    verdict: Verdict,
}

/// Collect answered query ids and their sojourn samples.
fn poll(
    engine: &mut Engine,
    arrivals: &[Instant],
    answered: &mut u64,
    s: &mut Samples,
    traced: bool,
) {
    let t0 = Instant::now();
    let ids = engine.poll_answered();
    let done = Instant::now();
    if traced {
        s.poll_us.push(us(done - t0));
    }
    for id in ids {
        s.query_ms.push(ms(done.saturating_duration_since(arrivals[id as usize])));
        *answered += 1;
    }
}

/// Issue every operation at its scheduled arrival, polling for answers
/// while waiting and after every operation.
fn paced_pass(
    ops: &[Op],
    schedule: &[Duration],
    jobs: usize,
    traced: bool,
    oracle: &Oracle,
) -> Paced {
    if traced {
        pmr_obs::install(pmr_obs::Recorder::monotonic());
    }
    let mut engine = Engine::start(engine_config(), runtime(jobs));
    let mut s = Samples::default();
    let mut arrivals: Vec<Instant> = Vec::new();
    let mut answered = 0u64;
    let start = Instant::now();
    for (op, offset) in ops.iter().zip(schedule) {
        let arrival = start + *offset;
        loop {
            let now = Instant::now();
            if now >= arrival {
                break;
            }
            poll(&mut engine, &arrivals, &mut answered, &mut s, traced);
            // Sleep rather than spin: the load generator must not take a core
            // from the engine's workers. A sleep overshoots by the timer
            // slack (~50 µs), which `late_ms` reports.
            std::thread::sleep((arrival - now).min(Duration::from_micros(200)));
        }
        let issued = Instant::now();
        s.late_ms.push(ms(issued - arrival));
        match op {
            Op::Candidate { user, tweet, at, features } => {
                engine.post_candidate(*user, *tweet, *at, features);
            }
            Op::Observe { user, features } => engine.observe(*user, features),
            Op::Query { user, at } => {
                let id = engine.query(*user, K, *at);
                debug_assert_eq!(id as usize, arrivals.len());
                arrivals.push(arrival);
            }
        }
        let returned = Instant::now();
        match op {
            Op::Query { .. } => {
                if traced {
                    s.query_call_us.push(us(returned - issued));
                }
            }
            _ => {
                s.ingest_ms.push(ms(returned - arrival));
                if traced {
                    s.post_us.push(us(returned - issued));
                }
            }
        }
        poll(&mut engine, &arrivals, &mut answered, &mut s, traced);
    }
    let tail = Instant::now() + TAIL_DEADLINE;
    while answered < arrivals.len() as u64 && Instant::now() < tail {
        std::thread::yield_now();
        poll(&mut engine, &arrivals, &mut answered, &mut s, traced);
    }
    let mut verdict = check(oracle, &engine.finish());
    // A query `poll_answered` never reported fails even when `finish`
    // later returned its answer.
    let unanswered = arrivals.len() as u64 - answered;
    verdict.failed = (verdict.failed + unanswered).min(verdict.attempted);
    let obs = traced.then(|| {
        let snap = pmr_obs::snapshot().expect("a recorder is installed");
        pmr_obs::uninstall();
        snap
    });
    Paced {
        ingest_p99_ms: quantile(&mut s.ingest_ms, 0.99),
        late_p99_ms: quantile(&mut s.late_ms, 0.99),
        post_p50_us: quantile(&mut s.post_us, 0.5),
        post_p99_us: quantile_sorted(&s.post_us, 0.99),
        query_call_p99_us: quantile(&mut s.query_call_us, 0.99),
        poll_p99_us: quantile(&mut s.poll_us, 0.99),
        query_p50_ms: quantile(&mut s.query_ms, 0.5),
        query_p90_ms: quantile_sorted(&s.query_ms, 0.9),
        query_p99_ms: quantile_sorted(&s.query_ms, 0.99),
        verdict,
        obs,
    }
}

/// Offer every operation at once; returns the time until `Engine::finish`
/// returned, the time inside it, and the answers.
fn drive_unpaced(ops: &[Op], jobs: usize) -> (Duration, Duration, Vec<Recommendation>) {
    let mut engine = Engine::start(engine_config(), runtime(jobs));
    let start = Instant::now();
    for op in ops {
        match op {
            Op::Candidate { user, tweet, at, features } => {
                engine.post_candidate(*user, *tweet, *at, features)
            }
            Op::Observe { user, features } => engine.observe(*user, features),
            Op::Query { user, at } => {
                engine.query(*user, K, *at);
            }
        }
    }
    let finishing = Instant::now();
    let recs = engine.finish();
    let end = Instant::now();
    (end - start, end - finishing, recs)
}

fn unpaced_pass(ops: &[Op], jobs: usize, traced: bool, oracle: &Oracle) -> Unpaced {
    if traced {
        pmr_obs::install(pmr_obs::Recorder::monotonic());
    }
    let (wall, finish, recs) = drive_unpaced(ops, jobs);
    pmr_obs::uninstall();
    Unpaced { wall, finish, verdict: check(oracle, &recs) }
}

fn rec_digest(rec: &Recommendation) -> String {
    let line = serde_json::to_string(rec).expect("recommendations serialize");
    Digest::default().bytes(line.as_bytes()).hex()
}

/// Check a pass's answers: one attempted query per oracle entry; a query
/// fails when it is missing, unexpected, or its answer differs.
fn check(oracle: &Oracle, recs: &[Recommendation]) -> Verdict {
    let outputs: Vec<(String, String)> =
        recs.iter().map(|r| (r.query.to_string(), rec_digest(r))).collect();
    oracle.check_all(outputs.iter().map(|(k, d)| (k.as_str(), d.as_str())))
}

/// One paced and one unpaced pass, with the recorder installed or not.
struct Cycle {
    paced: Paced,
    unpaced: Unpaced,
    traced: bool,
}

pub fn run(spec: &ServeSpec, args: &Args) -> Outcome {
    let oracle = crate::load_oracle(spec.name, args.corpus_seed);
    let mut setup_times = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous copy first so the peak RSS is that of one.
        drop(setup.take());
        let s = set_up(args.corpus_seed, args.jobs);
        setup_times.push(s.times);
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up ran");
    let ops = build_ops(&setup.prepared, &setup.features, spec.query_every);
    let schedule = poisson_schedule(ops.len(), spec.rate, args.seed);

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut verdict = Verdict::default();
    let mut peak_rss_mb = f64::NAN;
    // At least two cycles, and in a traced run at least two of each kind.
    while cycles.len() < 2 + 2 * usize::from(args.trace) || Instant::now() < deadline {
        let traced = args.trace && cycles.len() % 2 == 1;
        let paced = paced_pass(&ops, &schedule, args.jobs, traced, &oracle);
        let unpaced = unpaced_pass(&ops, args.jobs, traced, &oracle);
        for (kind, v) in [("paced", paced.verdict), ("unpaced", unpaced.verdict)] {
            if v.failed > 0 {
                eprintln!(
                    "{kind} pass {}: {} of {} queries failed",
                    cycles.len(),
                    v.failed,
                    v.attempted
                );
            }
            verdict.add(v);
        }
        cycles.push(Cycle { paced, unpaced, traced });
        if cycles.len() == 1 {
            peak_rss_mb = crate::peak_rss_mb();
        }
    }

    let untraced: Vec<&Cycle> = cycles.iter().filter(|c| !c.traced).collect();
    let over_passes = |pick: fn(&Paced) -> f64| {
        median(&untraced.iter().map(|c| pick(&c.paced)).collect::<Vec<_>>())
    };
    eprintln!(
        "queries={} queries_failed={} ops={} cycles={} offered={} ops/s workers={} \
         query_ms p50={:.4} p90={:.4} p99={:.4} late_ms.p99={:.4}",
        verdict.attempted,
        verdict.failed,
        ops.len(),
        cycles.len(),
        spec.rate,
        args.jobs,
        over_passes(|p| p.query_p50_ms),
        over_passes(|p| p.query_p90_ms),
        over_passes(|p| p.query_p99_ms),
        over_passes(|p| p.late_p99_ms),
    );

    let metrics = if args.trace {
        traced_metrics(&cycles, &setup_times)
    } else {
        let setup_s: Vec<f64> =
            setup_times.iter().map(|t| t.iter().sum::<Duration>().as_secs_f64()).collect();
        let walls: Vec<f64> = untraced.iter().map(|c| c.unpaced.wall.as_secs_f64()).collect();
        crate::end_to_end(median(&setup_s), median(&walls), peak_rss_mb)
    };
    Outcome { verdict, metrics, correct: verdict.failed == 0 }
}

/// Per-layer metrics of a traced serving run: medians over the traced
/// cycles of each pass's quantiles, counters and times.
fn traced_metrics(cycles: &[Cycle], setup_times: &[[Duration; 4]]) -> Vec<Metric> {
    let traced: Vec<&Cycle> = cycles.iter().filter(|c| c.traced).collect();
    let per_traced = |f: &dyn Fn(&Cycle) -> f64| -> f64 {
        median(&traced.iter().map(|c| f(c)).collect::<Vec<_>>())
    };
    let counter = |name: &'static str| {
        per_traced(&move |c: &Cycle| c.paced.obs.as_ref().map_or(0.0, |o| o.counter(name) as f64))
    };
    let setup =
        |i: usize| median(&setup_times.iter().map(|t| t[i].as_secs_f64()).collect::<Vec<_>>());
    let unpaced_wall = |want: bool| -> f64 {
        median(
            &cycles
                .iter()
                .filter(|c| c.traced == want)
                .map(|c| c.unpaced.wall.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };

    let mut values: BTreeMap<String, f64> = layers::zeroed();
    let mut set = |name: &str, v: f64| {
        values.insert(name.to_owned(), v);
    };
    set("sim.generate_s", setup(0));
    set("core.prepare_s", setup(1));
    set("core.features_s", setup(2));
    set("serve.featurize_s", setup(3));
    set("serve.query_p50_ms", per_traced(&|c| c.paced.query_p50_ms));
    set("serve.query_p90_ms", per_traced(&|c| c.paced.query_p90_ms));
    set("serve.query_p99_ms", per_traced(&|c| c.paced.query_p99_ms));
    set("serve.ingest_p99_ms", per_traced(&|c| c.paced.ingest_p99_ms));
    set("serve.post_us.p50", per_traced(&|c| c.paced.post_p50_us));
    set("serve.post_us.p99", per_traced(&|c| c.paced.post_p99_us));
    set("serve.query_call_us.p99", per_traced(&|c| c.paced.query_call_p99_us));
    set("serve.poll_us.p99", per_traced(&|c| c.paced.poll_p99_us));
    set("serve.finish_s", per_traced(&|c| c.unpaced.finish.as_secs_f64()));
    set("serve.late_ms.p99", per_traced(&|c| c.paced.late_p99_ms));
    set("serve.backpressure", counter("serve.backpressure"));
    set("serve.runtime.steals", counter("serve.runtime.steals"));
    set("serve.runtime.parks", counter("serve.runtime.parks"));
    set("serve.runtime.yields", counter("serve.runtime.yields"));
    set("serve.window_evictions", counter("serve.window_evictions"));
    // The shard's gate counts candidates it scored exactly
    // (`retrieval.candidates`) and those it proved share no feature with
    // the model (`retrieval.pruned`).
    let rescored = counter("retrieval.candidates");
    let candidates = rescored + counter("retrieval.pruned");
    set("retrieval.candidates", candidates);
    set("retrieval.rescored", rescored);
    set("retrieval.rescored_share", rescored / candidates);
    set("obs.overhead_share", unpaced_wall(true) / unpaced_wall(false) - 1.0);
    layers::metrics(values)
}

/// Rewrite the workload's oracle from an unpaced engine run, after
/// checking that run's log against an uninterrupted `Replay`.
pub fn record(spec: &ServeSpec, args: &Args) {
    let setup = set_up(args.corpus_seed, args.jobs);
    let ops = build_ops(&setup.prepared, &setup.features, spec.query_every);
    let (_, _, recs) = drive_unpaced(&ops, args.jobs);
    let replay = Replay::run(
        &setup.prepared,
        ReplayOptions {
            config: engine_config(),
            runtime: runtime(args.jobs),
            k: K,
            query_every: spec.query_every,
            jobs: args.jobs,
        },
    );
    let log = rec_log(&recs).expect("the log serializes");
    assert!(
        log == rec_log(&replay.recommendations).expect("the log serializes"),
        "the flattened operations must reproduce the replay's recommendations"
    );
    let entries = recs.iter().map(|r| (r.query.to_string(), rec_digest(r))).collect();
    let oracle = Oracle::from_entries(entries).expect("query ids are distinct");
    crate::store_oracle(spec.name, args.corpus_seed, &oracle);
}
