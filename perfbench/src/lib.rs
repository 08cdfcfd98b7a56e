//! The benchmark's own parts: exact-sample statistics, seeded arrival
//! schedules, output digests and the oracles they are checked against, and
//! the one-line JSON result. Everything that drives the system under test
//! lives in the binary (`src/main.rs`, `src/sweep.rs`, `src/serve.rs`).

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::time::Duration;

/// Median of `values` (mean of the middle pair for even lengths); `NaN`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile of exact samples: the smallest sample such that
/// at least `q` of all samples are at or below it. `samples` must be
/// sorted ascending; `NaN` when empty.
pub fn quantile_sorted(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let rank = (q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Sort a sample set in place and return its `q` quantile.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    quantile_sorted(samples, q)
}

/// SplitMix64: a tiny, fully specified generator, so a schedule depends on
/// the seed alone and never on a library's stream definition.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from the open interval (0, 1).
    pub fn next_open01(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// Arrival offsets of `ops` operations under a Poisson process of `rate`
/// operations per second: cumulative exponential gaps, so the offsets are
/// non-decreasing and a single issuing thread sends operations in order.
pub fn poisson_schedule(ops: usize, rate: f64, seed: u64) -> Vec<Duration> {
    assert!(rate > 0.0, "an offered rate must be positive");
    let mut rng = SplitMix64::new(seed ^ 0x706f_6973_736f_6e00);
    let mut t = 0.0f64;
    (0..ops)
        .map(|_| {
            t += -rng.next_open01().ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// FNV-1a over bytes: the digest the oracles record. Not cryptographic; it
/// only has to make an accidental match of two different outputs unlikely.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold `bytes` into the digest.
    pub fn bytes(mut self, bytes: &[u8]) -> Digest {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Fold a `u64` (little-endian) into the digest.
    pub fn u64(self, v: u64) -> Digest {
        self.bytes(&v.to_le_bytes())
    }

    /// Fold an `f64`'s exact bit pattern into the digest.
    pub fn f64(self, v: f64) -> Digest {
        self.u64(v.to_bits())
    }

    /// The digest as 16 lower-case hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of one sweep run's outcome: its MAP and per-user APs, bit-exact.
pub fn run_digest(map: f64, per_user_ap: &[(u32, f64)]) -> String {
    let mut d = Digest::default().f64(map).u64(per_user_ap.len() as u64);
    for &(user, ap) in per_user_ap {
        d = d.u64(u64::from(user)).f64(ap);
    }
    d.hex()
}

/// A recorded reference: named entries, each with the digest the output
/// must reproduce. The file format is one `key<TAB>digest` line per entry;
/// keys keep file order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Oracle {
    entries: Vec<(String, String)>,
    index: BTreeMap<String, usize>,
}

/// The outcome of checking outputs against an [`Oracle`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that were missing, unknown to the oracle, or differed.
    pub failed: u64,
}

impl Verdict {
    /// Fold another verdict into this one.
    pub fn add(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

impl Oracle {
    /// Build from `(key, digest)` pairs; a repeated key is an error.
    pub fn from_entries(entries: Vec<(String, String)>) -> Result<Oracle, String> {
        let mut index = BTreeMap::new();
        for (i, (key, _)) in entries.iter().enumerate() {
            if index.insert(key.clone(), i).is_some() {
                return Err(format!("oracle key {key:?} appears twice"));
            }
        }
        Ok(Oracle { entries, index })
    }

    /// Parse the `key<TAB>digest` line format.
    pub fn parse(text: &str) -> Result<Oracle, String> {
        let entries = text
            .lines()
            .filter(|l| !l.is_empty())
            .map(|line| {
                line.rsplit_once('\t')
                    .map(|(k, d)| (k.to_owned(), d.to_owned()))
                    .ok_or_else(|| format!("oracle line without a tab: {line:?}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Oracle::from_entries(entries)
    }

    /// Render the `key<TAB>digest` line format.
    pub fn render(&self) -> String {
        self.entries.iter().map(|(k, d)| format!("{k}\t{d}\n")).collect()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the oracle has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Check `(key, digest)` outputs that are expected to cover every
    /// entry exactly once: each output counts as attempted and fails when
    /// its key is unknown or its digest differs; every entry with no
    /// output counts as attempted and failed (an unanswered query, a run
    /// that never came back).
    pub fn check_all<'a, I>(&self, outputs: I) -> Verdict
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        let mut seen = vec![false; self.entries.len()];
        let mut verdict = Verdict::default();
        for (key, digest) in outputs {
            verdict.attempted += 1;
            match self.index.get(key) {
                Some(&i) if !seen[i] && self.entries[i].1 == digest => seen[i] = true,
                Some(&i) => {
                    seen[i] = true;
                    verdict.failed += 1;
                }
                None => verdict.failed += 1,
            }
        }
        let missing = seen.iter().filter(|s| !**s).count() as u64;
        verdict.attempted += missing;
        verdict.failed += missing;
        verdict
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value, full precision.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Render the result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}, ..}}`. Non-finite values
/// cannot be written as JSON numbers and are rendered as `null`.
pub fn result_line(correct: bool, verdict: Verdict, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { format!("{:?}", m.value) } else { "null".into() };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.attempted,
        verdict.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_quantiles_on_known_inputs() {
        let mut one_to_hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut one_to_hundred, 0.5), 50.0);
        assert_eq!(quantile_sorted(&one_to_hundred, 0.99), 99.0);
        assert_eq!(quantile_sorted(&one_to_hundred, 1.0), 100.0);
        assert_eq!(quantile_sorted(&one_to_hundred, 0.0), 1.0);
        let mut thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&mut thousand, 0.99), 990.0);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
        assert!(quantile_sorted(&[], 0.5).is_nan());
        // Ties and an unsorted input.
        let mut ties = vec![3.0, 1.0, 2.0, 2.0];
        assert_eq!(quantile(&mut ties, 0.5), 2.0);
        assert_eq!(quantile_sorted(&ties, 0.75), 2.0);
        assert_eq!(quantile_sorted(&ties, 0.76), 3.0);
    }

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn seeded_poisson_schedule_is_reproducible() {
        let a = poisson_schedule(10_000, 50_000.0, 7);
        let b = poisson_schedule(10_000, 50_000.0, 7);
        let c = poisson_schedule(10_000, 50_000.0, 8);
        assert_eq!(a, b, "one seed, one schedule");
        assert_ne!(a, c, "another seed, another schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets never decrease");
        // 10,000 arrivals at 50k/s span ~0.2 s; the mean gap of an
        // exponential sample of this size is within a few percent.
        let span = a.last().expect("non-empty").as_secs_f64();
        assert!((span - 0.2).abs() < 0.01, "span {span}");
    }

    #[test]
    fn oracle_counts_a_planted_mismatch_as_a_failure() {
        let good = run_digest(0.5, &[(1, 0.25), (2, 0.75)]);
        let planted = run_digest(0.5, &[(1, 0.25), (2, 0.7500000000000001)]);
        assert_ne!(good, planted, "one ulp of one AP changes the digest");
        let other = run_digest(0.1, &[]);
        let oracle =
            Oracle::from_entries(vec![("a".into(), good.clone()), ("b".into(), other.clone())])
                .expect("distinct keys");
        let all_good = oracle.check_all([("a", good.as_str()), ("b", other.as_str())]);
        assert_eq!(all_good, Verdict { attempted: 2, failed: 0 });
        let mismatch = oracle.check_all([("a", planted.as_str()), ("b", other.as_str())]);
        assert_eq!(mismatch, Verdict { attempted: 2, failed: 1 });
        // A missing output (an unanswered query) and an unknown key both fail.
        let missing = oracle.check_all([("a", good.as_str())]);
        assert_eq!(missing, Verdict { attempted: 2, failed: 1 });
        let unknown = oracle.check_all([("a", good.as_str()), ("b", "x"), ("c", "y")]);
        assert_eq!(unknown, Verdict { attempted: 3, failed: 2 });
        // A duplicated output fails even when its digest matches.
        let twice =
            oracle.check_all([("a", good.as_str()), ("a", good.as_str()), ("b", other.as_str())]);
        assert_eq!(twice, Verdict { attempted: 3, failed: 1 });
    }

    #[test]
    fn oracle_file_round_trips() {
        let oracle =
            Oracle::from_entries(vec![("k 1".into(), "00ff".into()), ("k\t2".into(), "ab".into())])
                .expect("distinct keys");
        assert_eq!(Oracle::parse(&oracle.render()), Ok(oracle));
        assert!(Oracle::parse("a\t1\na\t2\n").is_err());
        assert!(Oracle::parse("no tab here\n").is_err());
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(
            true,
            Verdict { attempted: 3, failed: 0 },
            &[Metric { name: "setup_s".into(), value: 0.25, unit: "s" }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
