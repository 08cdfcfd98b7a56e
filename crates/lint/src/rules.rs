//! The rule registry and the per-file token-stream rules.
//!
//! Every rule is heuristic by design — the lexer has no type information —
//! and errs toward false negatives: a construct the analysis cannot prove
//! hash-ordered, wall-clocked or panicking is never flagged. The repo's
//! determinism tests remain the ground truth; the linter is the tripwire
//! that catches the common ways of breaking them *before* a sweep runs.
//!
//! [`REGISTRY`] is the single source of truth for rule names: the checks,
//! the suppress-directive validation (`unknown-rule`), `--help`, and the
//! allow-count audit all read it — adding a rule anywhere else is a bug.

use serde::Serialize;

use crate::lexer::{Tok, TokKind};
use crate::parse::{find_test_ranges, match_brace};

/// How a rule computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleKind {
    /// Per-file pattern over the token stream.
    Token,
    /// Workspace-wide flow analysis over the call graph ([`crate::conc`],
    /// [`crate::taint`]).
    Flow,
    /// Polices the suppression mechanism itself; not suppressable targets
    /// in the usual sense.
    Meta,
}

/// One registered rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// The name used in findings and `allow(...)` directives.
    pub name: &'static str,
    /// Token, Flow or Meta.
    pub kind: RuleKind,
    /// One-line description for `--help` and docs.
    pub summary: &'static str,
}

/// Every rule the linter knows, in display order: five token rules, four
/// flow rules, two meta rules.
pub const REGISTRY: [Rule; 11] = [
    Rule {
        name: "nondet-iter",
        kind: RuleKind::Token,
        summary: "iterating a HashMap/HashSet where the loop body feeds serialization, float \
                  accumulation (sum/product, or += / -= of a float) or Vec::push without a \
                  subsequent sort",
    },
    Rule {
        name: "unseeded-rng",
        kind: RuleKind::Token,
        summary: "thread_rng/from_entropy/from_os_rng/OsRng: every random decision must derive \
                  from an explicit seed",
    },
    Rule {
        name: "wall-clock",
        kind: RuleKind::Token,
        summary: "Instant::now/SystemTime::now outside the timing layer (core::timing, \
                  recommender timing blocks, the obs clock, bench binaries)",
    },
    Rule {
        name: "lib-unwrap",
        kind: RuleKind::Token,
        summary: "unwrap()/expect()/panic! in non-test library code",
    },
    Rule {
        name: "float-order",
        kind: RuleKind::Token,
        summary: ".sum::<f64>() over a hash-ordered collection: float addition is not \
                  associative, so the iteration order must be canonical",
    },
    Rule {
        name: "blocking-under-lock",
        kind: RuleKind::Flow,
        summary: "a blocking channel send/recv (directly or through a call chain) while a \
                  lock guard is live — the drain side may need that lock",
    },
    Rule {
        name: "lock-order-cycle",
        kind: RuleKind::Flow,
        summary: "the cross-function lock-acquisition-order graph has a cycle (or a lock is \
                  re-acquired under its own guard); impose one global order",
    },
    Rule {
        name: "channel-cycle",
        kind: RuleKind::Flow,
        summary: "a struct blocking-sends to and blocking-recvs from the same peer struct; \
                  a full forward queue plus an un-drained reply queue deadlocks",
    },
    Rule {
        name: "nondet-flow",
        kind: RuleKind::Flow,
        summary: "serialization reachable (through the call graph) from hash-ordered \
                  iteration with no sort in between",
    },
    Rule {
        name: "bare-allow",
        kind: RuleKind::Meta,
        summary: "a pmr-lint allow directive without a justification",
    },
    Rule {
        name: "unknown-rule",
        kind: RuleKind::Meta,
        summary: "a pmr-lint allow directive naming a rule that does not exist",
    },
];

/// The names of the enforceable rules (meta rules excluded).
pub fn rule_names() -> impl Iterator<Item = &'static str> {
    REGISTRY.iter().filter(|r| r.kind != RuleKind::Meta).map(|r| r.name)
}

/// Whether `name` is any known rule (including the meta rules).
pub fn is_known_rule(name: &str) -> bool {
    REGISTRY.iter().any(|r| r.name == name)
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Finding {
    /// The violated rule.
    pub rule: String,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Run the five per-file token rules over one file. Suppressions, the
/// workspace flow passes, sorting and deduplication live in
/// [`crate::lint_files`] — this is the raw per-file layer.
pub(crate) fn token_rules(rel_path: &str, toks: &[Tok]) -> Vec<Finding> {
    let ctx = FileContext::build(rel_path, toks);
    let mut findings = Vec::new();
    check_nondet_iter(&ctx, &mut findings);
    check_unseeded_rng(&ctx, &mut findings);
    check_wall_clock(&ctx, &mut findings);
    check_lib_unwrap(&ctx, &mut findings);
    check_float_order(&ctx, &mut findings);
    findings
}

/// Construct a finding at an explicit position (used by the flow passes,
/// which report at call/field sites rather than at a token in hand).
pub(crate) fn finding_at(rule: &str, path: &str, line: u32, col: u32, message: String) -> Finding {
    Finding { rule: rule.to_owned(), path: path.to_owned(), line, col, message }
}

/// Everything the rules need to know about one file.
struct FileContext<'a> {
    rel_path: &'a str,
    toks: &'a [Tok],
    /// Token-index ranges of `#[cfg(test)]` modules and `#[test]` functions.
    test_ranges: Vec<(usize, usize)>,
    /// Token-index ranges of function bodies (for sort lookahead).
    fn_bodies: Vec<(usize, usize)>,
    /// Identifiers known (by local declaration or annotation) to be
    /// `HashMap`s/`HashSet`s.
    hash_idents: Vec<String>,
    /// Whether the file is library code (under a crate's `src/`, not a
    /// binary, bench, example or integration test).
    is_library: bool,
}

impl<'a> FileContext<'a> {
    fn build(rel_path: &'a str, toks: &'a [Tok]) -> FileContext<'a> {
        FileContext {
            rel_path,
            toks,
            test_ranges: find_test_ranges(toks),
            fn_bodies: find_fn_bodies(toks),
            hash_idents: find_hash_idents(toks),
            is_library: is_library_path(rel_path),
        }
    }

    fn in_test(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| idx >= a && idx <= b)
    }

    fn ident_at(&self, idx: usize, text: &str) -> bool {
        self.toks.get(idx).is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
    }

    fn punct_at(&self, idx: usize, ch: &str) -> bool {
        self.toks.get(idx).is_some_and(|t| t.kind == TokKind::Punct && t.text == ch)
    }

    /// The token-index range of the innermost function body containing
    /// `idx`, or the whole file if none does (e.g. a const initializer).
    fn enclosing_fn(&self, idx: usize) -> (usize, usize) {
        self.fn_bodies
            .iter()
            .filter(|&&(a, b)| idx >= a && idx <= b)
            .min_by_key(|&&(a, b)| b - a)
            .copied()
            .unwrap_or((0, self.toks.len().saturating_sub(1)))
    }
}

/// Library code = a crate's `src/` tree minus `src/bin/` and `main.rs`,
/// plus the workspace facade's `src/`. Integration tests, benches and
/// examples are free to panic.
fn is_library_path(rel_path: &str) -> bool {
    let in_src = rel_path.contains("/src/") || rel_path.starts_with("src/");
    in_src && !rel_path.contains("/bin/") && !rel_path.ends_with("main.rs")
}

/// Token-index ranges of every function body.
fn find_fn_bodies(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut bodies = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident && t.text == "fn" {
            for (k, u) in toks.iter().enumerate().skip(i + 1) {
                match u.text.as_str() {
                    "{" => {
                        bodies.push((k, match_brace(toks, k)));
                        break;
                    }
                    ";" => break, // trait method declaration without a body
                    _ => {}
                }
            }
        }
    }
    bodies
}

/// Identifiers declared or annotated as `HashMap`/`HashSet` in this file:
/// `let [mut] x = HashMap::...`, `x: HashMap<...>` (bindings, parameters
/// and struct fields alike). Sorted and deduped, so callers may
/// binary-search.
pub(crate) fn find_hash_idents(toks: &[Tok]) -> Vec<String> {
    let mut idents = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        // `name: [&[mut]|&'a] HashMap<...>` — annotation, including
        // reference-typed fn parameters; `path::HashMap` never matches
        // because the walk lands on the path's second `:`.
        let mut k = i;
        while k >= 1
            && (toks[k - 1].text == "&"
                || toks[k - 1].text == "mut"
                || toks[k - 1].kind == TokKind::Lifetime)
        {
            k -= 1;
        }
        if k >= 2
            && toks[k - 1].text == ":"
            && toks[k - 2].kind == TokKind::Ident
            && toks.get(k.wrapping_sub(3)).is_none_or(|t| t.text != ":")
        {
            idents.push(toks[k - 2].text.clone());
        }
        // `let [mut] name = HashMap::...` — inferred binding.
        if i >= 2 && toks[i - 1].text == "=" && toks[i - 2].kind == TokKind::Ident {
            idents.push(toks[i - 2].text.clone());
        }
    }
    idents.sort();
    idents.dedup();
    idents
}

pub(crate) const ITER_METHODS: [&str; 6] =
    ["iter", "iter_mut", "into_iter", "keys", "values", "drain"];
const SORTISH: [&str; 3] = ["sort", "BTreeMap", "BTreeSet"];

pub(crate) fn is_sortish(t: &Tok) -> bool {
    t.kind == TokKind::Ident && SORTISH.iter().any(|s| t.text.starts_with(s))
}

/// Whether the token region contains an order-sensitive sink: pushing to a
/// vector, writing/serializing, or accumulating floats. Sinks must have
/// call shape — a *variable* named `sum` or `push` is not a sink.
fn region_has_sink(toks: &[Tok], from: usize, to: usize) -> Option<usize> {
    let to = to.min(toks.len().saturating_sub(1));
    for i in from..=to {
        let t = &toks[i];
        if is_float_accumulation(toks, i, to) {
            return Some(i);
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        let method = i >= 1
            && toks[i - 1].text == "."
            && toks.get(i + 1).is_some_and(|u| u.text == "(" || u.text == ":");
        let macro_call = toks.get(i + 1).is_some_and(|u| u.text == "!");
        match t.text.as_str() {
            "push" | "push_str" | "extend" | "serialize" | "to_writer" | "sum" | "product"
                if method =>
            {
                return Some(i);
            }
            "write" | "writeln" | "print" | "println" | "format" if macro_call => {
                return Some(i);
            }
            "serde_json" if toks.get(i + 1).is_some_and(|u| u.text == ":") => {
                return Some(i);
            }
            // `.collect::<Vec<...>>()` materializes the nondeterministic
            // order; collecting into another hash/BTree container does not.
            "collect" if method && toks[i..=(i + 5).min(to)].iter().any(|u| u.text == "Vec") => {
                return Some(i);
            }
            _ => {}
        }
    }
    None
}

/// A compound assignment `+=`/`-=` at `i` whose right-hand side carries a
/// float — an `as f64`/`as f32` cast, a float literal or a call — so its
/// result depends on the order of the accumulation. Integer counting
/// (`*n += 1`) does not.
fn is_float_accumulation(toks: &[Tok], i: usize, to: usize) -> bool {
    let op = toks[i].kind == TokKind::Punct && (toks[i].text == "+" || toks[i].text == "-");
    if !op || toks.get(i + 1).is_none_or(|u| u.text != "=") {
        return false;
    }
    let rhs = toks.get(i + 2..=statement_end(toks, i + 2).min(to)).unwrap_or_default();
    rhs.iter().enumerate().any(|(k, u)| {
        let next = rhs.get(k + 1).map(|n| n.text.as_str());
        match u.kind {
            TokKind::NumLit => {
                !u.text.starts_with("0x")
                    && (u.text.contains('.') || u.text.ends_with("f64") || u.text.ends_with("f32"))
            }
            TokKind::Ident if u.text == "as" => matches!(next, Some("f64" | "f32")),
            TokKind::Ident => next == Some("("),
            _ => false,
        }
    })
}

/// How a sink reads in a finding: the token, or the whole `+=`/`-=`.
fn sink_name(toks: &[Tok], sink: usize) -> String {
    match toks[sink].kind {
        TokKind::Punct => format!("{}=", toks[sink].text),
        _ => toks[sink].text.clone(),
    }
}

/// The end (token index of `;`) of the statement starting at `from`,
/// tracking bracket depth so `;` inside closures/blocks doesn't cut the
/// chain short.
pub(crate) fn statement_end(toks: &[Tok], from: usize) -> usize {
    let mut depth = 0i64;
    for (i, t) in toks.iter().enumerate().skip(from) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" => depth -= 1,
                "}" => {
                    depth -= 1;
                    if depth < 0 {
                        return i;
                    }
                }
                ";" if depth <= 0 => return i,
                _ => {}
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// The start of the statement containing `idx`: just past the previous
/// top-level `;`, `{` or `}`.
pub(crate) fn statement_start(toks: &[Tok], idx: usize) -> usize {
    let mut depth = 0i64;
    for i in (0..idx).rev() {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                ")" | "]" | "}" => depth += 1,
                "(" | "[" => depth -= 1,
                "{" => {
                    depth -= 1;
                    if depth < 0 {
                        return i + 1;
                    }
                }
                ";" if depth <= 0 => return i + 1,
                _ => {}
            }
        }
    }
    0
}

fn finding(rule: &str, rel_path: &str, tok: &Tok, message: String) -> Finding {
    Finding {
        rule: rule.to_owned(),
        path: rel_path.to_owned(),
        line: tok.line,
        col: tok.col,
        message,
    }
}

/// Rule 1: `nondet-iter`.
fn check_nondet_iter(ctx: &FileContext, findings: &mut Vec<Finding>) {
    let toks = ctx.toks;
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test(i) {
            continue;
        }
        // (a) Iterator chains: `h.iter()/keys()/values()/...` on a known
        // hash-typed identifier.
        let chain = t.kind == TokKind::Ident
            && ctx.hash_idents.contains(&t.text)
            && ctx.punct_at(i + 1, ".")
            && toks.get(i + 2).is_some_and(|m| {
                m.kind == TokKind::Ident && ITER_METHODS.contains(&m.text.as_str())
            })
            && ctx.punct_at(i + 3, "(");
        if chain {
            let end = statement_end(toks, i);
            if let Some(sink) = region_has_sink(toks, i + 3, end) {
                let (_, fn_end) = ctx.enclosing_fn(i);
                let sorted_later = toks[i..=fn_end.min(toks.len() - 1)].iter().any(is_sortish);
                if !sorted_later {
                    findings.push(finding(
                        "nondet-iter",
                        ctx.rel_path,
                        t,
                        format!(
                            "`{}.{}()` iterates a hash-ordered collection into `{}` without \
                             a subsequent sort; hash iteration order is nondeterministic",
                            t.text,
                            toks[i + 2].text,
                            sink_name(toks, sink)
                        ),
                    ));
                }
            }
        }
        // (b) `for ... in <expr mentioning a hash ident> { body }`.
        if t.kind == TokKind::Ident && t.text == "for" {
            // Header: tokens up to the loop's opening brace.
            let mut open = None;
            for (k, u) in toks.iter().enumerate().skip(i + 1) {
                match u.text.as_str() {
                    "{" => {
                        open = Some(k);
                        break;
                    }
                    ";" => break, // not a loop (e.g. `for` inside a type)
                    _ => {}
                }
            }
            let Some(open) = open else { continue };
            let header_hash = toks[i + 1..open]
                .iter()
                .any(|u| u.kind == TokKind::Ident && (ctx.hash_idents.contains(&u.text)));
            if !header_hash {
                continue;
            }
            let close = match_brace(toks, open);
            if let Some(sink) = region_has_sink(toks, open, close) {
                let (_, fn_end) = ctx.enclosing_fn(i);
                let sorted_later = toks[i..=fn_end.min(toks.len() - 1)].iter().any(is_sortish);
                if !sorted_later {
                    findings.push(finding(
                        "nondet-iter",
                        ctx.rel_path,
                        t,
                        format!(
                            "`for` loop over a hash-ordered collection feeds `{}` without \
                             a subsequent sort; hash iteration order is nondeterministic",
                            sink_name(toks, sink)
                        ),
                    ));
                }
            }
        }
    }
}

/// Rule 2: `unseeded-rng`.
fn check_unseeded_rng(ctx: &FileContext, findings: &mut Vec<Finding>) {
    const ENTROPY: [&str; 4] = ["thread_rng", "from_entropy", "from_os_rng", "OsRng"];
    for t in ctx.toks {
        if t.kind == TokKind::Ident && ENTROPY.contains(&t.text.as_str()) {
            findings.push(finding(
                "unseeded-rng",
                ctx.rel_path,
                t,
                format!(
                    "`{}` draws OS entropy; all randomness must flow from explicit seeds \
                     (the simulator's seeded entry points are the only sanctioned source)",
                    t.text
                ),
            ));
        }
    }
}

/// Paths where wall-clock reads are sanctioned: the timing layer, the
/// recommender's timing blocks, the observability layer's production clock
/// (every other obs timestamp flows through the injected `Clock`), and the
/// bench binaries/benches (they only measure, never feed results).
fn wall_clock_allowed(rel_path: &str) -> bool {
    rel_path == "crates/core/src/timing.rs"
        || rel_path == "crates/core/src/recommender.rs"
        || rel_path == "crates/obs/src/clock.rs"
        || rel_path.starts_with("crates/bench/src/bin/")
        || rel_path.starts_with("crates/bench/benches/")
}

/// Rule 3: `wall-clock`.
fn check_wall_clock(ctx: &FileContext, findings: &mut Vec<Finding>) {
    if wall_clock_allowed(ctx.rel_path) {
        return;
    }
    let toks = ctx.toks;
    for (i, t) in toks.iter().enumerate() {
        let clock = t.kind == TokKind::Ident && (t.text == "Instant" || t.text == "SystemTime");
        if clock
            && ctx.punct_at(i + 1, ":")
            && ctx.punct_at(i + 2, ":")
            && ctx.ident_at(i + 3, "now")
        {
            findings.push(finding(
                "wall-clock",
                ctx.rel_path,
                t,
                format!(
                    "`{}::now()` outside the timing layer; wall-clock reads belong in \
                     crates/core/src/timing.rs, recommender timing blocks or bench binaries",
                    t.text
                ),
            ));
        }
    }
}

/// Rule 4: `lib-unwrap`.
fn check_lib_unwrap(ctx: &FileContext, findings: &mut Vec<Finding>) {
    if !ctx.is_library {
        return;
    }
    let toks = ctx.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || ctx.in_test(i) {
            continue;
        }
        let method_call = i >= 1 && ctx.punct_at(i - 1, ".") && ctx.punct_at(i + 1, "(");
        match t.text.as_str() {
            "unwrap" | "expect" if method_call => {
                findings.push(finding(
                    "lib-unwrap",
                    ctx.rel_path,
                    t,
                    format!(
                        "`.{}()` in library code can panic; return a typed error \
                         (`PmrError`) or restructure to make the state impossible",
                        t.text
                    ),
                ));
            }
            "panic" if ctx.punct_at(i + 1, "!") => {
                findings.push(finding(
                    "lib-unwrap",
                    ctx.rel_path,
                    t,
                    "`panic!` in library code; return a typed error (`PmrError`) instead"
                        .to_owned(),
                ));
            }
            _ => {}
        }
    }
}

/// Rule 5: `float-order`.
fn check_float_order(ctx: &FileContext, findings: &mut Vec<Finding>) {
    let toks = ctx.toks;
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test(i) {
            continue;
        }
        let float_sum = t.kind == TokKind::Ident
            && (t.text == "sum" || t.text == "product")
            && i >= 1
            && ctx.punct_at(i - 1, ".")
            && ctx.punct_at(i + 1, ":")
            && ctx.punct_at(i + 2, ":")
            && ctx.punct_at(i + 3, "<")
            && toks.get(i + 4).is_some_and(|u| u.text == "f64" || u.text == "f32");
        if !float_sum {
            continue;
        }
        let start = statement_start(toks, i);
        let receiver = &toks[start..i];
        let hash_source = receiver.iter().enumerate().any(|(k, u)| {
            u.kind == TokKind::Ident
                && (ctx.hash_idents.contains(&u.text)
                    || ((u.text == "values" || u.text == "keys")
                        && k >= 1
                        && receiver[k - 1].text == "."))
        });
        let sorted_before = receiver.iter().any(is_sortish);
        if hash_source && !sorted_before {
            findings.push(finding(
                "float-order",
                ctx.rel_path,
                t,
                format!(
                    "`.{}::<{}>()` accumulates floats in hash-iteration order; float \
                     addition is not associative — sort the values first",
                    t.text,
                    toks[i + 4].text
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_source;

    const LIB: &str = "crates/fake/src/lib.rs";

    fn rules_of(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn lib_unwrap_flags_method_calls_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   fn g(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
        let f = lint_source(LIB, src);
        assert_eq!(rules_of(&f), ["lib-unwrap"]);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn lib_unwrap_skips_test_modules_and_binaries() {
        let src = "#[cfg(test)]\nmod tests {\n fn f(x: Option<u32>) -> u32 { x.unwrap() }\n}\n";
        assert!(lint_source(LIB, src).is_empty());
        let bin = "fn main() { std::env::args().next().unwrap(); }";
        assert!(lint_source("crates/fake/src/bin/tool.rs", bin).is_empty());
        assert!(lint_source("crates/fake/tests/integration.rs", bin).is_empty());
    }

    #[test]
    fn wall_clock_respects_the_allowlist() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(rules_of(&lint_source(LIB, src)), ["wall-clock"]);
        assert!(lint_source("crates/core/src/timing.rs", src).is_empty());
        assert!(lint_source("crates/obs/src/clock.rs", src).is_empty());
        assert!(lint_source("crates/bench/src/bin/calibrate.rs", src).is_empty());
    }

    #[test]
    fn unseeded_rng_is_flagged_everywhere() {
        let src = "fn f() { let mut rng = rand::thread_rng(); }";
        assert_eq!(rules_of(&lint_source(LIB, src)), ["unseeded-rng"]);
        let seeded = "fn f() { let mut rng = StdRng::seed_from_u64(7); }";
        assert!(lint_source(LIB, seeded).is_empty());
    }

    #[test]
    fn nondet_iter_flags_unsorted_push() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: HashMap<u32, f64>) -> Vec<u32> {\n\
                       let mut out = Vec::new();\n\
                       for k in m.keys() { out.push(*k); }\n\
                       out\n\
                   }\n";
        assert_eq!(rules_of(&lint_source(LIB, src)), ["nondet-iter"]);
    }

    #[test]
    fn nondet_iter_accepts_a_subsequent_sort() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: HashMap<u32, f64>) -> Vec<u32> {\n\
                       let mut out = Vec::new();\n\
                       for k in m.keys() { out.push(*k); }\n\
                       out.sort();\n\
                       out\n\
                   }\n";
        assert!(lint_source(LIB, src).is_empty());
    }

    #[test]
    fn float_order_flags_hash_values_sum() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: HashMap<u32, f64>) -> f64 { m.values().sum::<f64>() }\n";
        let findings = lint_source(LIB, src);
        let rules = rules_of(&findings);
        assert!(rules.contains(&"float-order"), "got {rules:?}");
    }

    #[test]
    fn float_order_ignores_slices() {
        let src = "fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }";
        assert!(lint_source(LIB, src).is_empty());
    }

    #[test]
    fn suppression_with_justification_silences() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   // pmr-lint: allow(lib-unwrap): guarded by caller invariant\n\
                   x.unwrap()\n\
                   }\n";
        assert!(lint_source(LIB, src).is_empty());
    }

    #[test]
    fn bare_suppression_is_itself_a_finding() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   // pmr-lint: allow(lib-unwrap)\n\
                   x.unwrap()\n\
                   }\n";
        let findings = lint_source(LIB, src);
        let rules = rules_of(&findings);
        assert!(rules.contains(&"bare-allow"), "got {rules:?}");
    }
}
