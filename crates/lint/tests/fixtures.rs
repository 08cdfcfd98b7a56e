//! Fixture-driven end-to-end tests: one deliberately violating, one clean
//! and one suppressed source per rule, linted under a library-looking path.
//! The fixtures live in `tests/fixtures/`, a directory `workspace_files`
//! deliberately skips so the live workspace stays `--deny-all`-clean.

use std::path::Path;

use pmr_lint::{
    analyze_source, find_workspace_root, lint_source, lint_workspace, rel_path, workspace_files,
    Finding,
};

/// A path the linter treats as library code (every rule active).
const LIB_PATH: &str = "crates/fixture/src/lib.rs";

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

fn rules_of(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule.as_str()).collect()
}

/// Assert the positive fixture trips `rule`, and that the negative and
/// suppressed variants lint completely clean.
fn check_rule(rule: &str, stem: &str) {
    let positive = lint_source(LIB_PATH, &fixture(&format!("{stem}_positive.rs")));
    assert!(
        rules_of(&positive).contains(&rule),
        "{stem}_positive.rs must trip {rule}, got {positive:?}"
    );
    let negative = lint_source(LIB_PATH, &fixture(&format!("{stem}_negative.rs")));
    assert!(negative.is_empty(), "{stem}_negative.rs must be clean, got {negative:?}");
    let suppressed = lint_source(LIB_PATH, &fixture(&format!("{stem}_suppressed.rs")));
    assert!(suppressed.is_empty(), "{stem}_suppressed.rs must be clean, got {suppressed:?}");
}

#[test]
fn nondet_iter_fixtures() {
    check_rule("nondet-iter", "nondet_iter");
}

/// A float accumulated with `+=` in hash order is a sink; integer counting
/// in the same loop shape is not.
#[test]
fn nondet_iter_flags_float_compound_assignment_only() {
    let positive = lint_source(LIB_PATH, &fixture("nondet_iter_float_sum_positive.rs"));
    assert!(
        positive.iter().any(|f| f.rule == "nondet-iter" && f.message.contains("`+=`")),
        "a hash-ordered `ll += ln_gamma(..)` must trip nondet-iter, got {positive:?}"
    );
    let negative = lint_source(LIB_PATH, &fixture("nondet_iter_int_count_negative.rs"));
    assert!(negative.is_empty(), "integer counting must stay clean, got {negative:?}");
}

#[test]
fn unseeded_rng_fixtures() {
    check_rule("unseeded-rng", "unseeded_rng");
}

#[test]
fn wall_clock_fixtures() {
    check_rule("wall-clock", "wall_clock");
}

#[test]
fn lib_unwrap_fixtures() {
    check_rule("lib-unwrap", "lib_unwrap");
}

#[test]
fn float_order_fixtures() {
    check_rule("float-order", "float_order");
}

#[test]
fn blocking_under_lock_fixtures() {
    check_rule("blocking-under-lock", "blocking_under_lock");
}

#[test]
fn lock_order_cycle_fixtures() {
    check_rule("lock-order-cycle", "lock_order_cycle");
}

#[test]
fn channel_cycle_fixtures() {
    check_rule("channel-cycle", "channel_cycle");
}

#[test]
fn nondet_flow_fixtures() {
    check_rule("nondet-flow", "nondet_flow");
}

/// The cross-function gap the taint pass exists to close: the iteration
/// and the serialization live in different fns, so the per-statement
/// `nondet-iter` rule stays silent — only `nondet-flow` connects them
/// through the call graph.
#[test]
fn nondet_flow_catches_the_hop_nondet_iter_misses() {
    let findings = lint_source(LIB_PATH, &fixture("nondet_flow_positive.rs"));
    let rules = rules_of(&findings);
    assert!(rules.contains(&"nondet-flow"), "the flow pass must fire: {findings:?}");
    assert!(
        !rules.contains(&"nondet-iter"),
        "the per-statement rule must stay silent on the split version: {findings:?}"
    );
}

/// The wall-clock positive fixture is sanctioned inside the timing layer —
/// the same source, a different path, no finding.
#[test]
fn wall_clock_fixture_is_clean_in_the_timing_layer() {
    let src = fixture("wall_clock_positive.rs");
    assert!(lint_source("crates/core/src/timing.rs", &src).is_empty());
    assert!(lint_source("crates/bench/src/bin/calibrate.rs", &src).is_empty());
}

/// The violating fixtures are panic/determinism hazards on a library path,
/// but the same code is fine in an integration test or binary (except the
/// rules that apply everywhere).
#[test]
fn lib_unwrap_fixture_is_clean_outside_library_code() {
    let src = fixture("lib_unwrap_positive.rs");
    assert!(lint_source("crates/fixture/tests/it.rs", &src).is_empty());
    assert!(lint_source("crates/fixture/src/bin/tool.rs", &src).is_empty());
}

/// Parser round trip over every workspace `.rs` file plus the fixtures:
/// the item parser never panics, and every recovered span stays inside
/// the file's token stream.
#[test]
fn parser_round_trips_the_whole_workspace() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(here).expect("workspace root exists");
    let mut paths = workspace_files(&root);
    let fixture_dir = here.join("tests/fixtures");
    let mut fixtures: Vec<_> = std::fs::read_dir(&fixture_dir)
        .expect("fixture dir exists")
        .flatten()
        .map(|e| e.path())
        .collect();
    fixtures.sort();
    paths.extend(fixtures);
    let mut fns_seen = 0usize;
    for path in paths {
        let source = std::fs::read_to_string(&path).expect("workspace file reads");
        let rel = rel_path(&root, &path);
        let analysis = analyze_source(&rel, &source); // must not panic
        let n_toks = analysis.lexed.toks.len();
        for f in &analysis.parsed.fns {
            fns_seen += 1;
            assert!(f.sig_start < n_toks, "{rel}: fn `{}` sig token in bounds", f.name);
            if let Some((open, close)) = f.body {
                assert!(open <= close, "{rel}: fn `{}` body open <= close", f.name);
                assert!(close < n_toks, "{rel}: fn `{}` body close in bounds", f.name);
            }
            for c in &f.calls {
                assert!(c.tok < n_toks, "{rel}: call `{}` token in bounds", c.name);
            }
        }
        for field in &analysis.parsed.fields {
            assert!(!field.owner.is_empty(), "{rel}: field `{}` has an owner", field.name);
        }
    }
    assert!(fns_seen > 500, "the workspace parse recovered {fns_seen} fns — suspiciously few");
}

/// The contract CI enforces with `--deny-all`: the live workspace has no
/// findings — every violation has been fixed or carries a justified allow.
#[test]
fn live_workspace_is_clean() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(here).expect("workspace root exists");
    let findings = lint_workspace(&root);
    assert!(
        findings.is_empty(),
        "the workspace must lint clean under --deny-all; fix or add a justified \
         `// pmr-lint: allow(...)` for each of:\n{findings:#?}"
    );
}
