//! Fuzzing of the two configuration parsers, `SweepSpec::from_json` and
//! `SweepReport::from_json`.
//!
//! Each case applies a few random edits — a number or string swapped
//! for a hostile token, a range deleted or duplicated, a token inserted
//! — to a valid spec or to a stored artifact of the golden corpus. An
//! edited artifact may also be re-signed: if its edited text still
//! parses as a spec, its embedded fingerprint is replaced by that
//! spec's, so configuration edits reach the checks behind the
//! fingerprint instead of stopping at it. The properties:
//!
//! - neither parser panics, and every rejection is a typed error
//!   (`Parse`, or `Mismatch` for an artifact of another sweep);
//! - text the spec parser rejects is never accepted as an artifact;
//! - every accepted input re-serializes to a fixed point;
//! - every accepted spec, an accepted artifact's included, passes
//!   `SweepSpec::from_json` again and rebuilds, grid and all, through
//!   the public constructors, which assert every rule the parsers
//!   check — so a rule a parser skips shows up as a panic here.
//!
//! No sweep ever runs from a fuzzed spec or budget: an accepted spec is
//! only turned into a `Sweep`, never run.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dg_sweep::{Axis, Grid, SweepError, SweepReport, SweepSpec};
use proptest::prelude::*;

/// Tokens an edit splices in: boundary integers, non-finite and
/// negative numbers, wrong-typed values and bare punctuation.
const TOKENS: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "-1",
    "-0",
    "0.5",
    "1e999",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "null",
    "true",
    "[]",
    "{}",
    "[1]",
    "\"\"",
    "\"n\"",
    "\"q\"",
    "\"observe\"",
    "{\"relative\": 0}",
    "{\"absolute\": -1}",
    ",",
    ":",
    "[",
    "}",
];

const GOLDEN: &[&str] = &[
    include_str!("golden/v1_pr4_capless.json"),
    include_str!("golden/v1_pr5_capped.json"),
    include_str!("golden/v1_checkpoint_partial.json"),
    include_str!("golden/v1_null_stats.json"),
    include_str!("golden/v2_multi_metric.json"),
];

/// Valid specs: every golden artifact's spec in canonical form, plus
/// the forgiving wire forms (defaults, a uniform cap, bare metric
/// names, an empty grid).
fn spec_seeds() -> Vec<String> {
    let mut seeds: Vec<String> = GOLDEN
        .iter()
        .map(|a| SweepReport::from_json(a).unwrap().spec().to_json())
        .collect();
    seeds.extend(
        [
            r#"{"axes": [{"name": "n", "values": [4, 8]}], "max_rounds": 500}"#,
            r#"{"axes": [{"name": "n", "values": [4, 8]}, {"name": "q", "values": [0.1, 0.2, 0.4]}],
                "base_seed": 7,
                "budget": {"min_trials": 2, "max_trials": 6, "ci_target": {"absolute": 0.5}},
                "metrics": ["rounds", {"name": "messages", "stopping": {"relative": 0.2}}],
                "max_rounds": [10, 20, 30, 40, 50, 60]}"#,
            r#"{"axes": [], "budget": {"min_trials": 1, "max_trials": 1, "ci_target": null}}"#,
        ]
        .map(String::from),
    );
    seeds
}

/// A byte range `(start, end)` of an edited text.
type Span = (usize, usize);

/// Byte spans of the number tokens and of the string literals (quotes
/// included) in `text`.
fn spans(text: &str) -> (Vec<Span>, Vec<Span>) {
    let b = text.as_bytes();
    let (mut numbers, mut strings) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < b.len() {
        let start = i;
        if b[i] == b'"' {
            i += 1;
            while i < b.len() && b[i] != b'"' {
                i += if b[i] == b'\\' { 2 } else { 1 };
            }
            i += 1;
            strings.push((start, i.min(b.len())));
        } else if b[i] == b'-' || b[i].is_ascii_digit() {
            while i < b.len() && matches!(b[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                i += 1;
            }
            numbers.push((start, i));
        } else {
            i += 1;
        }
    }
    (numbers, strings)
}

/// One edit: `(kind, position, length, token)`; see [`apply`].
type Edit = (u8, u32, usize, usize);

fn apply(text: &str, (kind, at, len, token): Edit) -> String {
    let token = TOKENS[token];
    let (numbers, strings) = spans(text);
    let pick = |spans: &[Span]| spans[at as usize % spans.len().max(1)];
    let (start, end) = match kind {
        0..=3 if !numbers.is_empty() => pick(&numbers),
        4 if !strings.is_empty() => pick(&strings),
        _ => {
            let start = at as usize % (text.len() + 1);
            (start, (start + len).min(text.len()))
        }
    };
    let (head, body, tail) = (&text[..start], &text[start..end], &text[end..]);
    match kind {
        // Swap a number (the likeliest edit), a string or a range for a
        // token; delete or duplicate a range; insert a token.
        0..=5 => format!("{head}{token}{tail}"),
        6 => format!("{head}{tail}"),
        7 => format!("{head}{body}{body}{tail}"),
        _ => format!("{head}{token}{body}{tail}"),
    }
}

fn edited(seed: &str, edits: &[Edit]) -> String {
    edits
        .iter()
        .fold(seed.to_string(), |text, &e| apply(&text, e))
}

/// Replaces the embedded fingerprint with that of the spec the edited
/// text parses to, when it parses to one.
fn resign(text: &str) -> String {
    let (Ok(spec), Some(at)) = (SweepSpec::from_json(text), text.find("\"fingerprint\": ")) else {
        return text.to_string();
    };
    let digits = at + "\"fingerprint\": ".len();
    let end = text[digits..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(text.len(), |i| digits + i);
    format!("{}{}{}", &text[..digits], spec.fingerprint(), &text[end..])
}

/// `spec` rebuilt through the asserting public constructors
/// (`Axis::explicit`, `Grid::axis`, `Grid::max_rounds`, `Grid::metrics`,
/// `SweepSpec::new`, `Sweep::budget`); panics on any broken rule.
fn rebuilt(spec: &SweepSpec) -> SweepSpec {
    let axes: Vec<Axis> = spec
        .axes()
        .iter()
        .map(|a| Axis::explicit(a.name(), a.values().to_vec()))
        .collect();
    let mut grid = axes.iter().cloned().fold(Grid::new(), Grid::axis);
    let mut out = SweepSpec::new(axes, spec.base_seed(), spec.budget());
    if let Some(caps) = spec.max_rounds() {
        grid = grid.max_rounds(|cell| caps[cell.id()]);
        out = out.with_max_rounds(caps.to_vec());
    }
    if let Some(metrics) = spec.metrics() {
        grid = grid.metrics(metrics.iter().cloned());
        out = out.with_metrics(metrics.to_vec());
    }
    assert_eq!(grid, spec.grid());
    let _ = out.sweep().budget(spec.budget());
    out
}

/// The properties every accepted spec keeps: its canonical form
/// re-parses to it and is a fixed point, and it rebuilds unchanged
/// through the public constructors. Builds a sweep; never runs one.
fn check_accepted_spec(spec: &SweepSpec) -> Result<(), TestCaseError> {
    let canonical = spec.to_json();
    let reparsed = SweepSpec::from_json(&canonical);
    prop_assert!(reparsed.is_ok(), "canonical form rejected:\n{canonical}");
    let reparsed = reparsed.unwrap();
    prop_assert_eq!(&reparsed, spec);
    prop_assert_eq!(reparsed.to_json(), canonical);
    prop_assert_eq!(reparsed.fingerprint(), spec.fingerprint());
    prop_assert_eq!(&rebuilt(spec), spec);
    Ok(())
}

/// Runs `check` and turns a panic into a failure naming the input.
fn no_panic(
    text: &str,
    check: impl FnOnce() -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    catch_unwind(AssertUnwindSafe(check))
        .unwrap_or_else(|_| Err(TestCaseError::Fail(format!("panicked on input:\n{text}"))))
}

fn check_spec(text: &str) -> Result<(), TestCaseError> {
    match SweepSpec::from_json(text) {
        Err(SweepError::Parse(_)) => Ok(()),
        Err(e) => Err(TestCaseError::Fail(format!(
            "untyped rejection {e:?}:\n{text}"
        ))),
        Ok(spec) => check_accepted_spec(&spec),
    }
}

fn check_artifact(text: &str) -> Result<(), TestCaseError> {
    let spec_ok = SweepSpec::from_json(text).is_ok();
    match SweepReport::from_json(text) {
        Err(SweepError::Parse(_) | SweepError::Mismatch(_)) => Ok(()),
        Err(e) => Err(TestCaseError::Fail(format!(
            "untyped rejection {e:?}:\n{text}"
        ))),
        Ok(report) => {
            prop_assert!(spec_ok, "artifact accepted, spec rejected:\n{text}");
            let json = report.to_json();
            let reloaded = SweepReport::from_json(&json);
            prop_assert!(reloaded.is_ok(), "re-serialization rejected:\n{json}");
            let reloaded = reloaded.unwrap();
            prop_assert_eq!(&reloaded, &report);
            prop_assert_eq!(reloaded.to_json(), json);
            prop_assert_eq!(report.spec().grid().cells().len(), report.cells().len());
            check_accepted_spec(report.spec())
        }
    }
}

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    prop::collection::vec((0u8..9, any::<u32>(), 0usize..24, 0..TOKENS.len()), 1..3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    #[test]
    fn edited_specs_parse_or_fail_typed(seed in 0..8usize, edits in edits()) {
        let seeds = spec_seeds();
        let text = edited(&seeds[seed % seeds.len()], &edits);
        no_panic(&text, || check_spec(&text))?;
    }

    #[test]
    fn edited_artifacts_parse_or_fail_typed(
        seed in 0..GOLDEN.len(),
        edits in edits(),
        resigned in any::<bool>(),
    ) {
        let mut text = edited(GOLDEN[seed], &edits);
        if resigned {
            text = resign(&text);
        }
        no_panic(&text, || check_artifact(&text))?;
    }
}

/// The fuzz must reach both sides of each parser: if nearly every
/// edited artifact were rejected, the fixed-point properties would hold
/// vacuously.
#[test]
fn edits_reach_accepted_and_rejected_inputs() {
    let mut rng = proptest::TestRng::for_case("edits_reach_accepted_and_rejected_inputs", 0);
    let strategy = edits();
    let (mut accepted, mut rejected) = ([0u32; 2], [0u32; 2]);
    let specs = spec_seeds();
    for i in 0..600 {
        let edits = strategy.generate(&mut rng);
        let spec = edited(&specs[i % specs.len()], &edits);
        let artifact = resign(&edited(GOLDEN[i % GOLDEN.len()], &edits));
        for (k, ok) in [
            SweepSpec::from_json(&spec).is_ok(),
            SweepReport::from_json(&artifact).is_ok(),
        ]
        .into_iter()
        .enumerate()
        {
            if ok {
                accepted[k] += 1;
            } else {
                rejected[k] += 1;
            }
        }
    }
    eprintln!("accepted {accepted:?}, rejected {rejected:?}");
    for k in 0..2 {
        assert!(
            accepted[k] >= 30 && rejected[k] >= 30,
            "parser {k}: {} accepted, {} rejected",
            accepted[k],
            rejected[k]
        );
    }
}
