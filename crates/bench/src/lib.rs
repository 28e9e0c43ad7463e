//! Shared code of the `benches/` targets, each a plain `harness = false`
//! binary (the build environment has no access to crates.io, so no
//! criterion).
//!
//! Every target times one perf-trajectory question and writes its
//! measurements through [`Record`], one `BENCH_<name>.json` schema with
//! a shared header; `tests/schema.rs` holds each target to a committed
//! record. [`quick_mode`] (`DG_BENCH_QUICK=1`) shrinks every target to
//! a seconds-long smoke run, and t20/t21 time their off-switch guards
//! with [`guard_overhead`]. The paper's experiments themselves are
//! reproduced once, by `dg-experiments`.

#![warn(missing_docs)]

use std::fmt::{self, Display, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

use dg_edge_meg::SparseTwoStateEdgeMeg;
use dynagraph::{DynAdjacency, EdgeDelta, EvolvingGraph};

/// `true` when the `DG_BENCH_QUICK` environment variable is set
/// (non-empty, not `"0"`): benches shrink their problem sizes, so CI
/// can smoke-test every bench target in seconds instead of minutes.
pub fn quick_mode() -> bool {
    std::env::var("DG_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Cores available to the bench process — recorded in every
/// `BENCH_*.json` so a reader knows which machine shape produced it.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

/// The source revision a bench ran on, as `git describe --always
/// --dirty` reports it for this checkout (`-dirty` marks uncommitted
/// changes); `"unknown"` outside a git checkout. Recorded in
/// `BENCH_*.json` next to [`cores`].
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// `s` as a JSON string literal: quoted, with `"`, `\` and control
/// characters escaped.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A value a [`Record`] row can hold, written as JSON: integers and
/// bools as printed, `f64` in shortest round-trip form, strings quoted
/// and escaped, `None` and non-finite floats as `null`, vectors as
/// one-line arrays.
pub trait Value {
    /// Appends `self` as JSON to `out`.
    fn write_json(&self, out: &mut String);
}

macro_rules! display_value {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_value!(bool, u32, u64, usize);

impl Value for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl Value for str {
    fn write_json(&self, out: &mut String) {
        out.push_str(&quote(self));
    }
}

impl<T: Value + ?Sized> Value for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Value> Value for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Value> Value for Vec<T> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

/// An `f64` printed to a fixed number of decimals; see [`fixed`].
#[derive(Debug, Clone, Copy)]
pub struct Fixed(f64, usize);

/// `value` printed to `digits` decimals (`null` when not finite).
pub fn fixed(value: f64, digits: usize) -> Fixed {
    Fixed(value, digits)
}

impl Value for Fixed {
    fn write_json(&self, out: &mut String) {
        match self {
            Fixed(v, digits) if v.is_finite() => {
                let _ = write!(out, "{v:.digits$}");
            }
            _ => out.push_str("null"),
        }
    }
}

/// JSON text written as is — for a field whose type varies by row.
#[derive(Debug, Clone)]
pub struct Raw(pub String);

impl Value for Raw {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.0);
    }
}

/// A one-line JSON object — a row, a section or a nested entry of a
/// [`Record`]; usually built with [`obj!`]. Keys print in the order
/// they are added.
#[derive(Debug, Clone, Default)]
pub struct Obj(String);

impl Obj {
    /// Appends `"key": value`.
    pub fn field<V: Value + ?Sized>(mut self, key: &str, value: &V) -> Self {
        if !self.0.is_empty() {
            self.0.push_str(", ");
        }
        self.0.push_str(&quote(key));
        self.0.push_str(": ");
        value.write_json(&mut self.0);
        self
    }
}

impl Value for Obj {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl Display for Obj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.0)
    }
}

/// Builds an [`Obj`] from `"key": value` pairs, in order; each value is
/// a [`Value`] (wrap a float in [`fixed`] to pin its decimals):
///
/// ```
/// use dg_bench::{fixed, obj};
/// let row = obj! {"n": 4096usize, "ms": fixed(1.0 / 3.0, 2), "model": "lane", "t": None::<u32>};
/// assert_eq!(row.to_string(), r#"{"n": 4096, "ms": 0.33, "model": "lane", "t": null}"#);
/// ```
#[macro_export]
macro_rules! obj {
    ($($key:literal: $value:expr),* $(,)?) => {{
        let obj = $crate::Obj::default();
        $(let obj = obj.field($key, &$value);)*
        obj
    }};
}

/// One bench target's machine-readable record, `BENCH_<name>.json`.
///
/// Every record opens with the same header — `bench` (the target),
/// `quick`, `cores` ([`cores`]), `commit` ([`commit`]) and
/// `description`, in that order — followed by the sections the bench
/// adds: one-line objects ([`Record::object`]), arrays of one-line rows
/// ([`Record::rows`]) and objects of named one-line entries
/// ([`Record::entries`]). [`Record::write`] has one rule: a full run
/// writes `BENCH_<name>.json` at the repository root, a
/// [`quick_mode`] run writes `target/BENCH_<name>_quick.json`, so quick
/// smokes never touch the source tree.
#[derive(Debug, Clone)]
pub struct Record {
    name: &'static str,
    quick: bool,
    /// Top-level `"key": value` lines, indented, without commas.
    lines: Vec<String>,
}

impl Record {
    /// A record of bench target `bench` (pass `env!("CARGO_CRATE_NAME")`)
    /// to be written as `BENCH_<name>.json`, with its header filled in
    /// from this run.
    pub fn new(bench: &str, name: &'static str, description: &str) -> Self {
        Self::with_header(bench, name, quick_mode(), cores(), &commit(), description)
    }

    fn with_header(
        bench: &str,
        name: &'static str,
        quick: bool,
        cores: usize,
        commit: &str,
        description: &str,
    ) -> Self {
        let lines = vec![
            format!("  \"bench\": {}", quote(bench)),
            format!("  \"quick\": {quick}"),
            format!("  \"cores\": {cores}"),
            format!("  \"commit\": {}", quote(commit)),
            format!("  \"description\": {}", quote(description)),
        ];
        Record { name, quick, lines }
    }

    /// Adds section `key`: one object on one line.
    pub fn object(mut self, key: &str, obj: Obj) -> Self {
        self.lines.push(format!("  {}: {obj}", quote(key)));
        self
    }

    /// Adds section `key`: an array with one row per line.
    pub fn rows(self, key: &str, rows: impl IntoIterator<Item = Obj>) -> Self {
        let items = rows.into_iter().map(|row| row.to_string());
        self.block(key, ('[', ']'), items)
    }

    /// Adds section `key`: an object with one named entry per line.
    pub fn entries<'a>(self, key: &str, entries: impl IntoIterator<Item = (&'a str, Obj)>) -> Self {
        let items = entries
            .into_iter()
            .map(|(k, obj)| format!("{}: {obj}", quote(k)));
        self.block(key, ('{', '}'), items)
    }

    fn block(
        mut self,
        key: &str,
        (open, close): (char, char),
        items: impl Iterator<Item = String>,
    ) -> Self {
        let items: Vec<String> = items.map(|item| format!("    {item}")).collect();
        self.lines.push(format!(
            "  {}: {open}\n{}\n  {close}",
            quote(key),
            items.join(",\n")
        ));
        self
    }

    /// The record as written: the header, then the sections in the
    /// order they were added.
    pub fn to_json(&self) -> String {
        format!("{{\n{}\n}}\n", self.lines.join(",\n"))
    }

    /// `BENCH_<name>.json` at the repository root, or
    /// `target/BENCH_<name>_quick.json` in quick mode.
    fn path(&self) -> PathBuf {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        if self.quick {
            root.join(format!("target/BENCH_{}_quick.json", self.name))
        } else {
            root.join(format!("BENCH_{}.json", self.name))
        }
    }

    /// Writes the record: `BENCH_<name>.json` at the repository root,
    /// or `target/BENCH_<name>_quick.json` in [`quick_mode`].
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written: a bench run that loses its
    /// record has failed.
    pub fn write(self) {
        let path = self.path();
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => panic!("could not write {}: {e}", path.display()),
        }
    }
}

/// Ceiling on [`Guard::ratio`] that t20 and t21 assert. A disabled
/// `dg-obs` timer and counter, or a disarmed `dg-fault` probe, is a
/// relaxed atomic load or two per ~microsecond round; anything past a
/// third of the round cost means the off-switch broke.
pub const GUARD_RATIO_MAX: f64 = 1.30;

/// What [`guard_overhead`] measured: min-over-reps nanoseconds per
/// round of the t13 delta-churn hot loop, raw and guarded. Print it as
/// its record section, [`Guard::row`].
#[derive(Debug, Clone, Copy)]
pub struct Guard {
    n: usize,
    q: f64,
    rounds: usize,
    reps: usize,
    raw_ns_per_round: f64,
    guarded_ns_per_round: f64,
    /// Guarded over raw time per round.
    pub ratio: f64,
}

impl Guard {
    /// The record section: sizes, both times, the ratio and
    /// `assert_max` ([`GUARD_RATIO_MAX`]).
    pub fn row(&self) -> Obj {
        obj! {
            "n": self.n, "q": self.q, "rounds": self.rounds, "reps": self.reps,
            "raw_ns_per_round": fixed(self.raw_ns_per_round, 1),
            "guarded_ns_per_round": fixed(self.guarded_ns_per_round, 1),
            "ratio": fixed(self.ratio, 4), "assert_max": GUARD_RATIO_MAX,
        }
    }
}

/// Times the t13 delta-churn hot loop (exact-scan edge-MEG stepping
/// plus incremental adjacency apply, `p = 1/n`) raw and with
/// `probe(churn)` called after every round, each as the min over reps
/// (min-time is the noise-robust statistic for a guard that must hold
/// on shared CI runners). The reps run as raw/guarded pairs on one
/// seed, and the pairs alternate which side runs first, so host drift
/// lands on both sides instead of on whichever block ran second.
/// Sizes: `n = 4096`, `q = 0.01`, 1500 rounds × 5 reps; in
/// [`quick_mode`] `n = 256`, `q = 0.05`, 300 rounds × 3. The caller
/// asserts the ratio and its probe's own invariants.
pub fn guard_overhead(seed: u64, mut probe: impl FnMut(usize)) -> Guard {
    let (n, q, rounds, reps) = if quick_mode() {
        (256, 0.05, 300, 3)
    } else {
        (4096, 0.01, 1_500, 5)
    };
    let (mut raw, mut guarded) = (f64::INFINITY, f64::INFINITY);
    for rep in 0..reps {
        let seed = seed + rep as u64;
        let raw_first = rep % 2 == 0;
        if raw_first {
            raw = raw.min(time_rounds(n, q, rounds, seed, |_| {}));
        }
        guarded = guarded.min(time_rounds(n, q, rounds, seed, &mut probe));
        if !raw_first {
            raw = raw.min(time_rounds(n, q, rounds, seed, |_| {}));
        }
    }
    Guard {
        n,
        q,
        rounds,
        reps,
        raw_ns_per_round: raw,
        guarded_ns_per_round: guarded,
        ratio: guarded / raw,
    }
}

/// The ns per round of `rounds` delta-churn rounds, after
/// [`SparseTwoStateEdgeMeg::FIRST_WINDOW`] untimed warm-up rounds: the
/// step that closes the exact scan's first window replays its `O(n²)`
/// pair scan, which would otherwise land in the timed loop and dilute
/// the ratio.
fn time_rounds(n: usize, q: f64, rounds: usize, seed: u64, mut probe: impl FnMut(usize)) -> f64 {
    let mut meg =
        SparseTwoStateEdgeMeg::stationary(n, 1.0 / n as f64, q, seed).expect("valid rates");
    let mut adj = DynAdjacency::new(n);
    let mut delta = EdgeDelta::new();
    for _ in 0..SparseTwoStateEdgeMeg::FIRST_WINDOW {
        meg.step_delta(&mut delta);
        adj.apply(&delta);
    }
    let start = Instant::now();
    for _ in 0..rounds {
        meg.step_delta(&mut delta);
        adj.apply(&delta);
        probe(delta.churn());
    }
    start.elapsed().as_nanos() as f64 / rounds as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_writes_the_header_then_sections_in_order() {
        let record = Record::with_header(
            "t00_demo",
            "demo",
            true,
            2,
            "abc1234-dirty",
            "a \"quoted\" \\ line\n",
        )
        .object("workload", obj! {"n": 48usize, "model": "lane"})
        .rows(
            "cells",
            [(1usize, 0.5), (2, f64::NAN)].map(|(i, y)| obj! {"i": i, "y": fixed(y, 2), "z": y}),
        )
        .entries(
            "named",
            [(
                "a",
                obj! {"v": vec![1u32, 2], "w": Raw("[]".into()), "t": None::<u32>},
            )],
        );
        let expected = r#"{
  "bench": "t00_demo",
  "quick": true,
  "cores": 2,
  "commit": "abc1234-dirty",
  "description": "a \"quoted\" \\ line\u000a",
  "workload": {"n": 48, "model": "lane"},
  "cells": [
    {"i": 1, "y": 0.50, "z": 0.5},
    {"i": 2, "y": null, "z": null}
  ],
  "named": {
    "a": {"v": [1, 2], "w": [], "t": null}
  }
}
"#;
        assert_eq!(record.to_json(), expected);
        assert!(record.path().ends_with("target/BENCH_demo_quick.json"));
        let full = Record::with_header("t00_demo", "demo", false, 1, "x", "");
        assert!(full.path().ends_with("../../BENCH_demo.json"));
    }
}
