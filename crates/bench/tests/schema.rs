//! Every committed `BENCH_*.json` at the repository root opens with the
//! header `dg_bench::Record` writes: `bench` (a target under
//! `benches/`), `quick: false`, `cores` (an integer ≥ 1), `commit` (a
//! string) and `description`, in that order. And every target under
//! `benches/` is named by exactly one such record: a bench that writes
//! no record has no place in the crate.

use std::path::{Path, PathBuf};

fn crate_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The committed records: (file name, text), sorted by name.
fn records() -> Vec<(String, String)> {
    let root = crate_dir().join("../..");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&root)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            let name = path.file_name().unwrap().to_string_lossy();
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no BENCH_*.json at {}", root.display());
    paths
        .into_iter()
        .map(|path| {
            let file = path.file_name().unwrap().to_string_lossy().into_owned();
            (file, std::fs::read_to_string(&path).unwrap())
        })
        .collect()
}

/// A record's top-level fields: the lines indented by exactly two
/// spaces, as (key, value without its trailing comma).
fn fields(text: &str) -> Vec<(&str, &str)> {
    text.lines()
        .filter_map(|line| line.strip_prefix("  \""))
        .filter_map(|line| line.split_once("\": "))
        .map(|(key, value)| (key, value.trim_end_matches(',')))
        .collect()
}

#[test]
fn committed_records_share_the_record_header() {
    for (file, text) in records() {
        let fields = fields(&text);
        let keys: Vec<&str> = fields.iter().take(5).map(|(k, _)| *k).collect();
        assert_eq!(
            keys,
            ["bench", "quick", "cores", "commit", "description"],
            "{file}: header fields"
        );
        let value = |i: usize| fields[i].1;

        let bench = value(0).trim_matches('"');
        assert!(
            crate_dir().join(format!("benches/{bench}.rs")).is_file(),
            "{file}: bench {bench:?} names no target in benches/"
        );
        assert_eq!(
            value(1),
            "false",
            "{file}: a committed record is a full run"
        );
        let cores: usize = value(2)
            .parse()
            .unwrap_or_else(|_| panic!("{file}: cores {:?} is not an integer", value(2)));
        assert!(cores >= 1, "{file}: cores must be at least 1");
        let commit = value(3);
        assert!(
            commit.len() > 2 && commit.starts_with('"') && commit.ends_with('"'),
            "{file}: commit {commit:?} is not a string"
        );
    }
}

#[test]
fn every_bench_target_has_one_committed_record() {
    let mut recorded: Vec<String> = records()
        .iter()
        .filter_map(|(_, text)| {
            let (key, value) = *fields(text).first()?;
            (key == "bench").then(|| value.trim_matches('"').to_string())
        })
        .collect();
    recorded.sort();
    let mut targets: Vec<String> = std::fs::read_dir(crate_dir().join("benches"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    targets.sort();
    assert_eq!(
        targets, recorded,
        "every benches/*.rs target must be named by the `bench` field of exactly one committed BENCH_*.json"
    );
}
