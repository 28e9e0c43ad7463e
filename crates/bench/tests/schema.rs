//! Every committed `BENCH_*.json` at the repository root opens with the
//! header `dg_bench::Record` writes: `bench` (a target under
//! `benches/`), `quick: false`, `cores` (an integer ≥ 1), `commit` (a
//! string) and `description`, in that order.

use std::path::Path;

#[test]
fn committed_records_share_the_record_header() {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = crate_dir.join("../..");
    let mut records: Vec<_> = std::fs::read_dir(&root)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            let name = path.file_name().unwrap().to_string_lossy();
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .collect();
    records.sort();
    assert!(!records.is_empty(), "no BENCH_*.json at {}", root.display());

    for path in records {
        let text = std::fs::read_to_string(&path).unwrap();
        let file = path.file_name().unwrap().to_string_lossy();
        // Top-level fields are the lines indented by exactly two spaces.
        let fields: Vec<(&str, &str)> = text
            .lines()
            .filter_map(|line| line.strip_prefix("  \""))
            .filter_map(|line| line.split_once("\": "))
            .collect();
        let keys: Vec<&str> = fields.iter().take(5).map(|(k, _)| *k).collect();
        assert_eq!(
            keys,
            ["bench", "quick", "cores", "commit", "description"],
            "{file}: header fields"
        );
        let value = |i: usize| fields[i].1.trim_end_matches(',');

        let bench = value(0).trim_matches('"');
        assert!(
            crate_dir.join(format!("benches/{bench}.rs")).is_file(),
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
