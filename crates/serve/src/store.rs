//! The content-addressed artifact store.
//!
//! One sweep artifact lives at `store/<fingerprint>.json`, where the
//! filename is the decimal [`SweepReport::fingerprint`] of its contents
//! — the same identity [`SweepSpec::fingerprint`] computes before the
//! sweep runs, so a spec *names* its artifact without running anything.
//! The store keeps an in-memory index of per-artifact metadata (rebuilt
//! by scanning the directory on open) and serves the raw on-disk bytes,
//! never a re-serialization: what `GET /sweep/<fp>` returns is
//! byte-for-byte what `SweepReport::to_json` wrote.
//!
//! Two properties the daemon leans on:
//!
//! * **Writes are atomic and idempotent.** [`ArtifactStore::put`]
//!   writes to a unique temporary sibling and renames into place, so
//!   concurrent puts of the same artifact race benignly — both write
//!   identical bytes, rename is atomic, and the survivor is valid.
//! * **Corruption is quarantined, not fatal.** A file whose name is not
//!   a fingerprint, whose JSON does not parse, or whose recomputed
//!   fingerprint disagrees with its filename is moved to `quarantine/`
//!   during the open scan; the store comes up with everything else.
//!   Mid-run corruption gets the same treatment on demand:
//!   [`ArtifactStore::quarantine_fingerprint`] evicts a checkpoint that
//!   stopped parsing so the daemon can re-run its spec from scratch.
//! * **Transient I/O is retried, bounded.** Reads and writes pass
//!   through the `store.read.err` / `store.write.err` `dg-fault` sites
//!   and a deterministic [`dg_fault::retry`] loop, so an injected (or
//!   real) `Interrupted`-class error costs a bounded backoff, not an
//!   artifact.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use dg_sweep::{SweepError, SweepReport, SweepSpec};

/// Per-process counter making temporary file names unique under
/// concurrent puts.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Bounded attempts for store reads/writes hitting transient errors.
const IO_ATTEMPTS: u32 = 4;

/// Store failures: I/O around the directory, or artifact-layer errors
/// from parsing/serializing sweeps.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem error, with the path it happened on.
    Io(PathBuf, std::io::Error),
    /// The artifact layer rejected the bytes.
    Artifact(SweepError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(path, e) => write!(f, "store io error at {}: {e}", path.display()),
            StoreError::Artifact(e) => write!(f, "store artifact error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<SweepError> for StoreError {
    fn from(e: SweepError) -> Self {
        StoreError::Artifact(e)
    }
}

/// Indexed metadata for one stored artifact — everything `GET /sweeps`
/// reports without re-reading files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactMeta {
    /// The artifact's content address.
    pub fingerprint: u64,
    /// Whether every cell has met its budget (a `false` entry is an
    /// in-flight checkpoint, resumable to completion).
    pub complete: bool,
    /// Number of grid cells.
    pub cells: usize,
    /// Number of cells whose stopping rule has fired.
    pub decided_cells: usize,
    /// Trials recorded so far, across all cells.
    pub total_trials: usize,
    /// Axis names with their lengths, in declaration order.
    pub axes: Vec<(String, usize)>,
}

impl ArtifactMeta {
    fn of_report(fingerprint: u64, report: &SweepReport) -> Self {
        ArtifactMeta {
            fingerprint,
            complete: report.is_complete(),
            cells: report.cells().len(),
            decided_cells: report.cells().iter().filter(|c| c.decided).count(),
            total_trials: report.total_trials(),
            axes: report
                .spec()
                .axes()
                .iter()
                .map(|a| (a.name().to_string(), a.values().len()))
                .collect(),
        }
    }
}

/// The store: a root directory plus the in-memory index of what is in
/// it. All methods take `&self`; the index is internally synchronized,
/// so one store can be shared across the daemon's threads.
#[derive(Debug)]
pub struct ArtifactStore {
    store_dir: PathBuf,
    quarantine_dir: PathBuf,
    index: Mutex<BTreeMap<u64, ArtifactMeta>>,
}

impl ArtifactStore {
    /// The index lock, recovering from poisoning: the index is a cache
    /// of on-disk state, so a panicking holder cannot leave it less
    /// consistent than a process kill would — and kills are already
    /// handled by the open-time rescan.
    fn index(&self) -> MutexGuard<'_, BTreeMap<u64, ArtifactMeta>> {
        self.index.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Opens (creating if needed) the store under `root` and scans
    /// `root/store/*.json` into the index, quarantining anything that
    /// is not a well-formed artifact at its own fingerprint.
    pub fn open(root: impl AsRef<Path>) -> Result<Self, StoreError> {
        let root = root.as_ref();
        let store_dir = root.join("store");
        let quarantine_dir = root.join("quarantine");
        std::fs::create_dir_all(&store_dir).map_err(|e| StoreError::Io(store_dir.clone(), e))?;
        let store = ArtifactStore {
            store_dir: store_dir.clone(),
            quarantine_dir,
            index: Mutex::new(BTreeMap::new()),
        };
        let entries =
            std::fs::read_dir(&store_dir).map_err(|e| StoreError::Io(store_dir.clone(), e))?;
        for entry in entries {
            let path = entry
                .map_err(|e| StoreError::Io(store_dir.clone(), e))?
                .path();
            // Leftover temporaries from a killed writer are garbage by
            // construction; sweep them rather than quarantining.
            if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(".tmp-"))
            {
                let _ = std::fs::remove_file(&path);
                continue;
            }
            match store.admit(&path) {
                Ok(meta) => {
                    store.index().insert(meta.fingerprint, meta);
                }
                Err(_) => store.quarantine(&path)?,
            }
        }
        Ok(store)
    }

    /// Validates one file as an artifact stored at its own fingerprint.
    fn admit(&self, path: &Path) -> Result<ArtifactMeta, StoreError> {
        let named: u64 = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_suffix(".json"))
            .and_then(|stem| stem.parse().ok())
            .ok_or_else(|| {
                StoreError::Artifact(SweepError::Parse(format!(
                    "file name {:?} is not <fingerprint>.json",
                    path.file_name()
                )))
            })?;
        let text = dg_fault::retry(IO_ATTEMPTS, dg_fault::is_transient, || {
            dg_fault::io_check("store.read.err")?;
            std::fs::read_to_string(path)
        })
        .map_err(|e| StoreError::Io(path.to_path_buf(), e))?;
        let report = SweepReport::from_json(&text)?;
        if report.fingerprint() != named {
            return Err(StoreError::Artifact(SweepError::Parse(format!(
                "artifact named {named} has fingerprint {}",
                report.fingerprint()
            ))));
        }
        Ok(ArtifactMeta::of_report(named, &report))
    }

    /// Moves a rejected file into `quarantine/`, never overwriting an
    /// earlier quarantined file of the same name.
    fn quarantine(&self, path: &Path) -> Result<(), StoreError> {
        std::fs::create_dir_all(&self.quarantine_dir)
            .map_err(|e| StoreError::Io(self.quarantine_dir.clone(), e))?;
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "unnamed".to_string());
        let mut dest = self.quarantine_dir.join(&name);
        let mut attempt = 1u32;
        while dest.exists() {
            dest = self.quarantine_dir.join(format!("{name}.{attempt}"));
            attempt += 1;
        }
        std::fs::rename(path, &dest).map_err(|e| StoreError::Io(path.to_path_buf(), e))?;
        Ok(())
    }

    /// The canonical on-disk path of a fingerprint's artifact — where a
    /// checkpointing sweep should write so its partial states land in
    /// the store.
    pub fn path_for(&self, fingerprint: u64) -> PathBuf {
        self.store_dir.join(format!("{fingerprint}.json"))
    }

    /// Inserts an artifact: atomic write-via-rename at its fingerprint,
    /// then index update. Re-putting an already-stored artifact is
    /// idempotent, including concurrently.
    pub fn put(&self, report: &SweepReport) -> Result<ArtifactMeta, StoreError> {
        let fingerprint = report.fingerprint();
        let dest = self.path_for(fingerprint);
        let tmp = self.store_dir.join(format!(
            ".tmp-{fingerprint}-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        dg_fault::retry(IO_ATTEMPTS, dg_fault::is_transient, || {
            dg_fault::io_check("store.write.err")?;
            std::fs::write(&tmp, report.to_json())
        })
        .map_err(|e| StoreError::Io(tmp.clone(), e))?;
        if let Err(e) = std::fs::rename(&tmp, &dest) {
            let _ = std::fs::remove_file(&tmp);
            return Err(StoreError::Io(dest, e));
        }
        let meta = ArtifactMeta::of_report(fingerprint, report);
        self.index().insert(fingerprint, meta.clone());
        Ok(meta)
    }

    /// Re-reads a fingerprint's file from disk into the index — how the
    /// daemon picks up files a checkpointing [`dg_sweep::Sweep`] wrote
    /// directly at [`ArtifactStore::path_for`]. Returns `Ok(None)` when
    /// no such file exists; removes a vanished fingerprint from the
    /// index.
    pub fn refresh(&self, fingerprint: u64) -> Result<Option<ArtifactMeta>, StoreError> {
        let path = self.path_for(fingerprint);
        if !path.exists() {
            self.index().remove(&fingerprint);
            return Ok(None);
        }
        let meta = self.admit(&path)?;
        self.index().insert(fingerprint, meta.clone());
        Ok(Some(meta))
    }

    /// Evicts a fingerprint whose on-disk file went bad *mid-run* —
    /// the same move-to-`quarantine/` treatment the open scan applies,
    /// on demand. The index entry is dropped either way; returns
    /// whether a file was actually moved. After this the daemon can
    /// re-enqueue the spec and the re-run starts from a clean slate
    /// instead of tripping over the corrupt checkpoint forever.
    pub fn quarantine_fingerprint(&self, fingerprint: u64) -> Result<bool, StoreError> {
        self.index().remove(&fingerprint);
        let path = self.path_for(fingerprint);
        if !path.exists() {
            return Ok(false);
        }
        self.quarantine(&path)?;
        Ok(true)
    }

    /// The stored bytes of an artifact, exactly as on disk.
    pub fn get_raw(&self, fingerprint: u64) -> Result<Option<Vec<u8>>, StoreError> {
        if !self.index().contains_key(&fingerprint) {
            return Ok(None);
        }
        let path = self.path_for(fingerprint);
        let read = dg_fault::retry(IO_ATTEMPTS, dg_fault::is_transient, || {
            dg_fault::io_check("store.read.err")?;
            std::fs::read(&path)
        });
        match read {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StoreError::Io(path, e)),
        }
    }

    /// The parsed artifact.
    pub fn get(&self, fingerprint: u64) -> Result<Option<SweepReport>, StoreError> {
        match self.get_raw(fingerprint)? {
            None => Ok(None),
            Some(bytes) => {
                let text = String::from_utf8_lossy(&bytes);
                Ok(Some(SweepReport::from_json(&text)?))
            }
        }
    }

    /// The indexed metadata of one fingerprint.
    pub fn meta(&self, fingerprint: u64) -> Option<ArtifactMeta> {
        self.index().get(&fingerprint).cloned()
    }

    /// All indexed artifacts, ordered by fingerprint.
    pub fn list(&self) -> Vec<ArtifactMeta> {
        self.index().values().cloned().collect()
    }

    /// The specs of every *incomplete* stored artifact — the daemon's
    /// restart-resume worklist.
    pub fn incomplete_specs(&self) -> Result<Vec<SweepSpec>, StoreError> {
        let pending: Vec<u64> = self
            .index
            .lock()
            .unwrap()
            .values()
            .filter(|m| !m.complete)
            .map(|m| m.fingerprint)
            .collect();
        let mut specs = Vec::with_capacity(pending.len());
        for fp in pending {
            if let Some(report) = self.get(fp)? {
                specs.push(report.spec().clone());
            }
        }
        Ok(specs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_sweep::{Axis, TrialBudget};

    fn tmp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("dg_serve_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    fn small_report(seed: u64) -> SweepReport {
        SweepSpec::new(vec![Axis::ints("n", [4, 8])], seed, TrialBudget::fixed(2))
            .sweep()
            .run(|cell, trial| Some(cell.get("n") + (trial.seed % 3) as f64))
            .unwrap()
    }

    #[test]
    fn put_get_list_round_trip() {
        let root = tmp_root("roundtrip");
        let store = ArtifactStore::open(&root).unwrap();
        assert!(store.list().is_empty());
        let report = small_report(1);
        let meta = store.put(&report).unwrap();
        assert_eq!(meta.fingerprint, report.fingerprint());
        assert!(meta.complete);
        assert_eq!(meta.axes, vec![("n".to_string(), 2)]);
        let raw = store.get_raw(meta.fingerprint).unwrap().unwrap();
        assert_eq!(raw, report.to_json().into_bytes());
        assert_eq!(store.get(meta.fingerprint).unwrap().unwrap(), report);
        assert_eq!(store.list(), vec![meta]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn reopen_rebuilds_index_from_disk() {
        let root = tmp_root("reopen");
        let (fp1, fp2) = {
            let store = ArtifactStore::open(&root).unwrap();
            (
                store.put(&small_report(1)).unwrap().fingerprint,
                store.put(&small_report(2)).unwrap().fingerprint,
            )
        };
        let reopened = ArtifactStore::open(&root).unwrap();
        let listed: Vec<u64> = reopened.list().iter().map(|m| m.fingerprint).collect();
        let mut expected = vec![fp1, fp2];
        expected.sort_unstable();
        assert_eq!(listed, expected);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_and_misnamed_files_are_quarantined_not_fatal() {
        let root = tmp_root("quarantine");
        let store = ArtifactStore::open(&root).unwrap();
        let good = small_report(3);
        store.put(&good).unwrap();
        // Unparseable JSON, a wrong-name artifact, a non-fingerprint
        // name, and an orphaned temporary.
        std::fs::write(store.path_for(999), "{ not json").unwrap();
        std::fs::write(
            root.join("store").join("12345.json"),
            small_report(4).to_json(),
        )
        .unwrap();
        std::fs::write(root.join("store").join("notes.json"), "{}").unwrap();
        std::fs::write(root.join("store").join(".tmp-1-2-3"), "partial").unwrap();

        let reopened = ArtifactStore::open(&root).unwrap();
        let listed: Vec<u64> = reopened.list().iter().map(|m| m.fingerprint).collect();
        assert_eq!(listed, vec![good.fingerprint()]);
        let quarantined: Vec<String> = std::fs::read_dir(root.join("quarantine"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(quarantined.len(), 3, "{quarantined:?}");
        assert!(!root.join("store").join(".tmp-1-2-3").exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// `SweepSpec::fingerprint` of a metric-less, cap-less config with a
    /// fixed-style budget (no CI target), hashed by hand so a test can
    /// name a config that no constructor accepts.
    fn v1_fingerprint(axis: &str, values: &[f64], seed: u64, min: u64, max: u64) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01B3);
            }
        };
        eat(b"dg-sweep/1");
        eat(axis.as_bytes());
        eat(&[0]);
        for v in values {
            eat(&v.to_bits().to_le_bytes());
        }
        eat(&[1]);
        for word in [seed, min, max] {
            eat(&word.to_le_bytes());
        }
        eat(&[0]);
        h
    }

    #[test]
    fn incomplete_artifact_with_an_inverted_budget_is_quarantined_not_resumed() {
        let root = tmp_root("inverted_budget");
        // An incomplete artifact, as a killed daemon leaves one...
        let spec = SweepSpec::new(vec![Axis::ints("n", [4, 8])], 11, TrialBudget::fixed(2));
        assert_eq!(
            v1_fingerprint("n", &[4.0, 8.0], 11, 2, 2),
            spec.fingerprint()
        );
        let partial = spec
            .sweep()
            .threads(1)
            .run_budget(1)
            .run(|cell, _| Some(cell.get("n")))
            .unwrap();
        assert!(!partial.is_complete());
        // ...with min_trials 3 > max_trials 2 and the fingerprint to
        // match: resuming it would block the worker forever.
        let fp = v1_fingerprint("n", &[4.0, 8.0], 11, 3, 2);
        let json = partial
            .to_json()
            .replace("\"min_trials\": 2", "\"min_trials\": 3")
            .replace(
                &format!("\"fingerprint\": {}", spec.fingerprint()),
                &format!("\"fingerprint\": {fp}"),
            );
        assert!(json.contains("\"min_trials\": 3") && json.contains(&fp.to_string()));
        let store = ArtifactStore::open(&root).unwrap();
        std::fs::write(store.path_for(fp), json).unwrap();

        // A restart's store scan quarantines it, so restart-resume
        // queues nothing.
        let reopened = ArtifactStore::open(&root).unwrap();
        assert!(reopened.list().is_empty());
        assert!(reopened.incomplete_specs().unwrap().is_empty());
        assert!(!reopened.path_for(fp).exists());
        assert!(root.join("quarantine").join(format!("{fp}.json")).exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn mid_run_truncated_checkpoint_is_quarantined_and_rerun_converges() {
        let root = tmp_root("midrun_trunc");
        let store = ArtifactStore::open(&root).unwrap();
        let spec = SweepSpec::new(vec![Axis::ints("n", [4, 8])], 11, TrialBudget::fixed(2));
        let fp = spec.fingerprint();
        let trial_fn = |cell: &dg_sweep::Cell, trial: dg_sweep::Trial| {
            Some(cell.get("n") + (trial.seed % 3) as f64)
        };
        let clean = spec
            .sweep()
            .checkpoint(store.path_for(fp))
            .run(trial_fn)
            .unwrap();
        let clean_bytes = std::fs::read(store.path_for(fp)).unwrap();
        store.refresh(fp).unwrap().unwrap();

        // Disk goes bad mid-run: the checkpoint is cut in half. The
        // store notices on refresh, quarantines on demand, and a
        // from-scratch re-run restores byte-identical content.
        std::fs::write(store.path_for(fp), &clean_bytes[..clean_bytes.len() / 2]).unwrap();
        assert!(store.refresh(fp).is_err(), "truncated file must not admit");
        assert!(store.quarantine_fingerprint(fp).unwrap());
        assert_eq!(store.meta(fp), None);
        assert!(!store.path_for(fp).exists());
        assert!(root.join("quarantine").join(format!("{fp}.json")).exists());

        let rerun = spec
            .sweep()
            .checkpoint(store.path_for(fp))
            .run(trial_fn)
            .unwrap();
        assert_eq!(rerun, clean);
        assert_eq!(std::fs::read(store.path_for(fp)).unwrap(), clean_bytes);
        assert!(store.refresh(fp).unwrap().unwrap().complete);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn mid_run_garbled_checkpoint_is_quarantined_and_rerun_converges() {
        let root = tmp_root("midrun_garble");
        let store = ArtifactStore::open(&root).unwrap();
        let report = small_report(5);
        let fp = store.put(&report).unwrap().fingerprint;
        // Same length, flipped bytes: parses as garbage, not JSON.
        let mut bytes = std::fs::read(store.path_for(fp)).unwrap();
        for b in bytes.iter_mut().take(64) {
            *b ^= 0x5A;
        }
        std::fs::write(store.path_for(fp), &bytes).unwrap();
        assert!(store.refresh(fp).is_err(), "garbled file must not admit");
        assert!(store.quarantine_fingerprint(fp).unwrap());
        // Quarantining an already-evicted or never-stored fingerprint
        // is a clean no-op.
        assert!(!store.quarantine_fingerprint(fp).unwrap());
        assert!(!store.quarantine_fingerprint(424242).unwrap());
        // Re-put restores the artifact.
        let meta = store.put(&report).unwrap();
        assert_eq!(store.meta(fp), Some(meta));
        assert_eq!(
            store.get_raw(fp).unwrap().unwrap(),
            report.to_json().into_bytes()
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn refresh_tracks_checkpoint_files_written_in_place() {
        let root = tmp_root("refresh");
        let store = ArtifactStore::open(&root).unwrap();
        let spec = SweepSpec::new(vec![Axis::ints("n", [4, 8])], 9, TrialBudget::fixed(2));
        let fp = spec.fingerprint();
        assert_eq!(store.refresh(fp).unwrap(), None);
        // A checkpointing sweep writes directly at path_for(fp)...
        let report = spec
            .sweep()
            .checkpoint(store.path_for(fp))
            .run(|cell, trial| Some(cell.get("n") + (trial.seed % 3) as f64))
            .unwrap();
        assert_eq!(report.fingerprint(), fp);
        // ...and refresh picks it up.
        let meta = store.refresh(fp).unwrap().unwrap();
        assert!(meta.complete);
        assert_eq!(store.meta(fp), Some(meta));
        let _ = std::fs::remove_dir_all(&root);
    }
}
