//! Drivers for the persistent image store's CLI surface: `valign pack`
//! (pre-populate a store directory with every replay image of the
//! standard evaluation matrix) and `valign verify-image` (walk a
//! directory, climbing the full integrity ladder for every file).
//!
//! Packing is the cold half of the warm-start story: run it once (or in a
//! CI cache step) and every later `valign run --store-dir` or
//! `valign all --store-dir` starts from verified disk images instead of
//! re-tracing and re-compiling the matrix.

use crate::sim::{ImageProvenance, TraceKey, TraceStore};
use crate::workload::KernelId;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use valign_kernels::util::Variant;
use valign_store::{StoreDir, StoreError, VerifyReport};

/// The standard evaluation matrix: every kernel × variant at the given
/// workload parameters — the same 33 keys `valign run` replays across the
/// Table II configurations.
pub fn matrix_keys(execs: usize, seed: u64) -> Vec<TraceKey> {
    let mut keys = Vec::with_capacity(KernelId::ALL.len() * Variant::ALL.len());
    for &kernel in KernelId::ALL {
        for &variant in Variant::ALL {
            keys.push(TraceKey {
                kernel,
                variant,
                execs,
                seed,
            });
        }
    }
    keys
}

/// One packed (or already-present) image file.
#[derive(Debug, Clone)]
pub struct PackEntry {
    /// The workload key.
    pub key: TraceKey,
    /// Its content hash (the file name stem).
    pub hash: u64,
    /// Records in the packed image.
    pub records: usize,
    /// File size on disk.
    pub bytes: u64,
    /// True when a verified file already existed and was reused; false
    /// when this pack built (or rebuilt) the image.
    pub packed_now: bool,
}

/// The result of one `valign pack` run.
#[derive(Debug, Clone)]
pub struct PackReport {
    /// The store directory.
    pub root: PathBuf,
    /// Per-key entries, in [`matrix_keys`] order.
    pub entries: Vec<PackEntry>,
    /// Files rebuilt because an existing file failed the integrity
    /// ladder.
    pub rebuilt: usize,
    /// Wall time of the whole pack.
    pub wall: Duration,
}

impl PackReport {
    /// Entries written by this run (disk misses and rebuilds).
    pub fn packed_now(&self) -> usize {
        self.entries.iter().filter(|e| e.packed_now).count()
    }

    /// Entries that were already present and verified.
    pub fn reused(&self) -> usize {
        self.entries.len() - self.packed_now()
    }

    /// Total bytes across all entries.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    /// Human-readable per-file table plus a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "store dir: {}", self.root.display());
        for e in &self.entries {
            let _ = writeln!(
                out,
                "{:<24} {:016x}.vimg  {:>8} records  {:>9} bytes  {}",
                format!("{}.{}", e.key.kernel.label(), e.key.variant.label()),
                e.hash,
                e.records,
                e.bytes,
                if e.packed_now { "packed" } else { "cached" },
            );
        }
        let _ = writeln!(
            out,
            "packed {} images ({} new, {} already present, {} rebuilt after corruption, {} bytes) in {:.2?}",
            self.entries.len(),
            self.packed_now(),
            self.reused(),
            self.rebuilt,
            self.total_bytes(),
            self.wall,
        );
        out
    }
}

/// Packs the standard evaluation matrix into the store at `root`:
/// materializes every kernel × variant image through a disk-backed
/// [`TraceStore`] (so already-present verified files are reused, corrupt
/// ones quarantined and rebuilt) on `threads` workers
/// ([`TraceStore::prepared_all`]), then stats every file it now
/// guarantees on disk.
pub fn pack(
    root: impl Into<PathBuf>,
    execs: usize,
    seed: u64,
    threads: usize,
) -> Result<PackReport, StoreError> {
    let root = root.into();
    let store = TraceStore::with_disk(&root)?;
    let keys = matrix_keys(execs, seed);
    let started = Instant::now();
    let prepared = store.prepared_all(&keys, threads);
    let wall = started.elapsed();

    let dir = store.disk().expect("pack store always has a disk tier");
    let mut entries = Vec::with_capacity(keys.len());
    let mut rebuilt = 0usize;
    for (key, prepared) in keys.into_iter().zip(prepared) {
        if matches!(prepared.provenance, ImageProvenance::DiskRebuilt { .. }) {
            rebuilt += 1;
        }
        let hash = key.content_hash();
        let path = dir.path_for(hash);
        // The store writes back best-effort; pack is the command whose
        // contract is "the files exist afterwards", so verify that here.
        let bytes = std::fs::metadata(&path)
            .map_err(|e| StoreError::Io {
                path: path.display().to_string(),
                detail: format!("packed image missing: {e}"),
            })?
            .len();
        entries.push(PackEntry {
            key,
            hash,
            records: prepared.image.len(),
            bytes,
            packed_now: prepared.provenance != ImageProvenance::DiskLoaded,
        });
    }
    Ok(PackReport {
        root,
        entries,
        rebuilt,
        wall,
    })
}

/// Walks the store at `root` (which must exist) and verifies every image
/// file — the engine of `valign verify-image`.
pub fn verify_image(root: impl Into<PathBuf>) -> Result<VerifyReport, StoreError> {
    StoreDir::open(root.into())?.verify()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("valign-storeops-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn pack_writes_the_matrix_and_is_idempotent() {
        let root = scratch("pack");
        let cold = pack(&root, 2, 7, 4).expect("cold pack");
        assert_eq!(cold.entries.len(), KernelId::ALL.len() * Variant::ALL.len());
        assert_eq!(cold.packed_now(), cold.entries.len(), "all new on cold run");
        assert_eq!(cold.rebuilt, 0);
        assert!(cold.total_bytes() > 0);

        let warm = pack(&root, 2, 7, 4).expect("warm pack");
        assert_eq!(warm.packed_now(), 0, "second pack reuses every file");
        assert_eq!(warm.reused(), cold.entries.len());
        assert_eq!(warm.total_bytes(), cold.total_bytes());

        // The verify walk agrees file-for-file.
        let report = verify_image(&root).expect("verify");
        assert_eq!(report.verdicts.len(), cold.entries.len());
        assert!(report.all_ok());

        // Corrupt one file: the next pack heals it and says so.
        let path = root.join(StoreDir::file_name(cold.entries[0].hash));
        let mut bytes = std::fs::read(&path).expect("read");
        valign_store::sabotage_file_bytes(&mut bytes, 3);
        std::fs::write(&path, &bytes).expect("corrupt");
        let healed = pack(&root, 2, 7, 2).expect("healing pack");
        assert_eq!(healed.rebuilt, 1);
        assert_eq!(healed.packed_now(), 1);
        assert!(verify_image(&root).expect("verify").all_ok());
        std::fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn verify_image_requires_an_existing_directory() {
        let root = scratch("noexist");
        assert!(matches!(verify_image(&root), Err(StoreError::Io { .. })));
    }

    #[test]
    fn render_names_every_entry() {
        let root = scratch("render");
        let report = pack(&root, 2, 7, 2).expect("pack");
        let text = report.render();
        assert_eq!(text.matches(".vimg").count(), report.entries.len());
        assert!(
            text.contains("packed 33 images (33 new, 0 already present"),
            "{text}"
        );
        std::fs::remove_dir_all(&root).expect("cleanup");
    }
}
