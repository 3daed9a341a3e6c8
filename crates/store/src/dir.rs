//! The content-addressed cache directory: one container file per image,
//! named by the 64-bit content hash of its trace key.
//!
//! Files are `{hash:016x}.vimg`. Writes are atomic *and durable*: a
//! unique temp file in the same directory is written, fsynced, then
//! renamed over the target, and the directory itself is fsynced so the
//! rename survives power loss. A concurrent loader sees either the
//! complete old file, the complete new file, or nothing — never a
//! half-written image; the format's integrity ladder backstops whatever
//! the filesystem does anyway. Files that *fail* that ladder are not
//! deleted but moved into a `quarantine/` subdirectory
//! ([`StoreDir::quarantine`]) so the corrupt bytes stay available for
//! post-mortem while the caller rebuilds from trace. The directory layer
//! never interprets the hash: key semantics (and the hash itself) live
//! with the caller.

use crate::format::{decode_file, decode_verified, encode_file, StoreError, StoredImage};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use valign_pipeline::{ReplayImage, VerifiedImage};

/// Extension of every image file in a store directory.
const EXTENSION: &str = "vimg";

/// Subdirectory that corrupt files are moved into instead of deleted.
const QUARANTINE_DIR: &str = "quarantine";

/// How an injected write fault fails a save — the fallible-writer shim
/// the chaos harness drives through [`StoreDir::save_with_fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The write fails outright before any byte lands (full or
    /// read-only disk model).
    Error,
    /// Only a prefix of the temp file hits the disk before the error (a
    /// torn write). The atomic rename discipline must keep the torn
    /// bytes invisible under the content-addressed name.
    Short,
}

/// Process-wide counter making concurrent temp-file names unique.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn io_err(path: &Path, e: &std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// A content-addressed image cache directory.
#[derive(Debug)]
pub struct StoreDir {
    root: PathBuf,
}

impl StoreDir {
    /// Opens `root` as a store directory, creating it (and parents) if
    /// absent.
    pub fn create(root: impl AsRef<Path>) -> Result<StoreDir, StoreError> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root).map_err(|e| io_err(&root, &e))?;
        Ok(StoreDir { root })
    }

    /// Opens an *existing* store directory; errors if `root` is not a
    /// directory (`verify-image` uses this so a typo'd path is a
    /// diagnostic, not a silently created empty store).
    pub fn open(root: impl AsRef<Path>) -> Result<StoreDir, StoreError> {
        let root = root.as_ref().to_path_buf();
        if !root.is_dir() {
            return Err(StoreError::Io {
                path: root.display().to_string(),
                detail: "not a directory".to_string(),
            });
        }
        Ok(StoreDir { root })
    }

    /// The directory path.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// File name of `hash`'s image.
    pub fn file_name(hash: u64) -> String {
        format!("{hash:016x}.{EXTENSION}")
    }

    /// Full path of `hash`'s image file (whether or not it exists).
    pub fn path_for(&self, hash: u64) -> PathBuf {
        self.root.join(Self::file_name(hash))
    }

    /// Loads and fully verifies the image stored for `hash`.
    /// [`StoreError::Missing`] is the clean miss; every other error means
    /// a file exists but cannot be trusted.
    pub fn load(&self, hash: u64) -> Result<StoredImage<VerifiedImage>, StoreError> {
        let path = self.path_for(hash);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(StoreError::Missing),
            Err(e) => return Err(io_err(&path, &e)),
        };
        decode_verified(&bytes)
    }

    /// Atomically and durably writes `image` (with its build-time content
    /// `checksum`) as `hash`'s file, replacing any previous file: temp
    /// file, fsync, rename, directory fsync. Returns the file size in
    /// bytes.
    pub fn save(&self, hash: u64, image: &ReplayImage, checksum: u64) -> Result<u64, StoreError> {
        self.save_with_fault(hash, image, checksum, None)
    }

    /// [`StoreDir::save`] with an optional injected [`WriteFault`] — the
    /// chaos harness's hook for proving that a failed or torn write
    /// leaves the store clean. On any failure (real or injected) the
    /// temp file is removed and the previously stored file, if any, is
    /// untouched.
    pub fn save_with_fault(
        &self,
        hash: u64,
        image: &ReplayImage,
        checksum: u64,
        fault: Option<WriteFault>,
    ) -> Result<u64, StoreError> {
        let bytes = encode_file(image, checksum);
        let tmp = self.root.join(format!(
            ".{:016x}.tmp.{}.{}",
            hash,
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if let Err(e) = self.write_durable(&tmp, &bytes, fault) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        let path = self.path_for(hash);
        std::fs::rename(&tmp, &path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            io_err(&path, &e)
        })?;
        self.sync_root();
        Ok(bytes.len() as u64)
    }

    /// Writes and fsyncs `bytes` to `tmp`, or fails the injected way.
    fn write_durable(
        &self,
        tmp: &Path,
        bytes: &[u8],
        fault: Option<WriteFault>,
    ) -> Result<(), StoreError> {
        if fault == Some(WriteFault::Error) {
            return Err(StoreError::Io {
                path: tmp.display().to_string(),
                detail: "injected write fault: disk full".to_string(),
            });
        }
        let mut file = std::fs::File::create(tmp).map_err(|e| io_err(tmp, &e))?;
        if fault == Some(WriteFault::Short) {
            let half = bytes.len() / 2;
            file.write_all(&bytes[..half])
                .map_err(|e| io_err(tmp, &e))?;
            let _ = file.sync_all();
            return Err(StoreError::Io {
                path: tmp.display().to_string(),
                detail: format!(
                    "injected write fault: short write ({half} of {} bytes)",
                    bytes.len()
                ),
            });
        }
        file.write_all(bytes).map_err(|e| io_err(tmp, &e))?;
        file.sync_all().map_err(|e| io_err(tmp, &e))?;
        Ok(())
    }

    /// Best-effort fsync of the directory itself, so a rename that moved
    /// a file into it survives power loss. Failure is ignored: some
    /// filesystems refuse directory fsync and the data file is already
    /// durable.
    fn sync_root(&self) {
        let _ = std::fs::File::open(&self.root).and_then(|d| d.sync_all());
    }

    /// Moves `hash`'s file into the `quarantine/` subdirectory instead of
    /// deleting it, preserving the corrupt bytes for post-mortem, and
    /// returns the quarantined path. The file keeps its name; a prior
    /// quarantined copy of the same hash is replaced. Quarantined files
    /// are invisible to [`StoreDir::entries`] and every walk built on it.
    pub fn quarantine(&self, hash: u64) -> Result<PathBuf, StoreError> {
        let src = self.path_for(hash);
        let qdir = self.root.join(QUARANTINE_DIR);
        std::fs::create_dir_all(&qdir).map_err(|e| io_err(&qdir, &e))?;
        let dst = qdir.join(Self::file_name(hash));
        std::fs::rename(&src, &dst).map_err(|e| io_err(&src, &e))?;
        self.sync_root();
        Ok(dst)
    }

    /// Removes `hash`'s file if present; `true` when a file was removed.
    /// Used by the two-tier store to drop a file that failed the
    /// integrity ladder before rebuilding it.
    pub fn evict(&self, hash: u64) -> bool {
        std::fs::remove_file(self.path_for(hash)).is_ok()
    }

    /// Every image file in the directory, sorted by name (hash order) so
    /// walks are deterministic. Non-`.vimg` entries (temp files, stray
    /// droppings) are ignored.
    pub fn entries(&self) -> Result<Vec<PathBuf>, StoreError> {
        let read = std::fs::read_dir(&self.root).map_err(|e| io_err(&self.root, &e))?;
        let mut files = Vec::new();
        for entry in read {
            let entry = entry.map_err(|e| io_err(&self.root, &e))?;
            let path = entry.path();
            let hidden = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with('.'));
            if !hidden && path.extension().and_then(|e| e.to_str()) == Some(EXTENSION) {
                files.push(path);
            }
        }
        files.sort();
        Ok(files)
    }

    /// Walks every image file and fully verifies it — the engine of
    /// `valign verify-image`. Per-file failures become verdicts, not
    /// errors; only a failure to list the directory itself errors.
    pub fn verify(&self) -> Result<VerifyReport, StoreError> {
        let mut verdicts = Vec::new();
        for path in self.entries()? {
            let file = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("<non-utf8>")
                .to_string();
            let (bytes, verdict) = match std::fs::read(&path) {
                Err(e) => (0, Err(io_err(&path, &e))),
                Ok(data) => (
                    data.len() as u64,
                    decode_file(&data).map(|stored| ImageSummary {
                        records: stored.image.len(),
                        memory_records: stored.image.memory_records(),
                        checksum: stored.checksum,
                    }),
                ),
            };
            verdicts.push(FileVerdict {
                file,
                bytes,
                verdict,
            });
        }
        Ok(VerifyReport {
            root: self.root.clone(),
            verdicts,
        })
    }

    /// Walks every image file, decoding each through the full loader —
    /// the audit walk behind `valign audit --store-dir`. Unlike
    /// [`StoreDir::verify`] this hands back the decoded images
    /// themselves, so callers can run further static analysis (the
    /// `valign-analyze` image rules, the static cost model) on exactly
    /// the bytes a replay would consume. Per-file failures become
    /// entries, not errors; only a failure to list the directory itself
    /// errors.
    pub fn walk(&self) -> Result<Vec<WalkEntry>, StoreError> {
        let mut out = Vec::new();
        for path in self.entries()? {
            let file = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("<non-utf8>")
                .to_string();
            let hash = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(|s| u64::from_str_radix(s, 16).ok());
            let (bytes, loaded) = match std::fs::read(&path) {
                Err(e) => (0, Err(io_err(&path, &e))),
                Ok(data) => (data.len() as u64, decode_file(&data)),
            };
            out.push(WalkEntry {
                file,
                hash,
                bytes,
                loaded,
            });
        }
        Ok(out)
    }
}

/// One file of an audit walk ([`StoreDir::walk`]): the decoded image (or
/// the first integrity rung it failed) plus the content address parsed
/// from its file name.
#[derive(Debug)]
pub struct WalkEntry {
    /// File name within the store directory.
    pub file: String,
    /// The 64-bit content hash parsed from the file-name stem, `None`
    /// when the name is not a well-formed hash.
    pub hash: Option<u64>,
    /// File size in bytes (0 if unreadable).
    pub bytes: u64,
    /// The fully decoded and checksum-verified image, or the error.
    pub loaded: Result<StoredImage, StoreError>,
}

/// What a valid store file contains, for verification reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageSummary {
    /// Record count of the stored image.
    pub records: usize,
    /// Memory records among them.
    pub memory_records: usize,
    /// The verified content checksum.
    pub checksum: u64,
}

/// One file's verification outcome.
#[derive(Debug, Clone)]
pub struct FileVerdict {
    /// File name within the store directory.
    pub file: String,
    /// File size in bytes (0 if unreadable).
    pub bytes: u64,
    /// The summary, or the first integrity rung the file failed.
    pub verdict: Result<ImageSummary, StoreError>,
}

/// The full `verify-image` walk of one directory.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// The directory walked.
    pub root: PathBuf,
    /// Per-file verdicts, in hash (file-name) order.
    pub verdicts: Vec<FileVerdict>,
}

impl VerifyReport {
    /// Files that passed every integrity rung.
    pub fn ok(&self) -> usize {
        self.verdicts.iter().filter(|v| v.verdict.is_ok()).count()
    }

    /// Files that failed some rung.
    pub fn invalid(&self) -> usize {
        self.verdicts.len() - self.ok()
    }

    /// Whether every file verified.
    pub fn all_ok(&self) -> bool {
        self.invalid() == 0
    }

    /// Renders the per-file verdict table. Each failing file prints
    /// exactly one line containing ` INVALID ` (the store-roundtrip CI
    /// job counts them); the summary line uses lowercase "invalid".
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "store dir: {} ({} image files)",
            self.root.display(),
            self.verdicts.len()
        );
        for v in &self.verdicts {
            match &v.verdict {
                Ok(s) => {
                    let _ = writeln!(
                        out,
                        "{:<24} OK       {} records ({} memory), {} bytes, checksum {:#018x}",
                        v.file, s.records, s.memory_records, v.bytes, s.checksum
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, "{:<24} INVALID  {e}", v.file);
                }
            }
        }
        let _ = writeln!(
            out,
            "verified {} files: {} ok, {} invalid",
            self.verdicts.len(),
            self.ok(),
            self.invalid()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::sabotage_file_bytes;
    use valign_isa::{DynInstr, Opcode, StaticId, Trace};

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let path = std::env::temp_dir()
                .join(format!("valign-store-dirtest-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn image(records: u16) -> (ReplayImage, u64) {
        let mut t = Trace::new();
        for i in 0..records {
            t.push(DynInstr::alu(Opcode::Add, StaticId(i), None, &[]));
        }
        let img = ReplayImage::build(&t);
        let checksum = img.checksum();
        (img, checksum)
    }

    #[test]
    fn save_load_evict_cycle() {
        let tmp = TempDir::new("cycle");
        let dir = StoreDir::create(&tmp.0).expect("create");
        assert!(matches!(dir.load(0xABCD), Err(StoreError::Missing)));
        let (img, checksum) = image(50);
        let bytes = dir.save(0xABCD, &img, checksum).expect("save");
        assert!(bytes > 0);
        let stored = dir.load(0xABCD).expect("load after save");
        assert_eq!(stored.checksum, checksum);
        assert_eq!(stored.image.len(), 50);
        assert_eq!(dir.entries().expect("list").len(), 1);
        assert!(dir.evict(0xABCD));
        assert!(!dir.evict(0xABCD), "second evict finds nothing");
        assert!(matches!(dir.load(0xABCD), Err(StoreError::Missing)));
    }

    #[test]
    fn open_requires_an_existing_directory() {
        let tmp = TempDir::new("open");
        assert!(matches!(StoreDir::open(&tmp.0), Err(StoreError::Io { .. })));
        let _ = StoreDir::create(&tmp.0).expect("create");
        assert!(StoreDir::open(&tmp.0).is_ok());
    }

    #[test]
    fn verify_reports_exactly_the_corrupted_file() {
        let tmp = TempDir::new("verify");
        let dir = StoreDir::create(&tmp.0).expect("create");
        for (hash, records) in [(1u64, 10u16), (2, 20), (3, 30)] {
            let (img, checksum) = image(records);
            dir.save(hash, &img, checksum).expect("save");
        }
        let report = dir.verify().expect("walk");
        assert_eq!(report.verdicts.len(), 3);
        assert!(report.all_ok());

        // Corrupt the middle file on disk.
        let path = dir.path_for(2);
        let mut bytes = std::fs::read(&path).expect("read");
        sabotage_file_bytes(&mut bytes, 7);
        std::fs::write(&path, &bytes).expect("write corrupt");
        let report = dir.verify().expect("walk");
        assert_eq!(report.ok(), 2);
        assert_eq!(report.invalid(), 1);
        let rendered = report.render();
        assert_eq!(rendered.matches(" INVALID ").count(), 1, "{rendered}");
        assert!(
            rendered.contains(&StoreDir::file_name(2)),
            "the verdict names the corrupt file:\n{rendered}"
        );
        assert!(rendered.contains("3 files: 2 ok, 1 invalid"), "{rendered}");
    }

    #[test]
    fn walk_hands_back_decoded_images_with_parsed_hashes() {
        let tmp = TempDir::new("walk");
        let dir = StoreDir::create(&tmp.0).expect("create");
        for (hash, records) in [(0x10u64, 10u16), (0x20, 20)] {
            let (img, checksum) = image(records);
            dir.save(hash, &img, checksum).expect("save");
        }
        // A file whose name is not a hash still walks (hash: None).
        std::fs::write(tmp.0.join("notahash.vimg"), b"junk").expect("stray");
        let walked = dir.walk().expect("walk");
        assert_eq!(walked.len(), 3);
        let by_hash = |h: u64| {
            walked
                .iter()
                .find(|e| e.hash == Some(h))
                .unwrap_or_else(|| panic!("entry {h:#x}"))
        };
        let e = by_hash(0x10);
        let stored = e.loaded.as_ref().expect("decodes");
        assert_eq!(stored.image.len(), 10);
        assert_eq!(stored.checksum, stored.image.checksum());
        assert_eq!(
            by_hash(0x20).loaded.as_ref().expect("decodes").image.len(),
            20
        );
        let stray = walked
            .iter()
            .find(|e| e.file == "notahash.vimg")
            .expect("stray entry");
        assert_eq!(stray.hash, None);
        assert!(stray.loaded.is_err());
    }

    #[test]
    fn injected_write_faults_leave_the_store_clean() {
        let tmp = TempDir::new("writefault");
        let dir = StoreDir::create(&tmp.0).expect("create");
        let (old, old_sum) = image(10);
        let (new, new_sum) = image(20);
        dir.save(9, &old, old_sum).expect("seed file");

        for fault in [WriteFault::Error, WriteFault::Short] {
            let err = dir
                .save_with_fault(9, &new, new_sum, Some(fault))
                .expect_err("injected fault must surface");
            assert!(err.to_string().contains("injected write fault"), "{err}");
            // The previously stored file is untouched and no temp file
            // (torn or otherwise) is left behind.
            let stored = dir.load(9).expect("old file survives");
            assert_eq!(stored.image.len(), 10);
            let leftovers: Vec<_> = std::fs::read_dir(&tmp.0)
                .expect("list")
                .filter_map(Result::ok)
                .filter(|e| e.path().is_file())
                .filter(|e| e.path().extension().and_then(|x| x.to_str()) != Some(EXTENSION))
                .collect();
            assert!(leftovers.is_empty(), "torn temp leaked: {leftovers:?}");
        }
        // A clean retry after the faults succeeds normally.
        dir.save(9, &new, new_sum).expect("clean save");
        assert_eq!(dir.load(9).expect("load").image.len(), 20);
    }

    #[test]
    fn quarantine_preserves_the_corrupt_bytes_out_of_band() {
        let tmp = TempDir::new("quarantine");
        let dir = StoreDir::create(&tmp.0).expect("create");
        let (img, checksum) = image(15);
        dir.save(0xBEEF, &img, checksum).expect("save");
        let path = dir.path_for(0xBEEF);
        let mut bytes = std::fs::read(&path).expect("read");
        sabotage_file_bytes(&mut bytes, 3);
        std::fs::write(&path, &bytes).expect("corrupt");

        let kept = dir.quarantine(0xBEEF).expect("quarantine");
        assert!(kept.ends_with(Path::new("quarantine").join(StoreDir::file_name(0xBEEF))));
        assert_eq!(std::fs::read(&kept).expect("kept bytes"), bytes);
        // The store no longer sees the file: a load is a clean miss and
        // walks skip the quarantine subdirectory entirely.
        assert!(matches!(dir.load(0xBEEF), Err(StoreError::Missing)));
        assert_eq!(dir.entries().expect("list").len(), 0);
        assert!(dir.verify().expect("verify").all_ok());
        // A rebuilt save replaces the slot; the quarantined copy stays.
        dir.save(0xBEEF, &img, checksum).expect("rebuild");
        assert!(dir.load(0xBEEF).is_ok());
        assert!(kept.is_file());
        // Quarantining a missing hash is an error, not a panic.
        assert!(dir.quarantine(0xDEAD).is_err());
    }

    #[cfg(unix)]
    #[test]
    fn read_only_directory_fails_the_save_not_the_process() {
        use std::os::unix::fs::PermissionsExt;
        let tmp = TempDir::new("readonly");
        let dir = StoreDir::create(&tmp.0).expect("create");
        let (img, checksum) = image(5);
        let mut perms = std::fs::metadata(&tmp.0).expect("meta").permissions();
        perms.set_mode(0o555);
        std::fs::set_permissions(&tmp.0, perms.clone()).expect("chmod");
        let result = dir.save(0x0DD, &img, checksum);
        perms.set_mode(0o755);
        std::fs::set_permissions(&tmp.0, perms).expect("chmod back");
        match result {
            // root ignores permission bits; the injected-fault shim
            // covers the failure path deterministically in that case.
            Ok(_) => assert!(dir.load(0x0DD).is_ok()),
            Err(e) => {
                assert!(matches!(e, StoreError::Io { .. }), "{e}");
                assert!(matches!(dir.load(0x0DD), Err(StoreError::Missing)));
            }
        }
    }

    #[test]
    fn saves_are_atomic_replacements_and_temp_files_are_invisible() {
        let tmp = TempDir::new("atomic");
        let dir = StoreDir::create(&tmp.0).expect("create");
        let (small, small_sum) = image(5);
        let (big, big_sum) = image(500);
        dir.save(7, &big, big_sum).expect("first save");
        dir.save(7, &small, small_sum).expect("overwrite");
        let stored = dir.load(7).expect("load");
        assert_eq!(stored.image.len(), 5, "last write wins");
        // A stray dotfile (aborted temp write) never shows up in walks.
        std::fs::write(tmp.0.join(".0000.tmp.1.1"), b"junk").expect("stray");
        std::fs::write(tmp.0.join("README.txt"), b"not an image").expect("stray");
        assert_eq!(dir.entries().expect("list").len(), 1);
        assert_eq!(dir.verify().expect("walk").verdicts.len(), 1);
    }
}
