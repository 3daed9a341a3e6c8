//! The `valign` binary's argument handling, run as a user runs it.

use std::process::Command;

/// An unknown subcommand is a usage error (exit 2) refused before any
/// side effect: opening `--store-dir` would create the directory.
#[test]
fn unknown_subcommand_exits_2_without_creating_the_store_dir() {
    let dir = std::env::temp_dir().join(format!("valign-cli-bogus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_valign"))
        .arg("bogus")
        .arg("--store-dir")
        .arg(&dir)
        .output()
        .expect("valign runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown subcommand bogus"),
        "{out:?}"
    );
    assert!(!dir.exists(), "{} was created", dir.display());
}
