//! # valign-store — persistent content-addressed replay-image store
//!
//! The paper's evaluation is *generate once, replay many*; this crate
//! makes the "once" survive the process. A packed
//! [`ReplayImage`](valign_pipeline::ReplayImage) — already a dense,
//! checksummed structure-of-arrays byte layout — is serialized into a
//! versioned, section-based container file ([`format`]) and cached in a
//! content-addressed directory ([`StoreDir`]) keyed by the trace hash, so
//! a warm process start loads every prepared image at raw-byte-movement
//! cost instead of re-tracing and re-compiling it.
//!
//! Layering: `valign-pipeline` owns the *array* wire form
//! ([`valign_pipeline::image::wire`], `encode_sections`/`from_sections` —
//! the image's fields are private there); this crate owns the *file*
//! framing (magic, format version, section table, checksums, alignment
//! padding) and the directory. It deliberately does **not** depend on
//! `valign-core`: the store is keyed by a raw `u64` content hash, and
//! `valign-core`'s `TraceKey` computes that hash on its side — so the
//! daemon-facing store layer stays free of workload types.
//!
//! Every load climbs the full integrity ladder before an image is
//! trusted: exact file size (any truncation under-runs it), header
//! checksum (covers magic, version, counts and the whole section table),
//! per-section checksums, zero-padding verification (a bit flipped in
//! padding cannot hide), shape decoding, image-checksum comparison and
//! static validation. A file that fails *any* rung yields a structured
//! [`StoreError`] — never a panic — and the caller evicts and rebuilds.
//!
//! The format is mmap-ready by construction — every section offset is
//! 64-byte aligned and the header is fixed-layout — but loading today
//! stays `forbid(unsafe_code)`-clean: whole-section reads straight into
//! owned dense arrays. A future audited `mmap` module can slot in without
//! a format change.

#![forbid(unsafe_code)]
// I/O failure is a first-class outcome in this crate (full disks, torn
// writes, corrupt files): every `Result` must flow into the `StoreError`
// taxonomy, never unwrap. Invariant-backed exceptions carry a scoped
// `#[allow]` with justification; unit tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod dir;
pub mod format;

pub use dir::{FileVerdict, ImageSummary, StoreDir, VerifyReport, WalkEntry, WriteFault};
pub use format::{
    decode_file, decode_verified, encode_file, sabotage_file_bytes, StoreError, StoredImage,
    FORMAT_VERSION, MAGIC, SECTION_ALIGN,
};
