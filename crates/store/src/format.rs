//! The on-disk container format for one packed replay image.
//!
//! Layout (all integers little-endian; see DESIGN.md §14 for the spec):
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------
//!      0     8  magic "VALIGNIM"
//!      8     4  format version (currently 2)
//!     12     4  section count
//!     16     8  image record count (len)
//!     24     8  image checksum (ReplayImage::checksum at build time)
//!     32  32×N  section table, one entry per section:
//!               id u32 · elem_bytes u32 · offset u64 · byte_len u64
//!               · checksum u64
//!   32+32N   8  header checksum (over bytes [0, 32+32N))
//!          pad  zero bytes to the next 64-byte boundary
//!     ...       section payloads, each starting at a 64-byte-aligned
//!               offset, zero-padded to the next boundary
//! ```
//!
//! The total file size is *exact*: `align64(end of last payload)`. Any
//! truncation therefore under-runs the expected size, any appended byte
//! over-runs it, and every padding byte is verified zero at decode — so
//! no corruption can hide in the slack. Section offsets are 64-byte
//! aligned so a future audited `mmap` loader can cast sections in place;
//! today's loader stays `forbid(unsafe_code)`-clean with whole-section
//! reads.
//!
//! Versioning policy: the format version is bumped on any layout change;
//! a reader rejects files whose version it does not implement
//! ([`StoreError::BadVersion`]) and the store layer treats that like any
//! other invalid file — evict and rebuild. Unknown section ids are
//! likewise rejected rather than skipped: within one version the section
//! set is closed, so an unexpected id means corruption, not extension.

use std::fmt;
use std::sync::Arc;
use valign_pipeline::hash::WordHash;
use valign_pipeline::image::wire;
use valign_pipeline::{ReplayImage, VerifiedImage};

/// File magic, first 8 bytes of every store file.
pub const MAGIC: [u8; 8] = *b"VALIGNIM";

/// Current format version (see the module docs for the policy).
///
/// Version 2 narrowed the record columns: `sids` and `src_defs` became
/// `u16` (producers as back-distances) and the `units` section went away.
pub const FORMAT_VERSION: u32 = 2;

/// Alignment of every section payload offset and of the total file size.
pub const SECTION_ALIGN: usize = 64;

/// Fixed header size: magic + version + count + len + image checksum.
const FIXED_HEADER_BYTES: usize = 32;

/// Size of one section-table entry.
const SECTION_ENTRY_BYTES: usize = 32;

/// Upper bound on the section count a reader accepts; version 2 writes
/// exactly [`wire::ALL`]`.len()` sections, the bound just keeps a
/// corrupt count from driving a huge table allocation.
const MAX_SECTIONS: u32 = 64;

/// WordHash domain seed for per-section checksums ("valign" + 0004).
const SECTION_HASH_SEED: u64 = 0x7661_6c69_676e_0004;

/// WordHash domain seed for the header checksum ("valign" + 0005).
const HEADER_HASH_SEED: u64 = 0x7661_6c69_676e_0005;

/// Why a store file could not be used. Every variant is a *recoverable*
/// verdict: the two-tier store evicts the file and rebuilds from the
/// trace; nothing here ever panics a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// No file for the requested hash — the clean disk miss.
    Missing,
    /// The operating system failed the read/write/rename.
    Io {
        /// File the operation touched.
        path: String,
        /// Stringified OS error.
        detail: String,
    },
    /// The file is shorter than its layout requires.
    Truncated {
        /// Bytes the layout requires.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not one this reader implements.
    BadVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The fixed header or section table is internally inconsistent
    /// (checksum mismatch, impossible counts, misaligned or overlapping
    /// offsets).
    HeaderCorrupt {
        /// What was wrong.
        detail: String,
    },
    /// A section payload's stored checksum does not match its bytes.
    SectionChecksum {
        /// Section name (see [`wire::name`]).
        section: String,
        /// Checksum the table promised.
        expected: u64,
        /// Checksum of the bytes on disk.
        actual: u64,
    },
    /// A byte outside every header/payload range is non-zero, or the file
    /// extends past its computed exact size.
    TrailingGarbage {
        /// Offset of the first offending byte.
        offset: u64,
    },
    /// The sections passed their checksums but did not decode into the
    /// image's array shapes.
    Decode {
        /// The decoder's diagnostic.
        detail: String,
    },
    /// The decoded image's content checksum does not match the one the
    /// header recorded at build time.
    ImageChecksum {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the decoded image.
        actual: u64,
    },
    /// The decoded image failed static validation
    /// ([`ReplayImage::validate`]).
    Invalid {
        /// The validator's diagnostic.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Missing => write!(f, "no stored image for this key"),
            StoreError::Io { path, detail } => write!(f, "io error on {path}: {detail}"),
            StoreError::Truncated { expected, actual } => {
                write!(f, "truncated file: {actual} bytes, layout needs {expected}")
            }
            StoreError::BadMagic => write!(f, "bad magic (not a valign image file)"),
            StoreError::BadVersion { found } => {
                write!(f, "format version {found} (reader implements {FORMAT_VERSION})")
            }
            StoreError::HeaderCorrupt { detail } => write!(f, "corrupt header: {detail}"),
            StoreError::SectionChecksum {
                section,
                expected,
                actual,
            } => write!(
                f,
                "section {section} checksum mismatch: stored {expected:#018x}, bytes hash to {actual:#018x}"
            ),
            StoreError::TrailingGarbage { offset } => {
                write!(f, "non-zero byte in padding / past end at offset {offset}")
            }
            StoreError::Decode { detail } => write!(f, "section decode failed: {detail}"),
            StoreError::ImageChecksum { expected, actual } => write!(
                f,
                "image checksum mismatch: header says {expected:#018x}, decoded image hashes to {actual:#018x}"
            ),
            StoreError::Invalid { detail } => write!(f, "decoded image failed validation: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// A successfully loaded store file: the decoded image plus the content
/// checksum its header carried (already verified against the decoded
/// arrays). `I` is a plain [`ReplayImage`] from [`decode_file`] and a
/// [`VerifiedImage`] from [`decode_verified`] and [`crate::StoreDir::load`].
#[derive(Debug, Clone)]
pub struct StoredImage<I = ReplayImage> {
    /// The decoded, validated replay image.
    pub image: I,
    /// Its content checksum ([`ReplayImage::checksum`]), as recorded at
    /// build time and re-verified at decode.
    pub checksum: u64,
}

fn align_up(n: usize) -> usize {
    n.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

fn section_checksum(id: u32, payload: &[u8]) -> u64 {
    let mut h = WordHash::new(SECTION_HASH_SEED);
    h.write_u64(u64::from(id));
    h.write_bytes(payload);
    h.finish()
}

fn header_checksum(header: &[u8]) -> u64 {
    let mut h = WordHash::new(HEADER_HASH_SEED);
    h.write_bytes(header);
    h.finish()
}

/// Serializes `image` (with its build-time content `checksum`) into one
/// container file's bytes. Pure function: equal images produce equal
/// bytes, so files are content-addressable and rewrite-stable.
pub fn encode_file(image: &ReplayImage, checksum: u64) -> Vec<u8> {
    let sections = image.encode_sections();
    let count = sections.len();
    debug_assert!(count as u32 <= MAX_SECTIONS);
    let table_end = FIXED_HEADER_BYTES + count * SECTION_ENTRY_BYTES;
    let header_end = align_up(table_end + 8);

    // Lay out payload offsets first so the table can be written in one
    // pass: each section starts at the next 64-byte boundary.
    let mut offsets = Vec::with_capacity(count);
    let mut cursor = header_end;
    for (_, payload) in &sections {
        offsets.push(cursor);
        cursor += payload.len();
        cursor = align_up(cursor);
    }
    let total = cursor;

    let mut out = vec![0u8; total];
    out[0..8].copy_from_slice(&MAGIC);
    out[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    out[12..16].copy_from_slice(&(count as u32).to_le_bytes());
    out[16..24].copy_from_slice(&(image.len() as u64).to_le_bytes());
    out[24..32].copy_from_slice(&checksum.to_le_bytes());
    for (i, ((id, payload), &offset)) in sections.iter().zip(&offsets).enumerate() {
        let at = FIXED_HEADER_BYTES + i * SECTION_ENTRY_BYTES;
        // Not an I/O result: `sections` comes from `encode_sections`,
        // whose ids are by construction known to `elem_bytes`.
        #[allow(clippy::expect_used)]
        let elem = wire::elem_bytes(*id).expect("encode_sections emits known ids");
        out[at..at + 4].copy_from_slice(&id.to_le_bytes());
        out[at + 4..at + 8].copy_from_slice(&elem.to_le_bytes());
        out[at + 8..at + 16].copy_from_slice(&(offset as u64).to_le_bytes());
        out[at + 16..at + 24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        out[at + 24..at + 32].copy_from_slice(&section_checksum(*id, payload).to_le_bytes());
    }
    let hc = header_checksum(&out[..table_end]);
    out[table_end..table_end + 8].copy_from_slice(&hc.to_le_bytes());
    for ((_, payload), offset) in sections.iter().zip(offsets) {
        out[offset..offset + payload.len()].copy_from_slice(payload);
    }
    out
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes([
        bytes[at],
        bytes[at + 1],
        bytes[at + 2],
        bytes[at + 3],
        bytes[at + 4],
        bytes[at + 5],
        bytes[at + 6],
        bytes[at + 7],
    ])
}

/// One parsed section-table entry.
struct Entry {
    id: u32,
    offset: usize,
    len: usize,
    checksum: u64,
}

/// Deserializes one container file, climbing every integrity rung (see
/// the module docs). Returns the decoded image or the first failing
/// rung's [`StoreError`]; never panics on hostile bytes.
pub fn decode_file(bytes: &[u8]) -> Result<StoredImage, StoreError> {
    let StoredImage { image, checksum } = decode_verified(bytes)?;
    Ok(StoredImage {
        image: Arc::unwrap_or_clone(image.into_inner()),
        checksum,
    })
}

/// [`decode_file`] that keeps the validation it ran as proof: the image
/// comes back as a [`VerifiedImage`], which the supervised replay path
/// trusts without validating it again.
pub fn decode_verified(bytes: &[u8]) -> Result<StoredImage<VerifiedImage>, StoreError> {
    let need = |expected: usize| -> Result<(), StoreError> {
        if bytes.len() < expected {
            Err(StoreError::Truncated {
                expected: expected as u64,
                actual: bytes.len() as u64,
            })
        } else {
            Ok(())
        }
    };
    need(FIXED_HEADER_BYTES)?;
    if bytes[0..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = read_u32(bytes, 8);
    if version != FORMAT_VERSION {
        return Err(StoreError::BadVersion { found: version });
    }
    let count = read_u32(bytes, 12);
    if count > MAX_SECTIONS {
        return Err(StoreError::HeaderCorrupt {
            detail: format!("{count} sections (reader caps at {MAX_SECTIONS})"),
        });
    }
    let image_len = read_u64(bytes, 16);
    let image_checksum = read_u64(bytes, 24);
    let count = count as usize;
    let table_end = FIXED_HEADER_BYTES + count * SECTION_ENTRY_BYTES;
    need(table_end + 8)?;
    let stored_hc = read_u64(bytes, table_end);
    let actual_hc = header_checksum(&bytes[..table_end]);
    if stored_hc != actual_hc {
        return Err(StoreError::HeaderCorrupt {
            detail: format!(
                "header checksum mismatch: stored {stored_hc:#018x}, bytes hash to {actual_hc:#018x}"
            ),
        });
    }
    let header_end = align_up(table_end + 8);

    let mut entries = Vec::with_capacity(count);
    let mut prev_end = header_end;
    for i in 0..count {
        let at = FIXED_HEADER_BYTES + i * SECTION_ENTRY_BYTES;
        let id = read_u32(bytes, at);
        let elem = read_u32(bytes, at + 4);
        let offset = read_u64(bytes, at + 8);
        let len = read_u64(bytes, at + 16);
        let checksum = read_u64(bytes, at + 24);
        let bad = |detail: String| StoreError::HeaderCorrupt { detail };
        if let Some(expected_elem) = wire::elem_bytes(id) {
            if elem != expected_elem {
                return Err(bad(format!(
                    "section {} claims {elem}-byte elements, format defines {expected_elem}",
                    wire::name(id)
                )));
            }
        }
        let offset = usize::try_from(offset)
            .map_err(|_| bad(format!("section {} offset overflows", wire::name(id))))?;
        let len = usize::try_from(len)
            .map_err(|_| bad(format!("section {} length overflows", wire::name(id))))?;
        if offset % SECTION_ALIGN != 0 {
            return Err(bad(format!(
                "section {} offset {offset} is not {SECTION_ALIGN}-byte aligned",
                wire::name(id)
            )));
        }
        if offset < prev_end {
            return Err(bad(format!(
                "section {} at {offset} overlaps the bytes before it (end {prev_end})",
                wire::name(id)
            )));
        }
        let end = offset
            .checked_add(len)
            .ok_or_else(|| bad(format!("section {} range overflows", wire::name(id))))?;
        prev_end = end;
        entries.push(Entry {
            id,
            offset,
            len,
            checksum,
        });
    }

    // Exact-size rule: shorter is truncation, longer is garbage. With the
    // size pinned, truncating even one trailing pad byte is detected.
    let expected_total = align_up(prev_end);
    if bytes.len() < expected_total {
        return Err(StoreError::Truncated {
            expected: expected_total as u64,
            actual: bytes.len() as u64,
        });
    }
    if bytes.len() > expected_total {
        return Err(StoreError::TrailingGarbage {
            offset: expected_total as u64,
        });
    }

    // Every byte outside the header and the payloads must be zero, so a
    // bit flipped in padding cannot hide from the checksums.
    let mut meaningful = vec![(0usize, table_end + 8)];
    meaningful.extend(entries.iter().map(|e| (e.offset, e.offset + e.len)));
    let mut cursor = 0usize;
    for (start, end) in meaningful {
        if let Some(bad) = bytes[cursor..start].iter().position(|&b| b != 0) {
            return Err(StoreError::TrailingGarbage {
                offset: (cursor + bad) as u64,
            });
        }
        cursor = end;
    }
    if let Some(bad) = bytes[cursor..].iter().position(|&b| b != 0) {
        return Err(StoreError::TrailingGarbage {
            offset: (cursor + bad) as u64,
        });
    }

    let mut sections = Vec::with_capacity(entries.len());
    for e in &entries {
        let payload = &bytes[e.offset..e.offset + e.len];
        let actual = section_checksum(e.id, payload);
        if actual != e.checksum {
            return Err(StoreError::SectionChecksum {
                section: wire::name(e.id).to_string(),
                expected: e.checksum,
                actual,
            });
        }
        sections.push((e.id, payload));
    }

    let image_len = usize::try_from(image_len).map_err(|_| StoreError::HeaderCorrupt {
        detail: "record count overflows".to_string(),
    })?;
    let image = ReplayImage::from_sections(image_len, &sections)
        .map_err(|detail| StoreError::Decode { detail })?;
    let actual = image.checksum();
    if actual != image_checksum {
        return Err(StoreError::ImageChecksum {
            expected: image_checksum,
            actual,
        });
    }
    let image = VerifiedImage::new(image.into_shared()).map_err(|e| StoreError::Invalid {
        detail: e.to_string(),
    })?;
    Ok(StoredImage {
        image,
        checksum: image_checksum,
    })
}

/// Deterministically corrupts a serialized store file for fault
/// injection: equal `(bytes, site)` produce equal corruption. The site
/// selects between truncation and a single bit-flip at a site-derived
/// position — both are guaranteed detectable (the exact-size rule catches
/// any truncation; header/section checksums and the zero-padding rule
/// cover every byte of the file), so [`decode_file`] on the result always
/// returns an error.
pub fn sabotage_file_bytes(bytes: &mut Vec<u8>, site: u64) {
    if bytes.is_empty() {
        return;
    }
    if site.is_multiple_of(3) {
        // Truncation: keep a site-derived strict prefix.
        let keep = (site / 3) as usize % bytes.len();
        bytes.truncate(keep);
    } else {
        let pos = (site / 3) as usize % bytes.len();
        let bit = (site % 8) as u32;
        bytes[pos] ^= 1u8 << bit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use valign_isa::{DynInstr, MemKind, MemRef, Opcode, StaticId, Trace};

    /// A small but representative trace: ALU, loads, stores, a branch.
    fn sample_image() -> (ReplayImage, u64) {
        let mut t = Trace::new();
        for i in 0..40u64 {
            let sid = StaticId(i as u16);
            if i % 4 == 0 {
                t.push(DynInstr::mem(
                    Opcode::Stw,
                    sid,
                    None,
                    &[],
                    MemRef {
                        addr: 0x1000 + (i * 12) % 128,
                        bytes: 4,
                        kind: MemKind::Store,
                    },
                ));
            } else if i % 4 == 1 {
                t.push(DynInstr::mem(
                    Opcode::Lwz,
                    sid,
                    Some(valign_isa::Gpr::new((i % 32) as u8).into()),
                    &[],
                    MemRef {
                        addr: 0x1000 + (i * 8) % 128,
                        bytes: 8,
                        kind: MemKind::Load,
                    },
                ));
            } else {
                t.push(DynInstr::alu(Opcode::Add, sid, None, &[]));
            }
        }
        let image = ReplayImage::build(&t);
        let checksum = image.checksum();
        (image, checksum)
    }

    #[test]
    fn encode_decode_round_trips() {
        let (image, checksum) = sample_image();
        let bytes = encode_file(&image, checksum);
        assert_eq!(bytes.len() % SECTION_ALIGN, 0, "exact aligned size");
        let stored = decode_file(&bytes).expect("round trip");
        assert_eq!(stored.checksum, checksum);
        assert_eq!(stored.image.len(), image.len());
        assert_eq!(stored.image.checksum(), checksum);
        stored.image.validate().expect("decoded image well-formed");
        // Content-addressability: encoding is a pure function.
        assert_eq!(bytes, encode_file(&image, checksum));
    }

    #[test]
    fn empty_image_round_trips() {
        let image = ReplayImage::build(&Trace::new());
        let checksum = image.checksum();
        let stored = decode_file(&encode_file(&image, checksum)).expect("empty round trip");
        assert_eq!(stored.image.len(), 0);
        assert_eq!(stored.checksum, checksum);
    }

    #[test]
    fn every_header_field_corruption_is_its_own_verdict() {
        let (image, checksum) = sample_image();
        let clean = encode_file(&image, checksum);

        // Bad magic.
        let mut bad = clean.clone();
        bad[0] ^= 0xFF;
        assert_eq!(decode_file(&bad).unwrap_err(), StoreError::BadMagic);

        // Bad version — rewrite the field and restamp the header checksum
        // so the version rung (not the header-hash rung) fires.
        let mut bad = clean.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        let table_end = 32 + usize::try_from(read_u32(&bad, 12)).unwrap() * 32;
        let hc = header_checksum(&bad[..table_end]);
        bad[table_end..table_end + 8].copy_from_slice(&hc.to_le_bytes());
        assert_eq!(
            decode_file(&bad).unwrap_err(),
            StoreError::BadVersion { found: 99 }
        );

        // Unstamped header damage lands on the header-checksum rung.
        let mut bad = clean.clone();
        bad[12] ^= 0x01; // section count
        assert!(matches!(
            decode_file(&bad),
            Err(StoreError::HeaderCorrupt { .. })
        ));
        let mut bad = clean.clone();
        bad[16] ^= 0x01; // record count
        assert!(matches!(
            decode_file(&bad),
            Err(StoreError::HeaderCorrupt { .. })
        ));
        let mut bad = clean.clone();
        bad[24] ^= 0x01; // image checksum field
        assert!(matches!(
            decode_file(&bad),
            Err(StoreError::HeaderCorrupt { .. })
        ));
        let mut bad = clean.clone();
        bad[40] ^= 0x01; // inside the first section-table entry
        assert!(matches!(
            decode_file(&bad),
            Err(StoreError::HeaderCorrupt { .. })
        ));
        let mut bad = clean.clone();
        bad[table_end] ^= 0x01; // the header checksum itself
        assert!(matches!(
            decode_file(&bad),
            Err(StoreError::HeaderCorrupt { .. })
        ));
    }

    #[test]
    fn short_files_are_truncated_at_every_cut() {
        let (image, checksum) = sample_image();
        let clean = encode_file(&image, checksum);
        for cut in [0, 7, 31, 33, clean.len() / 2, clean.len() - 1] {
            let bad = clean[..cut].to_vec();
            assert!(
                matches!(decode_file(&bad), Err(StoreError::Truncated { .. })),
                "cut at {cut} must read as truncation"
            );
        }
    }

    #[test]
    fn payload_bitflip_fails_its_section_checksum() {
        let (image, checksum) = sample_image();
        let clean = encode_file(&image, checksum);
        // First payload starts at the first aligned offset after the
        // header block; read it from the first table entry.
        let first_payload = usize::try_from(read_u64(&clean, 32 + 8)).unwrap();
        let mut bad = clean.clone();
        bad[first_payload] ^= 0x10;
        match decode_file(&bad) {
            Err(StoreError::SectionChecksum { section, .. }) => assert_eq!(section, "ops"),
            other => panic!("expected section-checksum failure, got {other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_and_dirty_padding_are_rejected() {
        let (image, checksum) = sample_image();
        let clean = encode_file(&image, checksum);

        // A byte appended past the exact size.
        let mut bad = clean.clone();
        bad.push(0xAB);
        assert_eq!(
            decode_file(&bad).unwrap_err(),
            StoreError::TrailingGarbage {
                offset: clean.len() as u64
            }
        );

        // A bit flipped in inter-section padding (the byte just before
        // the first payload is pad: the header block is not a multiple
        // of 64 with 12 sections).
        let first_payload = usize::try_from(read_u64(&clean, 32 + 8)).unwrap();
        let table_end = 32 + wire::ALL.len() * 32;
        assert!(first_payload > table_end + 8, "layout has header padding");
        let mut bad = clean.clone();
        bad[first_payload - 1] = 0x01;
        assert_eq!(
            decode_file(&bad).unwrap_err(),
            StoreError::TrailingGarbage {
                offset: (first_payload - 1) as u64
            }
        );
    }

    #[test]
    fn stale_image_checksum_is_caught_after_decode() {
        let (image, checksum) = sample_image();
        // Header promises a different content checksum than the (intact)
        // sections hash to — the post-decode rung must catch it.
        let bytes = encode_file(&image, checksum ^ 0xDEAD);
        assert_eq!(
            decode_file(&bytes).unwrap_err(),
            StoreError::ImageChecksum {
                expected: checksum ^ 0xDEAD,
                actual: checksum,
            }
        );
    }

    #[test]
    fn sabotage_is_deterministic_and_always_detected() {
        let (image, checksum) = sample_image();
        let clean = encode_file(&image, checksum);
        for site in 0..200u64 {
            let mut a = clean.clone();
            let mut b = clean.clone();
            sabotage_file_bytes(&mut a, site);
            sabotage_file_bytes(&mut b, site);
            assert_eq!(a, b, "site {site} must corrupt deterministically");
            assert!(
                decode_file(&a).is_err(),
                "site {site} must never slip past the loader"
            );
        }
    }
}
