//! `image-dep-oracle` — the pre-resolved dependence lists agree with a
//! recomputed store-queue oracle.
//!
//! `image-deps` checks the lists are *possible* (in bounds, backward,
//! windowed); this rule checks they are *right*: it re-runs the exact
//! build-time store-queue scan — a trailing
//! [`STORE_QUEUE_TRACK`]-entry window of `(addr, bytes, ordinal)` with
//! [`ranges_overlap`] — over the image's own record stream (flags +
//! compact address/width arrays) and compares every memory record's list
//! against the stored one. Any disagreement means the packed image would
//! replay different store→load timing than the trace it claims to
//! represent, which no checksum can catch once the file is the only
//! artefact left — exactly the corruption a store-level audit exists to
//! find.
//!
//! The rule runs only on images that pass
//! [`ReplayImage::validate`](valign_pipeline::ReplayImage::validate);
//! `image-structure` reports the rest.

use crate::diag::{Diagnostic, Severity};
use crate::ImageCtx;
use std::collections::VecDeque;
use valign_pipeline::image::{flags, MAX_RECORD_VIOLATIONS};
use valign_pipeline::{ranges_overlap, STORE_QUEUE_TRACK};

pub const RULE: &str = "image-dep-oracle";

pub fn check(ctx: &ImageCtx<'_>) -> Vec<Diagnostic> {
    let img = ctx.image;
    if img.validate().is_err() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut sites = 0usize;
    let mut recent: VecDeque<(u64, u64, u32)> = VecDeque::with_capacity(STORE_QUEUE_TRACK);
    let mut stores_seen = 0u32;
    let mut cursor = 0usize;
    for (idx, &f) in img.flags().iter().enumerate() {
        if f & flags::MEM == 0 {
            continue;
        }
        let addr = img.mem_addrs()[cursor];
        let bytes = u64::from(img.mem_bytes()[cursor]);
        let stored = img.mem_deps_at(cursor);
        cursor += 1;
        if f & flags::STORE != 0 {
            if recent.len() == STORE_QUEUE_TRACK {
                recent.pop_front();
            }
            recent.push_back((addr, bytes, stores_seen));
            stores_seen += 1;
            continue;
        }
        let oracle: Vec<u32> = recent
            .iter()
            .filter(|&&(a, b, _)| ranges_overlap(a, b, addr, bytes))
            .map(|&(_, _, ord)| ord)
            .collect();
        if stored != oracle.as_slice() {
            sites += 1;
            if sites <= MAX_RECORD_VIOLATIONS {
                out.push(ctx.diag(
                    RULE,
                    Severity::Error,
                    Some(idx as u32),
                    format!(
                        "stored dependence list {stored:?} disagrees with the recomputed \
                         store-queue oracle {oracle:?}"
                    ),
                ));
            }
        }
    }
    if sites > MAX_RECORD_VIOLATIONS {
        out.push(ctx.diag(
            RULE,
            Severity::Error,
            None,
            format!(
                "{} further oracle disagreement(s) suppressed (cap {MAX_RECORD_VIOLATIONS})",
                sites - MAX_RECORD_VIOLATIONS
            ),
        ));
    }
    out
}
