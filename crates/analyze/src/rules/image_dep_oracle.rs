//! `image-dep-oracle` — the pre-resolved dependence lists agree with a
//! recomputed store-queue oracle.
//!
//! The rule re-runs the exact build-time store-queue scan — a trailing
//! [`STORE_QUEUE_TRACK`]-entry window of `(addr, bytes, ordinal)` with
//! [`ranges_overlap`] — over the image's own record stream (flags +
//! compact address/width arrays) and compares every memory record's list
//! against the stored one; a store's oracle list is empty. Any
//! disagreement means the packed image would replay different store→load
//! timing than the trace it claims to represent, which no checksum can
//! catch once the file is the only artefact left — exactly the corruption
//! a store-level audit exists to find.
//!
//! The oracle only ever lists stores that exist, precede the load and sit
//! inside the [`STORE_QUEUE_TRACK`]-store window the replay's completion
//! ring holds, so a list that matches it is also in bounds, acyclic and
//! windowed (the guarded replay's
//! [`SimError::DepOutOfWindow`](valign_pipeline::SimError) is the dynamic
//! rung of the last). When a stored list breaks one of those properties,
//! the diagnostic names the first entry that does.
//!
//! The rule runs only on images that pass
//! [`ReplayImage::validate`](valign_pipeline::ReplayImage::validate);
//! `image-structure` reports the rest, and without it the dependence
//! lists cannot be sliced.

use crate::diag::{Diagnostic, Severity};
use crate::ImageCtx;
use std::collections::VecDeque;
use valign_pipeline::image::{flags, MAX_RECORD_VIOLATIONS};
use valign_pipeline::{ranges_overlap, STORE_QUEUE_TRACK};

pub const RULE: &str = "image-dep-oracle";

/// Why `ord` cannot be a dependence of a load that `stores_seen` stores
/// precede, in an image holding `total_stores` stores — `None` when the
/// ordinal is possible (it may still disagree with the oracle).
fn impossible(ord: u32, stores_seen: u32, total_stores: u32) -> Option<String> {
    if ord >= total_stores {
        Some(format!(
            "dependence ordinal {ord} out of bounds ({total_stores} stores in the image)"
        ))
    } else if ord >= stores_seen {
        Some(format!(
            "load depends on store ordinal {ord}, but only {stores_seen} stores precede it — \
             a forward (cyclic) dependence"
        ))
    } else if stores_seen - ord > STORE_QUEUE_TRACK as u32 {
        Some(format!(
            "dependence ordinal {ord} is {} stores behind the load, outside the \
             {STORE_QUEUE_TRACK}-store tracking window",
            stores_seen - ord
        ))
    } else {
        None
    }
}

pub fn check(ctx: &ImageCtx<'_>) -> Vec<Diagnostic> {
    let img = ctx.image;
    if img.validate().is_err() {
        return Vec::new();
    }
    let total_stores = img
        .flags()
        .iter()
        .filter(|&&f| f & flags::STORE != 0)
        .count() as u32;
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
        let message = if f & flags::STORE != 0 {
            if recent.len() == STORE_QUEUE_TRACK {
                recent.pop_front();
            }
            recent.push_back((addr, bytes, stores_seen));
            stores_seen += 1;
            (!stored.is_empty()).then(|| {
                format!(
                    "store record carries a dependence list of {} entries (stores must have \
                     empty lists)",
                    stored.len()
                )
            })
        } else {
            let oracle: Vec<u32> = recent
                .iter()
                .filter(|&&(a, b, _)| ranges_overlap(a, b, addr, bytes))
                .map(|&(_, _, ord)| ord)
                .collect();
            (stored != oracle.as_slice()).then(|| {
                match stored
                    .iter()
                    .find_map(|&ord| impossible(ord, stores_seen, total_stores))
                {
                    Some(why) => format!("{why} (stored list {stored:?}, oracle {oracle:?})"),
                    None => format!(
                        "stored dependence list {stored:?} disagrees with the recomputed \
                         store-queue oracle {oracle:?}"
                    ),
                }
            })
        };
        if let Some(message) = message {
            sites += 1;
            if sites <= MAX_RECORD_VIOLATIONS {
                out.push(ctx.diag(RULE, Severity::Error, Some(idx as u32), message));
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
