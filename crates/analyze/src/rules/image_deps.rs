//! `image-deps` — the pre-resolved store→load dependence lists are
//! acyclic, in bounds, and inside the LSU's tracking window.
//!
//! [`ReplayImage::build`](valign_pipeline::ReplayImage::build) resolves
//! each load's overlapping recent stores into ordinal lists that the
//! replay loop consumes through a
//! [`STORE_QUEUE_TRACK`]-entry completion ring. Three properties make
//! that consumption safe, and this rule re-checks each directly on the
//! packed arrays:
//!
//! * **in bounds** — every ordinal names a store that exists in the
//!   image;
//! * **acyclic** — a load only depends on stores that precede it in
//!   program order (an ordinal at or past the number of stores already
//!   seen is a forward edge, i.e. a cycle through the dependence
//!   relation);
//! * **windowed** — the named store is within the trailing
//!   [`STORE_QUEUE_TRACK`] stores, the only region the completion ring
//!   still holds (the guarded replay's
//!   [`SimError::DepOutOfWindow`](valign_pipeline::SimError) is the
//!   dynamic rung of the same invariant);
//!
//! plus: stores carry no dependence lists at all.
//!
//! The rule runs only on images that pass
//! [`ReplayImage::validate`](valign_pipeline::ReplayImage::validate) —
//! broken cursor bookkeeping is `image-structure`'s finding, and without
//! it the dependence lists cannot be sliced.

use crate::diag::{Diagnostic, Severity};
use crate::ImageCtx;
use valign_pipeline::image::{flags, MAX_RECORD_VIOLATIONS};
use valign_pipeline::STORE_QUEUE_TRACK;

pub const RULE: &str = "image-deps";

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
    let mut err = |sites: &mut usize, idx: u32, msg: String| {
        *sites += 1;
        if *sites <= MAX_RECORD_VIOLATIONS {
            out.push(ctx.diag(RULE, Severity::Error, Some(idx), msg));
        }
    };

    let mut stores_seen = 0u32;
    let mut cursor = 0usize;
    for (idx, &f) in img.flags().iter().enumerate() {
        if f & flags::MEM == 0 {
            continue;
        }
        let list = img.mem_deps_at(cursor);
        cursor += 1;
        if f & flags::STORE != 0 {
            if !list.is_empty() {
                err(
                    &mut sites,
                    idx as u32,
                    format!(
                        "store record carries a dependence list of {} entries (stores must \
                         have empty lists)",
                        list.len()
                    ),
                );
            }
            stores_seen += 1;
            continue;
        }
        for &ord in list {
            if ord >= total_stores {
                err(
                    &mut sites,
                    idx as u32,
                    format!(
                        "dependence ordinal {ord} out of bounds ({total_stores} stores in \
                         the image)"
                    ),
                );
            } else if ord >= stores_seen {
                err(
                    &mut sites,
                    idx as u32,
                    format!(
                        "load depends on store ordinal {ord}, but only {stores_seen} stores \
                         precede it — a forward (cyclic) dependence"
                    ),
                );
            } else if stores_seen - ord > STORE_QUEUE_TRACK as u32 {
                err(
                    &mut sites,
                    idx as u32,
                    format!(
                        "dependence ordinal {ord} is {} stores behind the load, outside the \
                         {STORE_QUEUE_TRACK}-store tracking window",
                        stores_seen - ord
                    ),
                );
            }
        }
    }
    if sites > MAX_RECORD_VIOLATIONS {
        out.push(ctx.diag(
            RULE,
            Severity::Error,
            None,
            format!(
                "{} further dependence violation(s) suppressed (cap {MAX_RECORD_VIOLATIONS})",
                sites - MAX_RECORD_VIOLATIONS
            ),
        ));
    }
    out
}
