//! `image-structure` — the structural invariants of a packed
//! [`ReplayImage`](valign_pipeline::ReplayImage): array lengths, presence
//! masks against flags and compact arrays, dependence cursors, and each
//! record's unit and flags against its opcode.
//!
//! The checker itself is
//! [`ReplayImage::violations`](valign_pipeline::ReplayImage::violations),
//! which also backs the `validate()` rung the supervised replay path and
//! the store's decode path run — so the audit and the runtime share one
//! definition of a well-formed image. This rule maps each violation to
//! one ERROR: none of them can occur in an image
//! [`ReplayImage::build`](valign_pipeline::ReplayImage::build) produced.

use crate::diag::{Diagnostic, Severity};
use crate::ImageCtx;
use valign_pipeline::SimError;

pub const RULE: &str = "image-structure";

pub fn check(ctx: &ImageCtx<'_>) -> Vec<Diagnostic> {
    ctx.image
        .violations()
        .into_iter()
        .map(|v| match v {
            SimError::CorruptImage { index, detail } => {
                ctx.diag(RULE, Severity::Error, index.map(|i| i as u32), detail)
            }
            other => ctx.diag(RULE, Severity::Error, None, other.to_string()),
        })
        .collect()
}
