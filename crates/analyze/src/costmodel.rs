//! Static cost model — analysis-facing re-export.
//!
//! The model itself lives in [`valign_pipeline::costmodel`], next to the
//! pipeline configuration and attribution machinery whose semantics its
//! bounds are derived from. Analysis code and the `valign audit` CLI
//! import it from here: from image structure alone — zero simulation —
//! it computes, per Table II configuration, sound lower/upper bounds on
//! the `realign`, `raw-dep` and `issue-width` attribution buckets plus a
//! floor on total cycles. The [`crate::rules::costmodel`] rule checks
//! every measured replay against these intervals.

pub use valign_pipeline::costmodel::{bounds, CostBounds};
