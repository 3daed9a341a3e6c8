//! `costmodel-soundness` — measured cycle attribution falls inside the
//! static cost-model bounds.
//!
//! The static cost model ([`valign_pipeline::costmodel`]) derives, from
//! image structure alone, sound intervals for the `realign`, `raw-dep`
//! and `issue-width` attribution buckets plus a floor on total cycles,
//! per Table II configuration. This rule replays the trace (the measured
//! side, PR 4's attribution walk) and flags any bucket escaping its
//! interval as an ERROR carrying the offending instruction window — an
//! escape means either the bound derivation or the attribution charging
//! is wrong, and both are load-bearing claims of the reproduction.
//!
//! Like the other replaying rules it only runs once every structural rule
//! (trace *and* image) has passed clean.

use crate::diag::{Diagnostic, Severity};
use crate::TraceCtx;
use valign_pipeline::{costmodel, Bucket, PipelineConfig, ReplayImage, Simulator};

pub const RULE: &str = "costmodel-soundness";

pub fn check(ctx: &TraceCtx<'_>, image: &ReplayImage) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for cfg in PipelineConfig::table_ii() {
        let name = cfg.name;
        let retire_width = cfg.retire_width;
        let b = costmodel::bounds(image, &cfg);
        let r = Simulator::simulate_reference(cfg, None, ctx.trace);
        let window = |w: Option<(u32, u32)>| match w {
            Some((first, last)) => format!(" (records {first}..{last})"),
            None => String::new(),
        };
        let mut escape = |bucket: &str, measured: u64, lo: u64, hi: u64, w: String| {
            if measured < lo || measured > hi {
                out.push(ctx.diag(
                    RULE,
                    Severity::Error,
                    None,
                    format!(
                        "{name}: measured {bucket} {measured} cycles escapes the static \
                         bounds [{lo}, {hi}]{w}"
                    ),
                ));
            }
        };
        escape(
            "realign",
            r.breakdown.get(Bucket::Realign),
            b.realign_lo,
            b.realign_hi,
            window(b.realign_window),
        );
        escape(
            "raw-dep",
            r.breakdown.get(Bucket::RawDependence),
            b.raw_dep_lo,
            b.raw_dep_hi,
            window(b.raw_dep_window),
        );
        escape(
            "issue-width",
            r.breakdown.get(Bucket::IssueWidth),
            b.issue_width_lo,
            b.issue_width_hi,
            String::new(),
        );
        if r.cycles < b.cycles_lo {
            out.push(ctx.diag(
                RULE,
                Severity::Error,
                None,
                format!(
                    "{name}: measured {} cycles under the static floor of {} \
                     (retirement cannot exceed {retire_width} records/cycle)",
                    r.cycles, b.cycles_lo,
                ),
            ));
        }
    }
    out
}
