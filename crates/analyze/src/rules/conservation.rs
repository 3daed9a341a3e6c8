//! The cycle-attribution conservation audit.
//!
//! Replays the trace through every Table II configuration and checks the
//! engine's one-bucket-per-cycle invariant: the per-bucket
//! [`valign_pipeline::StallBreakdown`] carried by each
//! [`valign_pipeline::SimResult`] must sum **exactly** to the replay's
//! total cycle count (ERROR otherwise). A violation means attribution
//! dropped or double-charged cycles — the figures' speedup decomposition
//! would silently misreport where time went.
//!
//! The rule actually runs the simulator, so [`crate::analyze_trace`] only
//! reaches it when every structural rule passed clean: a malformed trace
//! (bad latency tables, dangling producer indices) is reported by those
//! rules instead of crashing the replay here.

use crate::{Diagnostic, Severity, TraceCtx};
use valign_pipeline::{PipelineConfig, Simulator};

/// Stable name of this rule.
pub const RULE: &str = "attribution-conservation";

/// Runs the rule over one trace.
pub fn check(ctx: &TraceCtx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for cfg in PipelineConfig::table_ii() {
        let name = cfg.name;
        let r = Simulator::simulate_reference(cfg, None, ctx.trace);
        if !r.breakdown.conserves(r.cycles) {
            out.push(ctx.diag(
                RULE,
                Severity::Error,
                None,
                format!(
                    "attribution on {name} lost cycles: buckets sum to {} \
                     but the replay took {} cycles ({})",
                    r.breakdown.total(),
                    r.cycles,
                    r.breakdown,
                ),
            ));
        }
    }
    out
}
