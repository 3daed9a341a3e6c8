//! The supervised-outcome consistency audit.
//!
//! Runs the trace through the [`valign_core::SupervisedRunner`] — no
//! faults injected — across every Table II configuration, at one worker
//! thread and at two, and checks three invariants (ERROR otherwise):
//!
//! * the two outcome sequences are identical (supervision is
//!   deterministic across thread counts);
//! * every outcome is [`valign_core::JobOutcome::Completed`] — on a
//!   healthy trace the supervisor must be invisible: no retry, no
//!   degradation, no quarantine, no watchdog trip;
//! * each completed result is bit-identical to a direct unsupervised
//!   replay of the same trace/configuration through the record-form
//!   reference path.
//!
//! A violation means the supervision layer changed the measurement it was
//! supposed to only guard — the one failure mode a robustness layer must
//! never have.
//!
//! Like the conservation rule, this rule replays the trace, so
//! [`crate::analyze_trace`] only reaches it on traces the structural
//! rules passed clean.

use crate::{Diagnostic, Severity, TraceCtx};
use std::sync::Arc;
use valign_core::{JobOutcome, SimJob, SupervisedRunner, TraceStore};
use valign_pipeline::{PipelineConfig, Simulator};

/// Stable name of this rule.
pub const RULE: &str = "outcome-consistency";

/// Runs the rule over one trace.
pub fn check(ctx: &TraceCtx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let trace = Arc::new(ctx.trace.clone());
    // Cold jobs: one replay per config keeps the audit cheap, and warm-up
    // discipline is orthogonal to what is being checked here.
    let jobs: Vec<SimJob> = PipelineConfig::table_ii()
        .into_iter()
        .map(|cfg| SimJob::shared(Arc::clone(&trace), cfg).cold())
        .collect();
    let store = TraceStore::new();
    let serial = SupervisedRunner::new(1).run(&store, &jobs);
    let parallel = SupervisedRunner::new(2).run(&store, &jobs);
    if serial != parallel {
        out.push(
            ctx.diag(
                RULE,
                Severity::Error,
                None,
                "supervised outcome sequence differs between 1 and 2 worker \
             threads — supervision is not schedule-independent"
                    .to_string(),
            ),
        );
    }
    for (job, outcome) in jobs.iter().zip(&serial) {
        let name = job.cfg.name;
        let JobOutcome::Completed { result } = outcome else {
            out.push(ctx.diag(
                RULE,
                Severity::Error,
                None,
                format!(
                    "clean supervised replay on {name} did not complete \
                     first try: outcome was {}",
                    outcome.kind(),
                ),
            ));
            continue;
        };
        let direct = Simulator::simulate_reference(job.cfg.clone(), None, ctx.trace);
        if *result != direct {
            out.push(ctx.diag(
                RULE,
                Severity::Error,
                None,
                format!(
                    "supervised replay on {name} diverged from the direct \
                     replay ({} vs {} cycles) — supervision altered the \
                     measurement",
                    result.cycles, direct.cycles,
                ),
            ));
        }
    }
    out
}
