//! # valign-analyze — static analysis over traces and model metadata
//!
//! The repo's experiments all flow through recorded dynamic traces: the
//! tracing VM emits them, the cycle-accurate simulator replays them, and
//! every table and figure of the paper reproduction is derived from the
//! replay. This crate checks the artefacts *between* those stages — the
//! traces themselves and the ISA/pipeline metadata they are interpreted
//! against — so a modelling bug surfaces as a named diagnostic instead of
//! a silently wrong cycle count.
//!
//! Ten rules (see [`rules`]):
//!
//! | rule | checks | gate |
//! |------|--------|------|
//! | `trace-wellformed` | record stream structure, EAs inside the memory map | ERROR |
//! | `alignment-invariant` | Altivec truncation, variant/opcode discipline | ERROR |
//! | `register-def-use` | read-before-write, producer wiring, dead vector defs | mixed |
//! | `memory-dependence` | store→load overlaps vs the LSU's ordering model | WARNING |
//! | `latency-completeness` | every observed opcode in all Table II tables | ERROR |
//! | `image-structure` | every [`ReplayImage::violations`] finding: array lengths, masks, cursors, opcode/flag domains, producer distances | ERROR |
//! | `image-dep-oracle` | dependence lists == recomputed store-queue oracle (so also in bounds, acyclic, inside the LSU window) | ERROR |
//! | `attribution-conservation` | stall buckets sum exactly to replay cycles | ERROR |
//! | `outcome-consistency` | clean supervised replay: thread-count invariant, all Completed, `==` direct replay | ERROR |
//! | `costmodel-soundness` | measured attribution inside the static cost-model bounds | ERROR |
//!
//! The two `image-*` rules are *static audit* rules over a packed
//! [`ReplayImage`] — they need no trace and run equally on images decoded
//! from `.vimg` store files ([`audit`], the engine of `valign audit`).
//! The conservation, outcome and costmodel-soundness rules replay the
//! trace (all Table II configurations), so they run only on traces the
//! structural rules passed clean; costmodel-soundness compares the
//! measured attribution against the zero-simulation bounds of
//! [`valign_pipeline::costmodel`].
//!
//! The CLI front ends are `valign lint` and `valign audit` (see the
//! repository README); the lint gate is **zero ERROR diagnostics across
//! every kernel/variant pair**. JSON output is versioned — see
//! [`diag::SCHEMA_VERSION`] and [`diag::RuleName`].
//!
//! ## Example
//!
//! ```
//! use valign_analyze::{analyze_trace, table_ii_latency_tables, TraceCtx};
//! use valign_core::workload::{trace_kernel, KernelId};
//! use valign_kernels::util::Variant;
//!
//! let trace = trace_kernel(KernelId::Idct4x4, Variant::Unaligned, 4, 7);
//! let tables = table_ii_latency_tables();
//! let ctx = TraceCtx::new(&trace, "idct4x4", Variant::Unaligned, None);
//! let diags = analyze_trace(&ctx, &tables);
//! assert!(diags.iter().all(|d| d.severity < valign_analyze::Severity::Error));
//! ```

#![forbid(unsafe_code)]

pub mod audit;
pub mod diag;
pub mod rules;

pub use diag::{Diagnostic, RuleName, Severity, SCHEMA_VERSION};

use valign_core::workload::KernelId;
use valign_core::{SimContext, TraceKey, Workload};
use valign_isa::Trace;
use valign_kernels::util::Variant;
use valign_pipeline::{LatencyTable, PipelineConfig, ReplayImage};

/// Cap on non-ERROR diagnostics reported per rule per trace. ERRORs are
/// never capped; a suppression summary [`Severity::Info`] records how many
/// warnings were dropped.
pub const MAX_WARNINGS_PER_RULE: usize = 20;

/// Everything a rule needs to know about the trace under analysis.
pub struct TraceCtx<'a> {
    /// The trace under analysis.
    pub trace: &'a Trace,
    /// Kernel label ("luma16x16", …) for diagnostics.
    pub kernel: String,
    /// The implementation variant the trace was recorded from.
    pub variant: Variant,
    /// Exclusive upper bound of the workload's memory image, when known
    /// ([`Workload::mem_limit`]); enables the out-of-map check of the
    /// well-formedness rule.
    pub mem_limit: Option<u64>,
}

impl<'a> TraceCtx<'a> {
    /// Builds a context for one trace.
    pub fn new(
        trace: &'a Trace,
        kernel: impl Into<String>,
        variant: Variant,
        mem_limit: Option<u64>,
    ) -> Self {
        TraceCtx {
            trace,
            kernel: kernel.into(),
            variant,
            mem_limit,
        }
    }

    /// Builds one diagnostic against this trace.
    pub fn diag(
        &self,
        rule: &'static str,
        severity: Severity,
        instr_index: Option<u32>,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            rule,
            severity,
            kernel: self.kernel.clone(),
            variant: self.variant.label().to_string(),
            instr_index,
            message,
        }
    }
}

/// Everything an image audit rule needs to know about the packed image
/// under analysis. Unlike [`TraceCtx`] there is no trace here: the image
/// may have come straight off disk (`valign audit --store-dir`), in
/// which case the packed arrays are the *only* artefact.
pub struct ImageCtx<'a> {
    /// The packed replay image under analysis.
    pub image: &'a ReplayImage,
    /// Kernel label ("luma16x16", …) for diagnostics — or a file name
    /// when auditing an unkeyed store entry.
    pub kernel: String,
    /// Variant label ("scalar", …) — or `"image"` when unknown.
    pub variant: String,
}

impl<'a> ImageCtx<'a> {
    /// Builds a context for one image.
    pub fn new(
        image: &'a ReplayImage,
        kernel: impl Into<String>,
        variant: impl Into<String>,
    ) -> Self {
        ImageCtx {
            image,
            kernel: kernel.into(),
            variant: variant.into(),
        }
    }

    /// Builds one diagnostic against this image.
    pub fn diag(
        &self,
        rule: &'static str,
        severity: Severity,
        instr_index: Option<u32>,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            rule,
            severity,
            kernel: self.kernel.clone(),
            variant: self.variant.clone(),
            instr_index,
            message,
        }
    }
}

/// Runs the two static image audit rules over one packed image — no
/// trace, no simulation. The engine of `valign audit`; also folded into
/// every `valign lint` run by [`analyze_trace_with_image`].
pub fn analyze_image(ctx: &ImageCtx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    out.extend(rules::image_structure::check(ctx));
    out.extend(rules::image_dep_oracle::check(ctx));
    out
}

/// Caps non-ERROR findings of one rule at [`MAX_WARNINGS_PER_RULE`],
/// appending an Info summary when anything was dropped. ERRORs always
/// pass through.
fn cap_warnings(ctx: &TraceCtx<'_>, rule: &'static str, diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let total_soft = diags
        .iter()
        .filter(|d| d.severity < Severity::Error)
        .count();
    if total_soft <= MAX_WARNINGS_PER_RULE {
        return diags;
    }
    let mut kept_soft = 0;
    let mut out: Vec<Diagnostic> = diags
        .into_iter()
        .filter(|d| {
            if d.severity == Severity::Error {
                return true;
            }
            kept_soft += 1;
            kept_soft <= MAX_WARNINGS_PER_RULE
        })
        .collect();
    out.push(ctx.diag(
        rule,
        Severity::Info,
        None,
        format!(
            "{} further non-error diagnostic(s) suppressed (cap {MAX_WARNINGS_PER_RULE})",
            total_soft - MAX_WARNINGS_PER_RULE
        ),
    ));
    out
}

/// Runs every rule over one trace against the given latency tables,
/// building the packed replay image itself. Prefer
/// [`analyze_trace_with_image`] when a prepared image already exists
/// (the lint path does, via the trace store) — analysing the image that
/// will actually replay beats analysing a fresh rebuild.
pub fn analyze_trace(ctx: &TraceCtx<'_>, tables: &[LatencyTable]) -> Vec<Diagnostic> {
    let image = ReplayImage::build(ctx.trace);
    analyze_trace_with_image(ctx, tables, &image)
}

/// Runs every rule over one trace *and* its packed image.
///
/// Diagnostics come back grouped by rule in the order of
/// [`rules::ALL_RULES`], warnings capped per rule (see
/// [`MAX_WARNINGS_PER_RULE`]).
pub fn analyze_trace_with_image(
    ctx: &TraceCtx<'_>,
    tables: &[LatencyTable],
    image: &ReplayImage,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    out.extend(cap_warnings(
        ctx,
        rules::wellformed::RULE,
        rules::wellformed::check(ctx),
    ));
    out.extend(cap_warnings(
        ctx,
        rules::alignment::RULE,
        rules::alignment::check(ctx),
    ));
    out.extend(cap_warnings(
        ctx,
        rules::defuse::RULE,
        rules::defuse::check(ctx),
    ));
    out.extend(cap_warnings(
        ctx,
        rules::memdep::RULE,
        rules::memdep::check(ctx),
    ));
    out.extend(cap_warnings(
        ctx,
        rules::latency::RULE,
        rules::latency::check(ctx, tables),
    ));
    // The static image audit rules, on the same image the replay rules
    // below would consume.
    let ictx = ImageCtx::new(image, ctx.kernel.clone(), ctx.variant.label());
    out.extend(analyze_image(&ictx));
    // The conservation, outcome and costmodel-soundness rules replay the
    // trace through the engine, which a structurally broken trace
    // (incomplete latency table, dangling producer index) could crash —
    // run them only when every structural rule passed without an ERROR.
    if out.iter().all(|d| d.severity < Severity::Error) {
        out.extend(cap_warnings(
            ctx,
            rules::conservation::RULE,
            rules::conservation::check(ctx),
        ));
        out.extend(cap_warnings(
            ctx,
            rules::outcome::RULE,
            rules::outcome::check(ctx),
        ));
        out.extend(cap_warnings(
            ctx,
            rules::costmodel::RULE,
            rules::costmodel::check(ctx, image),
        ));
    }
    out
}

/// Options of one lint run.
#[derive(Debug, Clone, Copy)]
pub struct LintOptions {
    /// Kernel executions per trace.
    pub execs: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for LintOptions {
    /// Small traces: the invariants the ERROR rules check are per-record,
    /// so a few executions exercise every static site without paying for
    /// full experiment-sized traces.
    fn default() -> Self {
        LintOptions {
            execs: 20,
            seed: 20070425,
        }
    }
}

/// The outcome of a lint run: all diagnostics over all analysed traces.
#[derive(Debug, Default)]
pub struct LintReport {
    /// All findings, grouped by trace in analysis order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of kernel/variant traces analysed.
    pub traces_analyzed: usize,
}

impl LintReport {
    /// Number of ERROR findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of WARNING findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, s: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == s).count()
    }

    /// Whether the gate passes: zero ERROR diagnostics.
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }

    /// Renders the report for terminals: one line per finding plus a
    /// summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render_human());
            out.push('\n');
        }
        out.push_str(&format!(
            "lint: {} trace(s), {} error(s), {} warning(s)\n",
            self.traces_analyzed,
            self.errors(),
            self.warnings()
        ));
        out
    }

    /// Renders the report as one JSON object with the schema version,
    /// counts and the full diagnostic array (see [`SCHEMA_VERSION`]).
    pub fn render_json(&self) -> String {
        let items: Vec<String> = self
            .diagnostics
            .iter()
            .map(diag::Diagnostic::render_json)
            .collect();
        format!(
            r#"{{"schema_version":{SCHEMA_VERSION},"traces_analyzed":{},"errors":{},"warnings":{},"diagnostics":[{}]}}"#,
            self.traces_analyzed,
            self.errors(),
            self.warnings(),
            items.join(",")
        )
    }
}

/// The three Table II latency tables, the set `valign lint` audits
/// against.
pub fn table_ii_latency_tables() -> Vec<LatencyTable> {
    PipelineConfig::table_ii()
        .iter()
        .map(valign_pipeline::PipelineConfig::latency_table)
        .collect()
}

/// Lints one kernel/variant pair through the shared [`SimContext`] (the
/// trace comes from the content-addressed store, so experiments running in
/// the same session reuse it).
pub fn lint_kernel(
    ctx: &SimContext,
    kernel: KernelId,
    variant: Variant,
    opts: LintOptions,
) -> LintReport {
    let tables = table_ii_latency_tables();
    let mem_limit = Workload::new(opts.seed).mem_limit();
    let mut report = LintReport::default();
    lint_into(&mut report, ctx, kernel, variant, opts, &tables, mem_limit);
    report
}

/// Lints every kernel/variant pair. The gate of CI's `lint-traces` job:
/// [`LintReport::is_clean`] must hold.
pub fn lint_all(ctx: &SimContext, opts: LintOptions) -> LintReport {
    let tables = table_ii_latency_tables();
    let mem_limit = Workload::new(opts.seed).mem_limit();
    let mut report = LintReport::default();
    for &kernel in KernelId::ALL {
        for &variant in Variant::ALL {
            lint_into(&mut report, ctx, kernel, variant, opts, &tables, mem_limit);
        }
    }
    report
}

fn lint_into(
    report: &mut LintReport,
    ctx: &SimContext,
    kernel: KernelId,
    variant: Variant,
    opts: LintOptions,
    tables: &[LatencyTable],
    mem_limit: u64,
) {
    // Lint the *prepared* trace: the image rules then run on exactly the
    // packed arrays a replay would consume — when the context's store is
    // disk-backed (`valign lint --store-dir`), that is the image decoded
    // from the `.vimg` file, so the whole decode path is under the gate.
    let prepared = ctx.store().prepared_for_records(TraceKey {
        kernel,
        variant,
        execs: opts.execs,
        seed: opts.seed,
    });
    let trace = prepared.trace();
    let tctx = TraceCtx::new(&trace, kernel.label(), variant, Some(mem_limit));
    report
        .diagnostics
        .extend(analyze_trace_with_image(&tctx, tables, &prepared.image));
    report.traces_analyzed += 1;
}
