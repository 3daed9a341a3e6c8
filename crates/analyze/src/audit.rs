//! `valign audit` — store- and matrix-level static audit drivers.
//!
//! Two entry points, mirroring the CLI's two modes:
//!
//! * [`audit_store`] walks a persistent image store directory
//!   ([`valign_store::StoreDir`]): every `.vimg` file is decoded through
//!   the real loader (the full integrity ladder), its content checksum
//!   re-derived from the decoded arrays, the two static `image-*` rules
//!   run ([`crate::analyze_image`]), and — when the image is clean — the
//!   zero-simulation cost-model bounds of [`valign_pipeline::costmodel`]
//!   computed for every Table II configuration. **No trace is recorded
//!   and no cycle is simulated**; the verdict is reached from the bytes on
//!   disk alone.
//! * [`audit_matrix`] audits the full evaluation matrix (every kernel ×
//!   variant) through the shared [`SimContext`] store, then runs the
//!   dynamic `costmodel-soundness` rule on each clean pair: one replay
//!   per Table II configuration, checked against the static bounds. Its
//!   human rendering emits one `costmodel-soundness: pass` line per
//!   clean pair — the token CI greps for.
//!
//! Both reports render human and JSON forms; JSON carries
//! [`crate::SCHEMA_VERSION`] like the lint report.

use crate::{rules, Diagnostic, ImageCtx, Severity, TraceCtx, SCHEMA_VERSION};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use valign_core::serve::protocol::escape_json;
use valign_core::store_ops::matrix_keys;
use valign_core::SimContext;
use valign_pipeline::costmodel::{bounds, CostBounds};
use valign_pipeline::PipelineConfig;
use valign_store::{StoreDir, StoreError};

/// Options of one audit run. The workload parameters only matter for
/// labelling store files (mapping content hashes back to kernel/variant
/// names) and for preparing matrix images; the image rules themselves
/// are parameter-free.
#[derive(Debug, Clone, Copy)]
pub struct AuditOptions {
    /// Kernel executions per trace.
    pub execs: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for AuditOptions {
    /// Matches [`crate::LintOptions`]: small traces exercise every static
    /// site, and the default matches what `valign pack` writes.
    fn default() -> Self {
        AuditOptions {
            execs: 20,
            seed: 20070425,
        }
    }
}

/// Audit verdict for one store file.
#[derive(Debug)]
pub struct FileAudit {
    /// File name inside the store directory.
    pub file: String,
    /// `kernel/variant` when the file's hash matches a key of the
    /// standard evaluation matrix at the audit's `execs`/`seed`;
    /// `"unkeyed"` otherwise (the image is still fully audited).
    pub label: String,
    /// File size on disk.
    pub bytes: u64,
    /// Records in the decoded image (0 when decode failed).
    pub records: usize,
    /// Why the loader rejected the file, when it did. A decode failure
    /// is an audit error; the image rules never ran.
    pub decode_error: Option<String>,
    /// Whether the content checksum re-derived from the decoded arrays
    /// matches the one the file's header carried. (The loader already
    /// verifies this; the audit re-derives it independently so the
    /// verdict does not rest on the loader's own bookkeeping.)
    pub checksum_rederived: bool,
    /// Findings of the two static `image-*` rules.
    pub diagnostics: Vec<Diagnostic>,
    /// Static cost-model bounds per Table II configuration — computed
    /// only when the image passed the rules clean (the bound walk trusts
    /// the invariants the rules check).
    pub bounds: Vec<CostBounds>,
}

impl FileAudit {
    /// ERROR findings chargeable to this file, counting a decode failure
    /// or checksum mismatch as one each.
    pub fn errors(&self) -> usize {
        let mut n = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        if self.decode_error.is_some() {
            n += 1;
        }
        if !self.checksum_rederived {
            n += 1;
        }
        n
    }
}

/// The outcome of [`audit_store`]: per-file verdicts over one store
/// directory.
#[derive(Debug)]
pub struct StoreAuditReport {
    /// The audited store directory.
    pub root: PathBuf,
    /// Per-file verdicts, in directory order.
    pub files: Vec<FileAudit>,
    /// Wall time of the whole audit (decode + rules + bounds).
    pub wall: Duration,
}

impl StoreAuditReport {
    /// Total ERROR count across all files.
    pub fn errors(&self) -> usize {
        self.files.iter().map(FileAudit::errors).sum()
    }

    /// Total WARNING count across all files.
    pub fn warnings(&self) -> usize {
        self.files
            .iter()
            .flat_map(|f| &f.diagnostics)
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Whether the audit passes: zero ERRORs.
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }

    /// Renders the report for terminals: one verdict line per file, the
    /// diagnostics under it, and a summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.files {
            let verdict = if let Some(e) = &f.decode_error {
                format!("decode FAILED: {e}")
            } else if !f.checksum_rederived {
                "content checksum mismatch".to_string()
            } else if f.errors() > 0 {
                format!("{} error(s)", f.errors())
            } else {
                "ok".to_string()
            };
            out.push_str(&format!(
                "{}  {:<22} {:>8} records {:>9} B  {}\n",
                f.file, f.label, f.records, f.bytes, verdict
            ));
            for d in &f.diagnostics {
                out.push_str("  ");
                out.push_str(&d.render_human());
                out.push('\n');
            }
        }
        out.push_str(&format!(
            "audit: {} file(s), {} error(s), {} warning(s), {:.1} ms\n",
            self.files.len(),
            self.errors(),
            self.warnings(),
            self.wall.as_secs_f64() * 1e3,
        ));
        out
    }

    /// Renders the report as one JSON object (see
    /// [`crate::SCHEMA_VERSION`]).
    pub fn render_json(&self) -> String {
        let files: Vec<String> = self
            .files
            .iter()
            .map(|f| {
                let decode = match &f.decode_error {
                    Some(e) => format!("\"{}\"", escape_json(e)),
                    None => "null".to_string(),
                };
                let diags: Vec<String> =
                    f.diagnostics.iter().map(Diagnostic::render_json).collect();
                let bounds: Vec<String> = f.bounds.iter().map(render_bounds_json).collect();
                format!(
                    r#"{{"file":"{}","label":"{}","bytes":{},"records":{},"decode_error":{},"checksum_rederived":{},"errors":{},"diagnostics":[{}],"bounds":[{}]}}"#,
                    escape_json(&f.file),
                    escape_json(&f.label),
                    f.bytes,
                    f.records,
                    decode,
                    f.checksum_rederived,
                    f.errors(),
                    diags.join(","),
                    bounds.join(","),
                )
            })
            .collect();
        format!(
            r#"{{"schema_version":{SCHEMA_VERSION},"root":"{}","files_audited":{},"errors":{},"warnings":{},"wall_ms":{:.3},"files":[{}]}}"#,
            escape_json(&self.root.display().to_string()),
            self.files.len(),
            self.errors(),
            self.warnings(),
            self.wall.as_secs_f64() * 1e3,
            files.join(","),
        )
    }
}

fn render_bounds_json(b: &CostBounds) -> String {
    let window = |w: Option<(u32, u32)>| match w {
        Some((first, last)) => format!("[{first},{last}]"),
        None => "null".to_string(),
    };
    format!(
        r#"{{"config":"{}","records":{},"realign_lo":{},"realign_hi":{},"realign_window":{},"raw_dep_lo":{},"raw_dep_hi":{},"raw_dep_window":{},"issue_width_lo":{},"issue_width_hi":{},"cycles_lo":{}}}"#,
        escape_json(b.config),
        b.records,
        b.realign_lo,
        b.realign_hi,
        window(b.realign_window),
        b.raw_dep_lo,
        b.raw_dep_hi,
        window(b.raw_dep_window),
        b.issue_width_lo,
        b.issue_width_hi,
        b.cycles_lo,
    )
}

/// Walks a store directory and audits every file: decode through the
/// real loader, re-derive the content checksum, run the static image
/// rules, and compute the cost-model bounds for clean images. Zero
/// simulation. Errors only when the directory itself cannot be opened
/// or listed — per-file failures land in the per-file verdicts.
pub fn audit_store(
    root: impl AsRef<Path>,
    opts: AuditOptions,
) -> Result<StoreAuditReport, StoreError> {
    let start = Instant::now();
    let dir = StoreDir::open(root.as_ref())?;
    // Hash → "kernel/variant" for the standard matrix at these workload
    // parameters, so verdict lines name the workload, not just the file.
    let labels: HashMap<u64, String> = matrix_keys(opts.execs, opts.seed)
        .into_iter()
        .map(|k| {
            (
                k.content_hash(),
                format!("{}/{}", k.kernel.label(), k.variant.label()),
            )
        })
        .collect();
    let mut files = Vec::new();
    for entry in dir.walk()? {
        let label = entry
            .hash
            .and_then(|h| labels.get(&h).cloned())
            .unwrap_or_else(|| "unkeyed".to_string());
        let mut audit = FileAudit {
            file: entry.file.clone(),
            label,
            bytes: entry.bytes,
            records: 0,
            decode_error: None,
            checksum_rederived: true,
            diagnostics: Vec::new(),
            bounds: Vec::new(),
        };
        match entry.loaded {
            Err(e) => audit.decode_error = Some(e.to_string()),
            Ok(stored) => {
                audit.records = stored.image.len();
                audit.checksum_rederived = stored.image.checksum() == stored.checksum;
                let (kernel, variant) = match audit.label.split_once('/') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (entry.file.clone(), "image".to_string()),
                };
                let ictx = ImageCtx::new(&stored.image, kernel, variant);
                audit.diagnostics = crate::analyze_image(&ictx);
                let clean = audit
                    .diagnostics
                    .iter()
                    .all(|d| d.severity < Severity::Error);
                if clean && audit.checksum_rederived {
                    audit.bounds = PipelineConfig::table_ii()
                        .iter()
                        .map(|cfg| bounds(&stored.image, cfg))
                        .collect();
                }
            }
        }
        files.push(audit);
    }
    Ok(StoreAuditReport {
        root: root.as_ref().to_path_buf(),
        files,
        wall: start.elapsed(),
    })
}

/// Audit verdict for one kernel/variant pair of the evaluation matrix.
#[derive(Debug)]
pub struct PairAudit {
    /// Kernel label.
    pub kernel: String,
    /// Variant label.
    pub variant: String,
    /// Findings: the static image rules, then (when those passed clean)
    /// the dynamic `costmodel-soundness` rule.
    pub diagnostics: Vec<Diagnostic>,
    /// Whether the soundness rule ran and found every measured bucket
    /// inside its static bounds. `false` when the image rules failed
    /// (the rule never ran) or when a bucket escaped.
    pub soundness_pass: bool,
}

impl PairAudit {
    /// ERROR findings of this pair.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }
}

/// The outcome of [`audit_matrix`]: per-pair verdicts over the full
/// evaluation matrix.
#[derive(Debug)]
pub struct MatrixAuditReport {
    /// Per-pair verdicts, kernels outer, variants inner.
    pub pairs: Vec<PairAudit>,
    /// Wall time of the whole audit (image rules + soundness replays).
    pub wall: Duration,
}

impl MatrixAuditReport {
    /// Total ERROR count across all pairs.
    pub fn errors(&self) -> usize {
        self.pairs.iter().map(PairAudit::errors).sum()
    }

    /// Whether the audit passes: zero ERRORs and every pair's soundness
    /// rule passed.
    pub fn is_clean(&self) -> bool {
        self.errors() == 0 && self.pairs.iter().all(|p| p.soundness_pass)
    }

    /// Renders the report for terminals: one line per pair — ending in
    /// `costmodel-soundness: pass` when the pair is fully clean, which
    /// CI counts — plus a summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for p in &self.pairs {
            let verdict = if p.soundness_pass {
                "image rules pass, costmodel-soundness: pass".to_string()
            } else if p.errors() > 0 {
                format!("{} error(s), costmodel-soundness: FAIL", p.errors())
            } else {
                "costmodel-soundness: not run".to_string()
            };
            out.push_str(&format!("{}/{}: {}\n", p.kernel, p.variant, verdict));
            for d in &p.diagnostics {
                out.push_str("  ");
                out.push_str(&d.render_human());
                out.push('\n');
            }
        }
        out.push_str(&format!(
            "audit: {} pair(s), {} error(s), {:.1} ms\n",
            self.pairs.len(),
            self.errors(),
            self.wall.as_secs_f64() * 1e3,
        ));
        out
    }

    /// Renders the report as one JSON object (see
    /// [`crate::SCHEMA_VERSION`]).
    pub fn render_json(&self) -> String {
        let pairs: Vec<String> = self
            .pairs
            .iter()
            .map(|p| {
                let diags: Vec<String> =
                    p.diagnostics.iter().map(Diagnostic::render_json).collect();
                format!(
                    r#"{{"kernel":"{}","variant":"{}","soundness_pass":{},"errors":{},"diagnostics":[{}]}}"#,
                    escape_json(&p.kernel),
                    escape_json(&p.variant),
                    p.soundness_pass,
                    p.errors(),
                    diags.join(","),
                )
            })
            .collect();
        format!(
            r#"{{"schema_version":{SCHEMA_VERSION},"pairs_audited":{},"errors":{},"wall_ms":{:.3},"pairs":[{}]}}"#,
            self.pairs.len(),
            self.errors(),
            self.wall.as_secs_f64() * 1e3,
            pairs.join(","),
        )
    }
}

/// Audits the full evaluation matrix: for every kernel × variant, the
/// prepared image (from the context's store — disk-backed when the
/// session runs with `--store-dir`) goes through the static image rules,
/// and clean pairs additionally run the dynamic `costmodel-soundness`
/// rule — one replay per Table II configuration checked against the
/// static bounds.
pub fn audit_matrix(ctx: &SimContext, opts: AuditOptions) -> MatrixAuditReport {
    let start = Instant::now();
    let mut pairs = Vec::new();
    for key in matrix_keys(opts.execs, opts.seed) {
        let prepared = ctx.store().prepared_for_records(key);
        let ictx = ImageCtx::new(&prepared.image, key.kernel.label(), key.variant.label());
        let mut diagnostics = crate::analyze_image(&ictx);
        let mut soundness_pass = false;
        if diagnostics.iter().all(|d| d.severity < Severity::Error) {
            let trace = prepared.trace();
            let tctx = TraceCtx::new(&trace, key.kernel.label(), key.variant, None);
            let sound = rules::costmodel::check(&tctx, &prepared.image);
            soundness_pass = sound.iter().all(|d| d.severity < Severity::Error);
            diagnostics.extend(sound);
        }
        pairs.push(PairAudit {
            kernel: key.kernel.label().to_string(),
            variant: key.variant.label().to_string(),
            diagnostics,
            soundness_pass,
        });
    }
    MatrixAuditReport {
        pairs,
        wall: start.elapsed(),
    }
}
