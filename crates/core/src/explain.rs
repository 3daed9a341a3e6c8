//! `valign explain` — the per-kernel cycle-attribution report.
//!
//! Replays one kernel/variant on the three Table II configurations (with
//! the paper's proposed realignment hardware, so unaligned accesses pay
//! their +1/+2-cycle cost) and renders where every cycle went, bucket by
//! bucket, the way the paper decomposes its speed-ups (realignment
//! overhead vs pipeline width vs memory behaviour). The conservation invariant — attributed buckets sum
//! **exactly** to total cycles — is checked per configuration and turned
//! into a diagnostic [`ExperimentError`] rather than a panic; the JSON
//! form carries an explicit `"conserved"` flag the replay-equivalence CI
//! job greps.

use crate::experiments::ExperimentError;
use crate::serve::protocol::escape_json;
use crate::sim::{SimContext, SimJob, TraceKey};
use crate::workload::KernelId;
use std::fmt::Write as _;
use valign_cache::RealignConfig;
use valign_kernels::util::Variant;
use valign_pipeline::{Bucket, PipelineConfig, SimResult};

/// One configuration's replay inside an [`Explain`] report.
#[derive(Debug, Clone)]
pub struct ExplainRow {
    /// Configuration name ("2-way", "4-way", "8-way").
    pub config: &'static str,
    /// The full replay result (cycles, stats and the stall breakdown).
    pub result: SimResult,
}

/// The attribution report of one kernel/variant across Table II.
#[derive(Debug, Clone)]
pub struct Explain {
    /// Kernel explained.
    pub kernel: KernelId,
    /// Implementation variant replayed.
    pub variant: Variant,
    /// Executions traced.
    pub execs: usize,
    /// One row per Table II configuration.
    pub rows: Vec<ExplainRow>,
}

/// Runs the attribution report for one kernel/variant on a shared
/// context, with the paper's proposed realignment hardware (+1 cycle
/// unaligned loads, +2 cycle stores) so the realign bucket reflects the
/// cost the paper argues about.
///
/// Returns a diagnostic error when a replay comes back empty or breaks
/// the conservation invariant — the CLI reports it and exits non-zero
/// instead of aborting.
pub fn run_with(
    ctx: &SimContext,
    kernel: KernelId,
    variant: Variant,
    execs: usize,
    seed: u64,
) -> Result<Explain, ExperimentError> {
    let configs: Vec<PipelineConfig> = PipelineConfig::table_ii()
        .into_iter()
        .map(|cfg| cfg.with_realign(RealignConfig::proposed()))
        .collect();
    let key = TraceKey {
        kernel,
        variant,
        execs,
        seed,
    };
    let jobs = configs
        .iter()
        .map(|cfg| SimJob::keyed(key, cfg.clone()))
        .collect();
    let results = ctx.run_batch("explain", jobs);

    let mut rows = Vec::with_capacity(results.len());
    for (cfg, result) in configs.iter().zip(results) {
        let context = || {
            format!(
                "explain {}/{} on {}",
                kernel.label(),
                variant.label(),
                cfg.name
            )
        };
        if result.cycles == 0 {
            return Err(ExperimentError::EmptyReplay { context: context() });
        }
        if !result.breakdown.conserves(result.cycles) {
            return Err(ExperimentError::Unconserved {
                context: context(),
                attributed: result.breakdown.total(),
                cycles: result.cycles,
            });
        }
        rows.push(ExplainRow {
            config: cfg.name,
            result,
        });
    }
    Ok(Explain {
        kernel,
        variant,
        execs,
        rows,
    })
}

impl Explain {
    /// Renders the report as a per-bucket table (cycles and share per
    /// configuration) plus one summary line per configuration.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "CYCLE ATTRIBUTION: {} / {} ({} executions; proposed realignment hardware)\n",
            self.kernel.label(),
            self.variant.label(),
            self.execs
        );
        let _ = write!(out, "{:<13}", "bucket");
        for row in &self.rows {
            let _ = write!(out, " {:>12} {:>7}", row.config, "share");
        }
        out.push('\n');
        let _ = writeln!(out, "{}", "-".repeat(13 + 21 * self.rows.len()));
        for b in Bucket::ALL {
            let _ = write!(out, "{:<13}", b.label());
            for row in &self.rows {
                let r = &row.result;
                let _ = write!(
                    out,
                    " {:>12} {:>6.1}%",
                    r.breakdown.get(b),
                    r.breakdown.share(b, r.cycles) * 100.0
                );
            }
            out.push('\n');
        }
        let _ = write!(out, "{:<13}", "TOTAL");
        for row in &self.rows {
            let _ = write!(out, " {:>12} {:>6.1}%", row.result.cycles, 100.0);
        }
        out.push('\n');
        out.push('\n');
        for row in &self.rows {
            let _ = writeln!(out, "{:<6} {}", row.config, row.result);
        }
        out
    }

    /// Renders the report as one JSON object; every configuration entry
    /// carries a `"conserved"` flag (always `true` for a report built by
    /// [`run_with`], which turns violations into errors first).
    pub fn render_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let r = &row.result;
                let buckets: Vec<String> = Bucket::ALL
                    .iter()
                    .map(|&b| format!(r#""{}":{}"#, b.label(), r.breakdown.get(b)))
                    .collect();
                format!(
                    r#"{{"config":"{}","cycles":{},"instructions":{},"ipc":{:.4},"unaligned_accesses":{},"realign_penalty_cycles":{},"split_accesses":{},"buckets":{{{}}},"attributed":{},"conserved":{}}}"#,
                    escape_json(row.config),
                    r.cycles,
                    r.instructions,
                    r.ipc(),
                    r.unaligned_accesses,
                    r.realign_penalty_cycles,
                    r.split_accesses,
                    buckets.join(","),
                    r.breakdown.total(),
                    r.breakdown.conserves(r.cycles),
                )
            })
            .collect();
        format!(
            r#"{{"kernel":"{}","variant":"{}","execs":{},"configs":[{}]}}"#,
            self.kernel.label(),
            self.variant.label(),
            self.execs,
            rows.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_runs_and_conserves_for_every_kernel_variant() {
        let ctx = SimContext::new(1);
        for &kernel in KernelId::ALL {
            for &variant in Variant::ALL {
                let e = run_with(&ctx, kernel, variant, 4, 7).unwrap();
                assert_eq!(e.rows.len(), 3);
                for row in &e.rows {
                    assert!(
                        row.result.breakdown.conserves(row.result.cycles),
                        "{kernel}/{} {}",
                        variant.label(),
                        row.config
                    );
                }
            }
        }
    }

    #[test]
    fn render_shows_buckets_and_totals() {
        let ctx = SimContext::new(1);
        let e = run_with(&ctx, KernelId::Idct4x4, Variant::Unaligned, 4, 7).unwrap();
        let s = e.render();
        for label in ["useful", "realign", "TOTAL", "2-way", "8-way"] {
            assert!(s.contains(label), "missing {label}");
        }
        let j = e.render_json();
        assert!(j.contains(r#""conserved":true"#));
        assert!(!j.contains(r#""conserved":false"#));
        assert!(j.contains(r#""kernel":"idct4x4""#));
    }
}
