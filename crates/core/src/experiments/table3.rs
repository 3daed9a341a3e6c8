//! Table III — dynamic instruction count for the H.264 kernels.
//!
//! For each kernel and implementation, traces `execs` executions and
//! reports the per-class dynamic instruction counts in the paper's column
//! scheme (total / integer / loads / stores / branches / the four Altivec
//! classes). The paper reports thousands of instructions for 1000
//! executions of each kernel; counts here are per `execs` executions of
//! one block-level kernel call.

use crate::sim::{SimContext, TraceKey};
use crate::workload::KernelId;
use std::fmt::Write as _;
use valign_isa::{InstrClass, MixCounts};
use valign_kernels::util::Variant;

/// One row: a kernel/variant pair with its instruction mix.
#[derive(Debug, Clone)]
pub struct Row {
    /// Paper-style row group label (e.g. "LUMA 16x16").
    pub kernel: String,
    /// Implementation variant.
    pub variant: Variant,
    /// Per-class dynamic counts over all executions.
    pub mix: MixCounts,
}

/// The full Table III reproduction.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Number of kernel executions traced per row.
    pub execs: usize,
    /// All rows, grouped by kernel in the paper's order.
    pub rows: Vec<Row>,
}

/// Runs the Table III experiment on a private single-threaded context.
pub fn run(execs: usize, seed: u64) -> Table3 {
    run_with(&SimContext::new(1), execs, seed)
}

/// Runs the Table III experiment against a shared context.
///
/// Pure trace analysis — no replays, so no batch: the rows read their
/// instruction mixes off the opcode column of the store's shared replay
/// images, which the figure drivers then replay without re-tracing. The
/// keys are materialized on the context's workers; no record-form trace
/// is kept for them.
pub fn run_with(ctx: &SimContext, execs: usize, seed: u64) -> Table3 {
    let mut keys = Vec::new();
    let mut labels = Vec::new();
    for &(kernel, label) in KernelId::TABLE_III {
        for &variant in Variant::ALL {
            keys.push(TraceKey {
                kernel,
                variant,
                execs,
                seed,
            });
            labels.push(label);
        }
    }
    let rows = ctx
        .store()
        .prepared_all(&keys, ctx.threads())
        .into_iter()
        .zip(keys.iter().zip(labels))
        .map(|(prepared, (key, label))| Row {
            kernel: label.to_string(),
            variant: key.variant,
            mix: prepared.image.mix(),
        })
        .collect();
    Table3 { execs, rows }
}

impl Table3 {
    /// Instruction-count reduction of the unaligned variant relative to
    /// plain Altivec, per kernel group, in percent.
    pub fn unaligned_reduction_pct(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for group in self.rows.chunks(Variant::ALL.len()) {
            let altivec = group
                .iter()
                .find(|r| r.variant == Variant::Altivec)
                .expect("altivec row present");
            let unaligned = group
                .iter()
                .find(|r| r.variant == Variant::Unaligned)
                .expect("unaligned row present");
            let reduction = 100.0 * (altivec.mix.total() as f64 - unaligned.mix.total() as f64)
                / altivec.mix.total() as f64;
            out.push((group[0].kernel.clone(), reduction));
        }
        out
    }

    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "TABLE III: DYNAMIC INSTRUCTION COUNT FOR H.264/AVC KERNELS ({} executions per row)\n",
            self.execs
        );
        let _ = writeln!(
            out,
            "{:<14} {:<10} {:>9} {:>8} {:>7} {:>7} {:>8} {:>8} {:>8} {:>9} {:>9} {:>8}",
            "Kernel",
            "Impl",
            "Total",
            "Int.",
            "Loads",
            "Stores",
            "Branches",
            "AV-Load",
            "AV-Store",
            "AV-Simple",
            "AV-Compl.",
            "AV-Perm."
        );
        let _ = writeln!(out, "{}", "-".repeat(122));
        let mut last_kernel = String::new();
        for row in &self.rows {
            let kernel = if row.kernel == last_kernel {
                String::new()
            } else {
                last_kernel = row.kernel.clone();
                row.kernel.clone()
            };
            let m = &row.mix;
            let _ = writeln!(
                out,
                "{:<14} {:<10} {:>9} {:>8} {:>7} {:>7} {:>8} {:>8} {:>8} {:>9} {:>9} {:>8}",
                kernel,
                row.variant.label(),
                m.total(),
                m.get(InstrClass::IntAlu),
                m.get(InstrClass::IntLoad),
                m.get(InstrClass::IntStore),
                m.get(InstrClass::Branch),
                m.get(InstrClass::VecLoad),
                m.get(InstrClass::VecStore),
                m.get(InstrClass::VecSimple),
                m.get(InstrClass::VecComplex),
                m.get(InstrClass::VecPerm),
            );
        }
        out.push('\n');
        for (kernel, pct) in self.unaligned_reduction_pct() {
            let _ = writeln!(
                out,
                "{kernel:<14} unaligned vs altivec: {pct:.1}% fewer instructions"
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_shape_and_invariants() {
        let t = run(5, 42);
        assert_eq!(t.rows.len(), KernelId::TABLE_III.len() * 3);
        for group in t.rows.chunks(3) {
            let scalar = &group[0];
            let altivec = &group[1];
            let unaligned = &group[2];
            assert_eq!(scalar.variant, Variant::Scalar);
            // Vectorisation shrinks the count dramatically.
            assert!(
                altivec.mix.total() < scalar.mix.total(),
                "{}: altivec {} vs scalar {}",
                scalar.kernel,
                altivec.mix.total(),
                scalar.mix.total()
            );
            // Unaligned never increases the count.
            assert!(
                unaligned.mix.total() <= altivec.mix.total(),
                "{}",
                scalar.kernel
            );
            // Scalar rows have no vector instructions.
            assert_eq!(scalar.mix.vector_total(), 0);
        }
    }

    #[test]
    fn reductions_positive_for_mc_kernels() {
        let t = run(5, 7);
        for (kernel, pct) in t.unaligned_reduction_pct() {
            if kernel.starts_with("LUMA")
                || kernel.starts_with("SAD")
                || kernel.starts_with("CHROMA")
            {
                assert!(pct > 0.0, "{kernel}: {pct}");
            }
        }
    }

    #[test]
    fn render_contains_all_rows() {
        let t = run(2, 1);
        let s = t.render();
        for label in [
            "LUMA 16x16",
            "CHROMA 8x8",
            "IDCT 4x4",
            "SAD 16x16",
            "scalar",
            "unaligned",
        ] {
            assert!(s.contains(label), "missing {label}");
        }
    }
}
