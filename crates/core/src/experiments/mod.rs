//! Experiment drivers: one submodule per table/figure of the paper's
//! evaluation section.
//!
//! | paper artefact | module | regenerated by |
//! |---|---|---|
//! | Table I (support matrix) | [`table1`] | `cargo bench -p valign-bench --bench table1` |
//! | Table II (processor configs) | [`table2`] | `--bench table2` |
//! | Table III (dynamic instruction counts) | [`table3`] | `--bench table3` |
//! | Fig. 4 (alignment-offset distributions) | [`fig4`] | `--bench fig4` |
//! | Fig. 8 (kernel speed-ups) | [`fig8`] | `--bench fig8` |
//! | Fig. 9 (unaligned-latency sensitivity) | [`fig9`] | `--bench fig9` |
//! | Fig. 10 (whole-decoder profile) | [`fig10`] | `--bench fig10` |
//!
//! Every driver is deterministic given its `(executions, seed)` inputs;
//! the bench harness honours the `VALIGN_EXECS` environment variable to
//! trade fidelity for runtime.

pub mod fig10;
pub mod fig4;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table2;
pub mod table3;

use std::fmt;
use valign_isa::Trace;
use valign_pipeline::{PipelineConfig, ReplayImage, SimResult, Simulator};

/// A diagnostic failure of an experiment driver — returned instead of
/// panicking when a replay cannot support the requested derivation, so CLI
/// and bench front ends can report the offending workload and exit
/// cleanly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// A replay produced zero cycles (an empty trace); speed-ups over it
    /// are undefined.
    EmptyReplay {
        /// What was replayed, e.g. `"fig8 luma16x16/altivec on 2-way"`.
        context: String,
    },
    /// A replay's attribution buckets do not sum to its cycle count — the
    /// conservation invariant the engine guarantees was broken.
    Unconserved {
        /// What was replayed.
        context: String,
        /// Sum over the attribution buckets.
        attributed: u64,
        /// The replay's total cycles.
        cycles: u64,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::EmptyReplay { context } => {
                write!(
                    f,
                    "{context}: replay produced zero cycles (empty trace); \
                     speed-ups over it are undefined"
                )
            }
            ExperimentError::Unconserved {
                context,
                attributed,
                cycles,
            } => write!(
                f,
                "{context}: attribution buckets sum to {attributed} but the \
                 replay took {cycles} cycles"
            ),
        }
    }
}

impl std::error::Error for ExperimentError {}

/// Speed-up `base / cycles` with the zero-cycle case turned into a
/// diagnostic [`ExperimentError`] naming `context`.
pub(crate) fn guarded_speedup(
    base: u64,
    cycles: u64,
    context: impl FnOnce() -> String,
) -> Result<f64, ExperimentError> {
    if cycles == 0 {
        Err(ExperimentError::EmptyReplay { context: context() })
    } else {
        Ok(base as f64 / cycles as f64)
    }
}

/// Reads the execution-count override from `VALIGN_EXECS`, falling back
/// to `default`.
pub fn execs_from_env(default: usize) -> usize {
    std::env::var("VALIGN_EXECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// Replays `trace` on `cfg` after a warm-up (steady-state caches and
/// predictor, as a steadily decoding application would see). The trace
/// is compiled to a [`ReplayImage`] once; the warm-up and the measured
/// replay both read it.
pub fn measure(cfg: PipelineConfig, trace: &Trace) -> SimResult {
    let image = ReplayImage::build(trace);
    Simulator::simulate_image(cfg, Some(&image), &image)
}

#[cfg(test)]
mod tests {
    use super::*;
    use valign_isa::{DynInstr, Opcode, StaticId};

    #[test]
    fn execs_env_default() {
        // The variable is unset in the test environment.
        std::env::remove_var("VALIGN_EXECS");
        assert_eq!(execs_from_env(123), 123);
    }

    #[test]
    fn measure_is_steady_state() {
        use valign_isa::{Gpr, MemKind, MemRef, Reg};
        // A load-heavy trace: the measured (second) replay should hit in
        // cache and be faster than a cold run.
        let mut t = Trace::new();
        for i in 0..64u64 {
            t.push(DynInstr::mem(
                Opcode::Lwz,
                StaticId(1),
                Some(Reg::Gpr(Gpr::new((i % 32) as u8))),
                &[Reg::Gpr(Gpr::new(0)).into()],
                MemRef {
                    addr: 0x1000 + i * 128,
                    bytes: 4,
                    kind: MemKind::Load,
                },
            ));
        }
        let warm = measure(PipelineConfig::four_way(), &t);
        let cold = Simulator::simulate_reference(PipelineConfig::four_way(), None, &t);
        assert!(warm.cycles < cold.cycles);
    }
}
