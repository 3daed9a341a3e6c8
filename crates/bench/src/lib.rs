//! # valign-bench — reproduction benchmark harness
//!
//! Every table and figure of the paper's evaluation section has a bench
//! target that regenerates it (all of them run under `cargo bench -p
//! valign-bench`, or individually with `--bench fig8` etc.):
//!
//! | target | artefact |
//! |---|---|
//! | `table1` | Table I — unaligned support matrix |
//! | `table2` | Table II — processor configurations |
//! | `table3` | Table III — dynamic instruction counts |
//! | `fig4` | Fig. 4 — alignment-offset distributions |
//! | `fig8` | Fig. 8 — kernel speed-ups (3 configs × 3 impls) |
//! | `fig9` | Fig. 9 — unaligned-latency sensitivity sweep |
//! | `fig10` | Fig. 10 — whole-decoder stage profile |
//! | `ablations` | design-choice ablations (banking, MSHRs, predictor) |
//! | `micro` | criterion micro-benchmarks of the simulator stack |
//!
//! End-to-end and per-layer timing (replay, image build and verify,
//! store decode) is perfbench's job: `python3 perfbench/run.py`.
//!
//! Set `VALIGN_EXECS` to scale the traced kernel executions (fidelity vs
//! runtime); the defaults keep a full `cargo bench` run in minutes.

#![forbid(unsafe_code)]

/// Scales an experiment's default execution count by `VALIGN_EXECS` when
/// set (re-exported convenience for the bench targets).
pub fn execs(default: usize) -> usize {
    valign_core::experiments::execs_from_env(default)
}

/// Worker threads for the simulation batch runner: `VALIGN_THREADS` when
/// set, otherwise every available core. Results are bit-identical at any
/// thread count; only wall time changes.
pub fn threads() -> usize {
    std::env::var("VALIGN_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

/// The deterministic seed shared by all bench targets, so printed numbers
/// are reproducible run-to-run.
pub const SEED: u64 = 20070425; // ISPASS 2007, San José

#[cfg(test)]
mod tests {
    #[test]
    fn execs_passthrough() {
        std::env::remove_var("VALIGN_EXECS");
        assert_eq!(super::execs(77), 77);
    }
}
