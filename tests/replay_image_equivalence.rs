//! The packed replay-image hot path is a lossless re-encoding of the
//! engine: for every kernel/variant workload trace and every Table II
//! configuration, replaying the image produces a `SimResult` bit-identical
//! to the retained record-form reference walker — cold, warm, with a
//! realignment penalty, and through the convenience entry points.

use valign::cache::RealignConfig;
use valign::core::workload::{trace_kernel, KernelId};
use valign::kernels::util::Variant;
use valign::pipeline::{PipelineConfig, ReplayImage, Simulator};

const EXECS: usize = 8;
const SEED: u64 = 20070425;

/// Cold and warm replays of `trace` on `cfg`, reference vs image, must
/// match result-for-result (the warm pass also proves that persistent
/// cache/predictor state evolves identically under both walks). The
/// stall attribution is held to the same standard explicitly: the two
/// paths charge every cycle to the same bucket, and each path's buckets
/// sum exactly to its cycle count.
fn assert_equivalent(cfg: &PipelineConfig, trace: &valign::isa::Trace, label: &str) {
    let image = ReplayImage::build(trace);
    let mut reference = Simulator::new(cfg.clone());
    let mut packed = Simulator::new(cfg.clone());
    for pass in ["cold", "warm"] {
        let r = reference.run_reference(trace);
        let i = packed.run_image(&image);
        assert_eq!(r, i, "{label} [{}] diverged on the {pass} pass", cfg.name);
        assert_eq!(
            r.breakdown, i.breakdown,
            "{label} [{}] attribution diverged on the {pass} pass",
            cfg.name
        );
        assert!(
            r.breakdown.conserves(r.cycles),
            "{label} [{}] {pass}: {} attributed vs {} cycles",
            cfg.name,
            r.breakdown.total(),
            r.cycles
        );
    }
}

#[test]
fn every_kernel_variant_and_config_is_bit_identical() {
    for &kernel in KernelId::ALL {
        for &variant in Variant::ALL {
            let trace = trace_kernel(kernel, variant, EXECS, SEED);
            for cfg in PipelineConfig::table_ii() {
                let label = format!("{}/{}", kernel.label(), variant.label());
                // Default realignment latencies and the paper's
                // equal-latency upper bound both must agree.
                assert_equivalent(&cfg, &trace, &label);
                assert_equivalent(
                    &cfg.clone().with_realign(RealignConfig::equal_latency()),
                    &trace,
                    &label,
                );
            }
        }
    }
}

/// Table III reads its instruction mixes off the image's opcode column;
/// for every kernel/variant that must equal the record-form trace's mix.
#[test]
fn image_mix_matches_trace_mix_for_every_kernel_variant() {
    for &kernel in KernelId::ALL {
        for &variant in Variant::ALL {
            let trace = trace_kernel(kernel, variant, EXECS, SEED);
            assert_eq!(
                ReplayImage::build(&trace).mix(),
                trace.mix(),
                "{}/{}",
                kernel.label(),
                variant.label()
            );
        }
    }
}

#[test]
fn convenience_entry_points_agree() {
    let trace = trace_kernel(
        KernelId::Luma(valign::h264::BlockSize::B8x8),
        Variant::Unaligned,
        EXECS,
        SEED,
    );
    let image = ReplayImage::build(&trace).into_shared();
    for cfg in PipelineConfig::table_ii() {
        let via_trace = Simulator::simulate(cfg.clone(), Some(&trace), &trace);
        let via_image = Simulator::simulate_image(cfg.clone(), Some(&image), &image);
        assert_eq!(via_trace, via_image, "{}", cfg.name);
        let cold_trace = Simulator::simulate(cfg.clone(), None, &trace);
        let cold_image = Simulator::simulate_image(cfg.clone(), None, &image);
        assert_eq!(cold_trace, cold_image, "{} (cold)", cfg.name);
    }
}
