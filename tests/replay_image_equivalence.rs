//! The packed replay-image hot path is a lossless re-encoding of the
//! engine: for every kernel/variant workload trace and every Table II
//! configuration, replaying the image — unguarded and guarded — produces a
//! `SimResult` bit-identical to the record-form reference path, cold,
//! warm (on the same kernel or another), and with a realignment penalty —
//! and the realign bucket stays inside the static cost model's ceiling.
//! The image paths warm functionally and the reference path with a timed
//! walk, so the warm passes are the functional warm-up's oracle.

use valign::cache::RealignConfig;
use valign::core::workload::{trace_kernel, KernelId};
use valign::kernels::util::Variant;
use valign::pipeline::{costmodel, Bucket, PipelineConfig, ReplayImage, RunGuards, Simulator};

const EXECS: usize = 8;
const SEED: u64 = 20070425;

/// Cold and warm replays of `trace` on `cfg` through all three entry
/// points — the reference path, the image path and the guarded image
/// path — must match result-for-result (the warm pass also proves that
/// the image paths' functional warm-up leaves the caches and predictor
/// where the reference path's timed warm-up walk does). The stall attribution is held to the same standard explicitly:
/// the paths charge every cycle to the same bucket, and the buckets sum
/// exactly to the cycle count. The realign bucket never exceeds the cost
/// model's static ceiling, and is empty when unaligned accesses cost no
/// more than aligned ones.
fn assert_equivalent(cfg: &PipelineConfig, trace: &valign::isa::Trace, label: &str) {
    let image = ReplayImage::build(trace).into_shared();
    let realign_hi = costmodel::bounds(&image, cfg).realign_hi;
    let equal_latency = cfg.realign == RealignConfig::equal_latency();
    for warm in [false, true] {
        let pass = if warm { "warm" } else { "cold" };
        let r = Simulator::simulate_reference(cfg.clone(), warm.then_some(trace), trace);
        let i = Simulator::simulate_image(cfg.clone(), warm.then_some(&image), &image);
        let g = Simulator::try_simulate_image(
            cfg.clone(),
            warm.then_some(&image),
            &image,
            &RunGuards::default(),
        )
        .unwrap_or_else(|e| panic!("{label} [{}] guarded {pass} pass failed: {e}", cfg.name));
        assert_eq!(r, i, "{label} [{}] diverged on the {pass} pass", cfg.name);
        assert_eq!(
            i, g,
            "{label} [{}] guarded diverged on the {pass} pass",
            cfg.name
        );
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
        let realign = r.breakdown.get(Bucket::Realign);
        assert!(
            realign <= realign_hi,
            "{label} [{}] {pass}: {realign} realign cycles above the static ceiling {realign_hi}",
            cfg.name
        );
        assert!(
            !equal_latency || realign == 0,
            "{label} [{}] {pass}: {realign} realign cycles at equal latency",
            cfg.name
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

/// A warm-up carries state from one stream into a *different* one: warm
/// on kernel A and measure kernel B, and the image paths (functional
/// warm-up) must still match the reference path (timed warm-up) on every
/// Table II config.
#[test]
fn cross_image_warm_up_is_bit_identical() {
    let pick = |i: usize| {
        let kernel = KernelId::ALL[i * 3 % KernelId::ALL.len()];
        let variant = Variant::ALL[i % Variant::ALL.len()];
        let label = format!("{}/{}", kernel.label(), variant.label());
        let trace = trace_kernel(kernel, variant, EXECS, SEED);
        let image = ReplayImage::build(&trace);
        (label, trace, image)
    };
    let streams: Vec<_> = (0..4).map(pick).collect();
    for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
        let (la, ta, ia) = &streams[a];
        let (lb, tb, ib) = &streams[b];
        for cfg in PipelineConfig::table_ii() {
            let r = Simulator::simulate_reference(cfg.clone(), Some(ta), tb);
            let i = Simulator::simulate_image(cfg.clone(), Some(ia), ib);
            let g = Simulator::try_simulate_image(cfg.clone(), Some(ia), ib, &RunGuards::default())
                .unwrap_or_else(|e| panic!("{la} -> {lb} [{}] guarded pass failed: {e}", cfg.name));
            assert_eq!(r, i, "{la} -> {lb} [{}] diverged", cfg.name);
            assert_eq!(i, g, "{la} -> {lb} [{}] guarded diverged", cfg.name);
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
