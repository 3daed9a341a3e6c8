//! End-to-end integration: kernels → tracing VM → cycle-accurate
//! simulator, asserting the paper's headline relationships across crate
//! boundaries.

use valign::cache::RealignConfig;
use valign::core::experiments::measure;
use valign::core::workload::{trace_kernel, KernelId};
use valign::h264::BlockSize;
use valign::kernels::util::Variant;
use valign::pipeline::{PipelineConfig, ReplayImage, Simulator};

const EXECS: usize = 30;
const SEED: u64 = 2007;

fn cycles(kernel: KernelId, variant: Variant, cfg: PipelineConfig) -> u64 {
    let trace = trace_kernel(kernel, variant, EXECS, SEED);
    measure(cfg, &trace).cycles
}

#[test]
fn vectorisation_beats_scalar_on_every_kernel() {
    for &kernel in KernelId::ALL {
        let s = cycles(kernel, Variant::Scalar, PipelineConfig::four_way());
        let a = cycles(kernel, Variant::Altivec, PipelineConfig::four_way());
        assert!(a < s, "{kernel}: altivec {a} cycles should beat scalar {s}");
    }
}

#[test]
fn unaligned_support_beats_plain_altivec_at_proposed_latency() {
    // The proposed hardware: +1-cycle loads, +2-cycle stores.
    let cfg = || PipelineConfig::four_way().with_realign(RealignConfig::proposed());
    for kernel in [
        KernelId::Luma(BlockSize::B16x16),
        KernelId::Luma(BlockSize::B8x8),
        KernelId::Luma(BlockSize::B4x4),
        KernelId::Chroma(BlockSize::B8x8),
        KernelId::Sad(BlockSize::B8x8),
        KernelId::Sad(BlockSize::B4x4),
    ] {
        let a = cycles(kernel, Variant::Altivec, cfg());
        let u = cycles(kernel, Variant::Unaligned, cfg());
        assert!(u < a, "{kernel}: unaligned {u} vs altivec {a}");
    }
}

#[test]
fn idct_gains_are_modest_as_in_the_paper() {
    let cfg = || PipelineConfig::four_way().with_realign(RealignConfig::proposed());
    for kernel in [
        KernelId::Idct4x4,
        KernelId::Idct4x4Matrix,
        KernelId::Idct8x8,
    ] {
        let a = cycles(kernel, Variant::Altivec, cfg());
        let u = cycles(kernel, Variant::Unaligned, cfg());
        let gain = a as f64 / u as f64;
        assert!(
            (0.95..1.6).contains(&gain),
            "{kernel}: IDCT gain should be modest, got {gain}"
        );
    }
}

#[test]
fn wider_machines_decode_faster_on_simd_code() {
    let kernel = KernelId::Luma(BlockSize::B16x16);
    let two = cycles(kernel, Variant::Unaligned, PipelineConfig::two_way());
    let four = cycles(kernel, Variant::Unaligned, PipelineConfig::four_way());
    let eight = cycles(kernel, Variant::Unaligned, PipelineConfig::eight_way());
    assert!(four < two, "4-way {four} vs 2-way {two}");
    assert!(eight <= four, "8-way {eight} vs 4-way {four}");
}

#[test]
fn latency_sweep_is_monotone_and_crosses_for_sad16() {
    // The paper: SAD 16x16 is memory-dominated; large extra latency
    // eventually erases the unaligned win.
    let kernel = KernelId::Sad(BlockSize::B16x16);
    let altivec = trace_kernel(kernel, Variant::Altivec, EXECS, SEED);
    let unaligned = trace_kernel(kernel, Variant::Unaligned, EXECS, SEED);
    let base = measure(
        PipelineConfig::four_way().with_realign(RealignConfig::equal_latency()),
        &altivec,
    )
    .cycles;
    let mut prev = 0;
    let mut last_speedup = f64::MAX;
    for extra in [0u32, 1, 2, 4, 6, 10] {
        let c = measure(
            PipelineConfig::four_way().with_realign(RealignConfig::extra(extra)),
            &unaligned,
        )
        .cycles;
        // Tolerate sub-percent greedy-scheduling anomalies.
        assert!(
            c + c / 100 >= prev,
            "latency increase cannot meaningfully speed things up"
        );
        prev = c.max(prev);
        last_speedup = base as f64 / c as f64;
    }
    assert!(
        last_speedup < 1.0,
        "at +10 cycles the unaligned SAD16 should lose: {last_speedup}"
    );
}

#[test]
fn simulator_state_reuse_is_deterministic() {
    let trace = trace_kernel(KernelId::Chroma(BlockSize::B8x8), Variant::Unaligned, 10, 3);
    let image = ReplayImage::build(&trace);
    let run = |warmup| Simulator::simulate_image(PipelineConfig::four_way(), warmup, &image);
    let (a1, a2) = (run(None), run(Some(&image)));
    let (b1, b2) = (run(None), run(Some(&image)));
    assert_eq!(a1.cycles, b1.cycles, "cold runs identical");
    assert_eq!(a2.cycles, b2.cycles, "warm runs identical");
    assert!(a2.cycles <= a1.cycles, "warm run not slower than cold");
}

#[test]
fn trace_level_reductions_match_instruction_accounting() {
    // The cycle win must be explained by the instruction stream: fewer
    // loads and permutes in the unaligned variant.
    let kernel = KernelId::Luma(BlockSize::B16x16);
    let av = trace_kernel(kernel, Variant::Altivec, EXECS, SEED);
    let un = trace_kernel(kernel, Variant::Unaligned, EXECS, SEED);
    let av_mix = av.mix();
    let un_mix = un.mix();
    use valign::isa::InstrClass;
    assert!(un_mix.get(InstrClass::VecLoad) < av_mix.get(InstrClass::VecLoad));
    assert!(un_mix.get(InstrClass::VecPerm) < av_mix.get(InstrClass::VecPerm));
    assert_eq!(
        un_mix.get(InstrClass::VecSimple),
        av_mix.get(InstrClass::VecSimple),
        "arithmetic work is identical — only realignment overhead differs"
    );
    assert!(un.unaligned_vector_accesses() > 0);
    assert_eq!(av.unaligned_vector_accesses(), 0);
}
