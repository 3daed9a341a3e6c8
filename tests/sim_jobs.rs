//! Integration tests for the simulation-job layer: the batch executor is
//! deterministic across thread counts, and shared-trace replays are pure.

use proptest::prelude::*;
use valign::cache::RealignConfig;
use valign::core::experiments::{fig8, fig9, table3};
use valign::core::sim::{SimContext, TraceKey, TraceStore};
use valign::core::store_ops::matrix_keys;
use valign::core::workload::{image_kernel, trace_kernel, KernelId};
use valign::kernels::util::Variant;
use valign::pipeline::{
    Machine, PipelineConfig, ReplayImage, RunGuards, Simulator, VerifiedImage, WarmState,
};

/// The whole Fig. 8 report — 99 jobs over 33 shared traces — is
/// byte-identical whether replayed serially or on 2 or 8 workers.
#[test]
fn fig8_report_is_identical_across_thread_counts() {
    let reports: Vec<String> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            let ctx = SimContext::new(threads);
            fig8::run_with(&ctx, 4, 11)
                .expect("non-empty replays")
                .render()
        })
        .collect();
    assert_eq!(reports[0], reports[1], "2 threads diverged from serial");
    assert_eq!(reports[0], reports[2], "8 threads diverged from serial");
}

#[test]
fn fig9_report_is_identical_across_thread_counts() {
    let serial = fig9::run_with(&SimContext::new(1), 3, 5)
        .expect("non-empty replays")
        .render();
    let parallel = fig9::run_with(&SimContext::new(8), 3, 5)
        .expect("non-empty replays")
        .render();
    assert_eq!(serial, parallel);
}

/// A shared context hits the store when drivers overlap: fig8 and fig9
/// both replay the Altivec and Unaligned traces of every kernel.
#[test]
fn shared_context_reuses_traces_across_drivers() {
    let ctx = SimContext::new(2);
    let _ = fig8::run_with(&ctx, 3, 9);
    let misses_after_fig8 = ctx.store().stats().misses;
    let _ = fig9::run_with(&ctx, 3, 9);
    let stats = ctx.store().stats();
    assert_eq!(
        stats.misses, misses_after_fig8,
        "fig9 must not trace anything fig8 already traced"
    );
    assert!(stats.traced_exactly_once(), "{stats:?}");
}

/// The sweep's first three drivers never ask for records: table3 reads
/// its mixes off the images and the figures only replay them. Every key
/// is traced once, and none keeps a record-form trace afterwards.
#[test]
fn sweep_drivers_keep_only_images() {
    let ctx = SimContext::new(2);
    let _ = table3::run_with(&ctx, 3, 13);
    let _ = fig8::run_with(&ctx, 3, 13).expect("non-empty replays");
    let _ = fig9::run_with(&ctx, 3, 13).expect("non-empty replays");
    let stats = ctx.store().stats();
    assert!(stats.traced_exactly_once(), "{stats:?}");
    assert_eq!(stats.materialized_traces, 0, "{stats:?}");
}

/// Table III materializes its keys on the context's workers: the table
/// is byte-identical at 1 and 4 threads, records no batch, traces each
/// key once and keeps no record-form trace.
#[test]
fn table3_is_identical_on_the_pool() {
    let tables: Vec<String> = [1usize, 4]
        .iter()
        .map(|&threads| {
            let ctx = SimContext::new(threads);
            let table = table3::run_with(&ctx, 4, 17).render();
            assert!(ctx.batches().is_empty(), "{:?}", ctx.batches());
            let stats = ctx.store().stats();
            assert!(stats.traced_exactly_once(), "{stats:?}");
            assert_eq!(stats.materialized_traces, 0, "{stats:?}");
            table
        })
        .collect();
    assert_eq!(tables[0], tables[1], "4 threads diverged from serial");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Replaying the same shared trace twice — on a fresh simulator each
    /// time, as the batch runner does — yields identical results.
    #[test]
    fn replaying_a_shared_trace_is_pure(
        kernel_idx in 0usize..KernelId::ALL.len(),
        variant_idx in 0usize..Variant::ALL.len(),
        execs in 1usize..4,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let store = TraceStore::new();
        let key = TraceKey {
            kernel: KernelId::ALL[kernel_idx],
            variant: Variant::ALL[variant_idx],
            execs,
            seed,
        };
        let trace = store.get(key);
        let replay = || Simulator::simulate_reference(PipelineConfig::four_way(), Some(&trace), &trace);
        let (first, second) = (replay(), replay());
        prop_assert_eq!(first, second);
        // The two replays shared one generation.
        prop_assert_eq!(store.stats().misses, 1);
    }
}

/// The replay images are most of what a sweep holds, so their layout is
/// guarded: over the 33-key matrix at 20 execs they average at most 16
/// bytes per record (10 fixed, the rest memory references, branch
/// outcomes and dependence lists).
#[test]
fn replay_images_stay_within_sixteen_bytes_per_record() {
    let (mut bytes, mut records) = (0usize, 0usize);
    for &kernel in KernelId::ALL {
        for &variant in Variant::ALL {
            let image = ReplayImage::build(&trace_kernel(kernel, variant, 20, 20070425));
            bytes += image.approx_bytes();
            records += image.len();
        }
    }
    assert!(
        bytes <= 16 * records,
        "{bytes} image bytes for {records} records ({:.2} B/record)",
        bytes as f64 / records as f64
    );
}

/// A store build compiles each record as the VM emits it
/// ([`image_kernel`]); that image must be the one compiled from the whole
/// recorded trace, down to its checksum and allocation, on every matrix
/// key — at the sweep's 200 executions, at the quick 20, and at the
/// degenerate one and zero — and a memory-only store that builds this
/// way keeps no record-form trace.
#[test]
fn streamed_images_equal_record_built_images() {
    for (execs, seed) in [(20, 20070426), (200, 0), (1, 7), (0, 7)] {
        for key in matrix_keys(execs, seed) {
            let (kernel, variant) = (key.kernel, key.variant);
            let streamed = image_kernel(kernel, variant, execs, seed);
            let recorded = ReplayImage::build(&trace_kernel(kernel, variant, execs, seed));
            assert_eq!(streamed.checksum(), recorded.checksum(), "{key:?}");
            assert_eq!(streamed.len(), recorded.len(), "{key:?}");
            assert_eq!(streamed.approx_bytes(), recorded.approx_bytes(), "{key:?}");
            assert_eq!(streamed.violations(), [], "{key:?}");
        }
    }

    let store = TraceStore::new();
    for key in matrix_keys(20, 20070426) {
        let _ = store.prepared(key);
    }
    let stats = store.stats();
    assert!(stats.traced_exactly_once(), "{stats:?}");
    assert_eq!(stats.materialized_traces, 0, "{stats:?}");
}

/// The 33-key matrix images at `execs` executions.
fn matrix_images(execs: usize) -> impl Iterator<Item = (String, ReplayImage)> {
    KernelId::ALL.iter().flat_map(move |&kernel| {
        Variant::ALL.iter().map(move |&variant| {
            let label = format!("{}.{}", kernel.label(), variant.label());
            let image = ReplayImage::build(&trace_kernel(kernel, variant, execs, 20070425));
            (label, image)
        })
    })
}

/// A kept warm state restores exactly the machine the functional warm-up
/// leaves — cache lines, LRU clocks, statistics and predictor — and
/// replaying from it is bit-identical to warming on the image, on every
/// matrix image × Table II config × default and equal-latency
/// realignment, through the unchecked and the guarded entry points.
#[test]
fn kept_warm_states_replay_bit_identically_across_the_matrix() {
    for (label, image) in matrix_images(20) {
        let proven = VerifiedImage::new(image.clone().into_shared()).expect("clean image");
        for base in PipelineConfig::table_ii() {
            let state = WarmState::take(base.memory, &image);
            assert_eq!(
                state.restore(),
                Machine::warmed(base.memory, &image),
                "{label} [{}]",
                base.name
            );
            for cfg in [
                base.clone(),
                base.clone().with_realign(RealignConfig::equal_latency()),
            ] {
                let warmed = Simulator::simulate_image(cfg.clone(), Some(&image), &image);
                let restored = Simulator::simulate_restored(cfg.clone(), &state, &image);
                assert_eq!(warmed, restored, "{label} [{}]", cfg.name);
                let guarded = Simulator::try_simulate_verified(
                    cfg.clone(),
                    Some(&state),
                    &proven,
                    &RunGuards::default(),
                );
                assert_eq!(Ok(warmed), guarded, "{label} [{}] guarded", cfg.name);
            }
        }
    }
}

/// Kernel working sets are small, so a kept warm state is mostly the
/// predictor's tables plus a few hundred valid L2 lines: at most 64 KiB
/// per key at the sweep's 200 executions.
#[test]
fn kept_warm_states_stay_within_64_kib_per_key() {
    let memory = PipelineConfig::four_way().memory;
    for (label, image) in matrix_images(200) {
        let bytes = WarmState::take(memory, &image).approx_bytes();
        assert!(bytes <= 64 * 1024, "{label}: {bytes} bytes");
    }
}

/// The image checksum of every matrix key at 20 executions, seed
/// 20070426, pinned so a faster tracer or image builder cannot change a
/// site id, a producer distance or a dependence list unnoticed.
#[test]
fn matrix_image_checksums_are_pinned() {
    const PINNED: [(&str, u64); 33] = [
        ("luma16x16.scalar", 0xfedb_74a9_cddd_a393),
        ("luma16x16.altivec", 0x2324_8b2a_9340_585c),
        ("luma16x16.unaligned", 0xe02b_c189_1c4b_3f27),
        ("luma8x8.scalar", 0x90f7_436a_fbb3_be6e),
        ("luma8x8.altivec", 0x8463_ed7d_8b40_a155),
        ("luma8x8.unaligned", 0xcc53_8220_d267_c8dd),
        ("luma4x4.scalar", 0x4361_cb90_2757_bae3),
        ("luma4x4.altivec", 0xb052_6ffb_e16e_890e),
        ("luma4x4.unaligned", 0xc59b_6b65_5085_4201),
        ("chroma8x8.scalar", 0xa1e9_1cc0_e89d_4c12),
        ("chroma8x8.altivec", 0x8050_c1a5_72d7_f375),
        ("chroma8x8.unaligned", 0x6d69_8cf1_d920_3356),
        ("chroma4x4.scalar", 0xb4f9_26b9_a97a_2bac),
        ("chroma4x4.altivec", 0xb361_67af_312f_ac73),
        ("chroma4x4.unaligned", 0xafa7_db8c_fdf0_38b9),
        ("idct8x8.scalar", 0xe3b8_73e4_6b51_d6f0),
        ("idct8x8.altivec", 0xf151_bdbe_f61a_d697),
        ("idct8x8.unaligned", 0x6042_2daa_871f_9a7f),
        ("idct4x4.scalar", 0x33a9_2b6f_cafe_9cd2),
        ("idct4x4.altivec", 0xafd4_a4ce_6d86_ab06),
        ("idct4x4.unaligned", 0x6b5f_8e5b_3c29_96db),
        ("idct4x4_matrix.scalar", 0x226a_fa71_0c86_a7e8),
        ("idct4x4_matrix.altivec", 0xec33_8f95_b5a7_623f),
        ("idct4x4_matrix.unaligned", 0x966c_fe9c_92ce_2638),
        ("sad16x16.scalar", 0x954b_5a12_0091_3b96),
        ("sad16x16.altivec", 0x9eea_706d_41aa_4afd),
        ("sad16x16.unaligned", 0xcc7f_2001_99e1_0f87),
        ("sad8x8.scalar", 0x667f_3fba_2f9c_5a97),
        ("sad8x8.altivec", 0x87f4_a597_1ff8_a28c),
        ("sad8x8.unaligned", 0xbcbc_618d_2f19_c760),
        ("sad4x4.scalar", 0x2529_7ea5_c8a3_f0aa),
        ("sad4x4.altivec", 0xe395_77ca_ea6d_dd3b),
        ("sad4x4.unaligned", 0xeb3a_628e_06af_9b7b),
    ];
    let keys = matrix_keys(20, 20070426);
    assert_eq!(keys.len(), PINNED.len());
    for (key, (label, pinned)) in keys.into_iter().zip(PINNED) {
        assert_eq!(
            format!("{}.{}", key.kernel.label(), key.variant.label()),
            label
        );
        let image = image_kernel(key.kernel, key.variant, key.execs, key.seed);
        assert_eq!(
            image.checksum(),
            pinned,
            "{label}: {:#018x}",
            image.checksum()
        );
    }
}
