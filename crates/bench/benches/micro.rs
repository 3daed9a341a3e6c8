//! Criterion micro-benchmarks of the simulation stack itself: golden
//! kernel throughput, VM tracing rate, cycle-accurate replay rate and the
//! cache model.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use valign_bench::SEED;
use valign_cache::{BankScheme, Hierarchy, HierarchyConfig};
use valign_core::workload::{trace_kernel, KernelId};
use valign_h264::interp::luma_qpel;
use valign_h264::plane::Plane;
use valign_h264::sad::sad_block;
use valign_h264::BlockSize;
use valign_kernels::util::Variant;
use valign_pipeline::{PipelineConfig, ReplayImage, Simulator};

fn textured(n: usize) -> Plane {
    let mut p = Plane::new(n, n);
    p.fill_with(|x, y| ((x * 37 + y * 91) % 256) as u8);
    p
}

fn golden_kernels(c: &mut Criterion) {
    let p = textured(128);
    c.bench_function("golden/luma_qpel_16x16_hv", |b| {
        b.iter(|| luma_qpel(black_box(&p), 40, 40, 2, 2, 16, 16));
    });
    let q = textured(128);
    c.bench_function("golden/sad_16x16", |b| {
        b.iter(|| sad_block(black_box(&p), 32, 32, black_box(&q), 37, 29, 16, 16));
    });
}

fn vm_tracing(c: &mut Criterion) {
    c.bench_function("vm/trace_luma16_altivec_x4", |b| {
        b.iter(|| trace_kernel(KernelId::Luma(BlockSize::B16x16), Variant::Altivec, 4, SEED));
    });
    c.bench_function("vm/trace_sad16_unaligned_x16", |b| {
        b.iter(|| {
            trace_kernel(
                KernelId::Sad(BlockSize::B16x16),
                Variant::Unaligned,
                16,
                SEED,
            )
        });
    });
}

fn pipeline_replay(c: &mut Criterion) {
    // The image is built once, outside the timed closures: these time the
    // replay walk alone.
    let trace = trace_kernel(KernelId::Luma(BlockSize::B16x16), Variant::Altivec, 8, SEED);
    let image = ReplayImage::build(&trace);
    c.bench_function("pipeline/replay_4way", |b| {
        b.iter(|| Simulator::simulate_image(PipelineConfig::four_way(), None, black_box(&image)));
    });
    c.bench_function("pipeline/replay_2way_inorder", |b| {
        b.iter(|| Simulator::simulate_image(PipelineConfig::two_way(), None, black_box(&image)));
    });
}

fn cache_model(c: &mut Criterion) {
    c.bench_function("cache/hierarchy_stream_4k", |b| {
        b.iter_batched(
            || Hierarchy::new(HierarchyConfig::table_ii()),
            |mut h| {
                let mut acc = 0u64;
                for i in 0..4096u64 {
                    acc += u64::from(
                        h.access(i * 48, 16, false, BankScheme::TwoBankInterleaved)
                            .latency,
                    );
                }
                acc
            },
            BatchSize::SmallInput,
        );
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = golden_kernels, vm_tracing, pipeline_replay, cache_model
}
criterion_main!(benches);
