//! `sweep-cold`: the full paper evaluation as `valign all` runs it — one
//! memory-only `SimContext`, 200 executions, `nproc` threads — and the
//! paper-error figure every workload reports.

use crate::report::{self, Counters, Report};
use crate::spans::Tracer;
use crate::PassArgs;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use valign_cache::RealignConfig;
use valign_core::experiments::{fig10, fig4, fig8, fig9, table1, table2, table3, ExperimentError};
use valign_core::{trace_kernel, KernelId, SimContext, TraceKey};
use valign_h264::BlockSize;
use valign_isa::Trace;
use valign_kernels::util::Variant;
use valign_pipeline::{PipelineConfig, ReplayImage, Simulator};

/// `valign all`'s default execution count.
pub const EXECS: usize = 200;
/// `valign all`'s Fig. 10 execution count (`execs / 2`).
const FIG10_EXECS: usize = EXECS / 2;
/// `valign all`'s Fig. 4 frame count (`execs / 50`).
const FIG4_FRAMES: u32 = (EXECS / 50) as u32;
/// `valign all`'s Fig. 10 planned frames.
const FIG10_FRAMES: u32 = 2;

/// The kernels whose costs feed Fig. 10's decoder model, in its batch
/// order. Mirrors the driver's private list; [`check_jobs`] fails the run
/// if the two drift apart.
const FIG10_KERNELS: [KernelId; 7] = [
    KernelId::Luma(BlockSize::B16x16),
    KernelId::Luma(BlockSize::B8x8),
    KernelId::Luma(BlockSize::B4x4),
    KernelId::Chroma(BlockSize::B8x8),
    KernelId::Chroma(BlockSize::B4x4),
    KernelId::Idct4x4,
    KernelId::Idct8x8,
];

/// Fig. 8 unaligned/altivec ratios the paper reports as averages over
/// the three machines (EXPERIMENTS.md, "paper (avg)" column).
const FIG8_PAPER: [(KernelId, f64); 9] = [
    (KernelId::Luma(BlockSize::B16x16), 1.9),
    (KernelId::Luma(BlockSize::B8x8), 2.6),
    (KernelId::Luma(BlockSize::B4x4), 2.1),
    (KernelId::Chroma(BlockSize::B8x8), 1.1),
    (KernelId::Chroma(BlockSize::B4x4), 1.25),
    (KernelId::Idct8x8, 1.06),
    (KernelId::Idct4x4, 1.07),
    (KernelId::Idct4x4Matrix, 1.09),
    (KernelId::Sad(BlockSize::B16x16), 1.16),
];

/// Fig. 10 application speed-ups (numerator, denominator, paper ratio).
const FIG10_PAPER: [(Variant, Variant, f64); 3] = [
    (Variant::Altivec, Variant::Scalar, 1.2),
    (Variant::Unaligned, Variant::Altivec, 1.20),
    (Variant::Unaligned, Variant::Scalar, 1.49),
];

/// What one sweep produced.
pub struct Sweep {
    /// Everything `valign all` prints above its scorecard footer.
    pub text: String,
    /// Time of each driver call, from call to rendered text.
    pub driver_ms: Vec<f64>,
    pub paper_error_pct: f64,
}

fn timed<T>(driver_ms: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    driver_ms.push(report::ms_since(started));
    out
}

/// Runs table1 … fig10 in `valign all`'s order and with its arguments.
pub fn run_sweep(ctx: &SimContext, seed: u64) -> Result<Sweep, ExperimentError> {
    let mut ms = Vec::with_capacity(7);
    let mut text = String::new();
    let mut emit = |rendered: String| {
        text.push_str(&rendered);
        text.push('\n');
    };
    emit(timed(&mut ms, table1::render));
    emit(timed(&mut ms, table2::render));
    emit(timed(&mut ms, || {
        table3::run_with(ctx, EXECS, seed).render()
    }));
    emit(timed(&mut ms, || fig4::run(FIG4_FRAMES, seed).render()));
    let f8 = timed(&mut ms, || {
        fig8::run_with(ctx, EXECS, seed).map(|f| {
            let text = f.render();
            (f, text)
        })
    })?;
    emit(f8.1);
    emit(timed(&mut ms, || {
        fig9::run_with(ctx, EXECS, seed).map(|f| f.render())
    })?);
    let f10 = timed(&mut ms, || {
        fig10::run_with(ctx, FIG10_EXECS, FIG10_FRAMES, seed).map(|f| {
            let text = f.render();
            (f, text)
        })
    })?;
    emit(f10.1);
    Ok(Sweep {
        text,
        driver_ms: ms,
        paper_error_pct: paper_error_pct(&f8.0, &f10.0),
    })
}

/// Mean of |measured/paper − 1| over the paper ratios EXPERIMENTS.md
/// quotes, in percent.
pub fn paper_error_pct(f8: &fig8::Fig8, f10: &fig10::Fig10) -> f64 {
    let mut errors = Vec::new();
    for (kernel, paper) in FIG8_PAPER {
        let gains: Vec<f64> = PipelineConfig::table_ii()
            .iter()
            .filter_map(|cfg| f8.unaligned_gain(kernel, cfg.name))
            .collect();
        let measured = gains.iter().sum::<f64>() / gains.len() as f64;
        errors.push((measured / paper - 1.0).abs());
    }
    for (num, den, paper) in FIG10_PAPER {
        errors.push((f10.speedup(num, den) / paper - 1.0).abs());
    }
    100.0 * errors.iter().sum::<f64>() / errors.len() as f64
}

/// The paper error at `seed`, from the Fig. 8 and Fig. 10 drivers alone.
pub fn paper_only(seed: u64) -> Result<f64, String> {
    let ctx = SimContext::new(report::nproc());
    let f8 = fig8::run_with(&ctx, EXECS, seed).map_err(|e| e.to_string())?;
    let f10 = fig10::run_with(&ctx, FIG10_EXECS, FIG10_FRAMES, seed).map_err(|e| e.to_string())?;
    Ok(paper_error_pct(&f8, &f10))
}

/// One keyed replay of the sweep: (batch label, trace, machine).
type Job = (&'static str, TraceKey, PipelineConfig);

/// Every keyed replay the sweep's drivers submit, in submission order.
fn sweep_jobs(seed: u64) -> Vec<Job> {
    let key = |kernel, variant, execs| TraceKey {
        kernel,
        variant,
        execs,
        seed,
    };
    let mut jobs = Vec::new();
    let fig8_configs: Vec<PipelineConfig> = PipelineConfig::table_ii()
        .into_iter()
        .map(|cfg| cfg.with_realign(RealignConfig::equal_latency()))
        .collect();
    for &kernel in KernelId::ALL {
        for cfg in &fig8_configs {
            for &variant in Variant::ALL {
                jobs.push(("fig8", key(kernel, variant, EXECS), cfg.clone()));
            }
        }
    }
    for (_, kernels) in fig9::fig9_kernels() {
        for kernel in kernels {
            jobs.push((
                "fig9",
                key(kernel, Variant::Altivec, EXECS),
                PipelineConfig::four_way().with_realign(RealignConfig::equal_latency()),
            ));
            for extra in fig9::EXTRA_CYCLES {
                jobs.push((
                    "fig9",
                    key(kernel, Variant::Unaligned, EXECS),
                    PipelineConfig::four_way().with_realign(RealignConfig::extra(extra)),
                ));
            }
        }
    }
    for &variant in Variant::ALL {
        for kernel in FIG10_KERNELS {
            jobs.push((
                "fig10-kernels",
                key(kernel, variant, FIG10_EXECS),
                PipelineConfig::four_way().with_realign(RealignConfig::proposed()),
            ));
        }
    }
    jobs
}

/// Checks the mirrored job list against the batches the drivers really
/// ran, and returns the dynamic instructions those replays walked (two
/// walks per job: warm-up and measured). The one Fig. 10 CABAC replay
/// bypasses the store and is not counted.
fn check_jobs(ctx: &SimContext, jobs: &[Job]) -> Result<u64, String> {
    for batch in ctx.batches() {
        if batch.label == "fig10-cabac" {
            continue;
        }
        let mirrored = jobs
            .iter()
            .filter(|(label, ..)| *label == batch.label)
            .count();
        if mirrored != batch.jobs {
            return Err(format!(
                "benchmark job list drifted: {} ran {} jobs, mirrored {mirrored}",
                batch.label, batch.jobs
            ));
        }
    }
    let mut instrs = 0u64;
    for (_, key, _) in jobs {
        let len = ctx
            .store()
            .resident_len(*key)
            .ok_or_else(|| format!("sweep never materialized {key:?}"))?;
        instrs += 2 * len as u64;
    }
    Ok(instrs)
}

/// The measured sweep, shared by the untraced pass and the traced run's
/// untraced reference.
struct Measured {
    sweep: Sweep,
    wall_s: f64,
    ctx: SimContext,
}

fn measure(seed: u64) -> Result<Measured, String> {
    let ctx = SimContext::new(report::nproc());
    report::ready();
    let started = Instant::now();
    let sweep = run_sweep(&ctx, seed).map_err(|e| e.to_string())?;
    let wall_s = started.elapsed().as_secs_f64();
    Ok(Measured { sweep, wall_s, ctx })
}

fn base_report(args: &PassArgs, m: &Measured, seed: u64) -> Result<Report, String> {
    let jobs = sweep_jobs(seed);
    let sim_instrs = check_jobs(&m.ctx, &jobs)?;
    let batch_jobs: usize = m.ctx.batches().iter().map(|b| b.jobs).sum();
    let output = args.work.join(format!("sweep-{}.txt", args.index));
    report::write_file(&output, &m.sweep.text)?;
    // `valign all` exits 1 when a kernel/variant was materialized twice.
    let failed = u64::from(!m.ctx.store().stats().traced_exactly_once());
    let mut r = Report::default();
    r.nums("walls_s", &[m.wall_s])
        .num("jobs", batch_jobs as f64)
        .num("attempted", batch_jobs as f64)
        .num("failed", failed as f64)
        .num("sim_instrs", sim_instrs as f64)
        .num("paper_error_pct", m.sweep.paper_error_pct)
        .text("output", &output.display().to_string())
        .latencies(
            "latencies_ms",
            &m.sweep
                .driver_ms
                .iter()
                .copied()
                .map(Some)
                .collect::<Vec<_>>(),
        );
    Ok(r)
}

/// One untraced pass.
pub fn pass(args: &PassArgs) -> Result<Report, String> {
    let seed = report::program_seed(args.seed);
    let m = measure(seed)?;
    base_report(args, &m, seed)
}

/// The traced run: an untraced pass for reference, then the sweep's
/// tracing, image builds and replays through their own public calls —
/// `trace_kernel`, `ReplayImage::build`, `checksum`,
/// `Simulator::simulate_image` — on the same keys and in the same order,
/// single-threaded so spans nest. Drivers that call no lower layer
/// (table1, table2, fig4, table3's instruction mixes) run as
/// `experiments` spans; the figure drivers bundle their replays with
/// their arithmetic and run only in the untraced reference.
pub fn traced(args: &PassArgs) -> Result<Report, String> {
    let seed = report::program_seed(args.seed);
    let m = measure(seed)?;
    let mut r = base_report(args, &m, seed)?;
    let stats = m.ctx.store().stats();
    drop(m.ctx);

    let mut c = Counters::new();
    let mut images: HashMap<TraceKey, Arc<ReplayImage>> = HashMap::new();
    let mut t = Tracer::new("sweep-cold", seed);
    t.span("experiments", 0, |_| black_box(table1::render()));
    t.span("experiments", 0, |_| black_box(table2::render()));
    for &(kernel, _) in KernelId::TABLE_III {
        for &variant in Variant::ALL {
            let key = TraceKey {
                kernel,
                variant,
                execs: EXECS,
                seed,
            };
            let trace = materialize(&mut t, &mut c, &mut images, key);
            t.span("experiments", key.content_hash(), |_| {
                black_box(trace.mix())
            });
        }
    }
    t.span("experiments", seed, |_| {
        black_box(fig4::run(FIG4_FRAMES, seed).render())
    });
    for (_, key, cfg) in sweep_jobs(seed) {
        if !images.contains_key(&key) {
            materialize(&mut t, &mut c, &mut images, key);
        }
        let image = Arc::clone(&images[&key]);
        t.span("engine", key.content_hash(), |_| {
            black_box(Simulator::simulate_image(cfg, Some(&image), &image))
        });
        *c.entry("engine.replays").or_default() += 2.0;
        *c.entry("engine.instrs").or_default() += 2.0 * image.len() as f64;
    }
    let spans = t.finish();

    let resident: u64 = images.values().map(|i| i.len() as u64).sum();
    if images.len() != stats.entries || resident != stats.instructions {
        return Err(format!(
            "traced replica drifted from the sweep: {} keys / {resident} instructions vs {} / {}",
            images.len(),
            stats.entries,
            stats.instructions
        ));
    }
    c.insert("sim.mem_hits", stats.hits as f64);
    c.insert("sim.mem_misses", stats.misses as f64);
    c.insert("sim.resident_keys", stats.entries as f64);
    let path = args.work.join("spans.json");
    report::write_file(&path, &spans)?;
    r.text("spans", &path.display().to_string())
        .num("untraced_wall_s", m.wall_s)
        .counters("counters", &c);
    Ok(r)
}

/// The memory tier's fill of one key, through its constituent calls:
/// trace, build, checksum (what `PreparedTrace::new` does).
fn materialize(
    t: &mut Tracer,
    c: &mut Counters,
    images: &mut HashMap<TraceKey, Arc<ReplayImage>>,
    key: TraceKey,
) -> Arc<Trace> {
    t.span("sim", key.content_hash(), |t| {
        let trace = t.span("workload", key.content_hash(), |_| {
            trace_kernel(key.kernel, key.variant, key.execs, key.seed).into_shared()
        });
        let image = t.span("image", key.content_hash(), |_| ReplayImage::build(&trace));
        t.span("image.verify", key.content_hash(), |_| {
            black_box(image.checksum())
        });
        *c.entry("workload.traces").or_default() += 1.0;
        *c.entry("workload.instrs").or_default() += trace.len() as f64;
        *c.entry("image.builds").or_default() += 1.0;
        *c.entry("image.mb").or_default() += image.approx_bytes() as f64 / 1e6;
        images.insert(key, image.into_shared());
        trace
    })
}
