//! Replay-throughput benchmark: the packed [`ReplayImage`] hot path
//! against the record-form reference walker, over the full fig8-style
//! batch.
//!
//! The engine's work is *replaying* — every {kernel × variant} trace is
//! generated once and then replayed across three machine configurations,
//! warm-up plus measured pass each. This harness runs exactly that batch
//! twice per repeat, once through [`Simulator::simulate_reference`] (the
//! replay walk over the array-of-structs `&[DynInstr]`, the pre-image
//! record form) and once through [`Simulator::simulate_image`] (the same
//! walk over the packed structure-of-arrays image), and reports simulated
//! instructions per wall-second (MIPS) for both, per kernel and in total.
//!
//! Two invariants are checked on every run and recorded in the artifact:
//!
//! * **bit-identical** — each job's [`SimResult`] is `==` across the two
//!   paths (the packed image is a lossless re-encoding, not an
//!   approximation);
//! * trace generation and image compilation happen *outside* every timed
//!   region, so the numbers isolate replay throughput;
//! * **image integrity** — before any timed pass, every prepared image is
//!   re-checksummed against the checksum stored at compile time and run
//!   through [`ReplayImage::validate`](valign_pipeline::ReplayImage::validate),
//!   so a corrupted image can never masquerade as a throughput result.
//!
//! `valign bench-replay` drives this module and writes the JSON artifact
//! (`BENCH_replay.json`); `cargo bench -p valign-bench --bench replay`
//! prints the human-readable report.

use crate::sim::{TraceKey, TraceStore};
use crate::workload::KernelId;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use valign_cache::RealignConfig;
use valign_isa::Trace;
use valign_kernels::util::Variant;
use valign_pipeline::{
    costmodel, Bucket, PipelineConfig, ReplayImage, SimResult, Simulator, StallBreakdown,
};
use valign_store::StoreDir;

/// Wall time and derived throughput of one replay path over the batch.
#[derive(Debug, Clone, Copy)]
pub struct PathMeasure {
    /// Batch wall time: the per-kernel minima across repeats, summed.
    /// Repeats interleave the two paths (reference pass, then image pass,
    /// each repeat) so clock drift between passes cancels instead of
    /// skewing the ratio one way.
    pub wall: Duration,
    /// Simulated instructions per wall-second, in millions (MIPS).
    pub mips: f64,
}

/// Per-kernel slice of the comparison.
#[derive(Debug, Clone)]
pub struct KernelMeasure {
    /// Which kernel.
    pub kernel: KernelId,
    /// Simulated instructions per pass across this kernel's jobs
    /// (3 configs × 3 variants, warm-up + measured replay each).
    pub instructions: u64,
    /// Reference-path wall over this kernel's jobs (minimum across
    /// repeats).
    pub reference_wall: Duration,
    /// Image-path wall over this kernel's jobs (minimum across repeats).
    pub image_wall: Duration,
    /// Stall attribution summed over this kernel's measured replays,
    /// under the timed protocol's equal-latency realign model.
    pub attribution: StallBreakdown,
    /// Simulated cycles over the same replays — this kernel's
    /// conservation target.
    pub attributed_cycles: u64,
    /// Realign attribution of this kernel's *unaligned* jobs replayed
    /// (untimed) under the native `RealignConfig::proposed` model — the
    /// exact quantity the audit block's `measured_realign` reports, taken
    /// from the same replays so the two blocks agree by construction.
    pub native_realign_unaligned: u64,
}

impl KernelMeasure {
    /// Image-path speed-up over the reference path for this kernel.
    pub fn speedup(&self) -> f64 {
        self.reference_wall.as_secs_f64() / self.image_wall.as_secs_f64().max(f64::EPSILON)
    }
}

/// The full replay-throughput comparison.
#[derive(Debug, Clone)]
pub struct ReplayBench {
    /// Kernel executions traced per kernel/variant.
    pub execs: usize,
    /// Workload seed.
    pub seed: u64,
    /// Batch passes per path; walls are best-of-repeats.
    pub repeats: usize,
    /// Jobs per pass (kernels × configs × variants).
    pub jobs: usize,
    /// Simulated instructions per pass (each job replays its trace twice:
    /// warm-up + measured).
    pub instructions: u64,
    /// The record-form reference path ([`Simulator::simulate_reference`]).
    pub reference: PathMeasure,
    /// The packed-image path ([`Simulator::simulate_image`]).
    pub image: PathMeasure,
    /// Whether every job's [`SimResult`] was `==` across the two paths.
    pub bit_identical: bool,
    /// Distinct prepared images that passed the pre-bench integrity check
    /// (checksum recomputation + static validation).
    pub images_verified: usize,
    /// Wall time of that integrity check. Verification runs strictly
    /// before the timed region and is reported here as its own cost, not
    /// folded into either path's wall.
    pub verify_wall: Duration,
    /// Per-kernel breakdown, in [`KernelId::ALL`] order.
    pub per_kernel: Vec<KernelMeasure>,
    /// The realign model the timed batch (and therefore `attribution`)
    /// runs under: the fig8 protocol's equal-latency upper bound.
    pub realign_timed: RealignConfig,
    /// Stall attribution summed over every measured replay of the batch
    /// (from the reference pass; the image pass is bit-identical). Under
    /// `realign_timed` the realign bucket is structurally zero — the
    /// equal-latency model has no realign penalty to attribute.
    pub attribution: StallBreakdown,
    /// Simulated cycles summed over the same replays — the attribution's
    /// conservation target.
    pub attributed_cycles: u64,
    /// The native realign model (`RealignConfig::proposed`) the untimed
    /// companion attribution and the audit tightness run under.
    pub realign_native: RealignConfig,
    /// Stall attribution over the same batch replayed (untimed) under
    /// `realign_native` — the configuration where the realign bucket is
    /// live, and the one the audit block measures against.
    pub attribution_native: StallBreakdown,
    /// Simulated cycles of the native-realign replays — conservation
    /// target for `attribution_native`.
    pub attributed_cycles_native: u64,
    /// Persistent-store timing: cold rebuild vs warm disk load of the
    /// whole matrix.
    pub store: StoreMeasure,
    /// Static-audit timing and cost-model bound tightness over the same
    /// packed store.
    pub audit: AuditMeasure,
}

/// Cold-vs-warm comparison of the persistent image store over the bench's
/// key matrix: how long materializing every prepared image takes when
/// rebuilt from source versus loaded (and fully verified) from container
/// files — the number the warm-start story rests on.
#[derive(Debug, Clone)]
pub struct StoreMeasure {
    /// Distinct keys (= image files) in the matrix.
    pub entries: usize,
    /// Total bytes across the packed image files.
    pub total_bytes: u64,
    /// Wall time to trace + compile every key from source (fresh
    /// memory-only store — the cold process start).
    pub cold_build: Duration,
    /// Best-of-repeats wall time to load every key from a packed store
    /// directory through the full integrity ladder (the warm start).
    pub warm_load: Duration,
    /// Disk hits of the warm pass (must equal `entries`).
    pub disk_hits: u64,
    /// Whether replaying every disk-loaded image reproduced the built
    /// images' results bit-for-bit.
    pub bit_identical: bool,
}

impl StoreMeasure {
    /// Warm-start speed-up over the cold rebuild.
    pub fn speedup(&self) -> f64 {
        self.cold_build.as_secs_f64() / self.warm_load.as_secs_f64().max(f64::EPSILON)
    }
}

/// How the zero-simulation audit path performs over the packed store, and
/// how tight its static realign ceiling sits over the measured replay.
///
/// The wall time covers the decode half of `valign audit --store-dir`:
/// every file through the full integrity ladder plus the cost-model bound
/// computation for all three Table II configurations (the image rules
/// live in `valign-analyze`, a layer above this crate; decode + bounds
/// dominate the audit wall). Tightness is reported per kernel on the
/// unaligned variant — the one the realign bounds exist for — as the
/// static ceiling vs the attribution actually measured in replay.
#[derive(Debug, Clone)]
pub struct AuditMeasure {
    /// Wall time to decode every store file and compute its Table II
    /// cost-model bounds.
    pub wall: Duration,
    /// Files decoded and bounded.
    pub files_audited: usize,
    /// Per-kernel realign bound tightness, in [`KernelId::ALL`] order.
    pub per_kernel: Vec<KernelTightness>,
}

/// Static-vs-measured realign attribution for one kernel's unaligned
/// variant, summed over the three Table II configurations (at each
/// configuration's native realign model).
#[derive(Debug, Clone, Copy)]
pub struct KernelTightness {
    /// Which kernel.
    pub kernel: KernelId,
    /// Σ of the static realign upper bounds.
    pub static_realign_hi: u64,
    /// Σ of the realign attribution measured in replay under the native
    /// realign model — taken verbatim from the batch's native-realign
    /// attribution pass ([`KernelMeasure::native_realign_unaligned`]), so
    /// the audit and attribution blocks can never disagree. Never exceeds
    /// the static ceiling (the `costmodel-soundness` rule gates on it);
    /// the gap is realign stall hidden under higher-priority buckets.
    pub measured_realign: u64,
}

impl ReplayBench {
    /// Image-path speed-up over the reference path for the whole batch.
    pub fn speedup(&self) -> f64 {
        self.reference.wall.as_secs_f64() / self.image.wall.as_secs_f64().max(f64::EPSILON)
    }
}

/// Which replay path one timed pass exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BenchPath {
    Reference,
    Image,
}

/// One job of the fig8-style batch, with its trace and image prepared
/// (and, for disk-loaded entries, materialized) up front.
struct BenchJob {
    kernel_idx: usize,
    key: TraceKey,
    cfg: PipelineConfig,
    trace: Arc<Trace>,
    image: Arc<ReplayImage>,
    image_checksum: u64,
}

/// Runs the comparison: the fig8-style batch (every kernel × Table II
/// config at equal unaligned latency × variant, warm-up + measured replay
/// each), `repeats` passes per path, walls best-of-repeats. With
/// `store_dir` the persistent tier's cold/warm comparison packs into (and
/// reuses) that directory; without it an ephemeral directory is used and
/// removed.
pub fn run(execs: usize, seed: u64, repeats: usize, store_dir: Option<&Path>) -> ReplayBench {
    let repeats = repeats.max(1);
    let store = TraceStore::new();
    let configs: Vec<PipelineConfig> = PipelineConfig::table_ii()
        .into_iter()
        .map(|cfg| cfg.with_realign(RealignConfig::equal_latency()))
        .collect();

    // Generate and image every trace before any timing. The records
    // lookup keeps each key's first-build trace, so `trace()` here pins
    // it without tracing twice and the reference pass never pays
    // materialization inside a timed region.
    let mut jobs = Vec::with_capacity(KernelId::ALL.len() * configs.len() * Variant::ALL.len());
    for (kernel_idx, &kernel) in KernelId::ALL.iter().enumerate() {
        for cfg in &configs {
            for &variant in Variant::ALL {
                let key = TraceKey {
                    kernel,
                    variant,
                    execs,
                    seed,
                };
                let prepared = store.prepared_for_records(key);
                jobs.push(BenchJob {
                    kernel_idx,
                    key,
                    cfg: cfg.clone(),
                    trace: prepared.trace(),
                    image: Arc::clone(&prepared.image),
                    image_checksum: prepared.image_checksum,
                });
            }
        }
    }
    let instructions: u64 = jobs.iter().map(|j| 2 * j.image.len() as u64).sum();

    // Integrity gate before anything enters the timed region: recompute
    // every distinct image's checksum against the one stored at compile
    // time, then statically validate. The store shares one image per key,
    // so verify per key rather than per job. The gate's own wall is
    // measured and reported separately (`verify_wall`) — it never counts
    // against either replay path.
    let verify_started = Instant::now();
    let mut images_verified = 0usize;
    let mut seen = std::collections::HashSet::new();
    for job in &jobs {
        if !seen.insert(Arc::as_ptr(&job.image)) {
            continue;
        }
        let actual = job.image.checksum();
        assert_eq!(
            actual, job.image_checksum,
            "image checksum rotted between compilation and bench"
        );
        job.image
            .validate()
            .unwrap_or_else(|e| panic!("prepared image failed validation: {e}"));
        images_verified += 1;
    }
    let verify_wall = verify_started.elapsed();

    let (ref_walls, img_walls, ref_results, img_results) = timed_passes(&jobs, repeats);
    let bit_identical = ref_results == img_results;
    let mut attribution = StallBreakdown::default();
    let mut attributed_cycles = 0u64;
    let mut kernel_attr = vec![(StallBreakdown::default(), 0u64); KernelId::ALL.len()];
    for (job, r) in jobs.iter().zip(&ref_results) {
        attribution.accumulate(&r.breakdown);
        attributed_cycles += r.cycles;
        let (ka, kc) = &mut kernel_attr[job.kernel_idx];
        ka.accumulate(&r.breakdown);
        *kc += r.cycles;
    }

    // Companion attribution pass, untimed, under the native realign model
    // (`RealignConfig::proposed`): the timed protocol's equal-latency
    // model keeps the realign bucket structurally at zero, so this pass
    // is where realign attribution is actually live. The audit block's
    // per-kernel `measured_realign` is taken from these same replays.
    let realign_native = RealignConfig::proposed();
    let mut attribution_native = StallBreakdown::default();
    let mut attributed_cycles_native = 0u64;
    let mut kernel_native_realign = vec![0u64; KernelId::ALL.len()];
    for job in &jobs {
        let cfg = job.cfg.clone().with_realign(realign_native);
        let r = Simulator::simulate_image(cfg, Some(&job.image), &job.image);
        attribution_native.accumulate(&r.breakdown);
        attributed_cycles_native += r.cycles;
        if job.key.variant == Variant::Unaligned {
            kernel_native_realign[job.kernel_idx] += r.breakdown.get(Bucket::Realign);
        }
    }

    let per_kernel: Vec<KernelMeasure> = KernelId::ALL
        .iter()
        .enumerate()
        .map(|(kernel_idx, &kernel)| KernelMeasure {
            kernel,
            instructions: jobs
                .iter()
                .filter(|j| j.kernel_idx == kernel_idx)
                .map(|j| 2 * j.image.len() as u64)
                .sum(),
            reference_wall: ref_walls[kernel_idx],
            image_wall: img_walls[kernel_idx],
            attribution: kernel_attr[kernel_idx].0,
            attributed_cycles: kernel_attr[kernel_idx].1,
            native_realign_unaligned: kernel_native_realign[kernel_idx],
        })
        .collect();

    let (store_measure, audit_measure) =
        measure_store(repeats, store_dir, &jobs, &img_results, &per_kernel);

    let measure = |walls: &[Duration]| {
        let wall: Duration = walls.iter().sum();
        PathMeasure {
            wall,
            mips: instructions as f64 / wall.as_secs_f64().max(f64::EPSILON) / 1e6,
        }
    };
    ReplayBench {
        execs,
        seed,
        repeats,
        jobs: jobs.len(),
        instructions,
        reference: measure(&ref_walls),
        image: measure(&img_walls),
        bit_identical,
        images_verified,
        verify_wall,
        per_kernel,
        realign_timed: RealignConfig::equal_latency(),
        attribution,
        attributed_cycles,
        realign_native,
        attribution_native,
        attributed_cycles_native,
        store: store_measure,
        audit: audit_measure,
    }
}

/// The persistent-tier comparison: cold rebuild of the key matrix from
/// source vs warm load from packed container files, plus a bit-identity
/// check of every job replayed on the disk-loaded images.
fn measure_store(
    repeats: usize,
    store_dir: Option<&Path>,
    jobs: &[BenchJob],
    img_results: &[SimResult],
    per_kernel: &[KernelMeasure],
) -> (StoreMeasure, AuditMeasure) {
    let mut keys: Vec<TraceKey> = Vec::new();
    for job in jobs {
        if !keys.contains(&job.key) {
            keys.push(job.key);
        }
    }

    // Cold half: a fresh memory-only store re-traces and re-compiles
    // everything — what a process start costs without the disk tier.
    let cold_store = TraceStore::new();
    let started = Instant::now();
    for &key in &keys {
        let _ = cold_store.prepared(key);
    }
    let cold_build = started.elapsed();

    // Pack (untimed) into the requested or an ephemeral directory.
    let (root, ephemeral) = match store_dir {
        Some(p) => (p.to_path_buf(), false),
        None => (
            std::env::temp_dir().join(format!("valign-bench-store-{}", std::process::id())),
            true,
        ),
    };
    {
        let packer = TraceStore::with_disk(&root).expect("bench store dir must be usable");
        for &key in &keys {
            let _ = packer.prepared(key);
        }
    }

    // Warm half, best of `repeats`: every key comes off disk through the
    // full integrity ladder, no tracing, no image compilation.
    let mut warm_load = Duration::MAX;
    let mut disk_hits = 0u64;
    let mut warm_store = None;
    for _ in 0..repeats {
        let fresh = TraceStore::with_disk(&root).expect("bench store dir must be usable");
        let started = Instant::now();
        for &key in &keys {
            let _ = fresh.prepared(key);
        }
        warm_load = warm_load.min(started.elapsed());
        disk_hits = fresh.stats().disk_hits;
        warm_store = Some(fresh);
    }
    let warm_store = warm_store.expect("at least one warm pass");
    assert_eq!(
        disk_hits,
        keys.len() as u64,
        "every warm materialization must be a disk hit"
    );

    // Identity: the disk-loaded images replay bit-identically to the
    // freshly built ones on every job of the batch.
    let bit_identical = jobs.iter().zip(img_results).all(|(job, expected)| {
        let image = warm_store.prepared(job.key).image;
        Simulator::simulate_image(job.cfg.clone(), Some(&image), &image) == *expected
    });

    let total_bytes = warm_store
        .disk()
        .expect("warm store has a disk tier")
        .entries()
        .expect("store dir is listable")
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    let audit = measure_audit(&root, jobs, per_kernel);
    if ephemeral {
        let _ = std::fs::remove_dir_all(&root);
    }
    (
        StoreMeasure {
            entries: keys.len(),
            total_bytes,
            cold_build,
            warm_load,
            disk_hits,
            bit_identical,
        },
        audit,
    )
}

/// Times the zero-simulation audit decode pass over the packed store —
/// every file through the full integrity ladder plus Table II cost-model
/// bounds — then reports, per kernel, how tight the static realign
/// ceiling sits over the unaligned variant's attribution as measured by
/// the batch's native-realign pass (the `measured_realign` numbers are
/// shared with `per_kernel`, not re-derived, so the blocks agree).
fn measure_audit(root: &Path, jobs: &[BenchJob], per_kernel: &[KernelMeasure]) -> AuditMeasure {
    let started = Instant::now();
    let mut files_audited = 0usize;
    let dir = StoreDir::open(root).expect("packed store dir must be openable");
    for entry in dir.walk().expect("packed store dir must be listable") {
        let Ok(stored) = entry.loaded else { continue };
        for cfg in PipelineConfig::table_ii() {
            let _ = costmodel::bounds(&stored.image, &cfg);
        }
        files_audited += 1;
    }
    let wall = started.elapsed();

    // Tightness, untimed: static ceilings come from the cost model over
    // the unaligned image under each native Table II configuration; the
    // measured side is the batch's own native-realign attribution.
    let audit_kernels = KernelId::ALL
        .iter()
        .enumerate()
        .map(|(kernel_idx, &kernel)| {
            let job = jobs
                .iter()
                .find(|j| j.kernel_idx == kernel_idx && j.key.variant == Variant::Unaligned)
                .expect("every kernel has an unaligned job");
            let mut static_realign_hi = 0u64;
            for cfg in PipelineConfig::table_ii() {
                static_realign_hi += costmodel::bounds(&job.image, &cfg).realign_hi;
            }
            KernelTightness {
                kernel,
                static_realign_hi,
                measured_realign: per_kernel[kernel_idx].native_realign_unaligned,
            }
        })
        .collect();
    AuditMeasure {
        wall,
        files_audited,
        per_kernel: audit_kernels,
    }
}

/// Runs `repeats` interleaved batch passes — one reference pass then one
/// image pass per repeat, so the two paths sample the same machine
/// conditions — and keeps the per-kernel *minimum* wall across repeats
/// for each path. Element-wise minima reject per-kernel noise spikes that
/// a whole-pass best-of cannot (one slow kernel no longer drags an
/// otherwise-clean pass out of contention). Simulator construction sits
/// outside every timed span; only the replays themselves are timed.
/// Results are identical every pass — the engine is deterministic — so
/// they are taken from the last one.
fn timed_passes(
    jobs: &[BenchJob],
    repeats: usize,
) -> (Vec<Duration>, Vec<Duration>, Vec<SimResult>, Vec<SimResult>) {
    let mut ref_walls = vec![Duration::MAX; KernelId::ALL.len()];
    let mut img_walls = vec![Duration::MAX; KernelId::ALL.len()];
    let mut ref_results = Vec::new();
    let mut img_results = Vec::new();
    for _ in 0..repeats {
        let (rw, rr) = one_pass(jobs, BenchPath::Reference);
        let (iw, ir) = one_pass(jobs, BenchPath::Image);
        for (best, wall) in ref_walls.iter_mut().zip(&rw) {
            *best = (*best).min(*wall);
        }
        for (best, wall) in img_walls.iter_mut().zip(&iw) {
            *best = (*best).min(*wall);
        }
        ref_results = rr;
        img_results = ir;
    }
    (ref_walls, img_walls, ref_results, img_results)
}

/// One full batch pass of one path: per-kernel walls plus every job's
/// result. The per-job timed span covers the fresh machine, warm-up and
/// measured replay.
fn one_pass(jobs: &[BenchJob], path: BenchPath) -> (Vec<Duration>, Vec<SimResult>) {
    let mut walls = vec![Duration::ZERO; KernelId::ALL.len()];
    let mut results = Vec::with_capacity(jobs.len());
    for job in jobs {
        let cfg = job.cfg.clone();
        let started = Instant::now();
        let result = match path {
            BenchPath::Reference => {
                Simulator::simulate_reference(cfg, Some(&job.trace), &job.trace)
            }
            BenchPath::Image => Simulator::simulate_image(cfg, Some(&job.image), &job.image),
        };
        walls[job.kernel_idx] += started.elapsed();
        results.push(result);
    }
    (walls, results)
}

impl ReplayBench {
    /// Renders the human-readable comparison table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "REPLAY THROUGHPUT: packed image vs record-form reference\n\
             ({} executions, seed {}, {} jobs/pass, best of {} passes, \
             {} simulated instructions/pass)\n",
            self.execs, self.seed, self.jobs, self.repeats, self.instructions
        );
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>12} {:>12} {:>9}",
            "kernel", "instrs/pass", "ref wall", "image wall", "speedup"
        );
        let _ = writeln!(out, "{}", "-".repeat(66));
        for k in &self.per_kernel {
            let _ = writeln!(
                out,
                "{:<16} {:>12} {:>12.2?} {:>12.2?} {:>8.2}x",
                k.kernel.label(),
                k.instructions,
                k.reference_wall,
                k.image_wall,
                k.speedup(),
            );
        }
        let _ = writeln!(out, "{}", "-".repeat(66));
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>12.2?} {:>12.2?} {:>8.2}x",
            "total",
            self.instructions,
            self.reference.wall,
            self.image.wall,
            self.speedup(),
        );
        let _ = writeln!(
            out,
            "\nreference: {:>8.2} MIPS\nimage:     {:>8.2} MIPS\nresults {}",
            self.reference.mips,
            self.image.mips,
            if self.bit_identical {
                "bit-identical across both paths"
            } else {
                "DIVERGED between paths"
            },
        );
        let _ = writeln!(
            out,
            "{} images verified (checksum + validation) in {:.2?}, before timing",
            self.images_verified, self.verify_wall,
        );
        let _ = writeln!(
            out,
            "attribution [{}] over {} simulated cycles ({}): {}",
            self.realign_timed.label(),
            self.attributed_cycles,
            if self.attribution.conserves(self.attributed_cycles) {
                "conserved"
            } else {
                "NOT CONSERVED"
            },
            self.attribution,
        );
        let _ = writeln!(
            out,
            "attribution [{}] over {} simulated cycles ({}): {}",
            self.realign_native.label(),
            self.attributed_cycles_native,
            if self
                .attribution_native
                .conserves(self.attributed_cycles_native)
            {
                "conserved"
            } else {
                "NOT CONSERVED"
            },
            self.attribution_native,
        );
        let s = &self.store;
        let _ = writeln!(
            out,
            "store: {} images, {} bytes on disk; cold rebuild {:.2?}, \
             warm load {:.2?} ({:.1}x faster), {} disk hits, warm replays {}",
            s.entries,
            s.total_bytes,
            s.cold_build,
            s.warm_load,
            s.speedup(),
            s.disk_hits,
            if s.bit_identical {
                "bit-identical"
            } else {
                "DIVERGED"
            },
        );
        let a = &self.audit;
        let tight: Vec<String> = a
            .per_kernel
            .iter()
            .map(|k| {
                format!(
                    "{} {}/{}",
                    k.kernel.label(),
                    k.measured_realign,
                    k.static_realign_hi
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "audit [{}]: {} file(s) decoded + bounded in {:.2?}; \
             measured/static realign (unaligned, Σ Table II): {}",
            self.realign_native.label(),
            a.files_audited,
            a.wall,
            tight.join(", "),
        );
        out
    }

    /// Renders the machine-readable artifact (`BENCH_replay.json`).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"bench\": \"replay_throughput\",");
        let _ = writeln!(out, "  \"execs\": {},", self.execs);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"repeats\": {},", self.repeats);
        let _ = writeln!(out, "  \"jobs_per_pass\": {},", self.jobs);
        let _ = writeln!(out, "  \"instructions_per_pass\": {},", self.instructions);
        let _ = writeln!(out, "  \"bit_identical\": {},", self.bit_identical);
        let _ = writeln!(out, "  \"images_verified\": {},", self.images_verified);
        let _ = writeln!(
            out,
            "  \"verify\": {{\"wall_secs\": {:.6}, \"images\": {}, \"timed_region\": false}},",
            self.verify_wall.as_secs_f64(),
            self.images_verified
        );
        let _ = writeln!(
            out,
            "  \"reference\": {{\"wall_secs\": {:.6}, \"mips\": {:.3}}},",
            self.reference.wall.as_secs_f64(),
            self.reference.mips
        );
        let _ = writeln!(
            out,
            "  \"image\": {{\"wall_secs\": {:.6}, \"mips\": {:.3}}},",
            self.image.wall.as_secs_f64(),
            self.image.mips
        );
        let _ = writeln!(out, "  \"speedup\": {:.3},", self.speedup());
        let buckets = |b: &StallBreakdown| -> String {
            Bucket::ALL
                .iter()
                .map(|&bk| format!("\"{}\": {}", bk.label(), b.get(bk)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = writeln!(
            out,
            "  \"attribution\": {{\"realign_config\": \"{}\", {}}},",
            self.realign_timed.label(),
            buckets(&self.attribution)
        );
        let _ = writeln!(
            out,
            "  \"attributed_cycles\": {},\n  \"attribution_conserved\": {},",
            self.attributed_cycles,
            self.attribution.conserves(self.attributed_cycles)
        );
        let _ = writeln!(
            out,
            "  \"attribution_native\": {{\"realign_config\": \"{}\", {}}},",
            self.realign_native.label(),
            buckets(&self.attribution_native)
        );
        let _ = writeln!(
            out,
            "  \"attributed_cycles_native\": {},\n  \"attribution_native_conserved\": {},",
            self.attributed_cycles_native,
            self.attribution_native
                .conserves(self.attributed_cycles_native)
        );
        let s = &self.store;
        let _ = writeln!(
            out,
            "  \"store\": {{\"entries\": {}, \"total_bytes\": {}, \
             \"cold_build_secs\": {:.6}, \"warm_load_secs\": {:.6}, \
             \"speedup\": {:.3}, \"disk_hits\": {}, \"bit_identical\": {}}},",
            s.entries,
            s.total_bytes,
            s.cold_build.as_secs_f64(),
            s.warm_load.as_secs_f64(),
            s.speedup(),
            s.disk_hits,
            s.bit_identical,
        );
        let a = &self.audit;
        let tight: Vec<String> = a
            .per_kernel
            .iter()
            .map(|k| {
                format!(
                    "{{\"kernel\": \"{}\", \"static_realign_hi\": {}, \
                     \"measured_realign\": {}}}",
                    k.kernel.label(),
                    k.static_realign_hi,
                    k.measured_realign,
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "  \"audit\": {{\"wall_secs\": {:.6}, \"files_audited\": {}, \
             \"realign_config\": \"{}\", \"realign_tightness\": [{}]}},",
            a.wall.as_secs_f64(),
            a.files_audited,
            self.realign_native.label(),
            tight.join(", "),
        );
        out.push_str("  \"per_kernel\": [\n");
        for (i, k) in self.per_kernel.iter().enumerate() {
            let kbuckets: Vec<String> = Bucket::ALL
                .iter()
                .map(|&b| format!("\"{}\": {}", b.label(), k.attribution.get(b)))
                .collect();
            let _ = write!(
                out,
                "    {{\"kernel\": \"{}\", \"instructions_per_pass\": {}, \
                 \"reference_wall_secs\": {:.6}, \"image_wall_secs\": {:.6}, \
                 \"speedup\": {:.3}, \"attribution\": {{{}}}, \
                 \"attributed_cycles\": {}, \"attribution_conserved\": {}, \
                 \"native_realign_unaligned\": {}}}",
                k.kernel.label(),
                k.instructions,
                k.reference_wall.as_secs_f64(),
                k.image_wall.as_secs_f64(),
                k.speedup(),
                kbuckets.join(", "),
                k.attributed_cycles,
                k.attribution.conserves(k.attributed_cycles),
                k.native_realign_unaligned,
            );
            out.push_str(if i + 1 < self.per_kernel.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders one line for the append-only trajectory file
    /// (`BENCH_trajectory.jsonl`): the headline numbers of this run as a
    /// single JSON object, meant to be *appended* — never overwritten —
    /// so the speedup's history stays inspectable run over run. `note`
    /// is free-form provenance (e.g. the machine or the commit context).
    pub fn trajectory_line(&self, note: &str) -> String {
        format!(
            "{{\"bench\": \"replay_throughput\", \"note\": \"{}\", \
             \"execs\": {}, \"seed\": {}, \"repeats\": {}, \
             \"speedup\": {:.3}, \"reference_mips\": {:.3}, \
             \"image_mips\": {:.3}, \"verify_wall_secs\": {:.6}, \
             \"store_speedup\": {:.3}}}",
            note.replace(['"', '\\'], "_"),
            self.execs,
            self.seed,
            self.repeats,
            self.speedup(),
            self.reference.mips,
            self.image.mips,
            self.verify_wall.as_secs_f64(),
            self.store.speedup(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_is_bit_identical_and_wellformed() {
        let b = run(3, 7, 1, None);
        assert!(b.bit_identical, "paths diverged on the tiny batch");
        assert_eq!(b.jobs, KernelId::ALL.len() * 9);
        assert_eq!(b.per_kernel.len(), KernelId::ALL.len());
        assert_eq!(
            b.instructions,
            b.per_kernel.iter().map(|k| k.instructions).sum::<u64>()
        );
        assert!(b.instructions > 0);
        assert!(
            b.attribution.conserves(b.attributed_cycles),
            "{} attributed vs {} cycles",
            b.attribution.total(),
            b.attributed_cycles
        );
        assert_eq!(
            b.images_verified,
            KernelId::ALL.len() * 3,
            "one image per kernel/variant key"
        );
        // Store block: every key comes off disk on the warm pass and the
        // loaded images replay bit-identically.
        assert_eq!(b.store.entries, KernelId::ALL.len() * 3);
        assert_eq!(b.store.disk_hits, b.store.entries as u64);
        assert!(b.store.bit_identical, "disk-loaded images diverged");
        assert!(b.store.total_bytes > 0);
        assert!(b.store.warm_load > Duration::ZERO);
        // Audit block: every packed file decodes and bounds, and the
        // measured realign attribution never escapes the static ceiling.
        assert_eq!(b.audit.files_audited, b.store.entries);
        assert_eq!(b.audit.per_kernel.len(), KernelId::ALL.len());
        for k in &b.audit.per_kernel {
            assert!(
                k.measured_realign <= k.static_realign_hi,
                "{}: measured realign {} over static hi {}",
                k.kernel.label(),
                k.measured_realign,
                k.static_realign_hi
            );
        }
        assert!(
            b.audit.per_kernel.iter().any(|k| k.static_realign_hi > 0),
            "unaligned variants must have live realign bounds"
        );
        // The attribution and audit blocks agree on what they measure:
        // each block names its realign model, the audit's measured side
        // is literally the per-kernel native attribution, the timed
        // (equal-latency) protocol attributes zero realign, and the
        // native pass conserves like the timed one.
        assert_eq!(b.realign_timed, RealignConfig::equal_latency());
        assert_eq!(b.realign_native, RealignConfig::proposed());
        assert_eq!(b.attribution.get(Bucket::Realign), 0);
        assert!(
            b.attribution_native.conserves(b.attributed_cycles_native),
            "{} native-attributed vs {} cycles",
            b.attribution_native.total(),
            b.attributed_cycles_native
        );
        for (a, k) in b.audit.per_kernel.iter().zip(&b.per_kernel) {
            assert_eq!(
                a.measured_realign,
                k.native_realign_unaligned,
                "{}: audit and attribution disagree on measured realign",
                a.kernel.label()
            );
        }
        assert!(b.verify_wall > Duration::ZERO);
        // Per-kernel attribution conserves against per-kernel cycles and
        // sums to the batch totals.
        let mut summed = StallBreakdown::default();
        let mut cycles = 0u64;
        for k in &b.per_kernel {
            assert!(
                k.attribution.conserves(k.attributed_cycles),
                "{}: {} attributed vs {} cycles",
                k.kernel.label(),
                k.attribution.total(),
                k.attributed_cycles
            );
            summed.accumulate(&k.attribution);
            cycles += k.attributed_cycles;
        }
        assert_eq!(cycles, b.attributed_cycles);
        assert_eq!(summed.total(), b.attribution.total());
        let json = b.render_json();
        assert!(json.contains("\"bit_identical\": true"));
        assert!(json.contains("\"images_verified\""));
        assert!(json.contains("\"verify\": {"));
        assert!(json.contains("\"timed_region\": false"));
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"attribution_conserved\": true"));
        assert!(json.contains("\"attribution_native_conserved\": true"));
        assert!(json.contains("\"realign_config\": \"equal-latency\""));
        assert!(json.contains("\"realign_config\": \"proposed\""));
        assert!(json.contains("\"native_realign_unaligned\""));
        assert!(json.contains("\"useful\":"));
        assert!(json.contains("\"store\": {"));
        assert!(json.contains("\"cold_build_secs\""));
        assert!(json.contains("\"warm_load_secs\""));
        assert!(json.contains("\"disk_hits\": 33"));
        assert!(json.contains("\"audit\": {"));
        assert!(json.contains("\"files_audited\": 33"));
        assert!(json.contains("\"static_realign_hi\""));
        assert_eq!(
            json.matches("\"kernel\":").count(),
            2 * KernelId::ALL.len(),
            "one per audit-tightness entry plus one per per-kernel entry"
        );
        assert_eq!(
            json.matches("\"attribution\":").count(),
            KernelId::ALL.len() + 1,
            "one attribution block per kernel plus the batch total"
        );
        assert_eq!(
            json.matches("\"attribution_native\":").count(),
            1,
            "one native attribution block for the batch"
        );
        assert_eq!(
            json.matches("\"realign_config\":").count(),
            3,
            "attribution, attribution_native and audit each name their model"
        );
        let line = b.trajectory_line("unit-test \"quoted\"");
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'));
        assert!(line.contains("\"speedup\""));
        assert!(line.contains("\"verify_wall_secs\""));
        assert!(!line.contains("quoted\""), "quotes must be sanitised");
        let human = b.render();
        assert!(human.contains("bit-identical"));
        assert!(human.contains("images verified"));
        assert!(human.contains("MIPS"));
        assert!(human.contains("conserved"));
        assert!(human.contains("[equal-latency]"));
        assert!(human.contains("[proposed]"));
        assert!(human.contains("store:"));
        assert!(human.contains("disk hits"));
        assert!(human.contains("audit"));
        assert!(human.contains("measured/static realign"));
    }

    #[test]
    fn repeats_are_clamped_to_at_least_one() {
        let b = run(2, 1, 0, None);
        assert_eq!(b.repeats, 1);
        assert!(b.reference.wall > Duration::ZERO);
        assert!(b.image.wall > Duration::ZERO);
    }

    #[test]
    fn explicit_store_dir_is_reused_across_runs() {
        let root =
            std::env::temp_dir().join(format!("valign-benchtest-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cold = run(2, 5, 1, Some(&root));
        assert!(root.is_dir(), "explicit store dir persists");
        let warm = run(2, 5, 1, Some(&root));
        assert_eq!(warm.store.entries, cold.store.entries);
        assert_eq!(warm.store.total_bytes, cold.store.total_bytes);
        assert!(warm.store.bit_identical);
        std::fs::remove_dir_all(&root).expect("cleanup");
    }
}
