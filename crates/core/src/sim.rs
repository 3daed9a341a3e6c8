//! The simulation-job layer: a content-addressed trace store, a
//! deterministic batch executor, and the shared context every experiment
//! driver, bench and the CLI run through.
//!
//! The paper's evaluation is *generate once, replay many*: each
//! {kernel × variant} pair is traced a single time, then replayed across
//! {machine configs × realignment latencies}. This module makes that
//! structure explicit:
//!
//! * [`TraceStore`] — two-tier content-addressed cache keyed by
//!   [`TraceKey`]`(kernel, variant, execs, seed)` holding
//!   [`PreparedTrace`]s, shared across every config and thread that
//!   replays the key. Every entry is *image-only*, however it was filled:
//!   it keeps the packed [`ReplayImage`] the replay loop walks, and
//!   re-derives the record-form `Trace` from its key only when someone
//!   asks for records. A build compiles each kernel execution's records
//!   into the image as the VM emits them, so no record-form trace is
//!   ever staged — unless the lookup came through
//!   [`TraceStore::prepared_for_records`], whose caller is about to read
//!   the records anyway and gets the trace kept beside the image.
//!   Distinct keys materialize in parallel; each key is materialized
//!   exactly once no matter how many jobs or threads request it. With
//!   [`TraceStore::with_disk`] a persistent tier sits behind it: a
//!   memory miss first tries the
//!   content-addressed image file (`{content_hash:016x}.vimg` under the
//!   store directory, see `valign-store`), and only a disk miss traces
//!   and compiles the image — then writes it back, so the next process
//!   starts warm. Every disk load climbs `valign-store`'s full integrity
//!   ladder; a file that fails any rung is quarantined and rebuilt from
//!   source, the rebuild recorded in the entry's [`ImageProvenance`] so
//!   supervised replays degrade that key's jobs instead of silently
//!   trusting a once-corrupt file. From its second warm replay on, an
//!   entry also keeps the [`WarmState`] its functional warm-up leaves,
//!   so every later warm job restores it instead of walking the image.
//! * [`SimJob`] / [`BatchRunner`] — a replay expressed as
//!   `(trace source, PipelineConfig)` and executed on a scoped-thread
//!   worker pool (std only). Jobs are dispatched largest-estimated-trace
//!   first so a big trace never lands last on an otherwise idle pool, but
//!   results still come back in submission order, so batch output is
//!   bit-identical at any thread count.
//! * [`SimContext`] — bundles a store and a runner, and records per-batch
//!   wall time (and, for supervised batches, the outcome tally) for the
//!   summary scorecard.
//!
//! Determinism argument: every job is an independent pure function of its
//! `(trace, config)` inputs — a fresh [`Simulator`] per job, no state
//! shared between jobs except the immutable images and the warm states
//! kept beside them, each of which restores exactly the machine a
//! warm-up on its image leaves — so the result vector depends only on
//! the submitted job list, never on scheduling.
//!
//! Failure isolation: workers run every job under `catch_unwind`, so one
//! panicking job surfaces as a [`JobPanic`] in its own slot while its
//! siblings' results survive ([`BatchRunner::try_run`]). The panicking
//! variant [`BatchRunner::run`] still aborts — but only after the whole
//! batch has drained, never by poisoning the scoped-thread join. The
//! [`crate::supervise`] layer builds retries, quarantine and degradation
//! on top of this.

use crate::faults::{FaultClass, FaultPlan, FaultSet};
use crate::supervise::{verify_image, OutcomeTally};
use crate::workload::{image_kernel, trace_kernel, KernelId};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;
use std::time::Instant;
use valign_cache::HierarchyConfig;
use valign_isa::Trace;
use valign_kernels::util::Variant;
use valign_pipeline::{
    PipelineConfig, ReplayImage, SimError, SimResult, Simulator, VerifiedImage, WarmState, WordHash,
};
use valign_store::{StoreDir, StoreError, StoredImage, WriteFault};

/// Domain-separation seed of [`TraceKey::content_hash`].
const KEY_HASH_SEED: u64 = 0x7661_6c69_676e_0003;

/// Content address of a workload trace: everything `trace_kernel` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// Which kernel to trace.
    pub kernel: KernelId,
    /// Which implementation variant.
    pub variant: Variant,
    /// How many kernel executions the trace covers.
    pub execs: usize,
    /// Workload RNG seed.
    pub seed: u64,
}

impl TraceKey {
    /// Stable 64-bit content address of this key, naming its image file
    /// in the persistent store tier. Hashes the kernel and variant
    /// *labels* (not enum discriminants), so the address survives enum
    /// reordering and two builds agree on file names.
    pub fn content_hash(&self) -> u64 {
        let mut h = WordHash::new(KEY_HASH_SEED);
        h.write_bytes(self.kernel.label().as_bytes());
        h.write_bytes(self.variant.label().as_bytes());
        h.write_u64(self.execs as u64);
        h.write_u64(self.seed);
        h.finish()
    }
}

/// How a store entry's replay image came to be — the disk tier's
/// provenance record, consulted by the supervisor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageProvenance {
    /// Traced and compiled in this process (memory-only store, or a clean
    /// disk miss).
    Built,
    /// Loaded from the persistent tier and fully verified.
    DiskLoaded,
    /// A disk file existed but failed the integrity ladder; it was
    /// evicted and the image rebuilt from source. Supervised replays of
    /// this key degrade to the reference walker — a store that served
    /// corrupt bytes once is not trusted with the hot path until the
    /// operator re-verifies it.
    DiskRebuilt {
        /// The rung the stored file failed.
        error: StoreError,
    },
}

/// A replay image together with lazy access to its canonical trace,
/// ready to be replayed on any machine configuration.
///
/// The [`ReplayImage`] is the form the engine's hot loop iterates, and the
/// only form a store entry keeps by default: the record-form [`Trace`]
/// costs about three times the image's bytes and no replay reads it. The
/// trace stays authoritative for everything that wants records
/// (`valign-analyze`, the supervisor's degradation path) and is
/// re-derived from the entry's key on first demand — tracing is
/// deterministic, so the re-derived records are the ones the image was
/// compiled from. Everything is `Arc`-shared: cloning a `PreparedTrace`
/// is refcount bumps, and all clones of one entry share its lazily filled
/// records, checksum, integrity verdict and warm state.
#[derive(Debug, Clone)]
pub struct PreparedTrace {
    /// The key records are re-derived from; `None` only for a
    /// store-bypassing shared trace, whose records cell starts filled.
    key: Option<TraceKey>,
    cells: Arc<EntryCells>,
    /// The packed structure-of-arrays replay form of the trace.
    pub image: Arc<ReplayImage>,
    /// Where the image came from (built, disk, rebuilt-after-eviction).
    pub provenance: ImageProvenance,
}

/// The lazily filled state of one store entry, shared by every clone of
/// its [`PreparedTrace`]. Each cell is filled at most once.
#[derive(Debug, Default)]
struct EntryCells {
    /// The canonical record-form trace.
    records: OnceLock<Arc<Trace>>,
    /// [`ReplayImage::checksum`] of the image. A built entry takes it on
    /// first demand (write-back, a fault copy, the first verification);
    /// the memory-only sweep never asks. A decoded entry starts with the
    /// checksum its file carried, which the decode verified.
    checksum: OnceLock<u64>,
    /// The verdict of the integrity ladder's rungs 1 and 2 (checksum,
    /// then static validation) on the image. A built entry is verified on
    /// its first supervised replay; a decoded entry starts verified,
    /// because the store's decode ran both rungs.
    verdict: OnceLock<Result<VerifiedImage, SimError>>,
    /// Set by the entry's first warm replay, which warms on the image.
    warmed_once: AtomicBool,
    /// The functional warm-up's state on the image, kept by the entry's
    /// second warm replay so that every later one restores it instead of
    /// walking the image. A key replayed once never pays for it.
    warm: OnceLock<WarmState>,
}

impl PreparedTrace {
    /// Compiles `trace` into its replay image. The entry keeps `trace` as
    /// its records: it has no key to re-derive them from.
    pub fn new(trace: Arc<Trace>) -> Self {
        PreparedTrace {
            key: None,
            image: ReplayImage::build(&trace).into_shared(),
            cells: Arc::new(EntryCells {
                records: OnceLock::from(trace),
                ..EntryCells::default()
            }),
            provenance: ImageProvenance::Built,
        }
    }

    /// Wraps a freshly compiled image of `key`; the canonical trace is
    /// re-traced from `key` only if someone asks for records.
    fn image_only(key: TraceKey, image: Arc<ReplayImage>, provenance: ImageProvenance) -> Self {
        PreparedTrace {
            key: Some(key),
            cells: Arc::default(),
            image,
            provenance,
        }
    }

    /// Wraps an image of `key` that the store's decode verified, together
    /// with its verified checksum.
    fn decoded(key: TraceKey, stored: StoredImage<VerifiedImage>) -> Self {
        PreparedTrace {
            key: Some(key),
            image: Arc::clone(stored.image.shared()),
            cells: Arc::new(EntryCells {
                checksum: OnceLock::from(stored.checksum),
                verdict: OnceLock::from(Ok(stored.image)),
                ..EntryCells::default()
            }),
            provenance: ImageProvenance::DiskLoaded,
        }
    }

    /// The canonical record-form trace, re-deriving it from the key on
    /// first call. All clones of one entry share the derived `Arc`.
    pub fn trace(&self) -> Arc<Trace> {
        Arc::clone(self.cells.records.get_or_init(|| {
            let key = self
                .key
                .expect("keyless entries are created with their records");
            trace_kernel(key.kernel, key.variant, key.execs, key.seed).into_shared()
        }))
    }

    /// Whether the canonical trace is materialized: true for shared
    /// traces, for entries filled through
    /// [`TraceStore::prepared_for_records`], and for any entry after
    /// someone called [`PreparedTrace::trace`].
    pub fn trace_materialized(&self) -> bool {
        self.cells.records.get().is_some()
    }

    /// The image's content checksum ([`ReplayImage::checksum`]), computed
    /// on first call and shared by all clones of the entry.
    pub(crate) fn checksum(&self) -> u64 {
        *self.cells.checksum.get_or_init(|| self.image.checksum())
    }

    /// The image as proven by rungs 1 and 2 of the integrity ladder
    /// ([`crate::supervise::verify_image`]), or the rung it failed. The
    /// rungs run at most once per entry; every later call returns the
    /// kept verdict.
    pub(crate) fn verified(&self) -> Result<VerifiedImage, SimError> {
        self.cells
            .verdict
            .get_or_init(|| verify_image(Arc::clone(&self.image), self.checksum()))
            .clone()
    }

    /// The kept warm state for a warm replay of this entry's own image
    /// on `memory`, taking it on the entry's second warm replay. `None`
    /// tells the caller to warm on the image: the first warm replay, a
    /// keyless (shared) trace, a `DiskRebuilt` entry, and a state kept
    /// on another hierarchy all do. Replays of a sabotaged copy must not
    /// ask. The supervisor asks only once the image is verified.
    pub(crate) fn kept_warm_state(&self, memory: &HierarchyConfig) -> Option<&WarmState> {
        if self.key.is_none() || matches!(self.provenance, ImageProvenance::DiskRebuilt { .. }) {
            return None;
        }
        let cells = &self.cells;
        let state = match cells.warm.get() {
            Some(state) => state,
            // Relaxed: the flag publishes nothing; the state is published
            // through its `OnceLock`.
            None if !cells.warmed_once.swap(true, Ordering::Relaxed) => return None,
            None => cells
                .warm
                .get_or_init(|| WarmState::take(*memory, &self.image)),
        };
        (state.memory() == memory).then_some(state)
    }
}

/// Counters describing how a [`TraceStore`] was used, tier by tier.
///
/// `hits`/`misses` are the **memory** tier (the historical counters —
/// their names are stable because reports serialize them): a miss is the
/// first materialization of a key in this process, however it was
/// satisfied. The `disk_*` counters then split those memory misses by
/// how the persistent tier answered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStoreStats {
    /// Memory-tier hits: lookups served from an already-materialized
    /// entry.
    pub hits: u64,
    /// Memory-tier misses: first request for the key in this process.
    pub misses: u64,
    /// Distinct keys resident in the memory tier.
    pub entries: usize,
    /// Total dynamic instructions across all cached images.
    pub instructions: u64,
    /// Approximate heap bytes the memory tier holds: every resident
    /// image, every materialized record-form trace and every kept warm
    /// state.
    pub resident_bytes: u64,
    /// Resident entries whose record-form trace is materialized. Zero
    /// after a replay-only workload: entries are image-only until
    /// someone asks for records.
    pub materialized_traces: usize,
    /// Resident entries keeping a warm state: keys replayed warm at
    /// least twice.
    pub warm_states: usize,
    /// Whether a persistent tier is attached.
    pub disk_enabled: bool,
    /// Disk-tier hits: memory misses satisfied by a verified image file.
    pub disk_hits: u64,
    /// Disk-tier misses: no file for the key; the image was built from
    /// source (and written back).
    pub disk_misses: u64,
    /// Disk-tier integrity failures: a file existed but failed the
    /// integrity ladder and was quarantined and rebuilt from source.
    pub disk_invalid: u64,
    /// Corrupt files preserved in the store's `quarantine/` subdirectory
    /// (a subset of `disk_invalid`; the rest could only be evicted).
    pub disk_quarantined: u64,
    /// Failed write-backs (full/read-only disk, injected faults). Each
    /// one degrades that key to the memory tier for this process — a
    /// WARN, never a batch abort.
    pub disk_write_failures: u64,
}

impl TraceStoreStats {
    /// True when every resident entry was materialized exactly once — the
    /// invariant the full evaluation asserts: memory misses happen only
    /// on first contact, one per distinct key, whether the miss was
    /// filled by tracing or by a disk load.
    pub fn traced_exactly_once(&self) -> bool {
        self.misses == self.entries as u64
    }
}

/// Two-tier content-addressed store of immutable, `Arc`-shared prepared
/// traces: image-only entries whose canonical trace is re-derived on
/// demand.
///
/// Thread-safe: the map lock is held only to find or create a key's cell,
/// never while tracing, imaging or touching disk, so distinct keys
/// materialize concurrently while a second requester of the same key
/// blocks on that key's `OnceLock` and then shares the existing `Arc`s.
#[derive(Debug, Default)]
pub struct TraceStore {
    entries: Mutex<HashMap<TraceKey, Arc<OnceLock<PreparedTrace>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    // Running total of dynamic instructions across resident images,
    // bumped once per materialized key so `stats()` never scans the map
    // under its lock.
    instructions: AtomicU64,
    // The persistent tier, if attached.
    disk: Option<StoreDir>,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    disk_invalid: AtomicU64,
    disk_quarantined: AtomicU64,
    disk_write_failures: AtomicU64,
    // Write-back fault injection (`io-error` / `short-write` specs); all
    // other classes are ignored here.
    chaos: FaultSet,
}

impl TraceStore {
    /// An empty memory-only store (no persistent tier).
    pub fn new() -> Self {
        Self::default()
    }

    /// A store backed by the persistent image cache at `root`, created if
    /// absent. Memory misses load from disk when a verified file exists;
    /// built images are written back so the next process starts warm.
    pub fn with_disk(root: impl AsRef<Path>) -> Result<Self, StoreError> {
        Ok(TraceStore {
            disk: Some(StoreDir::create(root)?),
            ..Self::default()
        })
    }

    /// The persistent tier's directory, if one is attached.
    pub fn disk(&self) -> Option<&StoreDir> {
        self.disk.as_ref()
    }

    /// Attaches disk-fault injection: `io-error` and `short-write` specs
    /// in `chaos` make matching keys' write-backs fail deterministically
    /// (the chaos harness's disk-fault scenarios). Non-I/O classes are
    /// ignored by this layer.
    pub fn with_chaos(mut self, chaos: FaultSet) -> Self {
        self.chaos = chaos;
        self
    }

    /// The trace for `key`, generating it on first request. Repeated calls
    /// return clones of the same `Arc`. Note this materializes the
    /// *canonical trace*, which then stays resident beside the image —
    /// replay-only callers want [`TraceStore::prepared`].
    pub fn get(&self, key: TraceKey) -> Arc<Trace> {
        self.prepared_for_records(key).trace()
    }

    /// The prepared (replay image + lazy trace) form of `key`,
    /// materializing it on first request: from the persistent tier when a
    /// verified image file exists, else by tracing and compiling from
    /// source. Repeated calls share the same `Arc`s, so every machine
    /// configuration and worker thread replays one image per key. A build
    /// compiles records as they are traced and keeps none; the entry
    /// re-derives records only if someone asks.
    pub fn prepared(&self, key: TraceKey) -> PreparedTrace {
        self.lookup(key, false)
    }

    /// [`TraceStore::prepared`] for a caller about to read the records: a
    /// first-contact build keeps the trace it just produced, so the
    /// caller's [`PreparedTrace::trace`] never traces the key a second
    /// time. Disk loads and already resident entries are returned as
    /// they are; their records are re-derived on the first `trace()`.
    pub fn prepared_for_records(&self, key: TraceKey) -> PreparedTrace {
        self.lookup(key, true)
    }

    /// [`TraceStore::prepared`] for every key in `keys`, materialized on
    /// `threads` workers; `result[i]` is `keys[i]`'s entry. Each key is
    /// looked up once, so the store counts exactly what a serial loop
    /// would, and a key two workers race for is still materialized once.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from materializing a key, after the other keys
    /// have finished.
    pub fn prepared_all(&self, keys: &[TraceKey], threads: usize) -> Vec<PreparedTrace> {
        BatchRunner::new(threads)
            .scatter(keys.len(), (0..keys.len()).collect(), |i| {
                self.prepared(keys[i])
            })
            .into_iter()
            .zip(keys)
            .map(|(entry, key)| {
                entry.unwrap_or_else(|p| panic!("materializing {key:?} panicked: {}", p.message))
            })
            .collect()
    }

    fn lookup(&self, key: TraceKey, keep_trace: bool) -> PreparedTrace {
        let cell = {
            let mut map = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
            map.entry(key).or_default().clone()
        };
        let mut materialized = false;
        let prepared = cell
            .get_or_init(|| {
                materialized = true;
                let prepared = self.materialize(key, keep_trace);
                self.instructions
                    .fetch_add(prepared.image.len() as u64, Ordering::Relaxed);
                prepared
            })
            .clone();
        if materialized {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        prepared
    }

    /// Fills a memory miss: disk load when possible, else build from
    /// source (writing the fresh image back). Every rung failure on a
    /// stored file quarantines the corrupt bytes and rebuilds — recorded
    /// in the provenance so supervised replays of the key degrade rather
    /// than trust a store that served corrupt bytes. A failed write-back
    /// degrades the key to the memory tier and bumps a WARN counter; it
    /// never fails the batch.
    fn materialize(&self, key: TraceKey, keep_trace: bool) -> PreparedTrace {
        let Some(dir) = &self.disk else {
            return build(key, ImageProvenance::Built, keep_trace);
        };
        let hash = key.content_hash();
        match dir.load(hash) {
            Ok(stored) => {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                PreparedTrace::decoded(key, stored)
            }
            Err(StoreError::Missing) => {
                self.disk_misses.fetch_add(1, Ordering::Relaxed);
                let prepared = build(key, ImageProvenance::Built, keep_trace);
                self.write_back(dir, key, hash, &prepared);
                prepared
            }
            Err(error) => {
                self.disk_invalid.fetch_add(1, Ordering::Relaxed);
                // Preserve the corrupt bytes for post-mortem; fall back
                // to plain eviction only if the move itself fails.
                if dir.quarantine(hash).is_ok() {
                    self.disk_quarantined.fetch_add(1, Ordering::Relaxed);
                } else {
                    dir.evict(hash);
                }
                let prepared = build(key, ImageProvenance::DiskRebuilt { error }, keep_trace);
                self.write_back(dir, key, hash, &prepared);
                prepared
            }
        }
    }

    /// Writes a freshly built image back to the disk tier, routing any
    /// injected write fault for the key through the store's fallible
    /// writer. The job keeps its in-memory image either way.
    fn write_back(&self, dir: &StoreDir, key: TraceKey, hash: u64, prepared: &PreparedTrace) {
        let label = format!("{}.{}", key.kernel.label(), key.variant.label());
        let fault = self
            .chaos
            .plan_for(&label, key.seed)
            .and_then(|plan| match plan.class {
                FaultClass::IoError => Some(WriteFault::Error),
                FaultClass::ShortWrite => Some(WriteFault::Short),
                _ => None,
            });
        if dir
            .save_with_fault(hash, &prepared.image, prepared.checksum(), fault)
            .is_err()
        {
            self.disk_write_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Dynamic instruction count of `key`'s trace if it is resident, i.e.
    /// already materialized. Used by the batch runner to order dispatch by
    /// estimated size without forcing materialization.
    pub fn resident_len(&self, key: TraceKey) -> Option<usize> {
        let map = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        map.get(&key)
            .and_then(|cell| cell.get())
            .map(|p| p.image.len())
    }

    /// Usage counters (per-tier hits and misses, residency).
    pub fn stats(&self) -> TraceStoreStats {
        let (entries, resident_bytes, materialized_traces, warm_states) = {
            let map = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
            let mut bytes = 0;
            let mut traces = 0;
            let mut warm = 0;
            for prepared in map.values().filter_map(|cell| cell.get()) {
                bytes += prepared.image.approx_bytes();
                if let Some(trace) = prepared.cells.records.get() {
                    bytes += trace.approx_bytes();
                    traces += 1;
                }
                if let Some(state) = prepared.cells.warm.get() {
                    bytes += state.approx_bytes();
                    warm += 1;
                }
            }
            (map.len(), bytes as u64, traces, warm)
        };
        TraceStoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            instructions: self.instructions.load(Ordering::Relaxed),
            resident_bytes,
            materialized_traces,
            warm_states,
            disk_enabled: self.disk.is_some(),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.disk_misses.load(Ordering::Relaxed),
            disk_invalid: self.disk_invalid.load(Ordering::Relaxed),
            disk_quarantined: self.disk_quarantined.load(Ordering::Relaxed),
            disk_write_failures: self.disk_write_failures.load(Ordering::Relaxed),
        }
    }
}

/// Traces `key` and compiles its image-only entry. Unless `keep_trace`
/// (the caller is about to read records), the image is compiled as the
/// VM emits each execution's records ([`image_kernel`]), so the
/// record-form trace — about four times the image's size, and read by no
/// replay — is never staged.
fn build(key: TraceKey, provenance: ImageProvenance, keep_trace: bool) -> PreparedTrace {
    if !keep_trace {
        let image = image_kernel(key.kernel, key.variant, key.execs, key.seed);
        return PreparedTrace::image_only(key, image.into_shared(), provenance);
    }
    let trace = trace_kernel(key.kernel, key.variant, key.execs, key.seed);
    let image = ReplayImage::build(&trace).into_shared();
    let prepared = PreparedTrace::image_only(key, image, provenance);
    let _ = prepared.cells.records.set(trace.into_shared());
    prepared
}

/// Where a job's trace comes from.
#[derive(Debug, Clone)]
pub enum TraceSource {
    /// Fetched from (or generated into) the shared [`TraceStore`].
    Key(TraceKey),
    /// An already-shared trace (custom programs: CABAC models, ablation
    /// micro-traces) that bypasses the store.
    Shared(Arc<Trace>),
}

/// One replay: a trace plus the machine to replay it on. The realignment
/// configuration rides inside [`PipelineConfig::realign`].
#[derive(Debug, Clone)]
pub struct SimJob {
    /// The trace to replay.
    pub source: TraceSource,
    /// The machine configuration (including realignment latencies).
    pub cfg: PipelineConfig,
    /// Warm the caches and predictor on the same stream before the
    /// measured replay (steady state).
    pub warm: bool,
    /// Deterministic fault to inject into this job, if any. Plans are
    /// normally resolved per job by the supervisor from a
    /// [`crate::faults::FaultSet`]; attaching one directly is the test
    /// hook for exercising unsupervised failure behaviour.
    pub fault: Option<FaultPlan>,
}

impl SimJob {
    /// A steady-state replay of a store-resident trace.
    pub fn keyed(key: TraceKey, cfg: PipelineConfig) -> Self {
        SimJob {
            source: TraceSource::Key(key),
            cfg,
            warm: true,
            fault: None,
        }
    }

    /// A steady-state replay of an already-shared trace.
    pub fn shared(trace: Arc<Trace>, cfg: PipelineConfig) -> Self {
        SimJob {
            source: TraceSource::Shared(trace),
            cfg,
            warm: true,
            fault: None,
        }
    }

    /// Same job, but replayed cold (no warm-up pass).
    pub fn cold(mut self) -> Self {
        self.warm = false;
        self
    }

    /// Same job, with `plan` injected into every attempt.
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Fault-selector label of this job: `kernel.variant` for store keys
    /// (e.g. `luma8x8.unaligned`), `shared` for store-bypassing traces.
    pub fn label(&self) -> String {
        match &self.source {
            TraceSource::Key(key) => format!("{}.{}", key.kernel.label(), key.variant.label()),
            TraceSource::Shared(_) => "shared".to_string(),
        }
    }

    /// Workload seed the fault-site hash is keyed by (0 for shared
    /// traces, which carry no key).
    pub fn seed(&self) -> u64 {
        match &self.source {
            TraceSource::Key(key) => key.seed,
            TraceSource::Shared(_) => 0,
        }
    }

    /// The prepared (image + checksum + trace) form of this job's source.
    /// Keys share the store's one prepared form per trace; shared traces
    /// compile (and checksum) per call — they are the rare custom-program
    /// path, not the generate-once/replay-many batch path.
    pub(crate) fn prepared(&self, store: &TraceStore) -> PreparedTrace {
        match &self.source {
            TraceSource::Key(key) => store.prepared(*key),
            TraceSource::Shared(trace) => PreparedTrace::new(Arc::clone(trace)),
        }
    }

    fn execute(&self, store: &TraceStore) -> SimResult {
        let prepared = self.prepared(store);
        let mut image = Arc::clone(&prepared.image);
        if let Some(plan) = self.fault.as_ref().filter(|p| p.active(0)) {
            match plan.class {
                // The whole point of the panic class: abort the worker
                // mid-batch and see what the executor does about it.
                FaultClass::Panic => panic!(
                    "injected fault: forced panic in job {} (site {:#018x})",
                    self.label(),
                    plan.site
                ),
                // Stalls ride on `RunGuards`, which the unsupervised hot
                // path deliberately does not carry; disk corruption lives
                // in the store file form, which this path never reads;
                // the I/O and connection classes fire in the storage and
                // service layers, never inside the simulator.
                FaultClass::Stall
                | FaultClass::DiskCorrupt
                | FaultClass::IoError
                | FaultClass::ShortWrite
                | FaultClass::TornFrame
                | FaultClass::Disconnect => {}
                class => {
                    let kind = class
                        .sabotage()
                        .expect("image fault classes map to a sabotage");
                    let mut copy = (*image).clone();
                    copy.sabotage(kind, plan.site);
                    image = Arc::new(copy);
                }
            }
        }
        // A sabotaged copy is a new image: it warms on itself.
        let own_image = Arc::ptr_eq(&image, &prepared.image);
        if self.warm && own_image {
            if let Some(state) = prepared.kept_warm_state(&self.cfg.memory) {
                return Simulator::simulate_restored(self.cfg.clone(), state, &image);
            }
        }
        let warmup = self.warm.then_some(&*image);
        Simulator::simulate_image(self.cfg.clone(), warmup, &image)
    }

    /// Estimated dynamic-instruction size of this job's trace, used only
    /// to order dispatch (largest first). Exact for shared and resident
    /// traces; for not-yet-generated keys the kernel execution count is a
    /// monotone proxy.
    pub(crate) fn size_estimate(&self, store: &TraceStore) -> u64 {
        match &self.source {
            TraceSource::Key(key) => store
                .resident_len(*key)
                .map_or(key.execs as u64, |len| len as u64),
            TraceSource::Shared(trace) => trace.len() as u64,
        }
    }
}

/// A job attempt that panicked, as captured by the batch executor's
/// per-job `catch_unwind`: the panic payload rendered to a message, with
/// the process (and the sibling jobs) intact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic payload, stringified (`&str`/`String` payloads verbatim).
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Largest-estimated-trace-first dispatch order over `jobs`. Stable on
/// the (deterministic) size estimates, so equal estimates stay in
/// submission order and the dispatch order itself is deterministic.
pub(crate) fn dispatch_order(store: &TraceStore, jobs: &[SimJob]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    let estimates: Vec<u64> = jobs.iter().map(|j| j.size_estimate(store)).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(estimates[i]));
    order
}

/// Executes job batches on a scoped worker pool, returning results in
/// submission order regardless of thread count or scheduling.
#[derive(Debug, Clone)]
pub struct BatchRunner {
    threads: usize,
}

impl BatchRunner {
    /// A runner with `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> Self {
        BatchRunner {
            threads: threads.max(1),
        }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every job; `results[i]` corresponds to `jobs[i]`.
    ///
    /// On the parallel path jobs are *dispatched* largest-estimated-trace
    /// first so a big trace never starts last on an otherwise draining
    /// pool, but each result lands in its submission-order slot, so the
    /// result vector is independent of dispatch order and thread count
    /// (every job is a pure function of its inputs).
    ///
    /// # Panics
    ///
    /// Re-raises the first (by submission index) job panic — but only
    /// after the whole batch has drained: a panicking job is isolated by
    /// [`BatchRunner::try_run`], never allowed to poison the scoped-thread
    /// join and take its siblings' finished results with it. Callers that
    /// must survive job panics use [`BatchRunner::try_run`] or the
    /// [`crate::supervise::SupervisedRunner`].
    pub fn run(&self, store: &TraceStore, jobs: &[SimJob]) -> Vec<SimResult> {
        self.try_run(store, jobs)
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.unwrap_or_else(|p| {
                    panic!(
                        "batch job {i} panicked (siblings completed first): {}",
                        p.message
                    )
                })
            })
            .collect()
    }

    /// Panic-isolating counterpart of [`BatchRunner::run`]: every job runs
    /// under `catch_unwind`, so `results[i]` is either `jobs[i]`'s result
    /// or the [`JobPanic`] that job died with — one poisoned job cannot
    /// cost the batch its other results.
    pub fn try_run(&self, store: &TraceStore, jobs: &[SimJob]) -> Vec<Result<SimResult, JobPanic>> {
        let order = dispatch_order(store, jobs);
        self.scatter(jobs.len(), order, |i| jobs[i].execute(store))
    }

    /// The one dispatch loop behind every batch shape: runs `f(0..n)` on
    /// the worker pool in the given dispatch `order`, catching each call's
    /// unwind, and scatters results into submission-order slots.
    ///
    /// `f` must be a pure function of its index for the batch-determinism
    /// guarantee to hold; the serial fast path also runs under
    /// `catch_unwind` so outcomes are identical at any thread count.
    pub(crate) fn scatter<R, F>(
        &self,
        n: usize,
        order: Vec<usize>,
        f: F,
    ) -> Vec<Result<R, JobPanic>>
    where
        R: Send + Sync,
        F: Fn(usize) -> R + Sync,
    {
        let run_one = |i: usize| {
            catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|payload| JobPanic {
                message: panic_message(payload),
            })
        };
        if self.threads == 1 || n <= 1 {
            return (0..n).map(run_one).collect();
        }
        let slots: Vec<OnceLock<Result<R, JobPanic>>> = (0..n).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(n) {
                scope.spawn(|| loop {
                    let rank = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = order.get(rank) else { break };
                    // A duplicate index in `order` means the job ran
                    // twice; `f` is pure, so first-fill-wins is still
                    // deterministic. Never panic here — an unwinding
                    // worker would poison the scoped join and take every
                    // sibling's finished result down with it.
                    let _ = slots[i].set(run_one(i));
                });
            }
        });
        // A slot can only stay empty if `order` skipped its index — a
        // malformed dispatch order, not a worker crash (`run_one` catches
        // every unwind). Surface it as that job's failure rather than
        // panicking away the siblings' results.
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner().unwrap_or_else(|| {
                    Err(JobPanic {
                        message: "job was never dispatched (index missing from dispatch order)"
                            .to_string(),
                    })
                })
            })
            .collect()
    }
}

/// Wall time of one executed batch, for the scorecard.
#[derive(Debug, Clone)]
pub struct BatchRecord {
    /// Which driver submitted the batch.
    pub label: String,
    /// Number of jobs in the batch.
    pub jobs: usize,
    /// Wall time of the whole batch.
    pub wall: Duration,
    /// Per-outcome tally for supervised batches; `None` for plain ones.
    pub tally: Option<OutcomeTally>,
}

/// Shared driver context: one trace store plus one batch runner, with
/// per-batch timing records.
///
/// All experiment drivers accept a `&SimContext`; running several drivers
/// against the same context is what lets the full evaluation trace each
/// kernel/variant exactly once.
#[derive(Debug)]
pub struct SimContext {
    store: TraceStore,
    runner: BatchRunner,
    batches: Mutex<Vec<BatchRecord>>,
}

impl SimContext {
    /// A fresh context executing batches on `threads` workers.
    pub fn new(threads: usize) -> Self {
        Self::with_store(threads, TraceStore::new())
    }

    /// A context around an existing store — the way the CLI attaches a
    /// persistent tier (`TraceStore::with_disk`) to a run.
    pub fn with_store(threads: usize, store: TraceStore) -> Self {
        SimContext {
            store,
            runner: BatchRunner::new(threads),
            batches: Mutex::new(Vec::new()),
        }
    }

    /// Worker count of the underlying runner.
    pub fn threads(&self) -> usize {
        self.runner.threads()
    }

    /// The shared trace store.
    pub fn store(&self) -> &TraceStore {
        &self.store
    }

    /// Runs one batch, recording its wall time under `label`.
    pub fn run_batch(&self, label: &str, jobs: Vec<SimJob>) -> Vec<SimResult> {
        let started = Instant::now();
        let results = self.runner.run(&self.store, &jobs);
        let wall = started.elapsed();
        self.record_batch(label, jobs.len(), wall, None);
        results
    }

    /// Runs one batch under `supervisor` (fault injection, panic
    /// isolation, retries, quarantine, degradation — see
    /// [`crate::supervise`]), recording wall time *and* the outcome tally
    /// under `label`. `outcomes[i]` corresponds to `jobs[i]`.
    pub fn run_supervised(
        &self,
        label: &str,
        jobs: Vec<SimJob>,
        supervisor: &crate::supervise::SupervisedRunner,
    ) -> Vec<crate::supervise::JobOutcome> {
        let started = Instant::now();
        let outcomes = supervisor.run(&self.store, &jobs);
        let wall = started.elapsed();
        self.record_batch(label, jobs.len(), wall, Some(OutcomeTally::of(&outcomes)));
        outcomes
    }

    fn record_batch(&self, label: &str, jobs: usize, wall: Duration, tally: Option<OutcomeTally>) {
        self.batches
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(BatchRecord {
                label: label.to_string(),
                jobs,
                wall,
                tally,
            });
    }

    /// Executed batches so far, in submission order.
    pub fn batches(&self) -> Vec<BatchRecord> {
        self.batches
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Renders the trace-cache and batch-timing scorecard section.
    ///
    /// Wall times vary run to run; everything else is deterministic.
    pub fn scorecard(&self) -> String {
        let stats = self.store.stats();
        let mut out = String::new();
        let disk = if stats.disk_enabled {
            let mut line = format!(
                "disk {} hits / {} misses / {} invalid",
                stats.disk_hits, stats.disk_misses, stats.disk_invalid
            );
            // Incident suffixes extend — never reshape — the stable
            // counter prefix other tooling substring-matches on.
            if stats.disk_quarantined > 0 {
                line.push_str(&format!(" ({} quarantined)", stats.disk_quarantined));
            }
            if stats.disk_write_failures > 0 {
                line.push_str(&format!(
                    " [WARN: {} write failure(s), degraded to memory tier]",
                    stats.disk_write_failures
                ));
            }
            line
        } else {
            "disk tier off".to_string()
        };
        out.push_str(&format!(
            "trace store: {} traces ({} instructions, {:.1} MB resident, {} warm states), memory {} hits / {} misses, {} — {}\n",
            stats.entries,
            stats.instructions,
            stats.resident_bytes as f64 / 1e6,
            stats.warm_states,
            stats.hits,
            stats.misses,
            disk,
            if stats.traced_exactly_once() {
                "each kernel/variant materialized exactly once"
            } else {
                "RETRACE DETECTED (memory misses != resident traces)"
            },
        ));
        out.push_str(&format!("batches ({} threads):\n", self.threads()));
        let mut totals: Option<OutcomeTally> = None;
        for b in self.batches() {
            match b.tally {
                Some(tally) => {
                    out.push_str(&format!(
                        "  {:<18} {:>4} jobs  {:>9.2?}  [{}c {}r {}d {}q]\n",
                        b.label,
                        b.jobs,
                        b.wall,
                        tally.completed,
                        tally.retried,
                        tally.degraded,
                        tally.quarantined,
                    ));
                    totals = Some(totals.unwrap_or_default().merged(tally));
                }
                None => out.push_str(&format!(
                    "  {:<18} {:>4} jobs  {:>9.2?}\n",
                    b.label, b.jobs, b.wall
                )),
            }
        }
        if let Some(totals) = totals {
            // Stable phrasing: CI's fault-matrix gate greps this line.
            out.push_str(&format!("supervised totals: {totals}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use valign_h264::BlockSize;

    fn key(execs: usize) -> TraceKey {
        TraceKey {
            kernel: KernelId::Sad(BlockSize::B8x8),
            variant: Variant::Unaligned,
            execs,
            seed: 7,
        }
    }

    /// A malformed dispatch order (an index never dispatched) must cost
    /// exactly that slot — surfaced as a `JobPanic` — while every sibling
    /// keeps its finished result; nothing panics or poisons the pool.
    #[test]
    fn scatter_survives_a_skipped_dispatch_index() {
        let runner = BatchRunner::new(2);
        let results = runner.scatter(3, vec![2, 0], |i| i * 10);
        assert_eq!(results[0].as_ref().copied(), Ok(0));
        assert!(results[1]
            .as_ref()
            .is_err_and(|p| p.message.contains("never dispatched")));
        assert_eq!(results[2].as_ref().copied(), Ok(20));
    }

    /// A duplicate index in the dispatch order runs the (pure) job twice;
    /// first fill wins and no worker unwinds the scoped join.
    #[test]
    fn scatter_survives_a_duplicate_dispatch_index() {
        let runner = BatchRunner::new(2);
        let results = runner.scatter(2, vec![0, 1, 1], |i| i + 100);
        assert_eq!(results[0].as_ref().copied(), Ok(100));
        assert_eq!(results[1].as_ref().copied(), Ok(101));
    }

    #[test]
    fn repeated_keys_share_one_arc() {
        let store = TraceStore::new();
        let a = store.get(key(3));
        let b = store.get(key(3));
        assert!(Arc::ptr_eq(&a, &b));
        let stats = store.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
        assert!(stats.traced_exactly_once());
    }

    #[test]
    fn prepared_shares_trace_and_image_across_lookups() {
        let store = TraceStore::new();
        let a = store.prepared(key(3));
        let b = store.prepared(key(3));
        assert_eq!(a.provenance, ImageProvenance::Built);
        assert!(Arc::ptr_eq(&a.image, &b.image), "one image per key");
        assert!(
            !a.trace_materialized(),
            "a replay-only build keeps only the image"
        );
        assert!(
            a.cells.checksum.get().is_none() && a.cells.verdict.get().is_none(),
            "a memory-only build neither checksums nor validates its image"
        );
        assert_eq!(store.stats().materialized_traces, 0);

        // Records are re-derived on demand: the same stream a fresh
        // trace would record, compiling to the same image.
        let derived = a.trace();
        let fresh = trace_kernel(KernelId::Sad(BlockSize::B8x8), Variant::Unaligned, 3, 7);
        assert_eq!(derived.instrs(), fresh.instrs());
        assert_eq!(ReplayImage::build(&derived).checksum(), a.checksum());
        assert_eq!(
            b.cells.checksum.get(),
            Some(&a.checksum()),
            "clones share it"
        );
        let verified = b.verified().expect("a built image is well-formed");
        assert!(Arc::ptr_eq(verified.shared(), &a.image));
        assert!(a.cells.verdict.get().is_some(), "clones share the verdict");

        // Every clone of the entry shares the one derived Arc, and so do
        // later lookups and `get`.
        assert!(b.trace_materialized());
        assert!(Arc::ptr_eq(&derived, &b.trace()));
        assert!(Arc::ptr_eq(&derived, &store.prepared(key(3)).trace()));
        assert!(Arc::ptr_eq(&derived, &store.get(key(3))));
        assert_eq!(store.stats().materialized_traces, 1);

        // A records-wanting first lookup keeps the trace its build
        // produced instead of tracing again on `trace()`.
        let records = store.prepared_for_records(key(4));
        assert!(records.trace_materialized());
        assert_eq!(records.image.len(), records.trace().len());
        assert!(store.stats().traced_exactly_once());
    }

    #[test]
    fn resident_bytes_count_images_and_materialized_traces() {
        let store = TraceStore::new();
        let image_only = store.prepared(key(2));
        let with_records = store.prepared_for_records(key(4));
        let s = store.stats();
        assert_eq!(s.materialized_traces, 1);
        assert_eq!(s.warm_states, 0);
        let images = image_only.image.approx_bytes() + with_records.image.approx_bytes();
        assert_eq!(
            s.resident_bytes,
            (images + with_records.trace().approx_bytes()) as u64
        );
        // Asking the image-only entry for records grows the gauge by
        // exactly the derived trace.
        let derived = image_only.trace();
        let s = store.stats();
        assert_eq!(
            s.resident_bytes,
            (images + with_records.trace().approx_bytes() + derived.approx_bytes()) as u64
        );
        // A kept warm state grows it by exactly the state.
        let job = SimJob::keyed(key(2), PipelineConfig::four_way());
        let _ = BatchRunner::new(1).run(&store, &[job.clone(), job]);
        let state = image_only
            .cells
            .warm
            .get()
            .expect("kept on the second warm replay");
        assert_eq!(store.stats().warm_states, 1);
        assert_eq!(
            store.stats().resident_bytes,
            s.resident_bytes + state.approx_bytes() as u64
        );
    }

    /// An entry keeps its warm state on its second warm replay, through
    /// either runner, and never before: cold replays do not count. Every
    /// replay from the state equals the first one, which warmed on the
    /// image. A job on another memory hierarchy warms on the image and
    /// leaves the kept state alone.
    #[test]
    fn a_warm_state_is_kept_on_the_second_warm_replay() {
        use crate::supervise::SupervisedRunner;
        let store = TraceStore::new();
        let plain = BatchRunner::new(1);
        let job = SimJob::keyed(key(3), PipelineConfig::four_way());
        let first = plain.run(&store, std::slice::from_ref(&job));
        let _ = plain.run(&store, &[job.clone().cold(), job.clone().cold()]);
        assert_eq!(
            store.stats().warm_states,
            0,
            "one warm replay keeps nothing"
        );

        let supervised = SupervisedRunner::new(1).run(&store, std::slice::from_ref(&job));
        assert_eq!(store.stats().warm_states, 1, "the second one keeps it");
        assert_eq!(supervised[0].result(), Some(&first[0]));
        assert_eq!(plain.run(&store, std::slice::from_ref(&job)), first);
        assert_eq!(store.stats().warm_states, 1);

        let mut other = PipelineConfig::four_way();
        other.memory.l2_latency += 8;
        let image = store.prepared(key(3)).image;
        assert_eq!(
            plain.run(&store, &[SimJob::keyed(key(3), other.clone())]),
            vec![Simulator::simulate_image(
                other.clone(),
                Some(&image),
                &image
            )]
        );
        let kept = store.prepared(key(3));
        let state = kept.cells.warm.get().expect("still kept");
        assert_eq!(state.memory(), &PipelineConfig::four_way().memory);
    }

    /// Keyless (shared) traces and entries rebuilt after a corrupt store
    /// file always warm on the image.
    #[test]
    fn shared_traces_and_rebuilt_entries_keep_no_warm_state() {
        let memory = PipelineConfig::four_way().memory;
        let trace = trace_kernel(KernelId::Sad(BlockSize::B8x8), Variant::Unaligned, 2, 7);
        let shared = PreparedTrace::new(trace.into_shared());
        let rebuilt = PreparedTrace::image_only(
            key(2),
            Arc::clone(&shared.image),
            ImageProvenance::DiskRebuilt {
                error: StoreError::BadMagic,
            },
        );
        for entry in [shared, rebuilt] {
            for _ in 0..3 {
                assert!(entry.kept_warm_state(&memory).is_none());
            }
            assert!(entry.cells.warm.get().is_none());
        }
    }

    /// A scratch on-disk tier under the system temp dir, removed on drop.
    struct DiskTier(std::path::PathBuf);

    impl DiskTier {
        fn new(tag: &str) -> DiskTier {
            let root = std::env::temp_dir()
                .join(format!("valign-sim-disktest-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            DiskTier(root)
        }
    }

    impl Drop for DiskTier {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn disk_tier_round_trips_across_store_instances() {
        let tier = DiskTier::new("roundtrip");

        // Cold store: every key is a disk miss, built and written back.
        let cold = TraceStore::with_disk(&tier.0).expect("attach tier");
        let built = cold.prepared(key(3));
        let s = cold.stats();
        assert!(s.disk_enabled);
        assert_eq!((s.disk_hits, s.disk_misses, s.disk_invalid), (0, 1, 0));
        assert_eq!(built.provenance, ImageProvenance::Built);

        // Warm store (fresh process stand-in): served from disk, image
        // bit-identical, canonical trace not regenerated until asked.
        let warm = TraceStore::with_disk(&tier.0).expect("attach tier");
        let loaded = warm.prepared(key(3));
        let s = warm.stats();
        assert_eq!((s.disk_hits, s.disk_misses, s.disk_invalid), (1, 0, 0));
        assert!(s.traced_exactly_once());
        assert_eq!(loaded.provenance, ImageProvenance::DiskLoaded);
        assert!(
            !loaded.trace_materialized(),
            "warm loads must not pay for trace generation"
        );
        assert_eq!(loaded.image.checksum(), built.image.checksum());
        assert_eq!(loaded.checksum(), built.checksum());
        assert!(
            matches!(loaded.cells.verdict.get(), Some(Ok(_))),
            "a decoded entry starts verified"
        );
        assert_eq!(warm.resident_len(key(3)), Some(loaded.image.len()));

        // Asking for records materializes the same trace lazily.
        let trace = loaded.trace();
        assert!(loaded.trace_materialized());
        assert_eq!(trace.len(), built.trace().len());
    }

    #[test]
    fn corrupt_disk_file_is_evicted_and_rebuilt() {
        let tier = DiskTier::new("corrupt");
        let hash = key(3).content_hash();
        {
            let cold = TraceStore::with_disk(&tier.0).expect("attach tier");
            let _ = cold.prepared(key(3));
        }
        let path = tier.0.join(valign_store::StoreDir::file_name(hash));
        let mut bytes = std::fs::read(&path).expect("stored file exists");
        valign_store::sabotage_file_bytes(&mut bytes, 11);
        std::fs::write(&path, &bytes).expect("corrupt in place");

        let store = TraceStore::with_disk(&tier.0).expect("attach tier");
        let rebuilt = store.prepared(key(3));
        let s = store.stats();
        assert_eq!((s.disk_hits, s.disk_misses, s.disk_invalid), (0, 0, 1));
        assert_eq!(s.disk_quarantined, 1, "corrupt bytes kept for post-mortem");
        assert!(
            matches!(rebuilt.provenance, ImageProvenance::DiskRebuilt { .. }),
            "{:?}",
            rebuilt.provenance
        );
        // The corrupt bytes moved into quarantine/ unchanged.
        let kept = tier
            .0
            .join("quarantine")
            .join(valign_store::StoreDir::file_name(hash));
        assert_eq!(std::fs::read(&kept).expect("quarantined copy"), bytes);
        // The rebuild healed the file: a third store loads it cleanly.
        let healed = TraceStore::with_disk(&tier.0).expect("attach tier");
        let loaded = healed.prepared(key(3));
        assert_eq!(loaded.provenance, ImageProvenance::DiskLoaded);
        assert_eq!(loaded.image.checksum(), rebuilt.image.checksum());
    }

    #[test]
    fn injected_write_faults_degrade_to_the_memory_tier() {
        use crate::faults::FaultSet;
        for spec in ["io-error:*", "short-write:*"] {
            let tier = DiskTier::new(&spec[..2]);
            let chaos = FaultSet::parse(&[spec.to_string()]).expect("spec parses");
            let store = TraceStore::with_disk(&tier.0)
                .expect("attach tier")
                .with_chaos(chaos);
            let built = store.prepared(key(3));
            assert_eq!(built.provenance, ImageProvenance::Built);
            let s = store.stats();
            assert_eq!((s.disk_hits, s.disk_misses), (0, 1));
            assert_eq!(s.disk_write_failures, 1, "{spec}: write-back must fail");
            // Nothing visible landed on disk — no image file, no torn
            // temp file.
            let visible: Vec<_> = std::fs::read_dir(&tier.0)
                .expect("list")
                .filter_map(Result::ok)
                .filter(|e| e.path().is_file())
                .collect();
            assert!(visible.is_empty(), "{spec} leaked: {visible:?}");
            // The job itself was unaffected: the image is resident and
            // replays come off the memory tier.
            assert_eq!(store.resident_len(key(3)), Some(built.image.len()));
            // A clean store on the same directory rebuilds and persists.
            let clean = TraceStore::with_disk(&tier.0).expect("attach tier");
            let rebuilt = clean.prepared(key(3));
            assert_eq!(rebuilt.image.checksum(), built.image.checksum());
            assert_eq!(clean.stats().disk_write_failures, 0);
            let warm = TraceStore::with_disk(&tier.0).expect("attach tier");
            assert_eq!(
                warm.prepared(key(3)).provenance,
                ImageProvenance::DiskLoaded
            );
        }
    }

    #[test]
    fn content_hash_is_stable_and_key_sensitive() {
        let a = key(3).content_hash();
        assert_eq!(a, key(3).content_hash(), "pure function of the key");
        let mut other = key(3);
        other.seed = 8;
        for b in [key(4).content_hash(), other.content_hash()] {
            assert_ne!(a, b, "distinct keys must address distinct files");
        }
    }

    #[test]
    fn stats_instruction_total_matches_resident_traces() {
        let store = TraceStore::new();
        let a = store.get(key(2));
        let b = store.get(key(4));
        assert_eq!(
            store.stats().instructions,
            (a.len() + b.len()) as u64,
            "running total must equal a scan of resident traces"
        );
        assert_eq!(store.resident_len(key(2)), Some(a.len()));
        assert_eq!(store.resident_len(key(9)), None, "never generated");
    }

    #[test]
    fn distinct_keys_are_distinct_traces() {
        let store = TraceStore::new();
        let a = store.get(key(2));
        let b = store.get(key(4));
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(b.len() > a.len());
        assert_eq!(store.stats().misses, 2);
    }

    #[test]
    fn concurrent_lookups_trace_once() {
        let store = TraceStore::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| store.get(key(3)));
            }
        });
        let stats = store.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert_eq!(stats.hits, 7, "{stats:?}");
    }

    /// `prepared_all` answers in key order, shares one entry between
    /// repeated keys and counts one lookup per key, as a serial loop
    /// would.
    #[test]
    fn prepared_all_answers_in_key_order_and_looks_each_key_up_once() {
        let store = TraceStore::new();
        let keys = [key(3), key(5), key(3)];
        let entries = store.prepared_all(&keys, 3);
        assert_eq!(entries.len(), 3);
        assert!(Arc::ptr_eq(&entries[0].image, &entries[2].image));
        assert_eq!(entries[1].image.len(), store.prepared(key(5)).image.len());
        assert!(entries[1].image.len() > entries[0].image.len());
        let stats = store.stats();
        assert_eq!((stats.misses, stats.hits), (2, 2), "{stats:?}");
    }

    #[test]
    fn batch_results_come_back_in_submission_order() {
        let store = TraceStore::new();
        // Jobs with visibly different sizes so misordering would show.
        let jobs: Vec<SimJob> = (1..=6)
            .map(|e| SimJob::keyed(key(e), PipelineConfig::four_way()))
            .collect();
        let serial = BatchRunner::new(1).run(&store, &jobs);
        let parallel = BatchRunner::new(4).run(&store, &jobs);
        assert_eq!(serial, parallel);
        let instr: Vec<u64> = serial.iter().map(|r| r.instructions).collect();
        let mut sorted = instr.clone();
        sorted.sort_unstable();
        assert_eq!(instr, sorted, "bigger execs must yield bigger traces");
    }

    #[test]
    fn largest_first_dispatch_preserves_submission_order_results() {
        // Submit smallest-first so largest-first dispatch inverts the
        // execution order; results must still land by submission index,
        // identically whether estimates come from execs (cold store) or
        // resident lengths (warm store).
        let jobs: Vec<SimJob> = (1..=6)
            .map(|e| SimJob::keyed(key(e), PipelineConfig::four_way()))
            .collect();
        let cold = TraceStore::new();
        let from_cold = BatchRunner::new(3).run(&cold, &jobs);
        let warm = TraceStore::new();
        for e in 1..=6 {
            let _ = warm.get(key(e));
        }
        let from_warm = BatchRunner::new(3).run(&warm, &jobs);
        assert_eq!(from_cold, from_warm);
        let instr: Vec<u64> = from_cold.iter().map(|r| r.instructions).collect();
        let mut sorted = instr.clone();
        sorted.sort_unstable();
        assert_eq!(instr, sorted, "results must be in submission order");
    }

    #[test]
    fn try_run_isolates_a_panicking_job() {
        use crate::faults::{fault_site, FaultClass, FaultPlan};
        let store = TraceStore::new();
        let mut jobs: Vec<SimJob> = (1..=6)
            .map(|e| SimJob::keyed(key(e), PipelineConfig::four_way()))
            .collect();
        let clean = BatchRunner::new(4).run(&store, &jobs);
        jobs[2] = jobs[2].clone().with_fault(FaultPlan {
            class: FaultClass::Panic,
            site: fault_site(7, &jobs[2].label(), FaultClass::Panic),
        });
        for threads in [1, 4] {
            let results = BatchRunner::new(threads).try_run(&store, &jobs);
            for (i, result) in results.iter().enumerate() {
                if i == 2 {
                    let panic = result.as_ref().expect_err("job 2 must panic");
                    assert!(panic.message.contains("injected fault"), "{panic}");
                } else {
                    assert_eq!(
                        result.as_ref().ok(),
                        Some(&clean[i]),
                        "sibling {i} must survive the poisoned job untouched"
                    );
                }
            }
        }
    }

    #[test]
    fn run_drains_the_batch_before_reraising_a_job_panic() {
        use crate::faults::{FaultClass, FaultPlan};
        let store = TraceStore::new();
        let jobs = vec![
            SimJob::keyed(key(2), PipelineConfig::four_way()),
            SimJob::keyed(key(3), PipelineConfig::four_way()).with_fault(FaultPlan {
                class: FaultClass::Panic,
                site: 0,
            }),
        ];
        let err =
            std::panic::catch_unwind(AssertUnwindSafe(|| BatchRunner::new(2).run(&store, &jobs)))
                .expect_err("run re-raises the job panic");
        let message = err
            .downcast_ref::<String>()
            .expect("re-raised panic carries a message");
        assert!(
            message.contains("batch job 1 panicked (siblings completed first)"),
            "{message}"
        );
    }

    #[test]
    fn context_records_batches() {
        let ctx = SimContext::new(2);
        let jobs = vec![SimJob::keyed(key(2), PipelineConfig::two_way())];
        let _ = ctx.run_batch("unit", jobs);
        let batches = ctx.batches();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].label, "unit");
        assert_eq!(batches[0].jobs, 1);
        let scorecard = ctx.scorecard();
        assert!(
            scorecard.contains("materialized exactly once"),
            "{scorecard}"
        );
        assert!(scorecard.contains("disk tier off"), "{scorecard}");
    }
}
