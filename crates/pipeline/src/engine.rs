//! The trace-driven cycle-accurate scheduling engine.
//!
//! The engine replays a dynamic instruction stream through a
//! Turandot-style superscalar model in a single forward pass, staged into
//! three modules:
//!
//! * `frontend` — `fetch_width` per cycle, fetch-group break after taken
//!   branches, redirect after mispredictions, bounded by the in-flight
//!   window and free physical registers;
//! * `backend` — operand readiness (register scoreboard), issue-queue
//!   capacity (separate branch queue), execution-unit instance
//!   availability, program order when the configuration is in-order, and
//!   in-order retirement `retire_width` per cycle;
//! * `lsu` — D-cache port availability, the [`Hierarchy`] latency plus
//!   the realignment-network penalty for unaligned vector accesses,
//!   store-to-load dependences through a store queue, and a bounded miss
//!   queue (`miss_max`).
//!
//! This file only orchestrates the per-instruction walk across the three
//! stages; the cycle math lives with the stage that owns the resource.
//! There is one walk, over two record sources: the packed [`ReplayImage`]
//! (the hot path, [`Simulator::simulate_image`]) and the record-form
//! [`Trace`] it was compiled from (the reference path,
//! [`Simulator::simulate_reference`] — the oracle for
//! [`ReplayImage::build`] and the target a distrusted image degrades to).
//! The sources differ only in how a record is decoded and in how a load
//! finds the stores it depends on.
//!
//! This is the same modelling level as the paper's trace-driven
//! methodology: timing is derived entirely from the dynamic stream, while
//! functional values were already resolved by the emulator.
//!
//! Each entry point replays on a fresh machine (cold caches and
//! predictor), optionally warmed first, and only reads the image or
//! trace — so one shared image can be replayed concurrently by many jobs,
//! the property the batch executor in `valign-core` relies on. The
//! warm-up buys microarchitectural state and nothing else — the
//! [`Machine`]: I-cache, D-L1/L2 hierarchy and branch predictor. The
//! image paths warm *functionally* ([`Machine::warmed`]), touching that
//! state in program order with no timing at all, while the reference path
//! keeps the timed warm-up walk and so remains the oracle for the
//! functional one. The machine a warm-up leaves depends only on the image
//! and the memory hierarchy, so a caller that replays one image many
//! times can keep it as a [`WarmState`] — only the valid cache lines —
//! and start each later replay from a restored copy
//! ([`Simulator::simulate_restored`], [`Simulator::try_simulate_verified`])
//! instead of walking the image again.

use crate::attribution::{Bucket, Timeline};
use crate::backend::{Backend, Ready};
use crate::config::PipelineConfig;
use crate::frontend::Frontend;
use crate::image::{
    dst_file_of, flags, mem_kind_of, src_defs_of, DstFile, ReplayImage, VerifiedImage,
};
use crate::latency::LatencyTable;
use crate::lsu::{Lsu, MemAccess, MemExec};
use crate::predictor::BranchPredictor;
use crate::result::{SimError, SimResult};
use valign_cache::{
    BankScheme, CacheConfig, Hierarchy, HierarchyConfig, SetAssocCache, ValidLines,
};
use valign_isa::{DynInstr, MemKind, Opcode, StaticId, Trace};

/// Integrity guards applied by the checked replay paths
/// ([`Simulator::try_simulate_image`], [`Simulator::try_simulate_verified`])
/// to the measured walk; the
/// functional warm-up computes no cycles, so there is nothing to guard.
/// Both guards are expressed in simulated cycles / record indices — never
/// wall-clock — so a guarded replay is as deterministic as an unguarded
/// one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunGuards {
    /// Watchdog deadline: abort with [`SimError::BudgetExceeded`] as soon
    /// as any instruction retires past this cycle. `None` disables it.
    pub cycle_budget: Option<u64>,
    /// Deterministic artificial stall injected at one record (fault
    /// injection's per-job stall class). `None` injects nothing.
    pub stall: Option<StallInjection>,
}

/// An artificial stall: the record at index `at` reaches dispatch `cycles`
/// late. Dispatch is the injection point because every later milestone is
/// a running maximum over it, and the attribution walk charges the
/// inflated dispatch segment to the frontend bucket — so an injected
/// stall slows the run without breaking cycle conservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallInjection {
    /// Record index whose dispatch is delayed.
    pub at: u64,
    /// Extra cycles added to that record's dispatch.
    pub cycles: u64,
}

/// Assembles the attribution [`Timeline`] of one instruction from the
/// milestones the walk computed through the stage calls.
fn timeline_of(
    redirect: u64,
    dispatch: u64,
    ready: Ready,
    unit_at: u64,
    port_at: u64,
    mem: Option<MemExec>,
    complete: u64,
) -> Timeline {
    let (after_store_dep, after_mshr, useful_end, extra_end, extra_bucket) = match mem {
        Some(m) => {
            let useful_end = m.after_mshr + u64::from(m.hit_cycles);
            let bucket = if m.extra_is_miss {
                Bucket::MissLatency
            } else {
                Bucket::DcachePort
            };
            (
                m.after_store_dep,
                m.after_mshr,
                useful_end,
                useful_end + u64::from(m.extra_cycles),
                bucket,
            )
        }
        // Non-memory: the LSU milestones collapse onto the issue cycle and
        // the whole fixed latency is useful work, so the store-dep, MSHR,
        // extra-latency and realign segments are empty and charge nothing.
        None => (port_at, port_at, complete, complete, Bucket::MissLatency),
    };
    Timeline {
        redirect,
        dispatch,
        after_queue: ready.after_queue,
        after_deps: ready.after_deps,
        after_order: ready.after_order,
        unit_at,
        port_at,
        after_store_dep,
        after_mshr,
        useful_end,
        extra_end,
        extra_bucket,
        complete,
    }
}

/// The per-record fields every instruction needs, decoded from either
/// record source. The memory access and the branch outcome are decoded
/// only where the walk uses them ([`Records::mem_access`],
/// [`Records::branch_outcome`]), which keeps them out of registers
/// through the front half of the pipeline.
struct Record {
    sid: StaticId,
    dst: DstFile,
    /// Producer back-distance per source slot, `NO_DEF` when none.
    defs: [u16; 3],
    op: Opcode,
    /// Load or store, for a memory record.
    mem: Option<MemKind>,
    is_branch: bool,
}

/// What one record does to the machine state that outlives a replay —
/// the I-cache, the D-L1/L2 [`Hierarchy`] and the [`BranchPredictor`]:
/// the functional warm-up's whole view of a record.
struct Touch {
    sid: StaticId,
    /// `(addr, bytes, kind)` of a memory record.
    mem: Option<(u64, u8, MemKind)>,
    /// `(taken, unconditional)` of a branch.
    branch: Option<(bool, bool)>,
}

/// A record source for [`Simulator::walk`] and [`Machine::warm`]. The
/// walk calls `record` for every index exactly once, in increasing order,
/// then `mem_access` once if the record accesses memory and
/// `branch_outcome` once if it is a branch; the warm-up calls `touch`
/// instead, for every index in increasing order — so a source may keep
/// running cursors.
///
/// `record` is `#[inline(always)]` in both sources: left to the inliner
/// it can be outlined, and returning the `Record` through memory cost
/// the image walk several percent.
trait Records {
    /// Number of records.
    fn len(&self) -> usize;
    /// Record `idx`.
    fn record(&mut self, idx: usize) -> Record;
    /// The memory access of record `idx`.
    fn mem_access(&mut self, idx: usize) -> MemAccess<'_>;
    /// `(taken, unconditional)` of branch record `idx`.
    fn branch_outcome(&mut self, idx: usize) -> (bool, bool);
    /// The state record `idx` touches, without its timing inputs.
    fn touch(&mut self, idx: usize) -> Touch;
}

/// The record-form source: the AoS [`DynInstr`] array, decoded per
/// record. Loads find their store dependences by scanning the LSU's
/// store ring.
impl Records for &[DynInstr] {
    fn len(&self) -> usize {
        <[DynInstr]>::len(self)
    }

    #[inline(always)]
    fn record(&mut self, idx: usize) -> Record {
        let instr = &self[idx];
        Record {
            sid: instr.sid,
            dst: dst_file_of(instr),
            defs: src_defs_of(instr, idx),
            op: instr.op,
            mem: instr.mem.map(|m| m.kind),
            is_branch: instr.branch.is_some(),
        }
    }

    #[inline]
    fn mem_access(&mut self, idx: usize) -> MemAccess<'_> {
        let instr = &self[idx];
        let m = instr.mem.expect("asked only for memory records");
        MemAccess {
            addr: m.addr,
            bytes: m.bytes,
            kind: m.kind,
            unaligned: instr.is_unaligned_vector_access(),
            deps: None,
        }
    }

    #[inline]
    fn branch_outcome(&mut self, idx: usize) -> (bool, bool) {
        let b = self[idx].branch.expect("asked only for branch records");
        (b.taken, b.unconditional)
    }

    #[inline]
    fn touch(&mut self, idx: usize) -> Touch {
        let instr = &self[idx];
        Touch {
            sid: instr.sid,
            mem: instr.mem.map(|m| (m.addr, m.bytes, m.kind)),
            branch: instr.branch.map(|b| (b.taken, b.unconditional)),
        }
    }
}

/// The packed source: a [`ReplayImage`]'s columns plus running cursors
/// into the compact memory and branch side arrays the forward walk
/// consumes in record order. Loads carry the image's pre-resolved store
/// dependences.
struct ImageRecords<'a> {
    image: &'a ReplayImage,
    flags: &'a [u8],
    sids: &'a [StaticId],
    src_defs: &'a [[u16; 3]],
    ops: &'a [Opcode],
    mem_addrs: &'a [u64],
    mem_bytes: &'a [u8],
    mem_cursor: usize,
    branch_cursor: usize,
}

impl<'a> ImageRecords<'a> {
    fn new(image: &'a ReplayImage) -> Self {
        ImageRecords {
            image,
            flags: &image.flags()[..image.len()],
            sids: image.sids(),
            src_defs: image.src_defs(),
            ops: image.ops(),
            mem_addrs: image.mem_addrs(),
            mem_bytes: image.mem_bytes(),
            mem_cursor: 0,
            branch_cursor: 0,
        }
    }

    /// Address, width and kind of the next memory record, whose flag byte
    /// is `f`; advances the memory cursor. Leaves the dependence lists
    /// alone, which only the timed walk reads.
    #[inline]
    fn next_mem(&mut self, f: u8) -> (u64, u8, MemKind) {
        let c = self.mem_cursor;
        self.mem_cursor += 1;
        (self.mem_addrs[c], self.mem_bytes[c], mem_kind_of(f))
    }
}

impl Records for ImageRecords<'_> {
    fn len(&self) -> usize {
        self.flags.len()
    }

    #[inline(always)]
    fn record(&mut self, idx: usize) -> Record {
        // Pinning each column to the flag column's length lets the
        // compiler prove `idx` in range from the walk's `0..len()` bound,
        // which takes the per-record bounds checks out of the hot loop.
        let n = self.flags.len();
        let f = self.flags[idx];
        Record {
            sid: self.sids[..n][idx],
            dst: DstFile::from_flags(f),
            defs: self.src_defs[..n][idx],
            op: self.ops[..n][idx],
            mem: (f & flags::MEM != 0).then_some(mem_kind_of(f)),
            is_branch: f & flags::BRANCH != 0,
        }
    }

    #[inline]
    fn mem_access(&mut self, idx: usize) -> MemAccess<'_> {
        let f = self.flags[idx];
        let c = self.mem_cursor;
        let (addr, bytes, kind) = self.next_mem(f);
        MemAccess {
            addr,
            bytes,
            kind,
            unaligned: f & flags::UNALIGNED != 0,
            deps: Some(self.image.mem_deps_at(c)),
        }
    }

    #[inline]
    fn branch_outcome(&mut self, _idx: usize) -> (bool, bool) {
        let b = self.branch_cursor;
        self.branch_cursor += 1;
        (
            self.image.branch_taken_bit(b),
            self.image.branch_uncond_bit(b),
        )
    }

    #[inline]
    fn touch(&mut self, idx: usize) -> Touch {
        let n = self.flags.len();
        let f = self.flags[idx];
        Touch {
            sid: self.sids[..n][idx],
            mem: (f & flags::MEM != 0).then(|| self.next_mem(f)),
            branch: (f & flags::BRANCH != 0).then(|| self.branch_outcome(idx)),
        }
    }
}

/// The machine state that outlives a replay: the I-cache, the D-L1/L2
/// [`Hierarchy`] and the [`BranchPredictor`]. Every replay starts on one —
/// cold, functionally warmed ([`Machine::warmed`]) or restored from a
/// kept [`WarmState`] — and per-replay stage state (queues, rings,
/// packers) is rebuilt around it by each walk.
#[derive(Debug, PartialEq, Eq)]
pub struct Machine {
    icache: SetAssocCache,
    mem: Hierarchy,
    pred: BranchPredictor,
}

impl Machine {
    /// Cold caches and predictor on `memory`.
    fn cold(memory: HierarchyConfig) -> Self {
        Machine {
            // Table II: 32 KB direct-mapped I-L1 with 128-byte lines.
            // Kernels are loop-resident, so after warm-up this is all
            // hits; cold code pays the L2 latency per line.
            icache: SetAssocCache::new(CacheConfig::new(32 * 1024, 128, 1)),
            mem: Hierarchy::new(memory),
            pred: BranchPredictor::new(),
        }
    }

    /// A cold machine on `memory`, functionally warmed on `image`: the
    /// machine every warm replay of `image` measures on.
    ///
    /// # Panics
    ///
    /// Panics if `image`'s columns are shorter than its flag column; the
    /// checked entry points validate images before they warm on them.
    pub fn warmed(memory: HierarchyConfig, image: &ReplayImage) -> Self {
        let mut machine = Machine::cold(memory);
        machine.warm(ImageRecords::new(image));
        machine
    }

    /// The functional warm-up: one pass over `records` in program order
    /// that touches only the state outliving a replay — one I-cache access
    /// per record, one [`Hierarchy`] access per memory record, one
    /// predictor update per branch — and computes no timing. None of that
    /// state depends on timing, and the bank scheme changes latency only,
    /// so the machine it leaves, statistics included, is the one a timed
    /// [`Simulator::walk`] of `records` leaves on any configuration with
    /// this memory hierarchy.
    fn warm<R: Records>(&mut self, mut records: R) {
        for idx in 0..records.len() {
            let t = records.touch(idx);
            self.icache.access(t.sid.pc(), false);
            if let Some((addr, bytes, kind)) = t.mem {
                self.mem.access(
                    addr,
                    u32::from(bytes),
                    kind == MemKind::Store,
                    BankScheme::TwoBankInterleaved,
                );
            }
            if let Some((taken, unconditional)) = t.branch {
                self.pred.access(t.sid, taken, unconditional);
            }
        }
    }
}

/// A [`Machine`] kept compactly between replays: the valid lines of the
/// I-cache, the D-L1 and the L2, each with its LRU clock and statistics,
/// the whole [`BranchPredictor`], and the [`HierarchyConfig`] it was taken
/// on. Kernels touch few lines, so this is a small fraction of the
/// machine's dense form (mostly invalid L2 ways).
/// [`WarmState::restore`] gives back exactly the machine it was taken
/// from, cumulative counters included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmState {
    memory: HierarchyConfig,
    icache: ValidLines,
    l1d: ValidLines,
    l2: ValidLines,
    pred: BranchPredictor,
}

impl WarmState {
    /// The state [`Machine::warmed`] leaves on `memory` and `image`, kept.
    ///
    /// # Panics
    ///
    /// As [`Machine::warmed`].
    pub fn take(memory: HierarchyConfig, image: &ReplayImage) -> Self {
        let machine = Machine::warmed(memory, image);
        let (l1d, l2) = machine.mem.valid_lines();
        WarmState {
            memory,
            icache: machine.icache.valid_lines(),
            l1d,
            l2,
            pred: machine.pred,
        }
    }

    /// The machine this state was taken from.
    pub fn restore(&self) -> Machine {
        Machine {
            icache: SetAssocCache::from_valid_lines(&self.icache),
            mem: Hierarchy::from_valid_lines(self.memory, &self.l1d, &self.l2),
            pred: self.pred.clone(),
        }
    }

    /// The memory hierarchy the state was taken on; it can only be
    /// restored under a configuration with the same one.
    pub fn memory(&self) -> &HierarchyConfig {
        &self.memory
    }

    /// Approximate heap plus inline bytes.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<HierarchyConfig>()
            + self.icache.approx_bytes()
            + self.l1d.approx_bytes()
            + self.l2.approx_bytes()
            + self.pred.approx_bytes()
    }
}

/// The cycle-accurate simulator: one job's [`Machine`] and the
/// configuration it is timed under. Jobs go through the entry points —
/// [`Simulator::simulate_image`], [`Simulator::simulate_restored`], the
/// checked [`Simulator::try_simulate_image`] and
/// [`Simulator::try_simulate_verified`], and
/// [`Simulator::simulate_reference`] — each of which starts from a fresh
/// machine.
#[derive(Debug)]
pub struct Simulator {
    cfg: PipelineConfig,
    lat: LatencyTable,
    machine: Machine,
}

impl Simulator {
    /// A simulator for `cfg` on `machine`.
    fn on(cfg: PipelineConfig, machine: Machine) -> Self {
        let lat = LatencyTable::for_config(&cfg);
        Simulator { cfg, lat, machine }
    }

    /// A simulator for `cfg` on a cold machine.
    fn new(cfg: PipelineConfig) -> Self {
        Self::warmed(cfg, None)
    }

    /// A simulator for `cfg`, functionally warmed on `warmup` when given.
    fn warmed(cfg: PipelineConfig, warmup: Option<&ReplayImage>) -> Self {
        let machine = match warmup {
            Some(w) => Machine::warmed(cfg.memory, w),
            None => Machine::cold(cfg.memory),
        };
        Self::on(cfg, machine)
    }

    /// A simulator for `cfg` on the machine `state` restores.
    ///
    /// # Panics
    ///
    /// Panics if `state` was taken on another memory hierarchy than
    /// `cfg.memory`.
    fn restored(cfg: PipelineConfig, state: &WarmState) -> Self {
        assert_eq!(
            state.memory, cfg.memory,
            "warm state taken on another memory hierarchy"
        );
        Self::on(cfg, state.restore())
    }

    /// Simulates a prebuilt [`ReplayImage`] on a fresh machine with `cfg`,
    /// optionally warmed on `warmup` first — the engine's hot path.
    /// Microarchitectural state (caches, predictor) carries from the
    /// warm-up into the measured replay, which models steady state.
    /// Bit-identical to [`Simulator::simulate_reference`] on the images'
    /// source traces.
    ///
    /// # Panics
    ///
    /// Panics on a [`SimError`] (malformed image or missing latency
    /// entry); use [`Simulator::try_simulate_image`] where a corrupt image
    /// is reachable and the failure must be handled instead.
    pub fn simulate_image(
        cfg: PipelineConfig,
        warmup: Option<&ReplayImage>,
        image: &ReplayImage,
    ) -> SimResult {
        Self::warmed(cfg, warmup).replay(image)
    }

    /// [`Simulator::simulate_image`] on the machine `warm` restores
    /// instead of a warm-up walk: bit-identical to
    /// `simulate_image(cfg, Some(w), image)` when `warm` is
    /// [`WarmState::take`]`(cfg.memory, w)`.
    ///
    /// # Panics
    ///
    /// As [`Simulator::simulate_image`], and if `warm` was taken on
    /// another memory hierarchy than `cfg.memory`.
    pub fn simulate_restored(
        cfg: PipelineConfig,
        warm: &WarmState,
        image: &ReplayImage,
    ) -> SimResult {
        Self::restored(cfg, warm).replay(image)
    }

    /// The unguarded image walk both unchecked image entry points share.
    fn replay(mut self, image: &ReplayImage) -> SimResult {
        self.walk::<_, false>(ImageRecords::new(image), &RunGuards::default())
            .unwrap_or_else(|e| panic!("replay failed: {e}"))
    }

    /// The checked counterpart of [`Simulator::simulate_image`]: validates
    /// both images up front, bounds-checks the dependence walk, applies
    /// the [`RunGuards`] (cycle-budget watchdog, injected stall) to the
    /// measured replay, and returns the first structured [`SimError`]
    /// instead of panicking. On a well-formed image with default guards
    /// the result is bit-identical to [`Simulator::simulate_image`].
    pub fn try_simulate_image(
        cfg: PipelineConfig,
        warmup: Option<&ReplayImage>,
        image: &ReplayImage,
        guards: &RunGuards,
    ) -> Result<SimResult, SimError> {
        // Before any column is pinned: a truncated image must be refused,
        // not sliced — the warm-up indexes its columns too. A warm-up that
        // is the measured image itself (the usual warm job) is checked
        // once.
        if let Some(warm) = warmup.filter(|&w| !std::ptr::eq(w, image)) {
            warm.validate()?;
        }
        image.validate()?;
        Self::warmed(cfg, warmup).walk::<_, true>(ImageRecords::new(image), guards)
    }

    /// [`Simulator::try_simulate_image`] on an image already proven
    /// well-formed, starting from the machine `warm` restores (cold when
    /// `None`): the same guarded walk (watchdog, injected stall,
    /// dependence-window check) without validating again and without a
    /// warm-up walk. The supervisor proves each store entry once and
    /// replays it here on every job.
    ///
    /// # Panics
    ///
    /// Panics if `warm` was taken on another memory hierarchy than
    /// `cfg.memory`.
    pub fn try_simulate_verified(
        cfg: PipelineConfig,
        warm: Option<&WarmState>,
        image: &VerifiedImage,
        guards: &RunGuards,
    ) -> Result<SimResult, SimError> {
        let mut sim = match warm {
            Some(state) => Self::restored(cfg, state),
            None => Self::new(cfg),
        };
        sim.walk::<_, true>(ImageRecords::new(image), guards)
    }

    /// Simulates `trace` record by record, straight off the AoS
    /// [`DynInstr`] array, optionally after a *timed* warm-up walk of
    /// `warmup` — the reference path the packed image is
    /// equivalence-tested against, and the one a distrusted image degrades
    /// to (it shares no bytes with the image). Its warm-up is the oracle
    /// for the image paths' functional one.
    ///
    /// # Panics
    ///
    /// Panics on a missing latency entry ([`SimError::MissingLatency`]).
    pub fn simulate_reference(
        cfg: PipelineConfig,
        warmup: Option<&Trace>,
        trace: &Trace,
    ) -> SimResult {
        let guards = RunGuards::default();
        let mut sim = Simulator::new(cfg);
        let mut walk = |records: &[DynInstr]| {
            sim.walk::<_, false>(records, &guards)
                .unwrap_or_else(|e| panic!("reference replay failed: {e}"))
        };
        if let Some(w) = warmup {
            walk(w.instrs());
        }
        walk(trace.instrs())
    }

    /// The replay walk: one forward pass over `records` through the three
    /// stages. Microarchitectural state (caches, predictor) persists
    /// across walks; per-replay stage state (queues, rings, packers) is
    /// rebuilt here. `GUARDED` is a const so the unguarded hot path
    /// compiles with the injected stall, the dependence-window check and
    /// the watchdog removed. No producer check is needed: the only
    /// impossible producer distance, one reaching before record 0, is
    /// refused by validation before any image reaches the guarded walk,
    /// and the reference source derives its distances itself.
    fn walk<R: Records, const GUARDED: bool>(
        &mut self,
        mut records: R,
        guards: &RunGuards,
    ) -> Result<SimResult, SimError> {
        let n = records.len();
        let mut result = SimResult {
            instructions: n as u64,
            ..Default::default()
        };
        if n == 0 {
            return Ok(result);
        }

        let machine = &mut self.machine;
        let mut frontend = Frontend::new(&self.cfg, &mut machine.icache);
        let mut backend = Backend::new(&self.cfg);
        let mut lsu = Lsu::new(&self.cfg, &mut machine.mem);

        for idx in 0..n {
            let rec = records.record(idx);

            // ---- fetch ----
            let redirect = frontend.redirect();
            let fetch_cycle = frontend.fetch(rec.sid.pc(), rec.dst, backend.window_floor(idx));

            // ---- dispatch / issue readiness ----
            let mut dispatch = frontend.dispatch_at(fetch_cycle);
            if GUARDED {
                if let Some(stall) = guards.stall {
                    if stall.at == idx as u64 {
                        dispatch += stall.cycles;
                    }
                }
            }
            let is_branch = rec.is_branch;
            let ready = backend.ready_at(is_branch, &rec.defs, dispatch);

            // ---- unit + ports ----
            let unit_at = backend.acquire_unit(rec.op, ready.after_order);
            let issue_cycle = match rec.mem {
                Some(kind) => lsu.acquire_port(kind, unit_at),
                None => unit_at,
            };
            backend.note_issue(is_branch, issue_cycle);

            // ---- execute ----
            let (complete, mem_exec) = match rec.mem {
                Some(_) => {
                    let access = records.mem_access(idx);
                    let exec = lsu.execute::<GUARDED>(&access, idx, issue_cycle, &mut result)?;
                    (exec.complete, Some(exec))
                }
                None => {
                    let Some(lat) = self.lat.fixed(rec.op) else {
                        return Err(SimError::MissingLatency {
                            op: rec.op,
                            index: idx,
                        });
                    };
                    (issue_cycle + u64::from(lat), None)
                }
            };

            // ---- branch resolution ----
            if is_branch {
                let (taken, unconditional) = records.branch_outcome(idx);
                let mispredicted = machine.pred.access(rec.sid, taken, unconditional);
                frontend.apply_branch(mispredicted, taken, complete);
            }

            // ---- retire + cycle attribution ----
            let prev_retire = backend.last_retire();
            let retire_cycle = backend.retire(idx, complete);
            if retire_cycle > prev_retire {
                let t = timeline_of(
                    redirect,
                    dispatch,
                    ready,
                    unit_at,
                    issue_cycle,
                    mem_exec,
                    complete,
                );
                result.breakdown.charge(prev_retire, retire_cycle, &t);
            }
            frontend.release_dst(rec.dst, retire_cycle);

            // ---- watchdog ----
            if GUARDED {
                if let Some(budget) = guards.cycle_budget {
                    if retire_cycle > budget {
                        return Err(SimError::BudgetExceeded {
                            index: idx,
                            cycles: retire_cycle,
                            budget,
                        });
                    }
                }
            }
        }

        result.cycles = backend.last_retire();
        result.predictor = machine.pred.stats();
        result.l1 = machine.mem.l1_stats();
        result.l2 = machine.mem.l2_stats();
        debug_assert!(
            result.breakdown.conserves(result.cycles),
            "attribution lost cycles: {} attributed vs {} total",
            result.breakdown.total(),
            result.cycles
        );
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IssuePolicy;
    use valign_cache::RealignConfig;
    use valign_vm::Vm;

    fn warm_replay(cfg: PipelineConfig, trace: &Trace) -> SimResult {
        let image = ReplayImage::build(trace);
        Simulator::simulate_image(cfg, Some(&image), &image)
    }

    #[test]
    fn simulator_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<Simulator>();
    }

    #[test]
    fn empty_trace_is_zero_cycles() {
        let r = Simulator::simulate_reference(PipelineConfig::four_way(), None, &Trace::new());
        assert_eq!(r.cycles, 0);
        assert_eq!(r.instructions, 0);
    }

    #[test]
    fn independent_ops_reach_high_ipc() {
        let mut vm = Vm::new();
        for _ in 0..4000 {
            let _ = vm.li(1);
        }
        let trace = vm.take_trace();
        let r = warm_replay(PipelineConfig::four_way(), &trace);
        // FX has 3 instances in the 4-way config, so IPC should approach 3.
        assert!(r.ipc() > 2.0, "ipc = {}", r.ipc());
        assert!(r.ipc() <= 3.01, "ipc = {}", r.ipc());
    }

    #[test]
    fn dependency_chain_serialises() {
        let mut vm = Vm::new();
        let mut x = vm.li(0);
        for _ in 0..2000 {
            x = vm.addi(x, 1);
        }
        let trace = vm.take_trace();
        let r = warm_replay(PipelineConfig::eight_way(), &trace);
        // One-cycle latency chain: about one instruction per cycle, no
        // matter the width.
        assert!(r.ipc() < 1.1, "ipc = {}", r.ipc());
        assert!(r.cycles >= 2000);
    }

    #[test]
    fn wider_machine_is_faster_on_parallel_work() {
        let mut vm = Vm::new();
        for _ in 0..1000 {
            let a = vm.li(1);
            let b = vm.li(2);
            let _ = vm.add(a, b);
            let c = vm.li(3);
            let d = vm.li(4);
            let _ = vm.add(c, d);
        }
        let trace = vm.take_trace();
        let two = warm_replay(PipelineConfig::two_way(), &trace);
        let eight = warm_replay(PipelineConfig::eight_way(), &trace);
        assert!(
            eight.cycles < two.cycles,
            "8-way {} vs 2-way {}",
            eight.cycles,
            two.cycles
        );
    }

    #[test]
    fn out_of_order_beats_in_order_around_misses() {
        // A load miss followed by independent work: OoO hides it.
        let mut vm = Vm::new();
        let buf = vm.mem_mut().alloc(1 << 20, 128);
        let base = vm.li(buf as i64);
        for i in 0..200 {
            let _miss = vm.lwz(base, i64::from(i) * 4096); // new line every time
            for _ in 0..8 {
                let a = vm.li(1);
                let _ = vm.addi(a, 2);
            }
        }
        let trace = vm.take_trace();
        let mut inorder = PipelineConfig::four_way();
        inorder.policy = IssuePolicy::InOrder;
        let io = warm_replay(inorder, &trace);
        let ooo = warm_replay(PipelineConfig::four_way(), &trace);
        assert!(
            ooo.cycles <= io.cycles,
            "OoO {} should not exceed in-order {}",
            ooo.cycles,
            io.cycles
        );
    }

    #[test]
    fn realign_penalty_grows_with_extra_latency() {
        // A tight dependent chain of unaligned loads.
        let mut vm = Vm::new();
        let buf = vm.mem_mut().alloc(4096, 16);
        for i in 0..4096 {
            vm.mem_mut().write_u8(buf + i, i as u8);
        }
        let p = vm.li((buf + 1) as i64);
        let mut idx = vm.li(0);
        for _ in 0..500 {
            let v = vm.lvxu(idx, p);
            // Chain: next index depends on the load (via a store/load of
            // the register value we just read).
            let _ = v;
            idx = vm.addi(idx, 0);
        }
        let trace = vm.take_trace();
        let base = warm_replay(
            PipelineConfig::four_way().with_realign(RealignConfig::equal_latency()),
            &trace,
        );
        let plus6 = warm_replay(
            PipelineConfig::four_way().with_realign(RealignConfig::extra(6)),
            &trace,
        );
        assert_eq!(base.realign_penalty_cycles, 0);
        assert!(plus6.realign_penalty_cycles >= 500 * 6);
        assert!(plus6.cycles >= base.cycles);
        assert_eq!(base.unaligned_accesses, 500);
    }

    #[test]
    fn aligned_lvxu_pays_no_penalty() {
        let mut vm = Vm::new();
        let buf = vm.mem_mut().alloc(64, 16);
        let p = vm.li(buf as i64);
        let i0 = vm.li(0);
        let _ = vm.lvxu(i0, p);
        let trace = vm.take_trace();
        let r = warm_replay(
            PipelineConfig::four_way().with_realign(RealignConfig::extra(6)),
            &trace,
        );
        assert_eq!(r.unaligned_accesses, 0);
        assert_eq!(r.realign_penalty_cycles, 0);
    }

    #[test]
    fn predictable_loop_branches_cost_little() {
        let make = |iters: u32, pattern: fn(u32) -> bool| {
            let mut vm = Vm::new();
            let top = vm.label();
            for i in 0..iters {
                let c = vm.li(i64::from(i));
                let cond = vm.cmpwi(c, 0);
                vm.bc(cond, pattern(i), top);
            }
            vm.take_trace()
        };
        let predictable = make(2000, |i| i % 2000 != 1999); // always taken
        let chaotic = make(2000, |i| i.wrapping_mul(2654435761).rotate_left(7) & 4 == 0);
        let p = warm_replay(PipelineConfig::four_way(), &predictable);
        let c = warm_replay(PipelineConfig::four_way(), &chaotic);
        assert!(
            p.predictor.mispredict_ratio() < 0.02,
            "predictable loop mispredicts {}",
            p.predictor.mispredict_ratio()
        );
        assert!(
            c.cycles > p.cycles,
            "chaotic {} vs predictable {}",
            c.cycles,
            p.cycles
        );
    }

    #[test]
    fn store_to_load_dependence_enforced() {
        let mut vm = Vm::new();
        let buf = vm.mem_mut().alloc(64, 16);
        let base = vm.li(buf as i64);
        let v = vm.li(42);
        vm.stw(v, base, 0);
        let r = vm.lwz(base, 0);
        assert_eq!(r.value(), 42);
        let trace = vm.take_trace();
        let res = warm_replay(PipelineConfig::four_way(), &trace);
        // The load cannot complete before the store; with L1 at 4 cycles
        // the chain is at least store-complete + load-latency long.
        assert!(res.cycles > 8, "cycles = {}", res.cycles);
    }

    #[test]
    fn miss_queue_throttles_memory_parallelism() {
        // Many independent misses: fewer MSHRs => more cycles.
        let mut vm = Vm::new();
        let buf = vm.mem_mut().alloc(16 << 20, 128);
        let base = vm.li(buf as i64);
        for i in 0..256 {
            let _ = vm.lwz(base, i64::from(i) * 131 * 128);
        }
        let trace = vm.take_trace();
        let mut narrow = PipelineConfig::eight_way();
        narrow.miss_max = 1;
        let n = Simulator::simulate_reference(narrow, None, &trace);
        let w = Simulator::simulate_reference(PipelineConfig::eight_way(), None, &trace);
        assert!(
            n.cycles > w.cycles,
            "miss_max=1 {} should exceed miss_max=8 {}",
            n.cycles,
            w.cycles
        );
    }

    #[test]
    fn attribution_conserves_and_reflects_behaviour() {
        // Dependent chain: cycles dominated by useful + RAW wait, and the
        // buckets sum exactly to the total.
        let mut vm = Vm::new();
        let mut x = vm.li(0);
        for _ in 0..2000 {
            x = vm.addi(x, 1);
        }
        let chain = vm.take_trace();
        let r = warm_replay(PipelineConfig::eight_way(), &chain);
        assert!(r.breakdown.conserves(r.cycles), "{:?}", r.breakdown);
        assert!(r.breakdown.useful > 0);

        // Unaligned dependent loads with an extra realign latency: the
        // realign bucket picks up the penalty on the critical path.
        let mut vm = Vm::new();
        let buf = vm.mem_mut().alloc(4096, 16);
        let p = vm.li((buf + 1) as i64);
        let i0 = vm.li(0);
        for _ in 0..200 {
            let _ = vm.lvxu(i0, p);
        }
        let unaligned = vm.take_trace();
        let r = warm_replay(
            PipelineConfig::two_way().with_realign(valign_cache::RealignConfig::extra(6)),
            &unaligned,
        );
        assert!(r.breakdown.conserves(r.cycles), "{:?}", r.breakdown);
        assert!(r.breakdown.realign > 0, "{:?}", r.breakdown);

        // Empty trace: empty breakdown, still conserved.
        let empty = Simulator::simulate_reference(PipelineConfig::four_way(), None, &Trace::new());
        assert!(empty.breakdown.conserves(0));
    }

    #[test]
    fn miss_latency_is_attributed_on_misses() {
        let mut vm = Vm::new();
        let buf = vm.mem_mut().alloc(16 << 20, 128);
        let base = vm.li(buf as i64);
        let mut acc = vm.li(0);
        for i in 0..64 {
            let v = vm.lwz(base, i64::from(i) * 131 * 128);
            acc = vm.add(acc, v);
        }
        let trace = vm.take_trace();
        let r = Simulator::simulate_reference(PipelineConfig::two_way(), None, &trace);
        assert!(r.breakdown.conserves(r.cycles), "{:?}", r.breakdown);
        assert!(r.breakdown.miss_latency > 0, "{:?}", r.breakdown);
    }

    #[test]
    fn guarded_replay_is_bit_identical_to_the_hot_path() {
        let mut vm = Vm::new();
        let buf = vm.mem_mut().alloc(4096, 16);
        let p = vm.li((buf + 3) as i64);
        let i0 = vm.li(0);
        for i in 0..300 {
            let v = vm.lvxu(i0, p);
            let _ = v;
            if i % 7 == 0 {
                let c = vm.cmpwi(i0, 0);
                let top = vm.label();
                vm.bc(c, i % 14 == 0, top);
            }
        }
        let trace = vm.take_trace();
        let image = ReplayImage::build(&trace);
        for cfg in [PipelineConfig::two_way(), PipelineConfig::four_way()] {
            let plain = Simulator::simulate_image(cfg.clone(), Some(&image), &image);
            let guarded =
                Simulator::try_simulate_image(cfg, Some(&image), &image, &RunGuards::default())
                    .expect("clean image replays cleanly");
            assert_eq!(plain, guarded);
        }
    }

    #[test]
    fn cycle_budget_watchdog_trips_deterministically() {
        let mut vm = Vm::new();
        let mut x = vm.li(0);
        for _ in 0..500 {
            x = vm.addi(x, 1);
        }
        let trace = vm.take_trace();
        let image = ReplayImage::build(&trace);
        let full = Simulator::try_simulate_image(
            PipelineConfig::four_way(),
            None,
            &image,
            &RunGuards::default(),
        )
        .expect("no budget, no abort");
        let guards = RunGuards {
            cycle_budget: Some(full.cycles / 2),
            stall: None,
        };
        let err = Simulator::try_simulate_image(PipelineConfig::four_way(), None, &image, &guards)
            .expect_err("half the budget must trip the watchdog");
        match err {
            SimError::BudgetExceeded { cycles, budget, .. } => {
                assert!(cycles > budget);
                assert_eq!(budget, full.cycles / 2);
            }
            other => panic!("expected BudgetExceeded, got {other}"),
        }
        // Determinism: the same budget trips at the same record.
        let again =
            Simulator::try_simulate_image(PipelineConfig::four_way(), None, &image, &guards)
                .expect_err("same inputs, same abort");
        assert_eq!(err, again);
    }

    #[test]
    fn injected_stall_slows_the_run_and_conserves() {
        let mut vm = Vm::new();
        let mut x = vm.li(0);
        for _ in 0..200 {
            x = vm.addi(x, 1);
        }
        let trace = vm.take_trace();
        let image = ReplayImage::build(&trace);
        let clean = Simulator::try_simulate_image(
            PipelineConfig::four_way(),
            None,
            &image,
            &RunGuards::default(),
        )
        .expect("clean");
        let guards = RunGuards {
            cycle_budget: None,
            stall: Some(StallInjection {
                at: 100,
                cycles: 5000,
            }),
        };
        let stalled =
            Simulator::try_simulate_image(PipelineConfig::four_way(), None, &image, &guards)
                .expect("a stall is slow, not fatal");
        // The stall lands on dispatch, so a few cycles that overlapped
        // other work in the clean run are absorbed — the slowdown is just
        // under the injected amount, never more than a pipeline's worth.
        assert!(
            stalled.cycles >= clean.cycles + 4500,
            "stalled {} vs clean {}",
            stalled.cycles,
            clean.cycles
        );
        assert!(
            stalled.breakdown.conserves(stalled.cycles),
            "injected stall must not break conservation: {:?}",
            stalled.breakdown
        );
        assert!(
            stalled.breakdown.frontend >= 4000,
            "{:?}",
            stalled.breakdown
        );
    }

    /// Forty store-then-reload pairs: every load has a dependence list.
    fn store_reload_trace() -> Trace {
        let mut vm = Vm::new();
        let buf = vm.mem_mut().alloc(4096, 16);
        let base = vm.li(buf as i64);
        for i in 0..40 {
            let v = vm.li(i);
            vm.stw(v, base, i * 4);
            let _ = vm.lwz(base, i * 4);
        }
        vm.take_trace()
    }

    #[test]
    fn runtime_sabotage_is_caught_mid_replay() {
        use crate::image::Sabotage;
        let trace = store_reload_trace();

        let mut img = ReplayImage::build(&trace);
        assert!(img.sabotage(Sabotage::DepOverflow, 11));
        img.validate()
            .expect("dep overflow passes static validation");
        let err = Simulator::try_simulate_image(
            PipelineConfig::four_way(),
            None,
            &img,
            &RunGuards::default(),
        )
        .expect_err("the checked dependence walk must catch it");
        assert!(matches!(err, SimError::DepOutOfWindow { .. }), "{err}");
    }

    #[test]
    fn verified_images_refuse_static_sabotage_and_keep_the_runtime_checks() {
        use crate::image::Sabotage;
        let trace = store_reload_trace();
        let clean = ReplayImage::build(&trace);
        let cfg = PipelineConfig::four_way();
        let guards = RunGuards::default();

        let proven = VerifiedImage::new(clean.clone().into_shared()).expect("clean image");
        let warm = WarmState::take(cfg.memory, &proven);
        assert_eq!(
            Simulator::try_simulate_verified(cfg.clone(), Some(&warm), &proven, &guards),
            Ok(Simulator::simulate_image(cfg.clone(), Some(&clean), &clean))
        );
        assert_eq!(
            Simulator::try_simulate_verified(cfg.clone(), None, &proven, &guards),
            Ok(Simulator::simulate_image(cfg.clone(), None, &clean))
        );

        // The constructor is validate(): it refuses exactly what the
        // static rung catches.
        for kind in [
            Sabotage::Truncate,
            Sabotage::FlagBitFlip,
            Sabotage::CursorCorrupt,
            Sabotage::DanglingDef,
        ] {
            for site in 0..8 {
                let mut img = clean.clone();
                assert!(img.sabotage(kind, site));
                let err = VerifiedImage::new(img.into_shared())
                    .expect_err("statically corrupt images get no proof");
                assert!(
                    matches!(err, SimError::CorruptImage { .. }),
                    "{kind:?} at site {site}: {err}"
                );
            }
        }

        // The runtime-only fault passes validation, so it gets a proof —
        // and the guarded walk on the proven image still stops it.
        let mut img = clean.clone();
        assert!(img.sabotage(Sabotage::DepOverflow, 11));
        let proven = VerifiedImage::new(img.into_shared())
            .unwrap_or_else(|e| panic!("DepOverflow passes static validation, got {e}"));
        let warm = WarmState::take(cfg.memory, &proven);
        let err = Simulator::try_simulate_verified(cfg, Some(&warm), &proven, &guards)
            .expect_err("the guarded walk must catch it");
        assert!(matches!(err, SimError::DepOutOfWindow { .. }), "{err}");
    }

    #[test]
    fn static_sabotage_is_caught_before_the_walk() {
        use crate::image::Sabotage;
        let mut vm = Vm::new();
        for _ in 0..20 {
            let a = vm.li(1);
            let _ = vm.addi(a, 2);
        }
        let trace = vm.take_trace();
        for kind in [Sabotage::Truncate, Sabotage::DanglingDef] {
            let mut img = ReplayImage::build(&trace);
            assert!(img.sabotage(kind, 9));
            let err = Simulator::try_simulate_image(
                PipelineConfig::two_way(),
                None,
                &img,
                &RunGuards::default(),
            )
            .expect_err("a statically corrupt image must be rejected up front");
            assert!(
                matches!(err, SimError::CorruptImage { .. }),
                "{kind:?}: {err}"
            );
        }
    }

    #[test]
    fn empty_image_replays_cleanly_under_guards() {
        let image = ReplayImage::build(&Trace::new());
        let r = Simulator::try_simulate_image(
            PipelineConfig::four_way(),
            None,
            &image,
            &RunGuards {
                cycle_budget: Some(0),
                stall: None,
            },
        )
        .expect("nothing to replay, nothing to abort");
        assert_eq!(r.cycles, 0);
    }

    /// `iters` rounds of an unaligned vector load, a store, a load and,
    /// every third round, a branch alternating taken and not taken.
    fn mixed_trace(iters: i64, offset: u64) -> Trace {
        let mut vm = Vm::new();
        let buf = vm.mem_mut().alloc(8192, 16);
        let p = vm.li((buf + offset) as i64);
        let base = vm.li(buf as i64);
        let i0 = vm.li(0);
        for i in 0..iters {
            let _ = vm.lvxu(i0, p);
            let v = vm.li(i);
            vm.stw(v, base, i * 52 % 4096);
            let _ = vm.lwz(base, i * 36 % 4096);
            if i % 3 == 0 {
                let c = vm.cmpwi(i0, 0);
                let top = vm.label();
                vm.bc(c, i % 2 == 0, top);
            }
        }
        vm.take_trace()
    }

    #[test]
    fn functional_warm_up_leaves_the_machine_a_timed_walk_leaves() {
        let trace = mixed_trace(300, 3);
        let image = ReplayImage::build(&trace);
        let guards = RunGuards::default();
        let single_bank = RealignConfig {
            banks: valign_cache::BankScheme::SingleBank,
            ..RealignConfig::proposed()
        };
        let mut cfgs = PipelineConfig::table_ii();
        cfgs.push(PipelineConfig::four_way().with_realign(single_bank));
        for cfg in cfgs {
            let mut timed = Simulator::new(cfg.clone());
            timed
                .walk::<_, false>(trace.instrs(), &guards)
                .expect("clean trace");
            let mut from_records = Simulator::new(cfg.clone());
            from_records.machine.warm(trace.instrs());
            let from_image = Machine::warmed(cfg.memory, &image);
            let stats = &timed.machine;
            assert!(stats.mem.l1_stats().hits > 0 && stats.pred.stats().branches > 0);
            // Tags, LRU order and clocks, counters, history: everything
            // the next walk sees, and the statistics it reports.
            assert_eq!(timed.machine, from_records.machine, "{}", cfg.name);
            assert_eq!(timed.machine, from_image, "{}", cfg.name);
        }
    }

    #[test]
    fn a_restored_warm_state_is_the_warmed_machine() {
        let memory = PipelineConfig::four_way().memory;
        for trace in [mixed_trace(300, 3), mixed_trace(40, 5), Trace::new()] {
            let image = ReplayImage::build(&trace);
            let warmed = Machine::warmed(memory, &image);
            let state = WarmState::take(memory, &image);
            assert_eq!(state.restore(), warmed);
            // The kept form is a small fraction of the dense machine,
            // whose L2 alone is 8,192 lines.
            assert!(state.approx_bytes() < 32 * 1024, "{}", state.approx_bytes());
            for cfg in PipelineConfig::table_ii() {
                assert_eq!(
                    Simulator::simulate_restored(cfg.clone(), &state, &image),
                    Simulator::simulate_image(cfg.clone(), Some(&image), &image),
                    "{}",
                    cfg.name
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "another memory hierarchy")]
    fn a_warm_state_is_refused_on_another_hierarchy() {
        let image = ReplayImage::build(&mixed_trace(40, 5));
        let state = WarmState::take(PipelineConfig::four_way().memory, &image);
        let mut cfg = PipelineConfig::four_way();
        cfg.memory.l2_latency += 1;
        let _ = Simulator::simulate_restored(cfg, &state, &image);
    }

    #[test]
    fn guards_apply_to_the_measured_walk_only() {
        let cfg = PipelineConfig::four_way();
        let long = ReplayImage::build(&mixed_trace(300, 3));
        let short = ReplayImage::build(&mixed_trace(40, 5));
        // A budget the clean measured walk just meets; a stall past it.
        let guards = |clean: &SimResult, at: Option<u64>| RunGuards {
            cycle_budget: Some(clean.cycles),
            stall: at.map(|at| StallInjection {
                at,
                cycles: clean.cycles + 1,
            }),
        };
        let run = |warmup: &ReplayImage, image: &ReplayImage, g: &RunGuards| {
            Simulator::try_simulate_image(cfg.clone(), Some(warmup), image, g)
        };

        // The usual warm job: the stall trips the watchdog at its record.
        let clean = Simulator::simulate_image(cfg.clone(), Some(&short), &short);
        let at = short.len() as u64 / 2;
        match run(&short, &short, &guards(&clean, Some(at))) {
            Err(SimError::BudgetExceeded {
                index,
                cycles,
                budget,
            }) => {
                assert_eq!(index as u64, at);
                assert_eq!(budget, clean.cycles);
                assert!(cycles > budget);
            }
            other => panic!("expected BudgetExceeded at {at}, got {other:?}"),
        }

        // Warmed on a longer image, whose cold walk alone outlasts the
        // budget: neither the budget nor a stall at a record only the
        // warm-up has reaches the warm-up.
        let clean = Simulator::simulate_image(cfg.clone(), Some(&long), &short);
        let past_the_end = long.len() as u64 - 1;
        assert!(past_the_end >= short.len() as u64);
        for g in [guards(&clean, None), guards(&clean, Some(past_the_end))] {
            assert_eq!(run(&long, &short, &g), Ok(clean), "{g:?}");
        }
    }

    #[test]
    fn corrupt_warm_up_image_is_refused_before_it_is_warmed_on() {
        use crate::image::Sabotage;
        let image = ReplayImage::build(&mixed_trace(60, 3));
        // A truncated warm-up would panic the moment the warm pass sliced
        // its columns, so a returned error shows it was never reached.
        for kind in [
            Sabotage::Truncate,
            Sabotage::FlagBitFlip,
            Sabotage::CursorCorrupt,
        ] {
            let mut warm = image.clone();
            assert!(warm.sabotage(kind, 25));
            let err = Simulator::try_simulate_image(
                PipelineConfig::four_way(),
                Some(&warm),
                &image,
                &RunGuards::default(),
            )
            .expect_err("a corrupt warm-up image must be refused");
            assert!(
                matches!(err, SimError::CorruptImage { .. }),
                "{kind:?}: {err}"
            );
        }
    }
}

#[cfg(test)]
mod icache_tests {
    use super::*;
    use crate::config::PipelineConfig;
    use valign_vm::Vm;

    #[test]
    fn cold_instruction_fetch_pays_warm_does_not() {
        // A straight-line program with many distinct static sites: the
        // first replay takes I-cache misses, the second does not.
        let mut vm = Vm::new();
        for _ in 0..64 {
            let a = vm.li(1);
            let _ = vm.addi(a, 2);
        }
        let t = vm.take_trace();
        let cold = Simulator::simulate_reference(PipelineConfig::four_way(), None, &t);
        let warm = Simulator::simulate_reference(PipelineConfig::four_way(), Some(&t), &t);
        assert!(
            warm.cycles <= cold.cycles,
            "warm {} vs cold {}",
            warm.cycles,
            cold.cycles
        );
    }

    #[test]
    fn loop_resident_kernels_are_insensitive_to_the_icache() {
        // A loop over the same static sites touches very few I-lines:
        // the cold penalty is bounded by a handful of misses.
        let mut vm = Vm::new();
        for _ in 0..500 {
            let a = vm.li(1); // same static site every iteration
            let _ = vm.addi(a, 2);
        }
        let t = vm.take_trace();
        let cold = Simulator::simulate_reference(PipelineConfig::four_way(), None, &t);
        let warm = Simulator::simulate_reference(PipelineConfig::four_way(), Some(&t), &t);
        assert!(
            cold.cycles
                <= warm.cycles + 3 * u64::from(PipelineConfig::four_way().memory.l2_latency),
            "cold {} vs warm {}",
            cold.cycles,
            warm.cycles
        );
    }
}
