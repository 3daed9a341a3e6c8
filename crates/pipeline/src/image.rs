//! Packed replay image of a trace: the structure-of-arrays form the
//! cycle-accurate engine iterates.
//!
//! A recorded [`Trace`] is an array of ~80-byte [`DynInstr`] structs
//! riddled with `Option`s — the right shape for *recording* (and for the
//! `valign-analyze` rules, which want the full record), but a poor shape
//! for *replaying*: the paper's methodology is generate once, replay many,
//! so the replay loop runs over every trace once per
//! {machine config × realignment latency} and its memory behaviour is the
//! wall-clock of the whole evaluation.
//!
//! [`ImageBuilder`] compiles records once, one at a time in trace order,
//! into dense side arrays; [`ReplayImage::build`] is that builder run over
//! a whole recorded trace, and `valign-core` runs it over the records the
//! VM emits, as it emits them, so a store build never holds the
//! record-form trace at all. The arrays:
//!
//! * per-record **opcode**, **static site** (`u16`) and **flag byte**
//!   (touches memory / store / branch / has destination / destination
//!   file / unaligned vector access) — everything the engine previously
//!   derived per instruction through `Option` probing is resolved at build
//!   time, and the execution unit is a table lookup on the opcode;
//! * **source producers** as three `u16` back-distances per record
//!   (`idx − producer`; [`NO_DEF`] marks a slot with no producer in
//!   reach), which the scoreboard uses directly as the producer's age, so
//!   operand readiness needs no `Option` unwrapping and no subtraction.
//!   Opcode, flags, site and producers make a record's fixed part 10
//!   bytes (1 + 1 + 2 + 6);
//! * **memory references** (`addr`, `bytes`) and **branch outcomes**
//!   (taken / unconditional bitsets) in *compact* parallel arrays holding
//!   one entry per memory/branch record, with per-record presence recorded
//!   both in the flag byte and in word-packed presence bitsets
//!   ([`ReplayImage::mem_mask`], [`ReplayImage::branch_mask`]). The
//!   forward replay walk consumes the compact arrays through running
//!   cursors; random access goes through a popcount rank over the masks;
//! * **store-to-load dependences** pre-resolved per load: which of the
//!   [`STORE_QUEUE_TRACK`] most recent stores overlap the load's byte
//!   range is a pure function of the recorded addresses, so the image
//!   computes it once at build time (as compact store-ordinal lists) and
//!   the replay loop replaces the engine's per-load store-queue scan with
//!   a lookup of the listed stores' completion cycles. The builder does
//!   not scan the window either: it indexes it by 16-byte block, keeping
//!   per block a `u64` bitmask of the window slots (`ordinal % 64`) whose
//!   store touches it. A load ORs the masks of the blocks it touches (two
//!   at most, for widths up to 16), rotates the result so the oldest slot
//!   is bit 0, and keeps the candidates the exact [`ranges_overlap`]
//!   accepts — the same ordinals, in the same oldest-first order, as
//!   testing every window store. The index is a fixed table of
//!   per-bucket masks (blocks 4 KiB apart share a bucket); aliasing only
//!   adds candidates, which the exact test drops.
//!
//! The image carries **no timing** and **no configuration**: latencies
//! are still resolved through the engine's [`crate::LatencyTable`] and the
//! cache hierarchy, so one image (built once, `Arc`-shared) serves every
//! machine configuration and worker thread. `valign-core`'s `TraceStore`
//! caches the image alongside its `Arc<Trace>`.
//!
//! The builder's per-record arrays and presence masks grow as records
//! arrive (the masks by one word per 64 records); [`ImageBuilder::finish`]
//! adds the dependence-offset sentinel and trims them to their exact
//! length, so an image built record by record is identical — contents,
//! [`ReplayImage::checksum`] and [`ReplayImage::approx_bytes`] — to one
//! built from the whole trace.
//!
//! Invariants (established by the builder, relied on by the engine):
//!
//! * array lengths: `ops`, `flags`, `sids`, `src_defs` all equal
//!   [`ReplayImage::len`]; `mem_addrs`/`mem_bytes` have one entry per set
//!   bit of `mem_mask`; `branch_taken`/`branch_uncond` one bit per set bit
//!   of `branch_mask`, in record order;
//! * opcode domains: `MEM` is set exactly on opcodes that touch memory
//!   and `STORE` exactly on stores; `UNALIGNED` implies `MEM` and an
//!   unaligned-capable opcode; `DST_VPR` implies `HAS_DST`;
//! * presence: a record's `MEM`/`BRANCH` flags agree with its bits in
//!   `mem_mask`/`branch_mask`, and no mask bit sits past the last record;
//! * `src_defs[idx]` holds, in the record's slot order, back-distances
//!   `d` with `1 ≤ d ≤ idx` (producer `idx − d`), or [`NO_DEF`] for a
//!   slot that is absent, external, or farther back than `u16::MAX` —
//!   beyond every in-flight window (`PipelineConfig::inflight` is a
//!   `u16`), so dropping it is exact;
//! * `mem_dep_offsets` has `memory_records() + 1` entries; the `c`-th
//!   memory record's dependence list is
//!   `mem_deps[offsets[c]..offsets[c+1]]`, holding the ordinals (0-based
//!   store count) of exactly the stores a [`crate::lsu`] store-queue scan
//!   would find overlapping — loads only, within the trailing
//!   [`STORE_QUEUE_TRACK`]-store window; stores have empty lists.
//!
//! [`ReplayImage::violations`] is the one checker of these invariants,
//! behind both [`ReplayImage::validate`] and the `valign-analyze`
//! `image-structure` rule. It checks all of them except the content of
//! the dependence lists, which the guarded replay walk checks
//! ([`SimError::DepOutOfWindow`]) and the `image-dep-oracle` audit rule
//! re-derives.

use crate::hash::WordHash;
use crate::lsu::{ranges_overlap, STORE_QUEUE_TRACK};
use crate::result::SimError;
use std::sync::Arc;
use valign_isa::{DynInstr, MemKind, MixCounts, Opcode, StaticId, Trace};

/// Sentinel producer distance: the source slot has no producer in reach
/// (absent, external to the trace, or farther back than `u16::MAX`).
pub const NO_DEF: u16 = 0;

/// Cap on the per-record findings one image check reports
/// ([`ReplayImage::violations`] and the per-site `valign-analyze` image
/// rules): structural lies repeat per record, and one is already fatal.
pub const MAX_RECORD_VIOLATIONS: usize = 20;

/// Per-record flag bits of a [`ReplayImage`].
pub mod flags {
    /// The record reads or writes memory.
    pub const MEM: u8 = 1 << 0;
    /// The memory access is a store (only meaningful with [`MEM`]).
    pub const STORE: u8 = 1 << 1;
    /// The record is a branch.
    pub const BRANCH: u8 = 1 << 2;
    /// The record writes a destination register.
    pub const HAS_DST: u8 = 1 << 3;
    /// The destination is a vector register (only with [`HAS_DST`]).
    pub const DST_VPR: u8 = 1 << 4;
    /// The record is a vector memory access to a non-16-byte-aligned
    /// address (`lvxu`/`stvxu` with a non-zero quad offset).
    pub const UNALIGNED: u8 = 1 << 5;
}

/// Wire-format description of the packed arrays, shared with the
/// `valign-store` on-disk container.
///
/// Each of the image's twelve arrays is one *section*: a little-endian
/// byte payload of fixed-width elements. Section ids match the
/// domain-separation tags of [`ReplayImage::checksum`] — tag 1, the
/// record count, is not a section; it travels in the container header
/// next to the image checksum. Tag 3 is retired: format version 1 stored
/// a per-record unit column there, which the opcode already determines.
pub mod wire {
    /// Opcode per record, `u16` ([`valign_isa::Opcode::index`]).
    pub const OPS: u32 = 2;
    /// Flag byte per record, `u8` (see [`super::flags`]).
    pub const FLAGS: u32 = 4;
    /// Static site per record, `u16`.
    pub const SIDS: u32 = 5;
    /// Producer back-distances, three `u16` per record (6-byte elements).
    pub const SRC_DEFS: u32 = 6;
    /// Memory-presence bitset, `u64` words.
    pub const MEM_MASK: u32 = 7;
    /// Branch-presence bitset, `u64` words.
    pub const BRANCH_MASK: u32 = 8;
    /// Effective addresses, `u64` per memory record.
    pub const MEM_ADDRS: u32 = 9;
    /// Access widths, `u8` per memory record.
    pub const MEM_BYTES: u32 = 10;
    /// Taken bitset over branch ordinals, `u64` words.
    pub const BRANCH_TAKEN: u32 = 11;
    /// Unconditional bitset over branch ordinals, `u64` words.
    pub const BRANCH_UNCOND: u32 = 12;
    /// Cumulative dependence offsets, `u32` per memory record + 1.
    pub const MEM_DEP_OFFSETS: u32 = 13;
    /// Store-to-load dependence ordinals, `u32` each.
    pub const MEM_DEPS: u32 = 14;

    /// Every section id, in file order.
    pub const ALL: &[u32] = &[
        OPS,
        FLAGS,
        SIDS,
        SRC_DEFS,
        MEM_MASK,
        BRANCH_MASK,
        MEM_ADDRS,
        MEM_BYTES,
        BRANCH_TAKEN,
        BRANCH_UNCOND,
        MEM_DEP_OFFSETS,
        MEM_DEPS,
    ];

    /// Element width in bytes of a section's payload, `None` for ids this
    /// format version does not define.
    pub fn elem_bytes(id: u32) -> Option<u32> {
        match id {
            FLAGS | MEM_BYTES => Some(1),
            OPS | SIDS => Some(2),
            MEM_DEP_OFFSETS | MEM_DEPS => Some(4),
            SRC_DEFS => Some(6),
            MEM_MASK | BRANCH_MASK | MEM_ADDRS | BRANCH_TAKEN | BRANCH_UNCOND => Some(8),
            _ => None,
        }
    }

    /// Human name of a section id, for diagnostics.
    pub fn name(id: u32) -> &'static str {
        match id {
            OPS => "ops",
            FLAGS => "flags",
            SIDS => "sids",
            SRC_DEFS => "src_defs",
            MEM_MASK => "mem_mask",
            BRANCH_MASK => "branch_mask",
            MEM_ADDRS => "mem_addrs",
            MEM_BYTES => "mem_bytes",
            BRANCH_TAKEN => "branch_taken",
            BRANCH_UNCOND => "branch_uncond",
            MEM_DEP_OFFSETS => "mem_dep_offsets",
            MEM_DEPS => "mem_deps",
            _ => "unknown",
        }
    }
}

/// A deterministic image corruption targeting one specific invariant of
/// the `valign-analyze` audit rule family, applied by
/// [`ReplayImage::sabotage_audit`]. Unlike [`Sabotage`] (whose variants
/// land on different rungs of the runtime integrity ladder), each of
/// these seeds exactly the violation one *static audit rule* is specified
/// to catch, so every rule can prove it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditSabotage {
    /// Sets a presence bit on a record that is not a memory record, so the
    /// mask popcount exceeds the compact address/width arrays
    /// (`image-structure`, and so also [`ReplayImage::validate`]).
    MaskPopcountLie,
    /// Rewrites a load's dependence ordinal to a store that executes
    /// *after* the load — a forward (cyclic) dependence
    /// (`image-dep-oracle`).
    DepCycle,
    /// Rewrites a dependence ordinal far beyond any store in the image
    /// (`image-dep-oracle`).
    DepOutOfRange,
    /// Truncates a dense per-record side array below the record count
    /// (`image-structure`, and so also [`ReplayImage::validate`]).
    SideArrayTruncate,
}

/// A deterministic image corruption, applied by [`ReplayImage::sabotage`]
/// for fault injection. The variants are chosen to land on *different*
/// rungs of the integrity ladder (checksum → static validation → guarded
/// replay), so the fault matrix exercises every detection layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// Shortens the per-record arrays below `len` (trace truncation).
    Truncate,
    /// Flips a record's `MEM` flag so flags and presence mask disagree
    /// (bit-flip).
    FlagBitFlip,
    /// Bends a dependence offset so the compact-array cursors misresolve
    /// (cursor corruption).
    CursorCorrupt,
    /// Rewrites a store-to-load dependence ordinal to one far outside the
    /// LSU's trailing store window. On an image with no dependence list
    /// to bend it falls back to [`Sabotage::DanglingDef`].
    DepOverflow,
    /// Sets a record's first producer distance to reach before record 0.
    DanglingDef,
}

/// Which physical-register file a record's destination belongs to — the
/// only thing the front end needs to know about a destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DstFile {
    /// No destination register.
    None,
    /// Integer register file.
    Gpr,
    /// Vector register file.
    Vpr,
}

/// Load or store, decoded from a memory record's flag byte.
pub(crate) fn mem_kind_of(f: u8) -> MemKind {
    if f & flags::STORE != 0 {
        MemKind::Store
    } else {
        MemKind::Load
    }
}

impl DstFile {
    /// Decodes the destination file from a record's flag byte.
    pub(crate) fn from_flags(f: u8) -> DstFile {
        if f & flags::HAS_DST == 0 {
            DstFile::None
        } else if f & flags::DST_VPR != 0 {
            DstFile::Vpr
        } else {
            DstFile::Gpr
        }
    }
}

/// One word-packed bitset over trace records (or over the compact
/// memory/branch ordinals).
fn set_bit(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1 << (i & 63);
}

fn get_bit(words: &[u64], i: usize) -> bool {
    (words[i >> 6] >> (i & 63)) & 1 != 0
}

/// Number of set bits strictly below `i` — the compact-array slot of
/// record `i` under a presence mask.
fn rank(words: &[u64], i: usize) -> usize {
    let full: usize = words[..i >> 6]
        .iter()
        .map(|w| w.count_ones() as usize)
        .sum();
    let partial = (words[i >> 6] & ((1u64 << (i & 63)) - 1)).count_ones() as usize;
    full + partial
}

/// The packed, one-time-compiled replay form of a [`Trace`].
///
/// Built by an [`ImageBuilder`] (over a whole trace: [`ReplayImage::build`]),
/// immutable afterwards; see the
/// [module documentation](self) for layout and invariants.
#[derive(Debug, Clone)]
pub struct ReplayImage {
    len: usize,
    /// Opcode per record (1 byte each) — latency and unit lookups, display.
    ops: Vec<Opcode>,
    /// Flag byte per record (see [`flags`]).
    flags: Vec<u8>,
    /// Static site per record (synthetic PC = `sid << 2`).
    sids: Vec<StaticId>,
    /// Producer back-distance per source slot, [`NO_DEF`] when none.
    src_defs: Vec<[u16; 3]>,
    /// Presence bitset over records: which records access memory.
    mem_mask: Vec<u64>,
    /// Presence bitset over records: which records are branches.
    branch_mask: Vec<u64>,
    /// Effective addresses, one per memory record, in record order.
    mem_addrs: Vec<u64>,
    /// Access widths, parallel to `mem_addrs`.
    mem_bytes: Vec<u8>,
    /// Taken bit per branch record, packed in branch-ordinal order.
    branch_taken: Vec<u64>,
    /// Unconditional bit per branch record, packed likewise.
    branch_uncond: Vec<u64>,
    /// Cumulative offsets into `mem_deps`, one per memory record plus a
    /// trailing sentinel.
    mem_dep_offsets: Vec<u32>,
    /// Pre-resolved store-to-load dependences: ordinals of the recent
    /// stores overlapping each load (see the module invariants).
    mem_deps: Vec<u32>,
}

/// Compiles records into a [`ReplayImage`] one at a time, in trace order:
/// the one compile path, behind both [`ReplayImage::build`] and tracing
/// straight into an image (`valign-core`'s `Workload::trace_image`), so a
/// record never has to be kept once it has been pushed.
///
/// `push` takes records exactly as a [`Trace`] holds them — producer
/// indices count from the first pushed record — and [`ImageBuilder::finish`]
/// seals the image: it adds the dependence-offset sentinel and trims the
/// per-record arrays and presence masks to their exact length, so the
/// image is identical, down to [`ReplayImage::approx_bytes`], to one built
/// from the whole trace.
#[derive(Debug)]
pub struct ImageBuilder {
    img: ReplayImage,
    /// Branch records pushed so far (the next branch ordinal).
    branches: usize,
    /// The build-time mirror of the LSU's store queue: the last
    /// [`STORE_QUEUE_TRACK`] stores' (addr, bytes), in slot
    /// `ordinal % STORE_QUEUE_TRACK`.
    window: [(u64, u64); STORE_QUEUE_TRACK],
    /// The window indexed by 16-byte block: entry `block % BLOCK_BUCKETS`
    /// is the bitmask of the slots whose store touches a block of that
    /// bucket — every store touching the block, plus any touching a block
    /// a multiple of 4 KiB away, which the exact overlap test drops.
    block_slots: Vec<u64>,
    /// Stores pushed so far (the next store ordinal).
    stores_seen: u32,
}

// A slot bitmask is one `u64`.
const _: () = assert!(STORE_QUEUE_TRACK == 64);

/// Buckets of the builder's block index.
const BLOCK_BUCKETS: usize = 256;

/// The 16-byte blocks `[addr, addr + bytes)` touches (none when empty),
/// with the range clipped to the address-space top as
/// [`ranges_overlap`] clips it: two ranges that overlap share a block.
fn blocks_of(addr: u64, bytes: u64) -> std::ops::Range<u64> {
    match bytes {
        0 => 0..0,
        n => addr >> 4..(addr.saturating_add(n - 1) >> 4) + 1,
    }
}

/// The [`ImageBuilder::block_slots`] entry of `block`.
fn bucket(block: u64) -> usize {
    block as usize % BLOCK_BUCKETS
}

impl Default for ImageBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ImageBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty builder with room for `records` records in the
    /// per-record arrays.
    fn with_capacity(records: usize) -> Self {
        let mask_words = records.div_ceil(64);
        ImageBuilder {
            img: ReplayImage {
                len: 0,
                ops: Vec::with_capacity(records),
                flags: Vec::with_capacity(records),
                sids: Vec::with_capacity(records),
                src_defs: Vec::with_capacity(records),
                mem_mask: Vec::with_capacity(mask_words),
                branch_mask: Vec::with_capacity(mask_words),
                mem_addrs: Vec::new(),
                mem_bytes: Vec::new(),
                branch_taken: Vec::new(),
                branch_uncond: Vec::new(),
                mem_dep_offsets: Vec::new(),
                mem_deps: Vec::new(),
            },
            branches: 0,
            window: [(0, 0); STORE_QUEUE_TRACK],
            block_slots: vec![0; BLOCK_BUCKETS],
            stores_seen: 0,
        }
    }

    /// Compiles the next record of the trace.
    pub fn push(&mut self, instr: &DynInstr) {
        let img = &mut self.img;
        let idx = img.len;
        if idx.is_multiple_of(64) {
            img.mem_mask.push(0);
            img.branch_mask.push(0);
        }
        let mut f = 0u8;
        if let Some(mem) = instr.mem {
            f |= flags::MEM;
            img.mem_dep_offsets.push(img.mem_deps.len() as u32);
            let bytes = u64::from(mem.bytes);
            if mem.kind == MemKind::Store {
                f |= flags::STORE;
                // The slot's evicted store (none while the window fills:
                // an empty slot touches no block) leaves the index.
                let slot = self.stores_seen as usize % STORE_QUEUE_TRACK;
                let bit = 1u64 << slot;
                let (old_addr, old_bytes) = self.window[slot];
                for block in blocks_of(old_addr, old_bytes) {
                    self.block_slots[bucket(block)] &= !bit;
                }
                self.window[slot] = (mem.addr, bytes);
                for block in blocks_of(mem.addr, bytes) {
                    self.block_slots[bucket(block)] |= bit;
                }
                self.stores_seen += 1;
            } else {
                let mut slots = 0u64;
                for block in blocks_of(mem.addr, bytes) {
                    slots |= self.block_slots[bucket(block)];
                }
                // Bit `b` of the rotated mask is ordinal
                // `stores_seen - 64 + b`: lowest bit first is oldest first,
                // the store-queue scan's order.
                let mut oldest_first = slots.rotate_right(self.stores_seen % 64);
                while oldest_first != 0 {
                    let b = oldest_first.trailing_zeros();
                    oldest_first &= oldest_first - 1;
                    let ordinal = self.stores_seen + b - 64;
                    let (addr, len) = self.window[ordinal as usize % STORE_QUEUE_TRACK];
                    if ranges_overlap(addr, len, mem.addr, bytes) {
                        img.mem_deps.push(ordinal);
                    }
                }
            }
            if instr.is_unaligned_vector_access() {
                f |= flags::UNALIGNED;
            }
            set_bit(&mut img.mem_mask, idx);
            img.mem_addrs.push(mem.addr);
            img.mem_bytes.push(mem.bytes);
        }
        if let Some(br) = instr.branch {
            f |= flags::BRANCH;
            set_bit(&mut img.branch_mask, idx);
            if img.branch_taken.len() * 64 <= self.branches {
                img.branch_taken.push(0);
                img.branch_uncond.push(0);
            }
            if br.taken {
                set_bit(&mut img.branch_taken, self.branches);
            }
            if br.unconditional {
                set_bit(&mut img.branch_uncond, self.branches);
            }
            self.branches += 1;
        }
        match instr.dst {
            Some(valign_isa::Reg::Gpr(_)) => f |= flags::HAS_DST,
            Some(valign_isa::Reg::Vpr(_)) => f |= flags::HAS_DST | flags::DST_VPR,
            None => {}
        }
        img.ops.push(instr.op);
        img.flags.push(f);
        img.sids.push(instr.sid);
        img.src_defs.push(src_defs_of(instr, idx));
        img.len += 1;
    }

    /// Seals the image: pushes the dependence-offset sentinel and trims
    /// the per-record arrays and the presence masks (at least one word
    /// each, even when empty) to their exact length.
    pub fn finish(self) -> ReplayImage {
        let mut img = self.img;
        img.mem_dep_offsets.push(img.mem_deps.len() as u32);
        if img.len == 0 {
            img.mem_mask.push(0);
            img.branch_mask.push(0);
        }
        img.ops.shrink_to_fit();
        img.flags.shrink_to_fit();
        img.sids.shrink_to_fit();
        img.src_defs.shrink_to_fit();
        img.mem_mask.shrink_to_fit();
        img.branch_mask.shrink_to_fit();
        img
    }
}

impl ReplayImage {
    /// Compiles `trace` into its packed replay form. One forward pass;
    /// call once per trace and share the result (`Arc`) across
    /// configurations and threads.
    pub fn build(trace: &Trace) -> ReplayImage {
        let mut builder = ImageBuilder::with_capacity(trace.len());
        for instr in trace {
            builder.push(instr);
        }
        builder.finish()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the image is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of memory records (entries in the compact address array).
    pub fn memory_records(&self) -> usize {
        self.mem_addrs.len()
    }

    /// Number of branch records.
    pub fn branch_records(&self) -> usize {
        self.branch_mask
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Opcode of record `idx`.
    pub fn op(&self, idx: usize) -> Opcode {
        self.ops[idx]
    }

    /// Flag byte of record `idx` (see [`flags`]).
    pub fn record_flags(&self, idx: usize) -> u8 {
        self.flags[idx]
    }

    /// The memory access of record `idx`, if it has one: `(addr, bytes,
    /// kind)`. Random access through a popcount rank over the presence
    /// mask; the replay loop itself uses running cursors instead.
    pub fn mem_ref_at(&self, idx: usize) -> Option<(u64, u8, MemKind)> {
        if !get_bit(&self.mem_mask, idx) {
            return None;
        }
        let slot = rank(&self.mem_mask, idx);
        Some((
            self.mem_addrs[slot],
            self.mem_bytes[slot],
            mem_kind_of(self.flags[idx]),
        ))
    }

    /// The branch outcome of record `idx`, if it is a branch:
    /// `(taken, unconditional)`.
    pub fn branch_at(&self, idx: usize) -> Option<(bool, bool)> {
        if !get_bit(&self.branch_mask, idx) {
            return None;
        }
        let ord = rank(&self.branch_mask, idx);
        Some((
            get_bit(&self.branch_taken, ord),
            get_bit(&self.branch_uncond, ord),
        ))
    }

    /// Per-class dynamic instruction counts (a Table III row), read off
    /// the opcode column alone — equal to [`Trace::mix`] of the trace the
    /// image was compiled from, without needing the records.
    pub fn mix(&self) -> MixCounts {
        let mut m = MixCounts::new();
        for op in &self.ops {
            m.record(op.class());
        }
        m
    }

    /// Approximate heap footprint in bytes, for cache accounting.
    pub fn approx_bytes(&self) -> usize {
        self.ops.capacity()
            + self.flags.capacity()
            + self.sids.capacity() * std::mem::size_of::<StaticId>()
            + self.src_defs.capacity() * std::mem::size_of::<[u16; 3]>()
            + (self.mem_mask.capacity() + self.branch_mask.capacity()) * 8
            + self.mem_addrs.capacity() * 8
            + self.mem_bytes.capacity()
            + (self.branch_taken.capacity() + self.branch_uncond.capacity()) * 8
            + (self.mem_dep_offsets.capacity() + self.mem_deps.capacity()) * 4
    }

    /// Freezes the image behind an `Arc` for shared replay.
    pub fn into_shared(self) -> Arc<ReplayImage> {
        Arc::new(self)
    }

    /// Content checksum over every packed array (XXH64-style word hash,
    /// see [`crate::hash`]), domain-separated per array so a value moving
    /// between arrays changes the digest. `valign-core`'s store entry
    /// takes it once, on first demand, and the supervised path compares
    /// it once per entry (and on every sabotaged copy) before trusting the
    /// image.
    pub fn checksum(&self) -> u64 {
        // "valign-img" in the seed so image digests never collide with
        // other WordHash users (fault-site keys) on equal word streams.
        let mut h = WordHash::new(0x7661_6c69_676e_0001);
        let mut section = |tag: u64, words: &mut dyn Iterator<Item = u64>| {
            h.write_u64(tag);
            let mut n = 0u64;
            for w in words {
                h.write_u64(w);
                n += 1;
            }
            h.write_u64(n);
        };
        section(1, &mut std::iter::once(self.len as u64));
        section(2, &mut self.ops.iter().map(|op| op.index() as u64));
        section(4, &mut self.flags.iter().map(|&f| u64::from(f)));
        section(5, &mut self.sids.iter().map(|s| u64::from(s.0)));
        section(
            6,
            &mut self
                .src_defs
                .iter()
                .flat_map(|defs| defs.iter().map(|&d| u64::from(d))),
        );
        section(7, &mut self.mem_mask.iter().copied());
        section(8, &mut self.branch_mask.iter().copied());
        section(9, &mut self.mem_addrs.iter().copied());
        section(10, &mut self.mem_bytes.iter().map(|&b| u64::from(b)));
        section(11, &mut self.branch_taken.iter().copied());
        section(12, &mut self.branch_uncond.iter().copied());
        section(13, &mut self.mem_dep_offsets.iter().map(|&o| u64::from(o)));
        section(14, &mut self.mem_deps.iter().map(|&d| u64::from(d)));
        h.finish()
    }

    /// Every structural invariant [`ReplayImage::build`] establishes (see
    /// the module docs) that this image breaks, one
    /// [`SimError::CorruptImage`] each — empty on a well-formed image. The
    /// one structural checker: [`ReplayImage::validate`] is its first
    /// finding, and `valign-analyze`'s `image-structure` rule reports all
    /// of them.
    ///
    /// Whole-image checks: the four per-record array lengths, mask word
    /// counts and tail bits, mask popcounts against the compact arrays,
    /// and the dependence-offset count, monotonicity and end. Per-record
    /// checks (over the common prefix of the per-record arrays): flags
    /// against both presence masks; `MEM`/`STORE` and `UNALIGNED` against
    /// the opcode; `DST_VPR` implies `HAS_DST`; no producer distance
    /// reaches before record 0 (the only impossible distance, so the
    /// guarded walk needs no producer check of its own). Per-record
    /// findings stop at [`MAX_RECORD_VIOLATIONS`], followed by one summary
    /// of how many more there were.
    ///
    /// Deliberately *not* checked here: whether dependence ordinals are
    /// in bounds, backward, and inside the LSU's trailing store window —
    /// that is the store ring's runtime invariant, enforced by the guarded
    /// replay path itself ([`SimError::DepOutOfWindow`]), so corruption the
    /// static pass cannot see is still caught one rung later.
    pub fn violations(&self) -> Vec<SimError> {
        let n = self.len;
        let corrupt =
            |index: Option<usize>, detail: String| SimError::CorruptImage { index, detail };
        let mut out = Vec::new();
        let lengths: [(&str, usize); 4] = [
            ("ops", self.ops.len()),
            ("flags", self.flags.len()),
            ("sids", self.sids.len()),
            ("src_defs", self.src_defs.len()),
        ];
        for (name, len) in lengths {
            if len != n {
                out.push(corrupt(
                    None,
                    format!("side array {name} has {len} entries, expected {n} — truncated image"),
                ));
            }
        }
        let mask_words = n.div_ceil(64).max(1);
        let masks_sized = self.mem_mask.len() == mask_words && self.branch_mask.len() == mask_words;
        if !masks_sized {
            out.push(corrupt(
                None,
                format!(
                    "presence masks have {}/{} words, expected {mask_words} for {n} records",
                    self.mem_mask.len(),
                    self.branch_mask.len()
                ),
            ));
        }
        let spare = mask_words * 64 - n;
        for (name, words) in [("memory", &self.mem_mask), ("branch", &self.branch_mask)] {
            if masks_sized && spare != 0 && words[mask_words - 1] >> (64 - spare) != 0 {
                out.push(corrupt(
                    None,
                    format!("{name} presence mask has bits past the last record"),
                ));
            }
        }
        let popcount = |words: &[u64]| words.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        let mem_records = popcount(&self.mem_mask);
        if self.mem_addrs.len() != mem_records || self.mem_bytes.len() != mem_records {
            out.push(corrupt(
                None,
                format!(
                    "memory presence popcount is {mem_records} but the compact arrays hold \
                     {} addresses / {} widths",
                    self.mem_addrs.len(),
                    self.mem_bytes.len()
                ),
            ));
        }
        let branches = popcount(&self.branch_mask);
        let branch_words = branches.div_ceil(64);
        if self.branch_taken.len() != branch_words || self.branch_uncond.len() != branch_words {
            out.push(corrupt(
                None,
                format!(
                    "branch presence popcount is {branches} ({branch_words} outcome words) but \
                     {}/{} taken/unconditional words are stored",
                    self.branch_taken.len(),
                    self.branch_uncond.len()
                ),
            ));
        }
        let offsets = &self.mem_dep_offsets;
        let deps = self.mem_deps.len();
        if offsets.len() != mem_records + 1 {
            out.push(corrupt(
                None,
                format!(
                    "{} dependence offsets for {mem_records} memory records (want {})",
                    offsets.len(),
                    mem_records + 1
                ),
            ));
        } else if let Some(c) = (0..offsets.len())
            .find(|&c| offsets[c] as usize > deps || (c > 0 && offsets[c] < offsets[c - 1]))
        {
            let prev = if c > 0 { offsets[c - 1] } else { 0 };
            out.push(corrupt(
                None,
                format!(
                    "dependence offset {} at cursor {c} breaks monotonicity \
                     (prev {prev}, {deps} deps stored)",
                    offsets[c]
                ),
            ));
        } else if offsets[mem_records] as usize != deps {
            out.push(corrupt(
                None,
                format!(
                    "dependence offsets end at {}, but {deps} deps are stored",
                    offsets[mem_records]
                ),
            ));
        }

        // Per-opcode expectations, resolved once rather than per record:
        // (MEM/STORE bits, unaligned-capable).
        let expect: [(u8, bool); Opcode::COUNT] = std::array::from_fn(|i| {
            let op = Opcode::ALL[i];
            let mut mem_bits = 0;
            if op.touches_memory() {
                mem_bits |= flags::MEM;
            }
            if op.is_store() {
                mem_bits |= flags::STORE;
            }
            (mem_bits, op.is_unaligned_capable())
        });
        let records = lengths.iter().fold(n, |m, &(_, len)| m.min(len));
        let mut sites = 0usize;
        let mut record = |idx: usize, detail: String| {
            sites += 1;
            if sites <= MAX_RECORD_VIOLATIONS {
                out.push(corrupt(Some(idx), detail));
            }
        };
        for idx in 0..records {
            let (op, f) = (self.ops[idx], self.flags[idx]);
            let (want_mem, unaligned_ok) = expect[op.index()];
            if masks_sized {
                if (f & flags::MEM != 0) != get_bit(&self.mem_mask, idx) {
                    record(idx, "MEM flag disagrees with the presence mask".into());
                }
                if (f & flags::BRANCH != 0) != get_bit(&self.branch_mask, idx) {
                    record(idx, "BRANCH flag disagrees with the presence mask".into());
                }
            }
            let mem = f & flags::MEM != 0;
            if mem != (want_mem & flags::MEM != 0) {
                let touches = if mem { "does not touch" } else { "touches" };
                record(
                    idx,
                    format!(
                        "MEM flag is {mem} but opcode {} {touches} memory",
                        op.mnemonic()
                    ),
                );
            }
            let store = f & flags::STORE != 0;
            if store && !mem {
                record(idx, "STORE without MEM".into());
            } else if mem && store != (want_mem & flags::STORE != 0) {
                let kind = if store { "load" } else { "store" };
                record(
                    idx,
                    format!(
                        "STORE flag is {store} but opcode {} is a {kind}",
                        op.mnemonic()
                    ),
                );
            }
            if f & flags::UNALIGNED != 0 {
                if !mem {
                    record(idx, "UNALIGNED without MEM".into());
                } else if !unaligned_ok {
                    record(
                        idx,
                        format!(
                            "UNALIGNED flag on opcode {}, which always truncates its EA",
                            op.mnemonic()
                        ),
                    );
                }
            }
            if f & flags::DST_VPR != 0 && f & flags::HAS_DST == 0 {
                record(idx, "DST_VPR without HAS_DST".into());
            }
            for &d in &self.src_defs[idx] {
                if usize::from(d) > idx {
                    record(
                        idx,
                        format!("producer distance {d} reaches before record 0"),
                    );
                }
            }
        }
        if sites > MAX_RECORD_VIOLATIONS {
            out.push(corrupt(
                None,
                format!(
                    "{} further per-record violation(s) suppressed (cap {MAX_RECORD_VIOLATIONS})",
                    sites - MAX_RECORD_VIOLATIONS
                ),
            ));
        }
        out
    }

    /// The first of [`ReplayImage::violations`], or `Ok` on a well-formed
    /// image — the static rung of the integrity ladder, run by the
    /// supervised replay path and the store's decode path.
    pub fn validate(&self) -> Result<(), SimError> {
        self.violations().into_iter().next().map_or(Ok(()), Err)
    }

    /// Deterministically corrupts the image for fault injection — the
    /// write half of the integrity story, used only by `valign-core`'s
    /// fault injector (on a private clone; store-resident images stay
    /// immutable). `site` selects the corrupted position; equal
    /// `(kind, site)` on equal images produce equal corruption. Returns
    /// `false` when the image is empty and there is nothing to corrupt.
    ///
    /// `Truncate`, `FlagBitFlip`, `CursorCorrupt` and `DanglingDef` are
    /// caught statically by [`ReplayImage::validate`]; `DepOverflow`
    /// passes validation and is caught mid-replay by the guarded engine
    /// ([`SimError::DepOutOfWindow`]), except on an image with no
    /// dependence list, where it falls back to `DanglingDef`.
    pub fn sabotage(&mut self, kind: Sabotage, site: u64) -> bool {
        if self.len == 0 {
            return false;
        }
        let idx = (site % self.len as u64) as usize;
        match kind {
            Sabotage::Truncate => {
                self.ops.truncate(idx);
                self.flags.truncate(idx);
                self.sids.truncate(idx);
                self.src_defs.truncate(idx);
            }
            Sabotage::FlagBitFlip => self.flags[idx] ^= flags::MEM,
            Sabotage::CursorCorrupt => {
                if self.mem_dep_offsets.len() > 1 {
                    let i = 1 + site as usize % (self.mem_dep_offsets.len() - 1);
                    self.mem_dep_offsets[i] = self.mem_dep_offsets[i].wrapping_add(0x4000_0000);
                } else {
                    // No memory records to misdirect a cursor through; flip
                    // a branch flag instead so the image is still corrupt.
                    self.flags[idx] ^= flags::BRANCH;
                }
            }
            Sabotage::DepOverflow => {
                if self.mem_deps.is_empty() {
                    // No dependence lists to overflow; bend a producer
                    // instead, which the static rung refuses.
                    return self.sabotage(Sabotage::DanglingDef, site);
                }
                let i = site as usize % self.mem_deps.len();
                self.mem_deps[i] = u32::MAX - 1;
            }
            Sabotage::DanglingDef => {
                // A producer before record 0: the one distance a recorded
                // trace cannot produce, and the one validation refuses.
                let idx = idx.min(usize::from(u16::MAX) - 1);
                self.src_defs[idx][0] = idx as u16 + 1;
            }
        }
        true
    }

    /// Serializes every packed array into its wire section —
    /// `(section id, little-endian payload)` in [`wire::ALL`] order — for
    /// the `valign-store` on-disk container. The record count is not a
    /// section; the container carries it in its header. Inverse of
    /// [`ReplayImage::from_sections`].
    pub fn encode_sections(&self) -> Vec<(u32, Vec<u8>)> {
        fn le16(vals: impl Iterator<Item = u16>) -> Vec<u8> {
            vals.flat_map(u16::to_le_bytes).collect()
        }
        fn le32(vals: impl Iterator<Item = u32>) -> Vec<u8> {
            vals.flat_map(u32::to_le_bytes).collect()
        }
        fn le64(vals: impl Iterator<Item = u64>) -> Vec<u8> {
            vals.flat_map(u64::to_le_bytes).collect()
        }
        vec![
            (wire::OPS, le16(self.ops.iter().map(|op| op.index() as u16))),
            (wire::FLAGS, self.flags.clone()),
            (wire::SIDS, le16(self.sids.iter().map(|s| s.0))),
            (
                wire::SRC_DEFS,
                le16(self.src_defs.iter().flatten().copied()),
            ),
            (wire::MEM_MASK, le64(self.mem_mask.iter().copied())),
            (wire::BRANCH_MASK, le64(self.branch_mask.iter().copied())),
            (wire::MEM_ADDRS, le64(self.mem_addrs.iter().copied())),
            (wire::MEM_BYTES, self.mem_bytes.clone()),
            (wire::BRANCH_TAKEN, le64(self.branch_taken.iter().copied())),
            (
                wire::BRANCH_UNCOND,
                le64(self.branch_uncond.iter().copied()),
            ),
            (
                wire::MEM_DEP_OFFSETS,
                le32(self.mem_dep_offsets.iter().copied()),
            ),
            (wire::MEM_DEPS, le32(self.mem_deps.iter().copied())),
        ]
    }

    /// Rebuilds an image from its wire sections (`len` is the record
    /// count from the container header). Whole-section reads into owned
    /// dense arrays — no `unsafe`, no per-element parsing beyond the
    /// little-endian chunking.
    ///
    /// This only decodes *shape*: payload widths, element divisibility
    /// and opcode range. Structural consistency (array lengths against
    /// `len`, mask/cursor agreement, producer bounds) is
    /// [`ReplayImage::validate`]'s job, and content integrity is the
    /// checksum's — the store's load path runs all three rungs.
    pub fn from_sections(len: usize, sections: &[(u32, &[u8])]) -> Result<ReplayImage, String> {
        fn de16(bytes: &[u8], what: &str) -> Result<Vec<u16>, String> {
            if !bytes.len().is_multiple_of(2) {
                return Err(format!("{what}: {} bytes is not u16-aligned", bytes.len()));
            }
            Ok(bytes
                .chunks_exact(2)
                .map(|c| u16::from_le_bytes([c[0], c[1]]))
                .collect())
        }
        fn de32(bytes: &[u8], what: &str) -> Result<Vec<u32>, String> {
            if !bytes.len().is_multiple_of(4) {
                return Err(format!("{what}: {} bytes is not u32-aligned", bytes.len()));
            }
            Ok(bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect())
        }
        fn de64(bytes: &[u8], what: &str) -> Result<Vec<u64>, String> {
            if !bytes.len().is_multiple_of(8) {
                return Err(format!("{what}: {} bytes is not u64-aligned", bytes.len()));
            }
            Ok(bytes
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
                .collect())
        }
        let mut payloads: Vec<Option<&[u8]>> = vec![None; wire::ALL.len()];
        for &(id, bytes) in sections {
            let pos = wire::ALL
                .iter()
                .position(|&w| w == id)
                .ok_or_else(|| format!("unknown section id {id}"))?;
            if payloads[pos].replace(bytes).is_some() {
                return Err(format!("duplicate section {}", wire::name(id)));
            }
        }
        let get = |id: u32| -> Result<&[u8], String> {
            let pos = wire::ALL
                .iter()
                .position(|&w| w == id)
                .expect("ids above come from wire::ALL");
            payloads[pos].ok_or_else(|| format!("missing section {}", wire::name(id)))
        };
        let ops = de16(get(wire::OPS)?, "ops")?
            .into_iter()
            .map(|i| {
                Opcode::ALL
                    .get(usize::from(i))
                    .copied()
                    .ok_or_else(|| format!("ops: opcode index {i} out of range"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let src_defs_raw = de16(get(wire::SRC_DEFS)?, "src_defs")?;
        if src_defs_raw.len() % 3 != 0 {
            return Err(format!(
                "src_defs: {} slots is not a whole number of 3-slot records",
                src_defs_raw.len()
            ));
        }
        Ok(ReplayImage {
            len,
            ops,
            flags: get(wire::FLAGS)?.to_vec(),
            sids: de16(get(wire::SIDS)?, "sids")?
                .into_iter()
                .map(StaticId)
                .collect(),
            src_defs: src_defs_raw
                .chunks_exact(3)
                .map(|c| [c[0], c[1], c[2]])
                .collect(),
            mem_mask: de64(get(wire::MEM_MASK)?, "mem_mask")?,
            branch_mask: de64(get(wire::BRANCH_MASK)?, "branch_mask")?,
            mem_addrs: de64(get(wire::MEM_ADDRS)?, "mem_addrs")?,
            mem_bytes: get(wire::MEM_BYTES)?.to_vec(),
            branch_taken: de64(get(wire::BRANCH_TAKEN)?, "branch_taken")?,
            branch_uncond: de64(get(wire::BRANCH_UNCOND)?, "branch_uncond")?,
            mem_dep_offsets: de32(get(wire::MEM_DEP_OFFSETS)?, "mem_dep_offsets")?,
            mem_deps: de32(get(wire::MEM_DEPS)?, "mem_deps")?,
        })
    }

    /// Deterministically seeds one *audit-rule* violation — the
    /// counterpart of [`ReplayImage::sabotage`] for the static
    /// `valign-analyze` image rules. Each kind produces an image that one
    /// named audit rule must reject; see [`AuditSabotage`]. Returns
    /// `false` when the image has no site for the requested corruption
    /// (e.g. no dependence lists to bend).
    pub fn sabotage_audit(&mut self, kind: AuditSabotage) -> bool {
        match kind {
            AuditSabotage::MaskPopcountLie => {
                // Claim memory presence on a record that carries no MEM
                // flag and no compact entry: popcount(mem_mask) now
                // exceeds mem_addrs.len().
                let Some(idx) = (0..self.len).find(|&i| self.flags[i] & flags::MEM == 0) else {
                    return false;
                };
                set_bit(&mut self.mem_mask, idx);
                true
            }
            AuditSabotage::DepCycle => {
                // Point a load's first dependence ordinal at a store that
                // executes only *after* the load — forward in program
                // order, i.e. a cycle through the dependence relation.
                let total_stores = self
                    .flags
                    .iter()
                    .filter(|&&f| f & flags::STORE != 0)
                    .count() as u32;
                let mut stores_seen = 0u32;
                let mut cursor = 0usize;
                for &f in &self.flags {
                    if f & flags::MEM == 0 {
                        continue;
                    }
                    let lo = self.mem_dep_offsets[cursor] as usize;
                    let hi = self.mem_dep_offsets[cursor + 1] as usize;
                    if f & flags::STORE != 0 {
                        stores_seen += 1;
                    } else if lo < hi && stores_seen < total_stores {
                        // `stores_seen` is the ordinal of the *next* store
                        // — one the load cannot legally depend on.
                        self.mem_deps[lo] = stores_seen;
                        return true;
                    }
                    cursor += 1;
                }
                false
            }
            AuditSabotage::DepOutOfRange => {
                let Some(first) = self.mem_deps.first_mut() else {
                    return false;
                };
                *first = u32::MAX - 1;
                true
            }
            AuditSabotage::SideArrayTruncate => self.sids.pop().is_some(),
        }
    }

    // ---- introspection views -----------------------------------------
    //
    // Dense read-only views over the packed arrays. The engine's hot
    // path iterates these; `valign-analyze`'s audit rules and the static
    // cost model ([`crate::costmodel`]) read the same views, so the
    // structure the rules certify is exactly the structure the replay
    // loop consumes.

    /// Opcode per record.
    pub fn ops(&self) -> &[Opcode] {
        &self.ops
    }

    /// Flag byte per record (see [`flags`]).
    pub fn flags(&self) -> &[u8] {
        &self.flags
    }

    /// Static site per record.
    pub fn sids(&self) -> &[StaticId] {
        &self.sids
    }

    /// Producer back-distances per record (producer `idx − d`),
    /// [`NO_DEF`] marking slots with no producer in reach.
    pub fn src_defs(&self) -> &[[u16; 3]] {
        &self.src_defs
    }

    /// Effective addresses, one per memory record, in record order.
    pub fn mem_addrs(&self) -> &[u64] {
        &self.mem_addrs
    }

    /// Access widths, parallel to [`ReplayImage::mem_addrs`].
    pub fn mem_bytes(&self) -> &[u8] {
        &self.mem_bytes
    }

    /// Pre-resolved store-to-load dependences of the `cursor`-th memory
    /// record: ordinals of the overlapping recent stores (empty for
    /// stores and dependence-free loads).
    ///
    /// Panics when the offset table is corrupt; an image that did not come
    /// straight from [`ReplayImage::build`] must pass
    /// [`ReplayImage::validate`] first.
    pub fn mem_deps_at(&self, cursor: usize) -> &[u32] {
        let lo = self.mem_dep_offsets[cursor] as usize;
        let hi = self.mem_dep_offsets[cursor + 1] as usize;
        &self.mem_deps[lo..hi]
    }

    /// Taken bit of the `ord`-th branch record.
    pub(crate) fn branch_taken_bit(&self, ord: usize) -> bool {
        get_bit(&self.branch_taken, ord)
    }

    /// Unconditional bit of the `ord`-th branch record.
    pub(crate) fn branch_uncond_bit(&self, ord: usize) -> bool {
        get_bit(&self.branch_uncond, ord)
    }
}

/// A shared [`ReplayImage`] that passed [`ReplayImage::validate`] — the
/// proof [`crate::Simulator::try_simulate_verified`] asks for instead of
/// validating again. [`VerifiedImage::new`] is the only constructor and
/// it validates, so no unchecked image can reach that walk. The image is
/// immutable behind its `Arc`, so the proof holds for every clone and
/// every later replay.
#[derive(Debug, Clone)]
pub struct VerifiedImage(Arc<ReplayImage>);

impl VerifiedImage {
    /// Validates `image` and, if it is well-formed, wraps it as proven.
    pub fn new(image: Arc<ReplayImage>) -> Result<Self, SimError> {
        image.validate()?;
        Ok(VerifiedImage(image))
    }

    /// The proven image's `Arc`.
    pub fn shared(&self) -> &Arc<ReplayImage> {
        &self.0
    }

    /// Gives up the proof and returns the image's `Arc`.
    pub fn into_inner(self) -> Arc<ReplayImage> {
        self.0
    }
}

impl std::ops::Deref for VerifiedImage {
    type Target = ReplayImage;

    fn deref(&self) -> &ReplayImage {
        &self.0
    }
}

/// Decodes the destination file straight from a recorded instruction —
/// the record-form counterpart of [`DstFile::from_flags`].
pub(crate) fn dst_file_of(instr: &DynInstr) -> DstFile {
    match instr.dst {
        None => DstFile::None,
        Some(valign_isa::Reg::Gpr(_)) => DstFile::Gpr,
        Some(valign_isa::Reg::Vpr(_)) => DstFile::Vpr,
    }
}

/// Packs the producers of `instr`, recorded at index `idx`, as
/// back-distances, one per source slot — the [`ReplayImage::src_defs`]
/// entry of the record. [`NO_DEF`] marks a slot with no producer in reach:
/// absent, external, farther back than `u16::MAX`, or not before the
/// record at all (impossible in a recorded trace; `trace-wellformed`
/// reports it).
pub(crate) fn src_defs_of(instr: &DynInstr, idx: usize) -> [u16; 3] {
    let mut defs = [NO_DEF; 3];
    for (slot, src) in defs.iter_mut().zip(instr.srcs.iter()) {
        if let Some(p) = src.and_then(|s| s.def) {
            *slot = idx
                .checked_sub(p as usize)
                .and_then(|d| u16::try_from(d).ok())
                .unwrap_or(NO_DEF);
        }
    }
    defs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use valign_isa::{BranchInfo, Gpr, MemRef, SrcRef, Vpr};

    fn sid(n: u16) -> StaticId {
        StaticId(n)
    }

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        t.push(DynInstr::alu(
            Opcode::Li,
            sid(1),
            Some(Gpr::new(1).into()),
            &[],
        ));
        t.push(DynInstr::mem(
            Opcode::Lvxu,
            sid(2),
            Some(Vpr::new(0).into()),
            &[SrcRef::produced_by(Gpr::new(1).into(), 0)],
            MemRef {
                addr: 0x1003,
                bytes: 16,
                kind: MemKind::Load,
            },
        ));
        t.push(DynInstr::mem(
            Opcode::Stw,
            sid(3),
            None,
            &[SrcRef::produced_by(Gpr::new(1).into(), 0)],
            MemRef {
                addr: 0x2000,
                bytes: 4,
                kind: MemKind::Store,
            },
        ));
        t.push(DynInstr::branch(
            Opcode::Bc,
            sid(4),
            &[SrcRef::external(Gpr::new(2).into())],
            BranchInfo {
                taken: true,
                target: sid(1),
                unconditional: false,
            },
        ));
        t
    }

    #[test]
    fn build_packs_every_record_kind() {
        let t = sample_trace();
        let img = ReplayImage::build(&t);
        assert_eq!(img.len(), 4);
        assert!(!img.is_empty());
        assert_eq!(img.memory_records(), 2);
        assert_eq!(img.branch_records(), 1);

        // ALU record: dst in GPR file, no mem, no branch.
        assert_eq!(img.op(0), Opcode::Li);
        assert_eq!(DstFile::from_flags(img.record_flags(0)), DstFile::Gpr);
        assert_eq!(img.mem_ref_at(0), None);
        assert_eq!(img.branch_at(0), None);
        assert_eq!(img.src_defs()[0], [NO_DEF; 3]);

        // Unaligned vector load: MEM + UNALIGNED, VPR dst, producer 0 one
        // record back.
        let f = img.record_flags(1);
        assert_ne!(f & flags::MEM, 0);
        assert_eq!(f & flags::STORE, 0);
        assert_ne!(f & flags::UNALIGNED, 0);
        assert_eq!(DstFile::from_flags(f), DstFile::Vpr);
        assert_eq!(img.mem_ref_at(1), Some((0x1003, 16, MemKind::Load)));
        assert_eq!(img.src_defs()[1], [1, NO_DEF, NO_DEF]);

        // Aligned scalar store: MEM + STORE, no dst.
        let f = img.record_flags(2);
        assert_ne!(f & flags::STORE, 0);
        assert_eq!(f & flags::UNALIGNED, 0);
        assert_eq!(DstFile::from_flags(f), DstFile::None);
        assert_eq!(img.mem_ref_at(2), Some((0x2000, 4, MemKind::Store)));

        // Branch record: taken, conditional.
        assert_ne!(img.record_flags(3) & flags::BRANCH, 0);
        assert_eq!(img.branch_at(3), Some((true, false)));
        assert!(img.branch_taken_bit(0));
        assert!(!img.branch_uncond_bit(0));
    }

    #[test]
    fn image_agrees_with_trace_record_by_record() {
        let t = sample_trace();
        let img = ReplayImage::build(&t);
        for (idx, instr) in t.iter().enumerate() {
            assert_eq!(img.op(idx), instr.op);
            assert_eq!(img.sids()[idx], instr.sid);
            assert_eq!(
                img.mem_ref_at(idx),
                instr.mem.map(|m| (m.addr, m.bytes, m.kind))
            );
            assert_eq!(
                img.branch_at(idx),
                instr.branch.map(|b| (b.taken, b.unconditional))
            );
            assert_eq!(
                DstFile::from_flags(img.record_flags(idx)),
                dst_file_of(instr)
            );
            let defs: Vec<u32> = img.src_defs()[idx]
                .iter()
                .filter(|&&d| d != NO_DEF)
                .map(|&d| (idx - usize::from(d)) as u32)
                .collect();
            assert_eq!(defs, instr.source_defs().collect::<Vec<_>>());
            assert_eq!(
                instr.is_unaligned_vector_access(),
                img.record_flags(idx) & flags::UNALIGNED != 0
            );
        }
    }

    #[test]
    fn empty_trace_builds_empty_image() {
        let img = ReplayImage::build(&Trace::new());
        assert_eq!(img.len(), 0);
        assert!(img.is_empty());
        assert_eq!(img.memory_records(), 0);
        assert_eq!(img.branch_records(), 0);
        assert!(img.approx_bytes() < 64);
    }

    #[test]
    fn rank_spans_word_boundaries() {
        // >64 records so the presence masks span multiple words.
        let mut t = Trace::new();
        for i in 0..200u64 {
            if i % 3 == 0 {
                t.push(DynInstr::mem(
                    Opcode::Lwz,
                    sid(i as u16),
                    Some(Gpr::new((i % 32) as u8).into()),
                    &[],
                    MemRef {
                        addr: 0x1000 + i * 4,
                        bytes: 4,
                        kind: MemKind::Load,
                    },
                ));
            } else {
                t.push(DynInstr::alu(Opcode::Li, sid(i as u16), None, &[]));
            }
        }
        let img = ReplayImage::build(&t);
        let mut seen = 0usize;
        for i in 0..200usize {
            if i % 3 == 0 {
                let (addr, bytes, kind) = img.mem_ref_at(i).expect("memory record");
                assert_eq!(addr, 0x1000 + i as u64 * 4);
                assert_eq!((bytes, kind), (4, MemKind::Load));
                seen += 1;
            } else {
                assert_eq!(img.mem_ref_at(i), None);
            }
        }
        assert_eq!(seen, img.memory_records());
    }

    #[test]
    fn mem_deps_match_a_store_queue_scan() {
        // Stores and loads over a small address range so overlaps are
        // frequent, with enough stores to exercise window eviction.
        let mut t = Trace::new();
        for i in 0..400u64 {
            let addr = 0x1000 + (i * 37) % 256;
            if i % 3 != 0 {
                t.push(DynInstr::mem(
                    Opcode::Stw,
                    sid(i as u16),
                    None,
                    &[],
                    MemRef {
                        addr,
                        bytes: 4,
                        kind: MemKind::Store,
                    },
                ));
            } else {
                t.push(DynInstr::mem(
                    Opcode::Lwz,
                    sid(i as u16),
                    Some(Gpr::new((i % 32) as u8).into()),
                    &[],
                    MemRef {
                        addr,
                        bytes: 8,
                        kind: MemKind::Load,
                    },
                ));
            }
        }
        let img = ReplayImage::build(&t);
        assert_eq!(img.mem_dep_offsets.len(), img.memory_records() + 1);

        // Brute-force mirror of the LSU's store queue.
        let mut queue: VecDeque<(u64, u64, u32)> = VecDeque::new();
        let mut stores = 0u32;
        let mut dep_total = 0usize;
        for (cursor, instr) in t.iter().enumerate() {
            let mem = instr.mem.expect("all records access memory");
            if mem.kind == MemKind::Store {
                assert!(img.mem_deps_at(cursor).is_empty(), "stores have no deps");
                if queue.len() == STORE_QUEUE_TRACK {
                    queue.pop_front();
                }
                queue.push_back((mem.addr, u64::from(mem.bytes), stores));
                stores += 1;
            } else {
                let expect: Vec<u32> = queue
                    .iter()
                    .filter(|&&(a, b, _)| ranges_overlap(a, b, mem.addr, u64::from(mem.bytes)))
                    .map(|&(_, _, ord)| ord)
                    .collect();
                assert_eq!(img.mem_deps_at(cursor), expect.as_slice());
                dep_total += expect.len();
            }
        }
        assert!(dep_total > 0, "the pattern must exercise real overlaps");
        assert!(
            stores as usize > STORE_QUEUE_TRACK,
            "the pattern must exercise window eviction"
        );
    }

    #[test]
    fn clean_images_validate_and_checksum_stably() {
        let t = sample_trace();
        let img = ReplayImage::build(&t);
        img.validate().expect("fresh images are well-formed");
        assert_eq!(
            img.checksum(),
            img.checksum(),
            "checksum is a pure function"
        );
        assert_eq!(
            img.checksum(),
            ReplayImage::build(&t).checksum(),
            "equal traces build equal digests"
        );
        let empty = ReplayImage::build(&Trace::new());
        empty.validate().expect("empty image is well-formed");
        assert_ne!(empty.checksum(), img.checksum());
    }

    #[test]
    fn every_sabotage_kind_changes_the_checksum() {
        let t = sample_trace();
        let clean = ReplayImage::build(&t);
        let base = clean.checksum();
        for kind in [
            Sabotage::Truncate,
            Sabotage::FlagBitFlip,
            Sabotage::CursorCorrupt,
            Sabotage::DepOverflow,
            Sabotage::DanglingDef,
        ] {
            let mut img = clean.clone();
            assert!(img.sabotage(kind, 7), "{kind:?} must apply");
            assert_ne!(img.checksum(), base, "{kind:?} must perturb the digest");
        }
        let mut empty = ReplayImage::build(&Trace::new());
        assert!(
            !empty.sabotage(Sabotage::FlagBitFlip, 7),
            "nothing to corrupt"
        );
    }

    #[test]
    fn static_sabotage_kinds_fail_validation() {
        let t = sample_trace();
        let clean = ReplayImage::build(&t);
        for kind in [
            Sabotage::Truncate,
            Sabotage::FlagBitFlip,
            Sabotage::CursorCorrupt,
            Sabotage::DanglingDef,
        ] {
            for site in 0..8 {
                let mut img = clean.clone();
                img.sabotage(kind, site);
                assert!(
                    matches!(img.validate(), Err(SimError::CorruptImage { .. })),
                    "{kind:?} at site {site} must fail validation"
                );
            }
        }
    }

    #[test]
    fn dep_overflow_passes_static_validation_unless_it_falls_back() {
        // DepOverflow is the fault validate() deliberately leaves to the
        // guarded replay walk (layered detection)...
        let mut t = sample_trace();
        t.push(DynInstr::mem(
            Opcode::Lwz,
            sid(5),
            Some(Gpr::new(3).into()),
            &[],
            MemRef {
                addr: 0x2000,
                bytes: 4,
                kind: MemKind::Load,
            },
        ));
        let mut img = ReplayImage::build(&t);
        assert!(img.sabotage(Sabotage::DepOverflow, 1));
        img.validate()
            .unwrap_or_else(|e| panic!("DepOverflow must survive validate, got {e}"));
        // ...but with no dependence list to bend it dangles a producer,
        // which the static rung refuses.
        let mut img = ReplayImage::build(&sample_trace());
        assert!(img.sabotage(Sabotage::DepOverflow, 1));
        assert!(matches!(
            img.validate(),
            Err(SimError::CorruptImage { index: Some(1), .. })
        ));
    }

    #[test]
    fn audit_sabotage_kinds_apply_and_perturb_the_checksum() {
        // A trace with a load that depends on an earlier store *and* a
        // later store to re-point at, so every audit kind has a site.
        let mut t = Trace::new();
        t.push(DynInstr::alu(Opcode::Li, sid(0), None, &[]));
        for i in 0..3u16 {
            t.push(DynInstr::mem(
                Opcode::Stw,
                sid(1 + i),
                None,
                &[],
                MemRef {
                    addr: 0x1000,
                    bytes: 4,
                    kind: MemKind::Store,
                },
            ));
            t.push(DynInstr::mem(
                Opcode::Lwz,
                sid(10 + i),
                Some(Gpr::new(1).into()),
                &[],
                MemRef {
                    addr: 0x1000,
                    bytes: 4,
                    kind: MemKind::Load,
                },
            ));
        }
        let clean = ReplayImage::build(&t);
        let base = clean.checksum();
        for kind in [
            AuditSabotage::MaskPopcountLie,
            AuditSabotage::DepCycle,
            AuditSabotage::DepOutOfRange,
            AuditSabotage::SideArrayTruncate,
        ] {
            let mut img = clean.clone();
            assert!(img.sabotage_audit(kind), "{kind:?} must apply");
            assert_ne!(img.checksum(), base, "{kind:?} must perturb the digest");
        }
        // DepCycle rewrote a real forward ordinal: the chosen load now
        // names a store that has not executed yet.
        let mut img = clean.clone();
        assert!(img.sabotage_audit(AuditSabotage::DepCycle));
        let mut stores_seen = 0u32;
        let mut cursor = 0usize;
        let mut found_forward = false;
        for &f in img.flags() {
            if f & flags::MEM == 0 {
                continue;
            }
            if f & flags::STORE != 0 {
                stores_seen += 1;
            } else {
                found_forward |= img.mem_deps_at(cursor).iter().any(|&o| o >= stores_seen);
            }
            cursor += 1;
        }
        assert!(found_forward, "DepCycle must seed a forward dependence");

        let mut empty = ReplayImage::build(&Trace::new());
        for kind in [
            AuditSabotage::MaskPopcountLie,
            AuditSabotage::DepCycle,
            AuditSabotage::DepOutOfRange,
            AuditSabotage::SideArrayTruncate,
        ] {
            assert!(!empty.sabotage_audit(kind), "{kind:?}: nothing to corrupt");
        }
    }

    #[test]
    fn validate_rejects_handmade_structural_damage() {
        let t = sample_trace();
        let mut img = ReplayImage::build(&t);
        img.flags[2] |= flags::DST_VPR; // vector destination on a store
        assert!(img.validate().is_err());
        let mut img = ReplayImage::build(&t);
        img.src_defs[1][0] = 2; // producer before record 0
        assert!(img.validate().is_err());
        let mut img = ReplayImage::build(&t);
        img.mem_mask[0] |= 1 << 63; // presence bit past the last record
        assert!(img.validate().is_err());
        // Opcode-domain lies: each in range, each caught at its record.
        let at = |img: &ReplayImage| match img.validate() {
            Err(SimError::CorruptImage { index, .. }) => index,
            other => panic!("expected a per-record violation, got {other:?}"),
        };
        let mut img = ReplayImage::build(&t);
        img.src_defs[0][0] = 1; // record 0 has nothing before it
        assert_eq!(at(&img), Some(0));
        let mut img = ReplayImage::build(&t);
        img.flags[1] |= flags::STORE; // STORE on the lvxu load
        assert_eq!(at(&img), Some(1));
        let mut img = ReplayImage::build(&t);
        img.ops[1] = Opcode::Lvx; // UNALIGNED left on an lvx
        assert_eq!(at(&img), Some(1));
    }

    #[test]
    fn violations_lists_every_break() {
        let t = sample_trace();
        let mut img = ReplayImage::build(&t);
        img.flags[0] |= flags::STORE; // STORE on the li
        img.src_defs[2][0] = 3; // producer before record 0
        let found: Vec<Option<usize>> = img
            .violations()
            .into_iter()
            .map(|v| match v {
                SimError::CorruptImage { index, .. } => index,
                other => panic!("unexpected {other}"),
            })
            .collect();
        assert_eq!(found, [Some(0), Some(2)], "both breaks, in record order");

        // Per-record findings stop at the cap, then one summary.
        let mut t = Trace::new();
        for i in 0..(MAX_RECORD_VIOLATIONS as u16 + 7) {
            t.push(DynInstr::alu(Opcode::Li, sid(i), None, &[]));
        }
        let mut img = ReplayImage::build(&t);
        for (idx, defs) in img.src_defs.iter_mut().enumerate() {
            defs[0] = idx as u16 + 1;
        }
        let all = img.violations();
        assert_eq!(all.len(), MAX_RECORD_VIOLATIONS + 1);
        assert!(
            matches!(&all[MAX_RECORD_VIOLATIONS], SimError::CorruptImage { index: None, detail }
                if detail.starts_with("7 further")),
            "{:?}",
            all.last()
        );
    }

    #[test]
    fn wire_sections_round_trip_bit_identically() {
        for trace in [sample_trace(), Trace::new()] {
            let img = ReplayImage::build(&trace);
            let sections = img.encode_sections();
            assert_eq!(sections.len(), wire::ALL.len());
            for ((id, payload), &want_id) in sections.iter().zip(wire::ALL) {
                assert_eq!(*id, want_id, "sections come in wire::ALL order");
                let elem = wire::elem_bytes(*id).expect("known id") as usize;
                assert_eq!(payload.len() % elem, 0, "{}", wire::name(*id));
            }
            let refs: Vec<(u32, &[u8])> = sections
                .iter()
                .map(|(id, bytes)| (*id, bytes.as_slice()))
                .collect();
            let back = ReplayImage::from_sections(img.len(), &refs).expect("round trip");
            back.validate().expect("decoded image is well-formed");
            assert_eq!(back.len(), img.len());
            assert_eq!(
                back.checksum(),
                img.checksum(),
                "decode must reproduce every array bit-for-bit"
            );
        }
    }

    #[test]
    fn from_sections_rejects_malformed_wire_data() {
        let img = ReplayImage::build(&sample_trace());
        let sections = img.encode_sections();
        let refs =
            |s: &[(u32, Vec<u8>)]| s.iter().map(|(id, b)| (*id, b.clone())).collect::<Vec<_>>();
        fn as_slices(s: &[(u32, Vec<u8>)]) -> Vec<(u32, &[u8])> {
            s.iter().map(|(id, b)| (*id, b.as_slice())).collect()
        }

        // Unknown section id.
        let mut bad = refs(&sections);
        bad.push((99, Vec::new()));
        let err = ReplayImage::from_sections(img.len(), &as_slices(&bad)).expect_err("unknown id");
        assert!(err.contains("unknown section id 99"), "{err}");

        // Duplicate section.
        let mut bad = refs(&sections);
        bad.push(bad[0].clone());
        let err = ReplayImage::from_sections(img.len(), &as_slices(&bad)).expect_err("duplicate");
        assert!(err.contains("duplicate section ops"), "{err}");

        // Missing section.
        let bad = refs(&sections[1..]);
        let err = ReplayImage::from_sections(img.len(), &as_slices(&bad)).expect_err("missing");
        assert!(err.contains("missing section ops"), "{err}");

        // Mis-aligned payload.
        let mut bad = refs(&sections);
        bad[0].1.push(0xFF);
        let err = ReplayImage::from_sections(img.len(), &as_slices(&bad)).expect_err("odd bytes");
        assert!(err.contains("not u16-aligned"), "{err}");

        // Out-of-range opcode index.
        let mut bad = refs(&sections);
        bad[0].1[..2].copy_from_slice(&u16::MAX.to_le_bytes());
        let err = ReplayImage::from_sections(img.len(), &as_slices(&bad)).expect_err("bad opcode");
        assert!(err.contains("opcode index"), "{err}");
    }

    #[test]
    fn image_is_much_smaller_than_the_trace() {
        let mut t = Trace::new();
        for i in 0..10_000u32 {
            t.push(DynInstr::alu(
                Opcode::Add,
                sid((i % 64) as u16),
                Some(Gpr::new((i % 32) as u8).into()),
                &[SrcRef::external(Gpr::new(0).into())],
            ));
        }
        let img = ReplayImage::build(&t);
        assert!(
            img.approx_bytes() * 2 < t.approx_bytes(),
            "image {} vs trace {}",
            img.approx_bytes(),
            t.approx_bytes()
        );
    }
}
