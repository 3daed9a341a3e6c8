//! A set-associative cache with true-LRU replacement.
//!
//! Used for the D-L1, I-L1 and unified L2 of the Table II memory hierarchy.
//! The model tracks tags only (data lives in the VM's memory image) and is
//! write-allocate / write-back, which is what the POWER4-style hierarchy of
//! the paper's simulator models.

use std::fmt;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
}

impl CacheConfig {
    /// Creates a config, validating the geometry.
    ///
    /// # Panics
    ///
    /// Panics if sizes are not powers of two or do not divide evenly.
    pub fn new(size_bytes: usize, line_bytes: usize, assoc: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            size_bytes.is_multiple_of(line_bytes * assoc),
            "size must be sets*ways*line"
        );
        let sets = size_bytes / (line_bytes * assoc);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheConfig {
            size_bytes,
            line_bytes,
            assoc,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.assoc)
    }

    /// `log2(line_bytes)` — the address shift that yields the line number.
    /// Valid because [`CacheConfig::new`] enforces a power-of-two line.
    pub fn line_shift(&self) -> u32 {
        self.line_bytes.trailing_zeros()
    }
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} misses ({:.2}%), {} writebacks",
            self.accesses(),
            self.misses,
            self.miss_ratio() * 100.0,
            self.writebacks
        )
    }
}

// A line that is not `valid` is always `Line::default()`: lines only
// ever become valid, so [`ValidLines`] can leave the invalid ones out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotonic timestamp of last touch, for LRU.
    lru: u64,
}

/// A set-associative, write-allocate, write-back cache model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetAssocCache {
    config: CacheConfig,
    lines: Vec<Line>,
    clock: u64,
    stats: CacheStats,
    // Geometry is power-of-two by construction, so set/tag extraction is
    // shift-and-mask — precomputed here because `set_index`/`tag` run on
    // every simulated fetch and memory access, where a hardware divide
    // per call is the single largest fixed cost of the replay loop.
    line_shift: u32,
    set_mask: u64,
    tag_shift: u32,
}

impl SetAssocCache {
    /// Builds an empty (all-invalid) cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let line_shift = config.line_shift();
        SetAssocCache {
            lines: vec![Line::default(); sets * config.assoc],
            config,
            clock: 0,
            stats: CacheStats::default(),
            line_shift,
            set_mask: (sets as u64) - 1,
            tag_shift: line_shift + sets.trailing_zeros(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The cache without its invalid ways: every valid line in its slot,
    /// the LRU clock and the statistics.
    pub fn valid_lines(&self) -> ValidLines {
        ValidLines {
            config: self.config,
            lines: self
                .lines
                .iter()
                .enumerate()
                .filter(|(_, l)| l.valid)
                .map(|(slot, l)| KeptLine {
                    tag: l.tag,
                    lru: l.lru,
                    slot: u32::try_from(slot).expect("a cache has fewer than 2^32 lines"),
                    dirty: l.dirty,
                })
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            clock: self.clock,
            stats: self.stats,
        }
    }

    /// The cache `kept` was taken from, exactly: the same lines in the
    /// same slots, the same clock and the same statistics.
    pub fn from_valid_lines(kept: &ValidLines) -> Self {
        let mut cache = SetAssocCache::new(kept.config);
        for l in &kept.lines {
            cache.lines[l.slot as usize] = Line {
                tag: l.tag,
                valid: true,
                dirty: l.dirty,
                lru: l.lru,
            };
        }
        cache.clock = kept.clock;
        cache.stats = kept.stats;
        cache
    }

    #[inline]
    fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) & self.set_mask) as usize
    }

    #[inline]
    fn tag(&self, addr: u64) -> u64 {
        addr >> self.tag_shift
    }

    /// Looks up the line containing `addr`, allocating on miss.
    ///
    /// Returns `true` on hit. `write` marks the line dirty.
    pub fn access(&mut self, addr: u64, write: bool) -> bool {
        self.clock += 1;
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        let ways = &mut self.lines[set * self.config.assoc..(set + 1) * self.config.assoc];

        if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = self.clock;
            line.dirty |= write;
            self.stats.hits += 1;
            return true;
        }

        // Miss: evict LRU way (invalid lines have lru 0 so they go first).
        self.stats.misses += 1;
        let victim = ways
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .expect("assoc >= 1");
        if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
        }
        *victim = Line {
            tag,
            valid: true,
            dirty: write,
            lru: self.clock,
        };
        false
    }

    /// Whether the line containing `addr` is currently resident (no state
    /// change, no statistics).
    pub fn probe(&self, addr: u64) -> bool {
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        self.lines[set * self.config.assoc..(set + 1) * self.config.assoc]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }
}

/// One valid line of a [`ValidLines`] and the slot (`set * assoc + way`)
/// it occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct KeptLine {
    tag: u64,
    lru: u64,
    slot: u32,
    dirty: bool,
}

/// A [`SetAssocCache`] with its invalid ways left out
/// ([`SetAssocCache::valid_lines`]), which
/// [`SetAssocCache::from_valid_lines`] restores exactly. A cache that has
/// seen a small working set is mostly invalid ways, so this is much
/// smaller than the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidLines {
    config: CacheConfig,
    lines: Box<[KeptLine]>,
    clock: u64,
    stats: CacheStats,
}

impl ValidLines {
    /// Approximate heap plus inline bytes.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + std::mem::size_of_val(&*self.lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 4 sets x 2 ways x 64B lines = 512B.
        SetAssocCache::new(CacheConfig::new(512, 64, 2))
    }

    #[test]
    fn geometry() {
        let c = CacheConfig::new(32 * 1024, 128, 2);
        assert_eq!(c.sets(), 128);
        let l2 = CacheConfig::new(1024 * 1024, 128, 8);
        assert_eq!(l2.sets(), 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_rejected() {
        let _ = CacheConfig::new(512, 48, 2);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x1000, false));
        assert!(c.access(0x1000, false));
        assert!(c.access(0x103f, false), "same line");
        assert!(!c.access(0x1040, false), "next line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Three lines mapping to the same set (set stride = 4 lines * 64B = 256B).
        let a = 0x0;
        let b = 0x100;
        let d = 0x200;
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a most recent
        c.access(d, false); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn writeback_counted_for_dirty_victims() {
        let mut c = small();
        c.access(0x0, true); // dirty
        c.access(0x100, false);
        c.access(0x200, false); // evicts dirty 0x0
        assert_eq!(c.stats().writebacks, 1);
        // Evicting a clean line adds no writeback.
        c.access(0x300, false);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut c = small();
        c.access(0x40, false);
        let before = c.stats();
        assert!(c.probe(0x40));
        assert!(!c.probe(0x4000));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = small();
        c.access(0x40, true);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert!(c.probe(0x40));
    }

    #[test]
    fn valid_lines_restore_the_cache_exactly() {
        let mut c = small();
        assert_eq!(SetAssocCache::from_valid_lines(&c.valid_lines()), c);
        // Dirty and clean lines, an eviction (and its writeback), and a
        // set left with one invalid way, whose slot the next miss fills.
        for (addr, write) in [(0x0, true), (0x100, false), (0x200, false), (0x40, true)] {
            c.access(addr, write);
        }
        let kept = c.valid_lines();
        assert_eq!(kept.lines.len(), 3);
        let mut restored = SetAssocCache::from_valid_lines(&kept);
        assert_eq!(restored, c);
        for addr in [0x140, 0x0, 0x300] {
            assert_eq!(restored.access(addr, false), c.access(addr, false));
        }
        assert_eq!(restored, c);
    }

    #[test]
    fn miss_ratio() {
        let mut c = small();
        assert_eq!(c.stats().miss_ratio(), 0.0);
        c.access(0x0, false);
        c.access(0x0, false);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn table_ii_l1d_capacity_behaviour() {
        // 32KB 2-way 128B lines: a 16KB working set must fit.
        let mut c = SetAssocCache::new(CacheConfig::new(32 * 1024, 128, 2));
        for addr in (0..16 * 1024u64).step_by(128) {
            c.access(addr, false);
        }
        c.reset_stats();
        for addr in (0..16 * 1024u64).step_by(128) {
            assert!(c.access(addr, false), "addr {addr:#x} should hit");
        }
        assert_eq!(c.stats().misses, 0);
    }
}
