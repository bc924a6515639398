//! Set-associative cache model.
//!
//! A [`Cache`] is a tag array with per-set replacement state; it models
//! hits/misses (and dirty-line writebacks) but not contents — the trace
//! carries real data in the workload layer, the simulator only needs
//! addresses. All the paper's cache numbers (Figure 4's MPKI, Figures 6–9's
//! miss-ratio-versus-capacity curves) come from this model.

use serde::{Deserialize, Serialize};

/// Replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Replacement {
    /// Least-recently-used (default; what the paper's platforms approximate).
    Lru,
    /// Pseudo-random (ablation target).
    Random,
}

/// Geometry and policy of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Replacement policy.
    pub replacement: Replacement,
}

impl CacheConfig {
    /// Convenience constructor with LRU replacement.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`Cache::new`]).
    pub fn lru(size_bytes: u64, assoc: usize, line_bytes: u64) -> Self {
        Self {
            size_bytes,
            assoc,
            line_bytes,
            replacement: Replacement::Lru,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        (self.size_bytes / (self.line_bytes * self.assoc as u64)) as usize
    }
}

/// Hit/miss/writeback counters of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Misses (line not present).
    pub misses: u64,
    /// Dirty lines evicted.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; zero when no accesses were made.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// One level of set-associative cache.
///
/// Each set is one line of tag words. Under [`Replacement::Lru`] the line
/// is kept most-recent-first: a hit rotates its way to the front, a miss
/// shifts the new tag in at the front and drops the last slot. Invalid
/// slots therefore always form a suffix, so the dropped slot is an
/// invalid way while one exists and the least-recently-used line
/// otherwise. [`Replacement::Random`] uses the same array but never
/// reorders it: the victim is a pseudo-random physical way, valid or not.
/// A line's dirty bit lives in bit 63 of its tag word.
///
/// # Examples
///
/// ```
/// use bdb_sim::cache::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::lru(32 * 1024, 8, 64));
/// assert!(!c.access(0x1000, false)); // cold miss
/// assert!(c.access(0x1000, false));  // now hits
/// assert_eq!(c.stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: usize,
    /// `sets - 1` when the set count is a power of two (so indexing is a
    /// mask instead of a modulo), `u64::MAX` otherwise.
    set_mask: u64,
    line_shift: u32,
    /// `tags[set * assoc + way]`: the line number, plus [`DIRTY`] once a
    /// store has touched it; [`INVALID`] marks an empty way.
    tags: Vec<u64>,
    rng: u64,
    stats: CacheStats,
}

/// Dirty flag, packed into the top bit of a tag word. With lines of at
/// least 4 bytes a line number is below 2^62, so it never touches this
/// bit and never equals [`INVALID`].
const DIRTY: u64 = 1 << 63;

/// Tag word of an empty way. It is not a line number and carries no
/// dirty bit, so it neither matches a probe nor counts as a writeback.
const INVALID: u64 = !DIRTY;

impl Cache {
    /// Builds a cache.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two of at least 4 bytes,
    /// `assoc == 0`, or the capacity is not an exact multiple of
    /// `line_bytes * assoc`.
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.line_bytes.is_power_of_two() && config.line_bytes >= 4,
            "line size must be a power of two of at least 4 bytes"
        );
        assert!(config.assoc > 0, "associativity must be positive");
        assert!(
            config
                .size_bytes
                .is_multiple_of(config.line_bytes * config.assoc as u64)
                && config.size_bytes > 0,
            "capacity must be a positive multiple of line_bytes * assoc"
        );
        let sets = config.sets();
        assert!(sets > 0, "cache must have at least one set");
        Self {
            config,
            sets,
            set_mask: if sets.is_power_of_two() {
                sets as u64 - 1
            } else {
                u64::MAX
            },
            line_shift: config.line_bytes.trailing_zeros(),
            tags: vec![INVALID; sets * config.assoc],
            rng: 0xA076_1D64_78BD_642F,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Set index of a line number. Modulo indexing supports
    /// non-power-of-two set counts (the Xeon's 12 MiB L3 has 12288 sets);
    /// power-of-two geometries — every swept L1 — take the mask path,
    /// which computes the identical value without the division.
    #[inline]
    fn set_index(&self, line: u64) -> usize {
        if self.set_mask != u64::MAX {
            (line & self.set_mask) as usize
        } else {
            (line % self.sets as u64) as usize
        }
    }

    /// Looks `addr` up and updates the set; returns `true` on hit. A miss
    /// fills the line and counts a writeback if it evicts a dirty line.
    /// Demand counters are left to the caller.
    #[inline]
    fn probe(&mut self, addr: u64, is_store: bool) -> bool {
        let line = addr >> self.line_shift;
        let dirty = if is_store { DIRTY } else { 0 };
        let assoc = self.config.assoc;
        let base = self.set_index(line) * assoc;
        let set = &mut self.tags[base..base + assoc];
        // Most hits land on the most recent line: skip the scan and the
        // policy dispatch for them.
        if set[0] & !DIRTY == line {
            set[0] |= dirty;
            return true;
        }
        let way = set.iter().position(|&t| t & !DIRTY == line);
        let evicted = match (self.config.replacement, way) {
            (Replacement::Lru, Some(w)) => {
                let word = set[w] | dirty;
                // Plain loops, not `copy_within`: a call to memmove costs
                // more than moving the few words of one set.
                for i in (0..w).rev() {
                    set[i + 1] = set[i];
                }
                set[0] = word;
                return true;
            }
            (Replacement::Random, Some(w)) => {
                set[w] |= dirty;
                return true;
            }
            (Replacement::Lru, None) => {
                let evicted = set[assoc - 1];
                for i in (0..assoc - 1).rev() {
                    set[i + 1] = set[i];
                }
                set[0] = line | dirty;
                evicted
            }
            (Replacement::Random, None) => {
                let mut x = self.rng;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                self.rng = x;
                let slot = &mut set[(x as usize) % assoc];
                std::mem::replace(slot, line | dirty)
            }
        };
        if evicted & DIRTY != 0 {
            self.stats.writebacks += 1;
        }
        false
    }

    /// Accesses `addr`; returns `true` on hit. `is_store` marks the line
    /// dirty so its eventual eviction counts as a writeback.
    pub fn access(&mut self, addr: u64, is_store: bool) -> bool {
        self.stats.accesses += 1;
        let hit = self.probe(addr, is_store);
        if !hit {
            self.stats.misses += 1;
        }
        hit
    }

    /// Equivalent to `count` back-to-back [`Cache::access`] calls with
    /// the same `addr`/`is_store`, returning the first call's hit flag.
    ///
    /// After the first access the line is resident, already dirty if
    /// `is_store`, and (under LRU) at the front of its set, so the
    /// remaining `count - 1` accesses are hits that change nothing but
    /// the access counter — which this bumps in bulk. Trace-replay code
    /// uses it to collapse same-line runs; every counter (and, for
    /// [`Replacement::Random`], the RNG, which hits never touch) ends up
    /// exactly as if the calls had been made one by one.
    pub fn access_run(&mut self, addr: u64, is_store: bool, count: u64) -> bool {
        let hit = self.access(addr, is_store);
        self.stats.accesses += count.saturating_sub(1);
        hit
    }

    /// Installs the line containing `addr` without touching the demand
    /// counters — the prefetcher's fill path. Dirty victims still count as
    /// writebacks.
    pub fn install(&mut self, addr: u64) {
        self.probe(addr, false);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears counters (contents are kept — useful after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512B.
        Cache::new(CacheConfig::lru(512, 2, 64))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0, false));
        assert!(c.access(0, false));
        assert!(c.access(63, false)); // same line
        assert!(!c.access(64, false)); // next line
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Three lines mapping to set 0: line numbers 0, 4, 8 (4 sets).
        let a = 0u64;
        let b = 4 * 64;
        let d = 8 * 64;
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a more recent than b
        c.access(d, false); // evicts b
        assert!(c.access(a, false), "a must survive");
        assert!(!c.access(b, false), "b must have been evicted");
    }

    #[test]
    fn writeback_counted_on_dirty_eviction() {
        let mut c = small();
        let a = 0u64;
        let b = 4 * 64;
        let d = 8 * 64;
        c.access(a, true); // dirty
        c.access(b, false);
        c.access(d, false); // evicts a (LRU), dirty -> writeback
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn working_set_within_capacity_stops_missing() {
        let mut c = Cache::new(CacheConfig::lru(8 * 1024, 8, 64));
        // 4KB working set walked repeatedly fits in 8KB.
        for _round in 0..10 {
            for addr in (0..4096u64).step_by(64) {
                c.access(addr, false);
            }
        }
        let s = c.stats();
        assert_eq!(s.misses, 64, "only cold misses expected, got {}", s.misses);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes_with_lru() {
        let mut c = Cache::new(CacheConfig::lru(4 * 1024, 8, 64));
        // 8KB working set cyclically walked through a 4KB LRU cache misses every time.
        let mut misses_after_warmup = 0;
        for round in 0..10 {
            for addr in (0..8192u64).step_by(64) {
                let hit = c.access(addr, false);
                if round > 0 && !hit {
                    misses_after_warmup += 1;
                }
            }
        }
        assert_eq!(misses_after_warmup, 9 * 128);
    }

    #[test]
    fn random_replacement_differs_from_lru_under_thrash() {
        let mut lru = Cache::new(CacheConfig::lru(4 * 1024, 8, 64));
        let mut rnd = Cache::new(CacheConfig {
            replacement: Replacement::Random,
            ..CacheConfig::lru(4 * 1024, 8, 64)
        });
        for _ in 0..20 {
            for addr in (0..8192u64).step_by(64) {
                lru.access(addr, false);
                rnd.access(addr, false);
            }
        }
        // Random keeps some lines across the cyclic sweep; LRU keeps none.
        assert!(rnd.stats().misses < lru.stats().misses);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = small();
        c.access(0, false);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access(0, false), "contents survive reset");
    }

    #[test]
    fn miss_ratio_bounds() {
        let mut c = small();
        assert_eq!(c.stats().miss_ratio(), 0.0);
        c.access(0, false);
        assert_eq!(c.stats().miss_ratio(), 1.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        let _ = Cache::new(CacheConfig::lru(512, 2, 48));
    }

    #[test]
    #[should_panic(expected = "at least 4 bytes")]
    fn lines_too_small_for_the_dirty_bit_panic() {
        let _ = Cache::new(CacheConfig::lru(512, 2, 2));
    }
}
