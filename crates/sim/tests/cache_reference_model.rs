//! Model-checks the set-associative cache and the TLB against reference
//! implementations: for arbitrary operation sequences, hit/miss decisions
//! and writeback counts must match an obviously-correct LRU model, and —
//! for both replacement policies — a frozen copy of the earlier
//! per-way-timestamp cache.

use bdb_sim::cache::{Cache, CacheConfig, CacheStats, Replacement};
use bdb_sim::tlb::{Tlb, TlbConfig};
use proptest::prelude::*;

/// Obviously-correct set-associative LRU cache: each set is a Vec kept in
/// MRU-first order.
struct NaiveLru {
    sets: Vec<Vec<(u64, bool)>>, // (line, dirty), MRU first
    assoc: usize,
    line_bytes: u64,
    stats: CacheStats,
}

impl NaiveLru {
    fn new(size: u64, assoc: usize, line_bytes: u64) -> Self {
        let sets = (size / (line_bytes * assoc as u64)) as usize;
        Self {
            sets: vec![Vec::new(); sets],
            assoc,
            line_bytes,
            stats: CacheStats::default(),
        }
    }

    /// Looks `addr` up, moving it to the front; no demand counting.
    fn touch(&mut self, addr: u64, is_store: bool) -> bool {
        let line = addr / self.line_bytes;
        let set = (line % self.sets.len() as u64) as usize;
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&(l, _)| l == line) {
            let (l, dirty) = ways.remove(pos);
            ways.insert(0, (l, dirty || is_store));
            return true;
        }
        if ways.len() == self.assoc {
            let (_, dirty) = ways.pop().expect("full set");
            if dirty {
                self.stats.writebacks += 1;
            }
        }
        ways.insert(0, (line, is_store));
        false
    }

    fn access(&mut self, addr: u64, is_store: bool) -> bool {
        self.stats.accesses += 1;
        let hit = self.touch(addr, is_store);
        if !hit {
            self.stats.misses += 1;
        }
        hit
    }

    fn install(&mut self, addr: u64) {
        self.touch(addr, false);
    }
}

/// The cache as it was before tag lines became most-recent-first:
/// parallel tag, timestamp and dirty arrays, a global tick per access,
/// LRU victims chosen as the first invalid way else the minimum stamp.
/// Frozen here as an oracle; Random replacement is the one policy where
/// physical way positions matter, so it pins that path bit for bit.
struct StampCache {
    assoc: usize,
    sets: u64,
    line_shift: u32,
    replacement: Replacement,
    tags: Vec<u64>,
    stamp: Vec<u64>,
    dirty: Vec<bool>,
    tick: u64,
    rng: u64,
    stats: CacheStats,
}

impl StampCache {
    fn new(config: CacheConfig) -> Self {
        let ways = config.sets() * config.assoc;
        Self {
            assoc: config.assoc,
            sets: config.sets() as u64,
            line_shift: config.line_bytes.trailing_zeros(),
            replacement: config.replacement,
            tags: vec![u64::MAX; ways],
            stamp: vec![0; ways],
            dirty: vec![false; ways],
            tick: 0,
            rng: 0xA076_1D64_78BD_642F,
            stats: CacheStats::default(),
        }
    }

    fn access(&mut self, addr: u64, is_store: bool) -> bool {
        self.tick += 1;
        self.stats.accesses += 1;
        let line = addr >> self.line_shift;
        let base = (line % self.sets) as usize * self.assoc;
        if let Some(w) = self.tags[base..base + self.assoc]
            .iter()
            .position(|&t| t == line)
        {
            self.stamp[base + w] = self.tick;
            if is_store {
                self.dirty[base + w] = true;
            }
            return true;
        }
        self.stats.misses += 1;
        let victim = match self.replacement {
            Replacement::Lru => {
                let mut best = 0;
                let mut best_stamp = u64::MAX;
                for w in 0..self.assoc {
                    if self.tags[base + w] == u64::MAX {
                        best = w;
                        break;
                    }
                    if self.stamp[base + w] < best_stamp {
                        best_stamp = self.stamp[base + w];
                        best = w;
                    }
                }
                best
            }
            Replacement::Random => {
                let mut x = self.rng;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                self.rng = x;
                (x as usize) % self.assoc
            }
        };
        let slot = base + victim;
        if self.tags[slot] != u64::MAX && self.dirty[slot] {
            self.stats.writebacks += 1;
        }
        self.tags[slot] = line;
        self.stamp[slot] = self.tick;
        self.dirty[slot] = is_store;
        false
    }

    fn access_run(&mut self, addr: u64, is_store: bool, count: u64) -> bool {
        let hit = self.access(addr, is_store);
        if count > 1 {
            let line = addr >> self.line_shift;
            let base = (line % self.sets) as usize * self.assoc;
            if let Some(w) = self.tags[base..base + self.assoc]
                .iter()
                .position(|&t| t == line)
            {
                self.tick += count - 1;
                self.stats.accesses += count - 1;
                self.stamp[base + w] = self.tick;
            }
        }
        hit
    }

    fn install(&mut self, addr: u64) {
        let before = self.stats;
        self.access(addr, false);
        let wb = self.stats.writebacks;
        self.stats = before;
        self.stats.writebacks = wb;
    }
}

/// One cache operation of a generated stream.
#[derive(Debug, Clone, Copy)]
enum Op {
    Access {
        addr: u64,
        is_store: bool,
    },
    Run {
        addr: u64,
        is_store: bool,
        count: u64,
    },
    Install {
        addr: u64,
    },
}

/// Operations over a line universe about three times the largest
/// cache's capacity, so every set sees hits, fills and evictions: six in
/// ten are single accesses, two in ten runs and two in ten installs.
fn ops(len: usize) -> impl Strategy<Value = Vec<Op>> {
    let op = (0u8..10, 0u64..768, 0u64..64, any::<bool>(), 0u64..6).prop_map(
        |(kind, line, offset, is_store, count)| {
            let addr = line * 64 + offset;
            match kind {
                0..=5 => Op::Access { addr, is_store },
                6 | 7 => Op::Run {
                    addr,
                    is_store,
                    count,
                },
                _ => Op::Install { addr },
            }
        },
    );
    proptest::collection::vec(op, 1..len)
}

/// Set counts (power-of-two and not) and associativities up to 16, all
/// with 64-byte lines.
fn sets() -> impl Strategy<Value = u64> {
    prop_oneof![Just(1u64), Just(3), Just(4), Just(12), Just(16)]
}

fn assocs() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2), Just(4), Just(8), Just(16)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_matches_reference_lru(
        sets in sets(),
        assoc in assocs(),
        stream in ops(2000),
    ) {
        let size = sets * assoc as u64 * 64;
        let mut real = Cache::new(CacheConfig::lru(size, assoc, 64));
        let mut reference = NaiveLru::new(size, assoc, 64);
        for &op in &stream {
            match op {
                Op::Access { addr, is_store } => {
                    let a = real.access(addr, is_store);
                    let b = reference.access(addr, is_store);
                    prop_assert_eq!(a, b, "divergence at addr {:#x}", addr);
                }
                Op::Run { addr, is_store, count } => {
                    let a = real.access_run(addr, is_store, count);
                    let b = reference.access(addr, is_store);
                    for _ in 1..count {
                        reference.access(addr, is_store);
                    }
                    prop_assert_eq!(a, b, "run divergence at addr {:#x}", addr);
                }
                Op::Install { addr } => {
                    real.install(addr);
                    reference.install(addr);
                }
            }
            prop_assert_eq!(real.stats(), reference.stats, "after {:?}", op);
        }
    }

    #[test]
    fn cache_matches_stamp_oracle_under_both_policies(
        sets in sets(),
        assoc in assocs(),
        random in any::<bool>(),
        stream in ops(2000),
    ) {
        let config = CacheConfig {
            replacement: if random { Replacement::Random } else { Replacement::Lru },
            ..CacheConfig::lru(sets * assoc as u64 * 64, assoc, 64)
        };
        let mut real = Cache::new(config);
        let mut oracle = StampCache::new(config);
        for &op in &stream {
            match op {
                Op::Access { addr, is_store } => {
                    prop_assert_eq!(real.access(addr, is_store), oracle.access(addr, is_store));
                }
                Op::Run { addr, is_store, count } => {
                    prop_assert_eq!(
                        real.access_run(addr, is_store, count),
                        oracle.access_run(addr, is_store, count)
                    );
                }
                Op::Install { addr } => {
                    real.install(addr);
                    oracle.install(addr);
                }
            }
            prop_assert_eq!(real.stats(), oracle.stats, "after {:?}", op);
        }
    }

    #[test]
    fn tlb_matches_reference_mru(
        entries_log2 in 0u32..8,
        assoc in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        large_pages in any::<bool>(),
        pages in proptest::collection::vec((0u64..600, 0u64..4096), 1..2000),
    ) {
        let entries = (1usize << entries_log2).max(assoc);
        let page_bytes = if large_pages { 1 << 21 } else { 4096 };
        let mut tlb = Tlb::new(TlbConfig { entries, assoc, page_bytes });
        let mut reference = NaiveLru::new(entries as u64 * page_bytes, assoc, page_bytes);
        for &(page, offset) in &pages {
            let addr = page * page_bytes + offset;
            prop_assert_eq!(tlb.access(addr), reference.access(addr, false), "page {}", page);
        }
        prop_assert_eq!(tlb.accesses(), reference.stats.accesses);
        prop_assert_eq!(tlb.misses(), reference.stats.misses);
    }

    #[test]
    fn install_never_changes_demand_counters(
        accesses in proptest::collection::vec(0u64..1u64 << 14, 1..500),
        installs in proptest::collection::vec(0u64..1u64 << 14, 1..500),
    ) {
        let mut cache = Cache::new(CacheConfig::lru(4096, 4, 64));
        for &a in &accesses {
            cache.access(a, false);
        }
        let before = cache.stats();
        for &i in &installs {
            cache.install(i);
        }
        let after = cache.stats();
        prop_assert_eq!(before.accesses, after.accesses);
        prop_assert_eq!(before.misses, after.misses);
    }

    #[test]
    fn installed_lines_hit(addr in 0u64..1u64 << 20) {
        let mut cache = Cache::new(CacheConfig::lru(32 * 1024, 8, 64));
        cache.install(addr);
        prop_assert!(cache.access(addr, false), "installed line must hit");
    }
}
