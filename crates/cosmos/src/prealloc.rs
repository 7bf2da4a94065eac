//! The §3.7 implementation proposal: statically preallocated PHT entries
//! plus a bounded dynamic pool.
//!
//! "We could preallocate four pattern history entries corresponding to
//! each cache block. If a cache block needs more pattern histories, then
//! it can allocate them from a common pool of dynamically allocated
//! memory in the same way LimitLESS directory entries capture the list of
//! sharers." This module implements exactly that: each block owns
//! `static_entries` slots; overflow goes to a shared pool of
//! `pool_capacity` slots; when the pool is full, the least-recently-used
//! pooled pattern is evicted (forgotten).
//!
//! Unlike the unbounded [`CosmosPredictor`](crate::CosmosPredictor), this
//! variant has a *hard* memory bound, making the §3.7 cost model concrete
//! — and its accuracy under pool pressure is measurable (`repro
//! variants`).

use crate::fasthash::FastMap;
use crate::memory::MemoryFootprint;
use crate::mhr::Mhr;
use crate::pht::PhtEntry;
use crate::tuple::PredTuple;
use crate::MessagePredictor;
use stache::BlockAddr;

/// A `(block, packed history)` pattern key — two words, no allocation.
type PatternKey = (BlockAddr, u64);

#[derive(Debug, Clone)]
struct Slot {
    entry: PhtEntry,
    /// Whether the slot lives in the shared pool (true) or the block's
    /// static allocation (false).
    pooled: bool,
    /// LRU stamp for pooled slots.
    last_used: u64,
}

/// A Cosmos predictor with the §3.7 bounded memory layout.
#[derive(Debug, Clone)]
pub struct PreallocCosmos {
    /// The empty register every new block starts from.
    empty: Mhr,
    filter_max: u8,
    static_entries: usize,
    pool_capacity: usize,
    histories: FastMap<BlockAddr, Mhr>,
    entries: FastMap<PatternKey, Slot>,
    static_used: FastMap<BlockAddr, usize>,
    pool_used: usize,
    clock: u64,
    /// Pooled patterns evicted under pressure (a measure of how far the
    /// paper's "four static entries" assumption is from a workload).
    pub evictions: u64,
}

impl PreallocCosmos {
    /// Creates a predictor with the paper's suggested defaults: four
    /// static entries per block.
    pub fn paper(depth: usize, pool_capacity: usize) -> Self {
        PreallocCosmos::new(depth, 1, 4, pool_capacity)
    }

    /// Creates a predictor: MHR `depth`, noise filter `filter_max`,
    /// `static_entries` per block, and a shared pool of `pool_capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is outside `1..=`[`MAX_DEPTH`](crate::packed::MAX_DEPTH).
    pub fn new(depth: usize, filter_max: u8, static_entries: usize, pool_capacity: usize) -> Self {
        PreallocCosmos {
            empty: Mhr::new(depth),
            filter_max,
            static_entries,
            pool_capacity,
            histories: FastMap::default(),
            entries: FastMap::default(),
            static_used: FastMap::default(),
            pool_used: 0,
            clock: 0,
            evictions: 0,
        }
    }

    /// Patterns currently held in the shared pool.
    pub fn pool_used(&self) -> usize {
        self.pool_used
    }

    fn evict_lru_pooled(&mut self) {
        // `last_used` stamps are unique (one clock tick per observe), so
        // the minimum is well-defined regardless of table iteration order.
        if let Some(key) = self
            .entries
            .iter()
            .filter(|(_, s)| s.pooled)
            .min_by_key(|(_, s)| s.last_used)
            .map(|(k, _)| *k)
        {
            self.entries.remove(&key);
            self.pool_used -= 1;
            self.evictions += 1;
        }
    }

    fn insert_pattern(&mut self, key: PatternKey, prediction: PredTuple) {
        let block = key.0;
        let used = self.static_used.entry(block).or_insert(0);
        let pooled = if *used < self.static_entries {
            *used += 1;
            false
        } else {
            if self.pool_used >= self.pool_capacity {
                self.evict_lru_pooled();
            }
            if self.pool_used >= self.pool_capacity {
                // Pool capacity zero: the pattern cannot be stored at all.
                return;
            }
            self.pool_used += 1;
            true
        };
        self.entries.insert(
            key,
            Slot {
                entry: PhtEntry::new(prediction),
                pooled,
                last_used: self.clock,
            },
        );
    }
}

impl MessagePredictor for PreallocCosmos {
    fn name(&self) -> &'static str {
        "cosmos-prealloc"
    }

    fn predict(&self, block: BlockAddr) -> Option<PredTuple> {
        let key = self.histories.get(&block)?.key()?;
        self.entries.get(&(block, key)).map(|s| s.entry.prediction)
    }

    fn observe(&mut self, block: BlockAddr, tuple: PredTuple) {
        self.clock += 1;
        let history = self.histories.entry(block).or_insert(self.empty);
        if let Some(packed_key) = history.key() {
            let key = (block, packed_key);
            match self.entries.get_mut(&key) {
                Some(slot) => {
                    slot.last_used = self.clock;
                    slot.entry.update(tuple, self.filter_max);
                }
                None => self.insert_pattern(key, tuple),
            }
        }
        self.histories
            .get_mut(&block)
            .expect("just inserted")
            .shift(tuple);
    }

    fn memory(&self) -> MemoryFootprint {
        MemoryFootprint {
            mhr_entries: self.histories.len(),
            pht_entries: self.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stache::{MsgType, NodeId};

    fn t(n: usize, m: MsgType) -> PredTuple {
        PredTuple::new(NodeId::new(n), m)
    }

    fn b(i: u64) -> BlockAddr {
        BlockAddr::new(i)
    }

    /// Drives `n` distinct single-tuple patterns through block `blk`.
    fn distinct_patterns(p: &mut PreallocCosmos, blk: u64, n: usize) {
        for i in 0..n {
            p.observe(b(blk), t(i + 1, MsgType::GetRoRequest));
        }
    }

    #[test]
    fn behaves_like_cosmos_within_the_static_allocation() {
        let mut p = PreallocCosmos::paper(1, 16);
        p.observe(b(1), t(1, MsgType::GetRoRequest));
        p.observe(b(1), t(2, MsgType::GetRwRequest));
        p.observe(b(1), t(1, MsgType::GetRoRequest));
        assert_eq!(p.predict(b(1)), Some(t(2, MsgType::GetRwRequest)));
        assert_eq!(p.pool_used(), 0, "two patterns fit the static four");
    }

    #[test]
    fn overflow_goes_to_the_pool() {
        let mut p = PreallocCosmos::new(1, 0, 2, 8);
        // 5 distinct history values -> 4 patterns; 2 static + 2 pooled.
        distinct_patterns(&mut p, 1, 5);
        assert_eq!(p.memory().pht_entries, 4);
        assert_eq!(p.pool_used(), 2);
    }

    #[test]
    fn pool_pressure_evicts_lru() {
        let mut p = PreallocCosmos::new(1, 0, 1, 2);
        // 6 distinct patterns on one block: 1 static + 2 pooled max.
        distinct_patterns(&mut p, 1, 7);
        assert_eq!(p.memory().pht_entries, 3);
        assert!(p.evictions > 0);
    }

    #[test]
    fn zero_pool_still_serves_static_patterns() {
        let mut p = PreallocCosmos::new(1, 0, 1, 0);
        let a = t(1, MsgType::GetRoRequest);
        let bb = t(2, MsgType::GetRwRequest);
        for _ in 0..3 {
            p.observe(b(1), a);
            p.observe(b(1), bb);
        }
        p.observe(b(1), a);
        // The first-learned pattern (a -> b) holds the single static slot.
        assert_eq!(p.predict(b(1)), Some(bb));
        assert_eq!(p.pool_used(), 0);
    }

    #[test]
    fn bounded_memory_under_adversarial_streams() {
        let mut p = PreallocCosmos::new(1, 0, 4, 10);
        for i in 0..500usize {
            p.observe(b((i % 7) as u64), t((i * 13) % 100, MsgType::GetRoRequest));
        }
        // 7 blocks x 4 static + 10 pooled at most.
        assert!(p.memory().pht_entries <= 7 * 4 + 10);
    }

    #[test]
    fn filter_applies_to_stored_patterns() {
        let mut p = PreallocCosmos::new(1, 1, 4, 4);
        let a = t(1, MsgType::GetRoRequest);
        let good = t(2, MsgType::GetRwRequest);
        let noise = t(3, MsgType::UpgradeRequest);
        for _ in 0..2 {
            p.observe(b(1), a);
            p.observe(b(1), good);
        }
        p.observe(b(1), a);
        p.observe(b(1), noise); // one miss: filtered
        p.observe(b(1), a);
        assert_eq!(p.predict(b(1)), Some(good));
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn over_deep_history_rejected_at_construction() {
        let _ = PreallocCosmos::new(5, 0, 4, 8);
    }
}
