//! First-level-table eviction — the §3.7 history-loss concern.
//!
//! "It may be possible to merge the first-level table with the cache
//! block state maintained at both directories and caches. However, this
//! may lead to a loss of Cosmos' history information when cache blocks
//! are replaced." This variant bounds the Message History Table to a
//! fixed number of block entries per agent; when a new block arrives and
//! the table is full, the least-recently-used block's *entire* predictor
//! state (MHR and PHT) is discarded — exactly what merging the tables
//! with finite cache state would do.
//!
//! Measuring accuracy as the capacity shrinks quantifies how much the
//! persistence that Stache's no-replacement policy provides (§5.1) is
//! worth.

use crate::fasthash::FastMap;
use crate::memory::MemoryFootprint;
use crate::mhr::Mhr;
use crate::predictor::BlockState;
use crate::tuple::PredTuple;
use crate::MessagePredictor;
use stache::BlockAddr;

/// One tracked block: the shared per-block Cosmos step plus this table's
/// intrusive LRU links, in one map entry.
#[derive(Debug, Clone)]
struct Node {
    state: BlockState,
    /// Neighbour toward the MRU end of the intrusive recency list.
    prev: Option<BlockAddr>,
    /// Neighbour toward the LRU end of the intrusive recency list.
    next: Option<BlockAddr>,
}

/// A Cosmos predictor whose MHT holds at most `capacity` blocks (LRU).
///
/// Recency is an intrusive doubly-linked list threaded through the
/// block entries (`head` = most recent, `tail` = victim), so a full
/// table evicts in O(1) — a min-scan over `capacity` entries per insert
/// melts down exactly in the regime this type exists for, a streaming
/// trace that touches far more blocks than the table holds.
#[derive(Debug, Clone)]
pub struct EvictingCosmos {
    /// The empty register every new block starts from.
    empty: Mhr,
    filter_max: u8,
    capacity: usize,
    blocks: FastMap<BlockAddr, Node>,
    head: Option<BlockAddr>,
    tail: Option<BlockAddr>,
    /// Blocks whose history was discarded under capacity pressure.
    pub evictions: u64,
}

impl EvictingCosmos {
    /// Creates a predictor with at most `capacity` tracked blocks.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is outside `1..=`[`MAX_DEPTH`](crate::packed::MAX_DEPTH)
    /// or `capacity` is zero.
    pub fn new(depth: usize, filter_max: u8, capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity MHT cannot predict");
        EvictingCosmos {
            empty: Mhr::new(depth),
            filter_max,
            capacity,
            blocks: FastMap::default(),
            head: None,
            tail: None,
            evictions: 0,
        }
    }

    /// The MHT capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn unlink(&mut self, block: BlockAddr) {
        let (prev, next) = {
            let n = &self.blocks[&block];
            (n.prev, n.next)
        };
        match prev {
            Some(p) => self.blocks.get_mut(&p).expect("list link").next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.blocks.get_mut(&n).expect("list link").prev = prev,
            None => self.tail = prev,
        }
    }

    fn push_front(&mut self, block: BlockAddr) {
        let old = self.head;
        {
            let n = self.blocks.get_mut(&block).expect("pushed block exists");
            n.prev = None;
            n.next = old;
        }
        match old {
            Some(o) => self.blocks.get_mut(&o).expect("list link").prev = Some(block),
            None => self.tail = Some(block),
        }
        self.head = Some(block);
    }

    fn evict_lru(&mut self) {
        // The tail is the least recently *observed* block (predictions
        // don't touch recency), matching the timestamp-scan this
        // replaced: deterministic regardless of table iteration order.
        if let Some(victim) = self.tail {
            self.unlink(victim);
            self.blocks.remove(&victim);
            self.evictions += 1;
        }
    }
}

impl MessagePredictor for EvictingCosmos {
    fn name(&self) -> &'static str {
        "cosmos-evicting"
    }

    fn predict(&self, block: BlockAddr) -> Option<PredTuple> {
        self.blocks
            .get(&block)?
            .state
            .predict()
            .map(|e| e.prediction)
    }

    fn observe(&mut self, block: BlockAddr, tuple: PredTuple) {
        if self.blocks.contains_key(&block) {
            self.unlink(block);
        } else {
            if self.blocks.len() >= self.capacity {
                self.evict_lru();
            }
            self.blocks.insert(
                block,
                Node {
                    state: BlockState::new(self.empty),
                    prev: None,
                    next: None,
                },
            );
        }
        self.push_front(block);
        self.blocks
            .get_mut(&block)
            .expect("just inserted")
            .state
            .observe(tuple, self.filter_max);
    }

    fn memory(&self) -> MemoryFootprint {
        MemoryFootprint {
            mhr_entries: self.blocks.len(),
            pht_entries: self.blocks.values().map(|n| n.state.pht_len()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::CosmosPredictor;
    use stache::{MsgType, NodeId};

    fn t(n: usize, m: MsgType) -> PredTuple {
        PredTuple::new(NodeId::new(n), m)
    }

    fn b(i: u64) -> BlockAddr {
        BlockAddr::new(i)
    }

    #[test]
    fn unbounded_capacity_matches_plain_cosmos() {
        let mut ev = EvictingCosmos::new(1, 0, 1000);
        let mut plain = CosmosPredictor::new(1, 0);
        for i in 0..60u64 {
            let blk = b(i % 5);
            let tuple = t(((i / 5) % 3) as usize, MsgType::GetRoRequest);
            assert_eq!(ev.predict(blk), plain.predict(blk));
            ev.observe(blk, tuple);
            plain.observe(blk, tuple);
        }
        assert_eq!(ev.memory(), plain.memory());
        assert_eq!(ev.evictions, 0);
    }

    #[test]
    fn eviction_discards_learned_history() {
        let mut ev = EvictingCosmos::new(1, 0, 1);
        let a = t(1, MsgType::GetRoRequest);
        let bb = t(2, MsgType::GetRwRequest);
        // Learn a->b on block 1.
        for _ in 0..3 {
            ev.observe(b(1), a);
            ev.observe(b(1), bb);
        }
        ev.observe(b(1), a);
        assert_eq!(ev.predict(b(1)), Some(bb));
        // Touching block 2 evicts block 1's state entirely.
        ev.observe(b(2), a);
        assert_eq!(ev.evictions, 1);
        assert_eq!(ev.predict(b(1)), None, "history lost with the block");
        // And block 1 must relearn from scratch.
        ev.observe(b(1), a);
        assert_eq!(ev.predict(b(1)), None);
    }

    #[test]
    fn capacity_is_respected() {
        let mut ev = EvictingCosmos::new(1, 0, 4);
        for i in 0..100u64 {
            ev.observe(b(i), t(0, MsgType::GetRoRequest));
        }
        assert_eq!(ev.memory().mhr_entries, 4);
        assert_eq!(ev.evictions, 96);
    }

    #[test]
    fn lru_keeps_the_hot_block() {
        let mut ev = EvictingCosmos::new(1, 0, 2);
        let a = t(1, MsgType::GetRoRequest);
        let bb = t(2, MsgType::GetRwRequest);
        for _ in 0..3 {
            ev.observe(b(1), a);
            ev.observe(b(1), bb);
        }
        ev.observe(b(2), a); // table now {1, 2}
        ev.observe(b(1), a); // block 1 most recent
        ev.observe(b(3), a); // evicts block 2, not block 1
        assert_eq!(ev.predict(b(1)), Some(bb), "hot block survived");
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_rejected() {
        let _ = EvictingCosmos::new(1, 0, 0);
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn over_deep_history_rejected_at_construction() {
        let _ = EvictingCosmos::new(5, 0, 8);
    }
}
