//! Confidence-gated prediction.
//!
//! §4.2 notes that speculative actions must fire "not too early or late",
//! and §4.3 that mispredictions cost recovery; a natural refinement is to
//! act only on predictions the tables have *repeatedly confirmed*. Every
//! PHT entry carries a saturating confidence counter
//! ([`PhtEntry::confidence`](crate::PhtEntry)): each confirmation
//! increments it, each miss resets it. This variant stays silent until the
//! counter reaches a threshold.
//!
//! The result is a coverage/accuracy dial: higher thresholds answer fewer
//! messages but are right more often — exactly what an integration wants
//! when the misprediction penalty `r` is large (Figure 5's model makes the
//! trade-off explicit).

use crate::memory::MemoryFootprint;
use crate::predictor::CosmosPredictor;
use crate::tuple::PredTuple;
use crate::MessagePredictor;
use stache::BlockAddr;

pub use crate::pht::CONFIDENCE_MAX;

/// A Cosmos variant that only predicts once an entry's confidence reaches
/// the threshold: a gate over an unfiltered [`CosmosPredictor`], whose
/// replacement is immediate on a miss (the confidence counter subsumes the
/// noise filter's role).
#[derive(Debug, Clone)]
pub struct ConfidenceCosmos {
    threshold: u8,
    inner: CosmosPredictor,
}

impl ConfidenceCosmos {
    /// Creates a predictor of the given MHR depth that answers only with
    /// confidence ≥ `threshold` (0 = always answer, like plain Cosmos;
    /// values above [`CONFIDENCE_MAX`] are clamped).
    pub fn new(depth: usize, threshold: u8) -> Self {
        ConfidenceCosmos {
            threshold: threshold.min(CONFIDENCE_MAX),
            inner: CosmosPredictor::new(depth, 0),
        }
    }

    /// The configured confidence threshold.
    pub fn threshold(&self) -> u8 {
        self.threshold
    }

    /// The raw prediction regardless of confidence, with its confidence.
    pub fn predict_with_confidence(&self, block: BlockAddr) -> Option<(PredTuple, u8)> {
        self.inner.predict_with_confidence(block)
    }
}

impl MessagePredictor for ConfidenceCosmos {
    fn name(&self) -> &'static str {
        "cosmos-confidence"
    }

    fn predict(&self, block: BlockAddr) -> Option<PredTuple> {
        self.predict_with_confidence(block)
            .and_then(|(p, c)| (c >= self.threshold).then_some(p))
    }

    fn observe(&mut self, block: BlockAddr, tuple: PredTuple) {
        self.inner.observe(block, tuple);
    }

    fn memory(&self) -> MemoryFootprint {
        self.inner.memory()
    }

    fn core_stats(&self) -> crate::CoreStats {
        self.inner.core_stats()
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

    #[test]
    fn threshold_zero_behaves_like_plain_cosmos() {
        let mut p = ConfidenceCosmos::new(1, 0);
        p.observe(b(1), t(1, MsgType::GetRoRequest));
        p.observe(b(1), t(2, MsgType::GetRwRequest));
        p.observe(b(1), t(1, MsgType::GetRoRequest));
        assert_eq!(p.predict(b(1)), Some(t(2, MsgType::GetRwRequest)));
    }

    #[test]
    fn needs_confirmations_before_answering() {
        let mut p = ConfidenceCosmos::new(1, 2);
        let a = t(1, MsgType::GetRoRequest);
        let bb = t(2, MsgType::GetRwRequest);
        // First sighting of A -> B: confidence 0, silent.
        p.observe(b(1), a);
        p.observe(b(1), bb);
        p.observe(b(1), a);
        assert_eq!(p.predict(b(1)), None);
        assert_eq!(p.predict_with_confidence(b(1)), Some((bb, 0)));
        // One confirmation: confidence 1, still silent.
        p.observe(b(1), bb);
        p.observe(b(1), a);
        assert_eq!(p.predict(b(1)), None);
        // Second confirmation: confidence 2, speaks.
        p.observe(b(1), bb);
        p.observe(b(1), a);
        assert_eq!(p.predict(b(1)), Some(bb));
    }

    #[test]
    fn a_miss_resets_confidence() {
        let mut p = ConfidenceCosmos::new(1, 1);
        let a = t(1, MsgType::GetRoRequest);
        let bb = t(2, MsgType::GetRwRequest);
        let c = t(3, MsgType::UpgradeRequest);
        for _ in 0..3 {
            p.observe(b(1), a);
            p.observe(b(1), bb);
        }
        p.observe(b(1), a);
        assert_eq!(p.predict(b(1)), Some(bb));
        // Noise: A -> C. The entry is replaced at confidence 0: silent.
        p.observe(b(1), c);
        p.observe(b(1), a);
        assert_eq!(p.predict(b(1)), None);
    }

    #[test]
    fn confidence_saturates() {
        let mut p = ConfidenceCosmos::new(1, 0);
        let a = t(1, MsgType::GetRoRequest);
        let bb = t(2, MsgType::GetRwRequest);
        for _ in 0..10 {
            p.observe(b(1), a);
            p.observe(b(1), bb);
        }
        p.observe(b(1), a);
        let (_, conf) = p.predict_with_confidence(b(1)).unwrap();
        assert_eq!(conf, CONFIDENCE_MAX);
    }

    #[test]
    fn threshold_clamped_to_max() {
        let p = ConfidenceCosmos::new(2, 200);
        assert_eq!(p.threshold(), CONFIDENCE_MAX);
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn over_deep_history_rejected_at_construction() {
        let _ = ConfidenceCosmos::new(5, 0);
    }
}
