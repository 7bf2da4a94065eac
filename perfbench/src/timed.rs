//! Benchmark-side wrappers that time a sampled subset of the calls a
//! layer makes into the predictor (`cosmos`) and speculation (`accel`)
//! layers. Each wrapper delegates every call to the real type and counts
//! it; one call in [`SAMPLE_EVERY`] is timed. Only the traced run uses
//! them, so the untraced run measures the program exactly as shipped.

use cosmos::{CoreStats, MemoryFootprint, MessagePredictor, PredTuple};
use simx::{ForwardKind, SpeculationPolicy};
use stache::{BlockAddr, NodeId};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Instant;
use trace::MsgRecord;

/// One call in this many is timed.
pub const SAMPLE_EVERY: u64 = 64;

/// Calls seen at one site, and the time of the sampled ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallTally {
    /// Every call.
    pub calls: u64,
    /// Calls that were timed.
    pub sampled: u64,
    /// Summed wall time of the timed calls, timer cost removed, in ns.
    pub sampled_ns: u64,
}

impl CallTally {
    /// Mean ns per call over the sampled calls; 0 when none was sampled.
    pub fn mean_ns(&self) -> f64 {
        crate::stats::ratio(self.sampled_ns as f64, self.sampled as f64)
    }

    /// Estimated time of all calls, in seconds.
    pub fn estimated_s(&self) -> f64 {
        self.mean_ns() * self.calls as f64 / 1e9
    }
}

/// The cost of one `Instant::now()` pair, measured once per process and
/// subtracted from every sampled call.
fn timer_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut samples: Vec<u64> = (0..1001)
            .map(|_| {
                let t0 = Instant::now();
                t0.elapsed().as_nanos() as u64
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    })
}

/// A call site shared between a wrapper and the benchmark that reads it.
#[derive(Debug, Clone, Default)]
pub struct Site(Rc<Cell<CallTally>>);

impl Site {
    /// Runs `f`, counting it and timing it if it is a sampled call.
    pub fn call<R>(&self, f: impl FnOnce() -> R) -> R {
        let mut t = self.0.get();
        t.calls += 1;
        if !t.calls.is_multiple_of(SAMPLE_EVERY) {
            self.0.set(t);
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        t.sampled += 1;
        t.sampled_ns += ns.saturating_sub(timer_overhead_ns());
        self.0.set(t);
        r
    }

    /// The tally so far.
    pub fn tally(&self) -> CallTally {
        self.0.get()
    }
}

/// The predict and observe sites of a predictor fleet.
#[derive(Debug, Clone, Default)]
pub struct PredictorSites {
    /// `MessagePredictor::predict`.
    pub predict: Site,
    /// `MessagePredictor::observe`.
    pub observe: Site,
}

/// A [`MessagePredictor`] that times a sample of its calls.
pub struct TimedPredictor<P> {
    inner: P,
    sites: PredictorSites,
}

impl<P> TimedPredictor<P> {
    /// Wraps `inner`, reporting into `sites`.
    pub fn new(inner: P, sites: &PredictorSites) -> Self {
        TimedPredictor {
            inner,
            sites: sites.clone(),
        }
    }
}

impl<P: MessagePredictor> MessagePredictor for TimedPredictor<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn predict(&self, block: BlockAddr) -> Option<PredTuple> {
        self.sites.predict.call(|| self.inner.predict(block))
    }

    fn observe(&mut self, block: BlockAddr, tuple: PredTuple) {
        let inner = &mut self.inner;
        self.sites.observe.call(|| inner.observe(block, tuple));
    }

    fn memory(&self) -> MemoryFootprint {
        self.inner.memory()
    }

    fn core_stats(&self) -> CoreStats {
        self.inner.core_stats()
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }
}

/// A [`SpeculationPolicy`] that times a sample of its hook calls; every
/// hook, `observe` included, reports into one site.
#[derive(Debug)]
pub struct TimedPolicy<P> {
    inner: P,
    hooks: Site,
}

impl<P> TimedPolicy<P> {
    /// Wraps `inner`, reporting into `hooks`.
    pub fn new(inner: P, hooks: &Site) -> Self {
        TimedPolicy {
            inner,
            hooks: hooks.clone(),
        }
    }
}

impl<P: SpeculationPolicy> SpeculationPolicy for TimedPolicy<P> {
    fn grant_exclusive(&mut self, home: NodeId, requester: NodeId, block: BlockAddr) -> bool {
        let inner = &mut self.inner;
        self.hooks
            .call(|| inner.grant_exclusive(home, requester, block))
    }

    fn self_invalidate(&mut self, node: NodeId, block: BlockAddr) -> bool {
        let inner = &mut self.inner;
        self.hooks.call(|| inner.self_invalidate(node, block))
    }

    fn early_inval_ack(&mut self, node: NodeId, block: BlockAddr) -> bool {
        let inner = &mut self.inner;
        self.hooks.call(|| inner.early_inval_ack(node, block))
    }

    fn forward_candidate(
        &mut self,
        home: NodeId,
        block: BlockAddr,
    ) -> Option<(NodeId, ForwardKind)> {
        let inner = &mut self.inner;
        self.hooks.call(|| inner.forward_candidate(home, block))
    }

    fn observe(&mut self, record: &MsgRecord) {
        let inner = &mut self.inner;
        self.hooks.call(|| inner.observe(record));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos::CosmosPredictor;
    use stache::MsgType;

    #[test]
    fn wrapper_delegates_and_samples() {
        let sites = PredictorSites::default();
        let mut timed = TimedPredictor::new(CosmosPredictor::new(1, 0), &sites);
        let mut plain = CosmosPredictor::new(1, 0);
        let b = BlockAddr::new(3);
        for i in 0..200u64 {
            let t = PredTuple::new(NodeId::new((i % 3) as usize), MsgType::GetRoRequest);
            assert_eq!(timed.predict(b), plain.predict(b));
            timed.observe(b, t);
            plain.observe(b, t);
        }
        assert_eq!(timed.core_stats(), plain.core_stats());
        let p = sites.predict.tally();
        assert_eq!(p.calls, 200);
        assert_eq!(p.sampled, 200 / SAMPLE_EVERY);
        assert_eq!(sites.observe.tally().calls, 200);
    }
}
