//! The prediction-driven speculation policy of the serial engine.

use crate::fleet::Fleet;
use cosmos::{CosmosPredictor, MessagePredictor, PredTuple};
use simx::SpeculationPolicy;
use stache::{BlockAddr, MsgType, NodeId};
use trace::MsgRecord;

/// Drives the machine's two speculative actions from live per-agent
/// predictors — a `D` per directory and a `C` per cache, trained on exactly
/// the messages each agent receives, as §3.2 prescribes.
///
/// Speculation is deliberately *conservative*: an action fires only when
/// the agent's predictor has an opinion and that opinion maps to the
/// action. With no opinion the protocol runs unmodified, so the worst
/// case degenerates to the baseline plus mispredicted actions.
///
/// [`CosmosPolicy`] runs Cosmos at both agents;
/// [`DirectedPolicy`](crate::directed_policy::DirectedPolicy) runs the §7
/// directed predictors.
#[derive(Debug)]
pub struct PredictorPolicy<D, C> {
    fleet: Fleet<D, C>,
    /// Exclusive grants issued.
    pub grants: u64,
    /// Voluntary replacements issued.
    pub replacements: u64,
}

/// The Cosmos-driven policy: one Cosmos predictor per directory and per
/// cache.
pub type CosmosPolicy = PredictorPolicy<CosmosPredictor, CosmosPredictor>;

impl<D: MessagePredictor + Clone, C: MessagePredictor + Clone> PredictorPolicy<D, C> {
    /// A policy whose agents start as copies of the given empty
    /// directory and cache predictors.
    pub(crate) fn with_predictors(directory: D, cache: C) -> Self {
        PredictorPolicy {
            fleet: Fleet::new(directory, cache),
            grants: 0,
            replacements: 0,
        }
    }
}

impl CosmosPolicy {
    /// Creates a policy whose predictors use the given MHR depth (the
    /// paper's single-bit filter is always on: speculation should not
    /// flip-flop on one noisy message).
    pub fn new(depth: usize) -> Self {
        let cosmos = CosmosPredictor::new(depth, 1);
        PredictorPolicy::with_predictors(cosmos.clone(), cosmos)
    }
}

impl<D, C> SpeculationPolicy for PredictorPolicy<D, C>
where
    D: MessagePredictor + Clone + std::fmt::Debug,
    C: MessagePredictor + Clone + std::fmt::Debug,
{
    fn grant_exclusive(&mut self, home: NodeId, requester: NodeId, block: BlockAddr) -> bool {
        // The directory predictor has already observed the get_ro_request
        // (observe runs on every reception). If it now expects an
        // upgrade_request from the same requester, grant exclusive.
        let predicted = self.fleet.directory(home).predict(block);
        let fire = predicted == Some(PredTuple::new(requester, MsgType::UpgradeRequest));
        self.grants += u64::from(fire);
        fire
    }

    fn self_invalidate(&mut self, node: NodeId, block: BlockAddr) -> bool {
        // After the store, does this cache expect its copy to be recalled?
        let predicted = self.fleet.cache(node).predict(block);
        let fire = matches!(
            predicted,
            Some(PredTuple {
                mtype: MsgType::InvalRwRequest,
                ..
            })
        );
        self.replacements += u64::from(fire);
        fire
    }

    fn observe(&mut self, record: &MsgRecord) {
        self.fleet.observe(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stache::Role;

    fn rec(node: usize, role: Role, block: u64, sender: usize, mtype: MsgType) -> MsgRecord {
        MsgRecord {
            time_ns: 0,
            node: NodeId::new(node),
            role,
            block: BlockAddr::new(block),
            sender: NodeId::new(sender),
            mtype,
            iteration: 0,
        }
    }

    #[test]
    fn grants_after_learning_a_rmw_pattern() {
        let mut p = CosmosPolicy::new(1);
        // Train the directory at node 0: reader P1's get_ro is always
        // followed by P1's upgrade.
        for _ in 0..3 {
            p.observe(&rec(0, Role::Directory, 5, 1, MsgType::GetRoRequest));
            p.observe(&rec(0, Role::Directory, 5, 1, MsgType::UpgradeRequest));
            p.observe(&rec(0, Role::Directory, 5, 2, MsgType::InvalRwResponse));
        }
        // A new get_ro_request arrives (the machine records it first)...
        p.observe(&rec(0, Role::Directory, 5, 1, MsgType::GetRoRequest));
        // ...and the policy grants exclusive.
        assert!(p.grant_exclusive(NodeId::new(0), NodeId::new(1), BlockAddr::new(5)));
        assert_eq!(p.grants, 1);
    }

    #[test]
    fn does_not_grant_for_a_different_requester() {
        let mut p = CosmosPolicy::new(1);
        for _ in 0..3 {
            p.observe(&rec(0, Role::Directory, 5, 1, MsgType::GetRoRequest));
            p.observe(&rec(0, Role::Directory, 5, 1, MsgType::UpgradeRequest));
            p.observe(&rec(0, Role::Directory, 5, 2, MsgType::InvalRwResponse));
        }
        p.observe(&rec(0, Role::Directory, 5, 1, MsgType::GetRoRequest));
        // Prediction says P1 will upgrade; P3 asking must not be granted.
        assert!(!p.grant_exclusive(NodeId::new(0), NodeId::new(3), BlockAddr::new(5)));
    }

    #[test]
    fn self_invalidates_on_predicted_recall() {
        let mut p = CosmosPolicy::new(1);
        // Train the producer's cache: every exclusive fill is followed by
        // a recall.
        for _ in 0..3 {
            p.observe(&rec(1, Role::Cache, 7, 0, MsgType::GetRwResponse));
            p.observe(&rec(1, Role::Cache, 7, 0, MsgType::InvalRwRequest));
        }
        p.observe(&rec(1, Role::Cache, 7, 0, MsgType::GetRwResponse));
        assert!(p.self_invalidate(NodeId::new(1), BlockAddr::new(7)));
        assert_eq!(p.replacements, 1);
    }

    #[test]
    fn cold_policy_never_speculates() {
        let mut p = CosmosPolicy::new(2);
        assert!(!p.grant_exclusive(NodeId::new(0), NodeId::new(1), BlockAddr::new(1)));
        assert!(!p.self_invalidate(NodeId::new(1), BlockAddr::new(1)));
        assert_eq!(p.grants + p.replacements, 0);
    }

    #[test]
    fn agents_are_isolated() {
        let mut p = CosmosPolicy::new(1);
        // Directory 0 learns the pattern; directory 3 must not inherit it.
        for _ in 0..3 {
            p.observe(&rec(0, Role::Directory, 5, 1, MsgType::GetRoRequest));
            p.observe(&rec(0, Role::Directory, 5, 1, MsgType::UpgradeRequest));
            p.observe(&rec(0, Role::Directory, 5, 2, MsgType::InvalRwResponse));
        }
        p.observe(&rec(3, Role::Directory, 5, 1, MsgType::GetRoRequest));
        assert!(!p.grant_exclusive(NodeId::new(3), NodeId::new(1), BlockAddr::new(5)));
    }
}
