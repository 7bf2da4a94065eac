//! The per-agent predictor fleet every policy and the action audit share.

use cosmos::{FastMap, MessagePredictor, PredTuple};
use stache::{NodeId, Role};
use trace::MsgRecord;

/// One predictor per directory and one per cache, as §3.2 prescribes,
/// created on an agent's first use by cloning an empty prototype, and
/// trained on exactly the messages each agent receives.
#[derive(Debug)]
pub(crate) struct Fleet<D, C> {
    directory_proto: D,
    cache_proto: C,
    directories: FastMap<NodeId, D>,
    caches: FastMap<NodeId, C>,
}

impl<D: MessagePredictor + Clone, C: MessagePredictor + Clone> Fleet<D, C> {
    /// A fleet whose agents start as copies of the given empty predictors.
    pub(crate) fn new(directory_proto: D, cache_proto: C) -> Self {
        Fleet {
            directory_proto,
            cache_proto,
            directories: FastMap::default(),
            caches: FastMap::default(),
        }
    }

    /// The directory predictor at `home`.
    pub(crate) fn directory(&mut self, home: NodeId) -> &mut D {
        let proto = &self.directory_proto;
        self.directories
            .entry(home)
            .or_insert_with(|| proto.clone())
    }

    /// The cache predictor at `node`.
    pub(crate) fn cache(&mut self, node: NodeId) -> &mut C {
        let proto = &self.cache_proto;
        self.caches.entry(node).or_insert_with(|| proto.clone())
    }

    /// Trains the receiving agent's predictor on one recorded reception.
    pub(crate) fn observe(&mut self, record: &MsgRecord) {
        let tuple = PredTuple::new(record.sender, record.mtype);
        match record.role {
            Role::Directory => self.directory(record.node).observe(record.block, tuple),
            Role::Cache => self.cache(record.node).observe(record.block, tuple),
        }
    }
}
