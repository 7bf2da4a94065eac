//! The message-level protocol core both event-driven engines run
//! (DESIGN.md §6h).
//!
//! [`ConcurrentMachine`](crate::ConcurrentMachine) and
//! [`ShardedMachine`](crate::ShardedMachine) execute the same Stache
//! handlers and differ only in how they schedule events: the first pops
//! one global ranked queue, the second runs node-range shards in
//! conservative time windows and merges their logs. Everything except the
//! scheduling lives here, once. A [`Core`] holds the protocol state of a
//! contiguous node range — caches, the directory entries of the blocks
//! homed there, open transactions and the requests queued behind them,
//! handler-occupancy horizons, clocks and scripts — and every handler from
//! `on_issue` through `on_cache_receive`.
//!
//! A core reaches its scheduler only through [`Sched`]: push an event,
//! capture a delivered message, log a flight-recorder event. The
//! concurrent engine's layers on top of the clean protocol — network fault
//! recovery, prediction-actioned speculation, causal spans and simcheck's
//! seeded mutations — live in [`Layers`], which only its scheduler
//! provides. Every branch that reads them tests for the layer first, so on
//! a scheduler without layers they compile away and the clean-fabric path
//! does no extra work. Several of those branches read *another* node's
//! state (a requester's `waiting` entry, an acknowledger's cache line),
//! which is why the layers cannot run inside a shard.

use crate::arena::{Arena, ArenaId};
use crate::concurrent::ProtocolMutation;
use crate::config::SystemConfig;
use crate::driver::{Access, AccessOp};
use crate::fault::FaultInjector;
use crate::machine::{ForwardKind, SimError, SpeculationPolicy};
use crate::stats::MachineStats;
use obs::span::{SpanKind, SpanLog, TraceId};
use obs::{Event as ObsEvent, EventRing, Severity};
use stache::cache::{self, CacheAction};
use stache::directory;
use stache::invariants::check_block;
use stache::placement::home_of_block;
use stache::{
    BlockAddr, CacheState, DedupFilter, DirState, Msg, MsgType, NodeId, NodeSet, ProcOp,
    ProtocolConfig, ProtocolTally, RecoveryTally, RollbackTally,
};
use std::collections::{HashMap, HashSet, VecDeque};

/// A scheduled event. Clean-fabric runs use only [`Issue`](Event::Issue)
/// and [`Deliver`](Event::Deliver); the rest belong to the fault and
/// speculation layers.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// A processor attempts its next script operation.
    Issue(NodeId),
    /// A message is delivered to its receiver, carrying its transmission
    /// sequence number (0 and unchecked on a perfect fabric).
    Deliver(Msg, u64),
    /// A NAK bounces a request for a busy block back to its sender
    /// (fault mode only). NAKs are recovery-layer control traffic,
    /// excluded from the trace vocabulary like §5.1 barrier messages.
    Nak {
        /// The NAKed requester.
        node: NodeId,
        /// The contended block.
        block: BlockAddr,
    },
    /// A requester's retransmission timer (fault mode only). Lazily
    /// cancelled: stale epochs are ignored when popped.
    RetryCheck {
        /// The waiting requester.
        node: NodeId,
        /// The miss epoch the timer was armed in.
        epoch: u64,
        /// Transmission attempts made so far.
        attempt: u32,
    },
    /// A directory's invalidation-acknowledgment timer (fault mode
    /// only), also lazily cancelled via the transaction epoch.
    AckCheck {
        /// The transaction's block.
        block: BlockAddr,
        /// The transaction epoch the timer was armed for.
        epoch: u64,
        /// Re-send rounds completed so far.
        attempt: u32,
    },
    /// A speculative push (unsolicited grant) travelling home → target
    /// over the reliable control channel. Like NAKs, pushes are outside
    /// the Table 1 trace vocabulary. The message type encodes the flavour
    /// (`get_ro_response` = shared copy, `get_rw_response` = exclusive).
    SpecPush(Msg, u64),
    /// The target's verdict on a push, travelling back to the home.
    SpecPushResp {
        /// The response message (target → home).
        msg: Msg,
        /// Whether the target accepted the pushed copy.
        accepted: bool,
        /// Transmission sequence number (0 on a perfect fabric).
        seq: u64,
    },
}

/// What a [`Core`] needs from the engine that schedules it.
pub(crate) trait Sched {
    /// Schedules `ev` at simulated time `at`.
    fn push(&mut self, at: u64, ev: Event);
    /// Captures a delivered coherence message as a trace record.
    fn capture(&mut self, time: u64, msg: &Msg, iteration: u32);
    /// Logs a flight-recorder event, built only if the recorder takes it.
    fn log(&mut self, ev: impl FnOnce() -> ObsEvent);
    /// The fault, speculation and span layers, if this scheduler has them.
    fn layers(&mut self) -> Option<&mut Layers> {
        None
    }
}

/// The concurrent engine's layers on top of the clean protocol. Per-node
/// vectors are indexed by global node index: only a core over every node
/// carries layers.
#[derive(Debug)]
pub(crate) struct Layers {
    /// The §4 speculation hook, if any.
    pub(crate) policy: Option<Box<dyn SpeculationPolicy>>,
    /// Network fault injection, if installed. `None` (the default) means
    /// a perfect fabric and the original code paths.
    pub(crate) fault: Option<FaultInjector>,
    /// Causal span log (disabled by default).
    pub(crate) spans: SpanLog,
    /// Everything the recovery layer did (quiet on a perfect fabric).
    pub(crate) recovery: RecoveryTally,
    /// Speculative push/rollback accounting (quiet without a policy).
    pub(crate) rollback: RollbackTally,
    /// Seeded protocol bug for simcheck self-validation (off by default).
    pub(crate) mutation: ProtocolMutation,
    /// Per-node duplicate filters (sequence-numbered idempotent delivery).
    pub(crate) dedup: Vec<DedupFilter>,
    /// Next transmission sequence number per *receiver*.
    pub(crate) next_seq_to: Vec<u64>,
    /// Per-node miss epoch, bumped when a miss completes — lazily
    /// cancels that node's outstanding [`Event::RetryCheck`] timers.
    pub(crate) miss_epoch: Vec<u64>,
    /// Per-node grant poison line: a grant carrying a sequence number
    /// below this was transmitted before a recall this node has already
    /// acknowledged while waiting, so consuming it would re-admit a copy
    /// the directory believes reclaimed. Only ever raised in fault mode
    /// (sequence numbers are all zero on a perfect fabric).
    pub(crate) grant_poison: Vec<u64>,
    /// Whether the node's current miss needed a recovery action, for the
    /// recovery-latency histogram.
    pub(crate) miss_recovered: Vec<bool>,
    /// The span tree of each node's in-flight miss, if any.
    pub(crate) miss_trace: Vec<TraceId>,
    /// Monotone counter stamping [`DirTxn::epoch`].
    pub(crate) txn_epoch: u64,
}

impl Layers {
    /// All layers off: a perfect fabric, no policy, spans disabled.
    pub(crate) fn new(nodes: usize) -> Self {
        Layers {
            policy: None,
            fault: None,
            spans: SpanLog::new(),
            recovery: RecoveryTally::new(),
            rollback: RollbackTally::new(),
            mutation: ProtocolMutation::default(),
            dedup: vec![DedupFilter::new(); nodes],
            next_seq_to: vec![0; nodes],
            miss_epoch: vec![0; nodes],
            grant_poison: vec![0; nodes],
            miss_recovered: vec![false; nodes],
            miss_trace: vec![TraceId::NONE; nodes],
            txn_epoch: 0,
        }
    }
}

/// An in-flight directory transaction for one block.
#[derive(Debug, Clone)]
pub(crate) struct DirTxn {
    pub(crate) requester: NodeId,
    /// The grant to send when all acknowledgments are in (`None` for the
    /// home's own accesses, which need no reply message).
    pub(crate) reply: Option<MsgType>,
    pub(crate) next: DirState,
    pub(crate) outstanding: usize,
    /// Whether the requester is the home itself.
    pub(crate) local: bool,
    /// The invalidations/downgrades sent, kept so fault-mode ack timers
    /// can re-send exactly the unacknowledged ones.
    pub(crate) holders: Vec<(NodeId, MsgType)>,
    /// Holders whose acknowledgment has been counted (fault mode):
    /// makes ack processing idempotent under re-sends and races.
    pub(crate) acked: HashSet<NodeId>,
    /// Monotone transaction id; a popped [`Event::AckCheck`] with a
    /// different epoch belongs to an earlier transaction and is ignored.
    pub(crate) epoch: u64,
    /// Whether this transaction is a speculative push (no requester is
    /// blocked on it; `next` is provisional until the target's verdict).
    pub(crate) speculative: bool,
    /// The requester's span tree, threaded onto every message the
    /// transaction sends (observability only).
    pub(crate) trace: TraceId,
}

/// A request waiting for a busy block at its home directory.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingReq {
    pub(crate) msg: Msg,
    arrived: u64,
}

/// The network span name for a message in flight, by protocol leg.
fn net_span_name(mtype: MsgType) -> &'static str {
    use MsgType::*;
    match mtype {
        GetRoRequest | GetRwRequest | UpgradeRequest => "net.request",
        GetRoResponse | GetRwResponse | UpgradeResponse => "net.reply",
        InvalRoRequest | InvalRwRequest | DowngradeRequest => "net.inval",
        InvalRoResponse | InvalRwResponse | DowngradeResponse => "net.ack",
    }
}

/// Every node's effective cache state for `block`, indexed by node. The
/// home node holds no separate cache entry — its rights are the directory
/// entry itself, so they are derived from `dir` here, the same picture the
/// coherence audits check.
pub(crate) fn effective_states(
    block: BlockAddr,
    proto: &ProtocolConfig,
    dir: &DirState,
    cache_state: impl Fn(NodeId) -> CacheState,
) -> Vec<CacheState> {
    let home = home_of_block(block, proto);
    (0..proto.nodes)
        .map(|i| {
            let n = NodeId::new(i);
            if n != home {
                cache_state(n)
            } else if dir.node_writable(n) {
                CacheState::Exclusive
            } else if dir.node_readable(n) {
                CacheState::Shared
            } else {
                CacheState::Invalid
            }
        })
        .collect()
}

/// Audits one block's full-map/SWMR invariants, counting the check in
/// `tally`. A violation is counted, logged to `ring` at time `at()`, and
/// returned.
pub(crate) fn audit_block(
    block: BlockAddr,
    dir: &DirState,
    states: &[CacheState],
    tally: &ProtocolTally,
    ring: &mut EventRing,
    at: impl FnOnce() -> u64,
) -> Result<(), SimError> {
    tally.count_invariant_check();
    check_block(block, dir, states).map_err(|v| {
        tally.count_invariant_failure();
        let mut ev = ObsEvent::new(at(), Severity::Error, "invariant.failure")
            .block(block.number())
            .msg(v.kind_name());
        if let Some(n) = v.node() {
            ev = ev.node(n.raw());
        }
        ring.push(ev);
        SimError::from(v)
    })
}

/// Sorts and dedups a block list into ascending block order, the order
/// every coherence audit walks, so the first violation reported never
/// depends on hash iteration order.
pub(crate) fn audit_order(blocks: &mut Vec<BlockAddr>) {
    blocks.sort_unstable_by_key(|b| b.number());
    blocks.dedup();
}

/// The protocol state of the nodes `lo .. lo + clocks.len()` plus the
/// scheduler `sched` that moves their events.
#[derive(Debug)]
pub(crate) struct Core<X> {
    pub(crate) proto: ProtocolConfig,
    pub(crate) sys: SystemConfig,
    /// First owned node index.
    pub(crate) lo: usize,
    pub(crate) caches: Vec<HashMap<BlockAddr, CacheState>>,
    /// Directory entries of the blocks homed on the owned nodes.
    pub(crate) dirs: HashMap<BlockAddr, DirState>,
    pub(crate) txns: HashMap<BlockAddr, DirTxn>,
    /// Requests queued behind a busy block, oldest first.
    pub(crate) pending: HashMap<BlockAddr, VecDeque<ArenaId>>,
    /// Backing storage for queued requests: slots recycle through the
    /// free list, so steady-state queueing allocates nothing.
    pub(crate) preqs: Arena<PendingReq>,
    pub(crate) overflowed: HashSet<BlockAddr>,
    pub(crate) dir_busy: Vec<u64>,
    /// Per-node time at which the cache-side protocol handler frees up
    /// (invalidations and grants are software-handled too).
    pub(crate) cache_busy: Vec<u64>,
    pub(crate) clocks: Vec<u64>,
    /// Remaining operations of the current phase, per node.
    pub(crate) scripts: Vec<VecDeque<(BlockAddr, ProcOp)>>,
    /// The (block, op, issue time) each processor is blocked on, if any.
    pub(crate) waiting: Vec<Option<(BlockAddr, ProcOp, u64)>>,
    pub(crate) stats: MachineStats,
    /// Per-transition and invariant-check tallies.
    pub(crate) tally: ProtocolTally,
    /// Blocks whose cache or directory entry was written since the last
    /// barrier, in write order with repeats. A block not listed kept the
    /// state the previous barrier audited, so the barrier audits only
    /// these, then clears the list.
    pub(crate) written: Vec<BlockAddr>,
    pub(crate) iteration: u32,
    pub(crate) sched: X,
}

impl<X: Sched> Core<X> {
    /// A core over the `count` nodes starting at `lo`.
    pub(crate) fn new(
        proto: ProtocolConfig,
        sys: SystemConfig,
        lo: usize,
        count: usize,
        sched: X,
    ) -> Self {
        Core {
            proto,
            sys,
            lo,
            caches: vec![HashMap::new(); count],
            dirs: HashMap::new(),
            txns: HashMap::new(),
            pending: HashMap::new(),
            preqs: Arena::new(),
            overflowed: HashSet::new(),
            dir_busy: vec![0; count],
            cache_busy: vec![0; count],
            clocks: vec![0; count],
            scripts: vec![VecDeque::new(); count],
            waiting: vec![None; count],
            stats: MachineStats::default(),
            tally: ProtocolTally::new(),
            written: Vec::new(),
            iteration: 0,
            sched,
        }
    }

    /// Local index of an owned node.
    #[inline]
    pub(crate) fn li(&self, node: NodeId) -> usize {
        node.index() - self.lo
    }

    fn one_way(&self, from: NodeId, to: NodeId) -> u64 {
        self.sys.one_way_between_ns(from, to, self.proto.nodes)
    }

    /// An owned node's recorded cache state for a block (`Invalid` when
    /// never touched). The home node's rights live in the directory entry
    /// instead — see [`effective_states`].
    pub(crate) fn cache_state(&self, node: NodeId, block: BlockAddr) -> CacheState {
        self.caches[self.li(node)]
            .get(&block)
            .copied()
            .unwrap_or(CacheState::Invalid)
    }

    /// The directory entry for an owned block (`Idle` if never touched).
    pub(crate) fn dir_state(&self, block: BlockAddr) -> DirState {
        self.dirs.get(&block).cloned().unwrap_or_default()
    }

    /// Every block an owned cache or directory entry has touched.
    pub(crate) fn touched_blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.dirs
            .keys()
            .chain(self.caches.iter().flat_map(HashMap::keys))
            .copied()
    }

    /// Loads one node's share of a phase, expanding read-modify-writes
    /// into a read then a write (non-atomic here), and returns when its
    /// first issue is due — `None` if it has nothing to do.
    pub(crate) fn load_script(
        &mut self,
        node: NodeId,
        accesses: &[Access],
        delay: u64,
    ) -> Option<u64> {
        let li = self.li(node);
        let script = &mut self.scripts[li];
        debug_assert!(script.is_empty(), "previous phase drained");
        for a in accesses {
            debug_assert_eq!(a.node, node);
            match a.op {
                AccessOp::Read => script.push_back((a.block, ProcOp::Read)),
                AccessOp::Write => script.push_back((a.block, ProcOp::Write)),
                AccessOp::ReadModifyWrite => {
                    script.push_back((a.block, ProcOp::Read));
                    script.push_back((a.block, ProcOp::Write));
                }
            }
        }
        if script.is_empty() {
            return None;
        }
        self.clocks[li] += delay;
        Some(self.clocks[li])
    }

    // -- layer access: every helper is a no-op without layers ----------

    /// The layers, on a path already gated on [`faulty`](Self::faulty)
    /// or [`speculating`](Self::speculating).
    fn lay(&mut self) -> &mut Layers {
        self.sched
            .layers()
            .expect("layer paths are gated on the layers")
    }

    fn faulty(&mut self) -> bool {
        self.sched.layers().is_some_and(|l| l.fault.is_some())
    }

    fn speculating(&mut self) -> bool {
        self.sched.layers().is_some_and(|l| l.policy.is_some())
    }

    fn mutated(&mut self, mutation: ProtocolMutation) -> bool {
        self.sched.layers().is_some_and(|l| l.mutation == mutation)
    }

    /// Asks the speculation policy, if one is installed.
    fn policy<R: Default>(&mut self, ask: impl FnOnce(&mut dyn SpeculationPolicy) -> R) -> R {
        match self.sched.layers().and_then(|l| l.policy.as_deref_mut()) {
            Some(p) => ask(p),
            None => R::default(),
        }
    }

    /// Runs `f` on the span log, if this scheduler keeps one.
    fn spans<R: Default>(&mut self, f: impl FnOnce(&mut SpanLog) -> R) -> R {
        self.sched
            .layers()
            .map_or_else(R::default, |l| f(&mut l.spans))
    }

    fn span(
        &mut self,
        tr: TraceId,
        name: &'static str,
        kind: SpanKind,
        start: u64,
        end: u64,
        node: NodeId,
    ) {
        self.spans(|s| s.child(tr, name, kind, start, end, node.raw()));
    }

    /// Opens the root span of a speculative action.
    fn spec_trace(
        &mut self,
        name: &'static str,
        t: u64,
        node: NodeId,
        block: BlockAddr,
    ) -> TraceId {
        self.spans(|s| {
            let tr = s.begin_trace(name, t, node.raw(), block.number());
            s.annotate(tr, "speculative");
            tr
        })
    }

    /// Counts a duplicate absorbed by the recovery layer (fault mode).
    fn absorbed(&mut self) {
        if let Some(l) = self.sched.layers().filter(|l| l.fault.is_some()) {
            l.recovery.dups_absorbed += 1;
        }
    }

    /// The next transmission sequence number towards `to` (0, unchecked,
    /// on a perfect fabric).
    fn next_seq(&mut self, to: NodeId) -> u64 {
        match self.sched.layers().filter(|l| l.fault.is_some()) {
            Some(l) => {
                l.next_seq_to[to.index()] += 1;
                l.next_seq_to[to.index()] - 1
            }
            None => 0,
        }
    }

    // -- state updates ---------------------------------------------------

    fn set_cache_state(&mut self, node: NodeId, block: BlockAddr, s: CacheState) {
        let prev = self.cache_state(node, block);
        self.tally.cache_transition(prev, s);
        let li = self.li(node);
        if s == CacheState::Invalid {
            self.caches[li].remove(&block);
        } else {
            self.caches[li].insert(block, s);
        }
        self.written.push(block);
        let clock = self.clocks[li];
        self.sched.log(|| {
            ObsEvent::new(clock, Severity::Debug, "cache.transition")
                .node(node.raw())
                .block(block.number())
                .msg(s.short_name())
        });
    }

    fn set_dir(&mut self, block: BlockAddr, next: DirState) {
        match (&next, self.proto.limited_pointers) {
            (DirState::Shared(s), Some(budget)) if s.len() > budget => {
                if self.overflowed.insert(block) {
                    self.stats.directory_overflows += 1;
                }
            }
            (DirState::Shared(_), _) => {}
            _ => {
                self.overflowed.remove(&block);
            }
        }
        self.tally
            .dir_transition(self.dirs.get(&block).unwrap_or(&DirState::Idle), &next);
        self.dirs.insert(block, next);
        self.written.push(block);
    }

    fn record(&mut self, time: u64, msg: &Msg) {
        self.stats.count_message(msg.mtype);
        self.sched.log(|| {
            ObsEvent::new(time, Severity::Info, "msg.recv")
                .node(msg.receiver.raw())
                .block(msg.block.number())
                .msg(msg.mtype.paper_name())
                .value(msg.sender.raw() as u64)
        });
        self.sched.capture(time, msg, self.iteration);
    }

    fn send(&mut self, at: u64, msg: Msg) {
        let hop = self.one_way(msg.sender, msg.receiver);
        self.stats.net_latency_ns.record(hop);
        if !self.faulty() {
            let name = net_span_name(msg.mtype);
            self.span(msg.trace, name, SpanKind::Network, at, at + hop, msg.sender);
            self.sched.push(at + hop, Event::Deliver(msg, 0));
            return;
        }
        let seq = self.next_seq(msg.receiver);
        let l = self.lay();
        let d = l.fault.as_mut().expect("faulty").next_delivery(hop);
        let (name, kind, arrive) = if d.dropped {
            ("net.lost", SpanKind::Retry, at + hop)
        } else {
            let name = net_span_name(msg.mtype);
            (name, SpanKind::Network, at + hop + d.extra_ns)
        };
        l.spans
            .child(msg.trace, name, kind, at, arrive, msg.sender.raw());
        if d.dropped {
            // The wire ate it; whoever is responsible will time out.
            return;
        }
        self.sched.push(arrive, Event::Deliver(msg, seq));
        if d.duplicated {
            // The copy traverses the wire too, carrying the same
            // sequence number; the receiver's filter absorbs it.
            self.stats.net_latency_ns.record(hop);
            self.sched.push(arrive, Event::Deliver(msg, seq));
        }
    }

    /// Sends over the reliable control channel: never fault-injected, but
    /// sequence-numbered under faults so the receiver's watermark stays
    /// dense. Carries voluntary writebacks and early acks (nothing waits
    /// on them, so no timer could detect their loss) and speculative
    /// pushes and their verdicts (a push transaction has no timer either,
    /// so losing one would wedge the block).
    fn send_reliable(
        &mut self,
        at: u64,
        msg: Msg,
        span: (&'static str, SpanKind),
        ev: impl FnOnce(u64) -> Event,
    ) {
        let hop = self.one_way(msg.sender, msg.receiver);
        self.stats.net_latency_ns.record(hop);
        let seq = self.next_seq(msg.receiver);
        self.span(msg.trace, span.0, span.1, at, at + hop, msg.sender);
        self.sched.push(at + hop, ev(seq));
    }

    // -- handlers --------------------------------------------------------

    /// Executes one event.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors and exhausted retries.
    pub(crate) fn dispatch(&mut self, t: u64, ev: Event) -> Result<(), SimError> {
        match ev {
            Event::Issue(node) => self.on_issue(node, t),
            Event::Deliver(msg, seq) if !self.duplicate(msg.receiver, seq) => {
                self.on_deliver(&msg, seq, t)
            }
            Event::Nak { node, block } => {
                self.on_nak(node, block, t);
                Ok(())
            }
            Event::RetryCheck {
                node,
                epoch,
                attempt,
            } => self.on_retry_check(node, epoch, attempt, t),
            Event::AckCheck {
                block,
                epoch,
                attempt,
            } => self.on_ack_check(block, epoch, attempt, t),
            Event::SpecPush(msg, seq) if !self.duplicate(msg.receiver, seq) => {
                self.on_spec_push(&msg, t);
                Ok(())
            }
            Event::SpecPushResp { msg, accepted, seq } if !self.duplicate(msg.receiver, seq) => {
                self.on_spec_push_resp(&msg, accepted, t)
            }
            // Duplicated transmissions, absorbed before they can re-run a
            // handler or pollute the trace.
            Event::Deliver(..) | Event::SpecPush(..) | Event::SpecPushResp { .. } => Ok(()),
        }
    }

    /// Whether a fault-mode delivery to `to` repeats one already seen
    /// (counted as absorbed).
    fn duplicate(&mut self, to: NodeId, seq: u64) -> bool {
        let Some(l) = self.sched.layers().filter(|l| l.fault.is_some()) else {
            return false;
        };
        let duplicate = !l.dedup[to.index()].observe(seq);
        if duplicate {
            l.recovery.dups_absorbed += 1;
        }
        duplicate
    }

    fn on_issue(&mut self, node: NodeId, t: u64) -> Result<(), SimError> {
        let li = self.li(node);
        let mut now = self.clocks[li].max(t);
        // Burn through hits; stop at the first miss or end of script.
        while let Some(&(block, op)) = self.scripts[li].front() {
            let home = home_of_block(block, &self.proto);
            if node == home {
                // The home's rights live in the directory entry; a local
                // access misses only if the entry needs changing, and that
                // change is itself a (possibly queued) transaction.
                let dir = self.dirs.entry(block).or_default();
                let sufficient = match op {
                    ProcOp::Read => dir.node_readable(node),
                    ProcOp::Write => dir.node_writable(node),
                } && !self.txns.contains_key(&block);
                self.scripts[li].pop_front();
                if sufficient {
                    self.stats.count_access(op, true, self.sys.cache_hit_ns);
                    now += self.sys.cache_hit_ns;
                    continue;
                }
                // Local miss: a directory transaction with no messages to
                // or from the requester. Queue it like a remote request.
                self.waiting[li] = Some((block, op, now));
                self.clocks[li] = now;
                let (req, name) = match op {
                    ProcOp::Read => (MsgType::GetRoRequest, "local_read"),
                    ProcOp::Write => (MsgType::GetRwRequest, "local_write"),
                };
                let tr = self.begin_miss(node, name, now, block);
                let marker = Msg::new(node, node, block, req).with_trace(tr);
                return self.enqueue_or_start(marker, now);
            }
            let state = self.cache_state(node, block);
            let (transient, action) = cache::on_processor_op(state, op)?;
            self.scripts[li].pop_front();
            match action {
                CacheAction::Hit => {
                    self.stats.count_access(op, true, self.sys.cache_hit_ns);
                    now += self.sys.cache_hit_ns;
                    if op == ProcOp::Write {
                        self.maybe_self_invalidate(node, block, now);
                    } else {
                        self.maybe_early_ack(node, block, now);
                    }
                }
                CacheAction::Send(req) => {
                    self.set_cache_state(node, block, transient);
                    self.waiting[li] = Some((block, op, now));
                    self.clocks[li] = now;
                    let tr = self.begin_miss(node, req.paper_name(), now, block);
                    self.send(now, Msg::new(node, home, block, req).with_trace(tr));
                    self.arm_retry(node, now, 0);
                    return Ok(());
                }
            }
        }
        self.clocks[li] = now;
        Ok(())
    }

    /// Opens the span tree of a node's new miss.
    fn begin_miss(
        &mut self,
        node: NodeId,
        name: &'static str,
        t: u64,
        block: BlockAddr,
    ) -> TraceId {
        let Some(l) = self.sched.layers() else {
            return TraceId::NONE;
        };
        let tr = l.spans.begin_trace(name, t, node.raw(), block.number());
        l.miss_trace[node.index()] = tr;
        tr
    }

    /// Closes a node's completed miss: cancels its retransmission timers
    /// and ends its span tree at `done`.
    fn end_miss(&mut self, node: NodeId, done: u64) {
        if let Some(l) = self.sched.layers() {
            l.miss_epoch[node.index()] += 1;
            let tr = std::mem::replace(&mut l.miss_trace[node.index()], TraceId::NONE);
            l.spans.end_trace(tr, done);
        }
    }

    fn on_deliver(&mut self, msg: &Msg, seq: u64, t: u64) -> Result<(), SimError> {
        if msg.receiver_role() == stache::Role::Directory {
            self.on_directory_receive(msg, t)
        } else {
            self.on_cache_receive(msg, seq, t)
        }
    }

    fn on_directory_receive(&mut self, msg: &Msg, t: u64) -> Result<(), SimError> {
        if msg.mtype.is_request() {
            // Local markers (sender == receiver) are not real messages.
            if msg.sender != msg.receiver {
                self.record(t, msg);
                // A retransmission that lost the race with its own grant:
                // the sender already consumed a response (it is no longer
                // missing on this block with this op), so servicing the
                // copy again would re-admit a holder that may since have
                // dropped the line — e.g. by a voluntary early ack. Absorb
                // it; the NAK path uses the same still-waiting test.
                if self.faulty() && self.request_is_stale(msg) {
                    self.absorbed();
                    return Ok(());
                }
                if self.faulty() && self.fault_request_shortcut(msg, t) {
                    return Ok(());
                }
            }
            return self.enqueue_or_start(*msg, t);
        }
        // An acknowledgment — for the in-flight transaction if one exists,
        // else a *voluntary* writeback (self-invalidation).
        self.record(t, msg);
        let Some(txn) = self.txns.get(&msg.block) else {
            return self.on_voluntary_ack(msg, t);
        };
        // In the replacement race the voluntary writeback doubles as the
        // owner's acknowledgment; the crossing invalidation finds an empty
        // cache and is suppressed there, so the counts stay exact. Under
        // fault injection the same holder can acknowledge more than once
        // (a re-sent invalidation crossing the original ack); the
        // per-transaction set keeps counting exact. A delayed ack can also
        // belong to an *earlier*, already-finished transaction on the same
        // block, so it only counts here if (a) this transaction asked the
        // sender for exactly this response and (b) the sender's cache
        // really gave up the conflicting copy. Genuine acks always pass
        // (b): a holder cannot re-acquire while the block is busy, because
        // its request would be NAKed. With a speculation policy installed
        // the same double-count exists on a perfect fabric — a sharer's
        // voluntary early ack crossing the transaction's solicited
        // invalidation produces two acks from one holder — so the guards
        // engage then too.
        //
        // A voluntary ack from a push target crossing the push verdict on
        // the reliable channel: the target installed the pushed copy and
        // dropped it again (early ack or self-invalidation) before the
        // home committed. Cancel the provisional entry — the in-flight
        // verdict still closes the transaction — unless the sender still
        // holds a copy, in which case the ack is a stale fault-mode re-ack
        // and is absorbed below like any other unexpected one.
        let from_push_target = txn.speculative && msg.sender == txn.requester;
        if from_push_target
            && matches!(
                msg.mtype,
                MsgType::InvalRoResponse | MsgType::InvalRwResponse
            )
            && !matches!(
                self.cache_state(msg.sender, msg.block),
                CacheState::Shared | CacheState::Exclusive
            )
        {
            if self.mutated(ProtocolMutation::SpeculateWithoutRollback) {
                // Seeded bug: drop the crossing ack too — the mutation
                // models a build with no rollback healing at all (see its
                // doc).
                return Ok(());
            }
            self.txns.get_mut(&msg.block).expect("checked above").next = DirState::Idle;
            self.lay().rollback.rolled_back += 1;
            return Ok(());
        }
        let policing = self.faulty() || self.speculating();
        if policing {
            let txn = &self.txns[&msg.block];
            let expected = txn.holders.iter().any(|&(h, req)| {
                h == msg.sender
                    && matches!(
                        (req, msg.mtype),
                        (MsgType::InvalRoRequest, MsgType::InvalRoResponse)
                            | (MsgType::InvalRwRequest, MsgType::InvalRwResponse)
                            | (MsgType::DowngradeRequest, MsgType::DowngradeResponse)
                    )
            });
            let complied = match msg.mtype {
                MsgType::InvalRoResponse | MsgType::InvalRwResponse => !matches!(
                    self.cache_state(msg.sender, msg.block),
                    CacheState::Shared | CacheState::Exclusive
                ),
                MsgType::DowngradeResponse => {
                    self.cache_state(msg.sender, msg.block) != CacheState::Exclusive
                }
                _ => true,
            };
            if !expected || !complied {
                self.absorbed();
                return Ok(());
            }
        }
        let txn = self.txns.get_mut(&msg.block).expect("checked above");
        if policing && !txn.acked.insert(msg.sender) {
            self.absorbed();
            return Ok(());
        }
        txn.outstanding -= 1;
        if txn.outstanding == 0 {
            let service = t + self.sys.handler_ns;
            self.finish_txn(msg.block, service)?;
        }
        Ok(())
    }

    /// An acknowledgment with no transaction open on its block: a
    /// voluntary writeback (self-invalidation), a voluntary early ack, or
    /// a stale re-ack. Only the speculation and fault layers produce them.
    fn on_voluntary_ack(&mut self, msg: &Msg, t: u64) -> Result<(), SimError> {
        // A voluntary early invalidation-ack (speculation): the sharer
        // dropped its read-only copy unsolicited. The sender's live cache
        // state separates it from a stale solicited ack racing a freshly
        // re-acquired copy, which must leave the entry alone. A genuine
        // ack's sender holds no read copy: `Invalid`, or already off in
        // its next *write* miss on the same block (`IToE` — the drop and
        // the follow-up miss issue in the same handler slot, so the ack
        // lands "late"). `IToS` is excluded: a sharer with a shared
        // re-fill in flight is `IToS`, and removing it would desynchronise
        // the map; the demand path reconciles that case (see `start_txn`).
        if self.speculating() && msg.mtype == MsgType::InvalRoResponse {
            if matches!(
                self.cache_state(msg.sender, msg.block),
                CacheState::Invalid | CacheState::IToE
            ) {
                let dir = self.dirs.entry(msg.block).or_default();
                if let DirState::Shared(s) = dir {
                    if s.contains(msg.sender) && !self.overflowed.contains(&msg.block) {
                        let mut s = s.clone();
                        s.remove(msg.sender);
                        let next = if s.is_empty() {
                            DirState::Idle
                        } else {
                            DirState::Shared(s)
                        };
                        let idle = next == DirState::Idle;
                        self.set_dir(msg.block, next);
                        if idle {
                            self.maybe_spec_push(msg.block, t + self.sys.handler_ns);
                        }
                        return Ok(());
                    }
                }
            }
            self.absorbed();
            return Ok(());
        }
        if self.faulty()
            && (msg.mtype != MsgType::InvalRwResponse
                || self.cache_state(msg.sender, msg.block) != CacheState::Invalid)
        {
            // A stale re-acknowledgment for a transaction that already
            // finished — possibly racing the sender's freshly re-acquired
            // copy, which must not clear the directory. Absorb it.
            self.absorbed();
            return Ok(());
        }
        debug_assert_eq!(msg.mtype, MsgType::InvalRwResponse, "voluntary writeback");
        if self.dirs.entry(msg.block).or_default().owner() == Some(msg.sender) {
            self.set_dir(msg.block, DirState::Idle);
            self.maybe_spec_push(msg.block, t + self.sys.handler_ns);
        }
        // Otherwise stale: a later transaction already moved the entry
        // on; nothing to do.
        Ok(())
    }

    /// Starts the transaction if the block is free, else queues it.
    fn enqueue_or_start(&mut self, msg: Msg, t: u64) -> Result<(), SimError> {
        if self.txns.contains_key(&msg.block) {
            let id = self.preqs.alloc(PendingReq { msg, arrived: t });
            self.pending.entry(msg.block).or_default().push_back(id);
            Ok(())
        } else {
            self.start_txn(msg, t)
        }
    }

    fn start_txn(&mut self, msg: Msg, t: u64) -> Result<(), SimError> {
        let home = msg.receiver;
        let block = msg.block;
        let local = msg.sender == msg.receiver;
        let hli = self.li(home);
        let service = t.max(self.dir_busy[hli]);
        let dispatch = service + self.sys.handler_ns;
        self.dir_busy[hli] = dispatch;
        if service > t {
            self.span(msg.trace, "dir.queue", SpanKind::Queue, t, service, home);
        }
        let kind = SpanKind::Directory;
        self.span(msg.trace, "dir.service", kind, service, dispatch, home);

        let mut dir = self.dirs.entry(block).or_default().clone();
        // Speculative voluntary drops race their own acknowledgments: a
        // node that early-acked or self-invalidated and immediately
        // missed again on the same block sends its demand request while
        // the entry still lists it (the ack may have been left aside
        // because the sender was already in its next transient state).
        // The request itself proves the sender's copy is gone — a holder
        // never demand-misses on a block it holds — so strip the sender
        // before consulting the transition table.
        if self.speculating()
            && !self.mutated(ProtocolMutation::SpeculateWithoutRollback)
            && !local
            && matches!(msg.mtype, MsgType::GetRoRequest | MsgType::GetRwRequest)
            && !self.overflowed.contains(&block)
        {
            let stripped = match &dir {
                DirState::Shared(s) if s.contains(msg.sender) => {
                    let mut s = s.clone();
                    s.remove(msg.sender);
                    Some(if s.is_empty() {
                        DirState::Idle
                    } else {
                        DirState::Shared(s)
                    })
                }
                DirState::Exclusive(owner) if *owner == msg.sender => Some(DirState::Idle),
                _ => None,
            };
            if let Some(next) = stripped {
                self.set_dir(block, next.clone());
                dir = next;
            }
        }
        // The upgrade race: the requester lost its copy to a concurrent
        // writer while this request was queued; convert to a write miss.
        let mut effective = msg.mtype;
        let mut reply_override = None;
        if effective == MsgType::UpgradeRequest && !dir.holders().contains(msg.sender) {
            effective = MsgType::GetRwRequest;
            reply_override = Some(MsgType::GetRwResponse);
        }
        // §4.1 read-modify-write speculation: answer a remote shared
        // request with an exclusive grant if the policy predicts an
        // imminent upgrade.
        if !local
            && effective == MsgType::GetRoRequest
            && self.policy(|p| p.grant_exclusive(home, msg.sender, block))
        {
            effective = MsgType::GetRwRequest;
            reply_override = Some(MsgType::GetRwResponse);
            self.stats.exclusive_grants += 1;
            self.sched.log(|| {
                ObsEvent::new(dispatch, Severity::Info, "policy.grant_exclusive")
                    .node(msg.sender.raw())
                    .block(block.number())
            });
            self.spans(|s| s.annotate(msg.trace, "speculative_grant"));
        }
        let outcome = if local {
            let op = match effective {
                MsgType::GetRoRequest => ProcOp::Read,
                MsgType::GetRwRequest | MsgType::UpgradeRequest => ProcOp::Write,
                other => unreachable!("local marker {other}"),
            };
            match directory::handle_local(&dir, home, op, &self.proto) {
                Some(o) => o,
                None => {
                    // Rights appeared while the request was queued.
                    self.dir_busy[hli] = service; // handler unused
                    return self.complete_local(home, block, dispatch);
                }
            }
        } else {
            directory::handle_request(&dir, home, msg.sender, effective, &self.proto)
                .map_err(SimError::Protocol)?
        };
        let mut holders = outcome.holder_requests;
        if self.overflowed.contains(&block) && matches!(outcome.next, DirState::Exclusive(_)) {
            holders = (0..self.proto.nodes)
                .map(NodeId::new)
                .filter(|&n| n != msg.sender && n != home)
                .map(|n| (n, MsgType::InvalRoRequest))
                .collect();
        }
        let reply = if local {
            None
        } else {
            Some(reply_override.unwrap_or_else(|| outcome.reply.expect("remote grants reply")))
        };
        let epoch = self.next_txn_epoch();
        for &(target, imsg) in &holders {
            let inval = Msg::new(home, target, block, imsg).with_trace(msg.trace);
            self.send(dispatch, inval);
        }
        let outstanding = holders.len();
        self.txns.insert(
            block,
            DirTxn {
                requester: msg.sender,
                reply,
                next: outcome.next,
                outstanding,
                local,
                holders,
                acked: HashSet::new(),
                epoch,
                speculative: false,
                trace: msg.trace,
            },
        );
        if outstanding == 0 {
            self.finish_txn(block, dispatch)?;
        } else if let Some(inj) = self.sched.layers().and_then(|l| l.fault.as_ref()) {
            // The directory waits for acknowledgments that a faulty
            // fabric may eat: arm its re-send timer.
            let timeout = inj.retry().timeout_for(0);
            let check = Event::AckCheck {
                block,
                epoch,
                attempt: 0,
            };
            self.sched.push(dispatch + timeout, check);
        }
        Ok(())
    }

    /// Stamps a new transaction (0 without layers: only the fault-mode
    /// ack timers read epochs).
    fn next_txn_epoch(&mut self) -> u64 {
        self.sched.layers().map_or(0, |l| {
            l.txn_epoch += 1;
            l.txn_epoch
        })
    }

    fn finish_txn(&mut self, block: BlockAddr, t: u64) -> Result<(), SimError> {
        let txn = self.txns.remove(&block).expect("transaction in flight");
        let home = home_of_block(block, &self.proto);
        self.set_dir(block, txn.next);
        if txn.local {
            self.complete_local(home, block, t)?;
        } else if let Some(reply) = txn.reply {
            let grant = Msg::new(home, txn.requester, block, reply).with_trace(txn.trace);
            self.send(t, grant);
        }
        // (A speculative push transaction has no reply: the target was
        // granted — or refused — the copy by the push itself.)
        // The block is free: service the next queued request, if any.
        if let Some(id) = self.pending.get_mut(&block).and_then(VecDeque::pop_front) {
            let next = self.preqs.free(id).expect("queued request live");
            let resume = next.arrived.max(t);
            if resume > next.arrived {
                // Time spent queued behind the previous transaction.
                let (tr, kind) = (next.msg.trace, SpanKind::Queue);
                self.span(tr, "dir.pending", kind, next.arrived, resume, home);
            }
            self.start_txn(next.msg, resume)?;
        }
        Ok(())
    }

    /// Completes the home node's own (message-free) access.
    fn complete_local(&mut self, home: NodeId, block: BlockAddr, t: u64) -> Result<(), SimError> {
        let li = self.li(home);
        let (wblock, op, issued) = self.waiting[li].take().expect("home was waiting");
        debug_assert_eq!(wblock, block);
        let done = t + self.sys.mem_access_ns;
        self.clocks[li] = self.clocks[li].max(done);
        self.stats
            .count_access(op, false, done.saturating_sub(issued));
        if let Some(l) = self.sched.layers() {
            l.miss_recovered[home.index()] = false;
            let tr = l.miss_trace[home.index()];
            let kind = SpanKind::Directory;
            l.spans.child(tr, "mem.access", kind, t, done, home.raw());
        }
        self.end_miss(home, done);
        self.sched.push(done, Event::Issue(home));
        Ok(())
    }

    fn on_cache_receive(&mut self, msg: &Msg, seq: u64, t: u64) -> Result<(), SimError> {
        self.record(t, msg);
        let node = msg.receiver;
        let li = self.li(node);
        let block = msg.block;
        let state = self.cache_state(node, block);
        // The cache's software handler serialises incoming messages.
        let service = t.max(self.cache_busy[li]);
        let handled = service + self.sys.handler_ns;
        self.cache_busy[li] = handled;
        if service > t {
            self.span(msg.trace, "cache.queue", SpanKind::Queue, t, service, node);
        }
        let kind = SpanKind::Directory;
        self.span(msg.trace, "cache.service", kind, service, handled, node);
        if self.faulty() && self.fault_cache_shortcut(msg, seq, state, handled) {
            return Ok(());
        }
        let ack = |resp| Msg::new(node, msg.sender, block, resp).with_trace(msg.trace);

        // The replacement race: an owner-recall crossing a voluntary
        // writeback finds the cache already empty — or already missing
        // again on a *new* request (I-to-S / I-to-E). In every stage the
        // writeback (already on the wire, ordered before this recall's
        // acknowledgment would be) serves as the acknowledgment, so stay
        // silent. Only a voluntary writeback can make the directory's
        // owner record stale, so this arm is unreachable without one.
        let absent = matches!(
            state,
            CacheState::Invalid | CacheState::IToS | CacheState::IToE
        );
        if msg.mtype == MsgType::InvalRwRequest && absent {
            return Ok(());
        }

        // A broadcast invalidation reaching a node without a shared copy —
        // either truly invalid or mid-fill (its own request for this block
        // is queued behind the broadcasting write and will be serviced
        // with fresh data afterwards): acknowledge without touching the
        // line.
        if msg.mtype == MsgType::InvalRoRequest && absent {
            if self.faulty() {
                self.poison_older_grants(node, block, seq);
            }
            self.send(handled, ack(MsgType::InvalRoResponse));
            return Ok(());
        }

        // A stale sharer-invalidation landing on a re-acquired exclusive
        // copy: only possible with a speculation policy — the node's
        // voluntary early ack satisfied the soliciting transaction (the
        // home serialises transactions per block, so that transaction
        // finished before any later grant), the node missed again and
        // was granted ownership, and the superseded invalidation arrives
        // last, delayed behind the cache's handler queue. Drop it: the
        // copy is legitimate and the ack it asks for was already given.
        if msg.mtype == MsgType::InvalRoRequest
            && state == CacheState::Exclusive
            && self.speculating()
        {
            return Ok(());
        }

        // The seeded bug for simcheck self-validation: acknowledge the
        // invalidation but keep the shared copy. The directory counts the
        // ack, believes the sharer is gone, and grants the writer — SWMR
        // breaks a few deliveries later.
        if msg.mtype == MsgType::InvalRoRequest
            && state == CacheState::Shared
            && self.mutated(ProtocolMutation::AckWithoutInvalidate)
        {
            self.send(handled, ack(MsgType::InvalRoResponse));
            return Ok(());
        }

        let (next, reply) = cache::on_message(state, msg.mtype)?;
        self.set_cache_state(node, block, next);
        if let Some(resp) = reply {
            // An invalidation or downgrade: acknowledge to the home.
            self.send(handled, ack(resp));
            return Ok(());
        }
        // A grant: the processor's miss completes.
        let (wblock, op, issued) = self.waiting[li].take().expect("node was waiting");
        debug_assert_eq!(wblock, block);
        if let Some(l) = self.sched.layers() {
            if std::mem::take(&mut l.miss_recovered[node.index()]) {
                let latency = handled.saturating_sub(issued);
                l.recovery.recovery_latency_ns.record(latency);
            }
        }
        let done = handled;
        self.clocks[li] = self.clocks[li].max(done);
        self.stats
            .count_access(op, false, done.saturating_sub(issued));
        self.end_miss(node, done);
        if op == ProcOp::Write {
            self.maybe_self_invalidate(node, block, done);
        } else {
            self.maybe_early_ack(node, block, done);
        }
        self.sched.push(done, Event::Issue(node));
        Ok(())
    }

    // -- fault recovery --------------------------------------------------

    /// Arms a requester-side retransmission timer for the node's current
    /// miss (no-op on a perfect fabric).
    fn arm_retry(&mut self, node: NodeId, now: u64, attempt: u32) {
        let Some(l) = self.sched.layers() else { return };
        let Some(inj) = &l.fault else { return };
        let at = now + inj.retry().timeout_for(attempt);
        let epoch = l.miss_epoch[node.index()];
        let check = Event::RetryCheck {
            node,
            epoch,
            attempt,
        };
        self.sched.push(at, check);
    }

    /// Retransmits the request for the node's in-flight miss, deriving
    /// the message type from the cache's transient state (which tracks
    /// upgrade-race conversions automatically).
    fn resend_request(&mut self, node: NodeId, at: u64) {
        let Some((block, _, _)) = self.waiting[self.li(node)] else {
            return;
        };
        let home = home_of_block(block, &self.proto);
        let req = match self.cache_state(node, block) {
            CacheState::IToS => MsgType::GetRoRequest,
            CacheState::IToE => MsgType::GetRwRequest,
            CacheState::SToE => MsgType::UpgradeRequest,
            // The grant raced this retransmission and won: nothing to do.
            _ => return,
        };
        let tr = self.lay().miss_trace[node.index()];
        self.send(at, Msg::new(node, home, block, req).with_trace(tr));
    }

    /// A NAK reached the requester: its cache handler turns it straight
    /// around into a fresh copy of the outstanding request.
    fn on_nak(&mut self, node: NodeId, block: BlockAddr, t: u64) {
        let handled = t + self.sys.handler_ns;
        self.lay().recovery.naks_received += 1;
        // Only react if the node is still waiting on the NAKed block; a
        // NAK for an already-completed miss is stale.
        if self.waiting[self.li(node)].is_some_and(|(b, _, _)| b == block) {
            let l = self.lay();
            l.miss_recovered[node.index()] = true;
            let tr = l.miss_trace[node.index()];
            l.spans.child(
                tr,
                "nak.turnaround",
                SpanKind::Retry,
                t,
                handled,
                node.raw(),
            );
            self.resend_request(node, handled);
        }
    }

    /// A requester's retransmission timer fired.
    fn on_retry_check(
        &mut self,
        node: NodeId,
        epoch: u64,
        attempt: u32,
        t: u64,
    ) -> Result<(), SimError> {
        let waiting = self.waiting[self.li(node)];
        let l = self.lay();
        let Some((block, _, _)) = waiting.filter(|_| l.miss_epoch[node.index()] == epoch) else {
            return Ok(()); // lazily cancelled: the miss completed
        };
        l.recovery.timeouts += 1;
        l.miss_recovered[node.index()] = true;
        let retry = l
            .fault
            .as_ref()
            .expect("timers are only armed under faults")
            .retry();
        if !retry.can_retry(attempt) {
            return Err(SimError::RetryExhausted {
                from: node,
                to: home_of_block(block, &self.proto),
                attempts: attempt + 1,
            });
        }
        let since = t.saturating_sub(retry.timeout_for(attempt));
        l.recovery.retries += 1;
        let tr = l.miss_trace[node.index()];
        l.spans
            .child(tr, "retry", SpanKind::Retry, since, t, node.raw());
        self.resend_request(node, t);
        self.arm_retry(node, t, attempt + 1);
        Ok(())
    }

    /// A directory's acknowledgment timer fired: re-send the
    /// invalidations whose acks are still missing.
    fn on_ack_check(
        &mut self,
        block: BlockAddr,
        epoch: u64,
        attempt: u32,
        t: u64,
    ) -> Result<(), SimError> {
        let Some(txn) = self.txns.get(&block) else {
            return Ok(()); // lazily cancelled: the transaction finished
        };
        if txn.epoch != epoch || txn.outstanding == 0 {
            return Ok(());
        }
        let tr = txn.trace;
        let unacked: Vec<(NodeId, MsgType)> = txn
            .holders
            .iter()
            .filter(|(n, _)| !txn.acked.contains(n))
            .copied()
            .collect();
        let home = home_of_block(block, &self.proto);
        let l = self.lay();
        l.recovery.timeouts += 1;
        let retry = l
            .fault
            .as_ref()
            .expect("timers are only armed under faults")
            .retry();
        if !retry.can_retry(attempt) {
            return Err(SimError::RetryExhausted {
                from: home,
                to: unacked.first().map_or(home, |&(n, _)| n),
                attempts: attempt + 1,
            });
        }
        let since = t.saturating_sub(retry.timeout_for(attempt));
        let next_check = t + retry.timeout_for(attempt + 1);
        l.spans
            .child(tr, "retry.ack", SpanKind::Retry, since, t, home.raw());
        for (target, imsg) in unacked {
            self.lay().recovery.retries += 1;
            self.send(t, Msg::new(home, target, block, imsg).with_trace(tr));
        }
        let check = Event::AckCheck {
            block,
            epoch,
            attempt: attempt + 1,
        };
        self.sched.push(next_check, check);
        Ok(())
    }

    /// A waiting node just acknowledged an invalidation or recall for
    /// the very block it is missing on: any grant transmitted *before*
    /// that recall carries rights the directory has since reclaimed, so
    /// raise the node's poison line to this delivery's sequence number.
    /// Grants below the line are absorbed as stale; the miss recovers
    /// through its retransmission timer. No-op unless the node is
    /// waiting on `block` (the line is per-node, and poisoning across
    /// an unrelated block's miss would discard a perfectly good grant).
    fn poison_older_grants(&mut self, node: NodeId, block: BlockAddr, seq: u64) {
        if self.waiting[self.li(node)].is_some_and(|(b, _, _)| b == block) {
            let line = &mut self.lay().grant_poison[node.index()];
            *line = (*line).max(seq);
        }
    }

    /// Whether a remote request is a stale retransmission: its sender is
    /// no longer missing on this block with the matching operation, so
    /// the original request was already serviced and its grant consumed.
    fn request_is_stale(&self, msg: &Msg) -> bool {
        !self.waiting[self.li(msg.sender)].is_some_and(|(b, op, _)| {
            b == msg.block
                && match msg.mtype {
                    MsgType::GetRoRequest => op == ProcOp::Read,
                    MsgType::GetRwRequest | MsgType::UpgradeRequest => op == ProcOp::Write,
                    _ => true,
                }
        })
    }

    /// Fault-mode fast paths for a remote request: NAK it if the block
    /// is busy (instead of queueing without bound), or re-send the grant
    /// if the directory already recorded this requester — a
    /// retransmission whose original grant was lost or is still in
    /// flight. Returns `true` when the request was fully handled.
    fn fault_request_shortcut(&mut self, msg: &Msg, t: u64) -> bool {
        if self.txns.contains_key(&msg.block) {
            self.lay().recovery.naks_sent += 1;
            let hop = self.one_way(msg.receiver, msg.sender);
            self.stats.net_latency_ns.record(hop);
            // The bounce (home handler + NAK hop) is pure retry overhead
            // on the requester's critical path.
            let back = t + self.sys.handler_ns + hop;
            self.span(msg.trace, "nak", SpanKind::Retry, t, back, msg.receiver);
            let nak = Event::Nak {
                node: msg.sender,
                block: msg.block,
            };
            self.sched.push(back, nak);
            return true;
        }
        let dir = self.dirs.entry(msg.block).or_default();
        let regrant = match msg.mtype {
            // The re-sent grant must carry the *recorded* rights, not the
            // requested ones: a speculative exclusive grant upgrades a
            // read miss to ownership, so when its response is lost the
            // retransmitted `get_ro_request` finds this node recorded as
            // owner and must be re-granted writable — a shared re-grant
            // would leave the directory claiming an owner whose cache
            // holds a read-only copy.
            MsgType::GetRoRequest if dir.node_writable(msg.sender) => Some(MsgType::GetRwResponse),
            MsgType::GetRoRequest if dir.node_readable(msg.sender) => Some(MsgType::GetRoResponse),
            MsgType::GetRwRequest if dir.node_writable(msg.sender) => Some(MsgType::GetRwResponse),
            MsgType::UpgradeRequest if dir.node_writable(msg.sender) => {
                Some(MsgType::UpgradeResponse)
            }
            _ => None,
        };
        let Some(resp) = regrant else { return false };
        self.lay().recovery.regrants += 1;
        let grant = Msg::new(msg.receiver, msg.sender, msg.block, resp).with_trace(msg.trace);
        self.send(t + self.sys.handler_ns, grant);
        true
    }

    /// Fault-mode cache-side cases: grants the cache cannot consume are
    /// absorbed, and recalls or downgrades that were already applied are
    /// acknowledged again. Returns `true` when the message was fully
    /// handled.
    fn fault_cache_shortcut(&mut self, msg: &Msg, seq: u64, state: CacheState, at: u64) -> bool {
        let node = msg.receiver;
        let block = msg.block;
        let resp = match msg.mtype {
            // A grant the cache cannot consume: the original grant raced a
            // retransmission and won, so this re-grant is stale — absorb
            // it without touching the line. A grant older than a recall
            // this node already acknowledged is poisoned: the directory
            // reclaimed the copy it carries (and may have granted it on),
            // so consuming it would mint a second owner. The
            // retransmission timer re-fetches with a fresh, unpoisoned
            // grant.
            MsgType::GetRoResponse | MsgType::GetRwResponse | MsgType::UpgradeResponse => {
                let consumable = matches!(
                    (state, msg.mtype),
                    (CacheState::IToS, MsgType::GetRoResponse)
                        | (CacheState::IToS, MsgType::GetRwResponse)
                        | (CacheState::IToE, MsgType::GetRwResponse)
                        | (CacheState::SToE, MsgType::UpgradeResponse)
                ) && self.waiting[self.li(node)]
                    .is_some_and(|(b, _, _)| b == block)
                    && seq >= self.lay().grant_poison[node.index()];
                if !consumable {
                    self.lay().recovery.stale_grants_absorbed += 1;
                }
                return !consumable;
            }
            // An owner recall reaching a cache still waiting for its
            // upgrade grant: the grant was issued (the directory moved to
            // Exclusive before recalling) but is delayed or lost behind
            // this recall. Yield the copy and fall back to a write miss —
            // the retried request re-fetches exclusivity, and the stale
            // upgrade grant, arriving at I-to-E, is absorbed above.
            MsgType::InvalRwRequest if state == CacheState::SToE => {
                self.set_cache_state(node, block, CacheState::IToE);
                self.poison_older_grants(node, block, seq);
                MsgType::InvalRwResponse
            }
            // A re-sent owner recall that was already applied (the
            // original ack was lost or is still in flight): the now-empty
            // cache acknowledges again so the directory's count can
            // complete; the per-transaction acked set absorbs any
            // double-count.
            MsgType::InvalRwRequest
                if matches!(
                    state,
                    CacheState::Invalid | CacheState::IToS | CacheState::IToE
                ) =>
            {
                self.poison_older_grants(node, block, seq);
                MsgType::InvalRwResponse
            }
            // Likewise a re-sent downgrade finding the copy already
            // downgraded (or gone).
            MsgType::DowngradeRequest if state != CacheState::Exclusive => {
                MsgType::DowngradeResponse
            }
            _ => return false,
        };
        let ack = Msg::new(node, msg.sender, block, resp).with_trace(msg.trace);
        self.send(at, ack);
        true
    }

    // -- speculation -----------------------------------------------------

    /// §4.1 dynamic self-invalidation: after a store, consult the policy
    /// and, if it fires, push the exclusive copy back to the directory as
    /// an unsolicited `inval_rw_response`. The cache empties immediately;
    /// the race with a concurrent recall is resolved by the writeback
    /// doubling as the acknowledgment (see `on_directory_receive`).
    fn maybe_self_invalidate(&mut self, node: NodeId, block: BlockAddr, now: u64) {
        if !self.speculating() {
            return;
        }
        let home = home_of_block(block, &self.proto);
        if node == home
            || self.cache_state(node, block) != CacheState::Exclusive
            || !self.policy(|p| p.self_invalidate(node, block))
        {
            return;
        }
        self.set_cache_state(node, block, CacheState::Invalid);
        self.sched.log(|| {
            ObsEvent::new(now, Severity::Info, "policy.self_invalidate")
                .node(node.raw())
                .block(block.number())
        });
        // Over the reliable channel: nothing times out waiting for a
        // voluntary writeback, so the protocol could not recover its loss.
        let tr = self.spec_trace("self_invalidate", now, node, block);
        self.send_voluntary(
            now,
            Msg::new(node, home, block, MsgType::InvalRwResponse).with_trace(tr),
        );
        self.stats.voluntary_replacements += 1;
    }

    /// Early invalidation-ack: after a load, consult the policy and, if
    /// it predicts this was the reader's last use before an invalidation,
    /// drop the shared copy and acknowledge unsolicited. A correct
    /// prediction removes the sharer from the next writer's critical
    /// path; a wrong one costs this reader a re-fetch — never coherence.
    fn maybe_early_ack(&mut self, node: NodeId, block: BlockAddr, now: u64) {
        // Tested first: this runs on every read hit.
        if !self.speculating() {
            return;
        }
        let home = home_of_block(block, &self.proto);
        // Overflowed blocks keep their (imprecise, broadcast-serviced)
        // sharer sets intact.
        if node == home
            || self.cache_state(node, block) != CacheState::Shared
            || self.overflowed.contains(&block)
            || !self.policy(|p| p.early_inval_ack(node, block))
        {
            return;
        }
        self.set_cache_state(node, block, CacheState::Invalid);
        self.sched.log(|| {
            ObsEvent::new(now, Severity::Info, "policy.early_inval_ack")
                .node(node.raw())
                .block(block.number())
        });
        // Over the reliable channel, like the voluntary writeback:
        // nothing times out waiting for an unsolicited ack.
        let tr = self.spec_trace("early_inval_ack", now, node, block);
        self.send_voluntary(
            now,
            Msg::new(node, home, block, MsgType::InvalRoResponse).with_trace(tr),
        );
        self.lay().rollback.early_acks += 1;
    }

    /// Sends a voluntary writeback or early ack and closes its span tree:
    /// the reliable channel always delivers after exactly one hop, so the
    /// arrival is known now.
    fn send_voluntary(&mut self, now: u64, msg: Msg) {
        let span = (net_span_name(msg.mtype), SpanKind::Network);
        self.send_reliable(now, msg, span, |seq| Event::Deliver(msg, seq));
        let arrive = now + self.one_way(msg.sender, msg.receiver);
        self.spans(|s| s.end_trace(msg.trace, arrive));
    }

    /// Speculative push: when a block goes idle at its home, consult the
    /// policy for the predicted next reader/writer and, if it names one,
    /// open a speculative transaction and push an unsolicited copy. The
    /// transaction occupies the block, so demand traffic serialises
    /// behind the push exactly as behind any other transaction; the
    /// target's verdict ([`Self::on_spec_push_resp`]) either confirms the
    /// provisional directory entry or rolls it back to idle.
    fn maybe_spec_push(&mut self, block: BlockAddr, t: u64) {
        if !self.speculating()
            || self.txns.contains_key(&block)
            || self.pending.get(&block).is_some_and(|q| !q.is_empty())
            || self.dirs.get(&block).is_some_and(|d| *d != DirState::Idle)
        {
            return;
        }
        let home = home_of_block(block, &self.proto);
        let Some((target, kind)) = self.policy(|p| p.forward_candidate(home, block)) else {
            return;
        };
        // The home's own rights live in the directory entry; pushing to
        // an unknown node would be a policy bug, not a protocol race.
        if target == home || target.index() >= self.proto.nodes {
            return;
        }
        let (mtype, next) = match kind {
            ForwardKind::Shared => (
                MsgType::GetRoResponse,
                DirState::Shared(NodeSet::singleton(target)),
            ),
            ForwardKind::Exclusive => (MsgType::GetRwResponse, DirState::Exclusive(target)),
        };
        let tr = self.spec_trace("spec_push", t, home, block);
        let epoch = self.next_txn_epoch();
        self.txns.insert(
            block,
            DirTxn {
                requester: target,
                reply: None,
                next,
                outstanding: 1,
                local: false,
                holders: Vec::new(),
                acked: HashSet::new(),
                epoch,
                speculative: true,
                trace: tr,
            },
        );
        self.lay().rollback.pushes += 1;
        self.sched.log(|| {
            ObsEvent::new(t, Severity::Info, "policy.forward")
                .node(target.raw())
                .block(block.number())
        });
        let push = Msg::new(home, target, block, mtype).with_trace(tr);
        let span = ("net.push", SpanKind::Speculation);
        self.send_reliable(t, push, span, |seq| Event::SpecPush(push, seq));
    }

    /// A pushed copy arrived at its target. Accept only into an `Invalid`
    /// line: any transient state means the target's own request is in
    /// flight and the demand path must win the race (the push transaction
    /// holds the block, so that request is queued or NAKed behind it and
    /// will be serviced with authoritative data after the rollback).
    fn on_spec_push(&mut self, msg: &Msg, t: u64) {
        let node = msg.receiver;
        let li = self.li(node);
        let block = msg.block;
        // The cache's software handler serialises pushes like any
        // other incoming message.
        let service = t.max(self.cache_busy[li]);
        let handled = service + self.sys.handler_ns;
        self.cache_busy[li] = handled;
        let accepted = self.cache_state(node, block) == CacheState::Invalid;
        if accepted {
            let state = match msg.mtype {
                MsgType::GetRoResponse => CacheState::Shared,
                MsgType::GetRwResponse => CacheState::Exclusive,
                other => unreachable!("push grant {other}"),
            };
            self.set_cache_state(node, block, state);
        }
        let name = if accepted { "push.fill" } else { "push.reject" };
        let kind = SpanKind::Speculation;
        self.span(msg.trace, name, kind, service, handled, node);
        let resp = Msg::new(node, msg.sender, block, msg.mtype).with_trace(msg.trace);
        let span = ("net.push_ack", SpanKind::Speculation);
        self.send_reliable(handled, resp, span, |seq| Event::SpecPushResp {
            msg: resp,
            accepted,
            seq,
        });
    }

    /// The target's verdict came back: commit the provisional directory
    /// entry, or roll it back to idle as if the push never happened. The
    /// seeded [`ProtocolMutation::SpeculateWithoutRollback`] bug skips
    /// the rollback, leaving the directory believing in a copy the
    /// target never installed.
    fn on_spec_push_resp(&mut self, msg: &Msg, accepted: bool, t: u64) -> Result<(), SimError> {
        let block = msg.block;
        let roll_back = !accepted && !self.mutated(ProtocolMutation::SpeculateWithoutRollback);
        let Some(txn) = self.txns.get_mut(&block) else {
            // The reliable channel cannot lose the response, so the
            // push transaction is always still open when it arrives.
            debug_assert!(false, "push response without its transaction");
            return Ok(());
        };
        debug_assert!(txn.speculative, "push response found a demand transaction");
        txn.outstanding = 0;
        let tr = txn.trace;
        if roll_back {
            txn.next = DirState::Idle;
        }
        let tally = &mut self.lay().rollback;
        if accepted {
            tally.confirmed += 1;
        } else if roll_back {
            tally.rolled_back += 1;
        }
        let service = t + self.sys.handler_ns;
        self.finish_txn(block, service)?;
        self.spans(|s| s.end_trace(tr, service));
        Ok(())
    }
}
