//! A message-level concurrent execution engine.
//!
//! The default [`Machine`](crate::Machine) serialises whole coherence
//! transactions — faithful per block, but transactions on *different*
//! blocks cannot overlap in time. This engine is the next fidelity step:
//! every message is a discrete event, each node's (software) directory and
//! cache handlers have occupancy, and a directory services one transaction
//! per block at a time while requests for *other* blocks proceed in
//! parallel. Requests arriving for a busy block queue at the home, as
//! Stache's software handlers do.
//!
//! Two genuinely concurrent phenomena appear that the serialized engine
//! cannot produce:
//!
//! * **the upgrade race** — a cache's `upgrade_request` loses to another
//!   writer's invalidation; the cache falls to I-to-E
//!   ([`stache::cache::on_message`] documents the transition) and the
//!   directory converts the stale upgrade into a write miss;
//! * **non-atomic read-modify-writes** — a competitor can slip between a
//!   processor's read and write of the same block (the behaviour dsmc's
//!   pre-stabilisation scramble models explicitly at plan level).
//!
//! The handlers themselves live in the protocol core (`protocol.rs`),
//! which [`ShardedMachine`](crate::ShardedMachine) runs too. This module
//! is the core over every node plus one global [`EventQueue`]: it owns
//! the fault, speculation and span layers the core consults, and the
//! controlled-stepping surface [`simcheck`](crate::simcheck) drives. The
//! full-map and SWMR invariants are audited at every barrier, where the
//! machine is quiescent, for every block written since the previous
//! barrier; the end-to-end value check is the serialized engine's.

use crate::config::SystemConfig;
use crate::driver::{IterationPlan, Phase};
use crate::event::EventQueue;
use crate::fault::{FaultInjector, FaultPlan, FaultTally};
use crate::machine::{SimError, SpeculationPolicy};
use crate::protocol::{self, Core, Event, Layers, Sched};
use crate::stats::MachineStats;
use obs::span::SpanLog;
use obs::{Event as ObsEvent, EventRing, Severity};
use stache::fingerprint::Fp;
use stache::{
    BlockAddr, CacheState, DedupFilter, DirState, Msg, NodeId, ProtocolConfig, ProtocolTally,
    RecoveryTally, RollbackTally,
};
use std::cell::RefCell;
use trace::{MsgRecord, TraceBundle, TraceMeta};

impl Event {
    /// Human-readable label, used in simcheck schedule artifacts.
    fn label(&self) -> String {
        match self {
            Event::Issue(n) => format!("issue P{}", n.raw()),
            Event::Deliver(m, _) => format!(
                "deliver {} P{}->P{} B{}",
                m.mtype.paper_name(),
                m.sender.raw(),
                m.receiver.raw(),
                m.block.number()
            ),
            Event::Nak { node, block } => format!("nak P{} B{}", node.raw(), block.number()),
            Event::RetryCheck { node, attempt, .. } => {
                format!("retry_check P{} attempt {attempt}", node.raw())
            }
            Event::AckCheck { block, attempt, .. } => {
                format!("ack_check B{} attempt {attempt}", block.number())
            }
            Event::SpecPush(m, _) => format!(
                "spec_push {} P{}->P{} B{}",
                m.mtype.paper_name(),
                m.sender.raw(),
                m.receiver.raw(),
                m.block.number()
            ),
            Event::SpecPushResp { msg, accepted, .. } => format!(
                "spec_push_resp {} P{}->P{} B{}",
                if *accepted { "accept" } else { "reject" },
                msg.sender.raw(),
                msg.receiver.raw(),
                msg.block.number()
            ),
        }
    }

    /// Canonical fingerprint, timing-free: two schedules that leave the
    /// same messages in flight hash equally even if their timestamps
    /// differ. Timer epochs are also excluded — they are monotone
    /// bookkeeping counters, not protocol state.
    fn fingerprint(&self) -> u64 {
        let mut fp = Fp::new();
        match self {
            Event::Issue(n) => {
                fp.tag(0x10);
                fp.absorb(n);
            }
            Event::Deliver(m, seq) => {
                fp.tag(0x11);
                fp.absorb(m);
                fp.word(*seq);
            }
            Event::Nak { node, block } => {
                fp.tag(0x12);
                fp.absorb(node);
                fp.absorb(block);
            }
            Event::RetryCheck { node, attempt, .. } => {
                fp.tag(0x13);
                fp.absorb(node);
                fp.word(u64::from(*attempt));
            }
            Event::AckCheck { block, attempt, .. } => {
                fp.tag(0x14);
                fp.absorb(block);
                fp.word(u64::from(*attempt));
            }
            Event::SpecPush(m, seq) => {
                fp.tag(0x15);
                fp.absorb(m);
                fp.word(*seq);
            }
            Event::SpecPushResp { msg, accepted, seq } => {
                fp.tag(0x16);
                fp.absorb(msg);
                fp.word(u64::from(*accepted));
                fp.word(*seq);
            }
        }
        fp.finish()
    }
}

/// A deliberately broken protocol variant, used to validate that the
/// `simcheck` model checker actually catches bugs: a known-bad transition
/// is seeded, the checker must find a violating schedule, and the shrunk
/// schedule must replay to the same violation. Never enabled outside
/// tests and the checker's own self-validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtocolMutation {
    /// The correct protocol.
    #[default]
    None,
    /// A shared cache acknowledges `inval_ro_request` but keeps its copy —
    /// the directory then grants exclusive rights while a stale reader
    /// survives, violating SWMR a few deliveries later.
    AckWithoutInvalidate,
    /// A build with no speculative rollback healing at all: the
    /// directory commits a push even when the target rejects it, drops
    /// the target's voluntary ack when it crosses the push verdict, and
    /// skips the replacement-hint strip that would repair a stale entry
    /// on the holder's next demand miss. The entry then records a copy
    /// nobody holds — the quiescent full-map audit flags it, or the
    /// phantom holder's next request trips `InconsistentDirectory`.
    SpeculateWithoutRollback,
}

impl ProtocolMutation {
    /// Stable lowercase name, used in schedule artifacts.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolMutation::None => "none",
            ProtocolMutation::AckWithoutInvalidate => "ack_without_invalidate",
            ProtocolMutation::SpeculateWithoutRollback => "speculate_without_rollback",
        }
    }

    /// Parses [`name`](Self::name) back.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "none" => Some(ProtocolMutation::None),
            "ack_without_invalidate" => Some(ProtocolMutation::AckWithoutInvalidate),
            "speculate_without_rollback" => Some(ProtocolMutation::SpeculateWithoutRollback),
            _ => None,
        }
    }
}

/// The concurrent engine's scheduler: one global `(time, seq)`-ranked
/// queue, the trace, the flight recorder and the layers.
#[derive(Debug)]
struct Global {
    queue: EventQueue<Event>,
    trace: TraceBundle,
    /// Bounded flight recorder (`RefCell` so the `&self` audit path can
    /// log violations).
    ring: RefCell<EventRing>,
    layers: Layers,
}

impl Sched for Global {
    fn push(&mut self, at: u64, ev: Event) {
        self.queue.push(at, ev);
    }

    fn capture(&mut self, time: u64, msg: &Msg, iteration: u32) {
        let rec = MsgRecord::from_msg(msg, time, iteration);
        if let Some(policy) = self.layers.policy.as_mut() {
            policy.observe(&rec);
        }
        let index = self.trace.len() as u64;
        self.layers.spans.link_record(msg.trace, index);
        self.trace.push(rec);
    }

    fn log(&mut self, ev: impl FnOnce() -> ObsEvent) {
        self.ring.get_mut().push(ev());
    }

    fn layers(&mut self) -> Option<&mut Layers> {
        Some(&mut self.layers)
    }
}

/// The concurrent machine. Drive it with [`run_plan`](Self::run_plan) or
/// the [`run_workload`] helper.
#[derive(Debug)]
pub struct ConcurrentMachine {
    core: Core<Global>,
}

impl ConcurrentMachine {
    /// Creates a machine.
    pub fn new(proto: ProtocolConfig, sys: SystemConfig) -> Self {
        let nodes = proto.nodes;
        let sched = Global {
            queue: EventQueue::new(),
            trace: TraceBundle::new(TraceMeta::new("unnamed", nodes, 0)),
            ring: RefCell::new(EventRing::default()),
            layers: Layers::new(nodes),
        };
        ConcurrentMachine {
            core: Core::new(proto, sys, 0, nodes, sched),
        }
    }

    fn layers(&self) -> &Layers {
        &self.core.sched.layers
    }

    fn layers_mut(&mut self) -> &mut Layers {
        &mut self.core.sched.layers
    }

    /// Seeds a deliberately broken protocol variant (see
    /// [`ProtocolMutation`]). Only simcheck's self-validation tests turn
    /// this on.
    pub fn set_mutation(&mut self, mutation: ProtocolMutation) {
        self.layers_mut().mutation = mutation;
    }

    /// Installs a network fault plan: every send passes through a
    /// deterministic [`FaultInjector`], and the recovery layer engages —
    /// requester retransmission timers with capped exponential backoff,
    /// directory NAKs for requests hitting a busy block (instead of the
    /// unbounded pending queue), idempotent re-grants and re-acks, and
    /// sequence-numbered duplicate absorption. With no plan installed the
    /// engine takes its original code paths.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.set_fault_injector(FaultInjector::new(plan));
    }

    /// Installs a pre-built injector — lets tests pin faults to exact
    /// delivery indices with [`FaultInjector::force`].
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.layers_mut().fault = Some(injector);
    }

    /// The installed injector, if any.
    pub fn fault_injector_mut(&mut self) -> Option<&mut FaultInjector> {
        self.layers_mut().fault.as_mut()
    }

    /// Faults injected so far, when a plan is installed.
    pub fn fault_tally(&self) -> Option<&FaultTally> {
        self.layers().fault.as_ref().map(FaultInjector::tally)
    }

    /// Recovery-layer actions taken so far (quiet on a perfect fabric).
    pub fn recovery_tally(&self) -> &RecoveryTally {
        &self.layers().recovery
    }

    /// Speculative push/rollback actions taken so far (quiet without a
    /// speculation policy installed).
    pub fn rollback_tally(&self) -> &RollbackTally {
        &self.layers().rollback
    }

    /// Installs a speculation policy (the §4 integration): exclusive
    /// grants on predicted upgrades, voluntary replacement on predicted
    /// recalls — both fully race-checked in this engine.
    pub fn set_policy(&mut self, policy: Box<dyn SpeculationPolicy>) {
        self.layers_mut().policy = Some(policy);
    }

    /// Names the trace.
    pub fn set_app(&mut self, app: &str, iterations: u32) {
        let trace = &mut self.core.sched.trace;
        let mut bundle = TraceBundle::new(TraceMeta::new(app, self.core.proto.nodes, iterations));
        bundle.extend_records(trace.records().iter().copied());
        *trace = bundle;
    }

    /// The captured trace.
    pub fn trace(&self) -> &TraceBundle {
        &self.core.sched.trace
    }

    /// Consumes the machine, returning its trace.
    pub fn into_trace(self) -> TraceBundle {
        self.core.sched.trace
    }

    /// Machine statistics.
    pub fn stats(&self) -> &MachineStats {
        &self.core.stats
    }

    /// Per-transition and invariant-check tallies.
    pub fn tally(&self) -> &ProtocolTally {
        &self.core.tally
    }

    /// Enables or disables the flight recorder (enabled by default).
    pub fn set_ring_enabled(&mut self, enabled: bool) {
        self.core.sched.ring.get_mut().set_enabled(enabled);
    }

    /// Sets the minimum severity the flight recorder retains.
    pub fn set_ring_min_severity(&mut self, min: Severity) {
        self.core.sched.ring.get_mut().set_min_severity(min);
    }

    /// Turns causal span tracing on. Off (the default), every span call
    /// is an early-return no-op; on, every coherence transaction records
    /// a span tree stamped with the exact simulated times the event queue
    /// already computes. Purely observational: timing, ordering, and
    /// protocol state are unchanged either way.
    pub fn enable_tracing(&mut self) {
        self.layers_mut().spans.enable();
    }

    /// The span log recorded so far.
    pub fn spans(&self) -> &SpanLog {
        &self.layers().spans
    }

    /// Takes the span log, leaving a fresh disabled one.
    pub fn take_spans(&mut self) -> SpanLog {
        std::mem::take(&mut self.layers_mut().spans)
    }

    /// Closes any spans still open, marking them `"orphaned"`, and
    /// returns how many were flagged. Called at every barrier (the
    /// machine is quiescent there, so every transaction should have
    /// closed its root); a non-zero count is a protocol bug and lands in
    /// the flight recorder as a warning.
    pub fn flag_orphaned_spans(&mut self) -> u64 {
        let at = self.execution_time_ns();
        let flagged = self.layers_mut().spans.flag_orphans(at);
        if flagged > 0 {
            self.core
                .sched
                .log(|| ObsEvent::new(at, Severity::Warn, "span.orphaned").value(flagged));
        }
        flagged
    }

    /// The flight recorder's retained events, oldest first.
    pub fn flight_events(&self) -> Vec<ObsEvent> {
        self.core.sched.ring.borrow().events()
    }

    /// Visits the flight recorder's retained events, oldest first,
    /// without copying them out.
    pub fn for_each_flight_event(&self, f: impl FnMut(&ObsEvent)) {
        self.core.sched.ring.borrow().for_each(f);
    }

    /// Renders the flight recorder for post-mortem inspection.
    pub fn dump_flight_recorder(&self) -> String {
        self.core.sched.ring.borrow().dump()
    }

    /// Point-in-time export of every machine metric, including the
    /// event-queue depth distribution this engine uniquely sustains.
    pub fn obs_snapshot(&self) -> obs::Snapshot {
        let mut snap = obs::Snapshot::new();
        let sched = &self.core.sched;
        self.core.stats.export_obs(&mut snap);
        self.core.tally.export_obs(&mut snap);
        snap.counter("simx.trace.records", sched.trace.len() as u64);
        snap.counter("simx.ring.events_total", sched.ring.borrow().total_pushed());
        snap.histogram("simx.queue.depth", sched.queue.depth_histogram());
        // Fault/recovery metrics appear only when an injector is
        // installed, so clean runs keep their exact metric set.
        let layers = &sched.layers;
        if let Some(inj) = &layers.fault {
            inj.tally().export_obs(&mut snap);
            layers.recovery.export_obs(&mut snap);
        }
        // Rollback metrics appear only when speculation actually acted,
        // so non-speculative runs keep their exact metric set.
        if !layers.rollback.is_quiet() {
            layers.rollback.export_obs(&mut snap);
        }
        // Span metrics appear only when tracing is on, so untraced runs
        // keep their exact metric set.
        if layers.spans.is_enabled() {
            layers.spans.export_obs("simx.span", &mut snap);
        }
        snap
    }

    /// Execution time so far (latest node clock).
    pub fn execution_time_ns(&self) -> u64 {
        self.core.clocks.iter().copied().max().unwrap_or(0)
    }

    /// One node's recorded cache state for a block (`Invalid` when the
    /// block was never touched). Note the home node's rights live in the
    /// directory entry, not here — see
    /// [`cache_states_for`](Self::cache_states_for).
    pub fn cache_state(&self, node: NodeId, block: BlockAddr) -> CacheState {
        self.core.cache_state(node, block)
    }

    /// Executes one iteration plan: each phase runs to quiescence, then a
    /// barrier synchronises the clocks and audits coherence.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors and invariant violations.
    pub fn run_plan(&mut self, plan: &IterationPlan, iteration: u32) -> Result<(), SimError> {
        self.core.iteration = iteration;
        for phase in &plan.phases {
            self.begin_phase(phase);
            while let Some((t, ev)) = self.core.sched.queue.pop() {
                self.core.dispatch(t, ev)?;
            }
            self.barrier()?;
        }
        Ok(())
    }

    /// Loads a phase's scripts and seeds each node's first issue event,
    /// without running anything — the controlled-stepping entry point for
    /// [`simcheck`](crate::simcheck), which then delivers events one at a
    /// time via [`step_rank`](Self::step_rank).
    pub fn begin_phase(&mut self, phase: &Phase) {
        for (node, accesses) in phase.per_node.iter().enumerate() {
            let n = NodeId::new(node);
            if let Some(start) = self.core.load_script(n, accesses, phase.delay(n)) {
                self.core.sched.queue.push(start, Event::Issue(n));
            }
        }
    }

    /// Number of pending events, which is also the branching factor a
    /// model checker faces at this state.
    pub fn pending_events(&self) -> usize {
        self.core.sched.queue.len()
    }

    /// Labels of the pending events in deterministic delivery order
    /// (rank 0 delivers first under the unforced scheduler).
    pub fn pending_labels(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.pending_events());
        self.core
            .sched
            .queue
            .for_each_ranked(|_, ev| out.push(ev.label()));
        out
    }

    /// The `(sender, receiver)` channel of each pending event in
    /// delivery-rank order, `None` for events that are not message
    /// deliveries. The fabric is FIFO per ordered node pair — per-sender
    /// clocks are monotone, so ranked order within a channel is send
    /// order — and only the *first* pending delivery on each channel can
    /// legally be forced next. simcheck uses this to confine exploration
    /// to delivery orders the network can actually produce.
    pub fn pending_channels(&self) -> Vec<Option<(NodeId, NodeId)>> {
        let mut out = Vec::with_capacity(self.pending_events());
        self.core.sched.queue.for_each_ranked(|_, ev| {
            out.push(match ev {
                Event::Deliver(msg, _)
                | Event::SpecPush(msg, _)
                | Event::SpecPushResp { msg, .. } => Some((msg.sender, msg.receiver)),
                _ => None,
            })
        });
        out
    }

    /// Forces the `rank`-th pending event (in deterministic `(time, seq)`
    /// order) to be processed next, out of timestamp order if `rank > 0` —
    /// the timestamps stay attached to the events, so clocks only ever
    /// move forward via `max()`. Returns `false` when no event was
    /// pending.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors and invariant violations, exactly as
    /// the unforced scheduler would.
    pub fn step_rank(&mut self, rank: usize) -> Result<bool, SimError> {
        match self.core.sched.queue.remove_rank(rank) {
            Some((t, ev)) => {
                self.core.dispatch(t, ev)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Runs the inter-phase barrier explicitly (controlled-stepping
    /// counterpart of the one [`run_plan`](Self::run_plan) inserts).
    /// Call only when the queue is drained and no transaction is open.
    ///
    /// # Errors
    ///
    /// Propagates invariant violations from the quiescent audit.
    pub fn run_barrier(&mut self) -> Result<(), SimError> {
        self.barrier()
    }

    /// Directory transactions currently in flight.
    pub fn open_transactions(&self) -> usize {
        self.core.txns.len()
    }

    /// Blocks with an open directory transaction, ascending.
    pub fn open_transaction_blocks(&self) -> Vec<BlockAddr> {
        let mut blocks: Vec<BlockAddr> = self.core.txns.keys().copied().collect();
        blocks.sort_by_key(|b| b.number());
        blocks
    }

    /// Nodes blocked on an outstanding miss, with the block each waits on.
    pub fn waiting_nodes(&self) -> Vec<(NodeId, BlockAddr)> {
        self.core
            .waiting
            .iter()
            .enumerate()
            .filter_map(|(i, w)| w.map(|(b, _, _)| (NodeId::new(i), b)))
            .collect()
    }

    /// Every block any cache or directory entry has touched, ascending.
    pub fn touched_blocks(&self) -> Vec<BlockAddr> {
        let mut blocks: Vec<BlockAddr> = self.core.touched_blocks().collect();
        protocol::audit_order(&mut blocks);
        blocks
    }

    /// Cache and directory writes recorded since the last barrier and
    /// not yet audited, repeats included — zero right after every
    /// barrier, so the list never outgrows one phase.
    pub fn unaudited_writes(&self) -> usize {
        self.core.written.len()
    }

    /// Every node's effective cache state for `block`, indexed by node.
    /// The home node holds no separate cache entry — its rights are the
    /// directory entry itself, so they are derived from it here, the same
    /// picture [`verify_coherence`](Self::verify_coherence) audits.
    pub fn cache_states_for(&self, block: BlockAddr) -> Vec<CacheState> {
        let dir = self.core.dir_state(block);
        protocol::effective_states(block, &self.core.proto, &dir, |n| {
            self.core.cache_state(n, block)
        })
    }

    /// Each node's duplicate-filter low-water mark (all zero on a perfect
    /// fabric) — monotone by construction, which simcheck re-checks per
    /// step as the recovery-sequence invariant.
    pub fn dedup_watermarks(&self) -> Vec<u64> {
        let dedup = &self.layers().dedup;
        dedup.iter().map(DedupFilter::low_watermark).collect()
    }

    /// A canonical fingerprint of the global *protocol* state: caches,
    /// directory entries, open transactions, queued requests, scripts,
    /// blocked processors, and the multiset of in-flight events.
    ///
    /// Deliberately timing-abstracted: node clocks, event timestamps,
    /// handler-occupancy horizons, and monotone bookkeeping counters
    /// (miss/transaction epochs) are all excluded, so two delivery
    /// schedules that produce the same protocol picture hash equally.
    /// That is the equivalence [`crate::simcheck`] prunes on — it explores
    /// delivery *orders*, which timestamps do not constrain under forced
    /// stepping. Dedup-filter and sequence-counter state is included only
    /// under fault injection, where it influences delivery decisions.
    pub fn state_fingerprint(&self) -> u64 {
        let core = &self.core;
        let mut fp = Fp::new();
        fp.tag(0x01);
        for (i, c) in core.caches.iter().enumerate() {
            let mut blocks: Vec<(BlockAddr, CacheState)> =
                c.iter().map(|(b, s)| (*b, *s)).collect();
            blocks.sort_by_key(|(b, _)| b.number());
            fp.word(i as u64);
            fp.word(blocks.len() as u64);
            for (b, s) in blocks {
                fp.absorb(&b);
                fp.absorb(&s);
            }
        }
        fp.tag(0x02);
        let mut dirs: Vec<(&BlockAddr, &DirState)> = core.dirs.iter().collect();
        dirs.sort_by_key(|(b, _)| b.number());
        for (b, d) in dirs {
            fp.absorb(b);
            fp.absorb(d);
        }
        fp.tag(0x03);
        let mut txns: Vec<_> = core.txns.iter().collect();
        txns.sort_by_key(|(b, _)| b.number());
        for (b, txn) in txns {
            fp.absorb(b);
            fp.absorb(&txn.requester);
            match txn.reply {
                Some(r) => fp.absorb(&r),
                None => fp.tag(0xff),
            }
            fp.absorb(&txn.next);
            fp.word(txn.outstanding as u64);
            fp.word(u64::from(txn.local));
            fp.word(u64::from(txn.speculative));
            for (n, m) in &txn.holders {
                fp.absorb(n);
                fp.absorb(m);
            }
            let mut acked: Vec<NodeId> = txn.acked.iter().copied().collect();
            acked.sort_by_key(|n| n.raw());
            for n in acked {
                fp.absorb(&n);
            }
        }
        fp.tag(0x04);
        let mut pending: Vec<_> = core.pending.iter().collect();
        pending.sort_by_key(|(b, _)| b.number());
        for (b, q) in pending {
            if q.is_empty() {
                continue; // a drained queue is the same state as no queue
            }
            fp.absorb(b);
            fp.word(q.len() as u64);
            for id in q {
                fp.absorb(&core.preqs.get(*id).expect("queued request live").msg);
            }
        }
        fp.tag(0x05);
        for w in &core.waiting {
            match w {
                Some((b, op, _issued)) => {
                    fp.tag(1);
                    fp.absorb(b);
                    fp.absorb(op);
                }
                None => fp.tag(0),
            }
        }
        fp.tag(0x06);
        for s in &core.scripts {
            fp.word(s.len() as u64);
            for (b, op) in s {
                fp.absorb(b);
                fp.absorb(op);
            }
        }
        fp.tag(0x07);
        let mut overflowed: Vec<BlockAddr> = core.overflowed.iter().copied().collect();
        overflowed.sort_by_key(|b| b.number());
        for b in overflowed {
            fp.absorb(&b);
        }
        fp.tag(0x08);
        let mut events: Vec<u64> = Vec::with_capacity(self.pending_events());
        core.sched
            .queue
            .for_each_ranked(|_, ev| events.push(ev.fingerprint()));
        events.sort_unstable();
        fp.word(events.len() as u64);
        for e in events {
            fp.word(e);
        }
        let layers = self.layers();
        if layers.fault.is_some() {
            fp.tag(0x09);
            for d in &layers.dedup {
                fp.word(d.low_watermark());
                fp.word(d.pending() as u64);
            }
            for s in &layers.next_seq_to {
                fp.word(*s);
            }
            for p in &layers.grant_poison {
                fp.word(*p);
            }
        }
        fp.finish()
    }

    /// Barrier: quiescent by construction (the queue drained); audits the
    /// invariants and synchronises clocks.
    fn barrier(&mut self) -> Result<(), SimError> {
        debug_assert!(self.core.txns.is_empty(), "transactions drained at barrier");
        // A block nobody wrote this phase still holds the state the last
        // barrier audited, so auditing the written ones in ascending
        // order fails on exactly the violation a full sweep would.
        let mut written = std::mem::take(&mut self.core.written);
        protocol::audit_order(&mut written);
        self.audit(&written)?;
        // Quiescent: every transaction's root span must have closed. A
        // leftover open span is a bug — flag it rather than losing it.
        if self.layers().spans.is_enabled() {
            self.flag_orphaned_spans();
        }
        let max = self.execution_time_ns();
        for c in &mut self.core.clocks {
            *c = max + self.core.sys.barrier_ns;
        }
        self.core.stats.barriers += 1;
        Ok(())
    }

    /// Audits the full-map/SWMR invariants for every touched block
    /// (callable at quiescence — between phases).
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn verify_coherence(&self) -> Result<(), SimError> {
        self.audit(&self.touched_blocks())
    }

    /// Audits `blocks` in the given order, stopping at the first
    /// violation.
    fn audit(&self, blocks: &[BlockAddr]) -> Result<(), SimError> {
        let mut ring = self.core.sched.ring.borrow_mut();
        for &block in blocks {
            let dir = self.core.dir_state(block);
            let states = self.cache_states_for(block);
            protocol::audit_block(block, &dir, &states, &self.core.tally, &mut ring, || {
                self.execution_time_ns()
            })?;
        }
        Ok(())
    }
}

/// Runs a workload-style plan stream through a fresh concurrent machine.
///
/// # Errors
///
/// Propagates any [`SimError`].
pub fn run_workload<F>(
    name: &str,
    iterations: u32,
    mut plan_for: F,
    proto: ProtocolConfig,
    sys: SystemConfig,
) -> Result<ConcurrentMachine, SimError>
where
    F: FnMut(u32) -> IterationPlan,
{
    let mut m = ConcurrentMachine::new(proto, sys);
    m.set_app(name, iterations);
    for it in 0..iterations {
        let plan = plan_for(it);
        m.run_plan(&plan, it)?;
    }
    m.verify_coherence()?;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Access;
    use stache::{MsgType, ProcOp};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn machine() -> ConcurrentMachine {
        ConcurrentMachine::new(ProtocolConfig::paper(), SystemConfig::paper())
    }

    fn plan_of(phases: Vec<Vec<Access>>) -> IterationPlan {
        let mut plan = IterationPlan::new();
        for accesses in phases {
            let mut phase = Phase::new(16);
            for a in accesses {
                phase.push(a);
            }
            plan.push(phase);
        }
        plan
    }

    #[test]
    fn single_miss_round_trip() {
        let mut m = machine();
        let plan = plan_of(vec![vec![Access::read(n(1), BlockAddr::new(0))]]);
        m.run_plan(&plan, 0).unwrap();
        let types: Vec<MsgType> = m.trace().records().iter().map(|r| r.mtype).collect();
        assert_eq!(types, vec![MsgType::GetRoRequest, MsgType::GetRoResponse]);
        m.verify_coherence().unwrap();
    }

    #[test]
    fn independent_blocks_overlap_in_time() {
        let mut m = machine();
        // Two processors miss on blocks with different homes in the same
        // phase: both requests depart at t=0 and are serviced in parallel.
        let plan = plan_of(vec![vec![
            Access::read(n(2), BlockAddr::new(0)),  // home 0
            Access::read(n(3), BlockAddr::new(64)), // home 1
        ]]);
        m.run_plan(&plan, 0).unwrap();
        let replies: Vec<u64> = m
            .trace()
            .records()
            .iter()
            .filter(|r| r.mtype == MsgType::GetRoResponse)
            .map(|r| r.time_ns)
            .collect();
        assert_eq!(replies.len(), 2);
        assert_eq!(
            replies[0], replies[1],
            "true overlap: identical completion times"
        );
    }

    #[test]
    fn same_block_requests_serialize_at_the_home() {
        let mut m = machine();
        let plan = plan_of(vec![vec![
            Access::read(n(2), BlockAddr::new(0)),
            Access::read(n(3), BlockAddr::new(0)),
        ]]);
        m.run_plan(&plan, 0).unwrap();
        let replies: Vec<u64> = m
            .trace()
            .records()
            .iter()
            .filter(|r| r.mtype == MsgType::GetRoResponse)
            .map(|r| r.time_ns)
            .collect();
        assert_eq!(replies.len(), 2);
        assert!(replies[1] > replies[0], "the second waits for the first");
        m.verify_coherence().unwrap();
    }

    #[test]
    fn upgrade_race_converts_to_write_miss() {
        let mut m = machine();
        // Phase 1: both processors take shared copies.
        // Phase 2: both try to write. One upgrade wins; the other's copy
        // is invalidated mid-flight and its upgrade becomes a write miss.
        let plan = plan_of(vec![
            vec![
                Access::read(n(1), BlockAddr::new(0)),
                Access::read(n(2), BlockAddr::new(0)),
            ],
            vec![
                Access::write(n(1), BlockAddr::new(0)),
                Access::write(n(2), BlockAddr::new(0)),
            ],
        ]);
        m.run_plan(&plan, 0).unwrap();
        m.verify_coherence().unwrap();
        // Exactly one of the two writers ends exclusive.
        let owners = (0..16)
            .filter(|&i| m.cache_state(n(i), BlockAddr::new(0)) == CacheState::Exclusive)
            .count();
        assert_eq!(owners, 1);
        // The race produced an inval_ro_response from the losing upgrader
        // and a get_rw_response completing its converted miss.
        let types: Vec<MsgType> = m.trace().records().iter().map(|r| r.mtype).collect();
        assert!(types.contains(&MsgType::UpgradeRequest));
        assert!(types.contains(&MsgType::GetRwResponse));
    }

    #[test]
    fn per_block_sequences_match_the_serialized_engine() {
        // For a single-block workload the two engines must produce the
        // same per-agent message type sequences (timestamps may differ).
        use crate::machine::Machine;
        let accesses = [
            (1usize, ProcOp::Write),
            (2, ProcOp::Read),
            (3, ProcOp::Read),
            (2, ProcOp::Write),
            (1, ProcOp::Read),
        ];
        let mut serial = Machine::new(ProtocolConfig::paper(), SystemConfig::paper());
        for &(p, op) in &accesses {
            serial.access(n(p), BlockAddr::new(0), op, 0).unwrap();
        }
        let mut conc = machine();
        // One access per phase forces the same serialization order.
        let phases: Vec<Vec<Access>> = accesses
            .iter()
            .map(|&(p, op)| {
                vec![match op {
                    ProcOp::Read => Access::read(n(p), BlockAddr::new(0)),
                    ProcOp::Write => Access::write(n(p), BlockAddr::new(0)),
                }]
            })
            .collect();
        conc.run_plan(&plan_of(phases), 0).unwrap();
        let serial_types: Vec<(NodeId, MsgType)> = serial
            .trace()
            .records()
            .iter()
            .map(|r| (r.node, r.mtype))
            .collect();
        let conc_types: Vec<(NodeId, MsgType)> = conc
            .trace()
            .records()
            .iter()
            .map(|r| (r.node, r.mtype))
            .collect();
        assert_eq!(serial_types, conc_types);
    }

    #[test]
    fn local_accesses_stay_message_free() {
        let mut m = machine();
        let plan = plan_of(vec![vec![
            Access::write(n(0), BlockAddr::new(0)),
            Access::read(n(0), BlockAddr::new(0)),
        ]]);
        m.run_plan(&plan, 0).unwrap();
        assert_eq!(m.trace().len(), 0);
        m.verify_coherence().unwrap();
    }

    #[test]
    fn rmw_is_not_atomic_here() {
        let mut m = machine();
        // Two processors RMW the same block concurrently: the engine may
        // interleave their read and write halves; whatever happens, the
        // protocol stays coherent and both writes commit.
        let plan = plan_of(vec![vec![
            Access::rmw(n(1), BlockAddr::new(0)),
            Access::rmw(n(2), BlockAddr::new(0)),
        ]]);
        m.run_plan(&plan, 0).unwrap();
        m.verify_coherence().unwrap();
        assert_eq!(m.stats().writes, 2);
    }

    #[test]
    fn obs_snapshot_covers_queue_depth_and_net_latency() {
        let mut m = machine();
        let plan = plan_of(vec![vec![Access::read(n(1), BlockAddr::new(0))]]);
        m.run_plan(&plan, 0).unwrap();
        let snap = m.obs_snapshot();
        assert!(matches!(
            snap.get("simx.queue.depth"),
            Some(obs::MetricValue::Histogram(h)) if h.count() > 0
        ));
        assert!(matches!(
            snap.get("simx.net.one_way_ns"),
            Some(obs::MetricValue::Histogram(h)) if h.count() == 2
        ));
        assert!(snap.get("stache.cache.transition.invalid.i_to_s").is_some());
        assert!(m.flight_events().iter().any(|e| e.kind == "msg.recv"));
    }

    #[test]
    fn dropped_grant_is_recovered_by_the_retry_timer() {
        use crate::fault::{FaultPlan, ForcedFault};
        let mut m = machine();
        let mut inj = crate::fault::FaultInjector::new(FaultPlan::default());
        // Delivery 0 is the request, delivery 1 the grant.
        inj.force(1, ForcedFault::Drop);
        m.set_fault_injector(inj);
        let plan = plan_of(vec![vec![Access::read(n(1), BlockAddr::new(0))]]);
        m.run_plan(&plan, 0).unwrap();
        let r = m.recovery_tally();
        assert_eq!(r.timeouts, 1, "exactly one timeout fires");
        assert_eq!(r.retries, 1, "exactly one retransmission");
        assert_eq!(r.regrants, 1, "the home re-sends the lost grant");
        assert_eq!(r.recovery_latency_ns.count(), 1);
        assert_eq!(m.cache_state(n(1), BlockAddr::new(0)), CacheState::Shared);
        m.verify_coherence().unwrap();
    }

    #[test]
    fn duplicated_inval_ack_is_absorbed_by_the_sequence_filter() {
        use crate::fault::{FaultInjector, FaultPlan, ForcedFault};
        let mut m = machine();
        let mut inj = FaultInjector::new(FaultPlan::default());
        // Phase 1, write by node 1: request (0), grant (1). Phase 2,
        // write by node 2: request (2), invalidation (3), ack (4),
        // grant (5).
        inj.force(4, ForcedFault::Duplicate);
        m.set_fault_injector(inj);
        let plan = plan_of(vec![
            vec![Access::write(n(1), BlockAddr::new(0))],
            vec![Access::write(n(2), BlockAddr::new(0))],
        ]);
        m.run_plan(&plan, 0).unwrap();
        assert_eq!(m.recovery_tally().dups_absorbed, 1);
        // Six receptions, exactly as a clean run: the duplicate never
        // reaches a handler or the trace.
        assert_eq!(m.trace().len(), 6);
        m.verify_coherence().unwrap();
    }

    #[test]
    fn dropped_inval_ack_is_recovered_by_the_directory_timer() {
        use crate::fault::{FaultInjector, FaultPlan, ForcedFault};
        let mut m = machine();
        let mut inj = FaultInjector::new(FaultPlan::default());
        // Same shape as above; delivery 4 is the inval ack — drop it.
        inj.force(4, ForcedFault::Drop);
        m.set_fault_injector(inj);
        let plan = plan_of(vec![
            vec![Access::write(n(1), BlockAddr::new(0))],
            vec![Access::write(n(2), BlockAddr::new(0))],
        ]);
        m.run_plan(&plan, 0).unwrap();
        let r = m.recovery_tally();
        assert!(r.timeouts >= 1, "the directory's ack timer fired");
        assert!(r.retries >= 1, "the invalidation was re-sent");
        m.verify_coherence().unwrap();
        assert_eq!(
            m.cache_state(n(2), BlockAddr::new(0)),
            CacheState::Exclusive
        );
        assert_eq!(m.cache_state(n(1), BlockAddr::new(0)), CacheState::Invalid);
    }

    #[test]
    fn busy_block_naks_instead_of_queueing() {
        use crate::fault::FaultPlan;
        let mut m = machine();
        m.set_fault_plan(FaultPlan::default());
        // Seed an exclusive owner, then race two requests: whichever
        // arrives second finds an invalidation transaction in flight and
        // is NAKed instead of sitting in the pending queue.
        let plan = plan_of(vec![
            vec![Access::write(n(1), BlockAddr::new(0))],
            vec![
                Access::read(n(2), BlockAddr::new(0)),
                Access::read(n(3), BlockAddr::new(0)),
            ],
        ]);
        m.run_plan(&plan, 0).unwrap();
        let r = m.recovery_tally();
        assert!(r.naks_sent >= 1, "the busy home NAKed the loser");
        assert_eq!(r.naks_sent, r.naks_received, "NAK channel is reliable");
        m.verify_coherence().unwrap();
        assert_eq!(m.cache_state(n(2), BlockAddr::new(0)), CacheState::Shared);
        assert_eq!(m.cache_state(n(3), BlockAddr::new(0)), CacheState::Shared);
    }

    #[test]
    fn perturbed_multiphase_run_passes_barrier_audits() {
        use crate::fault::FaultPlan;
        let plan_spec = FaultPlan::parse("drop=0.03,dup=0.03,reorder=3,spike=0.05")
            .unwrap()
            .with_seed(11);
        let mut m = machine();
        m.set_fault_plan(plan_spec);
        // A contended multi-phase workload: every barrier audits the
        // full-map/SWMR invariants over the perturbed traffic.
        for it in 0..4u32 {
            let mut phases = Vec::new();
            for ph in 0..3usize {
                let mut accesses = Vec::new();
                for p in 1..6usize {
                    let block = BlockAddr::new(((p + ph) % 4) as u64);
                    if (p + ph + it as usize).is_multiple_of(3) {
                        accesses.push(Access::write(n(p), block));
                    } else {
                        accesses.push(Access::read(n(p), block));
                    }
                }
                phases.push(accesses);
            }
            m.run_plan(&plan_of(phases), it).unwrap();
        }
        m.verify_coherence().unwrap();
        let t = m.fault_tally().unwrap();
        assert!(t.drops > 0, "the plan injected drops");
        assert!(!m.recovery_tally().is_quiet());
        let snap = m.obs_snapshot();
        assert!(snap.names().iter().any(|k| k.starts_with("simx.fault.")));
        assert!(snap
            .names()
            .iter()
            .any(|k| k.starts_with("stache.recovery.")));
    }

    #[test]
    fn same_seed_same_faults_same_metrics() {
        use crate::fault::FaultPlan;
        let run = || {
            let mut m = machine();
            m.set_fault_plan(
                FaultPlan::parse("drop=0.05,dup=0.05,reorder=2")
                    .unwrap()
                    .with_seed(42),
            );
            for it in 0..3u32 {
                let plan = plan_of(vec![vec![
                    Access::write(n(1), BlockAddr::new(0)),
                    Access::read(n(2), BlockAddr::new(0)),
                    Access::rmw(n(3), BlockAddr::new(64)),
                ]]);
                m.run_plan(&plan, it).unwrap();
            }
            m.obs_snapshot().to_json()
        };
        assert_eq!(run(), run(), "same seed, byte-identical metrics");
    }

    #[test]
    fn quiet_plan_keeps_uncontended_runs_identical() {
        use crate::fault::FaultPlan;
        let plan = plan_of(vec![vec![
            Access::read(n(2), BlockAddr::new(0)),
            Access::read(n(3), BlockAddr::new(64)),
        ]]);
        let mut clean = machine();
        clean.run_plan(&plan, 0).unwrap();
        let mut faulted = machine();
        faulted.set_fault_plan(FaultPlan::default());
        faulted.run_plan(&plan, 0).unwrap();
        assert_eq!(clean.trace().records(), faulted.trace().records());
        assert!(faulted.recovery_tally().is_quiet());
    }

    #[test]
    fn workload_helper_runs_micros() {
        let m = run_workload(
            "pc",
            6,
            |_| {
                plan_of(vec![
                    vec![Access::write(n(1), BlockAddr::new(0))],
                    vec![Access::read(n(2), BlockAddr::new(0))],
                ])
            },
            ProtocolConfig::paper(),
            SystemConfig::paper(),
        )
        .unwrap();
        assert!(m.trace().len() >= 6 * 4);
        assert!(m.execution_time_ns() > 0);
    }
}
