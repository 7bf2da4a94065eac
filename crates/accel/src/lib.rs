#![warn(missing_docs)]

//! # accel — prediction-accelerated coherence
//!
//! The paper measures Cosmos' accuracy *in isolation* and leaves the
//! integration into a protocol as future work ("taking a branch predictor
//! with high prediction rates and integrating it into a
//! micro-architecture to see how much it affects the bottom line", §8).
//! This crate is that next step, on the simulated machine:
//!
//! * [`CosmosPolicy`] installs one Cosmos predictor per directory and per
//!   cache in a [`simx::Machine`] and drives the two speculative actions
//!   of the paper's Table 2 that fit a trace-level protocol:
//!   - **exclusive grants** (read-modify-write prediction): when the
//!     directory predictor says a reader's next message will be an
//!     `upgrade_request`, the `get_ro_request` is answered exclusively —
//!     eliminating the upgrade round trip entirely;
//!   - **self-invalidation** (dynamic self-invalidation): when a cache
//!     predictor says the next incoming message for a freshly-written
//!     block is an `inval_rw_request`, the block is replaced to the
//!     directory immediately — turning the consumer's four-message
//!     owner-recall miss into a two-message idle-directory miss.
//! * [`directed_policy::DirectedPolicy`] does the same with the §7
//!   directed predictors, for comparison (both are one
//!   [`policy::PredictorPolicy`] over a directory and a cache predictor
//!   type);
//! * [`SpeculatePolicy`] closes the loop on the concurrent engine: a
//!   Cosmos fleet gated on each PHT entry's confidence counter
//!   additionally drives **early invalidation acks** and **speculative
//!   forwarding pushes** — the two §4 actions that *do* send extra
//!   protocol messages and need the engine's rollback machinery when
//!   wrong.
//! * [`runner`] executes a workload with and without a policy and reports
//!   messages, execution time, and the speculation outcome counters.
//!
//! Mispredictions by the grant/self-invalidate actions need no protocol
//! recovery (both move the protocol between legal states — the first
//! category of §4.3); their *cost* is the extra misses they cause, which
//! the runner's execution-time comparison captures end to end. The
//! push/early-ack actions are the second §4.3 category: a wrong push is
//! rejected by its target and rolled back by the directory (counted in
//! [`stache::RollbackTally`]), so correctness never depends on the
//! predictor being right.
//!
//! ## Example
//!
//! ```
//! use accel::{runner, CosmosPolicy};
//! use workloads::micro::ProducerConsumer;
//!
//! let make = || ProducerConsumer { blocks: 2, iterations: 15, ..Default::default() };
//! let comparison = runner::compare(
//!     &mut make(),
//!     &mut make(),
//!     || Box::new(CosmosPolicy::new(2)),
//! ).unwrap();
//! // Producer-consumer is speculation's best case: fewer messages and a
//! // faster run.
//! assert!(comparison.accelerated.messages < comparison.baseline.messages);
//! ```

pub mod directed_policy;
mod fleet;
pub mod policy;
pub mod runner;
pub mod speculate;

pub use policy::CosmosPolicy;
pub use runner::{
    audit_actions, audit_actions_chunks, compare, compare_concurrent, run_concurrent_with_policy,
    run_with_policy, ActionAudit, ActionAuditor, Comparison, RunSummary,
};
pub use speculate::SpeculatePolicy;
