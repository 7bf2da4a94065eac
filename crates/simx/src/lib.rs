#![warn(missing_docs)]

//! # simx — a discrete-event simulator of a directory-based shared-memory
//! machine
//!
//! This crate stands in for the Wisconsin Wind Tunnel II (paper §5): it
//! executes memory-access streams on a simulated *N*-node machine running
//! the Stache protocol, timestamps every coherence message with a
//! latency-parameterised network model, and collects the per-node
//! incoming-message traces that the Cosmos predictor is evaluated on.
//!
//! The simulator serialises coherence transactions per block (Stache's
//! software handlers do the same), but interleaves *processors* by their
//! local clocks, so message arrival orders — e.g. which of two consumers'
//! `get_ro_request`s reaches the directory first — emerge from timing, as
//! they do on a real machine.
//!
//! Beyond tracing, the machine tracks data values (each write stamps the
//! block with a fresh token) and verifies on every read that the processor
//! observes the most recent write — an end-to-end coherence check — and can
//! audit the full-map/SWMR invariants after every transaction.
//!
//! ## Example
//!
//! ```
//! use simx::{Machine, SystemConfig};
//! use stache::{BlockAddr, NodeId, ProcOp, ProtocolConfig};
//!
//! let mut m = Machine::new(ProtocolConfig::paper(), SystemConfig::paper());
//! // Node 1 writes a block homed on node 0, then node 2 reads it.
//! let b = BlockAddr::new(0);
//! m.access(NodeId::new(1), b, ProcOp::Write, 0).unwrap();
//! m.access(NodeId::new(2), b, ProcOp::Read, 0).unwrap();
//! // The write missed (2 messages) and the read missed, invalidating the
//! // owner under the half-migratory optimisation (4 messages).
//! assert_eq!(m.trace().len(), 6);
//! m.verify_coherence().unwrap();
//! ```

pub mod arena;
pub mod concurrent;
pub mod config;
pub mod driver;
pub mod event;
pub mod fault;
pub mod machine;
pub mod network;
mod protocol;
pub mod rng;
pub mod shard;
pub mod simcheck;
pub mod speculate;
pub mod stats;

pub use arena::{Arena, ArenaId};
pub use concurrent::ConcurrentMachine;
pub use config::SystemConfig;
pub use driver::{Access, AccessOp, IterationPlan, Phase};
pub use event::EventQueue;
pub use fault::{FaultInjector, FaultPlan};
pub use machine::{AccessOutcome, ForwardKind, Machine, SimError, SpeculationPolicy};
pub use network::Topology;
pub use shard::ShardedMachine;
pub use speculate::{EagerPolicy, SpecActions};
pub use stats::MachineStats;
