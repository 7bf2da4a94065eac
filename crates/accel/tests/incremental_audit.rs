//! The barrier audit of the message-level engines checks only the blocks
//! whose cache or directory entry was written since the previous barrier.
//!
//! Three properties pin that shortcut down:
//!
//! 1. **As strong as the full sweep** — stepping a `ConcurrentMachine`
//!    phase by phase, the full `verify_coherence()` and the barrier's
//!    incremental audit return the same `Result` at every barrier: clean,
//!    under faults with an acting speculation policy, and under a seeded
//!    protocol bug, where both name the same first violation at the same
//!    barrier.
//! 2. **Bounded memory** — the list of blocks awaiting audit is empty
//!    after every barrier, in both schedulers, audited or not.
//! 3. **Bounded work** — a run's invariant checks never exceed its cache
//!    plus directory transitions, so a full sweep at every barrier (work
//!    growing with run length squared) cannot come back unseen.

use accel::SpeculatePolicy;
use simx::concurrent::ProtocolMutation;
use simx::{ConcurrentMachine, FaultPlan, IterationPlan, ShardedMachine, SimError, SystemConfig};
use stache::{ProtocolConfig, ProtocolTally};
use workloads::{small_suite, Workload};

/// How a stepped run ended.
#[derive(Debug)]
enum End {
    /// Every barrier passed.
    Clean,
    /// The audit at this barrier (0-based) failed, identically in both.
    Barrier(u32, SimError),
    /// A handler failed mid-phase, before a barrier could see anything.
    Handler,
}

/// Steps `w` through `m` phase by phase. Before each barrier the full
/// sweep runs, and the barrier's own audit must return the same result.
fn step_and_compare(m: &mut ConcurrentMachine, w: &mut dyn Workload) -> End {
    let name = w.name();
    let mut barrier = 0;
    for it in 0..w.iterations() {
        for phase in &w.plan(it).phases {
            m.begin_phase(phase);
            loop {
                match m.step_rank(0) {
                    Ok(true) => {}
                    Ok(false) => break,
                    Err(_) => return End::Handler,
                }
            }
            let full = m.verify_coherence();
            let incremental = m.run_barrier();
            assert_eq!(
                incremental, full,
                "{name}: barrier {barrier} audits disagree"
            );
            assert_eq!(
                m.unaudited_writes(),
                0,
                "{name}: barrier {barrier} left writes unaudited"
            );
            if let Err(e) = incremental {
                return End::Barrier(barrier, e);
            }
            barrier += 1;
        }
    }
    End::Clean
}

fn machine(w: &dyn Workload) -> ConcurrentMachine {
    let mut m = ConcurrentMachine::new(ProtocolConfig::paper(), SystemConfig::paper());
    m.set_app(w.name(), w.iterations());
    m
}

#[test]
fn incremental_audit_matches_full_sweep_clean() {
    for mut w in small_suite() {
        let mut m = machine(w.as_ref());
        let end = step_and_compare(&mut m, w.as_mut());
        assert!(matches!(end, End::Clean), "{}: {end:?}", w.name());
    }
}

#[test]
fn incremental_audit_matches_full_sweep_under_faults_and_speculation() {
    for mut w in small_suite() {
        let mut m = machine(w.as_ref());
        let plan = FaultPlan::parse("drop=0.01,dup=0.005,reorder=3").expect("fault spec");
        m.set_fault_plan(plan.with_seed(7));
        m.set_policy(Box::new(SpeculatePolicy::new(1, Some(2))));
        let end = step_and_compare(&mut m, w.as_mut());
        assert!(matches!(end, End::Clean), "{}: {end:?}", w.name());
        assert!(
            m.rollback_tally().pushes + m.rollback_tally().early_acks > 0,
            "{}: the policy never acted",
            w.name()
        );
    }
}

#[test]
fn incremental_audit_matches_full_sweep_on_a_seeded_bug() {
    let mut caught = 0;
    for mut w in small_suite() {
        let mut m = machine(w.as_ref());
        m.set_mutation(ProtocolMutation::AckWithoutInvalidate);
        if let End::Barrier(barrier, e) = step_and_compare(&mut m, w.as_mut()) {
            assert!(
                matches!(e, SimError::Invariant(_)),
                "{} barrier {barrier}: {e}",
                w.name()
            );
            caught += 1;
        }
    }
    assert!(caught > 0, "no app carried the seeded bug to a barrier");
}

/// Runs one phase at a time, so every barrier is observed.
fn phases_of(w: &mut dyn Workload, it: u32) -> Vec<IterationPlan> {
    w.plan(it)
        .phases
        .into_iter()
        .map(|p| IterationPlan { phases: vec![p] })
        .collect()
}

fn transitions(t: &ProtocolTally) -> u64 {
    t.cache_transitions() + t.dir_transitions()
}

/// The guard against a full sweep at every barrier: on small DSMC that
/// sweep makes more checks than the run has transitions, while the
/// incremental audit makes at most one per write.
#[test]
fn concurrent_invariant_checks_stay_within_transitions() {
    for mut w in small_suite() {
        let name = w.name();
        let mut m = machine(w.as_ref());
        for it in 0..w.iterations() {
            let plan = w.plan(it);
            m.run_plan(&plan, it).expect("clean run");
        }
        let t = m.tally();
        assert!(t.invariant_checks() > 0, "{name}: nothing audited");
        assert!(
            t.invariant_checks() <= transitions(t),
            "{name}: {} checks for {} transitions",
            t.invariant_checks(),
            transitions(t)
        );
    }
}

#[test]
fn sharded_audit_list_is_empty_after_every_barrier_audited_or_not() {
    for audit in [true, false] {
        for mut w in small_suite() {
            let name = w.name();
            let mut m = ShardedMachine::new(ProtocolConfig::paper(), SystemConfig::paper(), 4);
            m.set_app(name, w.iterations());
            m.set_audit_barriers(audit);
            for it in 0..w.iterations() {
                for plan in phases_of(w.as_mut(), it) {
                    m.run_plan(&plan, it).expect("clean run");
                    assert_eq!(m.unaudited_writes(), 0, "{name}/{audit}: iteration {it}");
                }
            }
            let t = m.tally();
            if audit {
                assert!(t.invariant_checks() <= transitions(&t), "{name}");
            } else {
                assert_eq!(t.invariant_checks(), 0, "{name}: audited with audits off");
            }
        }
    }
}
