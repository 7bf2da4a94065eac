//! Byte-identity of the sharded engine (DESIGN.md §6h).
//!
//! Two pinned properties:
//!
//! 1. **Shard-count invariance** — for every workload and every shard
//!    count `k`, `ShardedMachine` output (trace, stats, tallies, flight
//!    recorder, full obs snapshot JSON) is byte-identical to the
//!    `shards = 1` sequential fallback. Partitioning is an execution
//!    strategy, never a semantics change.
//!
//! 2. **Engine equivalence** — on the clean fabric the sharded engine
//!    reproduces the `ConcurrentMachine` exactly: same trace records,
//!    same statistics, same flight-recorder stream, same final
//!    cache/directory states, and an obs snapshot that agrees on every
//!    metric the concurrent engine exports (the sharded snapshot adds
//!    only its own `simx.shard.*` keys). Checked under the paper's
//!    protocol and under the variants that reach the Dir_i B overflow
//!    broadcast and the DASH-style downgrade paths.

use simx::concurrent::{self, ConcurrentMachine};
use simx::{ShardedMachine, SystemConfig};
use stache::{MsgType, ProtocolConfig};
use workloads::{run_sharded, small_suite, Workload};

fn concurrent_run(w: &mut dyn Workload, proto: ProtocolConfig) -> ConcurrentMachine {
    let name = w.name();
    let iterations = w.iterations();
    concurrent::run_workload(
        name,
        iterations,
        |it| w.plan(it),
        proto,
        SystemConfig::paper(),
    )
    .unwrap_or_else(|e| panic!("{name} concurrent run failed: {e}"))
}

fn sharded_run(w: &mut dyn Workload, proto: ProtocolConfig, shards: usize) -> ShardedMachine {
    let name = w.name();
    run_sharded(w, proto, SystemConfig::paper(), shards)
        .unwrap_or_else(|e| panic!("{name} sharded({shards}) run failed: {e}"))
}

/// The protocol variants the engines are compared under: the paper's
/// configuration, Dir_i B limited pointers (overflow broadcasts, with
/// and without the half-migratory optimisation), and the DASH-style
/// downgrade protocol alone.
fn protocol_variants() -> Vec<(&'static str, ProtocolConfig)> {
    let paper = ProtocolConfig::paper();
    vec![
        ("paper", paper.clone()),
        (
            "dir2b",
            ProtocolConfig {
                limited_pointers: Some(2),
                ..paper.clone()
            },
        ),
        (
            "dir1b-dash",
            ProtocolConfig {
                limited_pointers: Some(1),
                half_migratory: false,
                ..paper.clone()
            },
        ),
        (
            "dash",
            ProtocolConfig {
                half_migratory: false,
                ..paper
            },
        ),
    ]
}

/// Every shard count produces the same snapshot JSON, byte for byte.
#[test]
fn shard_count_never_changes_output() {
    for k in [2, 4, 7, 16] {
        for (mut base, mut multi) in small_suite().into_iter().zip(small_suite()) {
            let name = base.name();
            let one = sharded_run(base.as_mut(), ProtocolConfig::paper(), 1);
            let many = sharded_run(multi.as_mut(), ProtocolConfig::paper(), k);
            assert_eq!(
                one.obs_snapshot().to_json(),
                many.obs_snapshot().to_json(),
                "{name}: obs snapshot diverges at {k} shards"
            );
            assert_eq!(
                one.trace().records(),
                many.trace().records(),
                "{name}: trace diverges at {k} shards"
            );
            assert_eq!(
                one.flight_events(),
                many.flight_events(),
                "{name}: flight recorder diverges at {k} shards"
            );
            assert_eq!(
                one.execution_time_ns(),
                many.execution_time_ns(),
                "{name}: execution time diverges at {k} shards"
            );
        }
    }
}

/// The sharded engine reproduces the concurrent engine's observable
/// output exactly on every small-suite workload, under every protocol
/// variant.
#[test]
fn sharded_matches_concurrent_engine() {
    for (variant, proto) in protocol_variants() {
        let (mut overflows, mut downgrades) = (0, 0);
        for (mut cw, mut sw) in small_suite().into_iter().zip(small_suite()) {
            let name = format!("{}/{variant}", cw.name());
            let conc = concurrent_run(cw.as_mut(), proto.clone());
            let shar = sharded_run(sw.as_mut(), proto.clone(), 4);
            assert_engines_agree(&name, &conc, &shar);
            overflows += conc.stats().directory_overflows;
            downgrades += conc
                .trace()
                .records()
                .iter()
                .filter(|r| r.mtype == MsgType::DowngradeRequest)
                .count();
        }
        // Each variant must actually reach the path it is here for.
        if proto.limited_pointers.is_some() {
            assert!(overflows > 0, "{variant}: no directory overflow reached");
        }
        if !proto.half_migratory {
            assert!(downgrades > 0, "{variant}: no downgrade reached");
        }
    }
}

fn assert_engines_agree(name: &str, conc: &ConcurrentMachine, shar: &ShardedMachine) {
    assert_eq!(
        conc.trace().records(),
        shar.trace().records(),
        "{name}: trace records differ"
    );
    assert_eq!(conc.stats(), &shar.stats(), "{name}: stats differ");
    assert_eq!(
        conc.flight_events(),
        shar.flight_events(),
        "{name}: flight recorder differs"
    );
    assert_eq!(
        conc.execution_time_ns(),
        shar.execution_time_ns(),
        "{name}: execution time differs"
    );

    // The sharded snapshot is a superset: every metric the concurrent
    // engine exports appears with an identical value.
    let csnap = conc.obs_snapshot();
    let ssnap = shar.obs_snapshot();
    for key in csnap.names() {
        assert_eq!(
            csnap.get(&key),
            ssnap.get(&key),
            "{name}: snapshot metric {key} differs"
        );
    }

    // Final protocol state: identical per-block cache and directory
    // pictures for every block the run touched.
    for block in conc.touched_blocks() {
        assert_eq!(
            conc.cache_states_for(block),
            shar.cache_states_for(block),
            "{name}: cache states differ for {block:?}"
        );
    }
}

/// The micro-workloads from the simcheck/golden tier also agree — the
/// smallest configs exercise the local-marker and upgrade paths.
#[test]
fn micro_workloads_match_across_engines() {
    use workloads::micro::{Migratory, ProducerConsumer};
    let fresh = || -> Vec<Box<dyn Workload>> {
        vec![
            Box::new(ProducerConsumer::default()),
            Box::new(Migratory::default()),
        ]
    };
    for (i, mut w) in fresh().into_iter().enumerate() {
        let name = w.name();
        let conc = concurrent_run(w.as_mut(), ProtocolConfig::paper());
        for k in [1, 2, 5] {
            let mut again = fresh().remove(i);
            let shar = sharded_run(again.as_mut(), ProtocolConfig::paper(), k);
            assert_eq!(
                conc.trace().records(),
                shar.trace().records(),
                "{name}: trace differs at {k} shards"
            );
            assert_eq!(
                conc.stats(),
                &shar.stats(),
                "{name}: stats differ at {k} shards"
            );
        }
    }
}
