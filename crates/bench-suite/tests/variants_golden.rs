//! Golden regression test for the predictor-variant and history-persistence
//! studies (`repro variants`, `repro persistence`). Their printed reports
//! round accuracies to whole percents, so a small drift in any variant's
//! table logic would pass a text diff unseen. This test pins the exact
//! integers behind every cell on the small suite: overall hits/total,
//! coverage hits, and the fleet's MHR and PHT entry counts.
//!
//! The contender list mirrors `extras::variants` and the capacity list
//! mirrors `extras::history_persistence`; the first test checks that the
//! printed reports still name the same columns in the same order.

use bench_suite::{extras, Scale, TraceSet};
use cosmos::eval::evaluate;
use cosmos::{
    ConfidenceCosmos, CosmosPredictor, EvalOptions, EvictingCosmos, HybridCosmos, MacroblockCosmos,
    MessagePredictor, PreallocCosmos, SharedPhtCosmos,
};
use std::fmt::Write;

type Factory = fn() -> Box<dyn MessagePredictor>;

/// `extras::variants`' contenders, in report order.
const VARIANTS: [(&str, Factory); 7] = [
    ("cosmos", || Box::new(CosmosPredictor::new(2, 0))),
    ("macro x4", || Box::new(MacroblockCosmos::new(2, 0, 2))),
    ("macro x16", || Box::new(MacroblockCosmos::new(2, 0, 4))),
    ("conf>=2", || Box::new(ConfidenceCosmos::new(2, 2))),
    ("prealloc", || Box::new(PreallocCosmos::paper(2, 256))),
    ("shared 4k", || Box::new(SharedPhtCosmos::new(2, 1, 12))),
    ("hybrid 1+3", || Box::new(HybridCosmos::new(1, 3))),
];

/// `extras::history_persistence`' per-agent MHT capacities, in report
/// order (`unbounded` is plain Cosmos).
const CAPACITIES: [usize; 5] = [usize::MAX, 512, 128, 32, 8];

/// One line per (contender, app): `hits/total cov=… mhr=… pht=…`.
const GOLDEN: &str = "\
cosmos          appbt        5594/7592 cov=5729 mhr=380 pht=1179
cosmos          barnes       7066/13712 cov=7907 mhr=975 pht=3914
cosmos          dsmc         4017/5232 cov=4094 mhr=310 pht=583
cosmos          moldyn       3878/7028 cov=4199 mhr=447 pht=1994
cosmos          unstructured 3116/4078 cov=3230 mhr=140 pht=594
macro x4        appbt        4745/7592 cov=6201 mhr=211 pht=1007
macro x4        barnes       5049/13712 cov=9099 mhr=396 pht=3842
macro x4        dsmc         3200/5232 cov=4285 mhr=165 pht=653
macro x4        moldyn       3329/7028 cov=4962 mhr=192 pht=1711
macro x4        unstructured 2796/4078 cov=3360 mhr=69 pht=592
macro x16       appbt        4689/7592 cov=6507 mhr=120 pht=883
macro x16       barnes       5324/13712 cov=10466 mhr=133 pht=2999
macro x16       dsmc         3225/5232 cov=4411 mhr=83 pht=663
macro x16       moldyn       3300/7028 cov=5764 mhr=79 pht=1135
macro x16       unstructured 2227/4078 cov=3566 mhr=29 pht=466
conf>=2         appbt        3658/7592 cov=3662 mhr=380 pht=1179
conf>=2         barnes       5036/13712 cov=5037 mhr=975 pht=3914
conf>=2         dsmc         3363/5232 cov=3363 mhr=310 pht=583
conf>=2         moldyn       1067/7028 cov=1135 mhr=447 pht=1994
conf>=2         unstructured 2185/4078 cov=2212 mhr=140 pht=594
prealloc        appbt        5507/7592 cov=5729 mhr=380 pht=1179
prealloc        barnes       5004/13712 cov=5528 mhr=975 pht=1853
prealloc        dsmc         4052/5232 cov=4094 mhr=310 pht=583
prealloc        moldyn       2364/7028 cov=2535 mhr=447 pht=1127
prealloc        unstructured 3123/4078 cov=3228 mhr=140 pht=532
shared 4k       appbt        5428/7592 cov=5759 mhr=380 pht=1149
shared 4k       barnes       7029/13712 cov=8700 mhr=975 pht=3121
shared 4k       dsmc         4039/5232 cov=4104 mhr=310 pht=573
shared 4k       moldyn       3717/7028 cov=4354 mhr=447 pht=1839
shared 4k       unstructured 3060/4078 cov=3256 mhr=140 pht=568
hybrid 1+3      appbt        5960/7592 cov=6173 mhr=760 pht=2323
hybrid 1+3      barnes       7661/13712 cov=9283 mhr=1950 pht=7346
hybrid 1+3      dsmc         4197/5232 cov=4279 mhr=620 pht=1159
hybrid 1+3      moldyn       4396/7028 cov=5072 mhr=894 pht=3760
hybrid 1+3      unstructured 3153/4078 cov=3467 mhr=280 pht=1134
evict unbounded appbt        5594/7592 cov=5729 mhr=380 pht=1179
evict unbounded barnes       7066/13712 cov=7907 mhr=975 pht=3914
evict unbounded dsmc         4017/5232 cov=4094 mhr=310 pht=583
evict unbounded moldyn       3878/7028 cov=4199 mhr=447 pht=1994
evict unbounded unstructured 3116/4078 cov=3230 mhr=140 pht=594
evict 512       appbt        5594/7592 cov=5729 mhr=380 pht=1179
evict 512       barnes       7066/13712 cov=7907 mhr=975 pht=3914
evict 512       dsmc         4017/5232 cov=4094 mhr=310 pht=583
evict 512       moldyn       3878/7028 cov=4199 mhr=447 pht=1994
evict 512       unstructured 3116/4078 cov=3230 mhr=140 pht=594
evict 128       appbt        5594/7592 cov=5729 mhr=380 pht=1179
evict 128       barnes       7066/13712 cov=7907 mhr=975 pht=3914
evict 128       dsmc         4017/5232 cov=4094 mhr=310 pht=583
evict 128       moldyn       3878/7028 cov=4199 mhr=447 pht=1994
evict 128       unstructured 3116/4078 cov=3230 mhr=140 pht=594
evict 32        appbt        3761/7592 cov=3810 mhr=304 pht=698
evict 32        barnes       2357/13712 cov=2372 mhr=512 pht=593
evict 32        dsmc         2037/5232 cov=2037 mhr=244 pht=270
evict 32        moldyn       2206/7028 cov=2238 mhr=410 pht=1025
evict 32        unstructured 3116/4078 cov=3230 mhr=140 pht=594
evict 8         appbt        22/7592 cov=22 mhr=138 pht=9
evict 8         barnes       1/13712 cov=1 mhr=128 pht=11
evict 8         dsmc         2012/5232 cov=2012 mhr=128 pht=161
evict 8         moldyn       65/7028 cov=65 mhr=128 pht=81
evict 8         unstructured 1560/4078 cov=1563 mhr=110 pht=201
";

/// Replays every trace through `factory` and appends one pinned line per
/// app under `label`.
fn pin(
    out: &mut String,
    set: &TraceSet,
    label: &str,
    factory: &dyn Fn() -> Box<dyn MessagePredictor>,
) {
    for t in set.traces() {
        let r = evaluate(t, &EvalOptions::default(), |_, _| factory());
        let _ = writeln!(
            out,
            "{label:<15} {:<12} {}/{} cov={} mhr={} pht={}",
            t.meta().app,
            r.overall.hits,
            r.overall.total,
            r.coverage.hits,
            r.memory.mhr_entries,
            r.memory.pht_entries
        );
    }
}

#[test]
fn reports_name_the_pinned_columns_in_order() {
    let set = TraceSet::generate(Scale::Small);
    let variants = extras::variants(&set);
    let header = variants.lines().nth(3).expect("variants column header");
    let names: Vec<&str> = header.split('|').skip(1).map(str::trim).collect();
    let expected: Vec<&str> = VARIANTS.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, expected, "extras::variants changed its contenders");

    let persistence = extras::history_persistence(&set);
    let header = persistence.lines().nth(2).expect("persistence header");
    let caps: Vec<&str> = header.split_whitespace().skip(1).collect();
    let expected: Vec<String> = CAPACITIES
        .iter()
        .map(|&c| {
            if c == usize::MAX {
                "unbounded".to_string()
            } else {
                c.to_string()
            }
        })
        .collect();
    assert_eq!(
        caps, expected,
        "extras::history_persistence changed its capacities"
    );
}

#[test]
fn variant_and_persistence_integers_match_the_golden() {
    let set = TraceSet::generate(Scale::Small);
    let mut out = String::new();
    for (name, factory) in VARIANTS {
        pin(&mut out, &set, name, &factory);
    }
    for cap in CAPACITIES {
        if cap == usize::MAX {
            pin(&mut out, &set, "evict unbounded", &|| {
                Box::new(CosmosPredictor::new(2, 0))
            });
        } else {
            pin(&mut out, &set, &format!("evict {cap}"), &move || {
                Box::new(EvictingCosmos::new(2, 0, cap))
            });
        }
    }
    assert_eq!(out, GOLDEN, "variant/persistence integers drifted");
}
