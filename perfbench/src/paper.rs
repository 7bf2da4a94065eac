//! The two workloads over the five paper apps: `paper-suite` (serialized
//! engine, then the Table 5/6 Cosmos grid over each trace) and
//! `spec-faulted` (concurrent engine with acted-on speculation under the
//! fault plan of `repro faults`).

use crate::bench::{Cx, Outputs, Pass, Size, Workload};
use crate::timed::{PredictorSites, Site, TimedPolicy, TimedPredictor};
use accel::SpeculatePolicy;
use cosmos::eval::{evaluate, evaluate_cosmos};
use cosmos::{CosmosPredictor, EvalOptions, MessagePredictor};
use simx::{
    driver, ConcurrentMachine, FaultPlan, Machine, SimError, SpeculationPolicy, SystemConfig,
};
use stache::ProtocolConfig;
use workloads::{Appbt, Barnes, Dsmc, Moldyn, Unstructured, Workload as App};

/// The Table 5/6 grid: MHR depths 1–4 × filter maxima 0–2.
const DEPTHS: [usize; 4] = [1, 2, 3, 4];
const FILTERS: [u8; 3] = [0, 1, 2];

/// The fault plan `repro faults` uses by default.
const FAULT_SPEC: &str = "drop=0.01,dup=0.005,reorder=3";

/// MHR depth and confidence threshold of the speculating fleet.
const SPEC_DEPTH: usize = 2;
const SPEC_THRESHOLD: u8 = 2;

/// The five paper apps with their seeds moved by `seed` (seed 0 keeps
/// every app's own default seed). `Small` uses each app's reduced shape;
/// `iterations_div` shortens every app's run by that factor.
fn paper_apps(seed: u64, size: Size, iterations_div: u32) -> Vec<Box<dyn App>> {
    let shift = |s: u64| s.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let cut = |n: u32| (n / iterations_div).max(1);
    let small = size == Size::Small;
    let appbt = if small {
        Appbt::small()
    } else {
        Appbt::default()
    };
    let barnes = if small {
        Barnes::small()
    } else {
        Barnes::default()
    };
    let dsmc = if small {
        Dsmc::small()
    } else {
        Dsmc::default()
    };
    let moldyn = if small {
        Moldyn::small()
    } else {
        Moldyn::default()
    };
    let unstructured = if small {
        Unstructured::small()
    } else {
        Unstructured::default()
    };
    vec![
        Box::new(Appbt {
            seed: shift(appbt.seed),
            iterations: cut(appbt.iterations),
            ..appbt
        }),
        Box::new(Barnes {
            seed: shift(barnes.seed),
            iterations: cut(barnes.iterations),
            ..barnes
        }),
        Box::new(Dsmc {
            seed: shift(dsmc.seed),
            iterations: cut(dsmc.iterations),
            ..dsmc
        }),
        Box::new(Moldyn {
            seed: shift(moldyn.seed),
            iterations: cut(moldyn.iterations),
            ..moldyn
        }),
        Box::new(Unstructured {
            seed: shift(unstructured.seed),
            iterations: cut(unstructured.iterations),
            ..unstructured
        }),
    ]
}

fn sim_err(e: SimError) -> String {
    e.to_string()
}

/// `paper-suite`: every app runs on the serialized `Machine`, and its
/// trace is scored by a Cosmos fleet at every grid point.
pub struct PaperSuite {
    /// Input seed.
    pub seed: u64,
    /// Input size.
    pub size: Size,
}

impl Workload for PaperSuite {
    type Inputs = Vec<(Box<dyn App>, Machine)>;

    fn setup(&self) -> Self::Inputs {
        paper_apps(self.seed, self.size, 1)
            .into_iter()
            .map(|w| {
                let mut m = Machine::new(ProtocolConfig::paper(), SystemConfig::paper());
                m.set_app(w.name(), w.iterations());
                (w, m)
            })
            .collect()
    }

    fn pass(&self, inputs: Self::Inputs, cx: &mut Cx, p: &mut Pass) {
        p.engine = "machine";
        let sites = PredictorSites::default();
        for (g, (mut w, mut m)) in inputs.into_iter().enumerate() {
            let app = w.name();
            let g = g as u32;
            let (ran, _) = cx.op("bench.app", g, |t| {
                for it in 0..w.iterations() {
                    let (plan, d) = t.span("workloads.plan", it, |_| w.plan(it));
                    p.plan_s += d.as_secs_f64();
                    let (r, d) = t.span("simx.run_plan", it, |_| {
                        driver::run_iteration(&mut m, &plan, it)
                    });
                    p.engine_call(d);
                    r.map_err(sim_err)?;
                }
                let s = m.stats();
                let outs: Outputs = vec![
                    (format!("{app}.accesses"), s.accesses()),
                    (format!("{app}.msgs"), s.messages_total()),
                    (format!("{app}.records"), m.trace().len() as u64),
                    (format!("{app}.sim_exec_ns"), m.execution_time_ns()),
                ];
                Ok((
                    (s.accesses(), s.messages_total(), m.execution_time_ns()),
                    outs,
                ))
            });
            let Some((accesses, msgs, exec_ns)) = ran else {
                continue;
            };
            p.accesses += accesses;
            p.msgs += msgs;
            p.sim_exec_ns += exec_ns;

            let (_, d) = cx.op("simx.verify", g, |_| {
                m.verify_coherence().map_err(sim_err)?;
                Ok(((), Vec::new()))
            });
            p.verify_s += d.as_secs_f64();

            let bundle = m.into_trace();
            let traced = cx.traced();
            for depth in DEPTHS {
                for filter in FILTERS {
                    let (report, d) = cx.op("cosmos.evaluate", g, |_| {
                        let report = if traced {
                            evaluate(&bundle, &EvalOptions::default(), |_, _| {
                                Box::new(TimedPredictor::new(
                                    CosmosPredictor::new(depth, filter),
                                    &sites,
                                )) as Box<dyn MessagePredictor>
                            })
                        } else {
                            evaluate_cosmos(&bundle, depth, filter)
                        };
                        let key = format!("{app}.d{depth}f{filter}");
                        let outs = vec![
                            (format!("{key}.hits"), report.overall.hits),
                            (format!("{key}.scored"), report.overall.total),
                        ];
                        Ok((report, outs))
                    });
                    p.replay_s += d.as_secs_f64();
                    if let Some(r) = report {
                        p.replayed += r.overall.total;
                        p.hits += r.overall.hits;
                        p.pht_probes += r.core.pht_probes;
                        p.table_bytes += r.core.table_capacity_bytes;
                    }
                }
            }
        }
        p.predict = sites.predict.tally();
        p.observe = sites.observe.tally();
    }
}

/// `spec-faulted`: every app runs on the `ConcurrentMachine` with the
/// speculation policy acting on its predictions, under the seeded fault
/// plan, and ends with a coherence audit.
pub struct SpecFaulted {
    /// Input seed: moves the app seeds and seeds the fault schedule.
    pub seed: u64,
    /// Input size.
    pub size: Size,
}

/// Full-size `spec-faulted` runs every app for this fraction of its
/// paper iterations: a whole paper-length pass takes about 12 s on the
/// concurrent engine under faults, too long to repeat within one run.
const SPEC_ITERATIONS_DIV: u32 = 4;

impl Workload for SpecFaulted {
    type Inputs = Vec<(Box<dyn App>, ConcurrentMachine)>;

    fn setup(&self) -> Self::Inputs {
        let plan = FaultPlan::parse(FAULT_SPEC)
            .expect("the built-in fault spec parses")
            .with_seed(self.seed);
        let div = if self.size == Size::Full {
            SPEC_ITERATIONS_DIV
        } else {
            1
        };
        paper_apps(self.seed, self.size, div)
            .into_iter()
            .map(|w| {
                let mut m = ConcurrentMachine::new(ProtocolConfig::paper(), SystemConfig::paper());
                m.set_app(w.name(), w.iterations());
                m.set_fault_plan(plan.clone());
                (w, m)
            })
            .collect()
    }

    fn pass(&self, inputs: Self::Inputs, cx: &mut Cx, p: &mut Pass) {
        p.engine = "concurrent";
        let hooks = Site::default();
        for (g, (mut w, mut m)) in inputs.into_iter().enumerate() {
            let app = w.name();
            let g = g as u32;
            let policy = SpeculatePolicy::new(SPEC_DEPTH, Some(SPEC_THRESHOLD));
            let policy: Box<dyn SpeculationPolicy> = if cx.traced() {
                Box::new(TimedPolicy::new(policy, &hooks))
            } else {
                Box::new(policy)
            };
            m.set_policy(policy);
            let mut engine_s = 0.0;
            let (ran, _) = cx.op("bench.app", g, |t| {
                for it in 0..w.iterations() {
                    let (plan, d) = t.span("workloads.plan", it, |_| w.plan(it));
                    p.plan_s += d.as_secs_f64();
                    let (r, d) = t.span("simx.run_plan", it, |_| m.run_plan(&plan, it));
                    p.engine_call(d);
                    engine_s += d.as_secs_f64();
                    r.map_err(sim_err)?;
                }
                let s = m.stats();
                let rb = m.rollback_tally();
                let rec = m.recovery_tally();
                let outs: Outputs = vec![
                    (format!("{app}.accesses"), s.accesses()),
                    (format!("{app}.msgs"), s.messages_total()),
                    (format!("{app}.records"), m.trace().len() as u64),
                    (format!("{app}.sim_exec_ns"), m.execution_time_ns()),
                    (format!("{app}.pushes"), rb.pushes),
                    (format!("{app}.confirmed"), rb.confirmed),
                    (format!("{app}.rolled_back"), rb.rolled_back),
                    (format!("{app}.early_acks"), rb.early_acks),
                    (format!("{app}.retries"), rec.retries),
                    (format!("{app}.naks_sent"), rec.naks_sent),
                    (format!("{app}.dups_absorbed"), rec.dups_absorbed),
                ];
                if rb.pushes != rb.confirmed + rb.rolled_back {
                    return Err(format!("{} pushes left unresolved", rb.pushes));
                }
                Ok(((), outs))
            });
            p.app_engine_s.push((app, engine_s));
            if ran.is_none() {
                continue;
            }
            let s = m.stats();
            p.accesses += s.accesses();
            p.msgs += s.messages_total();
            p.sim_exec_ns += m.execution_time_ns();
            let rb = m.rollback_tally();
            p.pushes += rb.pushes;
            p.confirmed += rb.confirmed;
            p.rolled_back += rb.rolled_back;
            let rec = m.recovery_tally();
            p.retries += rec.retries;
            p.naks_sent += rec.naks_sent;
            p.dups_absorbed += rec.dups_absorbed;

            let (_, d) = cx.op("simx.verify", g, |_| {
                m.verify_coherence().map_err(sim_err)?;
                Ok(((), Vec::new()))
            });
            p.verify_s += d.as_secs_f64();
        }
        p.hooks = hooks.tally();
    }
}
