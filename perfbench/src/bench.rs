//! The run loop shared by every workload: repeated set-up, timed passes,
//! operation accounting, output checks and the metrics derived from them.

use crate::spans::Tracer;
use crate::stats::{median, peak_rss_mb, quantile, ratio};
use crate::timed::CallTally;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The seed whose outputs are pinned by the committed reference values:
/// every paper app keeps its own default seed and the fault plan its
/// default schedule.
pub const DEFAULT_SEED: u64 = 0;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 51;

/// Input size: `Full` is the benchmark; `Small` is the self-test's
/// reduced shape of the same pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Reduced sizes that run in well under a second.
    Small,
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// How long the timed passes run.
    pub seconds: f64,
    /// The traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

/// Named output values of one pass, checked for equality across passes
/// and, at the default seed, against the committed reference.
pub type Outputs = Vec<(String, u64)>;

/// Raw measurements of one pass. Times are host seconds; fields of
/// stages a workload does not run stay 0.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall time of the whole pass.
    pub wall_s: f64,
    /// Which engine ran: `machine`, `concurrent` or `shard`.
    pub engine: &'static str,
    /// Time in engine calls (`run_plan`/`run_iteration`).
    pub engine_s: f64,
    /// Engine time per app, for the concurrent engine's per-app figures.
    pub app_engine_s: Vec<(&'static str, f64)>,
    /// Every engine call's time, in seconds.
    pub run_plan_s: Vec<f64>,
    /// Simulated accesses executed.
    pub accesses: u64,
    /// Coherence messages sent.
    pub msgs: u64,
    /// Simulated execution time, summed over apps, in ns.
    pub sim_exec_ns: u64,
    /// Time in `Workload::plan`.
    pub plan_s: f64,
    /// Sharded-engine synchronisation windows.
    pub windows: u64,
    /// Time in coherence audits.
    pub verify_s: f64,
    /// Time in `drain_trace_records`; every drained record is encoded.
    pub drain_s: f64,
    /// Recovery tallies.
    pub retries: u64,
    /// Directory NAKs sent.
    pub naks_sent: u64,
    /// Duplicate deliveries absorbed.
    pub dups_absorbed: u64,
    /// Speculative pushes sent.
    pub pushes: u64,
    /// Pushes the target accepted.
    pub confirmed: u64,
    /// Pushes rolled back.
    pub rolled_back: u64,
    /// Speculation hook calls (traced passes only).
    pub hooks: CallTally,
    /// Packed-trace encode time.
    pub encode_s: f64,
    /// Records drained and encoded.
    pub encoded: u64,
    /// Chunk decode time (raw read plus decode).
    pub decode_s: f64,
    /// Records decoded.
    pub decoded: u64,
    /// Packed bytes written.
    pub packed_bytes: u64,
    /// Bytes the flat codec would have used.
    pub flat_bytes: u64,
    /// Predictor replay time (`StreamEval`/`evaluate`).
    pub replay_s: f64,
    /// Records scored.
    pub replayed: u64,
    /// Correct predictions.
    pub hits: u64,
    /// PHT probes over the replays.
    pub pht_probes: u64,
    /// Predictor table capacity, summed over the replays' fleets.
    pub table_bytes: u64,
    /// Predictor calls (traced passes only).
    pub predict: CallTally,
    /// Predictor training calls (traced passes only).
    pub observe: CallTally,
    /// Self time per layer (traced passes only).
    pub self_s: BTreeMap<&'static str, f64>,
}

impl Pass {
    /// Adds one engine call's time.
    pub fn engine_call(&mut self, d: Duration) {
        self.engine_s += d.as_secs_f64();
        self.run_plan_s.push(d.as_secs_f64());
    }
}

/// A benchmark workload: inputs built by `setup`, consumed by `pass`.
pub trait Workload {
    /// Everything one pass needs, built before its timer starts.
    type Inputs;
    /// Builds one pass's inputs.
    fn setup(&self) -> Self::Inputs;
    /// Runs one pass, recording into `p`.
    fn pass(&self, inputs: Self::Inputs, cx: &mut Cx, p: &mut Pass);
}

/// Operation accounting, output checks and the tracer of one run.
pub struct Cx {
    /// Span recorder; recording is on only in traced passes.
    pub t: Tracer,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error, panicked or failed a check.
    pub failed: u64,
    reference: Option<BTreeMap<String, u64>>,
    seen: BTreeMap<String, u64>,
}

impl Cx {
    fn new(reference: Option<BTreeMap<String, u64>>) -> Self {
        Cx {
            t: Tracer::new(false),
            attempted: 0,
            failed: 0,
            reference,
            seen: BTreeMap::new(),
        }
    }

    /// Whether this pass is traced (and so uses the timing wrappers).
    pub fn traced(&self) -> bool {
        self.t.enabled()
    }

    /// Runs one operation inside a span. The operation fails if it
    /// returns an error, panics, or yields an output that differs from
    /// an earlier pass or from the reference. Returns its result (`None`
    /// on failure) and its wall time.
    pub fn op<R>(
        &mut self,
        name: &'static str,
        group: u32,
        f: impl FnOnce(&mut Tracer) -> Result<(R, Outputs), String>,
    ) -> (Option<R>, Duration) {
        self.attempted += 1;
        let depth = self.t.depth();
        let t = &mut self.t;
        let result = catch_unwind(AssertUnwindSafe(|| t.span(name, group, f)));
        let (outcome, d) = match result {
            Ok((r, d)) => (r, d),
            Err(panic) => {
                self.t.unwind_to(depth);
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                (Err(format!("panicked: {msg}")), Duration::ZERO)
            }
        };
        match outcome.and_then(|(r, outs)| self.check(&outs).map(|()| r)) {
            Ok(r) => (Some(r), d),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {name} (group {group}) failed: {e}");
                (None, d)
            }
        }
    }

    fn check(&mut self, outs: &Outputs) -> Result<(), String> {
        for (key, v) in outs {
            if let Some(&prev) = self.seen.get(key) {
                if prev != *v {
                    return Err(format!("{key} = {v}, but an earlier pass gave {prev}"));
                }
            }
            self.seen.insert(key.clone(), *v);
            if let Some(reference) = &self.reference {
                match reference.get(key) {
                    Some(want) if want == v => {}
                    Some(want) => return Err(format!("{key} = {v}, reference {want}")),
                    None => return Err(format!("{key} has no reference value")),
                }
            }
        }
        Ok(())
    }
}

/// Parses reference text: one `key value` pair per line.
pub fn parse_reference(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k.to_string(), v.trim().parse().ok()?))
        })
        .collect()
}

/// Renders reference text from output values.
pub fn render_reference(values: &BTreeMap<String, u64>) -> String {
    values.iter().map(|(k, v)| format!("{k} {v}\n")).collect()
}

/// A finished run: operation counts, metrics and spans.
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value, unit)` in emission order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Wall time of every pass, untraced and traced, in run order.
    pub pass_walls: (Vec<f64>, Vec<f64>),
    /// The span recorder (empty in untraced runs).
    pub tracer: Tracer,
    /// Every output value, for `--write-reference`.
    pub outputs: BTreeMap<String, u64>,
}

/// Runs `w`: times `SETUP_REPEATS` set-ups, then passes until
/// `cfg.seconds` have elapsed (at least one; in the traced run, untraced
/// and traced passes alternate and at least one of each runs).
pub fn run<W: Workload>(w: &W, cfg: &Config, reference: Option<BTreeMap<String, u64>>) -> Report {
    let setup: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            let inputs = std::hint::black_box(w.setup());
            let d = t0.elapsed().as_secs_f64();
            drop(inputs);
            d
        })
        .collect();

    let mut cx = Cx::new(reference);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    // Peak memory of a process that runs the workload once: later passes
    // reuse, and fragment, the heap the first one left behind.
    let mut first_pass_rss_mb = 0.0;
    let start = Instant::now();
    for i in 0u32.. {
        let tracing = cfg.trace && i % 2 == 1;
        cx.t.set_enabled(tracing);
        let inputs = w.setup();
        let mark = cx.t.mark();
        let mut p = Pass::default();
        let t0 = Instant::now();
        cx.t.begin("bench.pass", i);
        w.pass(inputs, &mut cx, &mut p);
        cx.t.end();
        p.wall_s = t0.elapsed().as_secs_f64();
        if i == 0 {
            first_pass_rss_mb = peak_rss_mb();
        }
        if tracing {
            p.self_s = cx.t.self_times(mark);
            traced.push(p);
        } else {
            plain.push(p);
        }
        let enough = !cfg.trace || !traced.is_empty();
        if enough && start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    cx.t.set_enabled(false);

    let metrics = if cfg.trace {
        per_layer(&plain, &traced, &cx)
    } else {
        end_to_end(&setup, &plain, first_pass_rss_mb)
    };
    Report {
        attempted: cx.attempted,
        failed: cx.failed,
        metrics,
        pass_walls: (
            plain.iter().map(|p| p.wall_s).collect(),
            traced.iter().map(|p| p.wall_s).collect(),
        ),
        outputs: cx.seen,
        tracer: cx.t,
    }
}

fn med(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end metrics, from untraced passes only.
fn end_to_end(setup: &[f64], plain: &[Pass], rss_mb: f64) -> Vec<(String, f64, &'static str)> {
    vec![
        ("setup_s".into(), median(setup), "s"),
        ("wall_s".into(), med(plain, |p| p.wall_s), "s"),
        // Per second of the whole pass, not of engine calls alone: on a
        // shared host the engine's share alone spread twice as wide between
        // runs. The engine's own cost is `simx.<engine>.ns_per_access`.
        (
            "sim_accesses_per_s".into(),
            med(plain, |p| ratio(p.accesses as f64, p.wall_s)),
            "1/s",
        ),
        ("peak_rss_mb".into(), rss_mb, "MB"),
        (
            "sim_exec_ms".into(),
            med(plain, |p| p.sim_exec_ns as f64 / 1e6),
            "ms",
        ),
    ]
}

/// Apps whose concurrent-engine time is reported one by one.
pub const PAPER_APPS: [&str; 5] = ["appbt", "barnes", "dsmc", "moldyn", "unstructured"];

/// Layers whose self time is reported; `bench` is the remainder.
const LAYERS: [&str; 6] = ["workloads", "simx", "accel", "trace", "cosmos", "bench"];

/// The per-layer metrics, from traced passes; the tracing overhead
/// compares them with the untraced passes of the same run.
fn per_layer(plain: &[Pass], traced: &[Pass], cx: &Cx) -> Vec<(String, f64, &'static str)> {
    let last = traced.last().cloned().unwrap_or_default();
    let m = |f: &dyn Fn(&Pass) -> f64| med(traced, f);
    let engine_ns = |engine: &'static str| {
        m(&|p| {
            if p.engine == engine {
                ratio(p.engine_s * 1e9, p.accesses as f64)
            } else {
                0.0
            }
        })
    };
    let run_plan: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.run_plan_s.iter().copied())
        .collect();
    let predictor_s = |p: &Pass| p.predict.estimated_s() + p.observe.estimated_s();

    let mut out: Vec<(String, f64, &'static str)> = vec![
        (
            "workloads.plan_ns_per_access".into(),
            m(&|p| ratio(p.plan_s * 1e9, p.accesses as f64)),
            "ns",
        ),
        (
            "simx.machine.ns_per_access".into(),
            engine_ns("machine"),
            "ns",
        ),
        (
            "simx.concurrent.ns_per_access".into(),
            engine_ns("concurrent"),
            "ns",
        ),
    ];
    for app in PAPER_APPS {
        let v = m(&|p| {
            if p.engine != "concurrent" {
                return 0.0;
            }
            p.app_engine_s
                .iter()
                .filter(|(a, _)| *a == app)
                .map(|(_, s)| s)
                .sum()
        });
        out.push((format!("simx.concurrent.{app}_s"), v, "s"));
    }
    out.extend([
        ("simx.shard.ns_per_access".into(), engine_ns("shard"), "ns"),
        ("simx.shard.windows".into(), last.windows as f64, "count"),
        (
            "simx.shard.ns_per_window".into(),
            m(&|p| ratio(p.engine_s * 1e9, p.windows as f64)),
            "ns",
        ),
        (
            "simx.run_plan_ms_p50".into(),
            quantile(&run_plan, 0.5) * 1e3,
            "ms",
        ),
        (
            "simx.run_plan_ms_p99".into(),
            quantile(&run_plan, 0.99) * 1e3,
            "ms",
        ),
        ("simx.verify_s".into(), m(&|p| p.verify_s), "s"),
        (
            "simx.drain_ns_per_record".into(),
            m(&|p| ratio(p.drain_s * 1e9, p.encoded as f64)),
            "ns",
        ),
        ("simx.accesses".into(), last.accesses as f64, "count"),
        ("simx.msgs".into(), last.msgs as f64, "count"),
        (
            "simx.msgs_per_access".into(),
            ratio(last.msgs as f64, last.accesses as f64),
            "ratio",
        ),
        ("stache.retries".into(), last.retries as f64, "count"),
        ("stache.naks_sent".into(), last.naks_sent as f64, "count"),
        (
            "stache.dups_absorbed".into(),
            last.dups_absorbed as f64,
            "count",
        ),
        ("accel.hook_calls".into(), last.hooks.calls as f64, "count"),
        (
            "accel.hook_ns_per_call".into(),
            m(&|p| p.hooks.mean_ns()),
            "ns",
        ),
        ("accel.pushes".into(), last.pushes as f64, "count"),
        ("accel.rolled_back".into(), last.rolled_back as f64, "count"),
        (
            "accel.push_useful_ratio".into(),
            ratio(last.confirmed as f64, last.pushes as f64),
            "ratio",
        ),
        (
            "trace.encode_ns_per_record".into(),
            m(&|p| ratio(p.encode_s * 1e9, p.encoded as f64)),
            "ns",
        ),
        (
            "trace.decode_ns_per_record".into(),
            m(&|p| ratio(p.decode_s * 1e9, p.decoded as f64)),
            "ns",
        ),
        (
            "trace.pack_ratio".into(),
            ratio(last.flat_bytes as f64, last.packed_bytes as f64),
            "ratio",
        ),
        (
            "trace.packed_bytes".into(),
            last.packed_bytes as f64,
            "bytes",
        ),
        (
            "cosmos.predict_ns".into(),
            m(&|p| p.predict.mean_ns()),
            "ns",
        ),
        (
            "cosmos.observe_ns".into(),
            m(&|p| p.observe.mean_ns()),
            "ns",
        ),
        (
            "cosmos.eval_self_ns_per_record".into(),
            m(&|p| {
                ratio(
                    (p.replay_s - predictor_s(p)).max(0.0) * 1e9,
                    p.replayed as f64,
                )
            }),
            "ns",
        ),
        (
            "cosmos.pht_probes_per_record".into(),
            ratio(last.pht_probes as f64, last.replayed as f64),
            "ratio",
        ),
        (
            "cosmos.table_bytes".into(),
            last.table_bytes as f64,
            "bytes",
        ),
        (
            "cosmos.replay_records_per_s".into(),
            m(&|p| ratio(p.replayed as f64, p.replay_s)),
            "1/s",
        ),
        (
            "cosmos.accuracy_pct".into(),
            100.0 * ratio(last.hits as f64, last.replayed as f64),
            "%",
        ),
    ]);

    // Self time per layer. Speculation hooks run inside the engine's
    // `run_plan` spans, so their estimated time moves from simx to accel.
    let self_of = |p: &Pass, layer: &str| -> f64 {
        let s = p.self_s.get(layer).copied().unwrap_or(0.0);
        let hooks = p.hooks.estimated_s();
        match layer {
            "simx" => (s - hooks).max(0.0),
            "accel" => s + hooks,
            _ => s,
        }
    };
    for layer in LAYERS {
        let name = if layer == "bench" {
            "bench.unattributed_s".to_string()
        } else {
            format!("{layer}.self_s")
        };
        out.push((name, m(&|p| self_of(p, layer)), "s"));
    }
    let traced_wall = m(&|p| p.wall_s);
    out.extend([
        ("bench.traced_wall_s".into(), traced_wall, "s"),
        (
            "bench.trace_overhead_s".into(),
            traced_wall - med(plain, |p| p.wall_s),
            "s",
        ),
        (
            "bench.failed_ops_pct".into(),
            100.0 * ratio(cx.failed as f64, cx.attempted as f64),
            "%",
        ),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_text_round_trips() {
        let mut v = BTreeMap::new();
        v.insert("appbt.records".to_string(), 12u64);
        v.insert("appbt.d1f0.hits".to_string(), 7u64);
        assert_eq!(parse_reference(&render_reference(&v)), v);
    }

    #[test]
    fn ops_fail_on_error_panic_and_mismatch() {
        let mut reference = BTreeMap::new();
        reference.insert("x".to_string(), 1u64);
        let mut cx = Cx::new(Some(reference));
        assert!(cx
            .op("simx.run", 0, |_| Ok(((), vec![("x".into(), 1)])))
            .0
            .is_some());
        assert!(cx
            .op("simx.run", 0, |_| Ok(((), vec![("x".into(), 2)])))
            .0
            .is_none());
        assert!(cx
            .op("simx.run", 0, |_| Err::<((), Outputs), _>("boom".into()))
            .0
            .is_none());
        assert!(cx
            .op("simx.run", 0, |_| -> Result<((), Outputs), String> {
                panic!("boom")
            })
            .0
            .is_none());
        assert!(cx
            .op("simx.run", 0, |_| Ok(((), vec![("y".into(), 1)])))
            .0
            .is_none());
        assert_eq!((cx.attempted, cx.failed), (5, 4));
    }
}
