//! The `stream` workload: the closed-form `Scale` generator on the
//! sharded engine, streamed through packed encode, chunk decode and a
//! bounded-memory Cosmos replay.
//!
//! `Scale` has no seed: its access stream is a function of its shape.
//! The benchmark's seed therefore picks the run length within a narrow
//! band (`iterations = base + seed % band`), so every seed still gives
//! distinct inputs whose outputs the analytic checks cover.

use crate::bench::{Cx, Outputs, Pass, Size, Workload};
use crate::timed::{PredictorSites, TimedPredictor};
use cosmos::{EvictingCosmos, MessagePredictor, StreamEval};
use simx::{ShardedMachine, SystemConfig};
use std::io::Cursor;
use trace::pack::{PackedTraceReader, PackedTraceWriter};
use trace::{MsgRecord, TraceMeta};
use workloads::{Scale, Workload as App};

/// Records per packed chunk.
const CHUNK_RECORDS: u32 = 16_384;

/// Blocks sampled by the end-of-run coherence audit.
const AUDIT_SAMPLE: usize = 4096;

/// Shards the engine runs on: one, the stream cell's shape. Two-shard
/// pass times on a two-core host shared with other machines ranged over
/// 3× between runs, wider than any bound a regression gate could use.
pub const SHARDS: usize = 1;

/// Depth, filter and per-agent MHT capacity of the replay fleet.
const REPLAY_DEPTH: usize = 2;
const REPLAY_FILTER: u8 = 0;
const REPLAY_CAPACITY: usize = 8192;

/// Order-sensitive digest of a record stream, to check that decoding
/// returns exactly the records that were encoded.
fn digest(h: u64, r: &MsgRecord) -> u64 {
    [
        r.time_ns,
        r.node.index() as u64,
        r.role as u64,
        r.block.number(),
        r.sender.index() as u64,
        r.mtype as u64,
        u64::from(r.iteration),
    ]
    .iter()
    .fold(h, |h, &x| {
        (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

/// `stream`: 512 nodes, no private writes; every iteration's records are
/// drained and packed, then decoded chunk by chunk into a bounded
/// `EvictingCosmos` replay.
pub struct Stream {
    /// Input seed (picks the run length).
    pub seed: u64,
    /// Input size.
    pub size: Size,
}

/// What one `stream` pass is handed before its timer starts.
pub struct StreamInputs {
    w: Scale,
    m: ShardedMachine,
    writer: PackedTraceWriter<Cursor<Vec<u8>>>,
}

impl Workload for Stream {
    type Inputs = StreamInputs;

    fn setup(&self) -> StreamInputs {
        // (nodes, base iterations, band)
        let (nodes, base, band) = match self.size {
            Size::Full => (512, 640, 8),
            Size::Small => (64, 40, 2),
        };
        let w = Scale::new(nodes, 0, base + (self.seed % band) as u32);
        let mut m = ShardedMachine::new(w.proto(), SystemConfig::paper(), SHARDS);
        m.set_ring_enabled(false);
        m.set_audit_barriers(false);
        m.set_app(w.name(), w.iterations());
        let meta = TraceMeta::new(w.name(), w.nodes(), w.iterations());
        let writer = PackedTraceWriter::new(Cursor::new(Vec::new()), &meta, CHUNK_RECORDS)
            .expect("a packed writer over memory cannot fail");
        StreamInputs { w, m, writer }
    }

    fn pass(&self, inputs: StreamInputs, cx: &mut Cx, p: &mut Pass) {
        p.engine = "shard";
        let StreamInputs {
            mut w,
            mut m,
            mut writer,
        } = inputs;
        let iterations = w.iterations();
        let nodes = w.nodes() as u64;

        // Simulate, draining and packing every iteration's records.
        let (encoded, _) = cx.op("bench.app", 0, |t| {
            let mut digest_in = 0u64;
            for it in 0..iterations {
                let (plan, d) = t.span("workloads.plan", it, |_| w.plan(it));
                p.plan_s += d.as_secs_f64();
                let (r, d) = t.span("simx.run_plan", it, |_| m.run_plan(&plan, it));
                p.engine_call(d);
                r.map_err(|e| e.to_string())?;
                let (records, d) = t.span("simx.drain", it, |_| m.drain_trace_records());
                p.drain_s += d.as_secs_f64();
                digest_in = records.iter().fold(digest_in, digest);
                let (r, d) = t.span("trace.encode", it, |_| writer.push_all(&records));
                p.encode_s += d.as_secs_f64();
                p.encoded += records.len() as u64;
                r.map_err(|e| e.to_string())?;
            }
            let (r, d) = t.span("trace.finish", iterations, |_| writer.finish());
            p.encode_s += d.as_secs_f64();
            let (cursor, stats) = r.map_err(|e| e.to_string())?;
            let want = nodes * 2 * u64::from(iterations);
            if stats.records != want {
                return Err(format!("{} records, analytic {want}", stats.records));
            }
            let s = m.stats();
            let outs: Outputs = vec![
                ("accesses".into(), s.accesses()),
                ("msgs".into(), s.messages_total()),
                ("records".into(), stats.records),
                ("packed_bytes".into(), stats.packed_bytes),
                ("windows".into(), m.windows()),
                ("sim_exec_ns".into(), m.execution_time_ns()),
            ];
            Ok(((cursor.into_inner(), stats, digest_in), outs))
        });
        let s = m.stats();
        p.accesses = s.accesses();
        p.msgs = s.messages_total();
        p.windows = m.windows();
        p.sim_exec_ns = m.execution_time_ns();

        let (_, d) = cx.op("simx.verify", 0, |_| {
            m.verify_coherence_sampled(AUDIT_SAMPLE)
                .map_err(|e| e.to_string())?;
            Ok(((), Vec::new()))
        });
        p.verify_s = d.as_secs_f64();
        // The replay side never holds the machine: peak memory is the
        // larger of the two halves, as in a streamed run.
        drop(m);

        let Some((bytes, stats, digest_in)) = encoded else {
            return;
        };
        p.packed_bytes = stats.packed_bytes;
        p.flat_bytes = stats.flat_bytes;

        // Decode chunk by chunk, feeding each chunk to the fleet.
        let (reader, d) = cx.op("trace.open", 0, |_| {
            let r = PackedTraceReader::new(Cursor::new(bytes)).map_err(|e| e.to_string())?;
            Ok((r, Vec::new()))
        });
        p.decode_s += d.as_secs_f64();
        let Some(mut reader) = reader else {
            return;
        };
        let sites = PredictorSites::default();
        let traced = cx.traced();
        let mut eval = StreamEval::new(Default::default(), |_, _| {
            let inner = EvictingCosmos::new(REPLAY_DEPTH, REPLAY_FILTER, REPLAY_CAPACITY);
            if traced {
                Box::new(TimedPredictor::new(inner, &sites)) as Box<dyn MessagePredictor>
            } else {
                Box::new(inner)
            }
        });
        let mut digest_out = 0u64;
        for i in 0..reader.chunk_count() {
            let (chunk, d) = cx.op("trace.decode", i as u32, |_| {
                let raw = reader.read_chunk_raw(i).map_err(|e| e.to_string())?;
                let records = raw.decode().map_err(|e| e.to_string())?;
                Ok((records, Vec::new()))
            });
            p.decode_s += d.as_secs_f64();
            let Some(records) = chunk else {
                continue;
            };
            p.decoded += records.len() as u64;
            digest_out = records.iter().fold(digest_out, digest);
            let (_, d) =
                cx.t.span("cosmos.push_all", i as u32, |_| eval.push_all(&records));
            p.replay_s += d.as_secs_f64();
        }
        let (report, d) = cx.op("cosmos.finish", 0, |_| {
            let report = eval.finish();
            if p.decoded != stats.records || digest_out != digest_in {
                return Err(format!(
                    "decoded {} records (digest {digest_out:x}), encoded {} (digest {digest_in:x})",
                    p.decoded, stats.records
                ));
            }
            let outs = vec![
                ("replay.hits".into(), report.overall.hits),
                ("replay.scored".into(), report.overall.total),
            ];
            Ok((report, outs))
        });
        p.replay_s += d.as_secs_f64();
        if let Some(r) = report {
            p.replayed = r.overall.total;
            p.hits = r.overall.hits;
            p.pht_probes = r.core.pht_probes;
            p.table_bytes = r.core.table_capacity_bytes;
        }
        p.predict = sites.predict.tally();
        p.observe = sites.observe.tally();
    }
}
