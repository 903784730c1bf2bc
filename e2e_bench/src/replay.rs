//! The traced layer replay. The pipeline's internal stages cannot be
//! timed from outside, so a traced run replays the workload's log
//! single-threaded through the same public calls the pipeline makes —
//! read → parse → UDF (fresh `ExecContext` per batch, as the computing
//! job builds per invocation) → upsert — with a span around each call,
//! then runs each query both in-process and over TCP.

use std::collections::{BTreeMap, HashSet};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use idea_adm::Value;
use idea_core::{IngestionEngine, LogConnector, SourceConnector};
use idea_query::{apply_function, ExecContext, PlanCache};
use idea_serve::Client;
use idea_storage::PartitionedDataset;

use crate::env::{self, s, BATCH, NODES, UDF};
use crate::queries::{field, QuerySet, KINDS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Outcome, Res};

/// Layer spans; every other span (`replay`, `batch`) is loop overhead
/// and counts as unattributed.
const LAYERS: [&str; 5] =
    ["connect.read", "adm.parse", "query.state_build", "query.udf_eval", "storage.upsert"];

struct Replay {
    records: u64,
    batches: u64,
    wall_s: f64,
    tracer: Tracer,
}

/// Replays the log at `log_dir` into a fresh dataset `target`.
fn replay_once(engine: &IngestionEngine, log_dir: &Path, target: &str, on: bool) -> Res<Replay> {
    let ds = env::create_target(engine, target)?;
    let plan_cache = PlanCache::new();
    let mut conns = (0..NODES)
        .map(|p| {
            let mut c = LogConnector::new(log_dir, p);
            c.open().map_err(s)?;
            Ok(c)
        })
        .collect::<Res<Vec<_>>>()?;
    let mut done = [false; NODES];
    // A live log may write a key more than once.
    let mut keys = HashSet::new();
    let mut t = Tracer::new(on);
    let (mut records, mut batches) = (0u64, 0u64);
    let start = Instant::now();
    t.enter("replay");
    while done.iter().any(|d| !d) {
        for p in 0..NODES {
            if done[p] {
                continue;
            }
            t.enter("batch");
            t.enter("connect.read");
            let batch = conns[p].read_batch(BATCH).map_err(s)?;
            t.exit();
            // The log is sealed, so an empty read is its end.
            done[p] = batch.eof || batch.records.is_empty();
            if !batch.records.is_empty() {
                batches += 1;
                let mut ctx =
                    ExecContext::with_plan_cache(engine.catalog().clone(), plan_cache.clone());
                for (i, rec) in batch.records.iter().enumerate() {
                    t.enter("adm.parse");
                    let tweet = idea_adm::json::parse(rec.payload.as_bytes()).map_err(s)?;
                    t.exit();
                    keys.insert(field(&tweet, "id").and_then(Value::as_int));
                    t.enter(if i == 0 { "query.state_build" } else { "query.udf_eval" });
                    let enriched = apply_function(&mut ctx, UDF, &[tweet]).map_err(s)?;
                    t.exit();
                    let rows = match enriched {
                        Value::Array(items) => items,
                        other => vec![other],
                    };
                    for row in rows {
                        t.enter("storage.upsert");
                        ds.upsert(row).map_err(s)?;
                        t.exit();
                    }
                }
                records += batch.records.len() as u64;
            }
            t.exit();
        }
    }
    t.exit();
    let wall_s = start.elapsed().as_secs_f64();
    if ds.len() != keys.len() {
        return Err(format!("replay stored {} of {} keys", ds.len(), keys.len()));
    }
    env::drop_target(engine, target)?;
    Ok(Replay { records, batches, wall_s, tracer: t })
}

/// Replays `log_dir` once to warm caches, then four times — untraced,
/// traced, traced, untraced, so slow drift cancels out of the
/// comparison — and sets the replay's
/// per-layer metrics: self time per record (per batch for the state
/// build), the unattributed share of wall time, the single-threaded
/// rate and the tracing overhead.
pub fn layers(
    engine: &IngestionEngine,
    log_dir: &Path,
    span_file: Option<&Path>,
    out: &mut Outcome,
) -> Res<()> {
    replay_once(engine, log_dir, "Replay_warm", false)?;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    for (i, on) in [false, true, true, false].into_iter().enumerate() {
        let run = replay_once(engine, log_dir, &format!("Replay_{i}"), on)?;
        if on {
            traced.push(run)
        } else {
            plain.push(run)
        }
    }
    let wall = |runs: &[Replay]| runs.iter().map(|r| r.wall_s).sum::<f64>();
    let count = |runs: &[Replay], f: fn(&Replay) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let mut st: BTreeMap<&str, u64> = BTreeMap::new();
    for r in &traced {
        for (name, (ns, _)) in r.tracer.self_times() {
            *st.entry(name).or_insert(0) += ns;
        }
    }
    let self_ns = |name: &str| st.get(name).copied().unwrap_or(0) as f64;
    let recs = count(&traced, |r| r.records);
    let batches = count(&traced, |r| r.batches);
    let us_per_rec = |name: &str| self_ns(name) / 1e3 / recs;
    out.set("connect.read_us_per_rec", us_per_rec("connect.read"));
    out.set("adm.parse_us_per_rec", us_per_rec("adm.parse"));
    out.set("query.state_build_ms_per_batch", self_ns("query.state_build") / 1e6 / batches);
    out.set("query.udf_eval_us_per_rec", self_ns("query.udf_eval") / 1e3 / (recs - batches));
    out.set("storage.upsert_us_per_rec", us_per_rec("storage.upsert"));
    let attributed: f64 = LAYERS.iter().map(|l| self_ns(l)).sum();
    out.set("core.unattributed_frac", 1.0 - attributed / (wall(&traced) * 1e9));
    out.set("core.replay_rps", count(&plain, |r| r.records) / wall(&plain));
    out.set("trace.overhead_frac", wall(&traced) / wall(&plain) - 1.0);
    out.info("replay_records", traced[0].records);
    if let Some(path) = span_file {
        traced[0].tracer.write_csv(path).map_err(s)?;
        out.info("span_file", Value::str(path.to_string_lossy()));
    }
    Ok(())
}

/// Runs each query kind `REPEATS` times in-process and over TCP (every
/// result checked), then times point gets and a full scan of the
/// query dataset. Sets `query.exec_ms.*`, `serve.self_ms.*` (served p50
/// minus in-process p50) and the storage read metrics.
pub fn query_layers(
    engine: &IngestionEngine,
    addr: SocketAddr,
    qs: &QuerySet,
    ds: &Arc<PartitionedDataset>,
    out: &mut Outcome,
) -> Res<()> {
    const REPEATS: u64 = 7;
    let cache = |ds: &PartitionedDataset| {
        ds.partitions()
            .iter()
            .filter_map(|p| p.cache_stats())
            .fold((0, 0), |(h, m), c| (h + c.hits, m + c.misses))
    };
    let cache_before = cache(ds);
    let session = env::session(engine);
    let mut client = Client::connect(addr, "bench").map_err(s)?;
    for kind in KINDS {
        let mut local = Vec::new();
        let mut served = Vec::new();
        for k in 0..REPEATS {
            local.push(qs.run(kind, k, |text, fold| {
                let v = session.query(text).map_err(s)?;
                v.as_array().ok_or("query result is not an array")?.iter().for_each(fold);
                Ok(())
            })?);
            served.push(qs.run(kind, k, |text, fold| {
                client
                    .query_streamed(text, |batch| batch.iter().for_each(&mut *fold))
                    .map(|_| ())
                    .map_err(s)
            })?);
        }
        out.count(2 * REPEATS, 0);
        let (exec, serve) = match kind.name() {
            "scan" => ("query.exec_ms.scan", "serve.self_ms.scan"),
            "groupby" => ("query.exec_ms.groupby", "serve.self_ms.groupby"),
            "point" => ("query.exec_ms.point", "serve.self_ms.point"),
            _ => ("query.exec_ms.export", "serve.self_ms.export"),
        };
        out.set(exec, median(&local));
        out.set(serve, median(&served) - median(&local));
    }

    const GETS: u64 = 2_000;
    let t = Instant::now();
    for k in 0..GETS {
        let id = (k * 7_919 % qs.base()) as i64;
        if ds.get(&Value::Int(id)).map_err(s)?.is_none() {
            return Err(format!("point get of id {id} found nothing"));
        }
    }
    out.set("storage.get_us", t.elapsed().as_secs_f64() * 1e6 / GETS as f64);
    let t = Instant::now();
    let rows: usize = ds.snapshot_all().iter().map(|snap| snap.iter().count()).sum();
    out.set("storage.scan_us_per_rec", t.elapsed().as_secs_f64() * 1e6 / rows.max(1) as f64);
    let (h0, m0) = cache_before;
    let (h1, m1) = cache(ds);
    let lookups = (h1 - h0) + (m1 - m0);
    out.set(
        "storage.cache_hit_rate",
        if lookups > 0 { (h1 - h0) as f64 / lookups as f64 } else { 0.0 },
    );
    Ok(())
}

/// Reopens the storage root at `root` and reports how long `dataset`
/// took to recover. The previous engine must be shut down.
pub fn recovery(root: &Path, seed: u64, dataset: &str, out: &mut Outcome) -> Res<()> {
    let engine = env::reopen(root, seed)?;
    let ds = engine.catalog().dataset(dataset).map_err(s)?;
    let ms: u64 = ds
        .partitions()
        .iter()
        .filter_map(|p| p.recovery_stats())
        .map(|r| r.millis)
        .sum();
    out.set("storage.recovery_ms", ms as f64);
    engine.shutdown();
    Ok(())
}
