//! The system under test: a 2-node engine with durable storage, the
//! §7 Safety Rating scenario, tweet logs and the TCP server.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use idea_adm::Value;
use idea_core::{FeedHandle, FeedSpec, IngestionEngine, PartitionedLog, SourceFactory};
use idea_query::{apply_function, ExecContext, SessionConfig};
use idea_serve::{Server, ServerConfig};
use idea_storage::PartitionedDataset;
use idea_workload::scenarios::{setup_scenario, ScenarioKey};
use idea_workload::{updates, TweetGenerator, WorkloadScale};

use crate::Res;

/// One node per core of the 2-core host the benchmark is sized for.
pub const NODES: usize = 2;
/// The paper's 1X batch: records each node's collector pulls per
/// computing job.
pub const BATCH: usize = 420;
/// The WAL flushes to the OS on every group commit but never fsyncs:
/// on a shared disk, fsync latency measures the neighbours, not this
/// program.
pub const FSYNC: &str = "never";
/// SQL++ enrichment UDF (§7.2 case 1).
pub const UDF: &str = "enrichSafetyRating";
/// Reference-data updates per second while a feed runs (Fig. 27).
pub const UPDATE_RATE: f64 = 200.0;

pub fn ref_scale() -> WorkloadScale {
    WorkloadScale::scaled(0.01)
}

pub fn tweets(seed: u64) -> TweetGenerator {
    TweetGenerator::new(seed)
}

/// A fresh 2-node engine whose durable datasets live under `root`,
/// with `SafetyRatings`, the enrichment UDF and the tweet type.
pub fn engine(root: &Path, seed: u64) -> Res<Arc<IngestionEngine>> {
    let engine = reopen(root, seed)?;
    session(&engine)
        .run_script("CREATE TYPE TweetType AS OPEN { id: int64, text: string };")
        .map_err(s)?;
    Ok(engine)
}

/// Opens the engine over `root`, recovering the durable datasets a
/// previous engine left there; the in-memory reference data and the
/// UDF are set up again.
pub fn reopen(root: &Path, seed: u64) -> Res<Arc<IngestionEngine>> {
    let engine = IngestionEngine::with_storage_root(NODES, root.join("db")).map_err(s)?;
    setup_scenario(engine.catalog(), ScenarioKey::SafetyRating, &ref_scale(), seed).map_err(s)?;
    Ok(engine)
}

/// Tweets `ids`, parsed.
pub fn parse_tweets(gen: &TweetGenerator, ids: std::ops::Range<u64>) -> Res<Vec<Value>> {
    ids.map(|id| idea_adm::json::parse(gen.generate(id).as_bytes()).map_err(s))
        .collect()
}

/// Tweets `ids`, enriched in-process by the UDF: the rows the pipeline
/// would store for them.
pub fn enrich_tweets(
    engine: &IngestionEngine,
    gen: &TweetGenerator,
    ids: std::ops::Range<u64>,
) -> Res<Vec<Value>> {
    let mut ctx = ExecContext::new(engine.catalog().clone());
    let mut rows = Vec::with_capacity((ids.end - ids.start) as usize);
    for tweet in parse_tweets(gen, ids)? {
        match apply_function(&mut ctx, UDF, &[tweet]).map_err(s)? {
            Value::Array(items) => rows.extend(items),
            other => rows.push(other),
        }
    }
    Ok(rows)
}

pub fn session(engine: &IngestionEngine) -> idea_query::Session {
    engine.new_session(SessionConfig::new())
}

/// `CREATE DATASET name` as a durable, WAL-on dataset of tweets.
pub fn create_target(engine: &IngestionEngine, name: &str) -> Res<Arc<PartitionedDataset>> {
    session(engine)
        .run_script(&format!(
            r#"CREATE DATASET {name}(TweetType) PRIMARY KEY id
               WITH {{"storage": "disk", "fsync": "{FSYNC}"}};"#
        ))
        .map_err(s)?;
    engine.catalog().dataset(name).map_err(s)
}

pub fn drop_target(engine: &IngestionEngine, name: &str) -> Res<()> {
    session(engine).run_script(&format!("DROP DATASET {name};")).map_err(s)?;
    Ok(())
}

/// Writes tweets `ids` round-robin into a fresh 2-partition log at
/// `dir`, sealed when `seal` is set. Returns the log (still open for
/// appends when unsealed).
pub fn write_log(
    dir: &Path,
    gen: &TweetGenerator,
    ids: std::ops::Range<u64>,
    seal: bool,
) -> Res<PartitionedLog> {
    let mut log = PartitionedLog::create(dir, NODES).map_err(s)?;
    for id in ids {
        log.append((id % NODES as u64) as usize, &gen.generate(id)).map_err(s)?;
    }
    if seal {
        log.seal().map_err(s)?;
    } else {
        log.flush().map_err(s)?;
    }
    Ok(log)
}

/// Starts the enrichment pipeline: logfile source → UDF (per batch,
/// 1X) → `dataset`, declared as a [`PipelineSpec`](idea_core::PipelineSpec).
pub fn start_enrichment(
    engine: &IngestionEngine,
    feed: &str,
    log: &Path,
    dataset: &str,
) -> Res<Arc<FeedHandle>> {
    let doc = format!(
        r#"{{
            "name": "{feed}",
            "source": {{"type": "logfile", "path": {path}}},
            "transform": ["{UDF}"],
            "target": {{"dataset": "{dataset}", "batch-size": {BATCH},
                        "computing-model": "per-batch"}}
        }}"#,
        path = Value::str(log.to_string_lossy()),
    );
    engine.start_pipeline(&doc).map_err(s)
}

/// Starts the second feed: upserts into `SafetyRatings` at
/// [`UPDATE_RATE`] until stopped.
pub fn start_ref_updates(engine: &IngestionEngine, feed: &str, seed: u64) -> Res<Arc<FeedHandle>> {
    let source = SourceFactory::new(move |_partition, _partitions| {
        Ok(Box::new(RateSource::new(seed)) as Box<dyn idea_core::SourceConnector>)
    });
    let spec = FeedSpec::new(feed, "SafetyRatings", source)
        .with_batch_size(16)
        .with_intake_nodes(vec![0]);
    engine.start_feed(spec).map_err(s)
}

/// An unbounded, rate-paced stream of `SafetyRatings` upserts, paced
/// from its first read.
struct RateSource {
    seed: u64,
    next: u64,
    /// When pacing started, and the offset it started from.
    origin: Option<(std::time::Instant, u64)>,
}

impl RateSource {
    fn new(seed: u64) -> Self {
        RateSource { seed, next: 0, origin: None }
    }
}

impl idea_core::SourceConnector for RateSource {
    fn seek(&mut self, offset: u64) -> idea_connect::Result<()> {
        self.next = offset;
        Ok(())
    }

    fn read_batch(&mut self, max: usize) -> idea_connect::Result<idea_core::SourceBatch> {
        let (started, from) = *self.origin.get_or_insert((std::time::Instant::now(), self.next));
        let due = from + (started.elapsed().as_secs_f64() * UPDATE_RATE) as u64;
        let n = due.saturating_sub(self.next).min(max as u64);
        if n == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let scale = ref_scale();
        let records = (self.next..self.next + n)
            .map(|i| idea_core::SourceRecord {
                payload: updates::update_record(ScenarioKey::SafetyRating, &scale, self.seed, i),
                offset: i + 1,
            })
            .collect();
        self.next += n;
        Ok(idea_core::SourceBatch { records, watermark: None, eof: false })
    }

    fn position(&self) -> u64 {
        self.next
    }
}

/// The TCP frontend over `engine`: enough workers for the two load
/// connections, no rate limit.
pub fn serve(engine: &Arc<IngestionEngine>) -> Res<Server> {
    Server::start(engine.clone(), ServerConfig::default()).map_err(s)
}

/// Bytes under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The durable directory of dataset `name`.
pub fn dataset_dir(root: &Path, name: &str) -> PathBuf {
    root.join("db").join("datasets").join(name)
}

/// Maps any displayable error into the benchmark's error string.
pub fn s<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}
