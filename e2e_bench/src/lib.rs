//! End-to-end benchmark of the paper's enrichment loop: records are
//! appended to a partitioned log, enriched by a SQL++ UDF against a
//! reference dataset that a second feed keeps updating, stored in a
//! durable WAL-on dataset, and queried over TCP.
//!
//! Three workloads (see `WORKLOADS.md` beside this crate for why each
//! exists): `enrich_drain`, `live_mixed` and `served_queries`. A run
//! measures end-to-end metrics with tracing off; a traced run
//! (`trace = true`) also replays the workload's inputs single-threaded
//! through each layer's public calls and reports per-layer metrics.

mod env;
mod layers;
mod probes;
mod queries;
mod replay;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;

pub type Res<T> = Result<T, String>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EnrichDrain,
    LiveMixed,
    ServedQueries,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::EnrichDrain, Workload::LiveMixed, Workload::ServedQueries];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EnrichDrain => "enrich_drain",
            Workload::LiveMixed => "live_mixed",
            Workload::ServedQueries => "served_queries",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. `full` is what the benchmark measures; `smoke` runs
/// every phase and oracle in about a second each.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Tweets in the sealed log each `enrich_drain` round drains.
    pub drain_log: u64,
    /// Enriched rows preloaded before `live_mixed` starts appending.
    pub live_base: u64,
    /// Keys the `live_mixed` stream writes, round-robin: after the first
    /// pass it overwrites, so the dataset, and with it the cost of every
    /// full-scan query, stops growing.
    pub live_keys: u64,
    /// Enriched rows `served_queries` bulk-loads.
    pub served_rows: u64,
    /// Tweets in the sealed log `served_queries` drains between reads.
    pub tail_log: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Drain rounds at least, per drain phase.
    pub min_rounds: u64,
    /// Seconds of queries after each `enrich_drain` round.
    pub drain_query_slice_s: f64,
    /// Seconds of queries before each `served_queries` drain round.
    pub served_query_slice_s: f64,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            drain_log: 20_000,
            live_base: 10_000,
            live_keys: 20_000,
            served_rows: 20_000,
            tail_log: 20_000,
            setups: 5,
            min_rounds: 3,
            drain_query_slice_s: 0.5,
            served_query_slice_s: 1.0,
        }
    }

    pub fn smoke() -> Sizes {
        Sizes {
            drain_log: 3_000,
            live_base: 2_000,
            live_keys: 1_500,
            served_rows: 2_000,
            tail_log: 1_000,
            setups: 1,
            min_rounds: 1,
            drain_query_slice_s: 0.2,
            served_query_slice_s: 0.3,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Scratch directory for logs and datasets; removed at the end.
    pub dir: PathBuf,
    /// Where a traced run writes its spans.
    pub span_file: Option<PathBuf>,
}

/// End-to-end metrics, measured with tracing off: name and unit.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("ingest_rps", "1/s"),
    ("refresh_p50_ms", "ms"),
    ("freshness_p50_ms", "ms"),
    ("freshness_p99_ms", "ms"),
    ("qps", "1/s"),
    ("scan_p50_ms", "ms"),
    ("groupby_p50_ms", "ms"),
    ("point_p50_ms", "ms"),
    ("export_p50_ms", "ms"),
    ("bytes_per_record", "B"),
];

/// Per-layer metrics of a traced run: name and unit.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("connect.read_us_per_rec", "us"),
    ("connect.lag_records", "count"),
    ("connect.watermark_lag_ms", "ms"),
    ("adm.parse_us_per_rec", "us"),
    ("query.state_build_ms_per_batch", "ms"),
    ("query.udf_eval_us_per_rec", "us"),
    ("query.exec_ms.scan", "ms"),
    ("query.exec_ms.groupby", "ms"),
    ("query.exec_ms.point", "ms"),
    ("query.exec_ms.export", "ms"),
    ("query.batch_fallbacks", "count"),
    ("hyracks.intake_blocked_pushes", "count"),
    ("hyracks.storage_blocked_pulls", "count"),
    ("hyracks.queue_depth", "count"),
    ("core.jobs", "count"),
    ("core.records_per_job", "count"),
    ("core.replay_rps", "1/s"),
    ("core.unattributed_frac", "fraction"),
    ("core.stalled_probes", "count"),
    ("storage.upsert_us_per_rec", "us"),
    ("storage.wal_bytes_per_rec", "B"),
    ("storage.write_amp", "ratio"),
    ("storage.flushes", "count"),
    ("storage.merges", "count"),
    ("storage.stall_ms", "ms"),
    ("storage.get_us", "us"),
    ("storage.scan_us_per_rec", "us"),
    ("storage.cache_hit_rate", "fraction"),
    ("storage.recovery_ms", "ms"),
    ("serve.self_ms.scan", "ms"),
    ("serve.self_ms.groupby", "ms"),
    ("serve.self_ms.point", "ms"),
    ("serve.self_ms.export", "ms"),
    ("serve.shed", "count"),
    ("serve.queue_depth", "count"),
    ("trace.overhead_frac", "fraction"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle violations and failed operations, for the log.
    pub errors: Vec<String>,
    pub metrics: std::collections::BTreeMap<&'static str, f64>,
    /// Run facts printed beside the result: `(key, JSON value)`.
    pub info: Vec<(String, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn info(&mut self, key: &str, json: impl ToString) {
        let json = json.to_string();
        // JSON has no NaN or infinity: a statistic of no samples.
        let json =
            if matches!(json.as_str(), "NaN" | "inf" | "-inf") { "null".into() } else { json };
        self.info.push((key.to_string(), json));
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The metric names this run must report.
    pub fn expected(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// expected metric with its unit.
    pub fn result_json(&self, trace: bool) -> String {
        let metrics: Vec<String> = Outcome::expected(trace)
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(f64::NAN);
                let v = if v.is_finite() { format!("{v}") } else { "null".to_string() };
                format!(r#""{name}": {{"value": {v}, "unit": "{unit}"}}"#)
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn info_json(&self) -> String {
        let fields: Vec<String> = self.info.iter().map(|(k, v)| format!(r#""{k}": {v}"#)).collect();
        format!(r#"{{"info": {{{}}}}}"#, fields.join(", "))
    }
}

/// Runs one workload: set-up, the timed part and its oracles, and for a
/// traced run the layer replay.
pub fn run(cfg: &Config) -> Res<Outcome> {
    std::fs::create_dir_all(&cfg.dir).map_err(env::s)?;
    let _cleanup = RemoveOnDrop(cfg.dir.clone());
    let mut out = Outcome::default();
    out.info("workload", format!("\"{}\"", cfg.workload.name()));
    out.info("seed", cfg.seed);
    out.info("seconds", cfg.seconds);
    out.info("trace", cfg.trace);
    out.info("nproc", std::thread::available_parallelism().map_or(0, |n| n.get()));
    out.info("nodes", env::NODES);
    out.info("batch_size", env::BATCH);
    out.info("fsync", format!("\"{}\"", env::FSYNC));
    out.info("ref_updates_per_s", env::UPDATE_RATE);
    let cpu_before = host_cpu();
    match cfg.workload {
        Workload::EnrichDrain => workloads::enrich_drain(cfg, &mut out)?,
        Workload::LiveMixed => workloads::live_mixed(cfg, &mut out)?,
        Workload::ServedQueries => workloads::served_queries(cfg, &mut out)?,
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (cpu_before, host_cpu()) {
        // Time the hypervisor ran something else on this VM's CPUs:
        // wall-clock numbers of a run with much steal are slower.
        out.info("host_steal_frac", (s1 - s0) as f64 / (t1 - t0).max(1) as f64);
    }
    for (name, _) in Outcome::expected(cfg.trace) {
        if !out.metrics.get(name).is_some_and(|v| v.is_finite()) {
            out.errors.push(format!("metric {name} was not measured"));
        }
    }
    Ok(out)
}

/// `(steal, total)` ticks of all CPUs from `/proc/stat`, where the
/// host reports them.
fn host_cpu() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
