//! Registry read-out: the engine's own instruments, snapshotted around
//! each timed part and sampled while it runs. These are the counters
//! production exports, so the per-layer numbers and the live metrics
//! cannot drift apart.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use idea_obs::{MetricsRegistry, Snapshot, SnapshotValue};

use crate::stats::mean;
use crate::Outcome;

/// Enrichment feeds are named `enrich…` and their target datasets
/// `Enriched…`, so the reference-update feed and the replay's datasets
/// stay out of these sums.
const FEEDS: &str = "feed/enrich";
const TARGETS: &str = "storage/Enriched";

/// The registry counter a name contributes to, if any.
fn counter_key(name: &str) -> Option<&'static str> {
    if let Some(rest) = name.strip_prefix(FEEDS) {
        if rest.contains("/holder/intake/") && rest.ends_with("/blocked_pushes") {
            return Some("intake_blocked_pushes");
        }
        if rest.contains("/holder/storage/") && rest.ends_with("/blocked_pulls") {
            return Some("storage_blocked_pulls");
        }
        if rest.ends_with("/computing/jobs") {
            return Some("jobs");
        }
        if rest.ends_with("/store/records") {
            return Some("stored");
        }
        return None;
    }
    if name.starts_with(TARGETS) {
        for (suffix, key) in [
            ("/wal/bytes", "wal_bytes"),
            ("/bytes_ingested", "bytes_ingested"),
            ("/bytes_written", "bytes_written"),
            ("/flushes", "flushes"),
            ("/merges", "merges"),
            ("/put_stall_nanos", "stall_ns"),
        ] {
            if name.ends_with(suffix) {
                return Some(key);
            }
        }
        return None;
    }
    if name == idea_obs::names::QUERY_BATCH_FALLBACKS {
        return Some("fallbacks");
    }
    if name.starts_with("serve/shed/") {
        return Some("shed");
    }
    None
}

/// Counter totals by key.
#[derive(Debug, Default, Clone)]
pub struct Counters(BTreeMap<&'static str, f64>);

impl Counters {
    pub fn of(snap: &Snapshot) -> Counters {
        let mut c = Counters::default();
        for e in &snap.entries {
            // Storage counters are registered as probes, which snapshot
            // as gauges.
            let v = match e.value {
                SnapshotValue::Counter(v) => v as f64,
                SnapshotValue::Gauge(v) => v as f64,
                SnapshotValue::Histogram(_) => continue,
            };
            if let Some(key) = counter_key(&e.name) {
                *c.0.entry(key).or_insert(0.0) += v;
            }
        }
        c
    }

    /// Adds `after - before`: the work of one timed part.
    pub fn add_delta(&mut self, before: &Counters, after: &Counters) {
        for (k, v) in &after.0 {
            *self.0.entry(k).or_insert(0.0) += v - before.get(k);
        }
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }
}

struct Sample {
    snap: Snapshot,
    appended: u64,
    epoch_ms: i64,
}

/// Snapshots the registry every 100 ms until finished.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<Sample>>,
}

pub fn epoch_ms() -> i64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_millis() as i64)
}

impl Sampler {
    /// `appended` counts records made available to enrichment feeds so
    /// far; the backlog is that minus what they stored.
    pub fn start(registry: Arc<MetricsRegistry>, appended: Arc<AtomicU64>) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !flag.load(Ordering::SeqCst) {
                samples.push(Sample {
                    snap: registry.snapshot(),
                    appended: appended.load(Ordering::SeqCst),
                    epoch_ms: epoch_ms(),
                });
                std::thread::sleep(Duration::from_millis(100));
            }
            samples
        });
        Sampler { stop, handle }
    }

    /// Stops sampling and sets the gauge-derived per-layer metrics.
    pub fn finish(self, out: &mut Outcome) {
        self.stop.store(true, Ordering::SeqCst);
        let samples = self.handle.join().expect("sampler panicked");
        let sum = |s: &Sample, pred: &dyn Fn(&str) -> bool| -> f64 {
            s.snap
                .entries
                .iter()
                .filter(|e| pred(&e.name))
                .map(|e| match e.value {
                    SnapshotValue::Counter(v) => v as f64,
                    SnapshotValue::Gauge(v) => v as f64,
                    SnapshotValue::Histogram(_) => 0.0,
                })
                .sum()
        };
        let is_feed = |n: &str| n.starts_with(FEEDS);
        let lag: Vec<f64> = samples
            .iter()
            .map(|s| {
                let stored = sum(s, &|n| is_feed(n) && n.ends_with("/store/records"));
                (s.appended as f64 - stored).max(0.0)
            })
            .collect();
        let queue: Vec<f64> = samples
            .iter()
            .map(|s| {
                sum(s, &|n| {
                    is_feed(n) && n.contains("/holder/intake/") && n.ends_with("/queue_depth")
                })
            })
            .collect();
        // Only sources that announce watermarks set the gauge.
        let watermark_lag: Vec<f64> = samples
            .iter()
            .filter_map(|s| {
                let wm = s
                    .snap
                    .entries
                    .iter()
                    .filter(|e| is_feed(&e.name) && e.name.ends_with("/intake/watermark_ms"))
                    .filter_map(|e| match e.value {
                        SnapshotValue::Gauge(v) if v > 0 => Some(v),
                        _ => None,
                    })
                    .max()?;
                Some((s.epoch_ms - wm) as f64)
            })
            .collect();
        let serve_queue: Vec<f64> = samples
            .iter()
            .map(|s| sum(s, &|n| n == idea_obs::names::SERVE_ADMISSION_QUEUE_DEPTH))
            .collect();
        out.set("connect.lag_records", mean(&lag));
        out.set("connect.watermark_lag_ms", mean(&watermark_lag));
        out.set("hyracks.queue_depth", mean(&queue));
        out.set("serve.queue_depth", mean(&serve_queue));
    }
}

/// Sets the counter-derived per-layer metrics from the deltas of every
/// timed part.
pub fn report_counters(c: &Counters, out: &mut Outcome) {
    let stored = c.get("stored");
    let per_rec = |v: f64| if stored > 0.0 { v / stored } else { 0.0 };
    out.set("hyracks.intake_blocked_pushes", c.get("intake_blocked_pushes"));
    out.set("hyracks.storage_blocked_pulls", c.get("storage_blocked_pulls"));
    out.set("core.jobs", c.get("jobs"));
    out.set("core.records_per_job", if c.get("jobs") > 0.0 { stored / c.get("jobs") } else { 0.0 });
    out.set("storage.wal_bytes_per_rec", per_rec(c.get("wal_bytes")));
    let ingested = c.get("bytes_ingested");
    out.set(
        "storage.write_amp",
        if ingested > 0.0 { c.get("bytes_written") / ingested } else { 0.0 },
    );
    out.set("storage.flushes", c.get("flushes"));
    out.set("storage.merges", c.get("merges"));
    out.set("storage.stall_ms", c.get("stall_ns") / 1e6);
    out.set("serve.shed", c.get("shed"));
    out.set("query.batch_fallbacks", c.get("fallbacks"));
}
