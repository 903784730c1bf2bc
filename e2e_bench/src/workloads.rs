//! The three workloads. Each isolates the layers it exists for, and
//! every workload reports every end-to-end metric: `enrich_drain` runs a
//! short query slice after each drain round, and `served_queries` a
//! drain round after each query slice, never both at once. Alternating
//! spreads each metric's samples over the whole run, so a slow spell of
//! the shared host hits a share of every metric, not one phase of it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use idea_adm::Value;
use idea_core::{FeedHandle, IngestionEngine, PartitionedLog};
use idea_serve::Server;
use idea_storage::PartitionedDataset;
use idea_workload::TweetGenerator;

use crate::env::{self, s, NODES};
use crate::layers::{epoch_ms, Counters, Sampler};
use crate::probes::{Prober, POLL};
use crate::queries::{self, rating_ok, splitmix, Kind, QuerySet, QueryStats};
use crate::stats::{median, percentile};
use crate::{replay, Config, Outcome, Res};

/// How long a drain or the settling after a live run may take before
/// what is still missing counts as failed.
const SETTLE: Duration = Duration::from_secs(30);

/// How long a live run polls after its last append, before it seals the
/// log. Five times the usual p99 freshness: probes still unseen then are
/// held by the partial-batch stall.
const STALL_SETTLE: Duration = Duration::from_secs(2);

/// `live_mixed` appends at `RATE` records/s for about `ON` of every
/// `PERIOD`, then nothing. The burst length varies by ±`JITTER` per
/// period (drawn from the seed), so where batch boundaries fall differs
/// between runs. One batch per node fills in `2 * BATCH / RATE` = 140
/// ms, inside the 180–220 ms gap, so the partial-batch stall shows in
/// every gap. The period is only a few query latencies long, so every
/// query overlaps both a burst and a gap.
const PERIOD: f64 = 0.5;
const ON: f64 = 0.3;
const JITTER: f64 = 0.02;
const RATE: f64 = 6_000.0;

/// Every `LIVE_PROBE_EVERY`-th appended record and every
/// `DRAIN_PROBE_EVERY`-th drained one is probed for visibility.
const LIVE_PROBE_EVERY: u64 = 10;
const DRAIN_PROBE_EVERY: u64 = 50;

/// A run whose generator fell this far behind schedule at p99 is
/// invalid and counts as failed.
const MAX_LATENESS_MS: f64 = 50.0;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Builds the set-up `cfg.sizes.setups` times and keeps the last one;
/// `setup_s` is the median build time.
fn set_up<T>(
    cfg: &Config,
    out: &mut Outcome,
    mut build: impl FnMut(&Path) -> Res<T>,
    mut teardown: impl FnMut(T),
) -> Res<(T, PathBuf)> {
    let mut times = Vec::new();
    for k in 0..cfg.sizes.setups.max(1) {
        let root = cfg.dir.join(format!("setup{k}"));
        let t = Instant::now();
        let built = build(&root)?;
        times.push(t.elapsed().as_secs_f64());
        if k + 1 == cfg.sizes.setups.max(1) {
            out.set("setup_s", median(&times));
            out.info("setup_samples_s", format!("{times:?}"));
            return Ok((built, root));
        }
        teardown(built);
        std::fs::remove_dir_all(&root).map_err(s)?;
    }
    unreachable!("at least one set-up runs")
}

/// Records `stats` as the query metrics.
fn report_queries(stats: &QueryStats, out: &mut Outcome) {
    out.count(stats.attempted, stats.failed);
    out.errors.extend(stats.errors.iter().take(5).cloned());
    out.set("qps", stats.qps());
    for (kind, name) in [
        (Kind::Scan, "scan_p50_ms"),
        (Kind::GroupBy, "groupby_p50_ms"),
        (Kind::Point, "point_p50_ms"),
        (Kind::Export, "export_p50_ms"),
    ] {
        out.set(name, median(&stats.ms(kind)));
    }
    out.info("query_samples", stats.samples.len());
}

/// Checks every stored row of `ds` is enriched; returns the failures.
fn unrated_rows(ds: &PartitionedDataset) -> u64 {
    ds.snapshot_all()
        .iter()
        .map(|snap| snap.iter().filter(|r| !rating_ok(r)).count() as u64)
        .sum()
}

/// Drain rounds and what they measured.
#[derive(Default)]
struct Drainer {
    rounds: u64,
    rps: Vec<f64>,
    batch_ms: Vec<f64>,
    /// Freshness p50 and p99 of each round.
    freshness_p50_ms: Vec<f64>,
    freshness_p99_ms: Vec<f64>,
    ref_updates: u64,
}

impl Drainer {
    /// One round: drains the sealed log at `log` (tweets `0..n`) into a
    /// fresh durable dataset while the reference-update feed runs, and
    /// checks every stored row. Every `DRAIN_PROBE_EVERY`-th record is
    /// probed; its freshness counts from the round's start, when the
    /// whole log is available (catch-up latency). Returns the dataset,
    /// which the caller keeps or drops.
    #[allow(clippy::too_many_arguments)]
    fn round(
        &mut self,
        engine: &IngestionEngine,
        seed: u64,
        log: &Path,
        n: u64,
        counters: &mut Counters,
        appended: &AtomicU64,
        out: &mut Outcome,
    ) -> Res<(String, Arc<PartitionedDataset>)> {
        let name = format!("Enriched_{}", self.rounds);
        let before = Counters::of(&engine.metrics().snapshot());
        let ds = env::create_target(engine, &name)?;
        let mut prober = Prober::new(ds.clone(), NODES);
        let updates = env::start_ref_updates(engine, "ref_updates", seed)?;
        appended.fetch_add(n, Ordering::SeqCst);
        let t0 = Instant::now();
        for id in (0..n).step_by(DRAIN_PROBE_EVERY as usize) {
            prober.add((id % NODES as u64) as usize, id as i64, None, t0);
        }
        let feed = env::start_enrichment(engine, &format!("enrich_{}", self.rounds), log, &name)?;
        while (feed.metrics().records_stored.get() < n || prober.unseen() > 0)
            && t0.elapsed() < SETTLE
        {
            prober.poll()?;
            std::thread::sleep(POLL);
        }
        let report = feed.wait().map_err(s)?;
        let wall = t0.elapsed().as_secs_f64();
        self.ref_updates += updates.stop_and_wait().map_err(s)?.records_stored;
        counters.add_delta(&before, &Counters::of(&engine.metrics().snapshot()));

        let stored = ds.len() as u64;
        if report.records_stored != n || stored != n {
            out.errors.push(format!("{name}: stored {stored} of {n} records"));
        }
        out.count(n, (n.saturating_sub(stored) + unrated_rows(&ds)).min(n));
        out.count(prober.added, prober.unseen() + prober.wrong);
        self.rounds += 1;
        self.rps.push(n as f64 / wall);
        self.batch_ms.extend(report.batch_durations.iter().map(|b| ms(*b)));
        self.freshness_p50_ms.push(percentile(&prober.freshness_ms, 0.5));
        self.freshness_p99_ms.push(percentile(&prober.freshness_ms, 0.99));
        Ok((name, ds))
    }

    /// Each metric is a median over rounds, so one slow round moves it
    /// no more than one fast one.
    fn report(&self, out: &mut Outcome) {
        out.set("ingest_rps", median(&self.rps));
        out.set("refresh_p50_ms", median(&self.batch_ms));
        out.set("freshness_p50_ms", median(&self.freshness_p50_ms));
        out.set("freshness_p99_ms", median(&self.freshness_p99_ms));
        out.info("drain_rounds", self.rounds);
        out.info("drain_rps_samples", format!("{:?}", self.rps));
        out.info("ref_updates", self.ref_updates);
        // A sealed log releases every partial batch.
        out.set("core.stalled_probes", 0.0);
    }
}

/// Shared end of every workload: counters, the traced layer replay,
/// then shutdown and (traced) recovery of the query dataset.
#[allow(clippy::too_many_arguments)]
fn finish(
    cfg: &Config,
    out: &mut Outcome,
    engine: Arc<IngestionEngine>,
    server: Server,
    root: &Path,
    replay_log: &Path,
    qs: &QuerySet,
    ds: &Arc<PartitionedDataset>,
    counters: &Counters,
) -> Res<()> {
    crate::layers::report_counters(counters, out);
    if cfg.trace {
        replay::layers(&engine, replay_log, cfg.span_file.as_deref(), out)?;
        replay::query_layers(&engine, server.local_addr(), qs, ds, out)?;
    }
    server.shutdown();
    engine.shutdown();
    drop(engine);
    if cfg.trace {
        replay::recovery(root, cfg.seed, &qs.dataset, out)?;
    }
    Ok(())
}

/// `enrich_drain`: the paper's Fig. 25–27 loop at saturation. Rounds
/// drain a sealed 2-partition log through the enrichment pipeline into
/// a durable dataset while a second feed updates `SafetyRatings`.
/// After each round, and never during one, two query clients read the
/// round's dataset for a short slice.
pub fn enrich_drain(cfg: &Config, out: &mut Outcome) -> Res<()> {
    let n = cfg.sizes.drain_log;
    let gen = env::tweets(cfg.seed);
    // Set-up writes the log and parses its tweets: the rows the query
    // oracle is computed from.
    let ((engine, server, rows), root) = set_up(
        cfg,
        out,
        |root| {
            let engine = env::engine(root, cfg.seed)?;
            env::write_log(&root.join("log"), &gen, 0..n, true)?;
            let rows = env::parse_tweets(&gen, 0..n)?;
            let server = env::serve(&engine)?;
            Ok((engine, server, rows))
        },
        |(engine, server, _)| {
            server.shutdown();
            engine.shutdown();
        },
    )?;
    let log = root.join("log");
    let appended = Arc::new(AtomicU64::new(0));
    let sampler = Sampler::start(engine.metrics().clone(), appended.clone());
    let mut counters = Counters::default();
    let mut drainer = Drainer::default();
    let mut stats = QueryStats::default();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let (qs, ds) = loop {
        let (name, ds) =
            drainer.round(&engine, cfg.seed, &log, n, &mut counters, &appended, out)?;
        let qs = QuerySet::new(&name, ds.clone(), &rows, 0, cfg.seed);
        let slice = Instant::now() + Duration::from_secs_f64(cfg.sizes.drain_query_slice_s);
        let before = Counters::of(&engine.metrics().snapshot());
        queries::run_clients(server.local_addr(), &qs, 2, slice, &mut stats)?;
        counters.add_delta(&before, &Counters::of(&engine.metrics().snapshot()));
        if drainer.rounds >= cfg.sizes.min_rounds && Instant::now() >= deadline {
            out.set(
                "bytes_per_record",
                env::dir_bytes(&env::dataset_dir(&root, &name)) as f64 / n as f64,
            );
            break (qs, ds);
        }
        env::drop_target(&engine, &name)?;
    };
    drainer.report(out);
    report_queries(&stats, out);
    sampler.finish(out);
    finish(cfg, out, engine, server, &root, &log, &qs, &ds, &counters)
}

/// `live_mixed`: the full loop below saturation. An open-loop generator
/// appends to a live log on an on/off schedule while one TCP client
/// queries the same dataset in a closed loop. Set-up preloads the static
/// rows and a window of `live_keys` keys above them, which the stream
/// then overwrites round-robin: the dataset holds the same rows
/// throughout, so query cost does not grow with the run.
pub fn live_mixed(cfg: &Config, out: &mut Outcome) -> Res<()> {
    let base = cfg.sizes.live_base;
    let keys = cfg.sizes.live_keys;
    let gen = env::tweets(cfg.seed);
    struct Live {
        engine: Arc<IngestionEngine>,
        ds: Arc<PartitionedDataset>,
        rows: Vec<Value>,
        log: PartitionedLog,
        feed: Arc<FeedHandle>,
        server: Server,
    }
    let (live, root) = set_up(
        cfg,
        out,
        |root| {
            let engine = env::engine(root, cfg.seed)?;
            let ds = env::create_target(&engine, "EnrichedTweets")?;
            let rows = env::enrich_tweets(&engine, &gen, 0..base + keys)?;
            ds.bulk_load(rows.clone()).map_err(s)?;
            let log = env::write_log(&root.join("log"), &gen, 0..0, false)?;
            let feed =
                env::start_enrichment(&engine, "enrich_live", &root.join("log"), "EnrichedTweets")?;
            let server = env::serve(&engine)?;
            Ok(Live { engine, ds, rows, log, feed, server })
        },
        |live| {
            let _ = live.feed.stop_and_wait();
            live.server.shutdown();
            live.engine.shutdown();
        },
    )?;
    let Live { engine, ds, rows, mut log, feed, server } = live;
    let qs = QuerySet::new("EnrichedTweets", ds.clone(), &rows[..base as usize], keys, cfg.seed);
    drop(rows);

    let appended = Arc::new(AtomicU64::new(0));
    let sampler = Sampler::start(engine.metrics().clone(), appended.clone());
    let before = Counters::of(&engine.metrics().snapshot());
    let updates = env::start_ref_updates(&engine, "ref_updates", cfg.seed)?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    let addr = server.local_addr();
    let (generated, stats) = std::thread::scope(|scope| {
        let gen_thread = scope.spawn(|| {
            generate(
                &mut log,
                &gen,
                &ds,
                &feed,
                base..base + keys,
                cfg.seed,
                start,
                deadline,
                &appended,
            )
        });
        let mut stats = QueryStats::default();
        let stats = queries::run_clients(addr, &qs, 1, deadline, &mut stats).map(|()| stats);
        (gen_thread.join().expect("generator panicked"), stats)
    });
    let generated = generated?;
    let report = feed.wait().map_err(s)?;
    let upd = updates.stop_and_wait().map_err(s)?;
    let mut counters = Counters::default();
    counters.add_delta(&before, &Counters::of(&engine.metrics().snapshot()));
    report_queries(&stats?, out);
    sampler.finish(out);

    // Oracles: every appended record stored and enriched, every probe
    // seen with its stamped sequence, and the dataset still holding
    // exactly the preloaded keys.
    let total = base + keys;
    let stored = ds.len() as u64;
    let lost = generated.appended.saturating_sub(report.records_stored);
    if lost > 0 || stored != total {
        out.errors.push(format!(
            "feed stored {} of {} records; dataset holds {stored} of {total} rows",
            report.records_stored, generated.appended
        ));
    }
    out.count(generated.appended, lost + unrated_rows(&ds));
    let p = &generated.prober;
    out.count(p.added, p.unseen() + p.wrong);
    out.set("ingest_rps", generated.stored_in_window as f64 / generated.window.as_secs_f64());
    out.set(
        "refresh_p50_ms",
        median(&report.batch_durations.iter().map(|b| ms(*b)).collect::<Vec<_>>()),
    );
    out.set("freshness_p50_ms", percentile(&generated.freshness_ms, 0.5));
    out.set("freshness_p99_ms", percentile(&generated.freshness_ms, 0.99));
    out.set("core.stalled_probes", generated.stalled as f64);
    out.set(
        "bytes_per_record",
        env::dir_bytes(&env::dataset_dir(&root, "EnrichedTweets")) as f64 / stored.max(1) as f64,
    );
    // An open-loop generator that fell behind its schedule offered less
    // load than the run claims: the run is invalid.
    let late_p99 = percentile(&generated.lateness_ms, 0.99);
    let valid = late_p99 <= MAX_LATENESS_MS;
    out.count(1, u64::from(!valid));
    if !valid {
        out.errors.push(format!("generator p99 lateness {late_p99:.1} ms: run invalid"));
    }
    out.info("appended", generated.appended);
    out.info("probes_stalled", generated.stalled);
    out.info("probes_unseen", p.unseen());
    out.info("generator_lateness_p50_ms", percentile(&generated.lateness_ms, 0.5));
    out.info("generator_lateness_p99_ms", late_p99);
    out.info("valid", valid);
    out.info("ref_updates", upd.records_stored);
    finish(cfg, out, engine, server, &root, &root.join("log"), &qs, &ds, &counters)
}

struct Generated {
    appended: u64,
    /// Records the feed had stored when the window closed, and how long
    /// the window was open.
    stored_in_window: u64,
    window: Duration,
    lateness_ms: Vec<f64>,
    /// Freshness of the probes seen before the seal.
    freshness_ms: Vec<f64>,
    /// Probes still unseen [`STALL_SETTLE`] after the last append.
    stalled: u64,
    prober: Prober,
}

/// The generator's open-loop schedule: records due per period.
struct Schedule {
    /// Records due before period `k` starts.
    before: Vec<u64>,
    on: Vec<f64>,
}

impl Schedule {
    fn new(seed: u64, seconds: f64) -> Schedule {
        let periods = (seconds / PERIOD).ceil() as usize + 1;
        let mut state = seed ^ 0x5EED_0F11_FE00;
        let on: Vec<f64> = (0..periods)
            .map(|_| ON + JITTER * (2.0 * splitmix(&mut state) as f64 / u64::MAX as f64 - 1.0))
            .collect();
        let mut before = vec![0u64];
        for len in &on {
            before.push(before.last().expect("non-empty") + (len * RATE) as u64);
        }
        Schedule { before, on }
    }

    /// Records due `elapsed` seconds into the schedule.
    fn due_count(&self, elapsed: f64) -> u64 {
        let k = ((elapsed / PERIOD) as usize).min(self.on.len() - 1);
        let within = (elapsed - k as f64 * PERIOD).min(self.on[k]);
        (self.before[k] + (within * RATE) as u64).min(self.before[k + 1])
    }

    /// When record `seq` is due, relative to the schedule's start.
    fn due_at(&self, seq: u64) -> Duration {
        let k = self.before.partition_point(|&b| b <= seq) - 1;
        Duration::from_secs_f64(k as f64 * PERIOD + (seq - self.before[k]) as f64 / RATE)
    }
}

/// The open-loop generator: appends each record when due (stamping its
/// sequence), announces a watermark every 10 ms, and polls probes in
/// between. At the deadline it stops appending and polls for
/// [`STALL_SETTLE`]; probes still unseen then are the partial-batch
/// stall's. Then it seals the log, which releases them, and keeps
/// polling until every probe is visible or [`SETTLE`] passes. A probe
/// the seal released is counted as stalled and gives no freshness
/// sample.
#[allow(clippy::too_many_arguments)]
fn generate(
    log: &mut PartitionedLog,
    gen: &TweetGenerator,
    ds: &Arc<PartitionedDataset>,
    feed: &FeedHandle,
    keys: std::ops::Range<u64>,
    seed: u64,
    start: Instant,
    deadline: Instant,
    appended: &AtomicU64,
) -> Res<Generated> {
    let schedule = Schedule::new(seed, deadline.duration_since(start).as_secs_f64());
    let window = keys.end - keys.start;
    let mut prober = Prober::new(ds.clone(), NODES);
    let mut lateness_ms = Vec::new();
    let mut seq = 0u64;
    let mut tick = 0u64;
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let due = schedule.due_count(now.duration_since(start).as_secs_f64());
        if due > seq {
            lateness_ms.push(ms(now.duration_since(start + schedule.due_at(seq))));
            for q in seq..due {
                let id = keys.start + q % window;
                // Tweet `q` of the stream, re-keyed into the window and
                // stamped with its sequence.
                let json = gen.generate(keys.end + q);
                let fields = &json[json.find(',').expect("a tweet has fields")..json.len() - 1];
                let record = format!("{{\"id\": {id}{fields}, \"seq\": {q}}}");
                let p = (q % NODES as u64) as usize;
                log.append(p, &record).map_err(s)?;
                if q % LIVE_PROBE_EVERY == 0 {
                    prober.add(p, id as i64, Some(q as i64), start + schedule.due_at(q));
                }
            }
            seq = due;
        }
        if tick.is_multiple_of(10) {
            for p in 0..NODES {
                log.watermark(p, epoch_ms()).map_err(s)?;
            }
        }
        log.flush().map_err(s)?;
        appended.store(seq, Ordering::SeqCst);
        if tick.is_multiple_of(POLL.as_millis() as u64) {
            prober.poll()?;
        }
        tick += 1;
        let next = start + Duration::from_millis(tick);
        if let Some(wait) = next.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    }
    let stored_in_window = feed.metrics().records_stored.get();
    let window = start.elapsed();
    let stall_end = Instant::now() + STALL_SETTLE;
    while prober.unseen() > 0 && Instant::now() < stall_end {
        prober.poll()?;
        std::thread::sleep(POLL);
    }
    let stalled = prober.unseen();
    let freshness_ms = std::mem::take(&mut prober.freshness_ms);
    log.seal().map_err(s)?;
    let settle = Instant::now() + SETTLE;
    while (prober.unseen() > 0 || feed.metrics().records_stored.get() < seq)
        && Instant::now() < settle
    {
        prober.poll()?;
        std::thread::sleep(POLL);
    }
    Ok(Generated {
        appended: seq,
        stored_in_window,
        window,
        lateness_ms,
        freshness_ms,
        stalled,
        prober,
    })
}

/// `served_queries`: reads. Set-up bulk-loads enriched tweets into a
/// durable dataset and reopens the engine; two TCP clients then run the
/// four queries in closed-loop slices, each slice followed by one drain
/// round of a separate log into a dataset of its own.
pub fn served_queries(cfg: &Config, out: &mut Outcome) -> Res<()> {
    let n = cfg.sizes.served_rows;
    let gen = env::tweets(cfg.seed);
    struct Served {
        engine: Arc<IngestionEngine>,
        ds: Arc<PartitionedDataset>,
        rows: Vec<Value>,
        server: Server,
    }
    let (served, root) = set_up(
        cfg,
        out,
        |root| {
            let engine = env::engine(root, cfg.seed)?;
            let ds = env::create_target(&engine, "EnrichedTweets")?;
            let rows = env::enrich_tweets(&engine, &gen, 0..n)?;
            ds.bulk_load(rows.clone()).map_err(s)?;
            drop(ds);
            engine.shutdown();
            drop(engine);
            let engine = env::reopen(root, cfg.seed)?;
            let ds = engine.catalog().dataset("EnrichedTweets").map_err(s)?;
            if ds.len() as u64 != n {
                return Err(format!("reopened dataset holds {} of {n} rows", ds.len()));
            }
            env::write_log(&root.join("tail"), &gen, 0..cfg.sizes.tail_log, true)?;
            let server = env::serve(&engine)?;
            Ok(Served { engine, ds, rows, server })
        },
        |served| {
            served.server.shutdown();
            served.engine.shutdown();
        },
    )?;
    let Served { engine, ds, rows, server } = served;
    let qs = QuerySet::new("EnrichedTweets", ds.clone(), &rows, 0, cfg.seed);
    drop(rows);
    out.set(
        "bytes_per_record",
        env::dir_bytes(&env::dataset_dir(&root, "EnrichedTweets")) as f64 / n as f64,
    );

    let tail = root.join("tail");
    let appended = Arc::new(AtomicU64::new(0));
    let sampler = Sampler::start(engine.metrics().clone(), appended.clone());
    let mut counters = Counters::default();
    let mut drainer = Drainer::default();
    let mut stats = QueryStats::default();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    while drainer.rounds < cfg.sizes.min_rounds || Instant::now() < deadline {
        let slice = Instant::now() + Duration::from_secs_f64(cfg.sizes.served_query_slice_s);
        let before = Counters::of(&engine.metrics().snapshot());
        queries::run_clients(server.local_addr(), &qs, 2, slice, &mut stats)?;
        counters.add_delta(&before, &Counters::of(&engine.metrics().snapshot()));
        let (name, _) = drainer.round(
            &engine,
            cfg.seed,
            &tail,
            cfg.sizes.tail_log,
            &mut counters,
            &appended,
            out,
        )?;
        env::drop_target(&engine, &name)?;
    }
    report_queries(&stats, out);
    drainer.report(out);
    sampler.finish(out);
    finish(cfg, out, engine, server, &root, &tail, &qs, &ds, &counters)
}
