//! The four served queries, their oracles and the closed-loop clients.
//!
//! Every query reads one dataset of enriched tweets whose ids
//! `0..base` never change during a run; rows that live ingest overwrites
//! have ids `base..base + live`. Oracles are computed from the generated
//! rows, not through the query engine, and checked exactly on the static
//! part; the live part is checked against bounds (the live ids, dataset
//! size before and after each query).

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use idea_adm::Value;
use idea_serve::Client;
use idea_storage::PartitionedDataset;

use crate::env::s;
use crate::Res;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Selective filter scan: ids of one country (~0.5% of rows).
    Scan,
    /// `GROUP BY country` count.
    GroupBy,
    /// Primary-key equality lookup.
    Point,
    /// Half-table export: every row with `id < base / 2`, streamed.
    Export,
}

pub const KINDS: [Kind; 4] = [Kind::Scan, Kind::GroupBy, Kind::Point, Kind::Export];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Scan => "scan",
            Kind::GroupBy => "groupby",
            Kind::Point => "point",
            Kind::Export => "export",
        }
    }
}

/// Queries over one dataset plus the oracle for its static part.
pub struct QuerySet {
    pub dataset: String,
    ds: Arc<PartitionedDataset>,
    country: String,
    /// Rows `0..base` are static.
    base: u64,
    seed: u64,
    /// Ids of static rows in `country`: count and sum.
    scan: (u64, i64),
    /// Static rows per country.
    groups: BTreeMap<String, i64>,
    /// Rows that live ingest overwrites have ids `base..base + live`.
    live: u64,
}

impl QuerySet {
    /// `rows` are the static rows (ids `0..rows.len()`), as stored; the
    /// `live` ids above them may change while queries run.
    pub fn new(
        dataset: &str,
        ds: Arc<PartitionedDataset>,
        rows: &[Value],
        live: u64,
        seed: u64,
    ) -> Self {
        let country = idea_workload::names::country((seed % 200) as usize);
        let mut scan = (0u64, 0i64);
        let mut groups = BTreeMap::new();
        for r in rows {
            let c = field(r, "country").and_then(Value::as_str).unwrap_or("").to_string();
            let id = field(r, "id").and_then(Value::as_int).unwrap_or(-1);
            if c == country {
                scan.0 += 1;
                scan.1 += id;
            }
            *groups.entry(c).or_insert(0) += 1;
        }
        QuerySet {
            dataset: dataset.to_string(),
            ds,
            country,
            base: rows.len() as u64,
            seed,
            scan,
            groups,
            live,
        }
    }

    fn point_key(&self, k: u64) -> i64 {
        let mut state = self.seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (splitmix(&mut state) % self.base.max(1)) as i64
    }

    /// The SQL++ text of the `k`-th query of `kind`.
    pub fn text(&self, kind: Kind, k: u64) -> String {
        let d = &self.dataset;
        match kind {
            Kind::Scan => {
                format!(r#"SELECT VALUE t.id FROM {d} t WHERE t.country = "{}""#, self.country)
            }
            Kind::GroupBy => {
                format!("SELECT t.country AS country, count(*) AS n FROM {d} t GROUP BY t.country")
            }
            Kind::Point => format!("SELECT VALUE t FROM {d} t WHERE t.id = {}", self.point_key(k)),
            Kind::Export => format!("SELECT VALUE t FROM {d} t WHERE t.id < {}", self.base / 2),
        }
    }

    /// Runs the `k`-th query of `kind` through `exec` (which feeds every
    /// result row to the fold it is given) and checks the result.
    /// Returns the latency in ms, or why the result is wrong.
    pub fn run(
        &self,
        kind: Kind,
        k: u64,
        exec: impl FnOnce(&str, &mut dyn FnMut(&Value)) -> Res<()>,
    ) -> Res<f64> {
        let text = self.text(kind, k);
        let len_before = self.ds.len() as i64;
        let mut acc = Acc { base: self.base as i64, ..Acc::default() };
        let t = Instant::now();
        exec(&text, &mut |row| acc.add(kind, row))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let live_hi = self.base + self.live;
        let len_after = self.ds.len() as i64;
        self.check(kind, k, &acc, live_hi, (len_before, len_after))?;
        Ok(ms)
    }

    fn check(&self, kind: Kind, k: u64, a: &Acc, live_hi: u64, len: (i64, i64)) -> Res<()> {
        if let Some(bad) = &a.bad {
            return Err(format!("{}: {bad}", kind.name()));
        }
        if a.max_id >= live_hi as i64 {
            return Err(format!("{}: id {} was never appended", kind.name(), a.max_id));
        }
        let ok = match kind {
            Kind::Scan => (a.static_rows, a.static_sum) == self.scan,
            Kind::GroupBy => {
                let total: i64 = a.groups.values().sum();
                total >= len.0
                    && total <= len.1
                    && self.groups.iter().all(|(c, n)| a.groups.get(c).copied().unwrap_or(0) >= *n)
            }
            Kind::Point => {
                let key = self.point_key(k);
                a.rows == 1 && a.static_sum == key && a.rated == 1
            }
            Kind::Export => {
                let cut = (self.base / 2) as i64;
                a.rows == cut as u64
                    && a.static_sum == cut * (cut - 1) / 2
                    && a.rated == a.rows
                    && a.max_id < cut
            }
        };
        if ok {
            Ok(())
        } else {
            Err(format!("{} query {k} returned a wrong result", kind.name()))
        }
    }

    /// The kind of client `c`'s `sent`-th query. Every cycle of four
    /// holds each kind once, in a seeded order of its own, so which kind
    /// runs beside which keeps changing instead of locking into one
    /// pairing for a whole run.
    pub fn kind(&self, c: usize, sent: u64) -> Kind {
        let mut order = KINDS;
        let mut rng = self.seed ^ (sent / 4).wrapping_mul(0xD1B5_4A32_D192_ED03) ^ c as u64;
        for i in (1..order.len()).rev() {
            order.swap(i, (splitmix(&mut rng) % (i as u64 + 1)) as usize);
        }
        order[(sent % 4) as usize]
    }

    pub fn base(&self) -> u64 {
        self.base
    }
}

/// Streaming fold over one result.
#[derive(Default)]
struct Acc {
    base: i64,
    rows: u64,
    static_rows: u64,
    static_sum: i64,
    max_id: i64,
    rated: u64,
    groups: BTreeMap<String, i64>,
    bad: Option<String>,
}

impl Acc {
    fn add(&mut self, kind: Kind, row: &Value) {
        self.rows += 1;
        let id = match kind {
            Kind::Scan => row.as_int(),
            Kind::GroupBy => {
                let c = field(row, "country").and_then(Value::as_str);
                let n = field(row, "n").and_then(Value::as_int);
                match (c, n) {
                    (Some(c), Some(n)) => *self.groups.entry(c.to_string()).or_insert(0) += n,
                    _ => self.bad = Some(format!("malformed group row {row}")),
                }
                return;
            }
            Kind::Point | Kind::Export => {
                if rating_ok(row) {
                    self.rated += 1;
                }
                field(row, "id").and_then(Value::as_int)
            }
        };
        let Some(id) = id else {
            self.bad = Some(format!("row without an id: {row}"));
            return;
        };
        self.max_id = self.max_id.max(id);
        if id < self.base {
            self.static_rows += 1;
            self.static_sum += id;
        }
    }
}

/// An enriched row carries `safety_rating`: one of A–D, as the UDF's
/// one-element result array.
pub fn rating_ok(row: &Value) -> bool {
    match field(row, "safety_rating") {
        Some(Value::Array(items)) => {
            items.len() == 1 && matches!(items[0].as_str(), Some("A" | "B" | "C" | "D"))
        }
        _ => false,
    }
}

/// Latency samples and failures of a set of closed-loop clients.
#[derive(Default)]
pub struct QueryStats {
    /// Queries each client has sent so far; its next call continues the
    /// client's cycle from here.
    sent: Vec<u64>,
    pub samples: Vec<(Kind, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub seconds: f64,
}

impl QueryStats {
    pub fn ms(&self, kind: Kind) -> Vec<f64> {
        self.samples.iter().filter(|(k, _)| *k == kind).map(|(_, ms)| *ms).collect()
    }

    pub fn qps(&self) -> f64 {
        self.samples.len() as f64 / self.seconds
    }
}

/// Runs `clients` free-running closed-loop TCP clients until `deadline`.
/// Each client cycles the four kinds (see [`QuerySet::kind`]) and sends
/// its next query as soon as the last one is answered. Each client's
/// cycle carries over from one call to the next, so short slices keep
/// the mix even. A query that is shed,
/// errors or returns a wrong result counts as failed and has no latency
/// sample.
pub fn run_clients(
    addr: SocketAddr,
    qs: &QuerySet,
    clients: usize,
    deadline: Instant,
    stats: &mut QueryStats,
) -> Res<()> {
    let started = Instant::now();
    stats.sent.resize(clients, 0);
    let mut conns = (0..clients)
        .map(|_| Client::connect(addr, "bench").map_err(s))
        .collect::<Res<Vec<_>>>()?;
    let per_client: Vec<(QueryStats, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(stats.sent.iter().copied())
            .enumerate()
            .map(|(c, (client, mut sent))| {
                scope.spawn(move || {
                    let mut st = QueryStats::default();
                    while Instant::now() < deadline {
                        let kind = qs.kind(c, sent);
                        let k = sent * clients as u64 + c as u64;
                        sent += 1;
                        st.attempted += 1;
                        let res = qs.run(kind, k, |text, fold| {
                            client
                                .query_streamed(text, |batch| batch.iter().for_each(&mut *fold))
                                .map(|_| ())
                                .map_err(s)
                        });
                        match res {
                            Ok(ms) => st.samples.push((kind, ms)),
                            Err(e) => {
                                st.failed += 1;
                                st.errors.push(e);
                            }
                        }
                    }
                    (st, sent)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("query client panicked")).collect()
    });
    for (c, (st, sent)) in per_client.into_iter().enumerate() {
        stats.sent[c] = sent;
        stats.samples.extend(st.samples);
        stats.attempted += st.attempted;
        stats.failed += st.failed;
        stats.errors.extend(st.errors);
    }
    stats.seconds += started.elapsed().as_secs_f64();
    Ok(())
}

/// Field `name` of an object value.
pub fn field<'a>(v: &'a Value, name: &str) -> Option<&'a Value> {
    v.as_object()?.get(name)
}

/// splitmix64: the next value of a seeded stream.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
