//! Differential test of the primary-key probe.
//!
//! `WHERE t.<primary key> = <constant>` plans a key probe: the driver
//! scan reads the one record the key names from the partition that owns
//! it, instead of every record. Each query here runs four ways that must
//! agree:
//!
//! * `Session::query` — the vectorized evaluator, probing the key;
//! * a drained `Session::query_stream` — the served path, probing too;
//! * the same text with `/*+ noindex */` — the full driver scan;
//! * a `vectorize(false)` session — the row oracle, which always scans.
//!
//! Key forms cover present, absent and deleted keys, integral and
//! fractional doubles, strings, unknowns, `$param`s and constant
//! expressions; data shapes cover the memtable, sealed components of
//! both layouts, overlays with overwrites and tombstones, and a durable
//! dataset after reopen, over one and four partitions.

use std::sync::Arc;

use idea_adm::Value;
use idea_query::catalog::Catalog;
use idea_query::{Session, SessionConfig, StatementResult};
use idea_storage::TempDir;

const ROWS: i64 = 40;
const GROUPS: &[&str] = &["a", "b", "c"];

/// The value `$k` is bound to (overwritten in the overlay shapes).
const PARAM_K: i64 = 6;

/// 2^53 + 1: the smallest int no double equals exactly, stored beside
/// the dense ids. `9007199254740992.0` (2^53) compares equal to it.
const BIG: i64 = (1 << 53) + 1;

const KEYS: &[&str] = &[
    "7",
    "1000",
    "5.0",
    "5.5",
    r#""7""#,
    "null",
    "missing",
    "$k",
    "2 + 3",
    "-0.0",
    "9007199254740992.0",
    "9007199254740993",
    "9007199254740994",
];

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Every record in the memtable of an in-memory dataset.
    Memtable,
    /// Disk-backed, sealed into one component per partition.
    Sealed(&'static str),
    /// Sealed, then overwrites and deletes: one batch flushed as a
    /// second component, one left in the memtable.
    Overlay(&'static str),
    /// The overlay shape, closed and recovered from its storage root.
    Reopened(&'static str),
}

fn record(id: i64, v: i64) -> Value {
    Value::object([
        ("id", Value::Int(id)),
        ("grp", Value::str(GROUPS[(id % 3) as usize])),
        ("v", Value::Int(v)),
    ])
}

fn ddl(disk: Option<&str>) -> String {
    let with = disk
        .map(|layout| {
            format!(r#"WITH {{"storage": "disk", "fsync": "never", "layout": "{layout}"}}"#)
        })
        .unwrap_or_default();
    format!(
        r#"CREATE TYPE TType AS OPEN {{ id: int64 }};
           CREATE DATASET D(TType) PRIMARY KEY id {with};
           CREATE TYPE WType AS OPEN {{ wid: int64 }};
           CREATE DATASET W(WType) PRIMARY KEY wid {with};
           CREATE FUNCTION bump(r) {{ r.v + 1 }};"#
    )
}

fn open(tmp: &TempDir, partitions: usize) -> Arc<Catalog> {
    let c = Catalog::new(partitions);
    c.set_storage_root(tmp.path()).unwrap();
    c
}

/// Builds `shape` over `partitions` partitions. The dataset `D` holds
/// ids `0..ROWS` (minus the overlay's deletes) and `BIG`; `W` holds one row per
/// group for joins.
fn build(shape: Shape, partitions: usize) -> (TempDir, Arc<Catalog>) {
    let tmp = TempDir::new("pk-probe");
    let layout = match shape {
        Shape::Memtable => None,
        Shape::Sealed(l) | Shape::Overlay(l) | Shape::Reopened(l) => Some(l),
    };
    let c = match layout {
        Some(_) => open(&tmp, partitions),
        None => Catalog::new(partitions),
    };
    Session::new(c.clone()).run_script(&ddl(layout)).unwrap();
    let d = c.dataset("D").unwrap();
    for id in (0..ROWS).chain([BIG]) {
        d.upsert(record(id, id * 10)).unwrap();
    }
    let w = c.dataset("W").unwrap();
    for (wid, g) in GROUPS.iter().enumerate() {
        w.upsert(Value::object([("wid", Value::Int(wid as i64)), ("grp", Value::str(*g))]))
            .unwrap();
    }
    if layout.is_some() {
        for ds in [&d, &w] {
            for p in ds.partitions() {
                p.flush();
                p.merge();
            }
        }
    }
    if matches!(shape, Shape::Overlay(_) | Shape::Reopened(_)) {
        for id in (0..ROWS).filter(|i| i % 3 == 0) {
            d.upsert(record(id, id * 10 + 1000)).unwrap();
        }
        for id in (0..ROWS).filter(|i| i % 4 == 1) {
            d.partition_for(&Value::Int(id)).delete(&Value::Int(id)).unwrap();
        }
        for p in d.partitions() {
            p.flush();
        }
        for id in (0..ROWS).filter(|i| i % 5 == 0) {
            d.upsert(record(id, id * 10 + 2000)).unwrap();
        }
        for id in (0..ROWS).filter(|i| i % 7 == 2) {
            d.partition_for(&Value::Int(id)).delete(&Value::Int(id)).unwrap();
        }
        d.upsert(record(13, 13)).unwrap(); // deleted by the flushed batch
    }
    if let Shape::Reopened(_) = shape {
        drop((d, w));
        drop(c);
        let c = Catalog::new(partitions);
        assert_eq!(c.set_storage_root(tmp.path()).unwrap(), 2, "D and W recover");
        Session::new(c.clone())
            .run_script("CREATE FUNCTION bump(r) { r.v + 1 };")
            .unwrap();
        return (tmp, c);
    }
    (tmp, c)
}

/// Query templates; `{k}` is the key form, `{from}` the FROM item.
const QUERIES: &[&str] = &[
    "SELECT VALUE t FROM {from} WHERE t.id = {k}",
    "SELECT VALUE t FROM {from} WHERE {k} = t.id",
    r#"SELECT t.id AS id, t.v AS v FROM {from} WHERE t.v >= 0 AND t.id = {k} AND t.grp != "z""#,
    "SELECT VALUE t.v FROM {from} WHERE t.id = {k} AND t.v > 100000",
    "SELECT VALUE x FROM {from} LET x = t.v * 2 WHERE t.id = {k}",
    "SELECT VALUE t FROM {from} WHERE t.id = {k} LIMIT 0",
    "SELECT VALUE t FROM {from} WHERE t.id = {k} LIMIT 1",
    "SELECT VALUE bump(t) FROM {from} WHERE t.id = {k}",
    "SELECT VALUE t.id FROM {from} WHERE t.id = {k} AND bump(t) > 0",
    "SELECT count(*) AS n, sum(t.v) AS s FROM {from} WHERE t.id = {k}",
    "SELECT VALUE t.v FROM {from} WHERE t.id = {k} ORDER BY t.v",
    "SELECT t.id AS id, w.wid AS wid FROM {from}, W w WHERE t.grp = w.grp AND t.id = {k}",
];

fn text(template: &str, key: &str, noindex: bool) -> String {
    let from = if noindex { "D /*+ noindex */ t" } else { "D t" };
    template.replace("{from}", from).replace("{k}", key)
}

fn sorted(v: Value) -> Vec<String> {
    let mut rows: Vec<String> = match v {
        Value::Array(rows) => rows.iter().map(|r| format!("{r:?}")).collect(),
        other => panic!("query result is not an array: {other:?}"),
    };
    rows.sort();
    rows
}

fn drained(session: &Session, q: &str) -> Value {
    let rows: Result<Vec<Value>, _> = session.query_stream(q).unwrap().collect();
    Value::Array(rows.unwrap())
}

/// The four-way comparison of one query text; returns the agreed rows.
fn four_way(keyed: &Session, row: &Session, template: &str, key: &str, ctx: &str) -> Vec<String> {
    let q = text(template, key, false);
    let want = sorted(row.query(&q).unwrap_or_else(|e| panic!("{ctx}: oracle {q}: {e}")));
    let got = sorted(keyed.query(&q).unwrap_or_else(|e| panic!("{ctx}: {q}: {e}")));
    assert_eq!(got, want, "{ctx}: Session::query of {q}");
    assert_eq!(sorted(drained(keyed, &q)), want, "{ctx}: query_stream of {q}");
    let scan = text(template, key, true);
    assert_eq!(sorted(keyed.query(&scan).unwrap()), want, "{ctx}: {scan}");
    want
}

fn sessions(c: &Arc<Catalog>) -> (Session, Session) {
    let k = Value::Int(PARAM_K);
    let keyed = SessionConfig::new().param("k", k.clone()).build(c.clone());
    let row = SessionConfig::new().param("k", k).vectorize(false).build(c.clone());
    (keyed, row)
}

/// The live `v` of id `id` in `shape`, or `None` when it is deleted.
fn expected_v(shape: Shape, id: i64) -> Option<i64> {
    if !(0..ROWS).contains(&id) {
        return None;
    }
    if let Shape::Memtable | Shape::Sealed(_) = shape {
        return Some(id * 10);
    }
    // Newest first: the re-insert, the memtable batch, the flushed one.
    match id {
        13 => Some(13),
        _ if id % 7 == 2 => None,
        _ if id % 5 == 0 => Some(id * 10 + 2000),
        _ if id % 4 == 1 => None,
        _ if id % 3 == 0 => Some(id * 10 + 1000),
        _ => Some(id * 10),
    }
}

fn check_shape(shape: Shape, partitions: usize) {
    let ctx = format!("{shape:?} x{partitions}");
    let (_tmp, c) = build(shape, partitions);
    let (keyed, row) = sessions(&c);
    let total = c.dataset("D").unwrap().len() as u64;

    for key in KEYS {
        for template in QUERIES {
            four_way(&keyed, &row, template, key, &ctx);
        }
    }

    // The oracle itself is right: the point query returns the live
    // version of the key or nothing.
    for (key, id) in [("7", 7), ("5.0", 5), ("2 + 3", 5), ("$k", PARAM_K), ("13", 13)] {
        let rows =
            four_way(&keyed, &row, "SELECT VALUE t.v FROM {from} WHERE t.id = {k}", key, &ctx);
        let want: Vec<String> = expected_v(shape, id)
            .map(|v| format!("{:?}", Value::Int(v)))
            .into_iter()
            .collect();
        assert_eq!(rows, want, "{ctx}: key {key}");
    }

    // The keyed query reads at most one record; the noindex twin scans.
    keyed.query("SELECT VALUE t FROM D t WHERE t.id = 7").unwrap();
    let s = keyed.last_stats();
    assert_eq!(s.index_probes, 1, "{ctx}: {s:?}");
    assert!(s.rows_scanned <= 1, "{ctx}: {s:?}");
    keyed.query("SELECT VALUE t FROM D t WHERE t.id = null").unwrap();
    assert_eq!(keyed.last_stats().rows_scanned, 0, "{ctx}: an unknown key reads nothing");
    keyed.query("SELECT VALUE t FROM D /*+ noindex */ t WHERE t.id = 7").unwrap();
    let s = keyed.last_stats();
    assert_eq!((s.index_probes, s.rows_scanned), (0, total), "{ctx}: {s:?}");

    // DELETE by key removes exactly that record.
    let victim = (0..ROWS).find(|&id| id != 7 && expected_v(shape, id).is_some()).unwrap();
    let del = |q: &str| match keyed.run_script(q).unwrap().pop() {
        Some(StatementResult::Count(n)) => n,
        other => panic!("{ctx}: DELETE returned {other:?}"),
    };
    assert_eq!(del(&format!("DELETE FROM D t WHERE t.id = {victim}")), 1, "{ctx}");
    assert_eq!(del(&format!("DELETE FROM D t WHERE t.id = {victim}")), 0, "{ctx}");
    assert_eq!(del("DELETE FROM D t WHERE t.id = 1000"), 0, "{ctx}");
    assert_eq!(c.dataset("D").unwrap().len() as u64, total - 1, "{ctx}");
    let gone = four_way(&keyed, &row, QUERIES[0], &victim.to_string(), &ctx);
    assert!(gone.is_empty(), "{ctx}: deleted key {victim} still reads {gone:?}");
    let count = four_way(&keyed, &row, "SELECT VALUE count(*) FROM {from}", "", &ctx);
    assert_eq!(count, vec![format!("{:?}", Value::Int(total as i64 - 1))], "{ctx}");
    assert!(!four_way(&keyed, &row, QUERIES[0], "7", &ctx).is_empty(), "{ctx}");
}

#[test]
fn memtable_probe_matches_the_scan() {
    for partitions in [1, 4] {
        check_shape(Shape::Memtable, partitions);
    }
}

#[test]
fn sealed_probe_matches_the_scan() {
    for layout in ["row", "columnar"] {
        for partitions in [1, 4] {
            check_shape(Shape::Sealed(layout), partitions);
        }
    }
}

#[test]
fn overlay_probe_sees_overwrites_and_tombstones() {
    for layout in ["row", "columnar"] {
        for partitions in [1, 4] {
            check_shape(Shape::Overlay(layout), partitions);
        }
    }
}

#[test]
fn reopened_durable_probe_matches_the_scan() {
    for layout in ["row", "columnar"] {
        for partitions in [1, 4] {
            check_shape(Shape::Reopened(layout), partitions);
        }
    }
}
