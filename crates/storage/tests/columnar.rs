//! Columnar sealed-component integration tests: a dataset opened with
//! `layout = columnar` must behave exactly like the row-major layout
//! through the full lifecycle (memtable → flush → merge → reopen),
//! its typed pages must agree with the row run they sit beside, and a
//! corrupted page must surface as an error — never as wrong rows.

use std::collections::BTreeMap;
use std::sync::Arc;

use idea_adm::{Datatype, TypeTag, Value};
use idea_storage::dataset::{Dataset, DatasetConfig};
use idea_storage::lsm::{LsmConfig, MergePolicyConfig};
use idea_storage::{
    ComponentLayout, DurabilityConfig, FsyncPolicy, PageData, StorageError, TempDir,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn event_type() -> Datatype {
    Datatype::new("EventType").field("id", TypeTag::Int64)
}

fn event(id: i64, v: i64) -> Value {
    Value::object([("id", Value::Int(id)), ("v", Value::Int(v))])
}

/// Small memtables + an eager merge policy so a few thousand records
/// exercise flushes and merges for real, in the requested layout.
fn config(layout: ComponentLayout) -> DatasetConfig {
    DatasetConfig {
        lsm: LsmConfig {
            memtable_budget_bytes: 8 * 1024,
            merge_policy: MergePolicyConfig::Tiered { size_ratio: 1.2, min_merge: 3, max_merge: 5 },
            durability: DurabilityConfig {
                fsync: FsyncPolicy::Never,
                wal_segment_bytes: 32 * 1024,
                layout,
                ..Default::default()
            },
            ..LsmConfig::default()
        },
        skip_validation: false,
    }
}

fn open(dir: &std::path::Path, layout: ComponentLayout) -> Dataset {
    Dataset::open_durable("Events", event_type(), "id", config(layout), dir).unwrap()
}

fn assert_matches(ds: &Dataset, oracle: &BTreeMap<i64, i64>) {
    assert_eq!(ds.len(), oracle.len());
    for (&id, &v) in oracle {
        let rec = ds.get(&Value::Int(id)).unwrap().unwrap_or_else(|| panic!("id {id} missing"));
        assert_eq!(rec.as_object().unwrap().get("v"), Some(&Value::Int(v)), "id {id}");
    }
    let mut scanned = 0usize;
    for rec in ds.snapshot().iter() {
        let obj = rec.as_object().unwrap();
        let Some(Value::Int(id)) = obj.get("id") else { panic!("bad row {rec:?}") };
        assert_eq!(obj.get("v"), Some(&Value::Int(oracle[id])), "scan id {id}");
        scanned += 1;
    }
    assert_eq!(scanned, oracle.len());
}

#[test]
fn columnar_lifecycle_survives_reopen() {
    let tmp = TempDir::new("columnar-lifecycle");
    let mut oracle = BTreeMap::new();
    {
        let ds = open(tmp.path(), ComponentLayout::Columnar);
        for i in 0..3_000i64 {
            ds.insert(event(i, i)).unwrap();
            oracle.insert(i, i);
        }
        // Overwrites and deletes so the columnar pages must carry upsert
        // shadowing and tombstones through merges, not just appends.
        for i in (0..3_000i64).step_by(3) {
            ds.upsert(event(i, i * 10)).unwrap();
            oracle.insert(i, i * 10);
        }
        for i in (0..3_000i64).step_by(7) {
            ds.delete(&Value::Int(i)).unwrap();
            oracle.remove(&i);
        }
        assert_matches(&ds, &oracle);
        assert_eq!(ds.io_error_count(), 0);
    }
    let ds = open(tmp.path(), ComponentLayout::Columnar);
    assert_matches(&ds, &oracle);
    assert_eq!(ds.io_error_count(), 0);
}

/// The same randomized workload applied to a row-major and a columnar
/// dataset must leave them indistinguishable — point lookups and full
/// scans — across close/reopen cycles.
#[test]
fn columnar_and_row_layouts_agree() {
    let tmp_row = TempDir::new("columnar-diff-row");
    let tmp_col = TempDir::new("columnar-diff-col");
    let mut rng = StdRng::seed_from_u64(0xC01A);
    let mut oracle: BTreeMap<i64, i64> = BTreeMap::new();
    for cycle in 0..3 {
        let row = open(tmp_row.path(), ComponentLayout::Row);
        let col = open(tmp_col.path(), ComponentLayout::Columnar);
        for _ in 0..800 {
            let id = rng.random_range(0..500i64);
            if rng.random_bool(0.2) {
                let was = oracle.remove(&id).is_some();
                assert_eq!(row.delete(&Value::Int(id)).unwrap(), was);
                assert_eq!(col.delete(&Value::Int(id)).unwrap(), was);
            } else {
                let v = rng.random_range(0..1_000_000i64);
                row.upsert(event(id, v)).unwrap();
                col.upsert(event(id, v)).unwrap();
                oracle.insert(id, v);
            }
        }
        assert_matches(&row, &oracle);
        assert_matches(&col, &oracle);
        let rows: Vec<Arc<Value>> = row.snapshot().iter().collect();
        let cols: Vec<Arc<Value>> = col.snapshot().iter().collect();
        assert_eq!(rows, cols, "cycle {cycle}: layouts diverged");
    }
}

/// Components written in one layout stay readable when the dataset is
/// reopened with the other: recovery sniffs each file's header, and
/// merges can combine both formats into the configured one.
#[test]
fn mixed_layouts_coexist_across_reopen() {
    let tmp = TempDir::new("columnar-mixed");
    let mut oracle = BTreeMap::new();
    {
        let ds = open(tmp.path(), ComponentLayout::Row);
        for i in 0..1_500i64 {
            ds.insert(event(i, i)).unwrap();
            oracle.insert(i, i);
        }
    }
    {
        let ds = open(tmp.path(), ComponentLayout::Columnar);
        assert_matches(&ds, &oracle);
        for i in 1_500..3_000i64 {
            ds.insert(event(i, i)).unwrap();
            oracle.insert(i, i);
        }
        for i in (0..3_000i64).step_by(5) {
            ds.upsert(event(i, -i)).unwrap();
            oracle.insert(i, -i);
        }
        assert_matches(&ds, &oracle);
    }
    let ds = open(tmp.path(), ComponentLayout::Row);
    assert_matches(&ds, &oracle);
}

/// Bulk load writes one columnar component; the snapshot then exposes a
/// page reader whose typed vectors must agree with the row iteration,
/// and the per-page min/max stats must bound the page's keys.
#[test]
fn bulk_load_exposes_typed_pages() {
    let tmp = TempDir::new("columnar-pages");
    let ds = open(tmp.path(), ComponentLayout::Columnar);
    let n = 2_600i64;
    ds.bulk_load((0..n).map(|i| event(i, i * 2)).collect()).unwrap();

    let snap = ds.snapshot();
    let reader = snap.columnar().expect("single columnar component");
    let file = reader.file();
    assert_eq!(file.entry_count(), n as usize);
    let id_col = file.field_index("id").expect("id in schema");
    file.field_index("v").expect("v in schema");

    let mut next = 0i64;
    for page in 0..file.page_count() as u32 {
        let cols = reader.read_columns(page).unwrap();
        assert_eq!(cols.tombstones, 0);
        // Page fields sit in per-page first-seen order; look up by name.
        let ids = cols.fields.iter().find(|f| f.name == "id").expect("id in page");
        let vs = cols.fields.iter().find(|f| f.name == "v").expect("v in page");
        let (PageData::I64(ids), PageData::I64(vs)) = (&ids.data, &vs.data) else {
            panic!("page {page}: expected typed i64 columns, got {cols:?}")
        };
        assert_eq!(ids.len(), cols.row_count);
        let (lo, hi) = file.page_stats(page, id_col).expect("stats for uniform i64 page");
        assert_eq!((lo, hi), (&Value::Int(next), &Value::Int(next + ids.len() as i64 - 1)));
        for (i, v) in ids.iter().zip(vs) {
            assert_eq!((*i, *v), (next, next * 2));
            next += 1;
        }
    }
    assert_eq!(next, n);

    // A memtable overlay invalidates the page fast path: correctness
    // then requires the merged row iteration.
    ds.insert(event(n, 0)).unwrap();
    assert!(ds.snapshot().columnar().is_none(), "memtable overlay must disable page reads");
}

/// Projected page reads decode only the requested fields, byte-skipping
/// the rest, and must agree exactly with the unprojected decode — for
/// typed, string, and demoted (mixed-type) columns alike.
#[test]
fn projected_reads_match_full_decode() {
    let tmp = TempDir::new("columnar-proj");
    let ds = open(tmp.path(), ComponentLayout::Columnar);
    let n = 2_200i64;
    ds.bulk_load(
        (0..n)
            .map(|i| {
                let mut obj = idea_adm::value::Object::new();
                obj.set("id", Value::Int(i));
                obj.set("txt", Value::str(format!("payload {i} with some bulk")));
                // Mixed types force per-page demotion of `mixed`.
                obj.set(
                    "mixed",
                    if i % 2 == 0 { Value::Int(i) } else { Value::str(format!("s{i}")) },
                );
                if i % 3 != 0 {
                    obj.set("score", Value::Double(i as f64 / 4.0));
                }
                Value::Object(obj)
            })
            .collect(),
    )
    .unwrap();

    let snap = ds.snapshot();
    let reader = snap.columnar().expect("single columnar component");
    let file = reader.file();
    let keep = vec!["id".to_owned(), "score".to_owned(), "mixed".to_owned()];
    for page in 0..file.page_count() as u32 {
        let full = reader.read_columns(page).unwrap();
        let proj = reader.read_columns_proj(page, &keep).unwrap();
        assert_eq!(proj.row_count, full.row_count);
        assert_eq!(proj.tombstones, full.tombstones);
        // Exactly the kept fields survive, bit-identical to the full
        // decode; `txt` is skipped without being materialized.
        assert!(proj.fields.iter().all(|f| keep.contains(&f.name)), "page {page}: {proj:?}");
        assert!(proj.fields.iter().any(|f| f.name == "id"), "page {page} lost id");
        assert!(!proj.fields.iter().any(|f| f.name == "txt"));
        for pf in &proj.fields {
            let ff = full.fields.iter().find(|f| f.name == pf.name).unwrap();
            assert_eq!(pf, ff, "page {page}: projected field {} diverged", pf.name);
        }
        // The row section still decodes alongside a projection.
        let (proj_full, entries) = reader.read_full_proj(page, &keep).unwrap();
        assert_eq!(proj_full.fields, proj.fields);
        assert_eq!(entries.len(), full.row_count);
        assert!(entries.iter().all(|e| e.is_some()));
    }
}

/// A flipped byte inside a page must fail the page CRC: point lookups
/// on that page error out (`Corrupt`, not a false absent), and a scan
/// never yields a wrong row. The footer is intact, so open succeeds.
#[test]
fn corrupt_page_is_error_not_wrong_rows() {
    let tmp = TempDir::new("columnar-corrupt");
    let mut oracle = BTreeMap::new();
    {
        let ds = open(tmp.path(), ComponentLayout::Columnar);
        for i in 0..2_000i64 {
            ds.insert(event(i, i + 7)).unwrap();
            oracle.insert(i, i + 7);
        }
    }
    // Flip one byte inside the first page frame of every component file
    // (offset 20 lands in the first frame's payload: the header is the
    // 8-byte magic, then 4 bytes frame length + 4 bytes CRC).
    let mut flipped = 0usize;
    for entry in std::fs::read_dir(tmp.path()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("cmp") {
            continue;
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        flipped += 1;
    }
    assert!(flipped > 0, "workload must have flushed at least one component");

    let ds = open(tmp.path(), ComponentLayout::Columnar);
    let mut errors = 0usize;
    for (&id, &v) in &oracle {
        match ds.get(&Value::Int(id)) {
            Ok(Some(rec)) => {
                assert_eq!(rec.as_object().unwrap().get("v"), Some(&Value::Int(v)), "id {id}");
            }
            Ok(None) => panic!("id {id}: corruption must not read as absent"),
            Err(e) => {
                assert!(matches!(e, StorageError::Corrupt(_)), "id {id}: {e}");
                errors += 1;
            }
        }
    }
    assert!(errors > 0, "some lookups must hit the corrupted pages");
    // A scan that reads everything fails with the page's error instead
    // of returning the rows before it.
    assert!(matches!(ds.snapshot().read_all(), Err(StorageError::Corrupt(_))));
    // The record iterator stops at the bad page rather than fabricating
    // rows, and says so: every row that does come back must match the
    // oracle, and the iterator reports the error once it ends.
    let snap = ds.snapshot();
    let mut recs = snap.iter();
    for rec in recs.by_ref() {
        let obj = rec.as_object().unwrap();
        let Some(Value::Int(id)) = obj.get("id") else { panic!("bad row {rec:?}") };
        assert_eq!(obj.get("v"), Some(&Value::Int(oracle[id])), "scan id {id}");
    }
    assert!(matches!(recs.error(), Some(StorageError::Corrupt(_))));
}
