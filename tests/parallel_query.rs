//! Differential tests: the vectorized executor, whose top-level driver
//! scan fans out over a dataset's partitions, vs. the row-at-a-time
//! evaluator (its oracle, a `vectorize(false)` session).
//!
//! A randomized workload of SELECT / GROUP BY / JOIN / ORDER BY /
//! LIMIT / DISTINCT queries runs through both sessions over a
//! 4-partition dataset. Results must be identical *including row
//! order*: the fan-out hands its workers' output to the join, group-by
//! and order tail in partition order, so even unordered results and
//! first-seen group order match a single-threaded scan. Further tests
//! check that answers stay correct with a cluster node killed, that a
//! repeated statement reuses one cached plan, and that DDL and new data
//! between executions are seen.

use std::sync::Arc;

use idea::adm::Value;
use idea::ingestion::IngestionEngine;
use idea::obs::names;
use idea::query::{Session, SessionConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NODES: usize = 4;
const COUNTRIES: &[&str] = &["US", "DE", "FR", "JP", "BR", "IN"];

/// A 4-node engine with the tweet/word schema loaded, and two sessions
/// over it: the default (fan-out) one and the row-at-a-time oracle.
fn setup(seed: u64) -> (Arc<IngestionEngine>, Session, Session) {
    let engine = IngestionEngine::with_nodes(NODES);
    let oracle = engine.new_session(SessionConfig::new().vectorize(false));
    // Built last, so the registry's cached-plan probe reads its cache.
    let session = engine.new_session(SessionConfig::new());
    session
        .run_script(
            r#"
            CREATE TYPE TweetType AS OPEN { id: int64, country: string, score: int64, text: string };
            CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
            CREATE TYPE WordType AS OPEN { wid: int64, country: string, word: string };
            CREATE DATASET Words(WordType) PRIMARY KEY wid;
            "#,
        )
        .unwrap();

    let mut rng = StdRng::seed_from_u64(seed);
    let tweets = session.catalog().dataset("Tweets").unwrap();
    for id in 0..600i64 {
        tweets.insert(tweet(&mut rng, id)).unwrap();
    }
    let words = session.catalog().dataset("Words").unwrap();
    for wid in 0..20i64 {
        let country = COUNTRIES[rng.random_range(0..COUNTRIES.len())];
        words
            .insert(Value::object([
                ("wid", Value::Int(wid)),
                ("country", Value::str(country)),
                ("word", Value::str(format!("topic{}", wid % 8))),
            ]))
            .unwrap();
    }
    (engine, session, oracle)
}

fn tweet(rng: &mut StdRng, id: i64) -> Value {
    let country = COUNTRIES[rng.random_range(0..COUNTRIES.len())];
    let score = rng.random_range(0..100i64);
    let text = format!("tweet {id} from {country} mentions topic{}", rng.random_range(0..8u32));
    Value::object([
        ("id", Value::Int(id)),
        ("country", Value::str(country)),
        ("score", Value::Int(score)),
        ("text", Value::str(&text)),
    ])
}

/// A randomized query workload over the tweet/word schema.
fn workload(rng: &mut StdRng, n: usize) -> Vec<String> {
    let mut queries = Vec::with_capacity(n);
    for _ in 0..n {
        let cutoff = rng.random_range(5..95i64);
        let limit = rng.random_range(1..40usize);
        let country = COUNTRIES[rng.random_range(0..COUNTRIES.len())];
        let q = match rng.random_range(0..10u32) {
            // Plain scan with a pushed-down filter.
            0 => format!("SELECT VALUE t.id FROM Tweets t WHERE t.score < {cutoff}"),
            // ORDER BY the primary key + LIMIT.
            1 => format!(
                "SELECT t.id AS id, t.score AS score FROM Tweets t \
                 WHERE t.score >= {cutoff} ORDER BY t.id LIMIT {limit}"
            ),
            // GROUP BY with multiple aggregates.
            2 => format!(
                "SELECT t.country AS c, count(*) AS n, sum(t.score) AS total \
                 FROM Tweets t WHERE t.score < {cutoff} \
                 GROUP BY t.country ORDER BY t.country"
            ),
            // GROUP BY with HAVING and avg.
            3 => format!(
                "SELECT t.country AS c, avg(t.score) AS mean FROM Tweets t \
                 GROUP BY t.country HAVING count(*) > {limit} ORDER BY t.country"
            ),
            // Join against the reference dataset.
            4 => format!(
                "SELECT t.id AS id, w.word AS word FROM Tweets t, Words w \
                 WHERE t.country = w.country AND contains(t.text, w.word) \
                 AND t.score < {cutoff}"
            ),
            // Aggregates without GROUP BY (single implicit group).
            5 => format!(
                "SELECT count(*) AS n, min(t.score) AS lo, max(t.score) AS hi \
                 FROM Tweets t WHERE t.country = \"{country}\""
            ),
            // DISTINCT projection.
            6 => format!("SELECT DISTINCT VALUE t.country FROM Tweets t WHERE t.score < {cutoff}"),
            // LIMIT without ORDER BY: the first rows in scan order.
            7 => format!("SELECT VALUE t.id FROM Tweets t WHERE t.score > {cutoff} LIMIT {limit}"),
            // Unordered GROUP BY: groups in first-seen order.
            8 => "SELECT t.country AS c, count(*) AS n FROM Tweets t GROUP BY t.country".into(),
            // Grouped join: flagged tweet counts per word.
            _ => "SELECT w.word AS word, count(*) AS n FROM Tweets t, Words w \
                  WHERE t.country = w.country AND contains(t.text, w.word) \
                  GROUP BY w.word ORDER BY w.word"
                .to_string(),
        };
        queries.push(q);
    }
    queries
}

/// Runs `q` on the fan-out session and the oracle, asserting identical
/// results (row order included).
fn check(session: &Session, oracle: &Session, q: &str) {
    let want = oracle.query(q).unwrap_or_else(|e| panic!("oracle failed for {q}: {e}"));
    let got = session.query(q).unwrap_or_else(|e| panic!("fan-out failed for {q}: {e}"));
    assert_eq!(format!("{got}"), format!("{want}"), "executors disagree on: {q}");
}

#[test]
fn parallel_matches_sequential_on_randomized_workload() {
    let (_engine, session, oracle) = setup(42);
    let mut rng = StdRng::seed_from_u64(7);
    for q in workload(&mut rng, 80) {
        check(&session, &oracle, &q);
    }
    // An evaluation error in the scan surfaces from the fan-out too.
    let q = "SELECT VALUE t.id FROM Tweets t WHERE t.score > 50 AND NOT t.text";
    let (want, got) = (oracle.query(q).unwrap_err(), session.query(q).unwrap_err());
    assert_eq!(got.to_string(), want.to_string());
}

#[test]
fn repeated_query_reuses_one_cached_plan() {
    let (engine, session, oracle) = setup(3);
    // One parsed statement, executed many times: its block is planned
    // and vectorized once, and every execution gives the same answer.
    let q = "SELECT t.country AS c, count(*) AS n FROM Tweets t GROUP BY t.country";
    let want = oracle.query(q).unwrap();
    let stmts = idea::query::parser::parse_statements(q).unwrap();
    for _ in 0..5 {
        let v = session.execute(&stmts[0]).unwrap().into_value().unwrap();
        assert_eq!(v, want);
    }
    let snap = engine.metrics().snapshot();
    assert_eq!(snap.gauge(names::QUERY_VEC_PLANS), Some(1), "expected exactly one cached plan");
}

#[test]
fn node_kill_leaves_answers_correct() {
    let (engine, session, oracle) = setup(99);
    let mut rng = StdRng::seed_from_u64(13);

    // Queries read storage in-process, so a killed node (which fails
    // the ingestion jobs pinned to it) must not change any answer.
    engine.cluster().kill_node(2);
    for q in workload(&mut rng, 12) {
        check(&session, &oracle, &q);
    }
    engine.cluster().restore_node(2);
    for q in workload(&mut rng, 8) {
        check(&session, &oracle, &q);
    }
}

#[test]
fn ddl_between_executions_gives_fresh_answers() {
    let (_engine, session, oracle) = setup(5);
    let q = "SELECT VALUE t.id FROM Tweets t WHERE t.country = \"US\"";
    let stmts = idea::query::parser::parse_statements(q).unwrap();
    let v1 = session.execute(&stmts[0]).unwrap().into_value().unwrap();
    assert_eq!(v1, oracle.query(q).unwrap());

    // DDL moves the catalog version: the cached plan is stale (it may
    // pick a different access path now). New rows must show up too.
    session.run_script("CREATE INDEX tc ON Tweets(country) TYPE BTREE;").unwrap();
    let tweets = session.catalog().dataset("Tweets").unwrap();
    let mut rng = StdRng::seed_from_u64(6);
    for id in 600..700i64 {
        tweets.insert(tweet(&mut rng, id)).unwrap();
    }
    let v2 = session.execute(&stmts[0]).unwrap().into_value().unwrap();
    assert_eq!(v2, oracle.query(q).unwrap());
    let n = |v: &Value| v.as_array().unwrap().len();
    assert!(n(&v2) > n(&v1), "rows inserted after the DDL are missing");
}
