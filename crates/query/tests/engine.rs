//! End-to-end query engine tests built around the paper's own UDFs.

use std::sync::Arc;

use idea_adm::Value;
use idea_query::catalog::Catalog;
use idea_query::{PlanCache, Session, SessionConfig, StatementResult};

fn run_sqlpp(catalog: &Arc<Catalog>, text: &str) -> idea_query::Result<Vec<StatementResult>> {
    Session::new(catalog.clone()).run_script(text)
}

fn run_query(catalog: &Arc<Catalog>, text: &str) -> idea_query::Result<Value> {
    Session::new(catalog.clone()).query(text)
}
use idea_query::ast::Statement;
use idea_query::exec::{Env, ExecContext};
use idea_query::expr::apply_function;
use idea_query::parser::{self, parse_query};
use idea_query::{eval_expr, QueryError};

fn tweet(id: i64, country: &str, text: &str) -> Value {
    Value::object([
        ("id", Value::Int(id)),
        ("country", Value::str(country)),
        ("text", Value::str(text)),
    ])
}

fn setup_words(partitions: usize) -> Arc<Catalog> {
    let c = Catalog::new(partitions);
    run_sqlpp(
        &c,
        r#"
        CREATE TYPE TweetType AS OPEN { id: int64, text: string };
        CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
        CREATE TYPE WordType AS OPEN { wid: int64, country: string, word: string };
        CREATE DATASET SensitiveWords(WordType) PRIMARY KEY wid;
        INSERT INTO SensitiveWords ([
            {"wid": 1, "country": "US", "word": "bomb"},
            {"wid": 2, "country": "US", "word": "attack"},
            {"wid": 3, "country": "FR", "word": "bombe"}
        ]);
        "#,
    )
    .unwrap();
    c
}

#[test]
fn figure_6_stateless_udf() {
    let c = Catalog::new(1);
    run_sqlpp(
        &c,
        r#"CREATE FUNCTION USTweetSafetyCheck(tweet) {
             LET safety_check_flag =
               CASE tweet.country = "US" AND contains(tweet.text, "bomb")
               WHEN true THEN "Red" ELSE "Green"
               END
             SELECT tweet.*, safety_check_flag
           };"#,
    )
    .unwrap();
    let mut ctx = ExecContext::new(c.clone());
    let out = apply_function(&mut ctx, "USTweetSafetyCheck", &[tweet(1, "US", "a bomb")]).unwrap();
    let arr = out.as_array().unwrap();
    assert_eq!(arr.len(), 1);
    let o = arr[0].as_object().unwrap();
    assert_eq!(o.get("safety_check_flag"), Some(&Value::str("Red")));
    assert_eq!(o.get("id"), Some(&Value::Int(1)));

    let out = apply_function(&mut ctx, "USTweetSafetyCheck", &[tweet(2, "FR", "a bomb")]).unwrap();
    let o = out.as_array().unwrap()[0].as_object().unwrap().clone();
    assert_eq!(o.get("safety_check_flag"), Some(&Value::str("Green")));
}

#[test]
fn figure_8_stateful_udf_hash_join() {
    let c = setup_words(2);
    run_sqlpp(
        &c,
        r#"CREATE FUNCTION tweetSafetyCheck(tweet) {
             LET safety_check_flag = CASE
               EXISTS(SELECT s FROM SensitiveWords s
                      WHERE tweet.country = s.country AND
                            contains(tweet.text, s.word))
               WHEN true THEN "Red" ELSE "Green"
             END
             SELECT tweet.*, safety_check_flag
           };"#,
    )
    .unwrap();
    let mut ctx = ExecContext::new(c.clone());
    let cases = [
        (tweet(1, "US", "there is a bomb"), "Red"),
        (tweet(2, "US", "nice day"), "Green"),
        (tweet(3, "FR", "une bombe"), "Red"),
        (tweet(4, "FR", "there is a bomb"), "Green"), // "bomb" not listed for FR... but "bombe" contains? no: text "there is a bomb" does not contain "bombe"
        (tweet(5, "DE", "bombe"), "Green"),
    ];
    for (t, want) in cases {
        let out = apply_function(&mut ctx, "tweetSafetyCheck", std::slice::from_ref(&t)).unwrap();
        let o = out.as_array().unwrap()[0].as_object().unwrap().clone();
        assert_eq!(o.get("safety_check_flag"), Some(&Value::str(want)), "tweet {t}");
    }
    // One hash build serves all records in the context (Model 2's
    // per-batch intermediate state).
    assert_eq!(ctx.stats.hash_builds, 1);
    assert_eq!(ctx.stats.hash_probes, 5);
}

#[test]
fn stateful_udf_sees_updates_across_contexts_not_within() {
    let c = setup_words(1);
    run_sqlpp(
        &c,
        r#"CREATE FUNCTION flag(tweet) {
             SELECT VALUE EXISTS(SELECT s FROM SensitiveWords s
                                 WHERE tweet.country = s.country
                                   AND contains(tweet.text, s.word))
           };"#,
    )
    .unwrap();
    let t = tweet(1, "DE", "ein gewehr");
    let mut ctx = ExecContext::new(c.clone());
    let before = apply_function(&mut ctx, "flag", std::slice::from_ref(&t)).unwrap();
    assert_eq!(before.as_array().unwrap()[0], Value::Bool(false));

    // Reference-data update arrives mid-batch.
    run_sqlpp(
        &c,
        r#"UPSERT INTO SensitiveWords ([{"wid": 9, "country": "DE", "word": "gewehr"}]);"#,
    )
    .unwrap();

    // Same context (same computing job): stale build side, still false.
    let same = apply_function(&mut ctx, "flag", std::slice::from_ref(&t)).unwrap();
    assert_eq!(same.as_array().unwrap()[0], Value::Bool(false));

    // Fresh context (next computing job): sees the update.
    let mut ctx2 = ExecContext::new(c.clone());
    let after = apply_function(&mut ctx2, "flag", &[t]).unwrap();
    assert_eq!(after.as_array().unwrap()[0], Value::Bool(true));
}

#[test]
fn figure_18_top_k_subquery_cached() {
    let c = setup_words(1);
    run_sqlpp(
        &c,
        r#"CREATE FUNCTION highRiskTweetCheck(t) {
             LET high_risk_flag = CASE
               t.country IN (SELECT VALUE s.country
                             FROM SensitiveWords s
                             GROUP BY s.country
                             ORDER BY count(s) DESC
                             LIMIT 1)
               WHEN true THEN "Red" ELSE "Green"
             END
             SELECT t.*, high_risk_flag
           };"#,
    )
    .unwrap();
    let mut ctx = ExecContext::new(c.clone());
    // US has 2 keywords, FR has 1 → top-1 = US.
    for (t, want) in
        [(tweet(1, "US", "x"), "Red"), (tweet(2, "FR", "x"), "Green"), (tweet(3, "US", "y"), "Red")]
    {
        let out = apply_function(&mut ctx, "highRiskTweetCheck", &[t]).unwrap();
        let o = out.as_array().unwrap()[0].as_object().unwrap().clone();
        assert_eq!(o.get("high_risk_flag"), Some(&Value::str(want)));
    }
    // The top-k subquery is uncorrelated: computed once, then cached.
    assert!(ctx.stats.subquery_cache_hits >= 2, "stats: {:?}", ctx.stats);
}

#[test]
fn figure_32_safety_rating_join() {
    let c = Catalog::new(2);
    run_sqlpp(
        &c,
        r#"
        CREATE TYPE SafetyRatingType AS OPEN { country_code: string, safety_rating: string };
        CREATE DATASET SafetyRatings(SafetyRatingType) PRIMARY KEY country_code;
        INSERT INTO SafetyRatings ([
            {"country_code": "US", "safety_rating": "B"},
            {"country_code": "FR", "safety_rating": "A"}
        ]);
        CREATE FUNCTION enrichTweetQ1(t) {
            LET safety_rating = (SELECT VALUE s.safety_rating
                                 FROM SafetyRatings s
                                 WHERE t.country = s.country_code)
            SELECT t.*, safety_rating
        };
        "#,
    )
    .unwrap();
    let mut ctx = ExecContext::new(c.clone());
    let out = apply_function(&mut ctx, "enrichTweetQ1", &[tweet(1, "FR", "x")]).unwrap();
    let o = out.as_array().unwrap()[0].as_object().unwrap().clone();
    assert_eq!(o.get("safety_rating"), Some(&Value::Array(vec![Value::str("A")])));
}

#[test]
fn figure_33_sum_aggregate() {
    let c = Catalog::new(1);
    run_sqlpp(
        &c,
        r#"
        CREATE TYPE RType AS OPEN { rid: string, country_name: string, religion_name: string, population: int64 };
        CREATE DATASET ReligiousPopulations(RType) PRIMARY KEY rid;
        INSERT INTO ReligiousPopulations ([
            {"rid": "1", "country_name": "US", "religion_name": "a", "population": 10},
            {"rid": "2", "country_name": "US", "religion_name": "b", "population": 32},
            {"rid": "3", "country_name": "FR", "religion_name": "a", "population": 7}
        ]);
        CREATE FUNCTION enrichTweetQ2(t) {
            LET religious_population =
               (SELECT sum(r.population) AS total FROM ReligiousPopulations r
                WHERE r.country_name = t.country)[0].total
            SELECT t.*, religious_population
        };
        "#,
    )
    .unwrap();
    let mut ctx = ExecContext::new(c.clone());
    let out = apply_function(&mut ctx, "enrichTweetQ2", &[tweet(1, "US", "x")]).unwrap();
    let o = out.as_array().unwrap()[0].as_object().unwrap().clone();
    assert_eq!(o.get("religious_population"), Some(&Value::Int(42)));
}

#[test]
fn figure_34_largest_religions_orderby_limit() {
    let c = Catalog::new(1);
    run_sqlpp(
        &c,
        r#"
        CREATE TYPE RType AS OPEN { rid: string, country_name: string, religion_name: string, population: int64 };
        CREATE DATASET ReligiousPopulations(RType) PRIMARY KEY rid;
        INSERT INTO ReligiousPopulations ([
            {"rid": "1", "country_name": "US", "religion_name": "small", "population": 1},
            {"rid": "2", "country_name": "US", "religion_name": "big", "population": 100},
            {"rid": "3", "country_name": "US", "religion_name": "mid", "population": 50},
            {"rid": "4", "country_name": "US", "religion_name": "tiny", "population": 0},
            {"rid": "5", "country_name": "FR", "religion_name": "other", "population": 999}
        ]);
        CREATE FUNCTION enrichTweetQ3(t) {
            LET largest_religions =
               (SELECT VALUE r.religion_name
                FROM ReligiousPopulations r
                WHERE r.country_name = t.country
                ORDER BY r.population DESC LIMIT 3)
            SELECT t.*, largest_religions
        };
        "#,
    )
    .unwrap();
    let mut ctx = ExecContext::new(c.clone());
    let out = apply_function(&mut ctx, "enrichTweetQ3", &[tweet(1, "US", "x")]).unwrap();
    let o = out.as_array().unwrap()[0].as_object().unwrap().clone();
    assert_eq!(
        o.get("largest_religions"),
        Some(&Value::Array(vec![Value::str("big"), Value::str("mid"), Value::str("small")]))
    );
}

#[test]
fn figure_36_fuzzy_suspects_similarity_join() {
    let c = Catalog::new(1);
    run_sqlpp(
        &c,
        r#"
        CREATE TYPE SType AS OPEN { sid: int64, sensitiveName: string, religionName: string };
        CREATE DATASET SensitiveNamesDataset(SType) PRIMARY KEY sid;
        INSERT INTO SensitiveNamesDataset ([
            {"sid": 1, "sensitiveName": "johnsmith", "religionName": "x"},
            {"sid": 2, "sensitiveName": "completelydifferent", "religionName": "y"}
        ]);
        CREATE FUNCTION annotateTweetQ4(x) {
            LET related_suspects = (
                SELECT s.sensitiveName, s.religionName
                FROM SensitiveNamesDataset s
                WHERE edit_distance(removeSpecial(x.user.screen_name), s.sensitiveName) < 5)
            SELECT x.*, related_suspects
        };
        "#,
    )
    .unwrap();
    // The "Java UDF" for special-character removal (paper Figure 35).
    c.register_native_function(
        "removeSpecial",
        1,
        Arc::new(|| {
            Box::new(|args: &[Value]| {
                let s = args[0]
                    .as_str()
                    .ok_or_else(|| QueryError::Eval("removeSpecial expects a string".into()))?;
                Ok(Value::str(idea_adm::functions::string::remove_special(s)))
            })
        }),
    )
    .unwrap();
    let t = Value::object([
        ("id", Value::Int(1)),
        ("user", Value::object([("screen_name", Value::str("John_Sm1th!"))])),
    ]);
    let mut ctx = ExecContext::new(c.clone());
    let out = apply_function(&mut ctx, "annotateTweetQ4", &[t]).unwrap();
    let o = out.as_array().unwrap()[0].as_object().unwrap().clone();
    let suspects = o.get("related_suspects").unwrap().as_array().unwrap();
    assert_eq!(suspects.len(), 1);
    assert_eq!(
        suspects[0].as_object().unwrap().get("sensitiveName"),
        Some(&Value::str("johnsmith"))
    );
    assert!(ctx.stats.native_inits == 1);
}

#[test]
fn figure_37_nearby_monuments_rtree() {
    let c = Catalog::new(2);
    run_sqlpp(
        &c,
        r#"
        CREATE TYPE monumentType AS OPEN { monument_id: string, monument_location: point };
        CREATE DATASET monumentList(monumentType) PRIMARY KEY monument_id;
        CREATE INDEX monLoc ON monumentList(monument_location) TYPE RTREE;
        "#,
    )
    .unwrap();
    let ds = c.dataset("monumentList").unwrap();
    for i in 0..100 {
        ds.insert(Value::object([
            ("monument_id", Value::str(format!("m{i}"))),
            ("monument_location", Value::point(i as f64, 0.0)),
        ]))
        .unwrap();
    }
    run_sqlpp(
        &c,
        r#"CREATE FUNCTION enrichTweetQ4(t) {
            LET nearby_monuments =
               (SELECT VALUE m.monument_id
                FROM monumentList m
                WHERE spatial_intersect(
                    m.monument_location,
                    create_circle(create_point(t.latitude, t.longitude), 1.5)))
            SELECT t.*, nearby_monuments
        };"#,
    )
    .unwrap();
    let t = Value::object([
        ("id", Value::Int(1)),
        ("latitude", Value::Double(50.0)),
        ("longitude", Value::Double(0.0)),
    ]);
    let mut ctx = ExecContext::new(c.clone());
    let out = apply_function(&mut ctx, "enrichTweetQ4", &[t]).unwrap();
    let o = out.as_array().unwrap()[0].as_object().unwrap().clone();
    let mut ids: Vec<String> = o
        .get("nearby_monuments")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_str().unwrap().to_owned())
        .collect();
    ids.sort();
    assert_eq!(ids, vec!["m49", "m50", "m51"]);
    assert!(ctx.stats.index_probes >= 1, "R-tree INLJ should be used");
    assert_eq!(ctx.stats.hash_builds, 0);
}

#[test]
fn analytical_query_figure_9_style() {
    let c = setup_words(1);
    let tweets = c.dataset("Tweets").unwrap();
    for (i, (country, text)) in [
        ("US", "bomb here"),
        ("US", "sunny"),
        ("US", "attack now"),
        ("FR", "bombe"),
        ("FR", "paisible"),
    ]
    .iter()
    .enumerate()
    {
        tweets.insert(tweet(i as i64, country, text)).unwrap();
    }
    run_sqlpp(
        &c,
        r#"CREATE FUNCTION tweetSafetyCheck(tweet) {
             LET safety_check_flag = CASE
               EXISTS(SELECT s FROM SensitiveWords s
                      WHERE tweet.country = s.country AND contains(tweet.text, s.word))
               WHEN true THEN "Red" ELSE "Green"
             END
             SELECT tweet.*, safety_check_flag
           };"#,
    )
    .unwrap();
    let v = run_query(
        &c,
        r#"SELECT tweet.country Country, count(tweet) Num
           FROM Tweets tweet
           LET enrichedTweet = tweetSafetyCheck(tweet)[0]
           WHERE enrichedTweet.safety_check_flag = "Red"
           GROUP BY tweet.country
           ORDER BY tweet.country"#,
    )
    .unwrap();
    let rows = v.as_array().unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].as_object().unwrap().get("Country"), Some(&Value::str("FR")));
    assert_eq!(rows[0].as_object().unwrap().get("Num"), Some(&Value::Int(1)));
    assert_eq!(rows[1].as_object().unwrap().get("Country"), Some(&Value::str("US")));
    assert_eq!(rows[1].as_object().unwrap().get("Num"), Some(&Value::Int(2)));
}

#[test]
fn delete_and_not_in() {
    let c = setup_words(1);
    run_sqlpp(&c, r#"DELETE FROM SensitiveWords s WHERE s.country = "US";"#).unwrap();
    let v = run_query(&c, "SELECT VALUE s.word FROM SensitiveWords s").unwrap();
    assert_eq!(v.as_array().unwrap().len(), 1);
}

#[test]
fn group_by_alias() {
    let c = setup_words(1);
    let v = run_query(
        &c,
        "SELECT c AS country, count(*) AS n FROM SensitiveWords s GROUP BY s.country AS c ORDER BY c",
    )
    .unwrap();
    let rows = v.as_array().unwrap();
    assert_eq!(rows.len(), 2);
    let first = rows[0].as_object().unwrap();
    assert_eq!(first.get("country"), Some(&Value::str("FR")));
    assert_eq!(first.get("n"), Some(&Value::Int(1)));
}

#[test]
fn having_filters_groups() {
    let c = setup_words(1);
    let v = run_query(
        &c,
        "SELECT s.country, count(*) AS n FROM SensitiveWords s
         GROUP BY s.country HAVING count(*) > 1",
    )
    .unwrap();
    let rows = v.as_array().unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].as_object().unwrap().get("country"), Some(&Value::str("US")));
}

#[test]
fn empty_aggregate_semantics() {
    let c = setup_words(1);
    let v = run_query(
        &c,
        r#"SELECT count(s) AS n, sum(s.wid) AS total FROM SensitiveWords s WHERE s.country = "XX""#,
    )
    .unwrap();
    let rows = v.as_array().unwrap();
    assert_eq!(rows.len(), 1);
    let o = rows[0].as_object().unwrap();
    assert_eq!(o.get("n"), Some(&Value::Int(0)));
    assert_eq!(o.get("total"), Some(&Value::Null));
}

#[test]
fn prepared_parameter() {
    let c = setup_words(1);
    let q = parse_query("SELECT VALUE s.word FROM SensitiveWords s WHERE s.country = $x").unwrap();
    let mut ctx = ExecContext::new(c.clone());
    ctx.set_param("x", Value::str("FR"));
    let out = eval_expr(&idea_query::ast::Expr::Subquery(q), &Env::new(), &mut ctx).unwrap();
    assert_eq!(out, Value::Array(vec![Value::str("bombe")]));
}

#[test]
fn insert_duplicate_key_fails() {
    let c = setup_words(1);
    let err =
        run_sqlpp(&c, r#"INSERT INTO SensitiveWords ([{"wid": 1, "country": "X", "word": "y"}]);"#);
    assert!(err.is_err());
    // UPSERT succeeds.
    let r =
        run_sqlpp(&c, r#"UPSERT INTO SensitiveWords ([{"wid": 1, "country": "X", "word": "y"}]);"#)
            .unwrap();
    assert_eq!(r[0], StatementResult::Count(1));
}

#[test]
fn feed_statement_rejected_by_query_engine() {
    let c = Catalog::new(1);
    assert!(run_sqlpp(&c, "START FEED f;").is_err());
}

#[test]
fn from_let_variable() {
    let c = Catalog::new(1);
    let v = run_query(
        &c,
        r#"LET TweetsBatch = ([{"id": 0, "v": 2}, {"id": 1, "v": 3}])
           SELECT VALUE t.v FROM TweetsBatch t"#,
    );
    // LET-before-SELECT without FROM evaluates lets once; FROM then
    // iterates the bound array.
    let v = v.unwrap();
    let arr = v.as_array().unwrap();
    assert_eq!(arr.len(), 2);
}

#[test]
fn select_distinct() {
    let c = setup_words(1);
    let v =
        run_query(&c, "SELECT DISTINCT VALUE s.country FROM SensitiveWords s ORDER BY s.country")
            .unwrap();
    assert_eq!(v, Value::Array(vec![Value::str("FR"), Value::str("US")]));
    // DISTINCT over projections dedups whole objects.
    let v = run_query(&c, "SELECT DISTINCT s.country AS c FROM SensitiveWords s").unwrap();
    assert_eq!(v.as_array().unwrap().len(), 2);
    // LIMIT applies after DISTINCT.
    let v = run_query(
        &c,
        "SELECT DISTINCT VALUE s.country FROM SensitiveWords s ORDER BY s.country LIMIT 1",
    )
    .unwrap();
    assert_eq!(v.as_array().unwrap().len(), 1);
}

#[test]
fn new_builtins_in_queries() {
    let c = setup_words(1);
    let v = run_query(
        &c,
        r#"SELECT VALUE substring(uppercase(s.word), 0, 3) FROM SensitiveWords s WHERE s.wid = 1"#,
    )
    .unwrap();
    assert_eq!(v, Value::Array(vec![Value::str("BOM")]));
    let v = run_query(&c, "SELECT VALUE array_sum([1, 2, 3.5])").unwrap();
    assert_eq!(v.as_array().unwrap()[0], Value::Double(6.5));
}

#[test]
fn three_valued_logic() {
    let c = Catalog::new(1);
    let v = run_query(&c, "SELECT VALUE missing = 1").unwrap();
    assert_eq!(v.as_array().unwrap()[0], Value::Missing);
    let v = run_query(&c, "SELECT VALUE null = null").unwrap();
    assert_eq!(v.as_array().unwrap()[0], Value::Null);
    let v = run_query(&c, "SELECT VALUE false AND null").unwrap();
    assert_eq!(v.as_array().unwrap()[0], Value::Bool(false));
    let v = run_query(&c, "SELECT VALUE true OR null").unwrap();
    assert_eq!(v.as_array().unwrap()[0], Value::Bool(true));
    let v = run_query(&c, "SELECT VALUE true AND null").unwrap();
    assert_eq!(v.as_array().unwrap()[0], Value::Null);
}

// ---- DDL invalidation of cached plans (Session + ExecContext) --------

#[test]
fn refresh_replans_after_create_and_drop_index() {
    use idea_query::plan::AccessPath;

    let c = setup_words(2);
    let block = parse_query(
        r#"SELECT VALUE w.word FROM SensitiveWords /*+ indexnl */ w WHERE w.country = ctry"#,
    )
    .unwrap();
    let block = &block;

    let mut ctx = ExecContext::new(c.clone());
    let plan = ctx.plan_for(block).unwrap();
    assert!(!matches!(plan.from_order[0].path, AccessPath::IndexEq { .. }), "no index exists yet");

    run_sqlpp(&c, "CREATE INDEX swCountry ON SensitiveWords(country) TYPE BTREE;").unwrap();
    // Without refresh the stale plan would survive inside this context's
    // shared cache; refresh validates against the catalog version.
    ctx.refresh();
    let plan = ctx.plan_for(block).unwrap();
    assert!(
        matches!(plan.from_order[0].path, AccessPath::IndexEq { .. }),
        "CREATE INDEX must invalidate the cached plan, got {:?}",
        plan.from_order[0].path
    );

    c.drop_index("SensitiveWords", "swCountry").unwrap();
    ctx.refresh();
    let plan = ctx.plan_for(block).unwrap();
    assert!(
        !matches!(plan.from_order[0].path, AccessPath::IndexEq { .. }),
        "DROP INDEX must invalidate the index-probing plan"
    );
}

#[test]
fn session_plan_cache_tracks_index_ddl_across_statements() {
    let c = setup_words(2);
    let session = Session::new(c);
    session
        .run_script(
            r#"CREATE FUNCTION wordsFor(ctry) {
                SELECT VALUE w.word FROM SensitiveWords /*+ indexnl */ w WHERE w.country = ctry
            };"#,
        )
        .unwrap();

    // First call caches the function body's plan (no index yet).
    let v = session.query(r#"SELECT VALUE wordsFor("US")"#).unwrap();
    assert_eq!(v.as_array().unwrap()[0].as_array().unwrap().len(), 2);
    assert_eq!(session.last_stats().index_probes, 0);

    // CREATE INDEX moves the catalog version: the next call must replan
    // and probe the new index (a stale plan would keep hash-building).
    session
        .run_script("CREATE INDEX swCountry ON SensitiveWords(country) TYPE BTREE;")
        .unwrap();
    let v = session.query(r#"SELECT VALUE wordsFor("US")"#).unwrap();
    assert_eq!(v.as_array().unwrap()[0].as_array().unwrap().len(), 2);
    assert!(session.last_stats().index_probes > 0, "expected the new index to be probed");

    // DROP INDEX: a stale IndexEq plan would now probe a dead index.
    session.run_script("DROP INDEX SensitiveWords.swCountry;").unwrap();
    let v = session.query(r#"SELECT VALUE wordsFor("US")"#).unwrap();
    assert_eq!(v.as_array().unwrap()[0].as_array().unwrap().len(), 2);
    assert_eq!(session.last_stats().index_probes, 0);
}

#[test]
fn drop_statements_parse_and_execute() {
    let c = setup_words(1);
    let session = Session::new(c);
    assert!(session.query("SELECT VALUE w.wid FROM SensitiveWords w").is_ok());

    session.run_script("DROP DATASET SensitiveWords;").unwrap();
    assert!(session.catalog().dataset("SensitiveWords").is_err());
    assert!(session.query("SELECT VALUE w.wid FROM SensitiveWords w").is_err());
    // Dropping again (or dropping an index on a gone dataset) errors.
    assert!(session.run_script("DROP DATASET SensitiveWords;").is_err());
    assert!(session.run_script("DROP INDEX SensitiveWords.x;").is_err());
    // Unknown DROP targets are syntax errors.
    assert!(matches!(session.run_script("DROP TABLE SensitiveWords;"), Err(QueryError::Syntax(_))));
}

#[test]
fn session_params_feed_prepared_statements() {
    let c = setup_words(1);
    let session = Session::new(c);
    session.set_param("ctry", Value::str("FR"));
    let v = session
        .query(r#"SELECT VALUE w.word FROM SensitiveWords w WHERE w.country = $ctry"#)
        .unwrap();
    assert_eq!(v.as_array().unwrap(), &[Value::str("bombe")]);
    session.set_param("ctry", Value::str("US"));
    let v = session
        .query(r#"SELECT VALUE w.word FROM SensitiveWords w WHERE w.country = $ctry"#)
        .unwrap();
    assert_eq!(v.as_array().unwrap().len(), 2);
    session.clear_params();
}

#[test]
fn session_config_builder_applies_up_front() {
    let c = setup_words(1);
    let session = idea_query::SessionConfig::new()
        .tenant("t1")
        .result_batch_size(2)
        .param("ctry", Value::str("US"))
        .build(c);
    assert_eq!(session.tenant(), Some("t1"));
    assert_eq!(session.result_batch_size(), 2);
    let v = session
        .query(r#"SELECT VALUE w.word FROM SensitiveWords w WHERE w.country = $ctry"#)
        .unwrap();
    assert_eq!(v.as_array().unwrap().len(), 2);
}

/// A dataset of `n` records on disk in the columnar layout, sealed into
/// one component per partition (the shape whose pages a scan slices),
/// plus a UDF for the row-path inputs.
fn setup_streaming(tmp: &idea_storage::TempDir, n: i64) -> Arc<Catalog> {
    let c = Catalog::new(2);
    c.set_storage_root(tmp.path()).unwrap();
    run_sqlpp(
        &c,
        r#"
        CREATE TYPE T AS OPEN { id: int64 };
        CREATE DATASET Mem(T) PRIMARY KEY id;
        CREATE DATASET Col(T) PRIMARY KEY id
            WITH {"storage": "disk", "fsync": "never", "layout": "columnar"};
        CREATE FUNCTION bump(x) { x.id + 1 };
        "#,
    )
    .unwrap();
    for name in ["Mem", "Col"] {
        let ds = c.dataset(name).unwrap();
        for i in 0..n {
            ds.upsert(Value::object([
                ("id", Value::Int(i)),
                ("grp", Value::str(["a", "b", "c"][(i % 3) as usize])),
                ("m", Value::object([("x", Value::Int(i % 10))])),
            ]))
            .unwrap();
        }
    }
    for p in c.dataset("Col").unwrap().partitions() {
        p.flush();
        p.merge();
    }
    c
}

#[test]
fn streamed_results_match_query_and_row_oracle() {
    const BATCH: usize = 16;
    let tmp = idea_storage::TempDir::new("engine-streaming");
    let c = setup_streaming(&tmp, 3_000);
    let session = SessionConfig::new().result_batch_size(BATCH).param("g", Value::str("b"));
    let session = session.build(c.clone());
    let oracle = SessionConfig::new().param("g", Value::str("b")).vectorize(false).build(c);

    // (query, whether it streams off the driver scan)
    let cases = [
        ("SELECT VALUE t.id FROM Mem t WHERE t.id >= 2500", true), // kernel
        ("SELECT VALUE t.id FROM Mem t WHERE t.grp = $g", true),
        ("LET lo = 2990 SELECT VALUE t.id FROM Mem t WHERE t.id > lo", true),
        ("SELECT VALUE s FROM Mem t LET s = t.id * 2 WHERE s < 90", true),
        ("SELECT VALUE bump(t) FROM Mem t WHERE t.id < 40", true),
        ("SELECT VALUE t.id FROM Mem t WHERE bump(t) > 2960", true),
        ("SELECT VALUE t.id FROM Mem t WHERE t.m.x = 3", true),
        ("SELECT VALUE t FROM Mem t WHERE t.id > 100 LIMIT 37", true),
        ("SELECT VALUE t.id FROM Col t WHERE t.id >= 2950", true),
        ("SELECT t.id AS i, t.grp AS g FROM Col t WHERE t.grp = $g LIMIT 50", true),
        // Not streamable: materialized and re-chunked, same rows.
        ("SELECT VALUE t.id FROM Mem t WHERE t.id < 50 ORDER BY t.id DESC", false),
        ("SELECT t.grp AS g, count(*) AS n FROM Mem t GROUP BY t.grp", false),
    ];
    for (q, streams) in cases {
        let want = oracle.query(q).unwrap();
        assert_eq!(session.query(q).unwrap(), want, "Session::query: {q}");
        let mut stream = session.query_stream(q).unwrap();
        assert_eq!(stream.is_streaming(), streams, "{q}");
        let mut rows = Vec::new();
        while let Some(mut b) = stream.next_batch().unwrap() {
            assert!(!b.is_empty() && b.len() <= BATCH, "{q}: batch of {}", b.len());
            rows.append(&mut b);
        }
        assert_eq!(Value::Array(rows), want, "query_stream: {q}");
        if streams {
            assert!(stream.peak_resident() <= BATCH, "{q}: peak {}", stream.peak_resident());
        }
    }

    // The columnar input skips pages by footer stats on the same code
    // path the stream takes.
    session.query("SELECT VALUE t.id FROM Col t WHERE t.id >= 2950").unwrap();
    let s = session.last_stats();
    assert!(s.columnar_pages_skipped > 0, "no page skipped: {s:?}");

    // LIMIT stops the scan early; row-at-a-time iteration sees the same
    // rows as batches.
    let limited: Vec<Value> = session
        .query_stream("SELECT VALUE t.id FROM Mem t LIMIT 3")
        .unwrap()
        .map(Result::unwrap)
        .collect();
    assert_eq!(limited.len(), 3);
}

#[test]
fn plan_cache_stays_bounded_across_distinct_query_texts() {
    let c = setup_words(1);
    let cache = PlanCache::new();
    let session = SessionConfig::new().shared_plan_cache(cache.clone()).build(c);
    let words = [None, Some("bomb"), Some("attack"), Some("bombe")];
    for i in 0..5_000i64 {
        let wid = i % 4;
        let q = format!(
            "SELECT VALUE w.word FROM SensitiveWords w WHERE w.wid = {wid} AND w.wid < {}",
            i + 10
        );
        let want: Vec<Value> = words[wid as usize].map(Value::str).into_iter().collect();
        assert_eq!(session.query(&q).unwrap(), Value::Array(want), "{q}");
        assert!(cache.len() <= PlanCache::CAPACITY, "{} plans cached", cache.len());
    }
}

/// Parses `text` on a thread with the serve connection threads'
/// 512 KB stack.
fn parse_on_small_stack(text: String) -> idea_query::Result<Vec<Statement>> {
    std::thread::Builder::new()
        .stack_size(512 * 1024)
        .spawn(move || parser::parse_statements(&text))
        .unwrap()
        .join()
        .expect("parser thread must not overflow its stack")
}

/// Runs `text` through a fresh session on a thread with the serve
/// connection threads' 512 KB stack: parse, evaluation and drop.
fn query_on_small_stack(text: String) -> idea_query::Result<Value> {
    std::thread::Builder::new()
        .stack_size(512 * 1024)
        .spawn(move || Session::new(Catalog::new(1)).query(&text))
        .unwrap()
        .join()
        .expect("query thread must not overflow its stack")
}

#[test]
fn long_operator_chains_are_a_syntax_error_not_an_abort() {
    let n = 100_000;
    for text in [
        format!("SELECT VALUE 1{};", " + 1".repeat(n)),
        format!("SELECT VALUE false{};", " OR false".repeat(n)),
        format!("SELECT VALUE {{\"a\": 1}}{};", ".a".repeat(n)),
        format!("SELECT VALUE [1]{};", "[0]".repeat(n)),
    ] {
        let got = query_on_small_stack(text);
        assert!(matches!(got, Err(QueryError::Syntax(_))), "got {got:?}");
    }
    // A 40-term chain is within the limit and evaluates correctly.
    let sum = query_on_small_stack(format!("SELECT VALUE 1{};", " + 1".repeat(39)));
    assert_eq!(sum.unwrap(), Value::Array(vec![Value::Int(40)]));
    let any =
        query_on_small_stack(format!("SELECT VALUE false{} OR true;", " OR false".repeat(38)));
    assert_eq!(any.unwrap(), Value::Array(vec![Value::Bool(true)]));
}

#[test]
fn deep_nesting_is_a_syntax_error_not_a_stack_overflow() {
    let n = 100_000;
    let deep = [
        format!("SELECT VALUE {}1{};", "(".repeat(n), ")".repeat(n)),
        format!("{}1{};", "SELECT VALUE (".repeat(n), ")".repeat(n)),
        format!(
            "SELECT VALUE 1 FROM {}[1]{} x;",
            "(SELECT VALUE y FROM ".repeat(n),
            " y)".repeat(n)
        ),
        format!("SELECT VALUE {}1;", "NOT ".repeat(n)),
        format!("SELECT VALUE {}1;", "- ".repeat(n)),
        format!("SELECT VALUE {}1{};", "CASE WHEN ".repeat(n), " THEN 1 END".repeat(n)),
        format!("CREATE FEED f WITH {}\"v\": 1{};", "{\"k\": ".repeat(n), "}".repeat(n)),
    ];
    for text in deep {
        let got = parse_on_small_stack(text);
        assert!(matches!(got, Err(QueryError::Syntax(_))), "got {got:?}");
    }
    // Nesting just inside the limit still parses on the same stack.
    let k = parser::MAX_NESTING - 2;
    for text in [
        format!("SELECT VALUE {}1{};", "(".repeat(k), ")".repeat(k)),
        format!("SELECT VALUE {}1{};", "f(".repeat(k), ")".repeat(k)),
        format!("SELECT VALUE {}1{};", "CASE WHEN ".repeat(k), " THEN 1 END".repeat(k)),
        format!("{}1{};", "SELECT VALUE (".repeat(k / 2), ")".repeat(k / 2)),
    ] {
        let got = parse_on_small_stack(text);
        assert!(got.is_ok(), "got {got:?}");
    }
}

/// Every component file (`*.cmp`) under `dir`, recursively.
fn component_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            component_files(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("cmp") {
            out.push(path);
        }
    }
}

/// A flipped byte in a sealed row-layout block fails every query that
/// scans it with `Corrupt` — in-process, streamed and on the row oracle
/// — instead of answering from the records before the bad block.
#[test]
fn corrupt_block_fails_the_scan_not_a_short_result() {
    let tmp = idea_storage::TempDir::new("engine-corrupt-scan");
    {
        let c = Catalog::new(2);
        c.set_storage_root(tmp.path()).unwrap();
        run_sqlpp(
            &c,
            r#"CREATE TYPE T AS OPEN { id: int64 };
               CREATE DATASET D(T) PRIMARY KEY id
                   WITH {"storage": "disk", "fsync": "never", "layout": "row"};"#,
        )
        .unwrap();
        let ds = c.dataset("D").unwrap();
        for i in 0..2_000i64 {
            ds.upsert(Value::object([("id", Value::Int(i)), ("v", Value::Int(i % 7))]))
                .unwrap();
        }
        for p in ds.partitions() {
            p.flush();
            p.merge();
        }
    }
    // Offset 20 lands in the first block frame's payload: an 8-byte
    // magic, then 4 bytes frame length and 4 bytes CRC.
    let mut files = Vec::new();
    component_files(tmp.path(), &mut files);
    assert!(!files.is_empty(), "the dataset must have sealed components");
    for path in &files {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[20] ^= 0x40;
        std::fs::write(path, &bytes).unwrap();
    }

    let c = Catalog::new(2);
    c.set_storage_root(tmp.path()).unwrap();
    let corrupt = |r: idea_query::Result<Value>, what: &str| match r {
        Err(QueryError::Storage(idea_storage::StorageError::Corrupt(_))) => {}
        other => panic!("{what}: expected a corruption error, got {other:?}"),
    };
    let row = SessionConfig::new().vectorize(false).build(c.clone());
    let session = Session::new(c.clone());
    // Twice: over the sealed components alone, then with a memtable
    // overlay merged in front of them.
    for overlay in [false, true] {
        if overlay {
            let ds = c.dataset("D").unwrap();
            for id in 5_000..5_010 {
                ds.upsert(Value::object([("id", Value::Int(id)), ("v", Value::Int(3))]))
                    .unwrap();
            }
            assert!(ds.partitions().iter().all(|p| p.lsm_shape().0 > 0), "overlay everywhere");
        }
        for q in [
            "SELECT VALUE count(*) FROM D t",
            "SELECT VALUE t.id FROM D t WHERE t.v = 3",
            "SELECT VALUE t FROM D /*+ noindex */ t WHERE t.id = 5",
        ] {
            let what = format!("{q} (overlay: {overlay})");
            corrupt(session.query(q), &what);
            corrupt(row.query(q), &what);
            let streamed: idea_query::Result<Vec<Value>> =
                session.query_stream(q).and_then(|s| s.collect());
            corrupt(streamed.map(Value::Array), &what);
        }
    }
}
