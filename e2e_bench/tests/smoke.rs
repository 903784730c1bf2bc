//! Smoke-size run of every workload, traced, so each oracle and every
//! metric path runs before anyone trusts a full run's numbers.
//!
//! `cargo test --release --manifest-path e2e_bench/Cargo.toml`

use idea_e2e_bench::{run, Config, Sizes, Workload, END_TO_END, PER_LAYER};

fn smoke(workload: Workload) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(workload.name());
    let cfg = Config {
        workload,
        seed: 7,
        seconds: 1.0,
        trace: true,
        sizes: Sizes::smoke(),
        span_file: Some(dir.join("spans.csv")),
        dir: dir.join("run"),
    };
    let out = run(&cfg).expect("workload runs");
    assert!(out.correct(), "{}: {:?}", workload.name(), out.errors);
    assert!(out.attempted > 0);
    for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let v = out.metrics.get(name).copied();
        assert!(v.is_some_and(f64::is_finite), "{}: {name} = {v:?}", workload.name());
    }
    assert!(std::fs::metadata(dir.join("spans.csv")).is_ok_and(|m| m.len() > 0));
    assert!(!cfg.dir.exists(), "scratch data is removed");
}

#[test]
fn enrich_drain() {
    smoke(Workload::EnrichDrain);
}

#[test]
fn live_mixed() {
    smoke(Workload::LiveMixed);
}

#[test]
fn served_queries() {
    smoke(Workload::ServedQueries);
}

#[test]
fn result_line_lists_every_metric() {
    let mut out = idea_e2e_bench::Outcome::default();
    out.count(3, 0);
    out.set("setup_s", 0.5);
    let line = out.result_json(false);
    for (name, unit) in END_TO_END {
        assert!(line.contains(&format!(r#""{name}": {{"value": "#)), "{name}");
        assert!(line.contains(&format!(r#""unit": "{unit}""#)));
    }
    assert!(line.starts_with(r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"#));
}
