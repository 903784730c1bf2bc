//! `idea-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root. Prints an `{"info": …}` line with the
//! run's facts, then, as the last line, the result:
//! `{"correct", "attempted", "failed", "metrics"}` with every end-to-end
//! metric (`--trace 0`) or every per-layer metric (`--trace 1`).
//! Scratch data lives under `.bench_tmp/` and is removed at exit; a
//! traced run writes its spans to `.bench_out/`.

use std::path::PathBuf;
use std::process::ExitCode;

use idea_e2e_bench::{run, Config, Sizes, Workload};

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload '{workload}'"))?;
    let seed: u64 = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let tag = format!("{}-{}", workload.name(), std::process::id());
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        sizes: Sizes::full(),
        dir: cwd.join(".bench_tmp").join(tag),
        span_file: trace.then(|| {
            PathBuf::from(".bench_out").join(format!("spans-{}-seed{seed}.csv", workload.name()))
        }),
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: idea-e2e-bench --workload <enrich_drain|live_mixed|served_queries> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(out) => {
            for e in &out.errors {
                eprintln!("check failed: {e}");
            }
            println!("{}", out.info_json());
            println!("{}", out.result_json(cfg.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
