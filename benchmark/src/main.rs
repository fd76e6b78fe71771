//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! tqt-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!               [--smoke] [--out DIR]
//! tqt-benchmark --list
//! ```
//!
//! Prints `workload metric value unit` for every metric, writes the run's
//! JSON (and, traced, its spans and per-node table) under `--out`, and
//! ends with one JSON line: `correct`, `attempted`, `failed`, `metrics`.
//! Exits 1 when an output was wrong or an invariant broke.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use tqt_benchmark::metrics::WORKLOADS;
use tqt_benchmark::workloads::{run, Config, DEFAULT_SECONDS};
use tqt_rt::json::Json;

const USAGE: &str = "usage: tqt-benchmark --workload <name> [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke] [--out DIR] | --list";

/// Run length of a `--smoke` run.
const SMOKE_SECONDS: f64 = 0.5;

enum Cmd {
    List,
    Run(Config, PathBuf),
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    let mut workload = None;
    let mut seed = 11u64;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut smoke = false;
    let mut out = PathBuf::from("target/benchmark");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--list" => return Ok(Cmd::List),
            "--workload" => {
                let v = value()?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .copied()
                        .find(|w| w == v)
                        .ok_or(format!("unknown workload {v}; one of {WORKLOADS:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} outside (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if smoke {
        seconds = SMOKE_SECONDS;
        out.push("reduced");
    }
    Ok(Cmd::Run(
        Config {
            workload,
            seed,
            seconds,
            trace,
            smoke,
        },
        out,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, out_dir) = match parse(&args) {
        Ok(Cmd::List) => {
            for w in WORKLOADS {
                println!("{w}");
            }
            return ExitCode::SUCCESS;
        }
        Ok(Cmd::Run(cfg, out)) => (cfg, out),
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&cfg);
    let res = &outcome.results;
    // A reduced run is labelled on every line it prints and in every file
    // it writes, so it cannot pass for a recorded one.
    let tag = if cfg.smoke { "[reduced] " } else { "" };
    for (d, v) in res.rows() {
        println!("{tag}{} {} {v} {}", cfg.workload, d.name, d.unit);
    }
    println!(
        "# {tag}{} attempted {} failed {} seed {} seconds {} threads {}",
        cfg.workload,
        res.attempted,
        res.failed,
        cfg.seed,
        cfg.seconds,
        outcome
            .detail
            .get("threads")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
    );
    let note = |k: &str| outcome.detail.get(k).and_then(Json::as_f64);
    if let (Some(p), Some(ms), Some(n)) =
        (note("tail_percentile"), note("tail_ms"), note("samples"))
    {
        println!("# {tag}{} tail p{p} {ms} ms of {n} samples", cfg.workload);
    }
    for v in &res.violations {
        eprintln!("{}: invariant broken: {v}", cfg.workload);
    }

    let mut line = res.to_json();
    if cfg.smoke {
        if let Json::Obj(o) = &mut line {
            o.insert("reduced".into(), Json::Bool(true));
        }
    }
    let mut file: BTreeMap<String, Json> = outcome.detail;
    file.insert("workload".into(), Json::from(cfg.workload));
    file.insert("seed".into(), Json::Num(cfg.seed as f64));
    file.insert("seconds".into(), Json::Num(cfg.seconds));
    file.insert("trace".into(), Json::Bool(cfg.trace));
    file.insert("reduced".into(), Json::Bool(cfg.smoke));
    file.insert("result".into(), line.clone());
    let suffix = if cfg.trace { ".trace.json" } else { ".json" };
    let path = out_dir.join(format!("{}{suffix}", cfg.workload));
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&path, Json::Obj(file).to_string() + "\n"));
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("{line}");
    if res.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
