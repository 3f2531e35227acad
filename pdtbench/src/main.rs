//! pdtune benchmark: one workload per process, end-to-end metrics with
//! tracing off (`--trace 0`) or the per-layer ledger (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path pdtbench/Cargo.toml -- \
//!     --workload replay-drift --seed 7 --seconds 36 --trace 0
//! ```
//!
//! Human-readable lines go first; the last line of standard output is
//! one JSON object `{"correct","attempted","failed","metrics"}`. The
//! process exits 1 when any correctness gate failed and 2 on bad
//! arguments. See `pdtbench/README.md` for the workloads and metrics.

mod common;
mod ledger;
mod probes;
mod replay;
mod serve;
mod stats;
mod tune;

use common::{Outcome, RunCfg};
use stats::{json_num, json_str, Metrics};
use std::path::PathBuf;

/// The runnable workloads. `BENCHMARK.json` lists all but `tune-tpch`,
/// which stays runnable for side-by-side comparisons; the README says
/// why it is not listed.
const WORKLOADS: [&str; 4] = [
    "tune-tpch",
    "tune-tpch-updates",
    "serve-mixed",
    "replay-drift",
];

/// The end-to-end metrics and units, as `BENCHMARK.json` names them.
const END_TO_END: [(&str, &str); 7] = [
    ("latency_ms.p50", "ms"),
    ("latency_ms.tail", "ms"),
    ("throughput_per_s", "1/s"),
    ("whatif_calls", "calls/request"),
    ("quality_pct", "%"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics and units `BENCHMARK.json` names; every
/// traced run reports each of them. Layer metrics that only some
/// workloads exercise (serve protocol timings, skyline time) are
/// printed but not listed here.
const PER_LAYER: [(&str, &str); 45] = [
    ("setup.datagen_ms", "ms"),
    ("sql.parse_ms", "ms"),
    ("expr.bind_ms", "ms"),
    ("instrument.optimal_ms", "ms"),
    ("instrument.index_requests", "count"),
    ("instrument.view_requests", "count"),
    ("search.setup_ms", "ms"),
    ("search.prepass_ms", "ms"),
    ("search.loop_ms", "ms"),
    ("search.unattributed_ms", "ms"),
    ("search.iterations", "count"),
    ("search.candidates_generated", "count"),
    ("search.candidates_ms", "ms"),
    ("search.candidates_calls", "count"),
    ("search.pricing_ms", "ms"),
    ("search.pricing_calls", "count"),
    ("search.eval_ms", "ms"),
    ("search.eval_calls", "count"),
    ("search.skyline_calls", "count"),
    ("search.allocs", "count"),
    ("search.pricing_allocs", "count"),
    ("bound.memo_hit_ratio", "fraction"),
    ("eval.cache_hit_ratio", "fraction"),
    ("eval.plan_hit_ratio", "fraction"),
    ("eval.calls_avoided", "count"),
    ("opt.logical_calls", "count"),
    ("opt.invocations", "count"),
    ("opt.optimize_us.p50", "us"),
    ("opt.est_share", "fraction"),
    ("par.cpu_per_wall", "ratio"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.encode_ms", "ms"),
    ("checkpoint.decode_ms", "ms"),
    ("serve.repeat_share", "fraction"),
    ("shared.hit_ratio", "fraction"),
    ("shared.plan_hits", "count"),
    ("shared.entries", "count"),
    ("shared.evicted", "count"),
    ("online.retunes", "count"),
    ("online.warm_serves", "count"),
    ("online.invocations_per_epoch", "count"),
    ("online.carried_share", "fraction"),
    ("trace.overhead_pct", "%"),
    ("ledger.request_wall_ms", "ms"),
    ("ledger.self_sum_ms", "ms"),
];

/// The listed metrics in list order. A layer the workload does not
/// exercise reports 0 and is named in a note.
fn select(from: &Metrics, names: &[(&str, &'static str)], notes: &mut Vec<String>) -> Metrics {
    let mut out = Metrics::default();
    let mut absent = Vec::new();
    for &(name, unit) in names {
        match from.0.iter().find(|m| m.name == name) {
            Some(m) => {
                debug_assert_eq!(m.unit, unit, "unit of {name}");
                out.put(name, m.value, unit);
            }
            None => {
                absent.push(name);
                out.put(name, 0.0, unit);
            }
        }
    }
    if !absent.is_empty() {
        notes.push(format!(
            "not exercised here (reported as 0): {}",
            absent.join(", ")
        ));
    }
    out
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: pdtbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> RunCfg {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload `{workload}`"));
    }
    RunCfg {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed takes a whole number")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds takes a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    }
}

fn print_metrics(title: &str, m: &Metrics) {
    println!("{title}");
    for metric in &m.0 {
        println!(
            "  {:<34} {:>16.4} {}",
            metric.name, metric.value, metric.unit
        );
    }
}

fn result_json(outcome: &Outcome, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.gate.failed == 0,
        outcome.gate.attempted,
        outcome.gate.failed,
        body.join(", ")
    )
}

fn main() {
    let cfg = parse_args();
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("error: creating {}: {e}", cfg.out_dir.display());
        std::process::exit(3);
    }
    let mut outcome = match cfg.workload.as_str() {
        "tune-tpch" => tune::run(&cfg, false),
        "tune-tpch-updates" => tune::run(&cfg, true),
        "serve-mixed" => serve::run(&cfg),
        _ => replay::run(&cfg),
    };

    let mut notes = Vec::new();
    let e2e = select(&outcome.e2e, &END_TO_END, &mut notes);
    let layers = select(&outcome.layers, &PER_LAYER, &mut notes);
    if cfg.trace {
        outcome.notes.extend(notes);
    }
    let degraded = outcome.threads > cfg.nproc || cfg!(debug_assertions);
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={} threads={} degraded={} build={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.nproc,
        outcome.threads,
        degraded,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for flag in &outcome.flags {
        println!("# steadiness flag: {flag}");
    }
    for msg in outcome.gate.messages.iter().take(10) {
        println!("# FAILED: {msg}");
    }
    let metrics = if cfg.trace {
        print_metrics("end-to-end (untraced half of a traced run)", &outcome.e2e);
        print_metrics("per-layer", &outcome.layers);
        &layers
    } else {
        print_metrics("end-to-end", &outcome.e2e);
        &e2e
    };
    let json = result_json(&outcome, metrics);
    let tag = format!(
        "{}-seed{}-trace{}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    );
    let full = format!(
        "{}\n{}\n",
        result_json(&outcome, &e2e),
        result_json(&outcome, &outcome.layers)
    );
    let _ = std::fs::write(cfg.out_dir.join(format!("result-{tag}.json")), full);
    if let Some(jsonl) = &outcome.spans_jsonl {
        let path = cfg.out_dir.join(format!("spans-{tag}.jsonl"));
        if let Err(e) = std::fs::write(&path, jsonl) {
            println!("# could not write {}: {e}", path.display());
        }
    }
    println!("{json}");
    if outcome.gate.failed > 0 {
        std::process::exit(1);
    }
}
