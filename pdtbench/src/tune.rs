//! `tune-tpch` and `tune-tpch-updates`: back-to-back tuning sessions
//! from one in-process caller, on TPC-H sf 0.05 with seeded query
//! constants.
//!
//! * `tune-tpch`: the 22 SELECTs, indexes and views, one thread, a
//!   space budget of base + 10% of (optimal - base), 40 iterations.
//! * `tune-tpch-updates`: the same queries plus 25% seeded DML,
//!   min(2, nproc) threads, a 64 MB budget, 300 iterations.

use crate::common::{
    e2e_metrics, ledger_rows, repeated_setup, Fingerprints, Gate, Outcome, RunCfg, Steadiness,
    Timed,
};
use crate::ledger::{timed, Ledger};
use crate::probes::{workload_probes, EngineTally};
use crate::stats::{self, Metrics};
use pdt_catalog::Database;
use pdt_opt::invocation_count;
use pdt_physical::Configuration;
use pdt_trace::{allocation_counters, Tracer};
use pdt_tuner::{gather_optimal_configuration, tune_session, SessionCtl, TunerOptions, Workload};
use pdt_workloads::{tpch, updates, WorkloadSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const SCALE: f64 = 0.05;
/// Distinct inputs per run; requests cycle through them, so one run's
/// medians cover more than one draw of query constants.
const INPUTS: u64 = 2;
/// Seed of the DML mix on `tune-tpch-updates`. The run seed draws the
/// query constants; the DML statements stay fixed, because which
/// tables and columns they touch decides how much an index can pay
/// (from 0% to 80% improvement across DML draws), and a benchmark
/// that compares runs needs that property held still.
const DML_SEED: u64 = 0x0bda_7e25;

struct Input {
    key: String,
    workload: Workload,
    options: TunerOptions,
    budget: f64,
}

struct Prepared {
    db: Database,
    inputs: Vec<Input>,
    datagen_ms: f64,
    parse_ms: f64,
    bind_ms: f64,
}

fn prepare(seed: u64, with_dml: bool, threads: usize) -> Result<Prepared, String> {
    let (db, mut datagen_ms) = timed(|| tpch::tpch_database(SCALE));
    let mut parse_ms = 0.0;
    let mut bind_ms = 0.0;
    let mut inputs = Vec::new();
    for k in 0..INPUTS {
        let input_seed = seed.wrapping_mul(1_000_003).wrapping_add(k);
        let (sql, ms) = timed(|| tpch::tpch_queries_with_seed(input_seed).join(";\n"));
        datagen_ms += ms;
        let (parsed, ms) = timed(|| pdt_sql::parse_workload(&sql));
        parse_ms += ms;
        let mut statements = parsed.map_err(|e| format!("parse: {e}"))?;
        if with_dml {
            let (spec, ms) = timed(|| {
                updates::with_updates(&db, &WorkloadSpec::new("tpch", statements), 0.25, DML_SEED)
            });
            datagen_ms += ms;
            statements = spec.statements;
        }
        let (bound, ms) = timed(|| Workload::bind(&db, &statements));
        bind_ms += ms;
        let workload = bound.map_err(|e| format!("bind: {e}"))?;
        let options = if with_dml {
            TunerOptions {
                space_budget: Some(64e6),
                max_iterations: 300,
                threads,
                ..TunerOptions::default()
            }
        } else {
            let (optimal, _) = gather_optimal_configuration(&db, &workload, true);
            let base = Configuration::base(&db).size_bytes(&db);
            TunerOptions {
                space_budget: Some(base + 0.1 * (optimal.size_bytes(&db) - base)),
                max_iterations: 40,
                threads,
                ..TunerOptions::default()
            }
        };
        inputs.push(Input {
            key: format!("{input_seed}"),
            budget: options.space_budget.unwrap_or(f64::INFINITY),
            workload,
            options,
        });
    }
    Ok(Prepared {
        db,
        inputs,
        datagen_ms,
        parse_ms,
        bind_ms,
    })
}

/// One tuning request's observable result.
struct Answer {
    wall_ms: f64,
    invocations: u64,
    allocs: u64,
    report: Result<pdt_tuner::TuningReport, String>,
}

fn tune_once(p: &Prepared, input: &Input, tracer: Option<&Tracer>) -> Answer {
    let inv = invocation_count();
    let allocs = allocation_counters().0;
    let start = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| {
        tune_session(
            &p.db,
            &input.workload,
            &input.options,
            SessionCtl {
                tracer,
                ..SessionCtl::default()
            },
        )
    }));
    let wall_ms = stats::ms(start.elapsed());
    Answer {
        wall_ms,
        invocations: invocation_count() - inv,
        allocs: allocation_counters().0 - allocs,
        report: match report {
            Ok(Ok(r)) => Ok(r),
            Ok(Err(e)) => Err(format!("tune error: {e}")),
            Err(_) => Err("tune panicked".to_string()),
        },
    }
}

/// The correctness gate of one session; returns its problems.
fn check(input: &Input, answer: &Answer, fps: &mut Fingerprints) -> Vec<String> {
    let report = match &answer.report {
        Ok(r) => r,
        Err(e) => return vec![e.clone()],
    };
    let Some(best) = &report.best else {
        return vec![format!("input {}: no recommendation", input.key)];
    };
    let mut problems = Vec::new();
    if best.size_bytes > input.budget * (1.0 + 1e-9) {
        problems.push(format!(
            "input {}: recommendation {} bytes exceeds the {} byte budget",
            input.key, best.size_bytes, input.budget
        ));
    }
    let fp = format!("{:x}/{:x}", best.cost.to_bits(), best.config.signature128());
    problems.extend(fps.check(&input.key, fp));
    problems
}

pub fn run(cfg: &RunCfg, with_dml: bool) -> Outcome {
    let threads = if with_dml { cfg.nproc.min(2) } else { 1 };
    let mut gate = Gate::default();
    let mut notes = Vec::new();
    let mut fps = Fingerprints::default();
    let mut steady = Steadiness::default();

    // Set-up: data, inputs, and one warm-up session, repeated.
    let (prepared, setup_samples) = repeated_setup(|_| {
        let p = prepare(cfg.seed, with_dml, threads)?;
        let warm = tune_once(&p, &p.inputs[0], None);
        warm.report.map(|_| p)
    });
    let p = match prepared {
        Ok(p) => p,
        Err(e) => return Outcome::failed(threads, format!("set-up: {e}")),
    };

    let mut timed_run = Timed::default();
    let mut ledger = Ledger::new();
    let mut tally = EngineTally::default();
    let mut quality: Vec<Option<f64>> = vec![None; p.inputs.len()];
    let mut calls: Vec<Vec<f64>> = vec![Vec::new(); p.inputs.len()];
    let mut traced_requests = 0usize;
    let cpu0 = stats::process_cpu();
    let start = Instant::now();
    let deadline = cfg.deadline(start);
    let mut i = 0usize;
    // At least one request, and one traced request in the traced run.
    let min_requests = 1 + usize::from(cfg.trace);
    while i < min_requests || Instant::now() < deadline {
        // Inputs go in pairs; the traced run traces the second request
        // of each pair, so traced and untraced requests see the same
        // inputs and the same CPU speed.
        let k = (i / 2) % p.inputs.len();
        let input = &p.inputs[k];
        let traced = cfg.trace && i % 2 == 1;
        let answer = if traced {
            let tracer = Tracer::new();
            let root = ledger.open("request", None, i as u64);
            let (call, answer) = ledger.span("tune_session", Some(root), i as u64, || {
                tune_once(&p, input, Some(&tracer))
            });
            if let Ok(r) = &answer.report {
                if let Some(summary) = &r.trace {
                    tally.add(summary, &mut ledger, call);
                }
            }
            tally.request_allocs += answer.allocs;
            let (_, problems) = ledger.span("bench.check", Some(root), i as u64, || {
                check(input, &answer, &mut fps)
            });
            ledger.close(root);
            gate.record(problems);
            traced_requests += 1;
            timed_run.traced_latencies_ms.push(answer.wall_ms);
            answer
        } else {
            let answer = tune_once(&p, input, None);
            gate.record(check(input, &answer, &mut fps));
            timed_run.latencies_ms.push(answer.wall_ms);
            answer
        };
        timed_run.completed += 1;
        calls[k].push(answer.invocations as f64);
        if let Ok(r) = &answer.report {
            quality[k].get_or_insert(r.best_improvement_pct());
            if threads == 1 {
                steady.observe(&input.key, "whatif_calls", answer.invocations.to_string());
                steady.observe(&input.key, "search.iterations", r.iterations.to_string());
                steady.observe(
                    &input.key,
                    "quality_pct",
                    format!("{:x}", r.best_improvement_pct().to_bits()),
                );
                let allocs = if traced {
                    "search.allocs.traced"
                } else {
                    "search.allocs"
                };
                steady.observe(&input.key, allocs, answer.allocs.to_string());
            }
        }
        i += 1;
    }
    timed_run.loop_wall = start.elapsed();
    timed_run.loop_cpu = stats::process_cpu().saturating_sub(cpu0);

    let quality_pct = stats::mean(&quality.iter().flatten().copied().collect::<Vec<_>>());
    // Weigh every input alike, whatever number of requests each got.
    let per_input: Vec<f64> = calls.iter().map(|c| stats::mean(c)).collect();
    let whatif_calls = stats::mean(&per_input);
    let e2e = e2e_metrics(
        &timed_run,
        whatif_calls,
        quality_pct,
        &setup_samples,
        &gate,
        &mut notes,
    );
    let mut layers = Metrics::default();
    let mut extra = Metrics::default();
    let mut spans_jsonl = None;
    if cfg.trace {
        layers.put("setup.datagen_ms", p.datagen_ms, "ms");
        layers.put("sql.parse_ms", p.parse_ms, "ms");
        layers.put("expr.bind_ms", p.bind_ms, "ms");
        let (by_name, _) = ledger.self_ms_by_name();
        let n = traced_requests.max(1) as f64;
        let unattributed = (by_name.get("request").unwrap_or(&0.0)
            + by_name.get("tune_session").unwrap_or(&0.0))
            / n;
        layers.put("search.unattributed_ms", unattributed, "ms");
        tally.put(&mut layers, &mut extra);
        let input = &p.inputs[0];
        workload_probes(
            &p.db,
            &input.workload,
            &input.options,
            &timed_run,
            whatif_calls,
            &mut layers,
            &mut gate,
        );
        ledger_rows(&ledger, traced_requests, &mut layers, &mut notes);
        spans_jsonl = Some(ledger.to_jsonl("requests"));
    }
    if threads == 1 {
        steady.compare_with_previous(cfg);
    }
    layers.0.extend(extra.0);
    Outcome {
        e2e,
        layers,
        gate,
        threads,
        notes,
        flags: steady.flags,
        spans_jsonl,
    }
}
