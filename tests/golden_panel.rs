//! Golden panel: the engine's observable behaviour pinned by committed
//! snapshots instead of a second live engine.
//!
//! Each panel case runs one tuning session at `--threads` 1 and 2 and
//! compares it against `tests/snapshots/golden_panel/<case>.txt`: the
//! report fingerprint (every decision and accounting field, wall clocks
//! left out) plus the JSONL trace's line count and 128-bit content
//! digest. Both thread counts must match the same snapshot. On a
//! mismatch the new trace and fingerprint are written under the
//! target directory (`target/tmp/golden_panel/`) for diffing.
//!
//! A seeded 200-case sweep over random schemas and workloads pins one
//! aggregate digest the same way. In debug builds it also drives every
//! reference check the engine keeps at its point of use (delta vs
//! from-scratch enumeration, restricted vs full bound, flat vs
//! reference projection, derived serve vs real optimizer call, SoA
//! vs re-scan skyline) over varied inputs.
//!
//! Regenerate after an intentional behaviour change:
//! `UPDATE_SNAPSHOTS=1 cargo test --release --test golden_panel`

use std::fmt::Write as _;
use std::path::PathBuf;

use pdtune::catalog::Database;
use pdtune::physical::Configuration;
use pdtune::prelude::*;
use pdtune::workloads::bench::{bench_database, bench_workload, BenchParams};
use pdtune::workloads::{tpch, updates};

/// FNV-1a over 128 bits: a stable content digest (unlike
/// `DefaultHasher`, its output is fixed by definition, so committed
/// digests survive toolchain upgrades).
fn digest(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    bytes
        .iter()
        .fold(OFFSET, |h, &b| (h ^ u128::from(b)).wrapping_mul(PRIME))
}

fn debug_digest(value: &impl std::fmt::Debug) -> u128 {
    digest(format!("{value:?}").as_bytes())
}

/// The report's decision and accounting fields, one per line, with
/// long values folded into digests. Wall-clock fields (`elapsed`,
/// per-phase times, hot-phase measurements) are not part of it.
fn fingerprint(r: &TuningReport) -> String {
    let mut s = String::new();
    let mut line = |name: &str, value: String| {
        writeln!(s, "{name}: {value}").unwrap();
    };
    line("initial_cost", format!("{:?}", r.initial_cost));
    line("initial_size", format!("{:?}", r.initial_size));
    line("optimal_cost", format!("{:?}", r.optimal_cost));
    line("optimal_size", format!("{:?}", r.optimal_size));
    line(
        "optimal_config",
        format!(
            "{} structures, {:032x}",
            r.optimal_config.structure_count(),
            debug_digest(&r.optimal_config)
        ),
    );
    line("lower_bound_cost", format!("{:?}", r.lower_bound_cost));
    line(
        "best",
        match &r.best {
            Some(b) => format!(
                "cost {:?}, size {:?}, {} structures, {:032x}",
                b.cost,
                b.size_bytes,
                b.config.structure_count(),
                debug_digest(&b.config)
            ),
            None => "none".to_string(),
        },
    );
    line(
        "frontier",
        format!(
            "{} points, {:032x}",
            r.frontier.len(),
            debug_digest(&r.frontier)
        ),
    );
    line("iterations", r.iterations.to_string());
    line("stop_reason", format!("{:?}", r.stop_reason));
    line("optimizer_calls", r.optimizer_calls.to_string());
    line(
        "cache",
        format!("{} hits, {} misses", r.cache_hits, r.cache_misses),
    );
    line(
        "candidates",
        format!(
            "{} generated, {} reused",
            r.candidates_generated, r.candidates_reused
        ),
    );
    line(
        "optimizer_calls_avoided",
        r.optimizer_calls_avoided.to_string(),
    );
    line(
        "plan_cache",
        format!(
            "{} hits, {} misses, {} repriced",
            r.plan_cache_hits, r.plan_cache_misses, r.plan_cache_repriced
        ),
    );
    line(
        "optimizer_calls_skipped",
        r.optimizer_calls_skipped.to_string(),
    );
    line("budget_remaining", format!("{:?}", r.budget_remaining));
    line("workload_deduped", r.workload_deduped.to_string());
    line(
        "candidate_counts",
        format!(
            "{} iterations, {:032x}",
            r.candidate_counts.len(),
            debug_digest(&r.candidate_counts)
        ),
    );
    line("request_counts", format!("{:?}", r.request_counts));
    line(
        "bound_checks",
        format!(
            "{}, {} violations",
            r.bound_checks,
            r.bound_violations.len()
        ),
    );
    line(
        "faults",
        format!("{}, {:032x}", r.faults.len(), debug_digest(&r.faults)),
    );
    if let Some(t) = &r.trace {
        let phases: Vec<String> = t
            .phases
            .iter()
            .map(|p| format!("{}={}", p.name, p.events))
            .collect();
        line(
            "trace_summary",
            format!("{} events, phases {}", t.events, phases.join(" ")),
        );
    }
    s
}

/// Fingerprint plus the trace's line count and content digest.
fn snapshot(report: &TuningReport, trace: &str) -> String {
    format!(
        "{}trace: {} lines, {:032x}\n",
        fingerprint(report),
        trace.lines().count(),
        digest(trace.as_bytes())
    )
}

fn snapshot_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots/golden_panel")
        .join(format!("{name}.txt"))
}

/// Compare `actual` against the committed snapshot `name`; on a
/// mismatch write `actual` and the run's trace under the target
/// directory and fail.
fn check(name: &str, run: &str, actual: &str, trace: &str) {
    let path = snapshot_path(name);
    if std::env::var("UPDATE_SNAPSHOTS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {}: {e} (run with UPDATE_SNAPSHOTS=1)",
            path.display()
        )
    });
    if expected != actual {
        let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden_panel");
        std::fs::create_dir_all(&out).unwrap();
        std::fs::write(out.join(format!("{run}.txt")), actual).unwrap();
        std::fs::write(out.join(format!("{run}.jsonl")), trace).unwrap();
        panic!(
            "{run} drifted from tests/snapshots/golden_panel/{name}.txt; the new \
             snapshot and trace are in {}\n--- expected\n{expected}--- actual\n{actual}",
            out.display()
        );
    }
}

enum Db {
    Tpch { queries: usize, seed: u64 },
    Bench { seed: u64 },
}

/// Space budget of a panel case.
enum Budget {
    /// No space budget (the search still runs with updates).
    Unlimited,
    /// A multiple of the base configuration's size.
    Factor(f64),
    /// A fixed size in bytes.
    Bytes(f64),
}

struct PanelCase {
    name: &'static str,
    db: Db,
    update_ratio: f64,
    with_views: bool,
    budget: Budget,
    validate_bounds: bool,
    call_budget: Option<usize>,
    faults: Option<FaultPlan>,
}

fn inputs(db: &Db, update_ratio: f64) -> (Database, Workload) {
    let (db, spec) = match *db {
        Db::Tpch { queries, seed } => {
            let d = tpch::tpch_database(0.01);
            let spec = tpch::tpch_workload_variant(seed, queries);
            let spec = if update_ratio > 0.0 {
                updates::with_updates(&d, &spec, update_ratio, seed)
            } else {
                spec
            };
            (d, spec)
        }
        Db::Bench { seed } => {
            let d = bench_database(&BenchParams {
                name: format!("panel-{seed}"),
                tables: 3,
                max_columns: 6,
                max_rows: 5e4,
                seed,
            });
            let spec = bench_workload(&d, seed ^ 0x9A7E, 5);
            let spec = if update_ratio > 0.0 {
                updates::with_updates(&d, &spec, update_ratio, seed)
            } else {
                spec
            };
            (d, spec)
        }
    };
    let w = Workload::bind(&db, &spec.statements).expect("panel workload binds");
    (db, w)
}

const MB: f64 = 1024.0 * 1024.0;

fn panel() -> Vec<PanelCase> {
    let case = |name, db, update_ratio, with_views, budget| PanelCase {
        name,
        db,
        update_ratio,
        with_views,
        budget,
        validate_bounds: false,
        call_budget: None,
        faults: None,
    };
    let tpch = |seed| Db::Tpch { queries: 6, seed };
    vec![
        // The CI interrupt -> resume session.
        case(
            "tpch_updates_views_24m",
            tpch(7),
            0.5,
            true,
            Budget::Bytes(24.0 * MB),
        ),
        case(
            "tpch_select_views_tight",
            tpch(5),
            0.0,
            true,
            Budget::Factor(1.15),
        ),
        case(
            "tpch_select_indexes_tight",
            tpch(5),
            0.0,
            false,
            Budget::Factor(1.15),
        ),
        case(
            "tpch_select_views_unlimited",
            tpch(3),
            0.0,
            true,
            Budget::Unlimited,
        ),
        case(
            "tpch_updates_indexes_unlimited",
            tpch(11),
            0.25,
            false,
            Budget::Unlimited,
        ),
        case(
            "bench_select_views_loose",
            Db::Bench { seed: 3 },
            0.0,
            true,
            Budget::Factor(1.35),
        ),
        case(
            "bench_updates_indexes_tight",
            Db::Bench { seed: 8 },
            0.5,
            false,
            Budget::Factor(1.05),
        ),
        case(
            "bench_updates_views_unreachable",
            Db::Bench { seed: 13 },
            0.25,
            true,
            Budget::Bytes(1.0),
        ),
        case(
            "bench_updates_views_unlimited",
            Db::Bench { seed: 21 },
            0.5,
            true,
            Budget::Unlimited,
        ),
        PanelCase {
            validate_bounds: true,
            ..case(
                "tpch_updates_views_oracle",
                tpch(9),
                0.5,
                true,
                Budget::Factor(1.15),
            )
        },
        PanelCase {
            validate_bounds: true,
            call_budget: Some(12),
            ..case(
                "tpch_updates_views_call_budget",
                tpch(7),
                0.5,
                true,
                Budget::Bytes(24.0 * MB),
            )
        },
        PanelCase {
            faults: Some(FaultPlan {
                seed: 7,
                rate: 0.05,
            }),
            ..case(
                "tpch_updates_views_faults",
                tpch(7),
                0.5,
                true,
                Budget::Bytes(24.0 * MB),
            )
        },
    ]
}

fn run_panel_case(case: &PanelCase, threads: usize) -> (TuningReport, String) {
    let (db, w) = inputs(&case.db, case.update_ratio);
    let space_budget = match case.budget {
        Budget::Unlimited => None,
        Budget::Factor(f) => Some(Configuration::base(&db).size_bytes(&db) * f),
        Budget::Bytes(b) => Some(b),
    };
    let tracer = Tracer::new();
    let report = tune_traced(
        &db,
        &w,
        &TunerOptions {
            space_budget,
            max_iterations: 40,
            with_views: case.with_views,
            threads,
            validate_bounds: case.validate_bounds,
            optimizer_call_budget: case.call_budget,
            fault_plan: case.faults,
            ..TunerOptions::default()
        },
        Some(&tracer),
    );
    (report, tracer.to_jsonl())
}

#[test]
fn panel_matches_the_golden_snapshots() {
    for case in panel() {
        for threads in [1, 2] {
            let (report, trace) = run_panel_case(&case, threads);
            check(
                case.name,
                &format!("{}-t{threads}", case.name),
                &snapshot(&report, &trace),
                &trace,
            );
        }
    }
}

/// Golden counter regression on a fixed TPC-H session. A rising
/// `candidates_generated` means incrementality regressed (children
/// re-scoring inherited work); a change in `optimizer_calls` means the
/// search itself changed. Update deliberately, never casually.
#[test]
fn tpch_golden_counters() {
    let db = tpch::tpch_database(0.01);
    let spec = tpch::tpch_workload_variant(5, 6);
    let w = Workload::bind(&db, &spec.statements).unwrap();
    let budget = Configuration::base(&db).size_bytes(&db) * 1.15;
    let report = tune(
        &db,
        &w,
        &TunerOptions {
            space_budget: Some(budget),
            max_iterations: 30,
            ..TunerOptions::default()
        },
    );
    assert_eq!(
        report.optimizer_calls, GOLDEN_OPTIMIZER_CALLS,
        "optimizer_calls drifted from the golden value"
    );
    assert_eq!(
        report.candidates_generated, GOLDEN_CANDIDATES_GENERATED,
        "candidates_generated drifted from the golden value"
    );
    // Reuse is the point: children inherit their parents' scores.
    assert!(
        report.candidates_reused > 0,
        "no candidate scores were reused"
    );
}

// 20 -> 18 when the what-if cache moved to relevant-subset keys
// (derived costing): two re-evaluations in this session probe with an
// unchanged relevant subset and are now logical cache hits.
const GOLDEN_OPTIMIZER_CALLS: usize = 18;
const GOLDEN_CANDIDATES_GENERATED: u64 = 6;

struct SweepCase {
    seed: u64,
    update_ratio: f64,
    /// Budget as a multiple of the base configuration size; `None` is
    /// a one-byte (unreachable) budget that forces the deepest
    /// relaxation chain — maximal delta enumeration and score reuse.
    budget_factor: Option<f64>,
    with_views: bool,
    threads: usize,
    validate_bounds: bool,
}

fn sweep_cases() -> Vec<SweepCase> {
    // 200 seeded cases: select-only and update mixes, reachable and
    // unreachable budgets, with and without views, serial and parallel
    // scoring, with and without the bound oracle.
    (0..200u64)
        .map(|seed| SweepCase {
            seed,
            update_ratio: match seed % 3 {
                0 => 0.0,
                1 => 0.25,
                _ => 0.5,
            },
            budget_factor: if seed % 5 == 4 {
                None // unreachable: deepest chains
            } else {
                Some(1.05 + 0.1 * (seed % 6) as f64)
            },
            with_views: seed % 2 == 0,
            threads: if seed % 7 == 0 { 2 } else { 1 },
            validate_bounds: seed % 8 == 3,
        })
        .collect()
}

fn run_sweep_case(case: &SweepCase) -> (TuningReport, String) {
    let p = BenchParams {
        name: format!("incr-{}", case.seed),
        tables: 2 + (case.seed % 2) as usize,
        max_columns: 4 + (case.seed % 4) as usize,
        max_rows: 2e4 + 1e4 * (case.seed % 7) as f64,
        seed: case.seed,
    };
    let db = bench_database(&p);
    let mut spec = bench_workload(&db, case.seed ^ 0xD17A, 3 + (case.seed % 3) as usize);
    if case.update_ratio > 0.0 {
        spec = updates::with_updates(&db, &spec, case.update_ratio, case.seed);
    }
    let workload = Workload::bind(&db, &spec.statements).expect("bench workload binds");
    let budget = match case.budget_factor {
        Some(f) => Configuration::base(&db).size_bytes(&db) * f,
        None => 1.0,
    };
    let tracer = Tracer::new();
    let report = tune_traced(
        &db,
        &workload,
        &TunerOptions {
            space_budget: Some(budget),
            max_iterations: 12,
            with_views: case.with_views,
            threads: case.threads,
            validate_bounds: case.validate_bounds,
            ..TunerOptions::default()
        },
        Some(&tracer),
    );
    (report, tracer.to_jsonl())
}

#[test]
fn random_sweep_matches_its_golden_digest() {
    let mut all = String::new();
    let (mut reused, mut generated, mut avoided, mut plan_hits, mut calls) = (0, 0, 0, 0, 0);
    for case in sweep_cases() {
        let (report, trace) = run_sweep_case(&case);
        writeln!(all, "seed {}", case.seed).unwrap();
        all.push_str(&snapshot(&report, &trace));
        reused += report.candidates_reused;
        generated += report.candidates_generated;
        avoided += report.optimizer_calls_avoided;
        plan_hits += report.plan_cache_hits;
        calls += report.optimizer_calls;
    }
    // The sweep must exercise candidate reuse, derived costing and
    // plan reuse, not vacuously pass on searches that never leave
    // the optimal node.
    assert!(
        reused > 100,
        "only {reused} candidates reused across the sweep"
    );
    assert!(generated > 0);
    assert!(
        avoided > 100,
        "only {avoided} optimizer calls avoided across the sweep"
    );
    assert!(plan_hits > 0, "no plan was ever repriced across the sweep");
    assert!(
        calls > 1000,
        "only {calls} optimizer calls across the sweep"
    );
    let summary = format!(
        "cases: 200\ncandidates: {generated} generated, {reused} reused\n\
         optimizer_calls: {calls}, {avoided} avoided, {plan_hits} plan hits\n\
         digest: {:032x}\n",
        digest(all.as_bytes())
    );
    check("random_sweep", "random_sweep", &summary, &all);
}
