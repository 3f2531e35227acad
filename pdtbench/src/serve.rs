//! `serve-mixed`: an in-process `pdtune serve` daemon (2 slots, shared
//! what-if store on, checkpoints every 2 iterations) driven over its
//! line-JSON TCP protocol by two closed-loop clients. Each client
//! submits its next job only after the previous one reached a
//! terminal state.
//!
//! Jobs are small TPC-H specs drawn from a seeded plan: about half
//! repeat a spec submitted at least two jobs earlier, half use a fresh
//! seed; the rotation has a select-only spec, a spec with 50% DML, and
//! one with a what-if `call_budget`.

use crate::common::{
    e2e_metrics, ledger_rows, repeated_setup, Fingerprints, Gate, Outcome, RunCfg, Timed,
};
use crate::ledger::{timed, Ledger, NodeId};
use crate::probes::{workload_probes, EngineTally};
use crate::stats::{self, Metrics};
use pdt_catalog::Database;
use pdt_opt::invocation_count;
use pdt_serve::{serve, Client, JobSpec, ServeOptions};
use pdt_trace::json::Json;
use pdt_trace::{allocation_counters, Tracer};
use pdt_tuner::{tune_session, SessionCtl, StopToken, TunerOptions, Workload};
use pdt_workloads::{tpch, updates};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const SLOTS: usize = 2;
const PLAN_LEN: usize = 8192;
const POLL: Duration = Duration::from_millis(5);
/// Distinct specs re-run in process as the solo reference.
const SOLO_SPECS: usize = 4;

/// SplitMix64: the plan's seeded generator.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn spec(kind: usize, seed: u64) -> JobSpec {
    JobSpec {
        sf: 0.05,
        queries: Some(8),
        seed,
        budget: Some(8e6),
        iterations: 30,
        checkpoint_every: 2,
        updates: (kind == 1).then_some(0.5),
        call_budget: (kind == 2).then_some(40),
        ..JobSpec::default()
    }
}

/// The job sequence: `seq[j]` indexes `specs`; `repeat[j]` marks a
/// spec already submitted earlier in the sequence.
struct Plan {
    specs: Vec<JobSpec>,
    seq: Vec<usize>,
    repeat: Vec<bool>,
}

fn plan(seed: u64) -> Plan {
    let mut rng = Mix(seed ^ 0x5e7e_d0b5);
    let mut specs: Vec<JobSpec> = Vec::new();
    let mut first_use: Vec<usize> = Vec::new();
    let mut seq = Vec::with_capacity(PLAN_LEN);
    let mut repeat = Vec::with_capacity(PLAN_LEN);
    for j in 0..PLAN_LEN {
        let eligible = first_use.iter().filter(|&&f| f + 2 <= j).count();
        if eligible > 0 && rng.next() & 1 == 0 {
            seq.push((rng.next() % eligible as u64) as usize);
            repeat.push(true);
        } else {
            let kind = specs.len() % 3;
            specs.push(spec(kind, rng.next() % 1_000_000_007));
            first_use.push(j);
            seq.push(specs.len() - 1);
            repeat.push(false);
        }
    }
    Plan { specs, seq, repeat }
}

struct Daemon {
    client: Client,
    data_dir: PathBuf,
    thread: std::thread::JoinHandle<Result<(), String>>,
}

fn start_daemon(data_dir: PathBuf) -> Result<Daemon, String> {
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).map_err(|e| format!("{}: {e}", data_dir.display()))?;
    let opts = ServeOptions {
        data_dir: data_dir.clone(),
        slots: SLOTS,
        shared_store: true,
        ..ServeOptions::default()
    };
    let thread = std::thread::spawn(move || {
        serve(opts, StopToken::default()).map_err(|e| format!("daemon: {e}"))
    });
    let endpoint = data_dir.join("endpoint");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(addr) = std::fs::read_to_string(&endpoint) {
            let client = Client::new(addr.trim());
            if client.call_once(r#"{"op":"ping"}"#).is_ok() {
                return Ok(Daemon {
                    client,
                    data_dir,
                    thread,
                });
            }
        }
        if Instant::now() > deadline || thread.is_finished() {
            return Err("daemon never became reachable".to_string());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

impl Daemon {
    fn stop(self) -> Result<(), String> {
        let asked = self.client.call(r#"{"op":"shutdown"}"#);
        let joined = self
            .thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())
            .and_then(|r| r);
        let _ = std::fs::remove_dir_all(&self.data_dir);
        asked.map(|_| ()).and(joined)
    }

    fn artifact(&self, id: &str, name: &str) -> Option<String> {
        std::fs::read_to_string(self.data_dir.join("sessions").join(id).join(name)).ok()
    }

    fn stats(&self) -> Result<Json, String> {
        self.client.call(r#"{"op":"stats"}"#)
    }
}

/// `(cost, size, improvement %)` from a report's `best` line.
fn parse_best(report: &str) -> Option<(f64, f64, f64)> {
    let line = report.lines().find(|l| l.starts_with("best "))?;
    let w: Vec<&str> = line.split_whitespace().collect();
    let cost = w.get(2)?.parse().ok()?;
    let size = w.get(4)?.parse().ok()?;
    let pct = w.get(5)?.trim_matches(|c| c == '(' || c == ')' || c == '%');
    Some((cost, size, pct.parse().ok()?))
}

/// One job: submit, wait for its terminal state, check its report.
struct JobResult {
    spec: usize,
    repeat: bool,
    latency_ms: f64,
    submit_ms: f64,
    traced: bool,
    quality: Option<f64>,
}

struct Shared<'a> {
    daemon: &'a Daemon,
    plan: &'a Plan,
    next: AtomicUsize,
    deadline: Instant,
    trace: bool,
    ledger: Mutex<Ledger>,
    fps: Mutex<Fingerprints>,
    gate: Mutex<Gate>,
    results: Mutex<Vec<JobResult>>,
}

impl Shared<'_> {
    fn open(
        &self,
        traced: bool,
        name: &'static str,
        parent: Option<NodeId>,
        req: u64,
    ) -> Option<NodeId> {
        traced.then(|| {
            self.ledger
                .lock()
                .expect("ledger lock")
                .open(name, parent, req)
        })
    }

    fn close(&self, id: Option<NodeId>) {
        if let Some(id) = id {
            self.ledger.lock().expect("ledger lock").close(id);
        }
    }

    fn check(
        &self,
        id: &str,
        spec_idx: usize,
        state: &str,
        err: Option<String>,
    ) -> (Vec<String>, Option<f64>) {
        if state != "done" {
            return (
                vec![format!(
                    "job {id} ended {state}: {}",
                    err.unwrap_or_default()
                )],
                None,
            );
        }
        let Some(report) = self.daemon.artifact(id, "report.txt") else {
            return (vec![format!("job {id}: no report.txt")], None);
        };
        let spec = &self.plan.specs[spec_idx];
        let mut problems = Vec::new();
        let quality = match parse_best(&report) {
            Some((_, size, pct)) => {
                if size > spec.budget.unwrap_or(f64::INFINITY) * (1.0 + 1e-9) {
                    problems.push(format!(
                        "job {id}: recommendation of {size} bytes exceeds its budget"
                    ));
                }
                Some(pct)
            }
            None => {
                problems.push(format!("job {id}: report has no recommendation"));
                None
            }
        };
        let key = spec.to_json().to_string();
        problems.extend(
            self.fps
                .lock()
                .expect("fingerprint lock")
                .check(&key, report),
        );
        (problems, quality)
    }

    fn client_loop(&self) {
        let mut mine = 0usize;
        loop {
            let j = self.next.fetch_add(1, Ordering::SeqCst);
            // Every client sends at least one job, and one traced job in
            // the traced run.
            let min_jobs = CLIENTS * (1 + usize::from(self.trace));
            if (j >= min_jobs && Instant::now() >= self.deadline) || j >= self.plan.seq.len() {
                return;
            }
            let spec_idx = self.plan.seq[j];
            let traced = self.trace && mine % 2 == 1;
            mine += 1;
            let req = j as u64;
            let root = self.open(traced, "request", None, req);
            let start = Instant::now();
            let span = self.open(traced, "serve.submit", root, req);
            let submitted = self
                .daemon
                .client
                .submit(&self.plan.specs[spec_idx].to_json());
            self.close(span);
            let submit_ms = stats::ms(start.elapsed());
            let id = match submitted {
                Ok(id) => id,
                Err(e) => {
                    self.close(root);
                    self.gate
                        .lock()
                        .expect("gate lock")
                        .fail(format!("submit: {e}"));
                    continue;
                }
            };
            let span = self.open(traced, "serve.wait", root, req);
            let waited = self.daemon.client.wait(&id, POLL);
            self.close(span);
            let latency_ms = stats::ms(start.elapsed());
            let span = self.open(traced, "bench.check", root, req);
            let (problems, quality) = match waited {
                Ok((state, err)) => self.check(&id, spec_idx, &state, err),
                Err(e) => (vec![format!("job {id}: wait: {e}")], None),
            };
            self.close(span);
            self.close(root);
            self.gate.lock().expect("gate lock").record(problems);
            self.results.lock().expect("results lock").push(JobResult {
                spec: spec_idx,
                repeat: self.plan.repeat[j],
                latency_ms,
                submit_ms,
                traced,
                quality,
            });
        }
    }
}

/// A job spec rebuilt in process the way the daemon builds it, with
/// the (data generation, parse, bind) milliseconds.
struct Solo {
    db: Database,
    workload: Workload,
    options: TunerOptions,
    setup: (f64, f64, f64),
}

fn solo(spec: &JobSpec) -> Result<Solo, String> {
    let (db, datagen_ms) = timed(|| spec.build_database());
    let db = db?;
    let mut statements = tpch::tpch_workload_variant(spec.seed, spec.queries.unwrap_or(8));
    if let Some(ratio) = spec.updates {
        statements = updates::with_updates(&db, &statements, ratio, spec.seed);
    }
    let sql: Vec<String> = statements
        .statements
        .iter()
        .map(|s| s.to_string())
        .collect();
    let (parsed, parse_ms) = timed(|| pdt_sql::parse_workload(&sql.join(";\n")));
    let parsed = parsed.map_err(|e| format!("parse: {e}"))?;
    let (bound, bind_ms) = timed(|| Workload::bind(&db, &parsed));
    let workload = bound.map_err(|e| format!("bind: {e}"))?;
    let options = spec.tuner_options(spec.call_budget.map(|b| b as u64), StopToken::default())?;
    Ok(Solo {
        db,
        workload,
        options,
        setup: (datagen_ms, parse_ms, bind_ms),
    })
}

fn stat(doc: &Json, field: &str) -> f64 {
    doc.get(field).and_then(Json::as_i64).unwrap_or(0) as f64
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut notes = Vec::new();
    let pid = std::process::id();
    let (started, setup_samples) = repeated_setup(|rep| {
        let plan = plan(cfg.seed);
        let daemon = start_daemon(cfg.out_dir.join(format!("serve-{pid}-{rep}")))?;
        // Warm-up job outside the plan's seed space.
        let warm = spec(0, 1_000_000_007 + rep as u64);
        let id = daemon.client.submit(&warm.to_json())?;
        let (state, err) = daemon.client.wait(&id, POLL)?;
        if state != "done" {
            return Err(format!("warm-up job ended {state}: {err:?}"));
        }
        if rep + 1 < crate::common::SETUP_REPEATS {
            daemon.stop()?;
            return Ok(None);
        }
        Ok(Some((plan, daemon)))
    });
    let (plan, daemon) = match started {
        Ok(Some(v)) => v,
        Ok(None) => unreachable!("the last set-up keeps its daemon"),
        Err(e) => return Outcome::failed(SLOTS, format!("set-up: {e}")),
    };

    let inv0 = invocation_count();
    let cpu0 = stats::process_cpu();
    let start = Instant::now();
    let shared = Shared {
        daemon: &daemon,
        plan: &plan,
        next: AtomicUsize::new(0),
        deadline: cfg.deadline(start),
        trace: cfg.trace,
        ledger: Mutex::new(Ledger::new()),
        fps: Mutex::new(Fingerprints::default()),
        gate: Mutex::new(Gate::default()),
        results: Mutex::new(Vec::new()),
    };
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| shared.client_loop());
        }
    });
    let mut timed_run = Timed {
        loop_wall: start.elapsed(),
        loop_cpu: stats::process_cpu().saturating_sub(cpu0),
        invocations: invocation_count() - inv0,
        ..Timed::default()
    };
    let Shared {
        ledger,
        gate,
        results,
        ..
    } = shared;
    let ledger = ledger.into_inner().expect("ledger lock");
    let mut gate = gate.into_inner().expect("gate lock");
    let results = results.into_inner().expect("results lock");
    for r in &results {
        if r.traced {
            timed_run.traced_latencies_ms.push(r.latency_ms);
        } else {
            timed_run.latencies_ms.push(r.latency_ms);
        }
    }
    timed_run.completed = results.len() as u64;
    let qualities: Vec<f64> = results.iter().filter_map(|r| r.quality).collect();
    // Process-global: the daemon's sessions over the timed loop.
    let invocations = stats::ratio(timed_run.invocations as f64, timed_run.completed as f64);
    let e2e = e2e_metrics(
        &timed_run,
        invocations,
        stats::mean(&qualities),
        &setup_samples,
        &gate,
        &mut notes,
    );

    let mut layers = Metrics::default();
    let mut extra = Metrics::default();
    let mut spans_jsonl = None;
    let repeat_share = stats::ratio(
        results.iter().filter(|r| r.repeat).count() as f64,
        results.len() as f64,
    );
    notes.push(format!(
        "serve.repeat_share {repeat_share} of {} jobs",
        results.len()
    ));
    if cfg.trace {
        match daemon.stats() {
            Ok(doc) => {
                let hits = stat(&doc, "shared_hits") + stat(&doc, "shared_plan_hits");
                layers.put(
                    "shared.hit_ratio",
                    stats::ratio(hits, hits + stat(&doc, "shared_misses")),
                    "fraction",
                );
                layers.put("shared.plan_hits", stat(&doc, "shared_plan_hits"), "count");
                layers.put("shared.entries", stat(&doc, "shared_entries"), "count");
                layers.put("shared.evicted", stat(&doc, "shared_evicted"), "count");
                extra.put(
                    "serve.sessions_completed",
                    stat(&doc, "sessions_completed"),
                    "count",
                );
            }
            Err(e) => gate.fail(format!("stats: {e}")),
        }
        let pings: Vec<f64> = (0..100)
            .filter_map(|_| {
                let (r, ms) = timed(|| daemon.client.call_once(r#"{"op":"ping"}"#));
                r.ok().map(|_| ms)
            })
            .collect();
        extra.put("serve.ping_ms.p50", stats::median(&pings), "ms");
        let acks: Vec<f64> = results.iter().map(|r| r.submit_ms).collect();
        extra.put("serve.submit_ack_ms.p50", stats::median(&acks), "ms");
        layers.put("serve.repeat_share", repeat_share, "fraction");

        // Solo in-process reference: the most frequent specs, tuned
        // without the daemon, once untraced (wall) and once traced
        // (engine phases).
        let mut freq: BTreeMap<usize, usize> = BTreeMap::new();
        for r in &results {
            *freq.entry(r.spec).or_insert(0) += 1;
        }
        let mut by_freq: Vec<(usize, usize)> = freq.into_iter().collect();
        by_freq.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut solo_ms: BTreeMap<usize, f64> = BTreeMap::new();
        let mut tally = EngineTally::default();
        let mut solo_ledger = Ledger::new();
        let mut setup_ms = (0.0, 0.0, 0.0);
        let mut probe_workload: Option<(Database, Workload, TunerOptions)> = None;
        for (n, &(idx, _)) in by_freq.iter().take(SOLO_SPECS).enumerate() {
            let Solo {
                db,
                workload,
                options,
                setup,
            } = match solo(&plan.specs[idx]) {
                Ok(solo) => solo,
                Err(e) => {
                    gate.fail(format!("solo spec: {e}"));
                    continue;
                }
            };
            if n == 0 {
                setup_ms = setup;
            }
            let (solo, wall) =
                timed(|| tune_session(&db, &workload, &options, SessionCtl::default()));
            if let Err(e) = solo {
                gate.fail(format!("solo tune: {e}"));
                continue;
            }
            solo_ms.insert(idx, wall);
            let tracer = Tracer::new();
            let allocs = allocation_counters().0;
            let root = solo_ledger.open("solo", None, idx as u64);
            let (call, report) = solo_ledger.span("tune_session", Some(root), idx as u64, || {
                tune_session(
                    &db,
                    &workload,
                    &options,
                    SessionCtl {
                        tracer: Some(&tracer),
                        ..SessionCtl::default()
                    },
                )
            });
            solo_ledger.close(root);
            tally.request_allocs += allocation_counters().0 - allocs;
            if let Ok(Some(summary)) = report.map(|r| r.trace) {
                tally.add(&summary, &mut solo_ledger, call);
            }
            if probe_workload.is_none() {
                probe_workload = Some((db, workload, options));
            }
        }
        let overheads: Vec<f64> = results
            .iter()
            .filter_map(|r| solo_ms.get(&r.spec).map(|solo| r.latency_ms - solo))
            .collect();
        extra.put("serve.overhead_ms.p50", stats::median(&overheads), "ms");
        notes.push(format!(
            "serve.overhead_ms over {} jobs of the {} most frequent specs",
            overheads.len(),
            solo_ms.len()
        ));
        layers.put("setup.datagen_ms", setup_ms.0, "ms");
        layers.put("sql.parse_ms", setup_ms.1, "ms");
        layers.put("expr.bind_ms", setup_ms.2, "ms");
        tally.put(&mut layers, &mut extra);
        let (by_name, _) = ledger.self_ms_by_name();
        let traced_jobs = results.iter().filter(|r| r.traced).count();
        layers.put(
            "search.unattributed_ms",
            by_name.get("request").unwrap_or(&0.0) / traced_jobs.max(1) as f64,
            "ms",
        );
        if let Some((db, workload, options)) = &probe_workload {
            workload_probes(
                db,
                workload,
                options,
                &timed_run,
                invocations,
                &mut layers,
                &mut gate,
            );
        }
        ledger_rows(&ledger, traced_jobs, &mut layers, &mut notes);
        let mut jsonl = ledger.to_jsonl("requests");
        jsonl.push_str(&solo_ledger.to_jsonl("solo"));
        spans_jsonl = Some(jsonl);
    }
    if let Err(e) = daemon.stop() {
        gate.fail(format!("shutdown: {e}"));
    }
    layers.0.extend(extra.0);
    Outcome {
        e2e,
        layers,
        gate,
        threads: SLOTS,
        notes,
        flags: Vec::new(),
        spans_jsonl,
    }
}
