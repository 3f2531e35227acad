//! The `Session` abstraction: one durable, fault-isolated tuning job
//! wrapped around `tune_session`.
//!
//! A session owns a directory under the daemon's data dir:
//!
//! ```text
//! sessions/s0001/
//!   manifest.json     durable state machine record (WAL-style)
//!   checkpoint.json   PR 3 checkpoint, rewritten on a cadence
//!   trace.jsonl       final JSONL trace       (written at `done`)
//!   report.txt        final rendered report   (written at `done`)
//! ```
//!
//! Durability contract: every artifact is written with
//! [`crate::durable::atomic_write`] (tmp + fsync + rename + dir
//! fsync), and the manifest is the commit record — a session is
//! `done` exactly when its manifest says so, at which point report
//! and trace are already on disk. `kill -9` at any instant therefore
//! leaves one of two recoverable worlds: a terminal manifest with
//! complete artifacts, or a non-terminal manifest whose checkpoint
//! resumes the session byte-identically (reports *and* traces, at
//! every thread count — the PR 3 contract, now load-bearing).
//!
//! Fault isolation: the entire run is wrapped in `catch_unwind`; a
//! panic, a fault-limit abort, a bad spec, or a durable-write give-up
//! moves *this* session to `failed` and never touches the daemon or
//! any other session.

use crate::durable::DurableWriter;
use crate::job::JobSpec;
use crate::manifest::{Manifest, SessionState};
use pdt_trace::Tracer;
use pdt_tuner::fault::{SITE_CHECKPOINT_WRITE, SITE_MANIFEST_WRITE};
use pdt_tuner::{
    configuration_ddl, tune_session, Checkpoint, SessionCtl, StopReason, StopToken, TuneError,
    TuningReport,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shared handle to one session: the daemon's registry entry, the
/// worker's work item, and the watch op's event source.
#[derive(Debug)]
pub struct Session {
    pub id: String,
    pub dir: PathBuf,
    pub spec: JobSpec,
    pub assigned_call_budget: Option<u64>,
    state: Mutex<(SessionState, Option<String>)>,
    /// Trips the running engine at its next cooperative check; used by
    /// cancel and by graceful shutdown.
    pub token: StopToken,
    /// Live event stream, polled by watchers via
    /// `Tracer::events_jsonl_from`.
    pub tracer: Arc<Tracer>,
    /// Distinguishes a client cancel from a shutdown drain: both trip
    /// the token, but only a cancel is terminal.
    pub cancel_requested: AtomicBool,
    /// Monotonic manifest write number (fault-injection coordinate).
    manifest_seq: AtomicU64,
}

impl Session {
    pub fn new(
        id: String,
        dir: PathBuf,
        spec: JobSpec,
        assigned_call_budget: Option<u64>,
        state: SessionState,
        error: Option<String>,
    ) -> Session {
        Session {
            id,
            dir,
            spec,
            assigned_call_budget,
            state: Mutex::new((state, error)),
            token: StopToken::new(),
            tracer: Arc::new(Tracer::new()),
            cancel_requested: AtomicBool::new(false),
            manifest_seq: AtomicU64::new(0),
        }
    }

    pub fn state(&self) -> (SessionState, Option<String>) {
        let g = self.state.lock().unwrap_or_else(|e| e.into_inner());
        g.clone()
    }

    pub fn set_state(&self, state: SessionState, error: Option<String>) {
        let mut g = self.state.lock().unwrap_or_else(|e| e.into_inner());
        *g = (state, error);
    }

    pub fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.json")
    }

    pub fn checkpoint_path(&self) -> PathBuf {
        self.dir.join("checkpoint.json")
    }

    pub fn trace_path(&self) -> PathBuf {
        self.dir.join("trace.jsonl")
    }

    pub fn report_path(&self) -> PathBuf {
        self.dir.join("report.txt")
    }

    /// Warm-start input: a configuration (written at submit time from a
    /// `warm_from` source) that becomes `TunerOptions::deployed`.
    pub fn deployed_path(&self) -> PathBuf {
        self.dir.join("deployed.json")
    }

    /// Warm-start output: the final configuration in portable JSON,
    /// written at `done` for future `warm_from` submits (absent when
    /// the best configuration contains materialized views, which have
    /// no portable encoding).
    pub fn result_path(&self) -> PathBuf {
        self.dir.join("result.json")
    }

    fn manifest(&self) -> Manifest {
        let (state, error) = self.state();
        Manifest {
            id: self.id.clone(),
            state,
            error,
            assigned_call_budget: self.assigned_call_budget,
            spec: self.spec.clone(),
        }
    }

    /// Durably persist the current state. Manifest writes use the
    /// *daemon's* writer (and its `PDTUNE_FAULTS`-driven plan at
    /// `SITE_MANIFEST_WRITE`), not the session's checkpoint plan.
    pub fn persist_manifest(&self, writer: &DurableWriter) -> Result<(), String> {
        let seq = self.manifest_seq.fetch_add(1, Ordering::Relaxed);
        writer
            .write(
                SITE_MANIFEST_WRITE,
                seq,
                &self.manifest_path(),
                self.manifest().to_json_string().as_bytes(),
            )
            .map(|_| ())
    }
}

/// Logical engine counters of one finished session, aggregated by the
/// daemon into its cumulative `stats` ledger. All mode-invariant
/// (identical with the shared store on or off).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionCounters {
    /// Logical optimizer calls (serves included — see `eval.rs`).
    pub optimizer_calls: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Keyed cache misses served by plan reuse.
    pub plan_hits: u64,
    /// Real invocations the derived layer (invocation store + plan
    /// reuse) made unnecessary.
    pub invocation_hits: u64,
}

/// Outcome of one worker-side session run, fed to the scheduler's
/// aggregate ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    pub state: SessionState,
    /// Real what-if invocations charged against the session's assigned
    /// budget (0 in the exact tier).
    pub budget_spent: u64,
    /// True when the session stopped for a shutdown drain and must be
    /// resumed by the next daemon instance (manifest left `running`).
    pub drained: bool,
    /// Logical engine counters (zero unless the run produced a report).
    pub counters: SessionCounters,
}

/// Run one session to a stopping point. This is the only place session
/// state transitions out of `queued`/`running`, and every transition
/// is persisted before the function returns. `shared` is the daemon's
/// cross-session what-if store, when enabled.
pub fn run_session(
    session: &Session,
    manifest_writer: &DurableWriter,
    shared: Option<&pdt_tuner::SharedInvocationStore>,
) -> RunOutcome {
    let fail = |err: String| -> RunOutcome {
        session.set_state(SessionState::Failed, Some(err));
        // Best-effort: if even the failed-state manifest cannot be
        // written, the state stays `running` on disk and recovery
        // retries the session — strictly better than losing it.
        if let Err(e) = session.persist_manifest(manifest_writer) {
            eprintln!("serve: session {}: failed-manifest write: {e}", session.id);
        }
        RunOutcome {
            state: SessionState::Failed,
            budget_spent: 0,
            drained: false,
            counters: SessionCounters::default(),
        }
    };

    // ---- durable transition: queued -> running ----------------------
    session.set_state(SessionState::Running, None);
    if let Err(e) = session.persist_manifest(manifest_writer) {
        return fail(format!("manifest write: {e}"));
    }

    // ---- rebuild the job from its persisted spec --------------------
    let db = match session.spec.build_database() {
        Ok(db) => db,
        Err(e) => return fail(format!("workload error: {e}")),
    };
    let workload = match session.spec.build_workload(&db) {
        Ok(w) => w,
        Err(e) => return fail(format!("workload error: {e}")),
    };
    let mut options = match session
        .spec
        .tuner_options(session.assigned_call_budget, session.token.clone())
    {
        Ok(o) => o,
        Err(e) => return fail(format!("workload error: {e}")),
    };
    // Warm start: the deployed configuration persisted at submit time.
    // Loaded on every run (first attempt and recovery alike) *before*
    // the checkpoint check — `deployed` is part of the options
    // signature, so a recovered checkpoint only validates against the
    // same warm start it was written under.
    let deployed_path = session.deployed_path();
    if deployed_path.exists() {
        let body = match std::fs::read_to_string(&deployed_path) {
            Ok(b) => b,
            Err(e) => return fail(format!("deployed config: {e}")),
        };
        match pdt_tuner::config_from_json(&body) {
            Ok(c) => options.deployed = Some(c),
            Err(e) => return fail(format!("deployed config: {e}")),
        }
    }

    // ---- recovery: resume from the durable checkpoint ---------------
    let ck_path = session.checkpoint_path();
    let resumed: Option<Checkpoint> = if ck_path.exists() {
        let body = match std::fs::read_to_string(&ck_path) {
            Ok(b) => b,
            Err(e) => return fail(format!("recovery mismatch: reading checkpoint: {e}")),
        };
        match Checkpoint::from_json_str(&body) {
            Ok(ck) => Some(ck),
            Err(e) => return fail(format!("recovery mismatch: {e}")),
        }
    } else {
        None
    };

    // ---- checkpoint sink: durable, retried, fault-injectable --------
    let ck_writer = DurableWriter {
        faults: session.spec.io_fault_plan(),
        ..*manifest_writer
    };
    let ck_seq = AtomicU64::new(0);
    let io_error: Mutex<Option<String>> = Mutex::new(None);
    let sink = |_done: usize, body: &str| {
        let seq = ck_seq.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = ck_writer.write(SITE_CHECKPOINT_WRITE, seq, &ck_path, body.as_bytes()) {
            // Give up durably persisting progress: stop the session at
            // the next cooperative check and mark it failed below. A
            // session whose progress cannot be made durable must not
            // pretend to be crash-safe.
            *io_error.lock().unwrap_or_else(|p| p.into_inner()) = Some(e);
            session.token.trip(StopReason::Interrupted);
        }
    };

    let tracer = Arc::clone(&session.tracer);
    let ctl = SessionCtl {
        tracer: Some(&tracer),
        checkpoint_every: session.spec.checkpoint_every.max(1),
        checkpoint_sink: Some(&sink),
        resume: resumed.as_ref(),
        shared_store: shared,
    };

    // ---- the engine run, panic-isolated -----------------------------
    let result = catch_unwind(AssertUnwindSafe(|| {
        tune_session(&db, &workload, &options, ctl)
    }));

    let report: TuningReport = match result {
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            return fail(format!("panic: {msg}"));
        }
        Ok(Err(e @ TuneError::Checkpoint(_))) if resumed.is_some() => {
            return fail(format!("recovery mismatch: {e}"));
        }
        Ok(Err(e)) => return fail(e.to_string()),
        Ok(Ok(report)) => report,
    };

    let budget_spent = session
        .assigned_call_budget
        .and_then(|b| report.budget_remaining.map(|r| b.saturating_sub(r)))
        .unwrap_or(0);
    let counters = SessionCounters {
        optimizer_calls: report.optimizer_calls as u64,
        cache_hits: report.cache_hits,
        cache_misses: report.cache_misses,
        plan_hits: report.plan_cache_hits,
        invocation_hits: report.optimizer_calls_avoided,
    };

    if let Some(e) = io_error.lock().unwrap_or_else(|p| p.into_inner()).take() {
        return fail(format!("checkpoint write: {e}"));
    }

    match report.stop_reason {
        StopReason::Interrupted => {
            if session.cancel_requested.load(Ordering::Acquire) {
                session.set_state(SessionState::Canceled, None);
                if let Err(e) = session.persist_manifest(manifest_writer) {
                    return fail(format!("manifest write: {e}"));
                }
                RunOutcome {
                    state: SessionState::Canceled,
                    budget_spent,
                    drained: false,
                    counters,
                }
            } else {
                // Graceful drain: tune_session already pushed a final
                // checkpoint through the sink. The manifest deliberately
                // stays `running` on disk — that is the recovery marker.
                session.set_state(SessionState::Queued, None);
                RunOutcome {
                    state: SessionState::Queued,
                    budget_spent,
                    drained: true,
                    counters,
                }
            }
        }
        StopReason::FaultLimit => fail(format!(
            "aborted after {} contained faults",
            report.faults.len()
        )),
        _ => {
            // Artifacts first, then the terminal manifest: `done` on
            // disk implies report and trace are already durable.
            let trace_body = session.tracer.to_jsonl();
            let report_body = render_report(&db, &session.spec, &report);
            // Artifact writes get their own seq range, disjoint from
            // checkpoint seqs, so fault plans address them separately.
            for (i, (path, body)) in [
                (session.trace_path(), trace_body.as_bytes()),
                (session.report_path(), report_body.as_bytes()),
            ]
            .into_iter()
            .enumerate()
            {
                let seq = u32::MAX as u64 + i as u64;
                if let Err(e) = ck_writer.write(SITE_CHECKPOINT_WRITE, seq, &path, body) {
                    return fail(format!("artifact write: {e}"));
                }
            }
            // Persist the final configuration for future `warm_from`
            // submits. View-bearing configurations have no portable
            // encoding and simply leave no warm-start artifact — a
            // later warm_from of this session is then rejected at
            // submit, not silently degraded.
            if let Some(best) = &report.best {
                if let Ok(body) = pdt_tuner::config_to_json(&best.config) {
                    let seq = u32::MAX as u64 + 2;
                    if let Err(e) = ck_writer.write(
                        SITE_CHECKPOINT_WRITE,
                        seq,
                        &session.result_path(),
                        body.as_bytes(),
                    ) {
                        return fail(format!("artifact write: {e}"));
                    }
                }
            }
            session.set_state(SessionState::Done, None);
            if let Err(e) = session.persist_manifest(manifest_writer) {
                return fail(format!("manifest write: {e}"));
            }
            RunOutcome {
                state: SessionState::Done,
                budget_spent,
                drained: false,
                counters,
            }
        }
    }
}

/// Deterministic rendering of a finished session's report. Everything
/// here is a pure function of the search trajectory — costs, counters,
/// DDL — and never wall-clock time, so an interrupted-and-recovered
/// session's `report.txt` is byte-identical to an uninterrupted run's.
pub fn render_report(db: &pdt_catalog::Database, spec: &JobSpec, report: &TuningReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "pdtune session: db={} sf={} seed={} iterations={}",
        spec.db, spec.sf, spec.seed, spec.iterations
    );
    let _ = writeln!(
        out,
        "initial  cost {:.2}  size {:.0}",
        report.initial_cost, report.initial_size
    );
    let _ = writeln!(
        out,
        "optimal  cost {:.2}  size {:.0}  ({:+.2}%)",
        report.optimal_cost,
        report.optimal_size,
        report.optimal_improvement_pct()
    );
    match &report.best {
        Some(best) => {
            let _ = writeln!(
                out,
                "best     cost {:.2}  size {:.0}  ({:+.2}%)",
                best.cost,
                best.size_bytes,
                report.best_improvement_pct()
            );
            let base = pdt_physical::Configuration::base(db);
            for ddl in configuration_ddl(db, &best.config, &base) {
                let _ = writeln!(out, "  {ddl}");
            }
        }
        None => {
            let _ = writeln!(out, "best     (no configuration fits the budget)");
        }
    }
    let _ = writeln!(
        out,
        "stop={} iterations={} optimizer_calls={} cache={}h/{}m faults={}",
        report.stop_reason.label(),
        report.iterations,
        report.optimizer_calls,
        report.cache_hits,
        report.cache_misses,
        report.faults.len()
    );
    for f in &report.faults {
        let _ = writeln!(
            out,
            "fault iteration={} kind={} {}",
            f.iteration,
            f.kind.label(),
            f.detail
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::RetryPolicy;
    use std::time::Duration;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pdtune-session-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_spec() -> JobSpec {
        // The space budget matters: without one the optimal
        // configuration already fits and the search converges at
        // iteration 0 — no relaxation steps, no checkpoints.
        JobSpec {
            sf: 0.01,
            queries: Some(6),
            budget: Some(2e6),
            iterations: 20,
            checkpoint_every: 2,
            ..JobSpec::default()
        }
    }

    /// Zero-delay writer so fault-injection tests don't sleep.
    fn fast_writer() -> DurableWriter {
        DurableWriter {
            faults: None,
            policy: RetryPolicy {
                max_attempts: 3,
                base_delay: Duration::ZERO,
                max_delay: Duration::ZERO,
            },
        }
    }

    fn session_in(dir: &std::path::Path, spec: JobSpec) -> Session {
        Session::new(
            "s0001".into(),
            dir.to_path_buf(),
            spec,
            None,
            SessionState::Queued,
            None,
        )
    }

    #[test]
    fn clean_run_lands_done_with_all_artifacts() {
        let dir = scratch_dir("clean");
        let s = session_in(&dir, tiny_spec());
        let outcome = run_session(&s, &fast_writer(), None);
        assert_eq!(outcome.state, SessionState::Done);
        assert!(!outcome.drained);
        let manifest =
            Manifest::from_json_str(&std::fs::read_to_string(s.manifest_path()).unwrap()).unwrap();
        assert_eq!(manifest.state, SessionState::Done);
        let report = std::fs::read_to_string(s.report_path()).unwrap();
        assert!(report.contains("initial  cost"), "{report}");
        assert!(report.contains("stop="), "{report}");
        let trace = std::fs::read_to_string(s.trace_path()).unwrap();
        assert_eq!(trace, s.tracer.to_jsonl(), "durable trace == live trace");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_rendering_is_deterministic() {
        // Two independent runs of the same spec must render the same
        // report bytes — the property the e2e crash test relies on.
        let (dir_a, dir_b) = (scratch_dir("det-a"), scratch_dir("det-b"));
        let a = session_in(&dir_a, tiny_spec());
        let b = session_in(&dir_b, tiny_spec());
        assert_eq!(
            run_session(&a, &fast_writer(), None).state,
            SessionState::Done
        );
        assert_eq!(
            run_session(&b, &fast_writer(), None).state,
            SessionState::Done
        );
        assert_eq!(
            std::fs::read_to_string(a.report_path()).unwrap(),
            std::fs::read_to_string(b.report_path()).unwrap()
        );
        assert_eq!(
            std::fs::read_to_string(a.trace_path()).unwrap(),
            std::fs::read_to_string(b.trace_path()).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn io_fault_give_up_fails_the_session_with_bounded_attempts() {
        // Property (satellite: I/O fault injection): with a certain
        // checkpoint-write fault, the session must retry exactly the
        // bounded budget, then move to `failed` — never hang, never
        // claim durability it doesn't have. The manifest (a different
        // fault domain) must still record the failure durably.
        let dir = scratch_dir("iofault");
        let spec = JobSpec {
            io_faults: Some("1:1.0".into()),
            checkpoint_every: 1,
            ..tiny_spec()
        };
        let s = session_in(&dir, spec);
        let outcome = run_session(&s, &fast_writer(), None);
        assert_eq!(outcome.state, SessionState::Failed);
        let (state, error) = s.state();
        assert_eq!(state, SessionState::Failed);
        let error = error.unwrap();
        assert!(error.contains("checkpoint write"), "{error}");
        assert!(error.contains("after 3 attempts"), "{error}");
        let manifest =
            Manifest::from_json_str(&std::fs::read_to_string(s.manifest_path()).unwrap()).unwrap();
        assert_eq!(manifest.state, SessionState::Failed);
        assert!(!s.checkpoint_path().exists(), "no partial checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn io_fault_outcome_is_deterministic_across_seeds() {
        // Property: for any seed/rate, rerunning the same spec yields
        // the same terminal state — fault injection is coordinate-
        // hashed, not clock-driven.
        for seed in [2u64, 5, 11] {
            let spec = JobSpec {
                io_faults: Some(format!("{seed}:0.6")),
                checkpoint_every: 1,
                ..tiny_spec()
            };
            let dir_a = scratch_dir(&format!("iodet-a{seed}"));
            let dir_b = scratch_dir(&format!("iodet-b{seed}"));
            let a = session_in(&dir_a, spec.clone());
            let b = session_in(&dir_b, spec);
            let oa = run_session(&a, &fast_writer(), None);
            let ob = run_session(&b, &fast_writer(), None);
            assert_eq!(oa.state, ob.state, "seed {seed}");
            // Error text embeds the session path; compare the
            // path-independent tail (site/seq/attempt coordinates).
            let tail = |e: Option<String>| {
                e.map(|e| e.split("failed ").last().unwrap_or_default().to_string())
            };
            assert_eq!(tail(a.state().1), tail(b.state().1), "seed {seed}");
            let _ = std::fs::remove_dir_all(&dir_a);
            let _ = std::fs::remove_dir_all(&dir_b);
        }
    }

    #[test]
    fn fault_limit_isolates_to_failed_state() {
        // A session drowning in injected eval faults must land in
        // `failed` (not take the process down), with the fault count
        // in its error message.
        crate::daemon::quiet_injected_panics();
        let dir = scratch_dir("faultlimit");
        let spec = JobSpec {
            faults: Some("7:1.0".into()),
            max_faults: Some(2),
            ..tiny_spec()
        };
        let s = session_in(&dir, spec);
        let outcome = run_session(&s, &fast_writer(), None);
        assert_eq!(outcome.state, SessionState::Failed);
        let (_, error) = s.state();
        assert!(
            error.unwrap().contains("contained faults"),
            "fault-limit error should mention contained faults"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_spec_fails_without_running() {
        let dir = scratch_dir("badspec");
        let spec = JobSpec {
            db: "tpch".into(),
            updates: Some(2.0), // passes from_json only if hand-built
            ..tiny_spec()
        };
        let s = session_in(&dir, spec);
        // updates=2.0 clamps nothing: with_updates handles ratio
        // internally, so instead exercise the unknown-db path.
        let spec = JobSpec {
            db: "oracle".into(),
            ..tiny_spec()
        };
        let s2 = session_in(&dir, spec);
        let outcome = run_session(&s2, &fast_writer(), None);
        assert_eq!(outcome.state, SessionState::Failed);
        assert!(s2.state().1.unwrap().contains("workload error"));
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_leaves_manifest_running_and_resume_is_byte_identical() {
        // The crash-safety core, at unit scale: stop a session mid-run
        // (as graceful drain does), observe the manifest still says
        // `running`, then resume from the durable checkpoint and
        // compare artifacts against an uninterrupted control run.
        let control_dir = scratch_dir("drain-control");
        let control = session_in(&control_dir, tiny_spec());
        assert_eq!(
            run_session(&control, &fast_writer(), None).state,
            SessionState::Done
        );

        let dir = scratch_dir("drain");
        let s = session_in(&dir, tiny_spec());
        // Trip the token from a watcher thread once the first
        // checkpoint exists, emulating SIGTERM mid-session.
        let ck = s.checkpoint_path();
        let token = s.token.clone();
        let watcher = std::thread::spawn(move || {
            for _ in 0..2000 {
                if ck.exists() {
                    token.trip(StopReason::Interrupted);
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let outcome = run_session(&s, &fast_writer(), None);
        watcher.join().unwrap();

        if outcome.drained {
            assert_eq!(outcome.state, SessionState::Queued);
            let manifest =
                Manifest::from_json_str(&std::fs::read_to_string(s.manifest_path()).unwrap())
                    .unwrap();
            assert_eq!(
                manifest.state,
                SessionState::Running,
                "drained manifest must stay running — it is the recovery marker"
            );
            // Recovery: a fresh handle over the same directory.
            let resumed = session_in(&dir, tiny_spec());
            assert_eq!(
                run_session(&resumed, &fast_writer(), None).state,
                SessionState::Done
            );
            assert_eq!(
                std::fs::read_to_string(resumed.report_path()).unwrap(),
                std::fs::read_to_string(control.report_path()).unwrap(),
                "resumed report must be byte-identical"
            );
            assert_eq!(
                std::fs::read_to_string(resumed.trace_path()).unwrap(),
                std::fs::read_to_string(control.trace_path()).unwrap(),
                "resumed trace must be byte-identical"
            );
        } else {
            // The run finished before the watcher saw a checkpoint —
            // legal on a fast machine; the artifacts must then match
            // the control run directly.
            assert_eq!(outcome.state, SessionState::Done);
            assert_eq!(
                std::fs::read_to_string(s.report_path()).unwrap(),
                std::fs::read_to_string(control.report_path()).unwrap()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&control_dir);
    }

    #[test]
    fn corrupt_checkpoint_is_a_recovery_mismatch() {
        let dir = scratch_dir("badck");
        std::fs::write(dir.join("checkpoint.json"), b"{not json").unwrap();
        let s = session_in(&dir, tiny_spec());
        let outcome = run_session(&s, &fast_writer(), None);
        assert_eq!(outcome.state, SessionState::Failed);
        assert!(
            s.state().1.unwrap().starts_with("recovery mismatch:"),
            "corrupt checkpoint must surface as a recovery mismatch"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
