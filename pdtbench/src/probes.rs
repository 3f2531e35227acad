//! Layer probes shared by the workloads: the engine's own roll-ups
//! folded into ledger nodes and per-layer metrics, and the timed calls
//! into instrumentation, the optimizer, and checkpoint I/O.

use crate::common::{trace_overhead_pct, Gate, Timed};
use crate::ledger::{timed, Ledger, NodeId};
use crate::stats::{self, Metrics};
use pdt_catalog::Database;
use pdt_opt::Optimizer;
use pdt_physical::Configuration;
use pdt_trace::TraceSummary;
use pdt_tuner::{
    gather_optimal_configuration, tune_session, Checkpoint, SessionCtl, TunerOptions, Workload,
};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// The engine's named session phases, as `TraceSummary::phases`
/// records them.
const SETUP: &str = "setup";
const PREPASS: &str = "prepass";
const LOOP: &str = "search";

/// Engine roll-ups summed over the traced requests of a run.
#[derive(Default)]
pub struct EngineTally {
    /// Phase name -> total nanoseconds.
    phases: BTreeMap<&'static str, u64>,
    /// Hot phase name -> (nanoseconds, calls, allocations).
    hot: BTreeMap<&'static str, (u64, u64, u64)>,
    counters: BTreeMap<&'static str, u64>,
    /// Allocations over whole requests (process-wide counter delta).
    pub request_allocs: u64,
    pub requests: u64,
}

impl EngineTally {
    /// Fold one traced request's summary in and hang its phases under
    /// `call` in the ledger: setup and relaxation (pre-pass + loop)
    /// as roll-ups, the four hot sections under relaxation.
    pub fn add(&mut self, summary: &TraceSummary, ledger: &mut Ledger, call: NodeId) {
        self.requests += 1;
        let mut setup = 0u64;
        let mut relax = 0u64;
        for p in &summary.phases {
            let ns = p.elapsed.as_nanos() as u64;
            *self.phases.entry(p.name).or_insert(0) += ns;
            match p.name {
                SETUP => setup += ns,
                PREPASS | LOOP => relax += ns,
                _ => {}
            }
        }
        for (name, v) in &summary.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        ledger.rollup("search.setup", call, setup, 1);
        let relax_id = ledger.rollup("search.relax", call, relax, 1);
        for h in &summary.hot_phases {
            let e = self.hot.entry(h.name).or_insert((0, 0, 0));
            e.0 += h.nanos;
            e.1 += h.calls;
            e.2 += h.allocs;
            let name = match h.name {
                "candidates" => "search.candidates",
                "pricing" => "search.pricing",
                "eval" => "search.eval",
                _ => "search.skyline",
            };
            ledger.rollup(name, relax_id, h.nanos, h.calls);
        }
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Per-request means of the search, bound-memo and eval layers.
    pub fn put(&self, layers: &mut Metrics, extra: &mut Metrics) {
        let n = self.requests.max(1) as f64;
        let phase_ms = |name: &str| self.phases.get(name).copied().unwrap_or(0) as f64 / 1e6 / n;
        layers.put("search.setup_ms", phase_ms(SETUP), "ms");
        layers.put("search.prepass_ms", phase_ms(PREPASS), "ms");
        layers.put("search.loop_ms", phase_ms(LOOP), "ms");
        layers.put(
            "search.iterations",
            self.counter("search.iterations") / n,
            "count",
        );
        layers.put(
            "search.candidates_generated",
            self.counter("candidates.generated") / n,
            "count",
        );
        for name in ["candidates", "pricing", "eval", "skyline"] {
            let (ns, calls, allocs) = self.hot.get(name).copied().unwrap_or_default();
            let ms = ns as f64 / 1e6 / n;
            if name == "skyline" {
                extra.put("search.skyline_ms", ms, "ms");
            } else {
                layers.put(format!("search.{name}_ms"), ms, "ms");
            }
            layers.put(format!("search.{name}_calls"), calls as f64 / n, "count");
            if name == "pricing" {
                layers.put("search.pricing_allocs", allocs as f64 / n, "count");
            }
        }
        layers.put("search.allocs", self.request_allocs as f64 / n, "count");
        let hit_ratio = |hits: &str, misses: &str| {
            let h = self.counter(hits);
            stats::ratio(h, h + self.counter(misses))
        };
        layers.put(
            "bound.memo_hit_ratio",
            hit_ratio("bound.memo.hits", "bound.memo.misses"),
            "fraction",
        );
        layers.put(
            "eval.cache_hit_ratio",
            hit_ratio("cache.hits", "cache.misses"),
            "fraction",
        );
        layers.put(
            "eval.plan_hit_ratio",
            hit_ratio("plan_cache.hits", "plan_cache.misses"),
            "fraction",
        );
        layers.put(
            "eval.calls_avoided",
            self.counter("optimizer.calls_avoided") / n,
            "count",
        );
        layers.put(
            "opt.logical_calls",
            self.counter("optimizer.calls") / n,
            "count",
        );
    }
}

/// The probes every traced run reports, on a workload representative
/// of its requests and outside the timed loop: §2 instrumentation, the
/// optimizer, checkpoint I/O, CPU use and tracing overhead.
/// `invocations` is the run's real optimizer invocations per request.
pub fn workload_probes(
    db: &Database,
    workload: &Workload,
    options: &TunerOptions,
    timed_run: &Timed,
    invocations: f64,
    layers: &mut Metrics,
    gate: &mut Gate,
) {
    let (optimal_ms, index_requests, view_requests) = instrument_probe(db, workload, 5);
    layers.put("instrument.optimal_ms", optimal_ms, "ms");
    layers.put("instrument.index_requests", index_requests as f64, "count");
    layers.put("instrument.view_requests", view_requests as f64, "count");
    layers.put("opt.invocations", invocations, "count");
    let optimize_us = optimize_probe(db, workload);
    layers.put("opt.optimize_us.p50", optimize_us, "us");
    layers.put(
        "opt.est_share",
        stats::ratio(
            invocations * optimize_us / 1e3,
            stats::median(&timed_run.latencies_ms),
        ),
        "fraction",
    );
    match checkpoint_probe(db, workload, options) {
        Ok((bytes, enc, dec)) => {
            layers.put("checkpoint.bytes", bytes, "bytes");
            layers.put("checkpoint.encode_ms", enc, "ms");
            layers.put("checkpoint.decode_ms", dec, "ms");
        }
        Err(e) => gate.fail(e),
    }
    layers.put(
        "par.cpu_per_wall",
        stats::ratio(
            timed_run.loop_cpu.as_secs_f64(),
            timed_run.loop_wall.as_secs_f64(),
        ),
        "ratio",
    );
    layers.put("trace.overhead_pct", trace_overhead_pct(timed_run), "%");
}

/// Time the §2 instrumentation pass on `workload`; returns the median
/// milliseconds over `reps` calls and the (index, view) request
/// counts.
fn instrument_probe(db: &Database, workload: &Workload, reps: usize) -> (f64, usize, usize) {
    let mut times = Vec::with_capacity(reps);
    let mut requests = (0, 0);
    for _ in 0..reps.max(1) {
        let ((_, sink), ms) = timed(|| gather_optimal_configuration(db, workload, true));
        times.push(ms);
        requests = (sink.index_requests, sink.view_requests);
    }
    (stats::median(&times), requests.0, requests.1)
}

/// Median microseconds of one `Optimizer::optimize` call over every
/// SELECT of `workload`, under the base and the optimal configuration.
fn optimize_probe(db: &Database, workload: &Workload) -> f64 {
    let opt = Optimizer::new(db);
    let base = Configuration::base(db);
    let (optimal, _) = gather_optimal_configuration(db, workload, true);
    let mut times = Vec::new();
    for config in [&base, &optimal] {
        for entry in &workload.entries {
            if let Some(select) = &entry.select {
                let (plan, ms) = timed(|| opt.optimize(config, select));
                std::hint::black_box(plan);
                times.push(ms * 1e3);
            }
        }
    }
    stats::median(&times)
}

/// Statements of the checkpointed probe session. Checkpoint decoding
/// is quadratic in the document size today (a 1.3 MB tune-tpch
/// checkpoint takes 20-40 s to parse), so the probe checkpoints a
/// session over a bounded prefix of the workload.
const CHECKPOINT_STATEMENTS: usize = 6;

/// Capture the last checkpoint of a session over the first
/// [`CHECKPOINT_STATEMENTS`] statements of `workload` through a
/// `SessionCtl` sink, then time decoding and re-encoding it.
fn checkpoint_probe(
    db: &Database,
    workload: &Workload,
    options: &TunerOptions,
) -> Result<(f64, f64, f64), String> {
    let prefix = Workload {
        entries: workload
            .entries
            .iter()
            .take(CHECKPOINT_STATEMENTS)
            .cloned()
            .collect(),
        deduped: 0,
    };
    // An unbudgeted session converges before its first checkpoint;
    // give it the tune-tpch budget rule.
    let mut options = options.clone();
    if options.space_budget.is_none() {
        let (optimal, _) = gather_optimal_configuration(db, &prefix, options.with_views);
        let base = Configuration::base(db).size_bytes(db);
        options.space_budget = Some(base + 0.1 * (optimal.size_bytes(db) - base));
    }
    let last = RefCell::new(String::new());
    let sink = |_: usize, body: &str| {
        *last.borrow_mut() = body.to_string();
    };
    tune_session(
        db,
        &prefix,
        &options,
        SessionCtl {
            checkpoint_every: 1,
            checkpoint_sink: Some(&sink),
            ..SessionCtl::default()
        },
    )
    .map_err(|e| format!("checkpointed session: {e}"))?;
    checkpoint_codec(&last.into_inner())
}

/// Decode and re-encode a checkpoint body once: (bytes, encode ms,
/// decode ms), zeros when the session never checkpointed. The
/// re-encoded text must equal the body.
fn checkpoint_codec(body: &str) -> Result<(f64, f64, f64), String> {
    if body.is_empty() {
        return Ok((0.0, 0.0, 0.0));
    }
    let (ck, decode_ms) = timed(|| Checkpoint::from_json_str(body));
    let ck = ck.map_err(|e| format!("checkpoint decode: {e}"))?;
    let (text, encode_ms) = timed(|| ck.to_json_string());
    if text != body {
        return Err("checkpoint re-encode differs from the captured body".to_string());
    }
    Ok((body.len() as f64, encode_ms, decode_ms))
}
