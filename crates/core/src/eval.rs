//! Workload cost evaluation with minimal re-optimization.
//!
//! The relaxation search only ever *shrinks* configurations, so a query
//! whose plan used none of the removed structures keeps its plan ("we
//! only need to re-optimize queries that used some of the relaxed
//! structures", §3). Update shells are costed in closed form — no
//! optimizer calls (§3.6).
//!
//! Evaluation is parallel and cache-aware: entries are optimized on a
//! scoped worker pool ([`EvalCtx::threads`]) and what-if answers are
//! memoized in a shared [`CostCache`]. Both are engineered so the
//! result — costs, plans, optimizer-call counts, cache counters — is
//! identical for every thread count:
//!
//! * totals are summed sequentially in entry order from the collected
//!   per-entry results, never from the parallel accumulator;
//! * shortcut evaluation aborts workers through an atomic running
//!   total with a small relative margin, and the authoritative
//!   over-limit decision is re-made from the ordered sum (costs are
//!   non-negative, so any partial sum exceeding the margin implies the
//!   ordered total exceeds the limit);
//! * cache inserts and hit/miss tallies commit only after the whole
//!   evaluation succeeds, so aborted evaluations leave no trace.

use crate::cache::{CacheEntry, CostCache, DerivedTally};
use crate::derived::{sorted_subset, FlatProjector, RelevanceTable};
use crate::fault::FaultSite;
use crate::par::par_map;
use crate::stop::StopCheck;
use crate::workload::{UpdateShell, Workload};
use pdt_catalog::{Database, TableId};
use pdt_opt::{CostModel, IndexUsage, Optimizer};
use pdt_physical::{Configuration, Index, PhysicalSchema};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Evaluation of one workload entry under a configuration.
#[derive(Debug, Clone)]
pub struct QueryEval {
    /// Cost of the SELECT component (0 for pure INSERT shells).
    pub select_cost: f64,
    /// Closed-form maintenance cost of the update shell (0 for SELECTs).
    pub shell_cost: f64,
    /// Index usages of the SELECT plan (§3.3.2's explain records).
    /// Shared: unaffected queries reuse their plan across the many
    /// configurations the search evaluates, so reuse is a pointer copy.
    pub usages: Arc<[IndexUsage]>,
}

impl QueryEval {
    pub fn total(&self) -> f64 {
        self.select_cost + self.shell_cost
    }

    /// True if the plan used any of the given structures.
    pub fn uses_any(&self, removed_indexes: &[Index], removed_views: &[TableId]) -> bool {
        self.usages
            .iter()
            .any(|u| removed_indexes.contains(&u.index) || removed_views.contains(&u.index.table))
    }
}

/// Evaluation of a whole workload under a configuration.
#[derive(Debug, Clone)]
pub struct EvalResult {
    pub per_query: Vec<QueryEval>,
    /// Weighted total cost.
    pub total_cost: f64,
    /// Optimizer invocations needed to produce this result (cache hits
    /// excluded — they invoke nothing).
    pub optimizer_calls: usize,
    /// Entry indexes whose cached cost was found corrupt (non-finite or
    /// negative) and recomputed. Empty outside fault scenarios; the
    /// search records each as a contained `CachePoison` fault.
    pub poison_repairs: Vec<usize>,
}

/// How an evaluation runs: worker count and the shared what-if cache.
/// The default — one thread, no cache — reproduces the plain
/// sequential evaluation exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalCtx<'c> {
    /// Scoped workers to optimize entries on (0 and 1 both mean
    /// sequential).
    pub threads: usize,
    /// Shared memo of optimizer answers, keyed per query by the
    /// configuration projected onto the query's tables.
    pub cache: Option<&'c CostCache>,
    /// Trace sink for `eval.commit`/`eval.abort` events and the
    /// `optimizer.calls`/`cache.*` counters. Emission happens only at
    /// the commit point on the calling thread (never from workers), so
    /// the event stream is identical for every `threads` value.
    pub tracer: Option<&'c pdt_trace::Tracer>,
    /// Cooperative cancellation: checked between entries (sequential)
    /// and before each worker pulls an entry (parallel). A stopped
    /// evaluation returns `None` and, like a shortcut abort, commits
    /// nothing.
    pub stop: Option<&'c StopCheck<'c>>,
    /// Deterministic fault injection for this evaluation's pipeline
    /// site; `None` outside fault-injection runs.
    pub faults: Option<FaultSite<'c>>,
    /// Per-query relevant-structure sets. When present, cache keys are
    /// relevant-subset signatures and keyed misses may be served by
    /// plan reuse ([`CostCache::plan_probe`]); when absent, keys fall
    /// back to the coarse per-table projection and no derived serving
    /// happens. Derived serves skip the real optimizer invocation;
    /// debug builds cross-validate every one against a real call.
    pub relevance: Option<&'c RelevanceTable>,
    /// Daemon-wide shared what-if store: a third probe tier after the
    /// per-session invocation store, consulted (and fed) only on the
    /// real-invocation path. Serves carry bitwise-identical answers
    /// keyed by session-portable content signatures
    /// ([`crate::shared`]), so — like the invocation store — the tier
    /// is invisible to every logical counter and to the trace; debug
    /// builds cross-validate each serve with a real call. `None`
    /// outside serve mode.
    pub shared: Option<crate::shared::SharedCtx<'c>>,
}

/// Maintenance cost of one update shell against one index: descend the
/// tree and write the leaf entry, per modified row. Indexes over
/// materialized views referencing the written table pay a delta-
/// maintenance surcharge.
pub fn shell_index_cost(
    model: &CostModel,
    schema: &PhysicalSchema<'_>,
    shell: &UpdateShell,
    index: &Index,
) -> f64 {
    const VIEW_MAINTENANCE_FACTOR: f64 = 2.0;
    let (affected, factor) = if index.table.is_view() {
        match schema.config.view(index.table) {
            Some(v) if v.def.tables.contains(&shell.table) => (true, VIEW_MAINTENANCE_FACTOR),
            _ => (false, 1.0),
        }
    } else {
        (shell.affects(index), 1.0)
    };
    if !affected {
        return 0.0;
    }
    let levels = model.btree_levels(schema, index);
    let per_row = (levels + 1.0) * model.rand_page * 0.5 + 2.0 * model.cpu_tuple;
    shell.rows * per_row * factor
}

/// Total shell cost of one entry under a configuration.
pub fn shell_cost(model: &CostModel, schema: &PhysicalSchema<'_>, shell: &UpdateShell) -> f64 {
    schema
        .config
        .indexes()
        .map(|i| shell_index_cost(model, schema, shell, i))
        .sum()
}

/// Does swapping `removed` for `added` change [`shell_cost`] for this
/// shell at all? Mirrors [`shell_index_cost`]'s relevance test exactly:
/// an irrelevant index contributes a `0.0` term, and inserting or
/// removing `0.0` terms in the non-negative left-fold sum is a bitwise
/// no-op — so `false` here means the old `shell_cost` can be reused
/// bit-for-bit. Removed indexes are tested under the old configuration
/// (where their backing views still exist), added ones under the new.
pub fn shell_affected(
    shell: &UpdateShell,
    removed: &[Index],
    added: &[Index],
    old_config: &Configuration,
    new_config: &Configuration,
) -> bool {
    let relevant = |index: &Index, config: &Configuration| -> bool {
        if index.table.is_view() {
            matches!(config.view(index.table), Some(v) if v.def.tables.contains(&shell.table))
        } else {
            shell.affects(index)
        }
    };
    removed.iter().any(|i| relevant(i, old_config)) || added.iter().any(|i| relevant(i, new_config))
}

/// Evaluate the full workload from scratch.
pub fn evaluate_full(
    db: &Database,
    opt: &Optimizer<'_>,
    config: &Configuration,
    workload: &Workload,
) -> EvalResult {
    evaluate_full_ctx(db, opt, config, workload, EvalCtx::default())
}

/// [`evaluate_full`] with explicit threading/caching.
pub fn evaluate_full_ctx(
    db: &Database,
    opt: &Optimizer<'_>,
    config: &Configuration,
    workload: &Workload,
    ctx: EvalCtx<'_>,
) -> EvalResult {
    // Full evaluations are all-or-nothing: they establish reference
    // costs (setup, baselines, resume replay), so a partial answer is
    // useless. Stripping any stop token here makes the invariant
    // structural: `evaluate_entries` returns `None` only on a shortcut
    // abort (requires `shortcut_limit`, passed as `None`) or a
    // cooperative stop (requires `ctx.stop`, cleared below). Injected
    // faults cannot reach this expect either — they panic (caught by
    // the isolation layer upstream) or poison the cache (repaired
    // in-line as a miss); neither produces a `None`.
    let ctx = EvalCtx { stop: None, ..ctx };
    evaluate_entries(db, opt, config, workload, None, None, ctx)
        .expect("no shortcut limit and no stop token, cannot abort")
}

/// Re-evaluate after a relaxation: only queries whose plans used one of
/// the removed structures are re-optimized; shells are recomputed in
/// closed form. With `shortcut_limit` set (§3.5 shortcut evaluation),
/// returns `None` as soon as the accumulated cost exceeds the limit.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_incremental(
    db: &Database,
    opt: &Optimizer<'_>,
    config: &Configuration,
    workload: &Workload,
    prev: &EvalResult,
    removed_indexes: &[Index],
    removed_views: &[TableId],
    shortcut_limit: Option<f64>,
) -> Option<EvalResult> {
    evaluate_incremental_ctx(
        db,
        opt,
        config,
        workload,
        prev,
        removed_indexes,
        removed_views,
        shortcut_limit,
        EvalCtx::default(),
    )
}

/// [`evaluate_incremental`] with explicit threading/caching.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_incremental_ctx(
    db: &Database,
    opt: &Optimizer<'_>,
    config: &Configuration,
    workload: &Workload,
    prev: &EvalResult,
    removed_indexes: &[Index],
    removed_views: &[TableId],
    shortcut_limit: Option<f64>,
    ctx: EvalCtx<'_>,
) -> Option<EvalResult> {
    evaluate_entries(
        db,
        opt,
        config,
        workload,
        Some((prev, removed_indexes, removed_views)),
        shortcut_limit,
        ctx,
    )
}

/// One entry's evaluation plus its bookkeeping, produced by a worker
/// and committed (cache inserts, counters) only if the whole
/// evaluation survives the shortcut check.
struct EntryEval {
    q: QueryEval,
    calls: usize,
    hit: bool,
    miss: bool,
    repaired: bool,
    /// This entry was a derived serve: a keyed hit beyond the coarse
    /// projection, or a plan-reuse answer. The exact engine would have
    /// paid an optimizer call here.
    avoided: bool,
    /// Served by plan reuse after a keyed miss.
    plan_hit: bool,
    /// Keyed miss whose plan probe found nothing servable.
    plan_miss: bool,
    /// Plan-reuse serve that re-priced a non-empty footprint.
    repriced: bool,
    pending_insert: Option<(u128, CacheEntry)>,
}

/// The common core of full and incremental evaluation.
fn evaluate_entries(
    db: &Database,
    opt: &Optimizer<'_>,
    config: &Configuration,
    workload: &Workload,
    prev: Option<(&EvalResult, &[Index], &[TableId])>,
    shortcut_limit: Option<f64>,
    ctx: EvalCtx<'_>,
) -> Option<EvalResult> {
    let schema = PhysicalSchema::new(db, config);
    let model = opt.opts.cost;
    let entries = &workload.entries;
    // Hoist per-structure signature work out of the per-entry loop;
    // workers share the projector by reference.
    let projector = ctx.relevance.map(|rt| FlatProjector::new(rt, config));

    let compute = |i: usize| -> EntryEval {
        let entry = &entries[i];
        let needs_reopt = match prev {
            Some((p, ri, rv)) => p.per_query[i].uses_any(ri, rv),
            None => true,
        };
        let mut calls = 0;
        let (mut hit, mut miss, mut repaired) = (false, false, false);
        let (mut avoided, mut plan_hit, mut plan_miss, mut repriced) = (false, false, false, false);
        let mut pending_insert = None;
        let (select_cost, usages): (f64, Arc<[IndexUsage]>) = if needs_reopt {
            match &entry.select {
                Some(q) => {
                    // Injected panic: simulates a what-if evaluation
                    // failing; caught by the isolation layer upstream.
                    if let Some(f) = ctx.faults {
                        f.maybe_panic(i);
                    }
                    // With a relevance table, key by the relevant-subset
                    // signature; otherwise by the coarse per-table one.
                    let proj = projector.as_ref().and_then(|fp| fp.project(i));
                    let cached = ctx.cache.map(|cache| {
                        let sig = match &proj {
                            Some(p) => p.sig,
                            None => {
                                let tables: BTreeSet<TableId> = q.tables.iter().copied().collect();
                                config.signature_for_tables128(&tables)
                            }
                        };
                        (cache, sig)
                    });
                    // Validate before trusting: a poisoned entry (non-
                    // finite or negative cost) is discarded and the
                    // entry recomputed as a plain miss, overwriting the
                    // corrupt value at commit time.
                    let looked_up = match cached.as_ref().and_then(|(c, sig)| c.lookup(i, *sig)) {
                        Some(e) if !(e.cost.is_finite() && e.cost >= 0.0) => {
                            repaired = true;
                            None
                        }
                        other => other,
                    };
                    // Serve from the keyed entry, or — on a keyed miss
                    // with relevance — from a surviving cached plan.
                    let mut serving: Option<CacheEntry> = None;
                    if let Some(e) = looked_up {
                        hit = true;
                        // A stored coarse projection different from the
                        // probe's marks a hit the coarse-keyed engine
                        // would have missed: an optimizer call avoided.
                        if proj.as_ref().is_some_and(|p| e.coarse != p.coarse) {
                            avoided = true;
                        }
                        serving = Some(e);
                    } else if !repaired {
                        if let (Some((cache, _)), Some(p)) = (cached.as_ref(), proj.as_ref()) {
                            match cache.plan_probe(i, p) {
                                Some(e) => {
                                    match pdt_opt::reprice_plan(e.cost, &e.usages, config) {
                                        Some(cost) => {
                                            hit = true;
                                            avoided = true;
                                            plan_hit = true;
                                            repriced = !e.footprint.is_empty();
                                            serving = Some(CacheEntry { cost, ..e });
                                        }
                                        // Unreachable if the signature-
                                        // level survival checks are
                                        // right; a failed probe for
                                        // safety.
                                        None => plan_miss = true,
                                    }
                                }
                                None => plan_miss = true,
                            }
                        }
                    }
                    match serving {
                        Some(e) => {
                            let cost = e.cost;
                            let usages = e.usages.clone();
                            // Debug builds cross-validate every derived
                            // serve against a real optimizer call. The
                            // invocation is validation overhead, not a
                            // logical call: `calls` stays 0.
                            #[cfg(debug_assertions)]
                            if avoided {
                                let plan = opt.optimize(config, q);
                                debug_assert_eq!(
                                    plan.cost.to_bits(),
                                    cost.to_bits(),
                                    "derived cost diverged from the optimizer for query {i}"
                                );
                                debug_assert_eq!(
                                    plan.index_usages.as_slice(),
                                    usages.as_ref(),
                                    "derived plan diverged from the optimizer for query {i}"
                                );
                            }
                            // A plan-reuse serve memoizes itself at the
                            // probe's key, turning the next identical
                            // probe into a keyed hit.
                            if plan_hit {
                                let p = proj.as_ref().expect("plan_hit requires a projection");
                                let footprint: Arc<[u128]> =
                                    pdt_opt::plan_footprint(&usages, config).into();
                                debug_assert!(
                                    sorted_subset(&footprint, &p.relevant),
                                    "plan for query {i} uses a structure outside its relevant set"
                                );
                                pending_insert = Some((
                                    p.sig,
                                    CacheEntry {
                                        cost,
                                        usages: usages.clone(),
                                        coarse: p.coarse,
                                        relevant: p.relevant.clone(),
                                        footprint,
                                        pinned: p.pinned.clone(),
                                    },
                                ));
                            }
                            (cost, usages)
                        }
                        None => {
                            // Consult the invocation store before
                            // paying a real plan search: a prior
                            // invocation for this exact key — possibly
                            // from a shortcut-aborted evaluation whose
                            // cache inserts were never committed —
                            // already holds the bitwise-identical
                            // answer, and failing that, a stored plan
                            // that provably survives under this
                            // projection serves re-priced. Both are
                            // invisible to every counter (this stays a
                            // plain logical miss); debug builds
                            // re-invoke and check.
                            let stored = cached.as_ref().and_then(|(c, sig)| {
                                c.invocation_lookup(i, *sig)
                                    .or_else(|| {
                                        let p = proj.as_ref()?;
                                        let e = c.invocation_plan_probe(i, p)?;
                                        let cost =
                                            pdt_opt::reprice_plan(e.cost, &e.usages, config)?;
                                        Some(CacheEntry { cost, ..e })
                                    })
                                    // Third tier: the daemon-wide shared
                                    // store, addressed by session-portable
                                    // content signatures. Another tenant's
                                    // answer is bitwise-identical by key
                                    // purity, so this serve flows through
                                    // the same cross-validated `stored`
                                    // path below.
                                    .or_else(|| {
                                        ctx.shared.as_ref()?.probe(i, *sig, proj.as_ref(), config)
                                    })
                            });
                            let (plan_cost, usages): (f64, Arc<[IndexUsage]>) = match stored {
                                Some(e) => {
                                    #[cfg(debug_assertions)]
                                    {
                                        let fresh = opt.optimize(config, q);
                                        debug_assert_eq!(
                                            fresh.cost.to_bits(),
                                            e.cost.to_bits(),
                                            "stored invocation diverged for query {i}"
                                        );
                                        debug_assert_eq!(
                                            fresh.index_usages.as_slice(),
                                            e.usages.as_ref(),
                                            "stored plan diverged for query {i}"
                                        );
                                    }
                                    (e.cost, e.usages)
                                }
                                None => {
                                    let plan = opt.optimize(config, q);
                                    (plan.cost, plan.index_usages.into())
                                }
                            };
                            calls = 1;
                            if let Some((_, sig)) = cached {
                                miss = true;
                                let true_entry = match proj.as_ref() {
                                    Some(p) => {
                                        let footprint: Arc<[u128]> =
                                            pdt_opt::plan_footprint(&usages, config).into();
                                        debug_assert!(
                                            sorted_subset(&footprint, &p.relevant),
                                            "plan for query {i} uses a structure outside \
                                             its relevant set"
                                        );
                                        CacheEntry {
                                            cost: plan_cost,
                                            usages: usages.clone(),
                                            coarse: p.coarse,
                                            relevant: p.relevant.clone(),
                                            footprint,
                                            pinned: p.pinned.clone(),
                                        }
                                    }
                                    None => CacheEntry::plain(plan_cost, usages.clone(), sig),
                                };
                                if let Some((c, _)) = cached.as_ref() {
                                    c.invocation_insert(i, sig, true_entry.clone());
                                }
                                // Publish the real answer under its
                                // portable key so other tenants (and
                                // this daemon's next session) can serve
                                // it.
                                if let Some(s) = ctx.shared.as_ref() {
                                    s.record(i, sig, &true_entry);
                                }
                                // Injected poisoning: write a NaN cost
                                // so a later lookup must repair it (the
                                // invocation store keeps the true
                                // answer — poison is a cache fault, not
                                // an optimizer fault).
                                let ce = if ctx.faults.is_some_and(|f| f.poison_roll(i)) {
                                    CacheEntry {
                                        cost: f64::NAN,
                                        ..true_entry
                                    }
                                } else {
                                    true_entry
                                };
                                pending_insert = Some((sig, ce));
                            }
                            (plan_cost, usages)
                        }
                    }
                }
                None => (0.0, Vec::new().into()),
            }
        } else {
            // Unaffected plan: a pointer copy of the previous usages.
            // Invariant: `needs_reopt` is computed above as
            // `match prev { Some(..) => ..., None => true }`, so
            // reaching this arm (needs_reopt == false) implies `prev`
            // is `Some` by construction — the expect is unreachable,
            // and no injected fault can flip it (faults fire only
            // inside the needs_reopt branch).
            let pe = &prev
                .expect("needs_reopt is false only with prev")
                .0
                .per_query[i];
            (pe.select_cost, pe.usages.clone())
        };
        let shell_cost = entry
            .shell
            .as_ref()
            .map(|s| shell_cost(&model, &schema, s))
            .unwrap_or(0.0);
        EntryEval {
            q: QueryEval {
                select_cost,
                shell_cost,
                usages,
            },
            calls,
            hit,
            miss,
            repaired,
            avoided,
            plan_hit,
            plan_miss,
            repriced,
            pending_insert,
        }
    };

    let evals: Vec<EntryEval> = if ctx.threads <= 1 {
        // Sequential: abort the moment the ordered running total
        // exceeds the limit, exactly like the paper's §3.5 shortcut.
        let mut evals = Vec::with_capacity(entries.len());
        let mut running = 0.0;
        for (i, entry) in entries.iter().enumerate() {
            // Cooperative stop between entries: silent (no eval.abort
            // event) — the stopped session's trace ends at the last
            // committed evaluation.
            if ctx.stop.is_some_and(|s| s.is_stopped()) {
                return None;
            }
            let e = compute(i);
            running += entry.weight * e.q.total();
            if shortcut_limit.is_some_and(|l| running > l) {
                pdt_trace::emit(ctx.tracer, "eval.abort", vec![]);
                return None;
            }
            evals.push(e);
        }
        evals
    } else {
        // Parallel: an atomic running total aborts in-flight workers.
        // Partial sums of non-negative costs never exceed the ordered
        // total by more than float-reordering noise, so a generous
        // relative margin makes the abort a pure optimization: the
        // Some/None outcome is decided by the ordered sum below.
        let accumulated = AtomicU64::new(0f64.to_bits());
        let aborted = AtomicBool::new(false);
        let margin = shortcut_limit.map(|l| l * (1.0 + 1e-6));
        let indices: Vec<usize> = (0..entries.len()).collect();
        let results = par_map(ctx.threads, &indices, |_, &i| {
            if aborted.load(Ordering::Relaxed) || ctx.stop.is_some_and(|s| s.is_stopped()) {
                return None;
            }
            let e = compute(i);
            if let Some(margin) = margin {
                let add = entries[i].weight * e.q.total();
                let mut cur = accumulated.load(Ordering::Relaxed);
                loop {
                    let new = (f64::from_bits(cur) + add).to_bits();
                    match accumulated.compare_exchange_weak(
                        cur,
                        new,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(seen) => cur = seen,
                    }
                }
                if f64::from_bits(accumulated.load(Ordering::Relaxed)) > margin {
                    aborted.store(true, Ordering::Relaxed);
                }
            }
            Some(e)
        });
        match results.into_iter().collect::<Option<Vec<_>>>() {
            Some(evals) => evals,
            None => {
                // A `None` from a stopped worker stays silent, like the
                // sequential stop path. Otherwise a worker tripped the
                // margin, which guarantees the ordered total also
                // exceeds the limit — so eval.abort emits in exactly
                // the cases the sequential path does.
                if !ctx.stop.is_some_and(|s| s.is_stopped()) {
                    pdt_trace::emit(ctx.tracer, "eval.abort", vec![]);
                }
                return None;
            }
        }
    };

    // Assemble in entry order: the ordered sum is the authoritative
    // total (and shortcut decision) for every thread count.
    let mut per_query = Vec::with_capacity(evals.len());
    let mut total = 0.0;
    let mut calls = 0;
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut tally = DerivedTally::default();
    let mut inserts: Vec<(usize, u128, CacheEntry)> = Vec::new();
    let mut poison_repairs: Vec<usize> = Vec::new();
    for (i, e) in evals.into_iter().enumerate() {
        total += entries[i].weight * e.q.total();
        calls += e.calls;
        hits += u64::from(e.hit);
        misses += u64::from(e.miss);
        tally.avoided += u64::from(e.avoided);
        tally.plan_hits += u64::from(e.plan_hit);
        tally.plan_misses += u64::from(e.plan_miss);
        tally.repriced += u64::from(e.repriced);
        if e.repaired {
            poison_repairs.push(i);
        }
        if let Some((sig, ce)) = e.pending_insert {
            inserts.push((i, sig, ce));
        }
        per_query.push(e.q);
    }
    if shortcut_limit.is_some_and(|l| total > l) {
        pdt_trace::emit(ctx.tracer, "eval.abort", vec![]);
        return None;
    }
    // Commit on success only: aborted evaluations leave the cache and
    // its counters untouched, keeping both independent of scheduling.
    if let Some(cache) = ctx.cache {
        for (i, sig, ce) in inserts {
            cache.insert(i, sig, ce);
        }
        cache.record_traced(hits, misses, ctx.tracer);
        if ctx.relevance.is_some() {
            cache.record_derived(tally);
            pdt_trace::incr(ctx.tracer, "optimizer.calls_avoided", tally.avoided);
            pdt_trace::incr(ctx.tracer, "plan_cache.hits", tally.plan_hits);
            pdt_trace::incr(ctx.tracer, "plan_cache.misses", tally.plan_misses);
            pdt_trace::incr(ctx.tracer, "plan_cache.repriced", tally.repriced);
        }
    }
    // Repairs are reported in entry order at the commit point, so the
    // event stream stays deterministic for every thread count.
    for &i in &poison_repairs {
        pdt_trace::emit(ctx.tracer, "cache.repair", vec![("query", i.into())]);
    }
    if !poison_repairs.is_empty() {
        pdt_trace::incr(ctx.tracer, "cache.repairs", poison_repairs.len() as u64);
    }
    pdt_trace::incr(ctx.tracer, "optimizer.calls", calls as u64);
    pdt_trace::emit(
        ctx.tracer,
        "eval.commit",
        vec![
            ("entries", per_query.len().into()),
            ("calls", calls.into()),
            ("hits", hits.into()),
            ("misses", misses.into()),
            ("avoided", tally.avoided.into()),
            ("plan_hits", tally.plan_hits.into()),
            ("plan_misses", tally.plan_misses.into()),
            ("cost", total.into()),
        ],
    );
    Some(EvalResult {
        per_query,
        total_cost: total,
        optimizer_calls: calls,
        poison_repairs,
    })
}

/// Structures of `config` not used by any plan in `eval` (§3.5
/// "shrinking configurations").
pub fn unused_structures(
    config: &Configuration,
    base: &Configuration,
    eval: &EvalResult,
) -> (Vec<Index>, Vec<TableId>) {
    let mut used_indexes: BTreeSet<&Index> = BTreeSet::new();
    let mut used_views: BTreeSet<TableId> = BTreeSet::new();
    for q in &eval.per_query {
        for u in q.usages.iter() {
            used_indexes.insert(&u.index);
            if u.index.table.is_view() {
                used_views.insert(u.index.table);
            }
        }
    }
    let unused_ix: Vec<Index> = config
        .indexes()
        .filter(|i| !used_indexes.contains(*i) && !base.contains_index(i) && !i.table.is_view())
        .cloned()
        .collect();
    let unused_views: Vec<TableId> = config
        .views()
        .map(|v| v.id)
        .filter(|id| !used_views.contains(id))
        .collect();
    (unused_ix, unused_views)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdt_catalog::{ColumnStats, ColumnType};
    use pdt_sql::parse_workload;

    fn test_db() -> Database {
        let mut b = Database::builder("t");
        let mk = |name: &str, ndv: f64| pdt_catalog::Column {
            name: name.into(),
            ty: ColumnType::Int,
            stats: ColumnStats::uniform(ndv, 0.0, ndv, 4.0),
        };
        b.add_table(
            "r",
            500_000.0,
            vec![
                mk("id", 500_000.0),
                mk("a", 5_000.0),
                mk("b", 100.0),
                mk("c", 1_000.0),
            ],
            vec![0],
        );
        b.build()
    }

    fn workload(db: &Database, sql: &str) -> Workload {
        Workload::bind(db, &parse_workload(sql).unwrap()).unwrap()
    }

    #[test]
    fn full_eval_counts_calls_and_costs() {
        let db = test_db();
        let w = workload(
            &db,
            "SELECT r.c FROM r WHERE r.a = 5; SELECT r.b FROM r WHERE r.b < 10",
        );
        let opt = Optimizer::new(&db);
        let config = Configuration::base(&db);
        let e = evaluate_full(&db, &opt, &config, &w);
        assert_eq!(e.per_query.len(), 2);
        assert_eq!(e.optimizer_calls, 2);
        assert!(e.total_cost > 0.0);
    }

    #[test]
    fn incremental_skips_unaffected_queries() {
        let db = test_db();
        let w = workload(
            &db,
            "SELECT r.c FROM r WHERE r.a = 5; SELECT r.b FROM r WHERE r.b < 10",
        );
        let opt = Optimizer::new(&db);
        let mut config = Configuration::base(&db);
        let t = db.table_by_name("r").unwrap();
        let ix_a = Index::new(t.id, [t.column_id(1)], [t.column_id(3)]);
        config.add_index(ix_a.clone());
        let e0 = evaluate_full(&db, &opt, &config, &w);

        let mut smaller = config.clone();
        smaller.remove_index(&ix_a);
        let e1 = evaluate_incremental(&db, &opt, &smaller, &w, &e0, &[ix_a], &[], None)
            .expect("no shortcut");
        // Only query 1 used ix_a, so exactly one re-optimization.
        assert_eq!(e1.optimizer_calls, 1);
        assert!(e1.total_cost >= e0.total_cost);
        // Query 2's cached cost is identical, and its usages are the
        // same allocation (pointer copy, not a deep clone).
        assert_eq!(e1.per_query[1].select_cost, e0.per_query[1].select_cost);
        assert!(Arc::ptr_eq(
            &e1.per_query[1].usages,
            &e0.per_query[1].usages
        ));
    }

    #[test]
    fn shortcut_aborts_expensive_configs() {
        let db = test_db();
        let w = workload(&db, "SELECT r.c FROM r WHERE r.a = 5");
        let opt = Optimizer::new(&db);
        let mut config = Configuration::base(&db);
        let t = db.table_by_name("r").unwrap();
        let ix = Index::new(t.id, [t.column_id(1)], [t.column_id(3)]);
        config.add_index(ix.clone());
        let e0 = evaluate_full(&db, &opt, &config, &w);
        let mut smaller = config.clone();
        smaller.remove_index(&ix);
        // A limit below the base cost must trigger the shortcut.
        let r = evaluate_incremental(
            &db,
            &opt,
            &smaller,
            &w,
            &e0,
            &[ix],
            &[],
            Some(e0.total_cost),
        );
        assert!(r.is_none(), "removal makes it worse than the limit");
    }

    #[test]
    fn shell_costs_scale_with_index_count() {
        let db = test_db();
        let w = workload(&db, "UPDATE r SET a = 1 WHERE b < 10");
        let opt = Optimizer::new(&db);
        let base = Configuration::base(&db);
        let e_base = evaluate_full(&db, &opt, &base, &w);
        let mut more = base.clone();
        let t = db.table_by_name("r").unwrap();
        more.add_index(Index::new(t.id, [t.column_id(1)], []));
        let e_more = evaluate_full(&db, &opt, &more, &w);
        assert!(
            e_more.per_query[0].shell_cost > e_base.per_query[0].shell_cost,
            "extra index on written column must cost maintenance"
        );
        // An index on an untouched column costs nothing extra.
        let mut unrelated = base.clone();
        unrelated.add_index(Index::new(t.id, [t.column_id(3)], []));
        let e_unrel = evaluate_full(&db, &opt, &unrelated, &w);
        assert_eq!(
            e_unrel.per_query[0].shell_cost,
            e_base.per_query[0].shell_cost
        );
    }

    #[test]
    fn unused_structures_detected() {
        let db = test_db();
        let w = workload(&db, "SELECT r.c FROM r WHERE r.a = 5");
        let opt = Optimizer::new(&db);
        let base = Configuration::base(&db);
        let mut config = base.clone();
        let t = db.table_by_name("r").unwrap();
        let useful = Index::new(t.id, [t.column_id(1)], [t.column_id(3)]);
        let useless = Index::new(t.id, [t.column_id(2)], []);
        config.add_index(useful.clone());
        config.add_index(useless.clone());
        let e = evaluate_full(&db, &opt, &config, &w);
        let (unused_ix, unused_views) = unused_structures(&config, &base, &e);
        assert!(unused_ix.contains(&useless));
        assert!(!unused_ix.contains(&useful));
        assert!(unused_views.is_empty());
    }

    #[test]
    fn parallel_eval_matches_sequential() {
        let db = test_db();
        let w = workload(
            &db,
            "SELECT r.c FROM r WHERE r.a = 5; \
             SELECT r.b FROM r WHERE r.b < 10; \
             SELECT r.a FROM r WHERE r.c = 3; \
             UPDATE r SET a = 1 WHERE b < 10",
        );
        let opt = Optimizer::new(&db);
        let config = Configuration::base(&db);
        let seq = evaluate_full(&db, &opt, &config, &w);
        for threads in [2, 4, 8] {
            let par = evaluate_full_ctx(
                &db,
                &opt,
                &config,
                &w,
                EvalCtx {
                    threads,
                    ..EvalCtx::default()
                },
            );
            assert_eq!(par.total_cost, seq.total_cost, "threads = {threads}");
            assert_eq!(par.optimizer_calls, seq.optimizer_calls);
            for (a, b) in par.per_query.iter().zip(&seq.per_query) {
                assert_eq!(a.select_cost, b.select_cost);
                assert_eq!(a.shell_cost, b.shell_cost);
                assert_eq!(a.usages.len(), b.usages.len());
            }
        }
    }

    #[test]
    fn cache_is_transparent_and_counts() {
        let db = test_db();
        let w = workload(
            &db,
            "SELECT r.c FROM r WHERE r.a = 5; SELECT r.b FROM r WHERE r.b < 10",
        );
        let opt = Optimizer::new(&db);
        let config = Configuration::base(&db);
        let plain = evaluate_full(&db, &opt, &config, &w);

        let cache = CostCache::new();
        let ctx = EvalCtx {
            threads: 1,
            cache: Some(&cache),
            ..EvalCtx::default()
        };
        let first = evaluate_full_ctx(&db, &opt, &config, &w, ctx);
        assert_eq!(first.total_cost, plain.total_cost);
        assert_eq!(first.optimizer_calls, 2);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));

        // Same configuration again: pure hits, zero optimizer calls.
        let second = evaluate_full_ctx(&db, &opt, &config, &w, ctx);
        assert_eq!(second.total_cost, plain.total_cost);
        assert_eq!(second.optimizer_calls, 0);
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
    }

    #[test]
    fn aborted_evaluations_commit_nothing() {
        let db = test_db();
        let w = workload(&db, "SELECT r.c FROM r WHERE r.a = 5");
        let opt = Optimizer::new(&db);
        let mut config = Configuration::base(&db);
        let t = db.table_by_name("r").unwrap();
        let ix = Index::new(t.id, [t.column_id(1)], [t.column_id(3)]);
        config.add_index(ix.clone());
        let e0 = evaluate_full(&db, &opt, &config, &w);
        let mut smaller = config.clone();
        smaller.remove_index(&ix);
        let cache = CostCache::new();
        for threads in [1, 4] {
            let ctx = EvalCtx {
                threads,
                cache: Some(&cache),
                ..EvalCtx::default()
            };
            let r = evaluate_incremental_ctx(
                &db,
                &opt,
                &smaller,
                &w,
                &e0,
                std::slice::from_ref(&ix),
                &[],
                Some(e0.total_cost),
                ctx,
            );
            assert!(r.is_none());
            assert!(cache.is_empty(), "aborted eval must not populate the cache");
            assert_eq!((cache.hits(), cache.misses()), (0, 0));
        }
    }

    #[test]
    fn poisoned_cache_entries_are_repaired() {
        let db = test_db();
        let w = workload(
            &db,
            "SELECT r.c FROM r WHERE r.a = 5; SELECT r.b FROM r WHERE r.b < 10",
        );
        let opt = Optimizer::new(&db);
        let config = Configuration::base(&db);
        let plain = evaluate_full(&db, &opt, &config, &w);

        let cache = CostCache::new();
        let ctx = EvalCtx {
            threads: 1,
            cache: Some(&cache),
            ..EvalCtx::default()
        };
        let first = evaluate_full_ctx(&db, &opt, &config, &w, ctx);
        assert!(first.poison_repairs.is_empty());

        // Corrupt one committed entry in place, as the injector would.
        let ((q, sig), mut entry) = cache.snapshot().into_iter().next().unwrap();
        entry.cost = f64::NAN;
        cache.insert(q, sig, entry);

        let second = evaluate_full_ctx(&db, &opt, &config, &w, ctx);
        assert_eq!(second.poison_repairs, vec![q]);
        assert_eq!(second.total_cost, plain.total_cost, "repair restores cost");
        assert_eq!(
            second.optimizer_calls, 1,
            "only the poisoned entry recomputes"
        );
        // The repaired entry is clean again: a third pass is all hits.
        let third = evaluate_full_ctx(&db, &opt, &config, &w, ctx);
        assert!(third.poison_repairs.is_empty());
        assert_eq!(third.optimizer_calls, 0);
    }

    #[test]
    fn derived_relevance_avoids_reoptimization() {
        let db = test_db();
        let w = workload(&db, "SELECT r.c FROM r WHERE r.a = 5");
        let opt = Optimizer::new(&db);
        let t = db.table_by_name("r").unwrap();
        let rt = crate::derived::RelevanceTable::build(&db, &w);
        let base = Configuration::base(&db);
        // Key [b]: not sargable for this query and covers nothing it
        // needs — irrelevant, though it lives on the query's table.
        let mut with_irrelevant = base.clone();
        with_irrelevant.add_index(Index::new(t.id, [t.column_id(2)], []));

        let cache = CostCache::new();
        let ctx = EvalCtx {
            threads: 1,
            cache: Some(&cache),
            relevance: Some(&rt),
            ..EvalCtx::default()
        };
        let e0 = evaluate_full_ctx(&db, &opt, &base, &w, ctx);
        assert_eq!(e0.optimizer_calls, 1);
        // Adding the irrelevant index leaves the relevant subset —
        // and the cache key — unchanged: a hit the coarse-keyed
        // engine would have missed.
        let e1 = evaluate_full_ctx(&db, &opt, &with_irrelevant, &w, ctx);
        assert_eq!(e1.optimizer_calls, 0);
        assert_eq!(e1.total_cost.to_bits(), e0.total_cost.to_bits());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.avoided(), 1);
    }

    #[test]
    fn plan_reuse_reprices_surviving_plans() {
        let db = test_db();
        let w = workload(&db, "SELECT r.c FROM r WHERE r.a = 5");
        let opt = Optimizer::new(&db);
        let t = db.table_by_name("r").unwrap();
        let rt = crate::derived::RelevanceTable::build(&db, &w);
        // Both indexes are relevant (seekable on `a`), but the covering
        // one wins the plan; the other is dead weight the search might
        // relax away.
        let covering = Index::new(t.id, [t.column_id(1)], [t.column_id(3)]);
        let extra = Index::new(t.id, [t.column_id(1)], [t.column_id(2)]);
        let mut small = Configuration::base(&db);
        small.add_index(covering);
        let mut big = small.clone();
        big.add_index(extra);

        let cache = CostCache::new();
        let ctx = EvalCtx {
            threads: 1,
            cache: Some(&cache),
            relevance: Some(&rt),
            ..EvalCtx::default()
        };
        let e_big = evaluate_full_ctx(&db, &opt, &big, &w, ctx);
        assert_eq!(e_big.optimizer_calls, 1);
        // `small` shrinks the relevant subset without touching the
        // cached plan's footprint: served by plan reuse, no call.
        let e_small = evaluate_full_ctx(&db, &opt, &small, &w, ctx);
        assert_eq!(e_small.optimizer_calls, 0);
        assert_eq!(cache.plan_hits(), 1);
        assert_eq!(cache.repriced(), 1);
        assert_eq!(cache.avoided(), 1);
        // The reused answer is bit-identical to a fresh one.
        let fresh = evaluate_full(&db, &opt, &small, &w);
        assert_eq!(e_small.total_cost.to_bits(), fresh.total_cost.to_bits());
        // The serve memoized itself at the probe's key: probing
        // again is a keyed (non-derived) hit, not another reuse.
        let e_again = evaluate_full_ctx(&db, &opt, &small, &w, ctx);
        assert_eq!(e_again.optimizer_calls, 0);
        assert_eq!(cache.plan_hits(), 1);
        assert_eq!(cache.avoided(), 1);
        assert_eq!(e_again.total_cost.to_bits(), e_small.total_cost.to_bits());
    }

    #[test]
    fn stopped_evaluations_return_none_and_commit_nothing() {
        use crate::stop::{StopCheck, StopReason, StopToken};
        let db = test_db();
        let w = workload(
            &db,
            "SELECT r.c FROM r WHERE r.a = 5; SELECT r.b FROM r WHERE r.b < 10",
        );
        let opt = Optimizer::new(&db);
        let config = Configuration::base(&db);
        let e0 = evaluate_full(&db, &opt, &config, &w);
        let token = StopToken::new();
        token.trip(StopReason::Interrupted);
        let check = StopCheck::new(&token, None);
        let cache = CostCache::new();
        for threads in [1, 4] {
            let ctx = EvalCtx {
                threads,
                cache: Some(&cache),
                stop: Some(&check),
                ..EvalCtx::default()
            };
            let r = evaluate_entries(&db, &opt, &config, &w, Some((&e0, &[], &[])), None, ctx);
            assert!(r.is_none(), "tripped token must abort, threads={threads}");
            assert!(cache.is_empty());
        }
        // Full evaluation ignores the stop token by design.
        let ctx = EvalCtx {
            threads: 1,
            stop: Some(&check),
            ..EvalCtx::default()
        };
        let full = evaluate_full_ctx(&db, &opt, &config, &w, ctx);
        assert_eq!(full.total_cost, e0.total_cost);
    }
}
