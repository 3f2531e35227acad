//! Checkpoint/resume for tuning sessions.
//!
//! A checkpoint is a *fuzzy snapshot plus deterministic redo*, in the
//! spirit of ARIES: rather than serializing the whole search pool
//! (nodes, scored candidates, tried-sets), it persists only what replay
//! cannot cheaply regenerate — the what-if cost cache, the trace
//! stream, the RNG state, counters, and contained faults. On resume the
//! engine re-executes setup and iterations `1..=iteration`
//! *silently* (tracing suspended, stop control disabled, fault/
//! checkpoint recording off); the restored cache turns every committed
//! evaluation into pure hits, so the replay costs almost no optimizer
//! calls. At `iteration + 1` the session "goes live": replayed state is
//! verified against the checkpoint (RNG state, best cost, frontier
//! length), counters and trace are restored, and the run continues —
//! byte-identical to one that was never interrupted.
//!
//! The format is JSON via `pdt-trace`'s hand-rolled writer (no new
//! dependencies). Cache entries are sorted by key and floats use the
//! shortest round-trip rendering, so a given state serializes to the
//! same bytes every time. Signatures rely on `std`'s `DefaultHasher`,
//! which is only stable within one build — checkpoints are same-binary
//! artifacts, and `validate` rejects anything else.

use crate::cache::{CacheEntry, CostCache, DerivedTally};
use crate::derived::QueryRelevance;
use crate::error::TuneError;
use crate::fault::{FaultEvent, FaultKind};
use crate::incremental::Interner;
use pdt_catalog::{ColumnId, TableId};
use pdt_opt::{IndexUsage, UsageKind};
use pdt_physical::{Configuration, Index};
use pdt_trace::json::Json;
use pdt_trace::{Event, PhaseSummary, TraceState, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::time::Duration;

const VERSION: i64 = 6;
const KIND: &str = "pdtune-checkpoint";

/// Serialized mid-session state; see the module docs for the model.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Hash of every decision-relevant tuner option plus the workload;
    /// resume refuses a session that would make different decisions.
    pub options_sig: u64,
    /// `Configuration::base(db).signature()` — a same-build probe that
    /// the database (and the binary's hasher) match.
    pub base_sig: u64,
    /// Reference costs verified bitwise after the setup replay.
    pub initial_cost: f64,
    pub optimal_cost: f64,
    /// `(cost, size_bytes)` of the warm-start deployed configuration
    /// (`TunerOptions::deployed`), verified bitwise after the setup
    /// replay like the costs above; `None` for cold sessions.
    pub deployed: Option<(f64, f64)>,
    /// Completed search iterations at capture time; replay re-executes
    /// `1..=iteration` and goes live after.
    pub iteration: usize,
    pub rng_state: u64,
    pub optimizer_calls: usize,
    /// Call-budget ledger at capture time (worst-case charges spent /
    /// estimates served; see `TunerOptions::optimizer_call_budget`).
    /// Charging is a pure function of the replayed trajectory, so replay
    /// regenerates both; persisting them lets go-live verify the replay
    /// made the same spend/skip decisions.
    pub budget_spent: u64,
    pub budget_skipped: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Derived-costing counters at capture time (avoided calls, plan
    /// cache hits/misses/repricings). Restored at go-live like the
    /// cache counters: the silent replay serves everything from the
    /// pre-warmed cache and would otherwise under-count.
    pub derived: DerivedTally,
    /// `(cost, size_bytes)` of the best configuration so far, used to
    /// verify replay fidelity (the configuration itself is regenerated
    /// by the replay).
    pub best: Option<(f64, f64)>,
    pub frontier_len: usize,
    pub faults: Vec<FaultEvent>,
    /// Every cost-cache entry, sorted by `(query, signature)`.
    pub cache: Vec<((usize, u128), CacheEntry)>,
    /// The structure interner's `index → signature` table, sorted by
    /// index. Signatures are content-addressed, so replay would
    /// regenerate the same table; restoring it just skips the hashing.
    pub interner: Vec<(Index, u64)>,
    /// Per-query relevance rows ([`crate::derived::RelevanceTable`]).
    /// Pure function of the (already-validated) workload and database —
    /// persisted so resume can verify the rebuilt table matches instead
    /// of trusting it blindly.
    pub relevance: Vec<Option<QueryRelevance>>,
    pub trace: Option<TraceCheckpoint>,
}

/// The tracer's full state plus the seq of the open `search` span's
/// begin event (needed to re-open the span on resume).
#[derive(Debug, Clone)]
pub struct TraceCheckpoint {
    pub state: TraceState,
    pub open_span_seq: u64,
}

impl Checkpoint {
    /// Reject a checkpoint that does not match this session's options,
    /// workload, or database (or was written by a different build).
    pub fn validate(&self, options_sig: u64, base_sig: u64) -> Result<(), TuneError> {
        if self.options_sig != options_sig {
            return Err(TuneError::Checkpoint(
                "checkpoint was written with different tuner options or workload \
                 (or by a different build)"
                    .to_string(),
            ));
        }
        if self.base_sig != base_sig {
            return Err(TuneError::Checkpoint(
                "checkpoint was written against a different database (or by a \
                 different build)"
                    .to_string(),
            ));
        }
        Ok(())
    }

    /// Rebuild the what-if cost cache (counters start at zero; the
    /// session restores them when it goes live) in the id-addressed
    /// flat store sized for `workers` ([`CostCache::flat`]), which
    /// re-interns the portable `(query, signature)` keys on insert.
    pub fn restore_cache(&self, workers: usize) -> CostCache {
        let cache = CostCache::flat(workers);
        for ((q, sig), entry) in &self.cache {
            cache.insert(*q, *sig, entry.clone());
        }
        cache
    }

    /// Rebuild the structure interner.
    pub fn restore_interner(&self) -> Interner {
        let interner = Interner::new();
        interner.restore(self.interner.clone());
        interner
    }

    pub fn to_json_string(&self) -> String {
        let mut obj: Vec<(String, Json)> = vec![
            ("version".into(), Json::Int(VERSION)),
            ("kind".into(), Json::Str(KIND.into())),
            ("options_sig".into(), hex(self.options_sig)),
            ("base_sig".into(), hex(self.base_sig)),
            ("initial_cost".into(), Json::Num(self.initial_cost)),
            ("optimal_cost".into(), Json::Num(self.optimal_cost)),
            (
                "deployed".into(),
                match self.deployed {
                    Some((cost, size)) => Json::Obj(vec![
                        ("cost".into(), Json::Num(cost)),
                        ("size_bytes".into(), Json::Num(size)),
                    ]),
                    None => Json::Null,
                },
            ),
            ("iteration".into(), Json::Int(self.iteration as i64)),
            ("rng_state".into(), hex(self.rng_state)),
            (
                "optimizer_calls".into(),
                Json::Int(self.optimizer_calls as i64),
            ),
            ("budget_spent".into(), hex(self.budget_spent)),
            ("budget_skipped".into(), hex(self.budget_skipped)),
            ("cache_hits".into(), hex(self.cache_hits)),
            ("cache_misses".into(), hex(self.cache_misses)),
            (
                "derived".into(),
                Json::Obj(vec![
                    ("avoided".into(), hex(self.derived.avoided)),
                    ("plan_hits".into(), hex(self.derived.plan_hits)),
                    ("plan_misses".into(), hex(self.derived.plan_misses)),
                    ("repriced".into(), hex(self.derived.repriced)),
                ]),
            ),
            (
                "best".into(),
                match self.best {
                    Some((cost, size)) => Json::Obj(vec![
                        ("cost".into(), Json::Num(cost)),
                        ("size_bytes".into(), Json::Num(size)),
                    ]),
                    None => Json::Null,
                },
            ),
            ("frontier_len".into(), Json::Int(self.frontier_len as i64)),
            (
                "faults".into(),
                Json::Arr(self.faults.iter().map(fault_json).collect()),
            ),
            (
                "cache".into(),
                Json::Arr(
                    self.cache
                        .iter()
                        .map(|((q, sig), e)| {
                            Json::Obj(vec![
                                ("q".into(), Json::Int(*q as i64)),
                                ("sig".into(), hex128(*sig)),
                                ("cost".into(), Json::Num(e.cost)),
                                (
                                    "usages".into(),
                                    Json::Arr(e.usages.iter().map(usage_json).collect()),
                                ),
                                ("coarse".into(), hex128(e.coarse)),
                                ("relevant".into(), sigs128_json(&e.relevant)),
                                ("footprint".into(), sigs128_json(&e.footprint)),
                                ("pinned".into(), sigs128_json(&e.pinned)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "interner".into(),
                Json::Arr(
                    self.interner
                        .iter()
                        .map(|(i, sig)| {
                            Json::Obj(vec![
                                ("index".into(), index_json(i)),
                                ("sig".into(), hex(*sig)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "relevance".into(),
                Json::Arr(
                    self.relevance
                        .iter()
                        .map(|r| match r {
                            Some(qr) => relevance_json(qr),
                            None => Json::Null,
                        })
                        .collect(),
                ),
            ),
            (
                "trace".into(),
                match &self.trace {
                    Some(t) => trace_json(t),
                    None => Json::Null,
                },
            ),
        ];
        // Compact single-object document; insertion order is fixed, so
        // equal checkpoints serialize to equal bytes.
        obj.shrink_to_fit();
        Json::Obj(obj).to_string()
    }

    pub fn from_json_str(s: &str) -> Result<Checkpoint, TuneError> {
        parse_checkpoint(s).map_err(TuneError::Checkpoint)
    }
}

fn parse_checkpoint(s: &str) -> Result<Checkpoint, String> {
    let doc = pdt_trace::json::parse(s)?;
    if get(&doc, "version")?.as_i64() != Some(VERSION) {
        return Err("unsupported checkpoint version".to_string());
    }
    if get(&doc, "kind")?.as_str() != Some(KIND) {
        return Err("not a pdtune checkpoint".to_string());
    }
    let best = match get(&doc, "best")? {
        Json::Null => None,
        b => Some((f64n(get(b, "cost")?)?, f64n(get(b, "size_bytes")?)?)),
    };
    let deployed = match get(&doc, "deployed")? {
        Json::Null => None,
        b => Some((f64n(get(b, "cost")?)?, f64n(get(b, "size_bytes")?)?)),
    };
    let faults = get(&doc, "faults")?
        .as_arr()
        .ok_or("faults must be an array")?
        .iter()
        .map(fault_parse)
        .collect::<Result<Vec<_>, _>>()?;
    let cache = get(&doc, "cache")?
        .as_arr()
        .ok_or("cache must be an array")?
        .iter()
        .map(|e| {
            let q = uint(get(e, "q")?)? as usize;
            let sig = unhex128(get(e, "sig")?)?;
            let cost = f64n(get(e, "cost")?)?;
            let usages = get(e, "usages")?
                .as_arr()
                .ok_or("usages must be an array")?
                .iter()
                .map(usage_parse)
                .collect::<Result<Vec<_>, String>>()?;
            Ok((
                (q, sig),
                CacheEntry {
                    cost,
                    usages: usages.into(),
                    coarse: unhex128(get(e, "coarse")?)?,
                    relevant: sigs128_parse(get(e, "relevant")?)?,
                    footprint: sigs128_parse(get(e, "footprint")?)?,
                    pinned: sigs128_parse(get(e, "pinned")?)?,
                },
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let interner = get(&doc, "interner")?
        .as_arr()
        .ok_or("interner must be an array")?
        .iter()
        .map(|e| Ok((index_parse(get(e, "index")?)?, unhex(get(e, "sig")?)?)))
        .collect::<Result<Vec<_>, String>>()?;
    let relevance = get(&doc, "relevance")?
        .as_arr()
        .ok_or("relevance must be an array")?
        .iter()
        .map(|r| match r {
            Json::Null => Ok(None),
            q => relevance_parse(q).map(Some),
        })
        .collect::<Result<Vec<_>, String>>()?;
    let dj = get(&doc, "derived")?;
    let derived = DerivedTally {
        avoided: unhex(get(dj, "avoided")?)?,
        plan_hits: unhex(get(dj, "plan_hits")?)?,
        plan_misses: unhex(get(dj, "plan_misses")?)?,
        repriced: unhex(get(dj, "repriced")?)?,
    };
    let trace = match get(&doc, "trace")? {
        Json::Null => None,
        t => Some(trace_parse(t)?),
    };
    Ok(Checkpoint {
        options_sig: unhex(get(&doc, "options_sig")?)?,
        base_sig: unhex(get(&doc, "base_sig")?)?,
        initial_cost: f64n(get(&doc, "initial_cost")?)?,
        optimal_cost: f64n(get(&doc, "optimal_cost")?)?,
        deployed,
        iteration: uint(get(&doc, "iteration")?)? as usize,
        rng_state: unhex(get(&doc, "rng_state")?)?,
        optimizer_calls: uint(get(&doc, "optimizer_calls")?)? as usize,
        budget_spent: unhex(get(&doc, "budget_spent")?)?,
        budget_skipped: unhex(get(&doc, "budget_skipped")?)?,
        cache_hits: unhex(get(&doc, "cache_hits")?)?,
        cache_misses: unhex(get(&doc, "cache_misses")?)?,
        derived,
        best,
        frontier_len: uint(get(&doc, "frontier_len")?)? as usize,
        faults,
        cache,
        interner,
        relevance,
        trace,
    })
}

// ---- configuration persistence --------------------------------------

const CONFIG_KIND: &str = "pdtune-config";
const CONFIG_VERSION: i64 = 1;

/// Serialize an index-only configuration as deterministic JSON (the
/// durable `deployed`/`result` artifacts of warm-started sessions).
/// Indexes are content-addressed column ids, so — unlike checkpoints —
/// the document is portable across builds. Materialized views have no
/// portable serialization; a configuration containing one is rejected,
/// and warm starts fall back to cold.
pub fn config_to_json(config: &Configuration) -> Result<String, TuneError> {
    if config.view_count() > 0 {
        return Err(TuneError::Checkpoint(
            "configurations with materialized views have no durable serialization".to_string(),
        ));
    }
    let obj = Json::Obj(vec![
        ("version".into(), Json::Int(CONFIG_VERSION)),
        ("kind".into(), Json::Str(CONFIG_KIND.into())),
        (
            "indexes".into(),
            Json::Arr(config.indexes().map(index_json).collect()),
        ),
    ]);
    Ok(obj.to_string())
}

/// Inverse of [`config_to_json`].
pub fn config_from_json(s: &str) -> Result<Configuration, TuneError> {
    let parse = || -> Result<Configuration, String> {
        let doc = pdt_trace::json::parse(s)?;
        if get(&doc, "version")?.as_i64() != Some(CONFIG_VERSION) {
            return Err("unsupported configuration version".to_string());
        }
        if get(&doc, "kind")?.as_str() != Some(CONFIG_KIND) {
            return Err("not a pdtune configuration".to_string());
        }
        let mut config = Configuration::new();
        for ij in arr(get(&doc, "indexes")?)? {
            config.add_index(index_parse(ij)?);
        }
        Ok(config)
    };
    parse().map_err(TuneError::Checkpoint)
}

// ---- scalar helpers -------------------------------------------------

/// u64 values (signatures, RNG state, counters) are rendered as 16-hex-
/// digit strings: `Json::Int` is `i64` and cannot carry the high bit.
fn hex(v: u64) -> Json {
    Json::Str(format!("{v:016x}"))
}

fn unhex(j: &Json) -> Result<u64, String> {
    let s = j.as_str().ok_or("expected hex string")?;
    u64::from_str_radix(s, 16).map_err(|_| format!("bad hex value '{s}'"))
}

/// 128-bit signatures render as 32-hex-digit strings.
pub(crate) fn hex128(v: u128) -> Json {
    Json::Str(format!("{v:032x}"))
}

pub(crate) fn unhex128(j: &Json) -> Result<u128, String> {
    let s = j.as_str().ok_or("expected hex string")?;
    u128::from_str_radix(s, 16).map_err(|_| format!("bad hex value '{s}'"))
}

pub(crate) fn sigs128_json(sigs: &[u128]) -> Json {
    Json::Arr(sigs.iter().map(|s| hex128(*s)).collect())
}

pub(crate) fn sigs128_parse(j: &Json) -> Result<std::sync::Arc<[u128]>, String> {
    Ok(arr(j)?
        .iter()
        .map(unhex128)
        .collect::<Result<Vec<_>, _>>()?
        .into())
}

fn uint(j: &Json) -> Result<u64, String> {
    match j.as_i64() {
        Some(v) if v >= 0 => Ok(v as u64),
        _ => Err("expected non-negative integer".to_string()),
    }
}

/// f64 with the writer's NaN convention: non-finite costs (poisoned
/// entries captured mid-fault-run) render as `null` and read back NaN.
pub(crate) fn f64n(j: &Json) -> Result<f64, String> {
    match j {
        Json::Null => Ok(f64::NAN),
        _ => j.as_f64().ok_or_else(|| "expected number".to_string()),
    }
}

pub(crate) fn get<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

// ---- interning ------------------------------------------------------

/// Trace kinds, field keys, counter names, and phase names are
/// `&'static str` in `pdt-trace`; strings read back from a checkpoint
/// are interned (leaked once per distinct string, deduplicated
/// process-wide — bounded by the fixed vocabulary the engine emits).
fn intern(s: &str) -> &'static str {
    static POOL: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&existing) = pool.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    pool.insert(leaked);
    leaked
}

// ---- faults ---------------------------------------------------------

fn fault_json(f: &FaultEvent) -> Json {
    Json::Obj(vec![
        ("iteration".into(), Json::Int(f.iteration as i64)),
        ("kind".into(), Json::Str(f.kind.label().into())),
        ("detail".into(), Json::Str(f.detail.clone())),
    ])
}

fn fault_parse(j: &Json) -> Result<FaultEvent, String> {
    let kind = match get(j, "kind")?.as_str() {
        Some("eval-panic") => FaultKind::EvalPanic,
        Some("cache-poison") => FaultKind::CachePoison,
        other => return Err(format!("unknown fault kind {other:?}")),
    };
    Ok(FaultEvent {
        iteration: uint(get(j, "iteration")?)? as usize,
        kind,
        detail: get(j, "detail")?
            .as_str()
            .ok_or("fault detail must be a string")?
            .to_string(),
    })
}

// ---- physical structures -------------------------------------------

fn cid_json(c: ColumnId) -> Json {
    Json::Arr(vec![
        Json::Int(c.table.0 as i64),
        Json::Int(c.ordinal as i64),
    ])
}

fn cid_parse(j: &Json) -> Result<ColumnId, String> {
    match j.as_arr() {
        Some([t, o]) => Ok(ColumnId {
            table: TableId(uint(t)? as u32),
            ordinal: uint(o)? as u16,
        }),
        _ => Err("column id must be [table, ordinal]".to_string()),
    }
}

fn index_json(i: &Index) -> Json {
    Json::Obj(vec![
        ("table".into(), Json::Int(i.table.0 as i64)),
        (
            "key".into(),
            Json::Arr(i.key.iter().map(|c| cid_json(*c)).collect()),
        ),
        (
            "suffix".into(),
            Json::Arr(i.suffix.iter().map(|c| cid_json(*c)).collect()),
        ),
        ("clustered".into(), Json::Bool(i.clustered)),
    ])
}

fn index_parse(j: &Json) -> Result<Index, String> {
    Ok(Index {
        table: TableId(uint(get(j, "table")?)? as u32),
        key: arr(get(j, "key")?)?
            .iter()
            .map(cid_parse)
            .collect::<Result<_, _>>()?,
        suffix: arr(get(j, "suffix")?)?
            .iter()
            .map(cid_parse)
            .collect::<Result<_, _>>()?,
        clustered: bool_(get(j, "clustered")?)?,
    })
}

fn arr(j: &Json) -> Result<&[Json], String> {
    j.as_arr().ok_or_else(|| "expected array".to_string())
}

fn bool_(j: &Json) -> Result<bool, String> {
    match j {
        Json::Bool(b) => Ok(*b),
        _ => Err("expected boolean".to_string()),
    }
}

pub(crate) fn usage_json(u: &IndexUsage) -> Json {
    let kind = match &u.kind {
        UsageKind::Scan => Json::Obj(vec![("kind".into(), Json::Str("scan".into()))]),
        UsageKind::Seek {
            seek_cols,
            selectivity,
        } => Json::Obj(vec![
            ("kind".into(), Json::Str("seek".into())),
            ("seek_cols".into(), Json::Int(*seek_cols as i64)),
            ("selectivity".into(), Json::Num(*selectivity)),
        ]),
    };
    Json::Obj(vec![
        ("index".into(), index_json(&u.index)),
        ("kind".into(), kind),
        ("access_io".into(), Json::Num(u.access_io)),
        ("access_cpu".into(), Json::Num(u.access_cpu)),
        ("rows".into(), Json::Num(u.rows)),
        (
            "provided_order".into(),
            match &u.provided_order {
                None => Json::Null,
                Some(order) => Json::Arr(
                    order
                        .iter()
                        .map(|(c, desc)| Json::Arr(vec![cid_json(*c), Json::Bool(*desc)]))
                        .collect(),
                ),
            },
        ),
        (
            "provided_columns".into(),
            Json::Arr(u.provided_columns.iter().map(|c| cid_json(*c)).collect()),
        ),
        (
            "followed_by_lookup".into(),
            Json::Bool(u.followed_by_lookup),
        ),
        (
            "seek_col_sels".into(),
            Json::Arr(
                u.seek_col_sels
                    .iter()
                    .map(|(c, sel, eq)| {
                        Json::Arr(vec![cid_json(*c), Json::Num(*sel), Json::Bool(*eq)])
                    })
                    .collect(),
            ),
        ),
        ("total_preds".into(), Json::Int(u.total_preds as i64)),
        (
            "resid_pred_cols".into(),
            Json::Arr(u.resid_pred_cols.iter().map(|c| cid_json(*c)).collect()),
        ),
        ("resid_filter_cpu".into(), Json::Num(u.resid_filter_cpu)),
        ("executions".into(), Json::Num(u.executions)),
    ])
}

pub(crate) fn usage_parse(j: &Json) -> Result<IndexUsage, String> {
    let kj = get(j, "kind")?;
    let kind = match get(kj, "kind")?.as_str() {
        Some("scan") => UsageKind::Scan,
        Some("seek") => UsageKind::Seek {
            seek_cols: uint(get(kj, "seek_cols")?)? as usize,
            selectivity: f64n(get(kj, "selectivity")?)?,
        },
        other => return Err(format!("unknown usage kind {other:?}")),
    };
    let provided_order = match get(j, "provided_order")? {
        Json::Null => None,
        o => Some(
            arr(o)?
                .iter()
                .map(|p| match p.as_arr() {
                    Some([c, d]) => Ok((cid_parse(c)?, bool_(d)?)),
                    _ => Err("order entry must be [column, desc]".to_string()),
                })
                .collect::<Result<Vec<_>, String>>()?,
        ),
    };
    let seek_col_sels = arr(get(j, "seek_col_sels")?)?
        .iter()
        .map(|p| match p.as_arr() {
            Some([c, s, e]) => Ok((cid_parse(c)?, f64n(s)?, bool_(e)?)),
            _ => Err("seek entry must be [column, selectivity, eq]".to_string()),
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(IndexUsage {
        index: index_parse(get(j, "index")?)?,
        kind,
        access_io: f64n(get(j, "access_io")?)?,
        access_cpu: f64n(get(j, "access_cpu")?)?,
        rows: f64n(get(j, "rows")?)?,
        provided_order,
        provided_columns: arr(get(j, "provided_columns")?)?
            .iter()
            .map(cid_parse)
            .collect::<Result<_, _>>()?,
        followed_by_lookup: bool_(get(j, "followed_by_lookup")?)?,
        seek_col_sels,
        total_preds: uint(get(j, "total_preds")?)? as usize,
        resid_pred_cols: arr(get(j, "resid_pred_cols")?)?
            .iter()
            .map(cid_parse)
            .collect::<Result<_, _>>()?,
        resid_filter_cpu: f64n(get(j, "resid_filter_cpu")?)?,
        executions: f64n(get(j, "executions")?)?,
    })
}

// ---- relevance ------------------------------------------------------

fn relevance_json(qr: &QueryRelevance) -> Json {
    Json::Obj(vec![
        (
            "tables".into(),
            Json::Arr(qr.tables.iter().map(|t| Json::Int(t.0 as i64)).collect()),
        ),
        (
            "sarg_cols".into(),
            Json::Arr(qr.sarg_cols.iter().map(|c| cid_json(*c)).collect()),
        ),
        (
            "required".into(),
            Json::Arr(
                qr.required
                    .iter()
                    .map(|(t, cols)| {
                        Json::Arr(vec![
                            Json::Int(t.0 as i64),
                            Json::Arr(cols.iter().map(|c| cid_json(*c)).collect()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn relevance_parse(j: &Json) -> Result<QueryRelevance, String> {
    let tables: BTreeSet<TableId> = arr(get(j, "tables")?)?
        .iter()
        .map(|t| Ok(TableId(uint(t)? as u32)))
        .collect::<Result<_, String>>()?;
    let sarg_cols: BTreeSet<ColumnId> = arr(get(j, "sarg_cols")?)?
        .iter()
        .map(cid_parse)
        .collect::<Result<_, _>>()?;
    let required: BTreeMap<TableId, BTreeSet<ColumnId>> = arr(get(j, "required")?)?
        .iter()
        .map(|p| match p.as_arr() {
            Some([t, cols]) => Ok((
                TableId(uint(t)? as u32),
                arr(cols)?.iter().map(cid_parse).collect::<Result<_, _>>()?,
            )),
            _ => Err("required entry must be [table, [columns]]".to_string()),
        })
        .collect::<Result<_, String>>()?;
    Ok(QueryRelevance {
        tables,
        sarg_cols,
        required,
    })
}

// ---- trace ----------------------------------------------------------

fn trace_json(t: &TraceCheckpoint) -> Json {
    Json::Obj(vec![
        ("depth".into(), Json::Int(t.state.depth as i64)),
        ("open_span_seq".into(), Json::Int(t.open_span_seq as i64)),
        (
            "counters".into(),
            Json::Arr(
                t.state
                    .counters
                    .iter()
                    .map(|(k, v)| Json::Arr(vec![Json::Str((*k).into()), hex(*v)]))
                    .collect(),
            ),
        ),
        (
            "phases".into(),
            Json::Arr(
                t.state
                    .phases
                    .iter()
                    .map(|p| {
                        Json::Arr(vec![
                            Json::Str(p.name.into()),
                            hex(p.events),
                            Json::Int(p.elapsed.as_nanos() as i64),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "events".into(),
            Json::Arr(t.state.events.iter().map(Event::to_json).collect()),
        ),
    ])
}

fn trace_parse(j: &Json) -> Result<TraceCheckpoint, String> {
    let counters = arr(get(j, "counters")?)?
        .iter()
        .map(|c| match c.as_arr() {
            Some([k, v]) => Ok((
                intern(k.as_str().ok_or("counter name must be a string")?),
                unhex(v)?,
            )),
            _ => Err("counter must be [name, value]".to_string()),
        })
        .collect::<Result<Vec<_>, String>>()?;
    let phases = arr(get(j, "phases")?)?
        .iter()
        .map(|p| match p.as_arr() {
            Some([name, events, nanos]) => Ok(PhaseSummary {
                name: intern(name.as_str().ok_or("phase name must be a string")?),
                events: unhex(events)?,
                elapsed: Duration::from_nanos(uint(nanos)?),
            }),
            _ => Err("phase must be [name, events, elapsed_nanos]".to_string()),
        })
        .collect::<Result<Vec<_>, String>>()?;
    let events = arr(get(j, "events")?)?
        .iter()
        .map(event_parse)
        .collect::<Result<Vec<_>, String>>()?;
    Ok(TraceCheckpoint {
        state: TraceState {
            events,
            depth: uint(get(j, "depth")?)? as u16,
            counters,
            phases,
        },
        open_span_seq: uint(get(j, "open_span_seq")?)?,
    })
}

/// Inverse of [`Event::to_json`]. The original `U64`/`I64` distinction
/// is collapsed by the writer (both render as JSON integers), so
/// non-negative integers read back as `U64` — which re-renders to the
/// same bytes, keeping restored JSONL byte-identical.
fn event_parse(j: &Json) -> Result<Event, String> {
    let obj = j.as_obj().ok_or("event must be an object")?;
    let mut fields = Vec::new();
    for (k, v) in obj.iter().skip(3) {
        let value = match v {
            Json::Int(i) if *i >= 0 => Value::U64(*i as u64),
            Json::Int(i) => Value::I64(*i),
            Json::Num(n) => Value::F64(*n),
            // The writer renders non-finite floats as null; the only
            // emitter of such values is a fault-injection run.
            Json::Null => Value::F64(f64::NAN),
            Json::Bool(b) => Value::Bool(*b),
            Json::Str(s) => Value::Str(s.clone()),
            _ => return Err(format!("unsupported event field type for '{k}'")),
        };
        fields.push((intern(k), value));
    }
    Ok(Event {
        seq: uint(get(j, "seq")?)?,
        depth: uint(get(j, "depth")?)? as u16,
        kind: intern(
            get(j, "kind")?
                .as_str()
                .ok_or("event kind must be a string")?,
        ),
        fields,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_usage() -> IndexUsage {
        let t = TableId(3);
        let c0 = ColumnId {
            table: t,
            ordinal: 0,
        };
        let c1 = ColumnId {
            table: t,
            ordinal: 1,
        };
        IndexUsage {
            index: Index {
                table: t,
                key: vec![c0, c1],
                suffix: [ColumnId {
                    table: t,
                    ordinal: 2,
                }]
                .into_iter()
                .collect(),
                clustered: false,
            },
            kind: UsageKind::Seek {
                seek_cols: 1,
                selectivity: 0.125,
            },
            access_io: 10.5,
            access_cpu: 0.25,
            rows: 100.0,
            provided_order: Some(vec![(c0, false), (c1, true)]),
            provided_columns: [c0, c1].into_iter().collect(),
            followed_by_lookup: true,
            seek_col_sels: vec![(c0, 0.125, true)],
            total_preds: 2,
            resid_pred_cols: [c1].into_iter().collect(),
            resid_filter_cpu: 0.0625,
            executions: 1.0,
        }
    }

    fn sample_checkpoint() -> Checkpoint {
        let tracer = pdt_trace::Tracer::new();
        tracer.emit("session.begin", vec![("entries", 2u64.into())]);
        let span = tracer.span("search");
        tracer.emit(
            "search.step",
            vec![
                ("iteration", 1u64.into()),
                ("cost", 12.5.into()),
                ("delta", Value::I64(-3)),
                ("fits", true.into()),
                ("transformation", "remove(ix)".into()),
            ],
        );
        tracer.incr("search.iterations", 1);
        let open_span_seq = span.events_at_open();
        let state = tracer.export_state();
        std::mem::forget(span);
        Checkpoint {
            options_sig: 0xDEAD_BEEF_0123_4567,
            base_sig: u64::MAX,
            initial_cost: 123.456,
            optimal_cost: 78.9,
            deployed: Some((101.5, 2048.0)),
            iteration: 7,
            rng_state: 0x0123_4567_89AB_CDEF,
            optimizer_calls: 42,
            budget_spent: 13,
            budget_skipped: 27,
            cache_hits: 10,
            cache_misses: 5,
            derived: DerivedTally {
                avoided: 9,
                plan_hits: 4,
                plan_misses: 2,
                repriced: 3,
            },
            best: Some((80.25, 4096.0)),
            frontier_len: 8,
            faults: vec![FaultEvent {
                iteration: 3,
                kind: FaultKind::EvalPanic,
                detail: "injected fault: site=1 iteration=3 query=0".to_string(),
            }],
            cache: vec![
                (
                    (0, 17 << 70),
                    CacheEntry {
                        cost: 9.75,
                        usages: vec![sample_usage()].into(),
                        coarse: u128::MAX,
                        relevant: vec![1u128 << 90, u128::MAX - 1].into(),
                        footprint: vec![1u128 << 90].into(),
                        pinned: vec![u128::MAX - 1].into(),
                    },
                ),
                (
                    (1, 99),
                    CacheEntry::plain(
                        f64::NAN, // a poisoned entry mid-repair
                        Vec::new().into(),
                        0x42,
                    ),
                ),
            ],
            interner: vec![(sample_usage().index, 0xFEED_FACE_CAFE_F00D)],
            relevance: vec![
                None,
                Some(QueryRelevance {
                    tables: [TableId(3)].into_iter().collect(),
                    sarg_cols: [ColumnId {
                        table: TableId(3),
                        ordinal: 1,
                    }]
                    .into_iter()
                    .collect(),
                    required: [(
                        TableId(3),
                        [ColumnId {
                            table: TableId(3),
                            ordinal: 0,
                        }]
                        .into_iter()
                        .collect(),
                    )]
                    .into_iter()
                    .collect(),
                }),
            ],
            trace: Some(TraceCheckpoint {
                state,
                open_span_seq,
            }),
        }
    }

    #[test]
    fn round_trips_byte_identically() {
        let ck = sample_checkpoint();
        let s1 = ck.to_json_string();
        let back = Checkpoint::from_json_str(&s1).expect("parses");
        let s2 = back.to_json_string();
        assert_eq!(s1, s2, "serialize → parse → serialize must be a fixpoint");
        // Spot-check deep contents.
        assert_eq!(back.iteration, 7);
        assert_eq!(back.rng_state, 0x0123_4567_89AB_CDEF);
        assert_eq!((back.budget_spent, back.budget_skipped), (13, 27));
        assert_eq!(back.best, Some((80.25, 4096.0)));
        assert_eq!(back.deployed, Some((101.5, 2048.0)));
        assert_eq!(back.faults.len(), 1);
        assert_eq!(back.faults[0].kind, FaultKind::EvalPanic);
        assert!(back.cache[1].1.cost.is_nan(), "NaN cost survives via null");
        assert_eq!(back.cache[0].1.usages[0], sample_usage());
        assert_eq!(back.cache[0].0 .1, 17 << 70, "u128 keys survive");
        assert_eq!(back.cache[0].1.coarse, u128::MAX);
        assert_eq!(
            back.cache[0].1.relevant.as_ref(),
            &[1u128 << 90, u128::MAX - 1]
        );
        assert_eq!(back.cache[0].1.footprint.as_ref(), &[1u128 << 90]);
        assert_eq!(back.cache[0].1.pinned.as_ref(), &[u128::MAX - 1]);
        assert!(back.cache[1].1.relevant.is_empty());
        assert_eq!(back.derived, ck.derived);
        assert_eq!(back.relevance, ck.relevance);
        assert_eq!(
            back.interner[0],
            (sample_usage().index, 0xFEED_FACE_CAFE_F00D)
        );
    }

    #[test]
    fn restored_trace_renders_identical_jsonl() {
        let ck = sample_checkpoint();
        let json = ck.to_json_string();
        let back = Checkpoint::from_json_str(&json).unwrap();
        let t1 = pdt_trace::Tracer::new();
        t1.restore_state(ck.trace.as_ref().unwrap().state.clone());
        let t2 = pdt_trace::Tracer::new();
        t2.restore_state(back.trace.unwrap().state);
        assert_eq!(t1.to_jsonl(), t2.to_jsonl());
        assert_eq!(t1.counter("search.iterations"), 1);
        assert_eq!(t2.counter("search.iterations"), 1);
    }

    #[test]
    fn restore_cache_rebuilds_entries() {
        let ck = sample_checkpoint();
        let cache = ck.restore_cache(2);
        assert!(cache.is_flat());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(0, 17 << 70).unwrap().cost, 9.75);
        assert!(cache.lookup(1, 99).unwrap().cost.is_nan());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        // The restored store snapshots back to the identical dump.
        let snap = cache.snapshot();
        assert_eq!(
            snap.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            ck.cache.iter().map(|(k, _)| *k).collect::<Vec<_>>()
        );
    }

    #[test]
    fn restore_interner_rebuilds_entries() {
        let ck = sample_checkpoint();
        let interner = ck.restore_interner();
        assert_eq!(interner.len(), 1);
        assert_eq!(interner.snapshot(), ck.interner);
    }

    #[test]
    fn validate_rejects_mismatches() {
        let ck = sample_checkpoint();
        assert!(ck.validate(ck.options_sig, ck.base_sig).is_ok());
        assert!(ck.validate(ck.options_sig + 1, ck.base_sig).is_err());
        assert!(ck.validate(ck.options_sig, 0).is_err());
    }

    #[test]
    fn config_json_round_trips_index_only() {
        let mut c = Configuration::new();
        c.add_index(sample_usage().index);
        c.add_index(Index::clustered(
            TableId(1),
            [ColumnId {
                table: TableId(1),
                ordinal: 0,
            }],
        ));
        let s1 = config_to_json(&c).expect("index-only serializes");
        let back = config_from_json(&s1).expect("parses");
        assert_eq!(back.index_count(), 2);
        assert_eq!(back.signature128(), c.signature128());
        assert_eq!(config_to_json(&back).unwrap(), s1, "fixpoint");
        assert!(config_from_json("{}").is_err());
        assert!(config_from_json("not json").is_err());
    }

    #[test]
    fn rejects_garbage_documents() {
        assert!(Checkpoint::from_json_str("").is_err());
        assert!(Checkpoint::from_json_str("{}").is_err());
        assert!(Checkpoint::from_json_str("{\"version\":99}").is_err());
        let valid = sample_checkpoint().to_json_string();
        let truncated = &valid[..valid.len() / 2];
        assert!(Checkpoint::from_json_str(truncated).is_err());
    }
}
