//! The relaxation transformations of §3.1.
//!
//! Each transformation replaces one or two structures with smaller,
//! generally less efficient ones. `candidates` enumerates every
//! applicable transformation of a configuration; `apply` produces the
//! relaxed configuration together with the bookkeeping the cost-bound
//! machinery needs (what was removed/added and, for view merges, the
//! column remapping).

use pdt_catalog::{ColumnId, Database, TableId};
use pdt_opt::Optimizer;
use pdt_physical::size::SizeModel;
use pdt_physical::view::merge_views;
use pdt_physical::{Configuration, Index, MaterializedView, PhysicalSchema};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// One §3.1 transformation.
#[derive(Debug, Clone, PartialEq)]
pub enum Transformation {
    /// Ordered index merge: replace `{i1, i2}` with `merge(i1, i2)`.
    MergeIndexes { i1: Index, i2: Index },
    /// Index split: replace `{i1, i2}` with the common and residual
    /// indexes.
    SplitIndexes { i1: Index, i2: Index },
    /// Replace an index with a key prefix of it.
    PrefixIndex { index: Index, len: usize },
    /// Replace a secondary index with a clustered index on its key.
    PromoteToClustered { index: Index },
    /// Drop an index.
    RemoveIndex { index: Index },
    /// Merge two views (and promote their indexes onto the result).
    MergeViews { v1: TableId, v2: TableId },
    /// Drop a view and all indexes over it.
    RemoveView { view: TableId },
}

impl fmt::Display for Transformation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Transformation::MergeIndexes { i1, i2 } => write!(f, "merge({i1}, {i2})"),
            Transformation::SplitIndexes { i1, i2 } => write!(f, "split({i1}, {i2})"),
            Transformation::PrefixIndex { index, len } => write!(f, "prefix({index}, {len})"),
            Transformation::PromoteToClustered { index } => write!(f, "promote({index})"),
            Transformation::RemoveIndex { index } => write!(f, "remove({index})"),
            Transformation::MergeViews { v1, v2 } => write!(f, "merge-views({v1}, {v2})"),
            Transformation::RemoveView { view } => write!(f, "remove-view({view})"),
        }
    }
}

/// The result of applying a transformation.
#[derive(Debug, Clone)]
pub struct AppliedTransform {
    pub transformation: Transformation,
    pub config: Configuration,
    /// Indexes present before but not after (including cascades from
    /// view removal/merging).
    pub removed_indexes: Vec<Index>,
    /// Views removed (by id).
    pub removed_views: Vec<TableId>,
    /// Indexes added by the transformation.
    pub added_indexes: Vec<Index>,
    /// Views added (by id; view merges only).
    pub added_views: Vec<TableId>,
    /// Old-view-column -> merged-view-column map (view merges only).
    pub col_map: HashMap<ColumnId, ColumnId>,
    /// True if replacing a merged-away grouped view requires a
    /// compensating group-by (§3.3.2 view transformations).
    pub regroup_compensation: bool,
    /// Space freed in bytes (charged model): Σ removed − Σ added.
    pub delta_bytes: f64,
}

/// Enumerate every §3.1 transformation applicable to `config`.
/// Structures in `base` (constraint-enforcing indexes) are never
/// touched.
pub fn candidates(config: &Configuration, base: &Configuration) -> Vec<Transformation> {
    let mut out = Vec::new();
    let tunable: Vec<&Index> = config
        .indexes()
        .filter(|i| !base.contains_index(i))
        .collect();

    // Group by table for pairwise transformations. BTreeMap so the
    // candidate list has one deterministic order: consumers sample and
    // tie-break by position, and the parallel scorer relies on stable
    // candidate indexes.
    let mut by_table: BTreeMap<TableId, Vec<&Index>> = BTreeMap::new();
    for i in &tunable {
        by_table.entry(i.table).or_default().push(i);
    }

    for indexes in by_table.values() {
        for (a_pos, a) in indexes.iter().enumerate() {
            for (b_pos, b) in indexes.iter().enumerate() {
                if a_pos == b_pos {
                    continue;
                }
                if !a.clustered && !b.clustered {
                    // Ordered merging: both directions are distinct.
                    // Pairs without any common column are skipped: the
                    // merge would concatenate unrelated indexes, which
                    // frees almost no space at a large cost increase
                    // and is never chosen by the penalty heuristic.
                    let a_cols = a.all_columns();
                    if b.all_columns().iter().any(|c| a_cols.contains(c)) {
                        out.push(Transformation::MergeIndexes {
                            i1: (*a).clone(),
                            i2: (*b).clone(),
                        });
                    }
                    // Splitting is symmetric: enumerate once.
                    if a_pos < b_pos && a.split(b).is_some() {
                        out.push(Transformation::SplitIndexes {
                            i1: (*a).clone(),
                            i2: (*b).clone(),
                        });
                    }
                }
            }
        }
        for i in indexes {
            if !i.clustered {
                for len in 1..=i.key.len() {
                    if i.prefix(len).is_some() {
                        out.push(Transformation::PrefixIndex {
                            index: (*i).clone(),
                            len,
                        });
                    }
                }
                if config.clustered_index_on(i.table).is_none() {
                    out.push(Transformation::PromoteToClustered {
                        index: (*i).clone(),
                    });
                }
                out.push(Transformation::RemoveIndex {
                    index: (*i).clone(),
                });
            }
        }
    }

    // View transformations.
    let views: Vec<&MaterializedView> = config.views().collect();
    for (i, v1) in views.iter().enumerate() {
        for v2 in views.iter().skip(i + 1) {
            if v1.def.tables == v2.def.tables {
                out.push(Transformation::MergeViews {
                    v1: v1.id,
                    v2: v2.id,
                });
            }
        }
        out.push(Transformation::RemoveView { view: v1.id });
    }
    out
}

/// The removal subset of [`candidates`], enumerated directly in
/// `O(structures)` instead of generating all `O(n²)` pairwise
/// transformations and filtering. The pruning pre-pass (§3.5) only
/// scores removals, so it calls this once per pass instead of the full
/// enumeration. The emission order is element-for-element identical to
/// the filtered full list — removals appear per table in `BTreeMap`
/// order after that table's pairwise/unary candidates (which the filter
/// drops), then views in declaration order — asserted against the
/// filtered enumeration in debug builds.
pub fn removal_candidates(config: &Configuration, base: &Configuration) -> Vec<Transformation> {
    let mut by_table: BTreeMap<TableId, Vec<&Index>> = BTreeMap::new();
    for i in config.indexes().filter(|i| !base.contains_index(i)) {
        by_table.entry(i.table).or_default().push(i);
    }
    let mut out = Vec::new();
    for indexes in by_table.values() {
        for i in indexes {
            if !i.clustered {
                out.push(Transformation::RemoveIndex {
                    index: (*i).clone(),
                });
            }
        }
    }
    for v in config.views() {
        out.push(Transformation::RemoveView { view: v.id });
    }
    #[cfg(debug_assertions)]
    {
        let filtered: Vec<Transformation> = candidates(config, base)
            .into_iter()
            .filter(|t| {
                matches!(
                    t,
                    Transformation::RemoveIndex { .. } | Transformation::RemoveView { .. }
                )
            })
            .collect();
        debug_assert_eq!(
            out, filtered,
            "direct removal enumeration diverged from the filtered full enumeration"
        );
    }
    out
}

/// The net structural difference between a parent node's configuration
/// and a child's: the applied transformation's removals/additions with
/// any same-step `shrink_unused` removals folded in (a shrunk-away
/// addition cancels out; a shrunk pre-existing structure counts as
/// removed).
#[derive(Debug, Clone, Default)]
pub struct StepDelta {
    pub removed_indexes: Vec<Index>,
    pub removed_views: Vec<TableId>,
    pub added_indexes: Vec<Index>,
    pub added_views: Vec<TableId>,
}

/// Incrementally derive a child node's candidate list from its
/// parent's instead of re-running [`candidates`] from scratch.
///
/// Invalidation rule (see DESIGN.md): a candidate is *inherited* iff it
/// references no removed structure (and, for promotions, the child
/// still has no clustered index on the table); *fresh* candidates are
/// exactly those involving an added structure, plus promotions
/// re-enabled when a clustered index was removed without replacement.
/// The combined list is sorted by the canonical enumeration key so the
/// result is element-for-element identical to `candidates(config,
/// base)` — asserted in debug builds.
///
/// `parent` is the parent's full candidate list paired with interned
/// transformation signatures (in parent enumeration order); the result
/// keeps inherited signatures and interns fresh ones.
pub fn candidates_delta(
    config: &Configuration,
    base: &Configuration,
    parent: &[(Transformation, u64)],
    delta: &StepDelta,
    interner: &crate::incremental::Interner,
) -> Vec<(Transformation, u64)> {
    use std::collections::HashSet;
    let removed_ix: HashSet<&Index> = delta.removed_indexes.iter().collect();
    let removed_vw: HashSet<TableId> = delta.removed_views.iter().copied().collect();
    let added_ix: HashSet<&Index> = delta.added_indexes.iter().collect();
    let added_vw: HashSet<TableId> = delta.added_views.iter().copied().collect();

    // 1. Inherit every parent candidate untouched by the delta.
    let mut out: Vec<(Transformation, u64)> = Vec::with_capacity(parent.len());
    for (t, sig) in parent {
        let keep = match t {
            Transformation::MergeIndexes { i1, i2 } | Transformation::SplitIndexes { i1, i2 } => {
                !removed_ix.contains(i1) && !removed_ix.contains(i2)
            }
            Transformation::PrefixIndex { index, .. } | Transformation::RemoveIndex { index } => {
                !removed_ix.contains(index)
            }
            Transformation::PromoteToClustered { index } => {
                !removed_ix.contains(index) && config.clustered_index_on(index.table).is_none()
            }
            Transformation::MergeViews { v1, v2 } => {
                !removed_vw.contains(v1) && !removed_vw.contains(v2)
            }
            Transformation::RemoveView { view } => !removed_vw.contains(view),
        };
        if keep {
            out.push((t.clone(), *sig));
        }
    }

    // 2. Generate fresh candidates: only those involving an added
    // structure, plus promotions unlocked by a clustered removal.
    // The per-table grouping mirrors `candidates` exactly so positions
    // (and hence the canonical sort below) match its emission order.
    let tunable: Vec<&Index> = config
        .indexes()
        .filter(|i| !base.contains_index(i))
        .collect();
    let mut by_table: BTreeMap<TableId, Vec<&Index>> = BTreeMap::new();
    for i in &tunable {
        by_table.entry(i.table).or_default().push(i);
    }

    let mut fresh: Vec<Transformation> = Vec::new();
    for (table, indexes) in &by_table {
        let any_added = indexes.iter().any(|i| added_ix.contains(*i));
        // A clustered index vanished with no replacement: promotions on
        // this table were invalid at the parent and are now legal.
        let lost_clustered = config.clustered_index_on(*table).is_none()
            && delta
                .removed_indexes
                .iter()
                .any(|r| r.clustered && r.table == *table);
        if !any_added && !lost_clustered {
            continue;
        }
        if any_added {
            for (a_pos, a) in indexes.iter().enumerate() {
                for (b_pos, b) in indexes.iter().enumerate() {
                    if a_pos == b_pos || !(added_ix.contains(*a) || added_ix.contains(*b)) {
                        continue;
                    }
                    if !a.clustered && !b.clustered {
                        let a_cols = a.all_columns();
                        if b.all_columns().iter().any(|c| a_cols.contains(c)) {
                            fresh.push(Transformation::MergeIndexes {
                                i1: (*a).clone(),
                                i2: (*b).clone(),
                            });
                        }
                        if a_pos < b_pos && a.split(b).is_some() {
                            fresh.push(Transformation::SplitIndexes {
                                i1: (*a).clone(),
                                i2: (*b).clone(),
                            });
                        }
                    }
                }
            }
        }
        for i in indexes {
            if i.clustered {
                continue;
            }
            if added_ix.contains(*i) {
                for len in 1..=i.key.len() {
                    if i.prefix(len).is_some() {
                        fresh.push(Transformation::PrefixIndex {
                            index: (*i).clone(),
                            len,
                        });
                    }
                }
                if config.clustered_index_on(i.table).is_none() {
                    fresh.push(Transformation::PromoteToClustered {
                        index: (*i).clone(),
                    });
                }
                fresh.push(Transformation::RemoveIndex {
                    index: (*i).clone(),
                });
            } else if lost_clustered {
                fresh.push(Transformation::PromoteToClustered {
                    index: (*i).clone(),
                });
            }
        }
    }

    // View candidates involving an added view (each unordered pair
    // visited once, mirroring the i < j loop in `candidates`).
    let views: Vec<&MaterializedView> = config.views().collect();
    for (i, v1) in views.iter().enumerate() {
        let v1_added = added_vw.contains(&v1.id);
        for v2 in views.iter().skip(i + 1) {
            if (v1_added || added_vw.contains(&v2.id)) && v1.def.tables == v2.def.tables {
                fresh.push(Transformation::MergeViews {
                    v1: v1.id,
                    v2: v2.id,
                });
            }
        }
        if v1_added {
            fresh.push(Transformation::RemoveView { view: v1.id });
        }
    }

    // 3. Combine (deduplicating by signature — inherited and fresh are
    // disjoint by construction, this is insurance) and restore the
    // canonical enumeration order.
    let mut seen: HashSet<u64> = out.iter().map(|(_, s)| *s).collect();
    for t in fresh {
        let sig = interner.transform_sig(&t);
        if seen.insert(sig) {
            out.push((t, sig));
        }
    }

    // Canonical key reproducing `candidates`' emission order:
    // (section, table rank, pairs-before-unary phase, positions, kind).
    let mut table_rank: HashMap<TableId, usize> = HashMap::new();
    let mut index_pos: HashMap<&Index, usize> = HashMap::new();
    for (r, (tid, list)) in by_table.iter().enumerate() {
        table_rank.insert(*tid, r);
        for (p, i) in list.iter().enumerate() {
            index_pos.insert(*i, p);
        }
    }
    let view_pos: HashMap<TableId, usize> =
        views.iter().enumerate().map(|(p, v)| (v.id, p)).collect();
    let ipos = |i: &Index| -> usize {
        *index_pos
            .get(i)
            .expect("candidate references an index missing from the child configuration")
    };
    let trank = |i: &Index| -> usize {
        *table_rank
            .get(&i.table)
            .expect("candidate references a table with no tunable indexes")
    };
    let vpos = |v: &TableId| -> usize {
        *view_pos
            .get(v)
            .expect("candidate references a view missing from the child configuration")
    };
    out.sort_by_key(|(t, _)| match t {
        Transformation::MergeIndexes { i1, i2 } => (0u8, trank(i1), 0u8, ipos(i1), ipos(i2), 0u8),
        Transformation::SplitIndexes { i1, i2 } => (0, trank(i1), 0, ipos(i1), ipos(i2), 1),
        Transformation::PrefixIndex { index, len } => (0, trank(index), 1, ipos(index), *len, 0),
        Transformation::PromoteToClustered { index } => {
            (0, trank(index), 1, ipos(index), usize::MAX - 1, 0)
        }
        Transformation::RemoveIndex { index } => (0, trank(index), 1, ipos(index), usize::MAX, 0),
        Transformation::MergeViews { v1, v2 } => (1, 0, 0, vpos(v1), vpos(v2), 0),
        Transformation::RemoveView { view } => (1, 0, 0, vpos(view), usize::MAX, 0),
    });

    #[cfg(debug_assertions)]
    {
        let full = candidates(config, base);
        let got: Vec<&Transformation> = out.iter().map(|(t, _)| t).collect();
        debug_assert_eq!(
            got,
            full.iter().collect::<Vec<_>>(),
            "delta enumeration diverged from from-scratch enumeration"
        );
    }
    out
}

/// Apply a transformation to `config`. Returns `None` when the
/// transformation no longer applies (structures disappeared) or would
/// be a no-op. The no-op guard compares configurations structurally,
/// which short-circuits on the first difference — `O(1)` for any
/// transformation that changes the structure count.
pub fn apply(
    t: &Transformation,
    config: &Configuration,
    db: &Database,
    opt: &Optimizer<'_>,
) -> Option<AppliedTransform> {
    let model = SizeModel::default();
    let mut new = config.clone();
    let mut removed_indexes = Vec::new();
    let mut removed_views = Vec::new();
    let mut added_indexes = Vec::new();
    let mut added_views = Vec::new();
    let mut col_map = HashMap::new();
    let mut regroup_compensation = false;

    match t {
        Transformation::MergeIndexes { i1, i2 } => {
            if !new.contains_index(i1) || !new.contains_index(i2) {
                return None;
            }
            let merged = i1.merge(i2)?;
            new.remove_index(i1);
            new.remove_index(i2);
            removed_indexes.push(i1.clone());
            removed_indexes.push(i2.clone());
            if new.add_index(merged.clone()) {
                added_indexes.push(merged);
            }
        }
        Transformation::SplitIndexes { i1, i2 } => {
            if !new.contains_index(i1) || !new.contains_index(i2) {
                return None;
            }
            let split = i1.split(i2)?;
            new.remove_index(i1);
            new.remove_index(i2);
            removed_indexes.push(i1.clone());
            removed_indexes.push(i2.clone());
            for idx in std::iter::once(split.common)
                .chain(split.residual1)
                .chain(split.residual2)
            {
                if new.add_index(idx.clone()) {
                    added_indexes.push(idx);
                }
            }
        }
        Transformation::PrefixIndex { index, len } => {
            if !new.contains_index(index) {
                return None;
            }
            let p = index.prefix(*len)?;
            new.remove_index(index);
            removed_indexes.push(index.clone());
            if new.add_index(p.clone()) {
                added_indexes.push(p);
            }
        }
        Transformation::PromoteToClustered { index } => {
            if !new.contains_index(index) || new.clustered_index_on(index.table).is_some() {
                return None;
            }
            let c = index.promoted_to_clustered();
            new.remove_index(index);
            removed_indexes.push(index.clone());
            if new.add_index(c.clone()) {
                added_indexes.push(c);
            }
        }
        Transformation::RemoveIndex { index } => {
            if !new.remove_index(index) {
                return None;
            }
            removed_indexes.push(index.clone());
        }
        Transformation::MergeViews { v1, v2 } => {
            let view1 = new.view(*v1)?.clone();
            let view2 = new.view(*v2)?.clone();
            let merged_def = merge_views(&view1.def, &view2.def)?;
            // Re-merging into an existing definition is a no-op guard.
            if merged_def == view1.def || merged_def == view2.def {
                return None;
            }
            let rows = opt.estimate_view_rows(&new, &merged_def);
            let merged_id = new.allocate_view_id();
            let merged = MaterializedView::create(merged_id, merged_def, rows, db);

            // Column maps from each source view into the merged view.
            for src in [&view1, &view2] {
                let eq = src.def.equivalences();
                for (ord, vc) in src.columns.iter().enumerate() {
                    let from = ColumnId::new(src.id, ord as u16);
                    let to = match &vc.source {
                        pdt_physical::ViewColumnSource::Base(b) => {
                            merged.ordinal_of_base(*b, Some(&eq))
                        }
                        pdt_physical::ViewColumnSource::Agg(i) => {
                            let call = &src.def.aggregates[*i];
                            merged
                                .ordinal_of_agg(call, &eq)
                                .or_else(|| {
                                    // AVG expanded into SUM+COUNT: map to the
                                    // SUM component.
                                    let sum = pdt_expr::scalar::AggCall {
                                        func: pdt_expr::scalar::AggFunc::Sum,
                                        arg: call.arg.clone(),
                                        distinct: call.distinct,
                                    };
                                    merged.ordinal_of_agg(&sum, &eq)
                                })
                                .or_else(|| {
                                    // Aggregates dropped (merged view is
                                    // ungrouped): map to the argument's base
                                    // column.
                                    call.arg
                                        .as_ref()
                                        .and_then(|a| a.columns().into_iter().next())
                                        .and_then(|b| merged.ordinal_of_base(b, Some(&eq)))
                                })
                        }
                    };
                    if let Some(to_ord) = to {
                        col_map.insert(from, ColumnId::new(merged_id, to_ord));
                    }
                }
                if src.def.is_grouped()
                    && (merged.def.group_by != src.def.group_by || !merged.def.is_grouped())
                {
                    regroup_compensation = true;
                }
            }

            // Promote indexes of both views onto the merged view
            // ("all indexes over V1 and V2 are promoted to VM").
            let mut promoted: Vec<Index> = Vec::new();
            let mut have_clustered = false;
            for src in [v1, v2] {
                for idx in config.indexes_on(*src) {
                    removed_indexes.push(idx.clone());
                    let key: Vec<ColumnId> = idx
                        .key
                        .iter()
                        .filter_map(|c| col_map.get(c).copied())
                        .collect();
                    let key = if key.is_empty() {
                        vec![ColumnId::new(merged_id, 0)]
                    } else {
                        key
                    };
                    let suffix: Vec<ColumnId> = idx
                        .suffix
                        .iter()
                        .filter_map(|c| col_map.get(c).copied())
                        .collect();
                    let mut mapped = Index::new(merged_id, key, suffix);
                    if idx.clustered && !have_clustered {
                        mapped = Index::clustered(merged_id, mapped.key.clone());
                        have_clustered = true;
                    }
                    promoted.push(mapped);
                }
            }
            new.remove_view(*v1);
            new.remove_view(*v2);
            removed_views.push(*v1);
            removed_views.push(*v2);
            new.add_view(merged);
            added_views.push(merged_id);
            if !have_clustered {
                promoted.push(Index::clustered(merged_id, [ColumnId::new(merged_id, 0)]));
            }
            for idx in promoted {
                if new.add_index(idx.clone()) {
                    added_indexes.push(idx);
                }
            }
        }
        Transformation::RemoveView { view } => {
            new.view(*view)?;
            for idx in config.indexes_on(*view) {
                removed_indexes.push(idx.clone());
            }
            new.remove_view(*view);
            removed_views.push(*view);
        }
    }

    if new == *config {
        return None;
    }

    // Charged space delta: removed sized under the old schema, added
    // under the new one (view row counts can differ).
    let old_schema = PhysicalSchema::new(db, config);
    let new_schema = PhysicalSchema::new(db, &new);
    let removed_bytes: f64 = removed_indexes
        .iter()
        .map(|i| model.index_bytes_charged(&old_schema, i))
        .sum();
    let added_bytes: f64 = added_indexes
        .iter()
        .map(|i| model.index_bytes_charged(&new_schema, i))
        .sum();

    Some(AppliedTransform {
        transformation: t.clone(),
        config: new,
        removed_indexes,
        removed_views,
        added_indexes,
        added_views,
        col_map,
        regroup_compensation,
        delta_bytes: removed_bytes - added_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdt_catalog::{ColumnStats, ColumnType};
    use pdt_expr::scalar::{AggCall, AggFunc, ScalarExpr};
    use pdt_physical::SpjgExpr;

    fn test_db() -> Database {
        let mut b = Database::builder("t");
        let mk = |name: &str| pdt_catalog::Column {
            name: name.into(),
            ty: ColumnType::Int,
            stats: ColumnStats::uniform(1000.0, 0.0, 1000.0, 4.0),
        };
        b.add_table(
            "r",
            100_000.0,
            vec![mk("id"), mk("a"), mk("b"), mk("c")],
            vec![0],
        );
        b.add_table("heap", 50_000.0, vec![mk("h1"), mk("h2")], vec![]);
        b.build()
    }

    fn rcol(db: &Database, i: u16) -> ColumnId {
        ColumnId::new(db.table_by_name("r").unwrap().id, i)
    }

    #[test]
    fn candidate_enumeration_covers_all_kinds() {
        let db = test_db();
        let base = Configuration::base(&db);
        let mut config = base.clone();
        let r = db.table_by_name("r").unwrap().id;
        config.add_index(Index::new(r, [rcol(&db, 1)], [rcol(&db, 3)]));
        config.add_index(Index::new(r, [rcol(&db, 1), rcol(&db, 2)], []));
        let cands = candidates(&config, &base);
        let kinds: Vec<&str> = cands
            .iter()
            .map(|t| match t {
                Transformation::MergeIndexes { .. } => "merge",
                Transformation::SplitIndexes { .. } => "split",
                Transformation::PrefixIndex { .. } => "prefix",
                Transformation::PromoteToClustered { .. } => "promote",
                Transformation::RemoveIndex { .. } => "remove",
                Transformation::MergeViews { .. } => "merge-views",
                Transformation::RemoveView { .. } => "remove-view",
            })
            .collect();
        assert!(kinds.contains(&"merge"));
        assert!(kinds.contains(&"split"));
        assert!(kinds.contains(&"prefix"));
        assert!(kinds.contains(&"remove"));
        // r has a clustered PK: no promotion offered there.
        assert!(!kinds.contains(&"promote"));
        // Base PK indexes are untouchable.
        for c in &cands {
            if let Transformation::RemoveIndex { index } = c {
                assert!(!base.contains_index(index));
            }
        }
    }

    #[test]
    fn promotion_offered_on_heaps_only() {
        let db = test_db();
        let base = Configuration::base(&db);
        let mut config = base.clone();
        let heap = db.table_by_name("heap").unwrap().id;
        config.add_index(Index::new(heap, [ColumnId::new(heap, 0)], []));
        let cands = candidates(&config, &base);
        assert!(cands
            .iter()
            .any(|t| matches!(t, Transformation::PromoteToClustered { .. })));
    }

    #[test]
    fn merge_apply_shrinks_space() {
        let db = test_db();
        let base = Configuration::base(&db);
        let mut config = base.clone();
        let r = db.table_by_name("r").unwrap().id;
        let i1 = Index::new(r, [rcol(&db, 1)], [rcol(&db, 3)]);
        let i2 = Index::new(r, [rcol(&db, 2)], [rcol(&db, 3)]);
        config.add_index(i1.clone());
        config.add_index(i2.clone());
        let opt = Optimizer::new(&db);
        let applied = apply(
            &Transformation::MergeIndexes {
                i1: i1.clone(),
                i2: i2.clone(),
            },
            &config,
            &db,
            &opt,
        )
        .unwrap();
        assert!(applied.delta_bytes > 0.0, "merging frees space");
        assert_eq!(applied.removed_indexes.len(), 2);
        assert_eq!(applied.added_indexes.len(), 1);
        assert!(applied.config.size_bytes(&db) < config.size_bytes(&db));
    }

    #[test]
    fn stale_transformations_return_none() {
        let db = test_db();
        let base = Configuration::base(&db);
        let r = db.table_by_name("r").unwrap().id;
        let ghost = Index::new(r, [rcol(&db, 1)], []);
        let opt = Optimizer::new(&db);
        assert!(apply(
            &Transformation::RemoveIndex { index: ghost },
            &base,
            &db,
            &opt,
        )
        .is_none());
    }

    #[test]
    fn view_merge_promotes_indexes_and_maps_columns() {
        let db = test_db();
        let r = db.table_by_name("r").unwrap().id;
        let a = rcol(&db, 1);
        let b = rcol(&db, 2);
        let c = rcol(&db, 3);
        let opt = Optimizer::new(&db);
        let mut config = Configuration::base(&db);

        let sum_c = AggCall {
            func: AggFunc::Sum,
            arg: Some(ScalarExpr::column(c)),
            distinct: false,
        };
        let d1 = SpjgExpr {
            tables: [r].into(),
            group_by: [a].into(),
            aggregates: vec![sum_c.clone()],
            output_cols: [a].into(),
            ..Default::default()
        };
        let d2 = SpjgExpr {
            tables: [r].into(),
            group_by: [b].into(),
            aggregates: vec![sum_c],
            output_cols: [b].into(),
            ..Default::default()
        };
        let v1 = config.allocate_view_id();
        config.add_view(MaterializedView::create(
            v1,
            d1,
            opt.estimate_view_rows(&config, &SpjgExpr::default())
                .max(100.0),
            &db,
        ));
        config.add_index(Index::clustered(v1, [ColumnId::new(v1, 0)]));
        let v2 = config.allocate_view_id();
        config.add_view(MaterializedView::create(v2, d2, 100.0, &db));
        config.add_index(Index::clustered(v2, [ColumnId::new(v2, 0)]));

        let applied = apply(&Transformation::MergeViews { v1, v2 }, &config, &db, &opt).unwrap();
        assert_eq!(applied.removed_views.len(), 2);
        assert_eq!(applied.config.view_count(), 1);
        let merged = applied.config.views().next().unwrap();
        assert!(
            applied.config.clustered_index_on(merged.id).is_some(),
            "merged view keeps a clustered index"
        );
        assert!(applied.regroup_compensation, "groupings differ");
        // Every source view column must be mapped.
        assert!(applied.col_map.keys().any(|k| k.table == v1));
        assert!(applied.col_map.keys().any(|k| k.table == v2));
    }

    #[test]
    fn remove_view_cascades() {
        let db = test_db();
        let r = db.table_by_name("r").unwrap().id;
        let opt = Optimizer::new(&db);
        let mut config = Configuration::base(&db);
        let def = SpjgExpr {
            tables: [r].into(),
            output_cols: [rcol(&db, 1)].into(),
            ranges: vec![pdt_expr::SargablePred {
                column: rcol(&db, 2),
                sarg: pdt_expr::Sarg::Range(pdt_expr::Interval::at_most(10.0, true)),
            }],
            ..Default::default()
        };
        let vid = config.allocate_view_id();
        config.add_view(MaterializedView::create(vid, def, 1000.0, &db));
        config.add_index(Index::clustered(vid, [ColumnId::new(vid, 0)]));
        let applied = apply(
            &Transformation::RemoveView { view: vid },
            &config,
            &db,
            &opt,
        )
        .unwrap();
        assert_eq!(applied.removed_indexes.len(), 1);
        assert_eq!(applied.config.view_count(), 0);
        assert!(applied.delta_bytes > 0.0);
    }

    fn with_sigs(
        cands: Vec<Transformation>,
        interner: &crate::incremental::Interner,
    ) -> Vec<(Transformation, u64)> {
        cands
            .into_iter()
            .map(|t| {
                let sig = interner.transform_sig(&t);
                (t, sig)
            })
            .collect()
    }

    fn delta_of(applied: &AppliedTransform) -> StepDelta {
        StepDelta {
            removed_indexes: applied.removed_indexes.clone(),
            removed_views: applied.removed_views.clone(),
            added_indexes: applied.added_indexes.clone(),
            added_views: applied.added_views.clone(),
        }
    }

    fn assert_delta_matches(
        config: &Configuration,
        base: &Configuration,
        parent: &[(Transformation, u64)],
        delta: &StepDelta,
        interner: &crate::incremental::Interner,
        ctx: &str,
    ) -> Vec<(Transformation, u64)> {
        let got = candidates_delta(config, base, parent, delta, interner);
        let want = candidates(config, base);
        assert_eq!(
            got.iter().map(|(t, _)| t.clone()).collect::<Vec<_>>(),
            want,
            "delta list diverged after {ctx}"
        );
        for (t, sig) in &got {
            assert_eq!(
                *sig,
                interner.transform_sig(t),
                "stale signature after {ctx}"
            );
        }
        got
    }

    #[test]
    fn delta_enumeration_matches_from_scratch_for_every_candidate() {
        let db = test_db();
        let base = Configuration::base(&db);
        let mut config = base.clone();
        let r = db.table_by_name("r").unwrap().id;
        let heap = db.table_by_name("heap").unwrap().id;
        config.add_index(Index::new(r, [rcol(&db, 1)], [rcol(&db, 3)]));
        config.add_index(Index::new(r, [rcol(&db, 1), rcol(&db, 2)], []));
        config.add_index(Index::new(r, [rcol(&db, 2)], [rcol(&db, 3)]));
        config.add_index(Index::new(heap, [ColumnId::new(heap, 0)], []));
        let opt = Optimizer::new(&db);
        let interner = crate::incremental::Interner::new();
        let parent = with_sigs(candidates(&config, &base), &interner);
        let mut checked = 0;
        for (t, _) in &parent {
            let Some(applied) = apply(t, &config, &db, &opt) else {
                continue;
            };
            assert_delta_matches(
                &applied.config,
                &base,
                &parent,
                &delta_of(&applied),
                &interner,
                &t.to_string(),
            );
            checked += 1;
        }
        assert!(checked >= 10, "only {checked} applicable candidates");
    }

    #[test]
    fn delta_enumeration_handles_view_merges_and_removals() {
        let db = test_db();
        let r = db.table_by_name("r").unwrap().id;
        let a = rcol(&db, 1);
        let b = rcol(&db, 2);
        let opt = Optimizer::new(&db);
        let base = Configuration::base(&db);
        let mut config = base.clone();
        let d1 = SpjgExpr {
            tables: [r].into(),
            group_by: [a].into(),
            output_cols: [a].into(),
            ..Default::default()
        };
        let d2 = SpjgExpr {
            tables: [r].into(),
            group_by: [b].into(),
            output_cols: [b].into(),
            ..Default::default()
        };
        let v1 = config.allocate_view_id();
        config.add_view(MaterializedView::create(v1, d1, 500.0, &db));
        config.add_index(Index::clustered(v1, [ColumnId::new(v1, 0)]));
        let v2 = config.allocate_view_id();
        config.add_view(MaterializedView::create(v2, d2, 100.0, &db));
        config.add_index(Index::clustered(v2, [ColumnId::new(v2, 0)]));
        config.add_index(Index::new(r, [a], []));

        let interner = crate::incremental::Interner::new();
        let parent = with_sigs(candidates(&config, &base), &interner);
        assert!(parent
            .iter()
            .any(|(t, _)| matches!(t, Transformation::MergeViews { .. })));
        let mut checked = 0;
        for (t, _) in &parent {
            let Some(applied) = apply(t, &config, &db, &opt) else {
                continue;
            };
            assert_delta_matches(
                &applied.config,
                &base,
                &parent,
                &delta_of(&applied),
                &interner,
                &t.to_string(),
            );
            checked += 1;
        }
        assert!(checked >= 3, "only {checked} applicable candidates");
    }

    #[test]
    fn delta_enumeration_composes_across_steps() {
        let db = test_db();
        let base = Configuration::base(&db);
        let mut config = base.clone();
        let r = db.table_by_name("r").unwrap().id;
        config.add_index(Index::new(r, [rcol(&db, 1)], [rcol(&db, 3)]));
        config.add_index(Index::new(r, [rcol(&db, 1), rcol(&db, 2)], []));
        config.add_index(Index::new(r, [rcol(&db, 2)], []));
        let opt = Optimizer::new(&db);
        let interner = crate::incremental::Interner::new();
        let mut parent = with_sigs(candidates(&config, &base), &interner);
        let mut steps = 0;
        while steps < 4 {
            let Some((t, applied)) = parent
                .iter()
                .find_map(|(t, _)| apply(t, &config, &db, &opt).map(|a| (t.clone(), a)))
            else {
                break;
            };
            parent = assert_delta_matches(
                &applied.config,
                &base,
                &parent,
                &delta_of(&applied),
                &interner,
                &format!("step {steps}: {t}"),
            );
            config = applied.config;
            steps += 1;
        }
        assert!(steps >= 2, "chain too short ({steps} steps)");
    }

    #[test]
    fn clustered_removal_reenables_promotions() {
        let db = test_db();
        let base = Configuration::base(&db);
        let heap = db.table_by_name("heap").unwrap().id;
        let ci = Index::clustered(heap, [ColumnId::new(heap, 0)]);
        let j = Index::new(heap, [ColumnId::new(heap, 1)], []);
        let mut config = base.clone();
        config.add_index(ci.clone());
        config.add_index(j.clone());
        let interner = crate::incremental::Interner::new();
        let parent = with_sigs(candidates(&config, &base), &interner);
        assert!(!parent
            .iter()
            .any(|(t, _)| matches!(t, Transformation::PromoteToClustered { .. })));
        // Simulate a shrink_unused step that drops the clustered index.
        let mut child = config.clone();
        assert!(child.remove_index(&ci));
        let delta = StepDelta {
            removed_indexes: vec![ci],
            ..Default::default()
        };
        let got = assert_delta_matches(&child, &base, &parent, &delta, &interner, "shrink");
        assert!(
            got.iter().any(
                |(t, _)| matches!(t, Transformation::PromoteToClustered { index } if *index == j)
            ),
            "promotion not regenerated after clustered removal"
        );
    }
}
