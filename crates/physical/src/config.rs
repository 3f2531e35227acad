//! Configurations: sets of indexes and materialized views, plus the
//! [`PhysicalSchema`] accessor that makes views behave like tables.

use crate::index::Index;
use crate::size::SizeModel;
use crate::view::{MaterializedView, SpjgExpr};
use pdt_catalog::{ColumnId, ColumnStats, Database, TableId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A physical configuration: the set of available physical structures.
///
/// Per the paper, a materialized view is "a regular view for which a
/// clustered index has been implemented": a view in a configuration is
/// only *usable* once it has at least a clustered index; its size is
/// the sum of the sizes of its indexes.
#[derive(Debug, Clone, Default)]
pub struct Configuration {
    indexes: BTreeSet<Index>,
    // Arc makes configuration clones cheap during the relaxation
    // search, which clones candidate configurations in bulk.
    views: BTreeMap<TableId, Arc<MaterializedView>>,
}

/// Structural equality, used by the no-op guard on the apply hot path
/// (`pdt_tuner::transform::apply`): short-circuits on set/map length
/// first, and compares views by `Arc` pointer before falling back to
/// contents — a relaxed configuration shares its unchanged views'
/// allocations with its parent, so the common case is one pointer
/// comparison per view.
impl PartialEq for Configuration {
    fn eq(&self, other: &Self) -> bool {
        self.indexes == other.indexes
            && self.views.len() == other.views.len()
            && self
                .views
                .iter()
                .zip(&other.views)
                .all(|((ka, va), (kb, vb))| ka == kb && (Arc::ptr_eq(va, vb) || va == vb))
    }
}

impl Configuration {
    /// The empty configuration.
    pub fn new() -> Configuration {
        Configuration::default()
    }

    /// The *base configuration*: the structures that must be present in
    /// any configuration — a clustered primary-key index per table that
    /// declares one (constraint-enforcing indexes, §3.3.2).
    pub fn base(db: &Database) -> Configuration {
        let mut c = Configuration::new();
        for t in db.tables() {
            if !t.primary_key.is_empty() {
                c.add_index(Index::clustered(
                    t.id,
                    t.primary_key.iter().map(|o| ColumnId::new(t.id, *o)),
                ));
            }
        }
        c
    }

    // ----------------------------------------------------------------
    // Indexes
    // ----------------------------------------------------------------

    /// Add an index; returns false if it was already present or if it
    /// is a clustered index colliding with an existing clustered index
    /// on the same table ("provided that C does not already have
    /// another clustered index over table T", §3.1.1).
    pub fn add_index(&mut self, index: Index) -> bool {
        if index.clustered
            && self
                .indexes
                .iter()
                .any(|i| i.clustered && i.table == index.table && *i != index)
        {
            return false;
        }
        self.indexes.insert(index)
    }

    /// Remove an index; returns true if present.
    pub fn remove_index(&mut self, index: &Index) -> bool {
        self.indexes.remove(index)
    }

    pub fn contains_index(&self, index: &Index) -> bool {
        self.indexes.contains(index)
    }

    /// All indexes.
    pub fn indexes(&self) -> impl Iterator<Item = &Index> {
        self.indexes.iter()
    }

    /// Indexes over one table (or view).
    pub fn indexes_on(&self, table: TableId) -> impl Iterator<Item = &Index> {
        self.indexes.iter().filter(move |i| i.table == table)
    }

    /// The clustered index on `table`, if any.
    pub fn clustered_index_on(&self, table: TableId) -> Option<&Index> {
        self.indexes_on(table).find(|i| i.clustered)
    }

    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }

    // ----------------------------------------------------------------
    // Views
    // ----------------------------------------------------------------

    /// A view id not yet in use.
    pub fn allocate_view_id(&self) -> TableId {
        let next = self
            .views
            .keys()
            .map(|id| id.0 + 1)
            .max()
            .unwrap_or(TableId::VIEW_BASE);
        TableId(next.max(TableId::VIEW_BASE))
    }

    /// Register a materialized view. Panics on id collision (ids come
    /// from [`Configuration::allocate_view_id`]).
    pub fn add_view(&mut self, view: MaterializedView) {
        let prev = self.views.insert(view.id, Arc::new(view));
        assert!(prev.is_none(), "view id already in use");
    }

    /// Remove a view and (per §3.1.2 Removal) every index defined over
    /// it. Returns true if the view existed.
    pub fn remove_view(&mut self, id: TableId) -> bool {
        if self.views.remove(&id).is_none() {
            return false;
        }
        self.indexes.retain(|i| i.table != id);
        true
    }

    pub fn view(&self, id: TableId) -> Option<&MaterializedView> {
        self.views.get(&id).map(Arc::as_ref)
    }

    pub fn views(&self) -> impl Iterator<Item = &MaterializedView> {
        self.views.values().map(Arc::as_ref)
    }

    pub fn view_count(&self) -> usize {
        self.views.len()
    }

    /// Find a view with a structurally identical definition.
    pub fn find_view_by_def(&self, def: &SpjgExpr) -> Option<&MaterializedView> {
        self.views.values().map(Arc::as_ref).find(|v| v.def == *def)
    }

    /// Views that are usable by the optimizer (have a clustered index).
    pub fn usable_views(&self) -> impl Iterator<Item = &MaterializedView> {
        self.views
            .values()
            .map(Arc::as_ref)
            .filter(|v| self.clustered_index_on(v.id).is_some())
    }

    // ----------------------------------------------------------------
    // Whole-configuration operations
    // ----------------------------------------------------------------

    /// Union of two configurations (view id collisions keep `self`'s
    /// entry when definitions are identical; otherwise the other view
    /// is re-registered under a fresh id and its indexes remapped).
    pub fn union(&self, other: &Configuration) -> Configuration {
        let mut out = self.clone();
        let mut remap: BTreeMap<TableId, TableId> = BTreeMap::new();
        for v in other.views.values() {
            if let Some(existing) = out.find_view_by_def(&v.def) {
                if existing.id != v.id {
                    remap.insert(v.id, existing.id);
                }
                continue;
            }
            match out.views.get(&v.id) {
                None => out.add_view(MaterializedView::clone(v)),
                Some(_) => {
                    let fresh = out.allocate_view_id();
                    let mut moved = MaterializedView::clone(v);
                    moved.id = fresh;
                    remap.insert(v.id, fresh);
                    out.add_view(moved);
                }
            }
        }
        for i in other.indexes.iter() {
            let mut idx = i.clone();
            if let Some(new_id) = remap.get(&i.table) {
                idx = remap_index(&idx, *new_id);
            }
            out.add_index(idx);
        }
        out
    }

    /// Total estimated size in bytes under the default size model
    /// (base-table clustered indexes are charged internal nodes only —
    /// see [`SizeModel::index_bytes_charged`]).
    pub fn size_bytes(&self, db: &Database) -> f64 {
        let model = SizeModel::default();
        let schema = PhysicalSchema::new(db, self);
        self.indexes
            .iter()
            .map(|i| model.index_bytes_charged(&schema, i))
            .sum()
    }

    /// Number of physical structures (indexes; views count through
    /// their indexes).
    pub fn structure_count(&self) -> usize {
        self.indexes.len() + self.views.len()
    }

    /// A stable content signature for search-pool deduplication.
    pub fn signature(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        for i in &self.indexes {
            i.hash(&mut h);
        }
        for (id, v) in &self.views {
            id.hash(&mut h);
            format!("{:?}", v.def).hash(&mut h);
        }
        h.finish()
    }

    /// 128-bit content signature for cache and memo keys: two
    /// independently-tagged 64-bit hashes over the same structure
    /// stream. Collision probability is negligible at any realistic
    /// search-pool size, so plan-cache correctness never rides on a
    /// 64-bit hash.
    pub fn signature128(&self) -> u128 {
        let mut h = Tagged128::new();
        for i in &self.indexes {
            h.hash(i);
        }
        for (id, v) in &self.views {
            h.hash(id);
            h.hash(&format!("{:?}", v.def));
        }
        h.finish()
    }

    /// Signature of the configuration *as seen by a query over
    /// `tables`*: the indexes on those tables, the views whose
    /// definitions join a subset of them (the only views that can
    /// match, per [`MaterializedView::try_match`]), and the indexes on
    /// those views. Two configurations with equal projected signatures
    /// yield identical plans for the query, so this is the coarse cache
    /// key for memoized what-if optimizer calls. 128-bit variant of
    /// [`Configuration::signature_for_tables`].
    pub fn signature_for_tables128(&self, tables: &BTreeSet<TableId>) -> u128 {
        let visible_view = |id: TableId| {
            self.views
                .get(&id)
                .is_some_and(|v| v.def.tables.is_subset(tables))
        };
        let mut h = Tagged128::new();
        for i in &self.indexes {
            if tables.contains(&i.table) || (i.table.is_view() && visible_view(i.table)) {
                h.hash(i);
            }
        }
        for (id, v) in &self.views {
            if v.def.tables.is_subset(tables) {
                h.hash(id);
                h.hash(&format!("{:?}", v.def));
            }
        }
        h.finish()
    }

    /// Signature of the configuration *as seen by a query over
    /// `tables`*: the indexes on those tables, the views whose
    /// definitions join a subset of them (the only views that can
    /// match, per [`MaterializedView::try_match`]), and the indexes on
    /// those views. Two configurations with equal projected signatures
    /// yield identical plans for the query, so this is the cache key
    /// for memoized what-if optimizer calls.
    pub fn signature_for_tables(&self, tables: &BTreeSet<TableId>) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let visible_view = |id: TableId| {
            self.views
                .get(&id)
                .is_some_and(|v| v.def.tables.is_subset(tables))
        };
        let mut h = DefaultHasher::new();
        for i in &self.indexes {
            if tables.contains(&i.table) || (i.table.is_view() && visible_view(i.table)) {
                i.hash(&mut h);
            }
        }
        for (id, v) in &self.views {
            if v.def.tables.is_subset(tables) {
                id.hash(&mut h);
                format!("{:?}", v.def).hash(&mut h);
            }
        }
        h.finish()
    }
}

/// A 128-bit content hasher: two `DefaultHasher`s seeded with distinct
/// tag prefixes, combined as `(hi << 64) | lo`. Like the 64-bit
/// signatures it widens, it is only stable within one build (`std`'s
/// `DefaultHasher`), which is already the checkpoint contract.
#[derive(Clone)]
pub struct Tagged128 {
    lo: std::collections::hash_map::DefaultHasher,
    hi: std::collections::hash_map::DefaultHasher,
}

impl Default for Tagged128 {
    fn default() -> Tagged128 {
        Tagged128::new()
    }
}

impl Tagged128 {
    pub fn new() -> Tagged128 {
        use std::hash::Hasher;
        let mut lo = std::collections::hash_map::DefaultHasher::new();
        let mut hi = std::collections::hash_map::DefaultHasher::new();
        lo.write(b"pdt-sig128-lo");
        hi.write(b"pdt-sig128-hi");
        Tagged128 { lo, hi }
    }

    pub fn hash<T: std::hash::Hash + ?Sized>(&mut self, value: &T) {
        value.hash(&mut self.lo);
        value.hash(&mut self.hi);
    }

    pub fn finish(&self) -> u128 {
        use std::hash::Hasher;
        ((self.hi.finish() as u128) << 64) | self.lo.finish() as u128
    }
}

/// 128-bit content signature of a single physical structure, matching
/// the per-element encoding of [`Configuration::signature128`]: indexes
/// hash directly, views hash as `(id, debug-formatted definition)`.
pub fn index_sig128(index: &Index) -> u128 {
    let mut h = Tagged128::new();
    h.hash(index);
    h.finish()
}

/// See [`index_sig128`].
pub fn view_sig128(id: TableId, view: &MaterializedView) -> u128 {
    let mut h = Tagged128::new();
    h.hash(&id);
    h.hash(&format!("{:?}", view.def));
    h.finish()
}

fn remap_index(index: &Index, new_table: TableId) -> Index {
    let mut idx = Index::new(
        new_table,
        index
            .key
            .iter()
            .map(|c| ColumnId::new(new_table, c.ordinal)),
        index
            .suffix
            .iter()
            .map(|c| ColumnId::new(new_table, c.ordinal)),
    );
    idx.clustered = index.clustered;
    idx
}

/// Unified schema accessor over base tables and materialized views.
#[derive(Clone, Copy)]
pub struct PhysicalSchema<'a> {
    pub db: &'a Database,
    pub config: &'a Configuration,
}

impl<'a> PhysicalSchema<'a> {
    pub fn new(db: &'a Database, config: &'a Configuration) -> PhysicalSchema<'a> {
        PhysicalSchema { db, config }
    }

    /// Row count of a base table or view.
    pub fn rows(&self, table: TableId) -> f64 {
        if table.is_view() {
            self.config.view(table).map(|v| v.rows).unwrap_or(1.0)
        } else {
            self.db.table(table).rows
        }
    }

    /// Full row width of a base table or view.
    pub fn row_width(&self, table: TableId) -> f64 {
        if table.is_view() {
            self.config
                .view(table)
                .map(|v| v.row_width())
                .unwrap_or(8.0)
        } else {
            self.db.table(table).row_width()
        }
    }

    /// Average width of a column (base or view).
    pub fn column_width(&self, col: ColumnId) -> f64 {
        if col.table.is_view() {
            self.config
                .view(col.table)
                .and_then(|v| v.columns.get(col.ordinal as usize))
                .map(|c| c.width)
                .unwrap_or(8.0)
        } else {
            self.db.column(col).avg_width()
        }
    }

    /// Statistics of a column (base or view). Returns `None` for
    /// unknown view columns.
    pub fn column_stats(&self, col: ColumnId) -> Option<&ColumnStats> {
        if col.table.is_view() {
            self.config
                .view(col.table)?
                .columns
                .get(col.ordinal as usize)
                .map(|c| &c.stats)
        } else {
            Some(&self.db.column(col).stats)
        }
    }

    /// Human-readable column name.
    pub fn column_name(&self, col: ColumnId) -> String {
        if col.table.is_view() {
            match self
                .config
                .view(col.table)
                .and_then(|v| v.columns.get(col.ordinal as usize))
            {
                Some(c) => format!("{}.{}", col.table, c.name),
                None => col.to_string(),
            }
        } else {
            self.db.column_name(col)
        }
    }

    /// All column ids of a base table or view.
    pub fn all_columns(&self, table: TableId) -> Vec<ColumnId> {
        if table.is_view() {
            match self.config.view(table) {
                Some(v) => (0..v.columns.len() as u16)
                    .map(|i| ColumnId::new(table, i))
                    .collect(),
                None => Vec::new(),
            }
        } else {
            self.db.table(table).all_column_ids().collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::SpjgExpr;
    use pdt_catalog::{ColumnStats, ColumnType};

    fn test_db() -> Database {
        let mut b = Database::builder("t");
        let mk = |name: &str| pdt_catalog::Column {
            name: name.into(),
            ty: ColumnType::Int,
            stats: ColumnStats::uniform(100.0, 0.0, 100.0, 4.0),
        };
        b.add_table("r", 100_000.0, vec![mk("a"), mk("b"), mk("c")], vec![0]);
        b.add_table("s", 50_000.0, vec![mk("y")], vec![0]);
        b.add_table("heap", 10.0, vec![mk("h")], vec![]);
        b.build()
    }

    fn rcol(db: &Database, c: &str) -> ColumnId {
        let t = db.table_by_name("r").unwrap();
        t.column_id(t.column_ordinal(c).unwrap())
    }

    #[test]
    fn base_configuration_has_pk_clustered_indexes() {
        let db = test_db();
        let base = Configuration::base(&db);
        assert_eq!(base.index_count(), 2, "heap table gets no index");
        for i in base.indexes() {
            assert!(i.clustered);
        }
    }

    #[test]
    fn one_clustered_index_per_table() {
        let db = test_db();
        let mut c = Configuration::base(&db);
        let t = db.table_by_name("r").unwrap().id;
        let second = Index::clustered(t, [rcol(&db, "b")]);
        assert!(!c.add_index(second));
        // Re-adding the same clustered index is idempotent, not a
        // violation.
        let same = c.clustered_index_on(t).unwrap().clone();
        assert!(!c.add_index(same));
    }

    #[test]
    fn remove_view_cascades_indexes() {
        let db = test_db();
        let mut c = Configuration::new();
        let vid = c.allocate_view_id();
        let def = SpjgExpr {
            tables: [db.table_by_name("r").unwrap().id].into(),
            output_cols: [rcol(&db, "a")].into(),
            ..Default::default()
        };
        let v = MaterializedView::create(vid, def, 1000.0, &db);
        c.add_view(v);
        c.add_index(Index::clustered(vid, [ColumnId::new(vid, 0)]));
        assert_eq!(c.structure_count(), 2);
        assert!(c.remove_view(vid));
        assert_eq!(c.structure_count(), 0);
        assert!(!c.remove_view(vid));
    }

    #[test]
    fn usable_views_require_clustered_index() {
        let db = test_db();
        let mut c = Configuration::new();
        let vid = c.allocate_view_id();
        let def = SpjgExpr {
            tables: [db.table_by_name("r").unwrap().id].into(),
            output_cols: [rcol(&db, "a")].into(),
            ..Default::default()
        };
        c.add_view(MaterializedView::create(vid, def, 1000.0, &db));
        assert_eq!(c.usable_views().count(), 0);
        c.add_index(Index::clustered(vid, [ColumnId::new(vid, 0)]));
        assert_eq!(c.usable_views().count(), 1);
    }

    #[test]
    fn size_grows_with_structures() {
        let db = test_db();
        let base = Configuration::base(&db);
        let mut bigger = base.clone();
        let t = db.table_by_name("r").unwrap().id;
        bigger.add_index(Index::new(t, [rcol(&db, "b")], [rcol(&db, "c")]));
        assert!(bigger.size_bytes(&db) > base.size_bytes(&db));
    }

    #[test]
    fn signatures_distinguish_configurations() {
        let db = test_db();
        let base = Configuration::base(&db);
        let mut other = base.clone();
        let t = db.table_by_name("r").unwrap().id;
        other.add_index(Index::new(t, [rcol(&db, "b")], []));
        assert_ne!(base.signature(), other.signature());
        assert_eq!(base.signature(), Configuration::base(&db).signature());
    }

    #[test]
    fn projected_signatures_ignore_unrelated_tables() {
        let db = test_db();
        let r = db.table_by_name("r").unwrap().id;
        let s = db.table_by_name("s").unwrap().id;
        let r_only: BTreeSet<TableId> = [r].into();

        let base = Configuration::base(&db);
        let mut with_s_index = base.clone();
        with_s_index.add_index(Index::new(s, [ColumnId::new(s, 0)], []));
        // An index on `s` is invisible to queries over `r` alone...
        assert_eq!(
            base.signature_for_tables(&r_only),
            with_s_index.signature_for_tables(&r_only)
        );
        // ...but visible to queries joining both tables.
        let both: BTreeSet<TableId> = [r, s].into();
        assert_ne!(
            base.signature_for_tables(&both),
            with_s_index.signature_for_tables(&both)
        );

        // An index on `r` changes `r`'s projection.
        let mut with_r_index = base.clone();
        with_r_index.add_index(Index::new(r, [rcol(&db, "b")], []));
        assert_ne!(
            base.signature_for_tables(&r_only),
            with_r_index.signature_for_tables(&r_only)
        );

        // A view over `r` (and its index) is part of `r`'s projection.
        let mut with_view = base.clone();
        let vid = with_view.allocate_view_id();
        let def = SpjgExpr {
            tables: [r].into(),
            output_cols: [rcol(&db, "a")].into(),
            ..Default::default()
        };
        with_view.add_view(MaterializedView::create(vid, def, 1000.0, &db));
        with_view.add_index(Index::clustered(vid, [ColumnId::new(vid, 0)]));
        assert_ne!(
            base.signature_for_tables(&r_only),
            with_view.signature_for_tables(&r_only)
        );
        // But invisible to queries over `s` alone.
        let s_only: BTreeSet<TableId> = [s].into();
        assert_eq!(
            base.signature_for_tables(&s_only),
            with_view.signature_for_tables(&s_only)
        );
    }

    #[test]
    fn union_merges_indexes_and_views() {
        let db = test_db();
        let t = db.table_by_name("r").unwrap().id;
        let mut a = Configuration::new();
        a.add_index(Index::new(t, [rcol(&db, "a")], []));
        let mut b = Configuration::new();
        b.add_index(Index::new(t, [rcol(&db, "b")], []));
        let vid = b.allocate_view_id();
        let def = SpjgExpr {
            tables: [t].into(),
            output_cols: [rcol(&db, "a")].into(),
            ..Default::default()
        };
        b.add_view(MaterializedView::create(vid, def, 10.0, &db));
        let u = a.union(&b);
        assert_eq!(u.index_count(), 2);
        assert_eq!(u.view_count(), 1);
    }

    #[test]
    fn union_dedupes_views_by_definition() {
        let db = test_db();
        let t = db.table_by_name("r").unwrap().id;
        let def = SpjgExpr {
            tables: [t].into(),
            output_cols: [rcol(&db, "a")].into(),
            ..Default::default()
        };
        let mut a = Configuration::new();
        let va = a.allocate_view_id();
        a.add_view(MaterializedView::create(va, def.clone(), 10.0, &db));
        a.add_index(Index::clustered(va, [ColumnId::new(va, 0)]));
        let mut b = Configuration::new();
        let vb = b.allocate_view_id();
        b.add_view(MaterializedView::create(vb, def, 10.0, &db));
        b.add_index(Index::clustered(vb, [ColumnId::new(vb, 0)]));
        let u = a.union(&b);
        assert_eq!(u.view_count(), 1);
        assert_eq!(u.index_count(), 1);
    }

    #[test]
    fn physical_schema_resolves_views() {
        let db = test_db();
        let mut c = Configuration::new();
        let vid = c.allocate_view_id();
        let def = SpjgExpr {
            tables: [db.table_by_name("r").unwrap().id].into(),
            output_cols: [rcol(&db, "a"), rcol(&db, "b")].into(),
            ..Default::default()
        };
        c.add_view(MaterializedView::create(vid, def, 123.0, &db));
        let s = PhysicalSchema::new(&db, &c);
        assert_eq!(s.rows(vid), 123.0);
        assert_eq!(s.all_columns(vid).len(), 2);
        assert!(s.column_stats(ColumnId::new(vid, 0)).is_some());
        assert!(s.column_name(ColumnId::new(vid, 0)).contains("r_a"));
        // Base tables resolve too.
        let r = db.table_by_name("r").unwrap().id;
        assert_eq!(s.rows(r), 100_000.0);
    }
}
