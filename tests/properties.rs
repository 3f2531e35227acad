//! Randomized property tests over the core data structures and the
//! paper's key invariants. Each property draws a few hundred cases
//! from a fixed-seed RNG, so failures are reproducible and the suite
//! needs no external property-testing framework.

use pdtune::catalog::{ColumnId, ColumnStats, ColumnType, Database, TableId};
use pdtune::expr::{Bound, Interval};
use pdtune::physical::{Configuration, Index};
use pdtune::sql::parse_statement;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 256;

fn test_db() -> Database {
    let mut b = Database::builder("prop");
    let mk = |name: String| pdtune::catalog::Column {
        name,
        ty: ColumnType::Int,
        stats: ColumnStats::uniform(1000.0, 0.0, 1000.0, 4.0),
    };
    b.add_table(
        "t",
        1_000_000.0,
        (0..8).map(|i| mk(format!("c{i}"))).collect(),
        vec![0],
    );
    b.build()
}

fn arb_bound(rng: &mut StdRng) -> Bound {
    match rng.gen_range(0..3) {
        0 => Bound::Unbounded,
        1 => Bound::Inclusive(rng.gen_range(-100.0..100.0)),
        _ => Bound::Exclusive(rng.gen_range(-100.0..100.0)),
    }
}

fn arb_interval(rng: &mut StdRng) -> Interval {
    Interval {
        lo: arb_bound(rng),
        hi: arb_bound(rng),
    }
}

fn arb_index(rng: &mut StdRng) -> Index {
    let t = TableId(0);
    let key_len = rng.gen_range(1..5);
    let suffix_len = rng.gen_range(0..4);
    let key: Vec<u16> = (0..key_len).map(|_| rng.gen_range(0u16..8)).collect();
    let suffix: Vec<u16> = (0..suffix_len).map(|_| rng.gen_range(0u16..8)).collect();
    Index::new(
        t,
        key.into_iter().map(|o| ColumnId::new(t, o)),
        suffix.into_iter().map(|o| ColumnId::new(t, o)),
    )
}

/// Interval intersection is sound: a point in both inputs is in the
/// intersection, and the hull contains both inputs.
#[test]
fn interval_algebra() {
    let mut rng = StdRng::seed_from_u64(0x1A1);
    for _ in 0..CASES {
        let a = arb_interval(&mut rng);
        let b = arb_interval(&mut rng);
        let inter = a.intersect(&b);
        let hull = a.hull(&b);
        assert!(hull.contains(&a), "{a:?} {b:?}");
        assert!(hull.contains(&b), "{a:?} {b:?}");
        assert!(a.contains(&inter) || inter.is_empty(), "{a:?} {b:?}");
        assert!(b.contains(&inter) || inter.is_empty(), "{a:?} {b:?}");
        // Intersection and hull are commutative.
        assert_eq!(inter, b.intersect(&a));
        assert_eq!(hull, b.hull(&a));
    }
}

/// §3.1.1 merge: the merged index answers every request either input
/// answered (covers both column sets) and can be sought the way I1
/// was (shares I1's key prefix or extends it).
#[test]
fn index_merge_covers_both() {
    let mut rng = StdRng::seed_from_u64(0x1A2);
    for _ in 0..CASES {
        let i1 = arb_index(&mut rng);
        let i2 = arb_index(&mut rng);
        let merged = i1.merge(&i2).expect("same table");
        assert!(merged.covers(&i1.all_columns()), "{i1:?} {i2:?}");
        assert!(merged.covers(&i2.all_columns()), "{i1:?} {i2:?}");
        // Key starts with one of the input keys.
        let starts_with_k1 =
            merged.shared_key_prefix(&i1.key) == i1.key.len().min(merged.key.len());
        let starts_with_k2 =
            merged.shared_key_prefix(&i2.key) == i2.key.len().min(merged.key.len());
        assert!(starts_with_k1 || starts_with_k2, "{i1:?} {i2:?}");
    }
}

/// §3.1.1 split: the common + residual indexes partition the original
/// columns (nothing outside the inputs, common covered by both).
#[test]
fn index_split_is_sound() {
    let mut rng = StdRng::seed_from_u64(0x1A3);
    for _ in 0..CASES {
        let i1 = arb_index(&mut rng);
        let i2 = arb_index(&mut rng);
        if let Some(split) = i1.split(&i2) {
            let c1 = i1.all_columns();
            let c2 = i2.all_columns();
            for col in split.common.all_columns() {
                assert!(c1.contains(&col) && c2.contains(&col), "{i1:?} {i2:?}");
            }
            if let Some(r1) = &split.residual1 {
                for col in r1.all_columns() {
                    assert!(c1.contains(&col), "{i1:?} {i2:?}");
                    assert!(!split.common.all_columns().contains(&col), "{i1:?} {i2:?}");
                }
                // IC ∪ IR1 restores I1's columns.
                let mut union = split.common.all_columns();
                union.extend(r1.all_columns());
                assert!(union.is_superset(&c1), "{i1:?} {i2:?}");
            }
        }
    }
}

/// Index prefix yields a strictly narrower structure whose key is a
/// prefix of the original key.
#[test]
fn index_prefix_shrinks() {
    let mut rng = StdRng::seed_from_u64(0x1A4);
    for _ in 0..CASES {
        let i = arb_index(&mut rng);
        let len = rng.gen_range(1usize..5);
        if let Some(p) = i.prefix(len) {
            assert!(p.key.len() <= i.key.len(), "{i:?} {len}");
            assert_eq!(&i.key[..p.key.len()], &p.key[..]);
            assert!(p.suffix.is_empty());
            assert!(p.width() < i.width() || p.key.len() < i.key.len(), "{i:?}");
        }
    }
}

/// Configuration size decreases under removal, for arbitrary index
/// sets.
#[test]
fn removal_shrinks_configurations() {
    let mut rng = StdRng::seed_from_u64(0x1A5);
    let db = test_db();
    for _ in 0..64 {
        let n = rng.gen_range(1..6);
        let indexes: Vec<Index> = (0..n).map(|_| arb_index(&mut rng)).collect();
        let mut config = Configuration::base(&db);
        for i in &indexes {
            config.add_index(i.clone());
        }
        let full = config.size_bytes(&db);
        let victim = indexes[0].clone();
        if config.remove_index(&victim) {
            assert!(config.size_bytes(&db) < full, "{indexes:?}");
        }
    }
}

/// Histogram selectivities are probabilities and respect monotonicity
/// of range width.
#[test]
fn selectivity_bounds() {
    let mut rng = StdRng::seed_from_u64(0x1A6);
    let stats = ColumnStats::uniform(1000.0, 0.0, 1000.0, 4.0);
    for _ in 0..CASES {
        let lo = rng.gen_range(0.0f64..900.0);
        let width = rng.gen_range(0.0f64..100.0);
        let narrow = stats.range_selectivity(Some((lo, true)), Some((lo + width, true)));
        let wide = stats.range_selectivity(Some((lo, true)), Some((lo + width * 2.0, true)));
        assert!((0.0..=1.0).contains(&narrow), "{lo} {width}");
        assert!(wide >= narrow - 1e-12, "{lo} {width}");
    }
}

/// Parser round-trip on generated predicates.
#[test]
fn parser_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x1A7);
    for _ in 0..CASES {
        let a = rng.gen_range(0u16..8);
        let v = rng.gen_range(-1000i64..1000);
        let k = rng.gen_range(0u16..8);
        let sql = format!(
            "SELECT t.c{a} FROM t WHERE t.c{a} < {v} AND t.c{k} = {} ORDER BY t.c{a}",
            v / 2
        );
        let s1 = parse_statement(&sql).unwrap();
        let s2 = parse_statement(&s1.to_string()).unwrap();
        assert_eq!(s1, s2, "{sql}");
    }
}

/// The structure interner's checkpoint dump is sorted by index and
/// rebuilds to the same signatures: interning in any order, dumping,
/// and restoring into a fresh interner reproduces the dump byte for
/// byte, and restoring is idempotent.
#[test]
fn interner_dump_rebuilds_in_order() {
    use pdtune::tuner::Interner;
    let mut rng = StdRng::seed_from_u64(0x1A7E);
    for _ in 0..CASES / 8 {
        let it = Interner::new();
        let indexes: Vec<Index> = (0..16).map(|_| arb_index(&mut rng)).collect();
        let sigs: Vec<u64> = indexes.iter().map(|i| it.index_sig(i)).collect();
        let dump = it.snapshot();
        assert!(dump.windows(2).all(|w| w[0].0 < w[1].0), "dump is sorted");

        let restored = Interner::new();
        restored.restore(dump.clone());
        restored.restore(dump.clone());
        assert_eq!(restored.snapshot(), dump);
        for (index, sig) in indexes.iter().zip(&sigs) {
            assert_eq!(restored.index_sig(index), *sig);
        }
        assert_eq!(restored.len(), dump.len(), "known indexes add nothing");
    }
}
