//! Cross-crate optimizer invariants, exercised over the generated
//! benchmark corpora.

use pdtune::expr::Binder;
use pdtune::opt::{plan_footprint, Op, Optimizer};
use pdtune::prelude::*;
use pdtune::tuner::derived::{sorted_subset, RelevanceTable};
use pdtune::tuner::instrument::gather_optimal_configuration;
use pdtune::workloads::bench::{bench_database, bench_workload, BenchParams};
use pdtune::workloads::tpch;

/// Adding physical structures must never make a plan more expensive —
/// the optimality assumption the whole paper rests on (§4.1 attributes
/// PTT's rare losses to real optimizers violating exactly this).
#[test]
fn what_if_monotonicity_across_corpus() {
    let db = bench_database(&BenchParams::default());
    let binder = Binder::new(&db);
    let opt = Optimizer::new(&db);
    let base = Configuration::base(&db);

    for seed in 0..6u64 {
        let spec = bench_workload(&db, seed, 10);
        let w = Workload::bind(&db, &spec.statements).unwrap();
        let (full, _) = gather_optimal_configuration(&db, &w, true);
        for stmt in &spec.statements {
            let bound = binder.bind(stmt).unwrap();
            let Some(q) = bound.as_select() else { continue };
            let c_base = opt.optimize(&base, q).cost;
            let c_full = opt.optimize(&full, q).cost;
            assert!(
                c_full <= c_base * 1.0001,
                "seed {seed}: richer configuration must not cost more \
                 ({c_full} > {c_base}) for {stmt}"
            );
        }
    }
}

/// The instrumented pass yields a configuration that is optimal w.r.t.
/// single-structure additions: no candidate index proposed for any
/// request improves any query further by a measurable margin.
#[test]
fn optimal_configuration_is_a_fixed_point() {
    let db = tpch::tpch_database(0.02);
    let spec = tpch::tpch_workload_variant(5, 8);
    let w = Workload::bind(&db, &spec.statements).unwrap();
    let (config, _) = gather_optimal_configuration(&db, &w, true);
    // A second instrumented pass starting from the optimal config must
    // not create any new structure that changes costs.
    let opt = Optimizer::new(&db);
    let before: f64 = w
        .entries
        .iter()
        .filter_map(|e| e.select.as_ref())
        .map(|q| opt.optimize(&config, q).cost)
        .sum();
    let mut config2 = config.clone();
    let mut sink = pdtune::tuner::OptimalSink::new(true);
    for e in &w.entries {
        if let Some(q) = &e.select {
            opt.optimize_with_sink(&mut config2, q, &mut sink);
        }
    }
    let after: f64 = w
        .entries
        .iter()
        .filter_map(|e| e.select.as_ref())
        .map(|q| opt.optimize(&config2, q).cost)
        .sum();
    assert!(
        after >= before * 0.98,
        "second pass should find (almost) nothing new: {after} vs {before}"
    );
}

/// Plans report the index usages they are built from: every index
/// mentioned in the tree appears in `index_usages` and vice versa.
#[test]
fn plan_usages_match_plan_operators() {
    let db = tpch::tpch_database(0.02);
    let spec = tpch::tpch_workload();
    let binder = Binder::new(&db);
    let opt = Optimizer::new(&db);
    let w = Workload::bind(&db, &spec.statements).unwrap();
    let (config, _) = gather_optimal_configuration(&db, &w, true);

    for stmt in &spec.statements {
        let bound = binder.bind(stmt).unwrap();
        let Some(q) = bound.as_select() else { continue };
        let plan = opt.optimize(&config, q);
        let mut tree_indexes = Vec::new();
        plan.root.walk(&mut |n| match &n.op {
            Op::IndexScan { index } | Op::IndexSeek { index, .. } => {
                tree_indexes.push(index.clone())
            }
            _ => {}
        });
        for index in &tree_indexes {
            assert!(
                plan.index_usages.iter().any(|u| &u.index == index),
                "operator index missing from usages: {index}"
            );
        }
        for usage in &plan.index_usages {
            assert!(
                tree_indexes.contains(&usage.index),
                "usage not present in tree: {}",
                usage.index
            );
        }
    }
}

/// Every TPC-H plan is finite, positive, and produces row estimates.
#[test]
fn tpch_plans_are_sane_under_all_configurations() {
    let db = tpch::tpch_database(0.02);
    let spec = tpch::tpch_workload();
    let binder = Binder::new(&db);
    let opt = Optimizer::new(&db);
    let w = Workload::bind(&db, &spec.statements).unwrap();
    let (full, _) = gather_optimal_configuration(&db, &w, true);
    for config in [Configuration::base(&db), full] {
        for stmt in &spec.statements {
            let bound = binder.bind(stmt).unwrap();
            let Some(q) = bound.as_select() else { continue };
            let plan = opt.optimize(&config, q);
            assert!(plan.cost.is_finite() && plan.cost > 0.0, "{stmt}");
            assert!(plan.rows.is_finite() && plan.rows >= 0.0);
        }
    }
}

/// The soundness obligation derived what-if costing rests on: every
/// structure a plan uses must be in the query's relevant set, for every
/// configuration the search could visit. Exercised over seeded schemas
/// with single- and two-column indexes (clustered and not, covering
/// suffixes and not) plus the instrumentation-derived optimal
/// configuration.
#[test]
fn relevant_sets_cover_every_plan_footprint() {
    for seed in 0..24u64 {
        let p = BenchParams {
            name: format!("relevance-{seed}"),
            tables: 2 + (seed % 2) as usize,
            max_columns: 4 + (seed % 3) as usize,
            max_rows: 3e4,
            seed,
        };
        let db = bench_database(&p);
        let spec = bench_workload(&db, seed ^ 0xF00, 4);
        let w = Workload::bind(&db, &spec.statements).unwrap();
        let rt = RelevanceTable::build(&db, &w);

        let mut configs = vec![Configuration::base(&db)];
        let (optimal, _) = gather_optimal_configuration(&db, &w, seed % 2 == 0);
        configs.push(optimal);
        // Single- and two-column indexes over every table, layered onto
        // the base configuration a few at a time.
        let mut layered = Configuration::base(&db);
        for t in db.tables() {
            for c in 0..t.columns.len().min(4) as u16 {
                let mut one = Configuration::base(&db);
                one.add_index(Index::new(t.id, [t.column_id(c)], []));
                configs.push(one);
                layered.add_index(Index::new(
                    t.id,
                    [t.column_id(c)],
                    [t.column_id((c + 1) % t.columns.len() as u16)],
                ));
            }
        }
        configs.push(layered);

        let opt = Optimizer::new(&db);
        for config in &configs {
            for (i, entry) in w.entries.iter().enumerate() {
                let Some(q) = &entry.select else { continue };
                let plan = opt.optimize(config, q);
                let footprint = plan_footprint(&plan.index_usages, config);
                let proj = rt.projection(i, config).expect("select entries have rows");
                assert!(
                    sorted_subset(&footprint, &proj.relevant),
                    "seed {seed} query {i}: plan uses a structure outside the \
                     relevant set\nfootprint: {footprint:x?}\nrelevant: {:x?}",
                    proj.relevant,
                );
            }
        }
    }
}
