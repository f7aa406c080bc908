//! E8 — the headline experiment: adaptive (submodular-width) evaluation vs
//! the best single tree decomposition vs binary joins on the double-star
//! instance where fhtw-based plans need Ω(N²) work.  A second group times
//! the static plan on *each* decomposition of the 4-cycle over skewed and
//! uniform random graphs, where the bags' generic-join variable order
//! decides whether a two-atom bag costs its join size or a Cartesian
//! product of candidates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use panda_core::{BinaryJoinPlan, PandaEvaluator, StaticTdPlan};
use panda_query::TreeDecomposition;
use panda_workloads::{
    double_star_db, erdos_renyi_db, four_cycle_projected, s_square_statistics, zipf_graph_db,
};
use std::time::Duration;

fn bench_scaling(c: &mut Criterion) {
    let query = four_cycle_projected();
    let stats = s_square_statistics(1 << 20);
    let adaptive = PandaEvaluator::plan(&query, &stats).unwrap();
    let static_plan = StaticTdPlan::best_for(&query, &stats).unwrap();
    let binary = BinaryJoinPlan::new();
    let mut group = c.benchmark_group("four_cycle_double_star");
    for half in [256u64, 1024] {
        let db = double_star_db(half);
        let n = half * 2;
        group.bench_with_input(BenchmarkId::new("adaptive", n), &db, |b, db| {
            b.iter(|| adaptive.evaluate(&query, db).len());
        });
        group.bench_with_input(BenchmarkId::new("static_td", n), &db, |b, db| {
            b.iter(|| static_plan.evaluate(&query, db).len());
        });
        group.bench_with_input(BenchmarkId::new("binary_join", n), &db, |b, db| {
            b.iter(|| binary.evaluate(&query, db).len());
        });
    }
    group.finish();
}

fn bench_static_per_td(c: &mut Criterion) {
    let query = four_cycle_projected();
    let names = ["R", "S", "T", "U"];
    let graphs = [
        ("zipf", zipf_graph_db(&names, 1000, 1000, 1.1, 3)),
        ("erdos_renyi", erdos_renyi_db(&names, 1000, 1000, 7)),
    ];
    let mut group = c.benchmark_group("four_cycle_static_per_td");
    for (graph, db) in &graphs {
        for (i, td) in TreeDecomposition::enumerate(&query).into_iter().enumerate() {
            let plan = StaticTdPlan::new(td);
            group.bench_with_input(BenchmarkId::new(graph, format!("td{i}")), db, |b, db| {
                b.iter(|| plan.evaluate(&query, db).len());
            });
        }
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1500))
}

criterion_group! { name = benches; config = config(); targets = bench_scaling, bench_static_per_td }
criterion_main!(benches);
