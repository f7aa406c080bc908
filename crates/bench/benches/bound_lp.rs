//! E2 — benchmarks the polymatroid-bound LP (Theorem 4.1) for the paper's
//! full 4-cycle query under the statistics S_full of Eq. (16), plus the
//! 5-variable configuration (the full 5-cycle bound over Γ₅), and the
//! exact `Rat` operations every LP pivot is made of.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use panda_bench::{lp_bench_config, lp_bench_config_5var};
use panda_entropy::polymatroid_bound;
use panda_rational::Rat;
use panda_workloads::{
    five_cycle_projected, four_cycle_full, s_full_statistics, s_pentagon_statistics,
};

fn bench_bound_lp(c: &mut Criterion) {
    let query = four_cycle_full();
    let mut group = c.benchmark_group("polymatroid_bound_qfull");
    for c_exp in [0u32, 10, 20] {
        let stats = s_full_statistics(1 << 20, 1 << c_exp);
        group.bench_with_input(BenchmarkId::new("C=2^", c_exp), &stats, |b, stats| {
            b.iter(|| {
                polymatroid_bound(query.all_vars(), query.all_vars(), stats).unwrap().log_bound
            });
        });
    }
    group.finish();
}

/// The 5-variable polymatroid bound `max h(ABCDE)` over Γ₅ under identical
/// cardinalities — a single large LP (31 entropy variables, ~100 rows).
fn bench_bound_lp_five(c: &mut Criterion) {
    let query = five_cycle_projected();
    let stats = s_pentagon_statistics(1 << 20);
    let mut group = c.benchmark_group("polymatroid_bound_5cycle");
    group.bench_function("full_target", |b| {
        b.iter(|| polymatroid_bound(query.all_vars(), query.all_vars(), &stats).unwrap().log_bound)
    });
    group.finish();
}

/// `+`, `*` and `cmp` on the two operand shapes the LPs are made of:
/// `exact_log` fallbacks (numerators over 10⁶) and integers.  One
/// iteration applies the operation to the 255 adjacent pairs of 256
/// operands.
fn bench_rat_ops(c: &mut Criterion) {
    let den_1e6: Vec<Rat> =
        (1..=256i128).map(|i| Rat::new(i * 7_919_113 % 30_000_000, 1_000_000)).collect();
    let integer: Vec<Rat> = (1..=256i128).map(|i| Rat::from_int(i * 7_919 % 1_000 - 500)).collect();
    let mut group = c.benchmark_group("rat_ops");
    for (shape, values) in [("den_1e6", &den_1e6), ("integer", &integer)] {
        group.bench_with_input(BenchmarkId::new("add", shape), values, |b, values| {
            b.iter(|| {
                for pair in values.windows(2) {
                    black_box(black_box(pair[0]) + black_box(pair[1]));
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("mul", shape), values, |b, values| {
            b.iter(|| {
                for pair in values.windows(2) {
                    black_box(black_box(pair[0]) * black_box(pair[1]));
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("cmp", shape), values, |b, values| {
            b.iter(|| {
                for pair in values.windows(2) {
                    black_box(black_box(pair[0]).cmp(&black_box(pair[1])));
                }
            });
        });
    }
    group.finish();
}

fn config() -> Criterion {
    lp_bench_config()
}

fn config5() -> Criterion {
    lp_bench_config_5var()
}

criterion_group! { name = benches; config = config(); targets = bench_bound_lp, bench_rat_ops }
criterion_group! { name = benches5; config = config5(); targets = bench_bound_lp_five }
criterion_main!(benches, benches5);
