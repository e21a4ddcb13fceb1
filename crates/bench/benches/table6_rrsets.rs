//! Table 6 bench: RR-set accounting — PRIMA (inside bundleGRD) vs the
//! two IMM variants under the real-Param budget distributions.

use criterion::{criterion_group, criterion_main, Criterion};
use uic_datasets::{budget_splits, named_network, NamedNetwork};
use uic_im::{imm, prima, DiffusionModel};

fn bench(c: &mut Criterion) {
    let g = named_network(NamedNetwork::Twitter, 0.004, 7);
    let n = g.num_nodes();
    // Sorted non-increasing, as PRIMA takes them.
    let budgets: Vec<u32> = budget_splits::uniform(50, 5)
        .into_iter()
        .map(|b| b.min(n))
        .collect();
    let max_b = *budgets.iter().max().unwrap();
    let mut group = c.benchmark_group("table6_rrsets");
    group.sample_size(10);
    group.bench_function("bundleGRD(PRIMA)", |b| {
        b.iter(|| prima(&g, &budgets, 0.5, 1.0, DiffusionModel::IC, 42))
    });
    group.bench_function("IMM_MAX", |b| {
        b.iter(|| imm(&g, max_b, 0.5, 1.0, DiffusionModel::IC, 42))
    });
    group.bench_function("MAX_IMM(all budgets)", |b| {
        b.iter(|| {
            budgets
                .iter()
                .map(|&k| imm(&g, k, 0.5, 1.0, DiffusionModel::IC, 42).rr_sets_final)
                .max()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
