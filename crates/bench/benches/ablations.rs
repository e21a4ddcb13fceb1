//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! * **PRIMA vs per-budget IMM** — the cost of the prefix-preserving
//!   oracle vs naive re-runs.
//! * **Adoption-oracle memoization** — memoized vs fresh subset
//!   enumeration inside the UIC simulator.
//! * **UIC simulator throughput** — cascades/second with scratch reuse
//!   (`UicSimulator`) vs per-run allocation.
//! * **Welfare estimator** — MC sample-count scaling.
//! * **IM algorithm zoo** — IMM / TIM⁺ / SSA / OPIM-C / SKIM / heuristics
//!   head-to-head at one budget.
//! * **Prefix-preserving orderings** — PRIMA vs SKIM, one multi-budget
//!   ordering each.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use uic_core::solver::{DegreeTop, PageRankTop};
use uic_core::{Allocator, SolveCtx, WelMax};
use uic_datasets::{named_network, NamedNetwork};
use uic_diffusion::{simulate_uic, Allocation, UicSimulator, WelfareEstimator};
use uic_im::{imm, opim_c, prima, skim, ssa, tim_plus, DiffusionModel, SkimOptions};
use uic_items::{
    AdditiveValuation, AdoptionOracle, ItemSet, NoiseModel, Price, TableValuation, UtilityModel,
};
use uic_util::UicRng;

fn model() -> UtilityModel {
    UtilityModel::new(
        Arc::new(TableValuation::from_table(2, vec![0.0, 3.0, 3.0, 8.0])),
        Price::additive(vec![3.0, 4.0]),
        NoiseModel::none(2),
    )
}

fn bench_prima_vs_imm(c: &mut Criterion) {
    let g = named_network(NamedNetwork::Flixster, 0.05, 7);
    let budgets = [20u32, 10, 5];
    let mut group = c.benchmark_group("ablation_prima_vs_imm");
    group.sample_size(10);
    group.bench_function("prima_once", |b| {
        b.iter(|| prima(&g, &budgets, 0.5, 1.0, DiffusionModel::IC, 42))
    });
    group.bench_function("imm_per_budget", |b| {
        b.iter(|| {
            budgets
                .iter()
                .map(|&k| imm(&g, k, 0.5, 1.0, DiffusionModel::IC, 42).seeds.len())
                .sum::<usize>()
        })
    });
    group.finish();
}

fn bench_adoption_memoization(c: &mut Criterion) {
    let m = model();
    let table = m.deterministic_table();
    let full = ItemSet::full(2);
    let mut group = c.benchmark_group("ablation_adoption_oracle");
    group.bench_function("memoized_10k_queries", |b| {
        b.iter(|| {
            let mut oracle = AdoptionOracle::new(&table);
            let mut acc = 0u32;
            for _ in 0..10_000 {
                acc ^= oracle.adopt(full, ItemSet::EMPTY).mask();
            }
            acc
        })
    });
    group.bench_function("fresh_oracle_per_query_1k", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for _ in 0..1_000 {
                let mut oracle = AdoptionOracle::new(&table);
                acc ^= oracle.adopt(full, ItemSet::EMPTY).mask();
            }
            acc
        })
    });
    group.finish();
}

fn bench_uic_simulator(c: &mut Criterion) {
    let g = named_network(NamedNetwork::Flixster, 0.05, 7);
    let m = model();
    let table = m.deterministic_table();
    let alloc = Allocation::from_item_seeds(&[vec![0, 1, 2], vec![0, 1, 2]]);
    let mut group = c.benchmark_group("ablation_uic_simulator");
    group.bench_function("reused_scratch_100_cascades", |b| {
        b.iter(|| {
            let mut sim = UicSimulator::new(&g);
            let mut total = 0usize;
            for s in 0..100u64 {
                let mut rng = UicRng::new(s);
                total += sim.run(&g, &alloc, &table, &mut rng).total_adoptions();
            }
            total
        })
    });
    group.bench_function("fresh_scratch_100_cascades", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for s in 0..100u64 {
                let mut rng = UicRng::new(s);
                total += simulate_uic(&g, &alloc, &table, &mut rng).total_adoptions();
            }
            total
        })
    });
    group.finish();
}

fn bench_welfare_estimator(c: &mut Criterion) {
    let g = named_network(NamedNetwork::Flixster, 0.05, 7);
    let m = model();
    let alloc = Allocation::from_item_seeds(&[vec![0, 1, 2, 3, 4], vec![0, 1, 2, 3, 4]]);
    let mut group = c.benchmark_group("ablation_welfare_estimator");
    group.sample_size(10);
    for &sims in &[100u32, 1_000] {
        group.bench_function(format!("mc_{sims}_sims"), |b| {
            b.iter(|| WelfareEstimator::new(&g, &m, sims, 3).estimate(&alloc))
        });
    }
    group.finish();
}

fn bench_im_zoo(c: &mut Criterion) {
    let g = named_network(NamedNetwork::Flixster, 0.05, 7);
    let k = 15u32;
    let mut group = c.benchmark_group("ablation_im_zoo");
    group.sample_size(10);
    group.bench_function("imm", |b| {
        b.iter(|| imm(&g, k, 0.5, 1.0, DiffusionModel::IC, 42).seeds.len())
    });
    group.bench_function("tim_plus", |b| {
        b.iter(|| {
            tim_plus(&g, k, 0.5, 1.0, DiffusionModel::IC, 42)
                .seeds
                .len()
        })
    });
    group.bench_function("ssa", |b| {
        b.iter(|| ssa(&g, k, 0.5, 1.0, DiffusionModel::IC, 42).seeds.len())
    });
    group.bench_function("opim_c", |b| {
        b.iter(|| opim_c(&g, k, 0.5, 1.0, DiffusionModel::IC, 42).seeds.len())
    });
    group.bench_function("skim", |b| {
        b.iter(|| skim(&g, k, &SkimOptions::default(), 42).seeds.len())
    });
    // The heuristics run through the registry on a one-item instance.
    let inst = WelMax::on(&g)
        .model(UtilityModel::new(
            Arc::new(AdditiveValuation::new(vec![1.0])),
            Price::additive(vec![0.0]),
            NoiseModel::none(1),
        ))
        .budgets([k])
        .build()
        .expect("k within n");
    let ctx = SolveCtx::new(42);
    group.bench_function("degree_top", |b| {
        b.iter(|| DegreeTop.run(&inst, &ctx).allocation.num_pairs())
    });
    let pagerank_top = PageRankTop {
        damping: 0.85,
        iterations: 50,
    };
    group.bench_function("pagerank_top", |b| {
        b.iter(|| pagerank_top.run(&inst, &ctx).allocation.num_pairs())
    });
    group.finish();
}

fn bench_prefix_orderings(c: &mut Criterion) {
    let g = named_network(NamedNetwork::Flixster, 0.05, 7);
    let budgets = [20u32, 10, 5];
    let mut group = c.benchmark_group("ablation_prefix_orderings");
    group.sample_size(10);
    group.bench_function("prima_multi_budget", |b| {
        b.iter(|| {
            prima(&g, &budgets, 0.5, 1.0, DiffusionModel::IC, 42)
                .order
                .len()
        })
    });
    group.bench_function("skim_ordering", |b| {
        b.iter(|| {
            skim(&g, budgets[0], &SkimOptions::default(), 42)
                .seeds
                .len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_prima_vs_imm,
    bench_adoption_memoization,
    bench_uic_simulator,
    bench_welfare_estimator,
    bench_im_zoo,
    bench_prefix_orderings
);
criterion_main!(benches);
