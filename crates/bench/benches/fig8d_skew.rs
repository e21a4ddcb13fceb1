//! Fig. 8(d) bench: bundleGRD under the three budget distributions of
//! the real Param — large skew forces the biggest PRIMA budget and is
//! the slowest, matching the paper.

use criterion::{criterion_group, criterion_main, Criterion};
use uic_bench::bench_opts;
use uic_datasets::{budget_splits, named_network, NamedNetwork};
use uic_im::{prima, DiffusionModel};

fn bench(c: &mut Criterion) {
    let opts = bench_opts();
    let g = named_network(NamedNetwork::Twitter, 0.004, opts.seed);
    let n = g.num_nodes();
    let mut group = c.benchmark_group("fig8d_skew");
    group.sample_size(10);
    let distros: [(&str, Vec<u32>); 3] = [
        ("uniform", budget_splits::uniform(100, 5)),
        ("large_skew", budget_splits::large_skew(100, 5)),
        ("moderate_skew", budget_splits::real_params(100)),
    ];
    // Every split comes sorted non-increasing, as PRIMA (bundleGRD's one
    // ordering) takes them.
    for (name, budgets) in distros {
        let budgets: Vec<u32> = budgets.into_iter().map(|b| b.min(n)).collect();
        group.bench_function(name, |b| {
            b.iter(|| prima(&g, &budgets, opts.eps, opts.ell, DiffusionModel::IC, 42))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
