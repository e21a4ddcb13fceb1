//! Fig. 9(d) bench: bundleGRD across BFS-prefix graph sizes with both
//! edge-weight schemes — the linear-scaling story.

use criterion::{criterion_group, criterion_main, Criterion};
use uic_bench::bench_opts;
use uic_datasets::{named_network, NamedNetwork};
use uic_graph::{bfs_prefix_subgraph, Weighting};
use uic_im::{prima, DiffusionModel};

fn bench(c: &mut Criterion) {
    let opts = bench_opts();
    let full = named_network(NamedNetwork::Orkut, 0.004, opts.seed);
    let mut group = c.benchmark_group("fig9d_scaling");
    group.sample_size(10);
    for &pct in &[25u32, 50, 100] {
        let (sub, _) = bfs_prefix_subgraph(&full, 0, pct as f64 / 100.0);
        let n = sub.num_nodes();
        let budgets = vec![10u32.min(n / 4).max(1); 5];
        let wc = sub.reweighted_as(Weighting::WeightedCascade, 0);
        group.bench_function(format!("wc_1_din/{pct}pct"), |b| {
            b.iter(|| prima(&wc, &budgets, opts.eps, opts.ell, DiffusionModel::IC, 42))
        });
        let cp = sub.reweighted_as(Weighting::Constant(0.01), 0);
        group.bench_function(format!("const_0.01/{pct}pct"), |b| {
            b.iter(|| prima(&cp, &budgets, opts.eps, opts.ell, DiffusionModel::IC, 42))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
