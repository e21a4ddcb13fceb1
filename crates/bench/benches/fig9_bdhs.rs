//! Fig. 9(a–c) bench: the BDHS externality benchmarks vs a propagated
//! bundleGRD welfare evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use uic_baselines::{bdhs_concave_welfare, bdhs_step_welfare_exact};
use uic_bench::bench_opts;
use uic_core::solver::BundleGrd;
use uic_core::{Allocator, SolveCtx, WelMax};
use uic_datasets::{named_network, real_param_model, NamedNetwork};
use uic_diffusion::WelfareEstimator;
use uic_graph::Weighting;
use uic_im::DiffusionModel;

fn bench(c: &mut Criterion) {
    let opts = bench_opts();
    let g = named_network(NamedNetwork::Orkut, 0.002, opts.seed);
    let model = real_param_model();
    let mut group = c.benchmark_group("fig9_bdhs");
    group.sample_size(10);
    group.bench_function("bdhs_step_exact", |b| {
        b.iter(|| bdhs_step_welfare_exact(&g, &model))
    });
    let g_uniform = g.reweighted_as(Weighting::Constant(0.01), 0);
    group.bench_function("bdhs_concave", |b| {
        b.iter(|| bdhs_concave_welfare(&g_uniform, &model, 0.01))
    });
    let n = g.num_nodes();
    let inst = WelMax::on(&g)
        .model(model.clone())
        .budgets(vec![(n / 10).max(1); 5])
        .build()
        .expect("uniform budgets within n");
    let solver = BundleGrd {
        eps: opts.eps,
        ell: opts.ell,
        model: DiffusionModel::IC,
    };
    group.bench_function("bundlegrd_10pct+score", |b| {
        b.iter(|| {
            let r = solver.run(&inst, &SolveCtx::new(42));
            WelfareEstimator::new(&g, &model, opts.sims, opts.seed).estimate(&r.allocation)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
