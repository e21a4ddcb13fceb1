//! RIS pipeline bench: generate θ RR sets and greedily select k seeds —
//! the §4.2.3 hot path shared by IMM/OPIM/PRIMA and the Com-IC
//! baselines. Two shapes per graph size:
//!
//! * `oneshot`  — one `extend_to(θ)` followed by one `node_selection`
//!   (the TIM-sized Com-IC baselines' shape: the sample size is known
//!   up front).
//! * `doubling` — three extend/select rounds with doubling θ (the
//!   IMM/OPIM shape the persistent inverted index exists for).
//!
//! Numbers are recorded in `BENCH_rrset.json` at the repo root.

use criterion::{criterion_group, criterion_main, Criterion};
use uic_datasets::{generators::preferential_attachment, PaOptions};
use uic_graph::Graph;
use uic_im::{node_selection, DiffusionModel, RrCollection};

fn pa_graph(n: u32) -> Graph {
    preferential_attachment(
        PaOptions {
            n,
            edges_per_node: 8,
            ..Default::default()
        },
        7,
    )
}

fn bench(c: &mut Criterion) {
    let k = 50u32;
    for &(label, n, theta, samples) in &[
        ("10k", 10_000u32, 100_000usize, 10usize),
        ("100k", 100_000, 200_000, 5),
    ] {
        let g = pa_graph(n);
        let mut group = c.benchmark_group(format!("rrset_pipeline/{label}"));
        group.sample_size(samples);
        group.bench_function("oneshot", |b| {
            b.iter(|| {
                let mut coll = RrCollection::new(&g, DiffusionModel::IC, 42);
                coll.extend_to(&g, theta);
                let sel = node_selection(&mut coll, k);
                sel.covered.last().copied()
            })
        });
        group.bench_function("doubling", |b| {
            b.iter(|| {
                let mut coll = RrCollection::new(&g, DiffusionModel::IC, 42);
                let mut acc = 0u64;
                for target in [theta / 4, theta / 2, theta] {
                    coll.extend_to(&g, target);
                    let sel = node_selection(&mut coll, k);
                    acc += sel.covered.last().copied().unwrap_or(0);
                }
                acc
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
