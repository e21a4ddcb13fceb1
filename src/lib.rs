//! # uic — Utility-driven Influence Cascades
//!
//! A production-quality Rust reproduction of *"Maximizing Welfare in
//! Social Networks under a Utility Driven Influence Diffusion Model"*
//! (Banerjee, Chen & Lakshmanan, SIGMOD 2019).
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! | module | contents |
//! |---|---|
//! | [`graph`] | CSR influence graphs with compressed weight storage, traversal, SCC, stats, binary snapshots, I/O |
//! | [`items`] | itemsets, prices, supermodular valuations, noise, utility, adoption oracle, block accounting, GAP conversion |
//! | [`diffusion`] | IC / LT / UIC / Com-IC simulation, possible worlds, welfare estimation, [`SolveReport`](diffusion::SolveReport) |
//! | [`im`] | RR sets, NodeSelection, IMM, TIM⁺, SSA, OPIM-C, SKIM, **PRIMA**, CELF greedy |
//! | [`core`] | WelMax, **bundleGRD**, the [`Allocator`](core::Allocator) registry (every solver's entry point), block-accounting bounds, brute-force solver |
//! | [`baselines`] | engines of bundle-disj, RR-SIM+, RR-CIM, BDHS and pair-greedy; PageRank |
//! | [`datasets`] | Table-2 network stand-ins, Table-3/4/5 configurations, config text format, auction learning |
//! | [`experiments`] | regenerators for every table and figure |
//! | [`util`] | hashing, bitsets, RNG, special functions, stats, tables |
//!
//! ## Quickstart
//!
//! Assemble a [`WelMaxInstance`](core::WelMaxInstance) with the
//! [`WelMax`](core::WelMax) builder, pick any solver from the registry by
//! name, and read the unified [`SolveReport`](diffusion::SolveReport):
//!
//! ```
//! use uic::prelude::*;
//! use std::sync::Arc;
//!
//! // A small social network with weighted-cascade probabilities.
//! let g = uic::datasets::generators::preferential_attachment(
//!     uic::datasets::PaOptions { n: 300, edges_per_node: 4, ..Default::default() },
//!     7,
//! );
//!
//! // Two complementary items: each unprofitable alone, great together.
//! let model = UtilityModel::new(
//!     Arc::new(TableValuation::from_table(2, vec![0.0, 3.0, 4.0, 9.0])),
//!     Price::additive(vec![3.5, 4.5]),
//!     NoiseModel::iid_gaussian_var(2, 1.0),
//! );
//! let inst = WelMax::on(&g).model(model).budgets([10u32, 10]).build()?;
//!
//! // Any of the ten registered algorithms, by name. bundleGRD never
//! // reads the utilities — only the budgets (the power of bundling).
//! let solver = <dyn Allocator>::by_name("bundle-grd").unwrap();
//! let report = solver.solve(&inst, &SolveCtx::new(42).with_sims(500));
//!
//! assert!(report.allocation.respects_budgets(inst.budgets()));
//! println!("{}", report.summary()); // welfare mean ± CI, seeds, time
//! assert!(report.welfare_mean() >= 0.0);
//!
//! // Swapping algorithms is a string, not a new code path:
//! let disj = <dyn Allocator>::by_name("item-disj").unwrap();
//! let report_disj = disj.solve(&inst, &SolveCtx::new(42).with_sims(500));
//! assert!(report_disj.welfare_mean().is_finite());
//! # Ok::<(), uic::core::InstanceError>(())
//! ```

pub use uic_baselines as baselines;
pub use uic_core as core;
pub use uic_datasets as datasets;
pub use uic_diffusion as diffusion;
pub use uic_experiments as experiments;
pub use uic_graph as graph;
pub use uic_im as im;
pub use uic_items as items;
pub use uic_serve as serve;
pub use uic_util as util;

/// The most common imports in one place.
pub mod prelude {
    pub use uic_baselines::{
        bdhs_concave_welfare, bdhs_step_welfare, bdhs_step_welfare_exact, best_bundle, pagerank,
    };
    pub use uic_core::{
        registry, solve_welmax_bruteforce, Allocator, InstanceError, ObjectiveSpec, SolveCtx,
        SolveReport, WelMax, WelMaxInstance,
    };
    pub use uic_datasets::{community_partition, SolverSpec, SpecMap};
    pub use uic_diffusion::{
        simulate_ic, simulate_uic, spread_mc, Allocation, Ces, Maximin, ObjectiveError,
        PerCommunity, Utilitarian, WelfareEstimator, WelfareObjective,
    };
    pub use uic_graph::{CommunityLabels, Graph, GraphBuilder, GraphStats, NodeId, Weighting};
    pub use uic_im::{imm, opim_c, prima, skim, ssa, tim_plus, DiffusionModel, SkimOptions};
    pub use uic_items::{
        AdditiveValuation, AdoptionOracle, ConeValuation, CoverageValuation, GapParams,
        GapRelation, ItemSet, LevelWiseValuation, NoiseDistribution, NoiseModel,
        PairwiseSynergyValuation, Price, TableValuation, UtilityModel, UtilityTable, Valuation,
    };
    pub use uic_util::{Table, UicRng};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile_and_link() {
        let g = crate::graph::Graph::from_edges(2, &[(0, 1, 1.0)]);
        assert_eq!(g.num_nodes(), 2);
        let s = crate::items::ItemSet::singleton(0);
        assert_eq!(s.len(), 1);
        assert_eq!(crate::core::registry().len(), 10);
    }
}
