//! Regenerators for Tables 2–6 of the paper.

use crate::common::{network, ExpOptions};
use uic_datasets::{
    auction, budget_splits, network_stats_table, real_params_table, Config, NamedNetwork,
    TwoItemConfig,
};
use uic_im::{imm, prima, DiffusionModel};
use uic_util::Table;

/// **Table 2**: statistics of the stand-in networks.
pub fn table2(opts: &ExpOptions) -> Table {
    network_stats_table(opts.scale, opts.seed)
}

/// **Table 3**: the two-item configurations with their GAP parameters
/// re-derived from the utilities through Eq. 12 — checking the paper's
/// printed q-values fall out of the conversion.
pub fn table3() -> Table {
    let mut t = Table::new(
        "Table 3: two-item configurations (GAPs re-derived via Eq. 12)",
        &[
            "config", "price", "value", "noise", "q_i1|∅", "q_i2|∅", "q_i1|i2", "q_i2|i1", "budget",
        ],
    );
    for cfg in TwoItemConfig::all() {
        let m = cfg.model();
        let gap = cfg.gap();
        let v = |s: &[u32]| m.valuation().value(uic_items::ItemSet::from_items(s));
        t.push_row(vec![
            cfg.id.to_string(),
            format!("i1={}, i2={}", m.price().of_item(0), m.price().of_item(1)),
            format!("i1={}, i2={}, both={}", v(&[0]), v(&[1]), v(&[0, 1])),
            "N(0,1) each".into(),
            format!("{:.2}", gap.q1_alone),
            format!("{:.2}", gap.q2_alone),
            format!("{:.2}", gap.q1_given_2),
            format!("{:.2}", gap.q2_given_1),
            if cfg.uniform_budgets() {
                "uniform".into()
            } else {
                "non-uniform".into()
            },
        ]);
    }
    t
}

/// **Table 4**: the multi-item configurations.
pub fn table4() -> Table {
    let mut t = Table::new(
        "Table 4: multi-item configurations",
        &["config", "value shape", "budget"],
    );
    for cfg in Config::ALL {
        t.push_row(vec![
            cfg.id().to_string(),
            cfg.value_shape().to_string(),
            if cfg.uniform_budgets() {
                "uniform".into()
            } else {
                "non-uniform".into()
            },
        ]);
    }
    t
}

/// **Table 5**: the learned real parameters, plus a re-learned variant
/// produced by the auction pipeline (simulate bid histories from the
/// Table 5 ground truth, learn values/noise back) — exercising the full
/// §4.3.4.1 methodology.
pub fn table5(opts: &ExpOptions) -> Vec<Table> {
    let echo = real_params_table();
    let mut relearned = Table::new(
        "Table 5 (re-learned from simulated auctions)",
        &[
            "itemset",
            "true value",
            "learned value",
            "true σ",
            "learned σ",
        ],
    );
    // (value, noise σ) ground truths for the five listed itemsets.
    let rows: [(&str, f64, f64); 5] = [
        ("{ps}", 213.0, 2.0),
        ("{ps,c}", 220.0, 6f64.sqrt()),
        ("{ps,g1,g2,g3}", 258.0, 2.0),
        ("{ps,g1,g2,c}", 292.5, 5f64.sqrt()),
        ("{ps,c,g1,g2,g3}", 302.0, 7f64.sqrt()),
    ];
    for (i, &(name, value, sigma)) in rows.iter().enumerate() {
        let fit = auction::relearn_roundtrip(value, sigma, 6, 4000, opts.seed ^ i as u64);
        relearned.push_row(vec![
            name.to_string(),
            format!("{value:.1}"),
            format!("{:.1}", fit.mu),
            format!("{sigma:.2}"),
            format!("{:.2}", fit.sigma),
        ]);
    }
    vec![echo, relearned]
}

/// **Table 6**: RR sets generated by bundleGRD vs the two IMM variants
/// (`MAX_IMM` = max over per-budget IMM runs; `IMM_MAX` = IMM at the max
/// budget) under the three real-Param budget distributions.
pub fn table6(opts: &ExpOptions) -> Table {
    let g = network(NamedNetwork::Twitter, opts);
    let mut t = Table::new(
        "Table 6: number of RR sets generated",
        &["budget distribution", "bundleGRD", "MAX_IMM", "IMM_MAX"],
    );
    let distros: [(&str, Vec<u32>); 3] = [
        ("Uniform", budget_splits::uniform(500, 5)),
        ("Large skew", budget_splits::large_skew(500, 5)),
        ("Moderate skew", budget_splits::moderate_skew()),
    ];
    for (name, budgets) in distros {
        let n = g.num_nodes();
        // The splits come sorted non-increasing, as PRIMA takes them;
        // bundleGRD's RR-set count is that of its one PRIMA run.
        let budgets: Vec<u32> = budgets.iter().map(|&b| b.min(n)).collect();
        let bg = prima(
            &g,
            &budgets,
            opts.eps,
            opts.ell,
            DiffusionModel::IC,
            opts.seed,
        );
        // Both IMM variants get PRIMA's ℓ′ so the union-bound inflation
        // is identical and the comparison isolates the sampling strategy
        // (the paper's Table 6 reports equal counts under this setting).
        let ell_eff = opts.ell + (budgets.len() as f64).ln() / (n as f64).ln();
        let mut uniq: Vec<u32> = budgets.clone();
        uniq.dedup();
        let max_imm = uniq
            .iter()
            .map(|&k| imm(&g, k, opts.eps, ell_eff, DiffusionModel::IC, opts.seed).rr_sets_final)
            .max()
            .unwrap_or(0);
        let imm_max = imm(
            &g,
            budgets.iter().copied().max().unwrap(),
            opts.eps,
            ell_eff,
            DiffusionModel::IC,
            opts.seed,
        )
        .rr_sets_final;
        t.push_row(vec![
            name.to_string(),
            bg.rr_sets_final.to_string(),
            max_imm.to_string(),
            imm_max.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_lists_all_networks() {
        let t = table2(&ExpOptions::smoke());
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn table3_gaps_match_paper_values() {
        let t = table3();
        assert_eq!(t.len(), 4);
        // Config 1 row: q_i1|∅ = 0.50, q_i1|i2 = 0.84.
        assert_eq!(t.cell(0, "q_i1|∅"), Some("0.50"));
        assert_eq!(t.cell(0, "q_i1|i2"), Some("0.84"));
        // Config 3 row: q_i2|∅ = 0.16, q_i1|i2 = 0.98.
        assert_eq!(t.cell(2, "q_i2|∅"), Some("0.16"));
        assert_eq!(t.cell(2, "q_i1|i2"), Some("0.98"));
    }

    #[test]
    fn table4_has_four_configs() {
        let t = table4();
        assert_eq!(t.len(), 4);
        assert_eq!(t.cell(0, "value shape"), Some("Additive"));
        assert_eq!(t.cell(3, "value shape"), Some("Level-wise"));
    }

    #[test]
    fn table5_relearn_is_close() {
        let tables = table5(&ExpOptions::smoke());
        assert_eq!(tables.len(), 2);
        let relearned = &tables[1];
        for row in 0..relearned.len() {
            let truth: f64 = relearned.cell(row, "true value").unwrap().parse().unwrap();
            let learned: f64 = relearned
                .cell(row, "learned value")
                .unwrap()
                .parse()
                .unwrap();
            assert!(
                (truth - learned).abs() < 1.0,
                "row {row}: {truth} vs {learned}"
            );
        }
    }

    #[test]
    fn table6_counts_are_equal_across_methods() {
        let mut opts = ExpOptions::smoke();
        // Keep budgets well below n: at tiny scales the large-skew max
        // budget (410 of 500) would hit k ≈ n, a degenerate IMM regime
        // unrelated to the comparison the paper makes.
        opts.scale = 0.02; // ~830-node twitter stand-in
        let t = table6(&opts);
        assert_eq!(t.len(), 3);
        for row in 0..3 {
            let bg: u64 = t.cell(row, "bundleGRD").unwrap().parse().unwrap();
            let mi: u64 = t.cell(row, "MAX_IMM").unwrap().parse().unwrap();
            let im: u64 = t.cell(row, "IMM_MAX").unwrap().parse().unwrap();
            assert!(bg > 0 && mi > 0 && im > 0);
            // The paper's observation: all three coincide (the max budget
            // dominates the sample size). On the ~170-node smoke graph the
            // LB certification is noisy, so allow generous slack here; the
            // full-scale run recorded in EXPERIMENTS.md shows the tight
            // agreement.
            let lo = bg.min(mi).min(im) as f64;
            let hi = bg.max(mi).max(im) as f64;
            assert!(hi / lo < 4.0, "row {row}: spread {lo}..{hi} too wide");
        }
    }
}
