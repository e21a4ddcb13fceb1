//! Pinned outputs of the RIS certification loop.
//!
//! `prima`, `warm_prima` and `imm` run the same certification loop and
//! differ only in their final selection step. These constants pin every
//! observable field — seed order, cumulative coverage, final and total RR
//! set counts, budgets certified inside the loop, and the bits of IMM's
//! spread estimate — on three fixed instances: an IC hub graph, an LT
//! weighted-cascade graph, and an edgeless graph on which small budgets
//! never certify and their requirements fall back to `LB = 1`. RR sets are a
//! pure function of `(seed, index)`, so the pins hold at any worker count.
//!
//! A budget switch checks the previous ordering's prefix on the current
//! sample. The IC hub covers both shapes of that sample. With `[5, 3, 1]`
//! and with `[10, 9, 8]` at `ε = 0.4` it has grown past the selection
//! being reused (`θ_k > cur`); in the second case the switch to budget 9
//! also sets the final sample size, so one set more or less in that
//! check moves the pins. With `[10, 5]` at `ε = 0.8` it has not grown
//! (`θ_10 ≤ cur`), so the check counts on exactly the selection's own
//! sets.

use uic_graph::{Graph, GraphBuilder, NodeId, Weighting};
use uic_im::{imm, prima, warm_prima, DiffusionModel, ImmResult, PrimaResult, RrCollection};

/// Two IC hubs of different reach plus a stray edge.
fn ic_hub() -> Graph {
    let mut b = GraphBuilder::new(40);
    for leaf in 1..30u32 {
        b.add_edge(0, leaf, 0.8);
    }
    for leaf in 31..38u32 {
        b.add_edge(30, leaf, 0.8);
    }
    b.add_edge(38, 39, 0.5);
    b.build(Weighting::AsGiven, 0)
}

/// A hub over a sparse pseudo-random arc set, LT in-weights `1/d_in`.
fn lt_weighted_cascade() -> Graph {
    let mut b = GraphBuilder::new(60);
    for leaf in 1..20u32 {
        b.add_arc(0, leaf);
    }
    for u in 0..60u32 {
        b.add_arc(u, (u * 7 + 3) % 60);
        b.add_arc(u, (u * 13 + 5) % 60);
    }
    b.build(Weighting::WeightedCascade, 0)
}

/// No edges: every RR set is its root, so small budgets never certify.
fn edgeless() -> Graph {
    GraphBuilder::new(50).build(Weighting::AsGiven, 0)
}

struct PrimaPin {
    order: &'static [NodeId],
    coverage: &'static [u64],
    rr_sets_final: usize,
    rr_sets_total: u64,
    budgets_certified: usize,
}

fn check_prima(what: &str, got: &PrimaResult, want: &PrimaPin) {
    assert_eq!(got.order, want.order, "{what}: order");
    assert_eq!(got.coverage, want.coverage, "{what}: coverage");
    assert_eq!(
        got.rr_sets_final, want.rr_sets_final,
        "{what}: rr_sets_final"
    );
    assert_eq!(
        got.rr_sets_total, want.rr_sets_total,
        "{what}: rr_sets_total"
    );
    assert_eq!(
        got.budgets_certified, want.budgets_certified,
        "{what}: budgets_certified"
    );
}

struct ImmPin {
    seeds: &'static [NodeId],
    estimated_spread_bits: u64,
    rr_sets_final: usize,
    rr_sets_total: u64,
}

fn check_imm(what: &str, got: &ImmResult, want: &ImmPin) {
    assert_eq!(got.seeds, want.seeds, "{what}: seeds");
    assert_eq!(
        got.estimated_spread.to_bits(),
        want.estimated_spread_bits,
        "{what}: estimated_spread {}",
        got.estimated_spread
    );
    assert_eq!(
        got.rr_sets_final, want.rr_sets_final,
        "{what}: rr_sets_final"
    );
    assert_eq!(
        got.rr_sets_total, want.rr_sets_total,
        "{what}: rr_sets_total"
    );
}

fn warm(g: &Graph, model: DiffusionModel, seed: u64, budgets: &[u32], eps: f64) -> PrimaResult {
    let mut coll = RrCollection::new(g, model, seed);
    warm_prima(g, &mut coll, budgets, eps, 1.0)
}

#[test]
fn ic_hub_pins() {
    let g = ic_hub();
    let (model, seed, eps) = (DiffusionModel::IC, 3, 0.4);
    check_prima(
        "prima",
        &prima(&g, &[5, 3, 1], eps, 1.0, model, seed),
        &PrimaPin {
            order: &[0, 30, 38, 26, 39],
            coverage: &[359, 460, 481, 490, 497],
            rr_sets_final: 613,
            rr_sets_total: 1226,
            budgets_certified: 3,
        },
    );
    check_prima(
        "warm_prima",
        &warm(&g, model, seed, &[5, 3, 1], eps),
        &PrimaPin {
            order: &[0, 30, 38, 39, 33],
            coverage: &[368, 462, 487, 495, 501],
            rr_sets_final: 613,
            rr_sets_total: 613,
            budgets_certified: 3,
        },
    );
    check_imm(
        "imm",
        &imm(&g, 5, eps, 1.0, model, seed),
        &ImmPin {
            seeds: &[0, 30, 38, 12, 39],
            estimated_spread_bits: 0x40406eb3e45306ec,
            rr_sets_final: 555,
            rr_sets_total: 844,
        },
    );
    // Both switches reuse the selection made on 412 sets, after the
    // sample grew to 725 and then 728 (θ_9, the final size).
    check_prima(
        "prima binding switch",
        &prima(&g, &[10, 9, 8], 0.4, 1.0, model, seed),
        &PrimaPin {
            order: &[0, 30, 38, 39, 26, 15, 16, 31, 25, 18],
            coverage: &[433, 560, 585, 594, 602, 610, 617, 623, 629, 635],
            rr_sets_final: 728,
            rr_sets_total: 1456,
            budgets_certified: 3,
        },
    );
    check_prima(
        "warm_prima binding switch",
        &warm(&g, model, seed, &[10, 9, 8], 0.4),
        &PrimaPin {
            order: &[0, 30, 38, 39, 35, 34, 33, 13, 8, 4],
            coverage: &[437, 549, 577, 585, 592, 598, 604, 610, 616, 622],
            rr_sets_final: 728,
            rr_sets_total: 728,
            budgets_certified: 3,
        },
    );
    // The switch to budget 5 reuses a selection made on all 236 sets.
    check_prima(
        "prima unchanged sample",
        &prima(&g, &[10, 5], 0.8, 1.0, model, seed),
        &PrimaPin {
            order: &[0, 30, 38, 39, 37, 28, 19, 12, 4, 2],
            coverage: &[138, 176, 187, 191, 194, 197, 200, 203, 206, 209],
            rr_sets_final: 236,
            rr_sets_total: 472,
            budgets_certified: 2,
        },
    );
    check_prima(
        "warm_prima unchanged sample",
        &warm(&g, model, seed, &[10, 5], 0.8),
        &PrimaPin {
            order: &[0, 30, 38, 39, 35, 34, 33, 29, 22, 8],
            coverage: &[141, 178, 187, 191, 194, 197, 200, 203, 206, 209],
            rr_sets_final: 236,
            rr_sets_total: 236,
            budgets_certified: 2,
        },
    );
}

#[test]
fn lt_weighted_cascade_pins() {
    let g = lt_weighted_cascade();
    let (model, seed, eps) = (DiffusionModel::LT, 11, 0.3);
    check_prima(
        "prima",
        &prima(&g, &[4, 2], eps, 1.0, model, seed),
        &PrimaPin {
            order: &[0, 57, 35, 39],
            coverage: &[648, 707, 758, 794],
            rr_sets_final: 964,
            rr_sets_total: 1928,
            budgets_certified: 2,
        },
    );
    check_prima(
        "warm_prima",
        &warm(&g, model, seed, &[4, 2], eps),
        &PrimaPin {
            order: &[0, 52, 49, 56],
            coverage: &[637, 694, 747, 788],
            rr_sets_final: 964,
            rr_sets_total: 964,
            budgets_certified: 2,
        },
    );
    check_imm(
        "imm",
        &imm(&g, 4, eps, 1.0, model, seed),
        &ImmPin {
            seeds: &[0, 35, 26, 41],
            estimated_spread_bits: 0x40485676aced59db,
            rr_sets_final: 906,
            rr_sets_total: 1405,
        },
    );
}

#[test]
fn edgeless_graph_falls_back_to_lb_one() {
    let g = edgeless();
    let (model, seed, eps) = (DiffusionModel::IC, 5, 0.5);
    check_prima(
        "prima",
        &prima(&g, &[3, 1], eps, 1.0, model, seed),
        &PrimaPin {
            order: &[21, 33, 44],
            coverage: &[209, 415, 614],
            rr_sets_final: 8893,
            rr_sets_total: 10231,
            budgets_certified: 0,
        },
    );
    check_prima(
        "warm_prima",
        &warm(&g, model, seed, &[3, 1], eps),
        &PrimaPin {
            order: &[44, 33, 36],
            coverage: &[209, 417, 617],
            rr_sets_final: 8893,
            rr_sets_total: 8893,
            budgets_certified: 0,
        },
    );
    // A wide budget certifies in the loop; the single seed behind it
    // cannot, and falls back to `LB = 1`.
    check_prima(
        "prima partial",
        &prima(&g, &[8, 1], 0.1, 1.0, model, seed),
        &PrimaPin {
            order: &[36, 28, 38, 47, 8, 20, 26, 15],
            coverage: &[3396, 6786, 10158, 13526, 16892, 20254, 23614, 26969],
            rr_sets_final: 163970,
            rr_sets_total: 206274,
            budgets_certified: 1,
        },
    );
    check_prima(
        "warm_prima partial",
        &warm(&g, model, seed, &[8, 1], 0.1),
        &PrimaPin {
            order: &[21, 41, 44, 14, 36, 28, 37, 40],
            coverage: &[3424, 6806, 10179, 13545, 16906, 20253, 23597, 26940],
            rr_sets_final: 163970,
            rr_sets_total: 163970,
            budgets_certified: 1,
        },
    );
    check_imm(
        "imm",
        &imm(&g, 3, eps, 1.0, model, seed),
        &ImmPin {
            seeds: &[33, 21, 44],
            estimated_spread_bits: 0x400b72b97c5b626c,
            rr_sets_final: 8292,
            rr_sets_total: 9575,
        },
    );
}
