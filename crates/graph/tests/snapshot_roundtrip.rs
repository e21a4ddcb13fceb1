//! Property suite for the binary snapshot format: exact round-trips for
//! all three weight representations on random graphs, and typed errors
//! (never panics, never UB) for corrupted, truncated, misaligned, or
//! wrong-version bytes — exercised through both the in-memory reader
//! and the zero-copy (mmap-mode) file loader.

use proptest::prelude::*;
use uic_graph::{
    load_snapshot, load_snapshot_owned, read_snapshot, write_snapshot, Graph, NodeId,
    SnapshotError, WeightClass, WeightSpec,
};

/// Builds the same random topology under each representation (per-edge
/// probs drawn independently; compact representations derive theirs).
fn graphs(n: u32, raw_edges: &[(u32, u32, f32)], constant: f32) -> [Graph; 3] {
    let edges: Vec<(NodeId, NodeId, f32)> = raw_edges
        .iter()
        .map(|&(u, v, p)| (u % n, v % n, p))
        .collect();
    let arcs: Vec<(NodeId, NodeId)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
    [
        Graph::from_edges(n, &edges),
        Graph::try_from_arcs(n, &arcs, WeightSpec::InDegree).expect("valid arcs"),
        Graph::try_from_arcs(n, &arcs, WeightSpec::Constant(constant)).expect("valid constant"),
    ]
}

fn snapshot_bytes(g: &Graph) -> Vec<u8> {
    let mut buf = Vec::new();
    write_snapshot(g, &mut buf).expect("write to Vec cannot fail");
    buf
}

/// Writes `bytes` to a fresh temp file and loads it through the
/// zero-copy file loader (the mmap path on unix), returning the result
/// and cleaning up. This is the path where a bad cast would be UB — the
/// property suite drives every corruption class through it.
fn load_via_file(bytes: &[u8], tag: &str) -> Result<Graph, SnapshotError> {
    let dir = std::env::temp_dir().join("uic-snapshot-proptest");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!(
        "{tag}-{}-{}.uicg",
        std::process::id(),
        std::thread::current().name().unwrap_or("t").len()
    ));
    std::fs::write(&path, bytes).expect("write temp snapshot");
    let r = load_snapshot(&path);
    std::fs::remove_file(&path).ok();
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// `Graph` → bytes → `Graph` is the identity — offsets, targets,
    /// edge ids, weight representation, and every probability — for all
    /// three representations, through the owned reader and the
    /// zero-copy file loader alike.
    #[test]
    fn roundtrip_is_exact_for_all_representations(
        n in 1u32..24,
        raw_edges in proptest::collection::vec((0u32..64, 0u32..64, 0f32..=1.0), 0..48),
        constant in 0f32..=1.0,
    ) {
        for g in graphs(n, &raw_edges, constant) {
            let back = read_snapshot(&snapshot_bytes(&g)[..]).expect("roundtrip");
            // Graph implements PartialEq over all CSR sections + weights.
            prop_assert_eq!(&back, &g);
            prop_assert_eq!(back.weight_class(), g.weight_class());
            prop_assert_eq!(back.memory_footprint(), g.memory_footprint());
            for v in 0..n {
                prop_assert_eq!(back.in_edge_ids(v), g.in_edge_ids(v));
                let a: Vec<f32> = back.out_arc_probs(v).iter().collect();
                let b: Vec<f32> = g.out_arc_probs(v).iter().collect();
                prop_assert_eq!(a, b);
            }
            let zc = load_via_file(&snapshot_bytes(&g), "rt").expect("zero-copy roundtrip");
            prop_assert_eq!(&zc, &g);
        }
    }

    /// Any single corrupted byte yields a typed error, never a panic and
    /// never a silently different graph — in the owned reader AND in
    /// mmap mode (where an unnoticed corruption could drive a bad cast).
    #[test]
    fn corrupted_bytes_error_out(
        n in 1u32..12,
        raw_edges in proptest::collection::vec((0u32..32, 0u32..32, 0f32..=1.0), 1..24),
        at_raw in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let g = graphs(n, &raw_edges, 0.5)[0].clone();
        let mut buf = snapshot_bytes(&g);
        let at = at_raw % buf.len();
        buf[at] ^= flip;
        match read_snapshot(&buf[..]) {
            Err(_) => {}
            // The word-fold checksum detects all single-byte flips;
            // reaching Ok would mean it no longer covers this byte.
            Ok(_) => prop_assert!(false, "flip at {} of {} went unnoticed", at, buf.len()),
        }
        prop_assert!(
            load_via_file(&buf, "flip").is_err(),
            "mmap-mode flip at {} went unnoticed", at
        );
    }

    /// Every truncation point yields `Truncated`/`BadMagic`, never a
    /// panic or an allocation blow-up — both readers.
    #[test]
    fn truncated_bytes_error_out(
        n in 1u32..12,
        raw_edges in proptest::collection::vec((0u32..32, 0u32..32, 0f32..=1.0), 0..24),
        cut_raw in 0usize..4096,
    ) {
        let g = graphs(n, &raw_edges, 0.5)[1].clone();
        let buf = snapshot_bytes(&g);
        let cut = cut_raw % buf.len();
        match read_snapshot(&buf[..cut]) {
            Err(SnapshotError::Truncated { .. }) | Err(SnapshotError::BadMagic) => {}
            Err(other) => prop_assert!(false, "unexpected error {}", other),
            Ok(_) => prop_assert!(false, "truncation at {cut} went unnoticed"),
        }
        match load_via_file(&buf[..cut], "cut") {
            Err(SnapshotError::Truncated { .. }) | Err(SnapshotError::BadMagic) => {}
            Err(other) => prop_assert!(false, "unexpected mmap-mode error {}", other),
            Ok(_) => prop_assert!(false, "mmap-mode truncation at {cut} went unnoticed"),
        }
    }

    /// A corrupted section-offset table — the field a bad pointer cast
    /// would flow from — is a typed `Malformed`/`ChecksumMismatch`,
    /// never UB: the layout is re-derived from the lengths and any
    /// deviation (including misalignment by a non-16 delta) is rejected
    /// before a view is formed.
    #[test]
    fn perturbed_offset_tables_error_out(
        n in 1u32..12,
        raw_edges in proptest::collection::vec((0u32..32, 0u32..32, 0f32..=1.0), 1..24),
        section in 0usize..7,
        delta_idx in 0usize..7,
    ) {
        const DELTAS: [i64; 7] = [1, 4, -4, 8, -8, 16, 1 << 40];
        let delta = DELTAS[delta_idx];
        let g = graphs(n, &raw_edges, 0.5)[0].clone();
        let mut buf = snapshot_bytes(&g);
        let at = 96 + section * 8;
        let off = u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
        let bad = off.wrapping_add(delta as u64);
        buf[at..at + 8].copy_from_slice(&bad.to_le_bytes());
        prop_assert!(read_snapshot(&buf[..]).is_err());
        match load_via_file(&buf, "off") {
            Err(SnapshotError::Malformed(_)) | Err(SnapshotError::ChecksumMismatch { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected mmap-mode error {}", other),
            Ok(_) => prop_assert!(false, "offset perturbation went unnoticed"),
        }
    }

    /// Every declared version other than 2 — the retired version 1
    /// included — is rejected with `UnsupportedVersion` regardless of
    /// payload.
    #[test]
    fn foreign_versions_are_rejected(version in 0u32..1000) {
        prop_assume!(version != 2);
        let g = graphs(3, &[(0, 1, 0.5)], 0.5)[2].clone();
        let mut buf = snapshot_bytes(&g);
        buf[8..12].copy_from_slice(&version.to_le_bytes());
        match read_snapshot(&buf[..]) {
            Err(SnapshotError::UnsupportedVersion(v)) => prop_assert_eq!(v, version),
            other => prop_assert!(false, "expected UnsupportedVersion, got {:?}", other.is_ok()),
        }
        match load_via_file(&buf, "ver") {
            Err(SnapshotError::UnsupportedVersion(v)) => prop_assert_eq!(v, version),
            other => prop_assert!(false, "expected UnsupportedVersion, got {:?}", other.is_ok()),
        }
    }

    /// Owned load and zero-copy load agree bit-for-bit on every section
    /// for random graphs (the cross-representation contract the solver
    /// pins in `tests/graph_storage.rs` build on).
    #[test]
    fn owned_and_zero_copy_loads_agree(
        n in 1u32..24,
        raw_edges in proptest::collection::vec((0u32..64, 0u32..64, 0f32..=1.0), 0..48),
        constant in 0f32..=1.0,
    ) {
        let dir = std::env::temp_dir().join("uic-snapshot-proptest");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("agree-{}.uicg", std::process::id()));
        for g in graphs(n, &raw_edges, constant) {
            std::fs::write(&path, snapshot_bytes(&g)).expect("write");
            let zc = load_snapshot(&path).expect("zero-copy load");
            let owned = load_snapshot_owned(&path).expect("owned load");
            prop_assert!(!owned.is_zero_copy());
            prop_assert_eq!(&zc, &owned);
            prop_assert_eq!(&zc, &g);
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn weight_classes_survive_the_roundtrip() {
    let [pe, wc, cp] = graphs(6, &[(0, 1, 0.25), (1, 2, 0.75), (2, 0, 0.5)], 0.125);
    assert_eq!(
        read_snapshot(&snapshot_bytes(&pe)[..])
            .unwrap()
            .weight_class(),
        WeightClass::PerEdge
    );
    assert_eq!(
        read_snapshot(&snapshot_bytes(&wc)[..])
            .unwrap()
            .weight_class(),
        WeightClass::InDegree
    );
    assert_eq!(
        read_snapshot(&snapshot_bytes(&cp)[..])
            .unwrap()
            .weight_class(),
        WeightClass::Constant(0.125)
    );
}

/// The retired version 1 is one more foreign version: a header claiming
/// it is `UnsupportedVersion(1)` from the in-memory reader and from the
/// file loader alike, whatever the payload. Pinned on its own because
/// `foreign_versions_are_rejected` samples its range from a fixed seed
/// whose draws do not include 1.
#[test]
fn version_one_is_rejected_by_both_readers() {
    let mut buf = snapshot_bytes(&graphs(3, &[(0, 1, 0.5)], 0.5)[0]);
    buf[8..12].copy_from_slice(&1u32.to_le_bytes());
    assert!(matches!(
        read_snapshot(&buf[..]),
        Err(SnapshotError::UnsupportedVersion(1))
    ));
    assert!(matches!(
        load_via_file(&buf, "v1"),
        Err(SnapshotError::UnsupportedVersion(1))
    ));
}
