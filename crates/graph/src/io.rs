//! Plain-text edge-list I/O.
//!
//! Format (one edge per line, `#`-comments allowed):
//! ```text
//! # n <num_nodes>        -- optional header; otherwise n = max id + 1
//! <src> <dst> [prob]
//! ```
//! The optional third column carries an explicit probability; absent
//! columns are only legal when a [`crate::Weighting`] scheme overwrites
//! them — under [`Weighting::AsGiven`] a missing column is a typed
//! [`IoError::Parse`], never a silent zero-probability edge.

use crate::builder::{GraphBuilder, Weighting};
use crate::graph::{Graph, GraphError};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

/// Errors surfaced while parsing an edge list.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed line with its 1-based line number.
    Parse { line: usize, message: String },
    /// Structurally invalid graph (oversized edge count, bad
    /// probability) reported by [`Graph`] construction.
    Graph(GraphError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            IoError::Graph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl From<GraphError> for IoError {
    fn from(e: GraphError) -> Self {
        IoError::Graph(e)
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Reads an edge list from any reader and builds a graph under `weighting`.
pub fn read_edge_list<R: Read>(
    reader: R,
    weighting: Weighting,
    seed: u64,
) -> Result<Graph, IoError> {
    let reader = BufReader::new(reader);
    let mut edges: Vec<(u32, u32, f32)> = Vec::new();
    let mut declared_n: Option<u32> = None;
    let mut max_id = 0u32;
    let mut max_id_line = 0usize;
    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim();
            if let Some(nstr) = rest.strip_prefix("n ") {
                declared_n = Some(nstr.trim().parse::<u32>().map_err(|e| IoError::Parse {
                    line: lineno,
                    message: format!("bad node count: {e}"),
                })?);
            }
            continue;
        }
        let mut parts = line.split_whitespace();
        let parse_id = |tok: Option<&str>, what: &str| -> Result<u32, IoError> {
            tok.ok_or_else(|| IoError::Parse {
                line: lineno,
                message: format!("missing {what}"),
            })?
            .parse::<u32>()
            .map_err(|e| IoError::Parse {
                line: lineno,
                message: format!("bad {what}: {e}"),
            })
        };
        let u = parse_id(parts.next(), "source")?;
        let v = parse_id(parts.next(), "target")?;
        let p = match parts.next() {
            Some(tok) => tok.parse::<f32>().map_err(|e| IoError::Parse {
                line: lineno,
                message: format!("bad probability: {e}"),
            })?,
            // Without an overriding scheme a defaulted 0.0 would silently
            // drop the edge from every cascade — reject it instead.
            None if weighting == Weighting::AsGiven => {
                return Err(IoError::Parse {
                    line: lineno,
                    message: "missing probability column (required with Weighting::AsGiven)"
                        .to_string(),
                });
            }
            None => 0.0,
        };
        if u.max(v) > max_id {
            max_id = u.max(v);
            max_id_line = lineno;
        }
        edges.push((u, v, p));
    }
    let n = declared_n.unwrap_or(if edges.is_empty() { 0 } else { max_id + 1 });
    if !edges.is_empty() && max_id >= n {
        return Err(IoError::Parse {
            line: max_id_line,
            message: format!("node id {max_id} out of range for declared n={n}"),
        });
    }
    let mut b = GraphBuilder::new(n);
    b.reserve(edges.len());
    for (u, v, p) in edges {
        b.add_edge(u, v, p);
    }
    Ok(b.try_build(weighting, seed)?)
}

/// Writes a graph as an edge list (with probabilities and an `# n` header).
pub fn write_edge_list<W: Write>(g: &Graph, writer: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# n {}", g.num_nodes())?;
    for (u, v, p) in g.edges() {
        writeln!(w, "{u} {v} {p}")?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_text() {
        let g = Graph::from_edges(3, &[(0, 1, 0.5), (1, 2, 0.25)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..], Weighting::AsGiven, 0).unwrap();
        assert_eq!(g2.num_nodes(), 3);
        let mut a: Vec<_> = g.edges().collect();
        let mut b: Vec<_> = g2.edges().collect();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn header_controls_node_count() {
        let text = "# n 10\n0 1\n";
        let g = read_edge_list(text.as_bytes(), Weighting::Constant(0.1), 0).unwrap();
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn infers_node_count_without_header() {
        let text = "0 5\n2 3\n";
        let g = read_edge_list(text.as_bytes(), Weighting::Constant(0.1), 0).unwrap();
        assert_eq!(g.num_nodes(), 6);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# a comment\n\n0 1 0.7\n# another\n1 0 0.3\n";
        let g = read_edge_list(text.as_bytes(), Weighting::AsGiven, 0).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_prob(0, 0), 0.7);
    }

    #[test]
    fn missing_probability_under_as_given_is_an_error() {
        // A defaulted 0.0 would silently drop the edge from every
        // cascade; it must be a typed parse error instead.
        let text = "0 1 0.4\n1 2\n";
        let err = read_edge_list(text.as_bytes(), Weighting::AsGiven, 0).unwrap_err();
        match err {
            IoError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("missing probability"), "{message}");
            }
            other => panic!("expected parse error, got {other}"),
        }
        // Schemes that overwrite the column still accept bare arcs.
        let g = read_edge_list(text.as_bytes(), Weighting::WeightedCascade, 0).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn declared_n_smaller_than_ids_is_an_error() {
        let text = "# n 2\n0 1 0.5\n5 1 0.5\n";
        let err = read_edge_list(text.as_bytes(), Weighting::AsGiven, 0).unwrap_err();
        match err {
            IoError::Parse { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("out of range"), "{message}");
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn weighting_picks_snapshot_representation() {
        let text = "0 1\n1 2\n";
        let g = read_edge_list(text.as_bytes(), Weighting::WeightedCascade, 0).unwrap();
        assert_eq!(g.weight_class(), crate::WeightClass::InDegree);
        let g = read_edge_list(text.as_bytes(), Weighting::Constant(0.3), 0).unwrap();
        assert_eq!(g.weight_class(), crate::WeightClass::Constant(0.3));
    }

    #[test]
    fn reports_malformed_line_number() {
        let text = "0 1 0.5\nnot numbers\n";
        let err = read_edge_list(text.as_bytes(), Weighting::AsGiven, 0).unwrap_err();
        match err {
            IoError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn missing_target_is_an_error() {
        let err = read_edge_list("5\n".as_bytes(), Weighting::AsGiven, 0).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 1, .. }));
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let g = read_edge_list("".as_bytes(), Weighting::AsGiven, 0).unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
