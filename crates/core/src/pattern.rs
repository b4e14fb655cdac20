//! The [`Pattern`] grid type: a small `r × c` array of node ids that is
//! replicated cyclically over the tiled matrix.
//!
//! Following the paper's terminology, a *tile* is a position in the matrix
//! and a *cell* is a position in the pattern. A cell may be **undefined**
//! (`None`): symmetric schemes (extended SBC, GCR&M) leave diagonal cells
//! open and resolve them greedily when the pattern is replicated over a
//! concrete matrix (paper §V).

use crate::PatternError;

/// Identifier of a compute node. Nodes are numbered `0..P`.
pub type NodeId = u32;

/// An `rows × cols` distribution pattern over `n_nodes` nodes.
///
/// Cells are stored row-major. `None` marks an undefined cell (allowed only
/// on the main diagonal of square patterns by [`Pattern::validate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    rows: usize,
    cols: usize,
    n_nodes: u32,
    cells: Vec<Option<NodeId>>,
}

impl Pattern {
    /// Create a pattern from a closure mapping `(row, col)` to a node id.
    ///
    /// # Panics
    /// Panics if `rows`, `cols` or `n_nodes` is zero, or if the closure
    /// returns an id `>= n_nodes`.
    pub fn from_fn(
        rows: usize,
        cols: usize,
        n_nodes: u32,
        mut f: impl FnMut(usize, usize) -> NodeId,
    ) -> Self {
        assert!(rows > 0 && cols > 0, "pattern dimensions must be positive");
        assert!(n_nodes > 0, "node count must be positive");
        let mut cells = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                let node = f(i, j);
                assert!(node < n_nodes, "node {node} out of range ({n_nodes})");
                cells.push(Some(node));
            }
        }
        Self {
            rows,
            cols,
            n_nodes,
            cells,
        }
    }

    /// Create a fully-undefined pattern (used as a builder by the symmetric
    /// schemes, which then [`set`](Self::set) cells one by one).
    ///
    /// # Panics
    /// Panics if any dimension or `n_nodes` is zero.
    #[must_use]
    pub fn undefined(rows: usize, cols: usize, n_nodes: u32) -> Self {
        assert!(rows > 0 && cols > 0, "pattern dimensions must be positive");
        assert!(n_nodes > 0, "node count must be positive");
        Self {
            rows,
            cols,
            n_nodes,
            cells: vec![None; rows * cols],
        }
    }

    /// Build from explicit rows; `None` entries stay undefined.
    ///
    /// # Panics
    /// Panics on ragged input, empty input, or out-of-range node ids.
    #[must_use]
    pub fn from_rows(n_nodes: u32, rows: &[Vec<Option<NodeId>>]) -> Self {
        assert!(!rows.is_empty(), "pattern must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "pattern must have at least one column");
        assert!(n_nodes > 0, "node count must be positive");
        let mut cells = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged pattern rows");
            for &cell in row {
                if let Some(n) = cell {
                    assert!(n < n_nodes, "node {n} out of range ({n_nodes})");
                }
                cells.push(cell);
            }
        }
        Self {
            rows: rows.len(),
            cols,
            n_nodes,
            cells,
        }
    }

    /// JSON representation: `{"rows", "cols", "n_nodes", "cells"}` with
    /// `cells` a row-major array of node ids or `null` for undefined.
    #[must_use]
    pub fn to_json_value(&self) -> flexdist_json::Value {
        use flexdist_json::Value;
        let cells = self
            .cells
            .iter()
            .map(|c| c.map_or(Value::Null, Value::from))
            .collect();
        flexdist_json::object(vec![
            ("rows", Value::from(self.rows)),
            ("cols", Value::from(self.cols)),
            ("n_nodes", Value::from(self.n_nodes)),
            ("cells", Value::Array(cells)),
        ])
    }

    /// Rebuild a pattern from [`Pattern::to_json_value`] output.
    ///
    /// # Errors
    /// Reports missing fields, shape mismatches and out-of-range ids.
    pub fn from_json_value(v: &flexdist_json::Value) -> Result<Self, String> {
        let field_u64 = |name: &str| {
            v.get(name)
                .and_then(flexdist_json::Value::as_u64)
                .ok_or_else(|| format!("pattern JSON: missing integer field {name:?}"))
        };
        let rows = usize::try_from(field_u64("rows")?).map_err(|e| e.to_string())?;
        let cols = usize::try_from(field_u64("cols")?).map_err(|e| e.to_string())?;
        let n_nodes = u32::try_from(field_u64("n_nodes")?).map_err(|e| e.to_string())?;
        if rows == 0 || cols == 0 || n_nodes == 0 {
            return Err("pattern JSON: rows, cols and n_nodes must be positive".to_string());
        }
        let raw = v
            .get("cells")
            .and_then(flexdist_json::Value::as_array)
            .ok_or_else(|| "pattern JSON: missing array field \"cells\"".to_string())?;
        if rows.checked_mul(cols) != Some(raw.len()) {
            return Err(format!(
                "pattern JSON: {} cells for a {rows}x{cols} pattern",
                raw.len()
            ));
        }
        let mut cells = Vec::with_capacity(raw.len());
        for (idx, item) in raw.iter().enumerate() {
            let (i, j) = (idx / cols, idx % cols);
            if item.is_null() {
                cells.push(None);
            } else {
                let id = item
                    .as_u64()
                    .and_then(|x| u32::try_from(x).ok())
                    .ok_or_else(|| {
                        format!(
                            "pattern JSON: cell ({i},{j}) is {item}, expected null or a node id"
                        )
                    })?;
                if id >= n_nodes {
                    return Err(format!(
                        "pattern JSON: cell ({i},{j}) names node {id}, out of range for \
                         n_nodes = {n_nodes}"
                    ));
                }
                cells.push(Some(id));
            }
        }
        Ok(Self {
            rows,
            cols,
            n_nodes,
            cells,
        })
    }

    /// Parse a pattern from either supported JSON encoding:
    ///
    /// * the flat [`Pattern::to_json_value`] form
    ///   (`{"rows", "cols", "n_nodes", "cells"}`), or
    /// * a nested-rows form `{"n_nodes": P, "pattern": [[0, 1], [2, 3]]}`
    ///   where each inner array is one pattern row (`null` for undefined
    ///   cells).
    ///
    /// # Errors
    /// Reports missing fields, ragged rows, and out-of-range node ids,
    /// naming the offending row or cell.
    pub fn from_json(v: &flexdist_json::Value) -> Result<Self, String> {
        if v.get("cells").is_some() {
            return Self::from_json_value(v);
        }
        let Some(raw_rows) = v.get("pattern").and_then(flexdist_json::Value::as_array) else {
            return Err(
                "pattern JSON: expected either a \"cells\" field (flat form) or a \
                 \"pattern\" field (array of rows)"
                    .to_string(),
            );
        };
        let n_nodes = v
            .get("n_nodes")
            .and_then(flexdist_json::Value::as_u64)
            .and_then(|x| u32::try_from(x).ok())
            .ok_or_else(|| "pattern JSON: missing integer field \"n_nodes\"".to_string())?;
        if n_nodes == 0 {
            return Err("pattern JSON: n_nodes must be positive".to_string());
        }
        if raw_rows.is_empty() {
            return Err("pattern JSON: \"pattern\" must have at least one row".to_string());
        }
        let mut cols = 0usize;
        let mut cells = Vec::new();
        for (i, row) in raw_rows.iter().enumerate() {
            let Some(row) = row.as_array() else {
                return Err(format!("pattern JSON: row {i} is not an array"));
            };
            if i == 0 {
                cols = row.len();
                if cols == 0 {
                    return Err("pattern JSON: row 0 is empty".to_string());
                }
            } else if row.len() != cols {
                return Err(format!(
                    "pattern JSON: ragged rows — row {i} has {} cells, row 0 has {cols}",
                    row.len()
                ));
            }
            for (j, item) in row.iter().enumerate() {
                if item.is_null() {
                    cells.push(None);
                    continue;
                }
                let id = item
                    .as_u64()
                    .and_then(|x| u32::try_from(x).ok())
                    .ok_or_else(|| {
                        format!(
                            "pattern JSON: cell ({i},{j}) is {item}, expected null or a node id"
                        )
                    })?;
                if id >= n_nodes {
                    return Err(format!(
                        "pattern JSON: cell ({i},{j}) names node {id}, out of range for \
                         n_nodes = {n_nodes}"
                    ));
                }
                cells.push(Some(id));
            }
        }
        Ok(Self {
            rows: raw_rows.len(),
            cols,
            n_nodes,
            cells,
        })
    }

    /// Number of pattern rows `r`.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of pattern columns `c`.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Declared number of nodes `P`.
    #[must_use]
    pub fn n_nodes(&self) -> u32 {
        self.n_nodes
    }

    /// Whether the pattern is square (`r == c`), as required by the
    /// symmetric (Cholesky) cost metric.
    #[must_use]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Cell at `(i, j)`; `None` if undefined.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> Option<NodeId> {
        assert!(
            i < self.rows && j < self.cols,
            "cell ({i},{j}) out of bounds"
        );
        self.cells[i * self.cols + j]
    }

    /// Set cell `(i, j)` to `node`.
    ///
    /// # Panics
    /// Panics if out of bounds or `node >= n_nodes`.
    pub fn set(&mut self, i: usize, j: usize, node: NodeId) {
        assert!(
            i < self.rows && j < self.cols,
            "cell ({i},{j}) out of bounds"
        );
        assert!(node < self.n_nodes, "node {node} out of range");
        self.cells[i * self.cols + j] = Some(node);
    }

    /// Owner of matrix tile `(ti, tj)` under cyclic replication, i.e. the
    /// cell `(ti mod r, tj mod c)`. Returns `None` for undefined cells
    /// (callers that use symmetric schemes should resolve those through
    /// `flexdist-dist`'s extended assignment).
    #[must_use]
    pub fn tile_owner(&self, ti: usize, tj: usize) -> Option<NodeId> {
        self.cells[(ti % self.rows) * self.cols + (tj % self.cols)]
    }

    /// Iterator over all defined cells as `(row, col, node)`.
    pub fn defined_cells(&self) -> impl Iterator<Item = (usize, usize, NodeId)> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter_map(move |(idx, c)| c.map(|n| (idx / self.cols, idx % self.cols, n)))
    }

    /// Number of undefined cells.
    #[must_use]
    pub fn n_undefined(&self) -> usize {
        self.cells.iter().filter(|c| c.is_none()).count()
    }

    /// True if every cell is defined.
    #[must_use]
    pub fn is_fully_defined(&self) -> bool {
        self.n_undefined() == 0
    }

    /// How many cells each node owns (`counts[p]` for node `p`).
    #[must_use]
    pub fn node_cell_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_nodes as usize];
        for cell in self.cells.iter().flatten() {
            counts[*cell as usize] += 1;
        }
        counts
    }

    /// A pattern is *balanced* when every node owns the same number of
    /// defined cells (paper §III-C). Undefined cells are excluded — the
    /// extended diagonal assignment balances them at replication time.
    #[must_use]
    pub fn is_balanced(&self) -> bool {
        let counts = self.node_cell_counts();
        counts.windows(2).all(|w| w[0] == w[1])
    }

    /// Maximum difference between the most and least loaded node, counting
    /// defined cells only. `0` means perfectly balanced.
    #[must_use]
    pub fn imbalance(&self) -> usize {
        let counts = self.node_cell_counts();
        let max = counts.iter().copied().max().unwrap_or(0);
        let min = counts.iter().copied().min().unwrap_or(0);
        max - min
    }

    /// Number of distinct nodes in pattern row `i` (the paper's `x_i`).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn distinct_in_row(&self, i: usize) -> usize {
        assert!(i < self.rows, "row {i} out of bounds");
        let mut seen = NodeSet::new(self.n_nodes);
        for j in 0..self.cols {
            if let Some(n) = self.cells[i * self.cols + j] {
                seen.insert(n);
            }
        }
        seen.len()
    }

    /// Number of distinct nodes in pattern column `j` (the paper's `y_j`).
    ///
    /// # Panics
    /// Panics if `j` is out of bounds.
    #[must_use]
    pub fn distinct_in_col(&self, j: usize) -> usize {
        assert!(j < self.cols, "column {j} out of bounds");
        let mut seen = NodeSet::new(self.n_nodes);
        for i in 0..self.rows {
            if let Some(n) = self.cells[i * self.cols + j] {
                seen.insert(n);
            }
        }
        seen.len()
    }

    /// Number of distinct nodes in *colrow* `i` — the union of row `i` and
    /// column `i` (paper Definition 1; the paper's `z_i`). Requires a square
    /// pattern.
    ///
    /// # Panics
    /// Panics if the pattern is not square or `i` is out of bounds.
    #[must_use]
    pub fn distinct_in_colrow(&self, i: usize) -> usize {
        assert!(self.is_square(), "colrow requires a square pattern");
        assert!(i < self.rows, "colrow {i} out of bounds");
        let mut seen = NodeSet::new(self.n_nodes);
        for j in 0..self.cols {
            if let Some(n) = self.cells[i * self.cols + j] {
                seen.insert(n);
            }
            if let Some(n) = self.cells[j * self.cols + i] {
                seen.insert(n);
            }
        }
        seen.len()
    }

    /// Set of distinct nodes appearing on colrow `i` of a square pattern.
    ///
    /// # Panics
    /// Panics if the pattern is not square or `i` is out of bounds.
    #[must_use]
    pub fn colrow_nodes(&self, i: usize) -> Vec<NodeId> {
        assert!(self.is_square(), "colrow requires a square pattern");
        assert!(i < self.rows, "colrow {i} out of bounds");
        let mut seen = NodeSet::new(self.n_nodes);
        for j in 0..self.cols {
            if let Some(n) = self.cells[i * self.cols + j] {
                seen.insert(n);
            }
            if let Some(n) = self.cells[j * self.cols + i] {
                seen.insert(n);
            }
        }
        seen.into_sorted_vec()
    }

    /// Structural validation: positive dimensions, in-range node ids, every
    /// node `0..P` present at least once, undefined cells only on the main
    /// diagonal of a square pattern.
    ///
    /// # Errors
    /// Returns the first violated [`PatternError`].
    pub fn validate(&self) -> Result<(), PatternError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(PatternError::EmptyPattern);
        }
        if self.n_nodes == 0 {
            return Err(PatternError::ZeroNodes);
        }
        let mut present = vec![false; self.n_nodes as usize];
        for (idx, cell) in self.cells.iter().enumerate() {
            match cell {
                Some(n) => {
                    if *n >= self.n_nodes {
                        return Err(PatternError::NodeOutOfRange {
                            node: *n,
                            n_nodes: self.n_nodes,
                        });
                    }
                    present[*n as usize] = true;
                }
                None => {
                    let (i, j) = (idx / self.cols, idx % self.cols);
                    if !self.is_square() || i != j {
                        return Err(PatternError::NotSquare {
                            rows: self.rows,
                            cols: self.cols,
                        });
                    }
                }
            }
        }
        if let Some(missing) = present.iter().position(|p| !p) {
            return Err(PatternError::NodeOutOfRange {
                node: missing as NodeId,
                n_nodes: self.n_nodes,
            });
        }
        Ok(())
    }

    /// Transposed copy of the pattern.
    #[must_use]
    pub fn transposed(&self) -> Self {
        let mut t = Self {
            rows: self.cols,
            cols: self.rows,
            n_nodes: self.n_nodes,
            cells: vec![None; self.cells.len()],
        };
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.cells[j * t.cols + i] = self.cells[i * self.cols + j];
            }
        }
        t
    }
}

impl std::fmt::Display for Pattern {
    /// Render the grid with one cell per column, `.` for undefined cells.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let width = (self.n_nodes.max(1) as f64).log10() as usize + 1;
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                match self.cells[i * self.cols + j] {
                    Some(n) => write!(f, "{n:>width$}")?,
                    None => write!(f, "{:>width$}", ".")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A small reusable "distinct nodes" accumulator backed by a stamp vector —
/// avoids hashing in the hot cost-evaluation loops (GCR&M evaluates
/// thousands of candidate patterns).
pub(crate) struct NodeSet {
    present: Vec<bool>,
    members: Vec<NodeId>,
}

impl NodeSet {
    pub(crate) fn new(n_nodes: u32) -> Self {
        Self {
            present: vec![false; n_nodes as usize],
            members: Vec::new(),
        }
    }

    pub(crate) fn insert(&mut self, n: NodeId) {
        let slot = &mut self.present[n as usize];
        if !*slot {
            *slot = true;
            self.members.push(n);
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    pub(crate) fn clear(&mut self) {
        for &m in &self.members {
            self.present[m as usize] = false;
        }
        self.members.clear();
    }

    #[cfg(test)]
    pub(crate) fn contains(&self, n: NodeId) -> bool {
        self.present[n as usize]
    }

    pub(crate) fn into_sorted_vec(mut self) -> Vec<NodeId> {
        self.members.sort_unstable();
        self.members
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Pattern {
        // 2x3 pattern: [0 1 2 / 3 4 5]
        Pattern::from_fn(2, 3, 6, |i, j| (i * 3 + j) as NodeId)
    }

    #[test]
    fn from_fn_builds_row_major() {
        let p = sample();
        assert_eq!(p.get(0, 0), Some(0));
        assert_eq!(p.get(0, 2), Some(2));
        assert_eq!(p.get(1, 0), Some(3));
        assert_eq!(p.get(1, 2), Some(5));
    }

    #[test]
    fn tile_owner_wraps_cyclically() {
        let p = sample();
        assert_eq!(p.tile_owner(0, 0), Some(0));
        assert_eq!(p.tile_owner(2, 3), Some(0));
        assert_eq!(p.tile_owner(3, 5), Some(5));
        assert_eq!(p.tile_owner(100, 100), p.tile_owner(100 % 2, 100 % 3));
    }

    #[test]
    fn distinct_counts_match_2dbc() {
        let p = sample();
        assert_eq!(p.distinct_in_row(0), 3);
        assert_eq!(p.distinct_in_row(1), 3);
        assert_eq!(p.distinct_in_col(0), 2);
        assert_eq!(p.distinct_in_col(2), 2);
    }

    #[test]
    fn colrow_counts_on_square() {
        // [0 1 / 2 3]: colrow 0 = {0,1,2}, colrow 1 = {1,2,3}
        let p = Pattern::from_fn(2, 2, 4, |i, j| (i * 2 + j) as NodeId);
        assert_eq!(p.distinct_in_colrow(0), 3);
        assert_eq!(p.distinct_in_colrow(1), 3);
        assert_eq!(p.colrow_nodes(0), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn colrow_rejects_rectangular() {
        let _ = sample().distinct_in_colrow(0);
    }

    #[test]
    fn balance_detection() {
        let p = sample();
        assert!(p.is_balanced());
        assert_eq!(p.imbalance(), 0);
        let q = Pattern::from_fn(2, 2, 2, |i, j| ((i + j) % 2 == 0) as NodeId);
        assert!(q.is_balanced());
        let r = Pattern::from_fn(2, 2, 2, |_, _| 0);
        assert!(!r.is_balanced());
        assert_eq!(r.imbalance(), 4);
    }

    #[test]
    fn undefined_cells_and_validation() {
        let mut p = Pattern::undefined(3, 3, 3);
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    p.set(i, j, ((i + j) % 3) as NodeId);
                }
            }
        }
        assert_eq!(p.n_undefined(), 3);
        assert!(!p.is_fully_defined());
        assert!(p.validate().is_ok());
        // Distinct counts skip undefined cells.
        assert!(p.distinct_in_colrow(0) <= 3);
    }

    #[test]
    fn validation_rejects_offdiagonal_undefined() {
        let mut p = Pattern::undefined(2, 3, 2);
        p.set(0, 0, 0);
        p.set(1, 1, 1);
        assert_eq!(
            p.validate(),
            Err(PatternError::NotSquare { rows: 2, cols: 3 })
        );
    }

    #[test]
    fn validation_rejects_missing_node() {
        // Node 2 declared but never present.
        let p = Pattern::from_fn(2, 2, 3, |i, j| ((i + j) % 2) as NodeId);
        assert!(matches!(
            p.validate(),
            Err(PatternError::NodeOutOfRange { node: 2, .. })
        ));
    }

    #[test]
    fn transpose_roundtrip() {
        let p = sample();
        let t = p.transposed();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 1), Some(5));
        assert_eq!(t.transposed(), p);
    }

    #[test]
    fn display_renders_grid() {
        let p = sample();
        let s = p.to_string();
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains('5'));
        let mut u = Pattern::undefined(1, 2, 1);
        u.set(0, 0, 0);
        // Not square, but Display still renders; '.' marks undefined.
        assert!(u.to_string().contains('.'));
    }

    #[test]
    fn node_set_dedups_and_clears() {
        let mut s = NodeSet::new(5);
        s.insert(3);
        s.insert(3);
        s.insert(1);
        assert_eq!(s.len(), 2);
        assert!(s.contains(3));
        s.clear();
        assert_eq!(s.len(), 0);
        assert!(!s.contains(3));
        s.insert(4);
        assert_eq!(s.into_sorted_vec(), vec![4]);
    }

    #[test]
    fn from_rows_matches_from_fn() {
        let p = Pattern::from_rows(
            6,
            &[
                vec![Some(0), Some(1), Some(2)],
                vec![Some(3), Some(4), Some(5)],
            ],
        );
        assert_eq!(p, sample());
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        let _ = Pattern::from_rows(2, &[vec![Some(0)], vec![Some(1), Some(0)]]);
    }
}
