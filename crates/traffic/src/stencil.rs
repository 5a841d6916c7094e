//! Stencil (nearest-neighbor) communication patterns.
//!
//! The paper's CODES experiments use four stencil apps: 2D and 3D nearest
//! neighbor, each with and without diagonal neighbors. Ranks form a
//! row-major grid with periodic (torus) boundaries so every rank has the
//! same neighbor count — matching the paper's accounting ("in 2DNN, each
//! process sends to 4 neighbors").

/// Which stencil exchange an application performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StencilKind {
    /// 2D nearest neighbor: 4 face neighbors.
    Nn2d,
    /// 2D nearest neighbor with diagonals: 8 neighbors.
    Nn2dDiag,
    /// 3D nearest neighbor: 6 face neighbors.
    Nn3d,
    /// 3D nearest neighbor with diagonals: 26 neighbors.
    Nn3dDiag,
}

impl StencilKind {
    /// Paper-style name (2DNN, 2DNNdiag, 3DNN, 3DNNdiag).
    pub fn name(&self) -> &'static str {
        match self {
            StencilKind::Nn2d => "2DNN",
            StencilKind::Nn2dDiag => "2DNNdiag",
            StencilKind::Nn3d => "3DNN",
            StencilKind::Nn3dDiag => "3DNNdiag",
        }
    }

    /// Neighbors per rank under periodic boundaries.
    pub fn neighbor_count(&self) -> usize {
        match self {
            StencilKind::Nn2d => 4,
            StencilKind::Nn2dDiag => 8,
            StencilKind::Nn3d => 6,
            StencilKind::Nn3dDiag => 26,
        }
    }

    /// Whether this is a 3D stencil.
    pub fn is_3d(&self) -> bool {
        matches!(self, StencilKind::Nn3d | StencilKind::Nn3dDiag)
    }

    /// All four stencil kinds in the paper's table order.
    pub fn all() -> [StencilKind; 4] {
        [StencilKind::Nn2d, StencilKind::Nn2dDiag, StencilKind::Nn3d, StencilKind::Nn3dDiag]
    }
}

/// A stencil application: kind plus grid dimensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StencilApp {
    kind: StencilKind,
    dims: [usize; 3], // 2D stencils use dims[2] == 1
}

impl StencilApp {
    /// Creates a 2D stencil over an `nx × ny` rank grid.
    ///
    /// # Panics
    /// Panics if `kind` is 3D or a dimension is too small for distinct
    /// periodic neighbors (< 3).
    pub fn new_2d(kind: StencilKind, nx: usize, ny: usize) -> Self {
        assert!(!kind.is_3d(), "use new_3d for 3D stencils");
        assert!(nx >= 3 && ny >= 3, "need >= 3 ranks per dimension");
        Self { kind, dims: [nx, ny, 1] }
    }

    /// Creates a 3D stencil over an `nx × ny × nz` rank grid.
    pub fn new_3d(kind: StencilKind, nx: usize, ny: usize, nz: usize) -> Self {
        assert!(kind.is_3d(), "use new_2d for 2D stencils");
        assert!(nx >= 3 && ny >= 3 && nz >= 3, "need >= 3 ranks per dimension");
        Self { kind, dims: [nx, ny, nz] }
    }

    /// Picks near-balanced grid dimensions for `ranks` total processes,
    /// mirroring the paper's choices (60×60 for 3600 ranks in 2D,
    /// 16×15×15 in 3D).
    ///
    /// Returns `None` if `ranks` cannot be factored with all dimensions
    /// >= 3.
    pub fn for_ranks(kind: StencilKind, ranks: usize) -> Option<Self> {
        if kind.is_3d() {
            let (a, b, c) = balanced_3d(ranks)?;
            Some(Self { kind, dims: [a, b, c] })
        } else {
            let (a, b) = balanced_2d(ranks)?;
            Some(Self { kind, dims: [a, b, 1] })
        }
    }

    /// The stencil kind.
    pub fn kind(&self) -> StencilKind {
        self.kind
    }

    /// Grid dimensions (third is 1 for 2D stencils).
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Total number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// The neighbor ranks of `rank` under periodic boundaries, in
    /// deterministic offset order.
    pub fn neighbors(&self, rank: u32) -> Vec<u32> {
        let [nx, ny, nz] = self.dims;
        let r = rank as usize;
        debug_assert!(r < self.num_ranks());
        let x = r % nx;
        let y = (r / nx) % ny;
        let z = r / (nx * ny);
        let wrap = |v: isize, n: usize| ((v + n as isize) % n as isize) as usize;
        let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;

        let diag = matches!(self.kind, StencilKind::Nn2dDiag | StencilKind::Nn3dDiag);
        let mut out = Vec::with_capacity(self.kind.neighbor_count());
        let zrange: &[isize] = if self.kind.is_3d() { &[-1, 0, 1] } else { &[0] };
        for &dz in zrange {
            for dy in -1isize..=1 {
                for dx in -1isize..=1 {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    // Face neighbors have exactly one nonzero offset.
                    let nonzero = (dx != 0) as u32 + (dy != 0) as u32 + (dz != 0) as u32;
                    if !diag && nonzero != 1 {
                        continue;
                    }
                    out.push(idx(
                        wrap(x as isize + dx, nx),
                        wrap(y as isize + dy, ny),
                        wrap(z as isize + dz, nz),
                    ) as u32);
                }
            }
        }
        out
    }
}

/// Most-square factorization `a × b = n` with `a, b >= 3`.
fn balanced_2d(n: usize) -> Option<(usize, usize)> {
    let mut best = None;
    let mut a = (n as f64).sqrt() as usize + 1;
    while a >= 3 {
        if n.is_multiple_of(a) && n / a >= 3 {
            best = Some((a, n / a));
            break;
        }
        a -= 1;
    }
    best
}

/// Most-cubic factorization `a × b × c = n` with all factors >= 3.
fn balanced_3d(n: usize) -> Option<(usize, usize, usize)> {
    let cbrt = (n as f64).cbrt() as usize + 2;
    let mut best: Option<(usize, usize, usize)> = None;
    let mut best_spread = usize::MAX;
    for a in 3..=cbrt.max(3) {
        if !n.is_multiple_of(a) {
            continue;
        }
        if let Some((b, c)) = balanced_2d(n / a) {
            let dims = [a, b, c];
            let spread = dims.iter().max().unwrap() - dims.iter().min().unwrap();
            if spread < best_spread {
                best_spread = spread;
                best = Some((a, b, c));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_match_paper() {
        assert_eq!(StencilKind::Nn2d.name(), "2DNN");
        assert_eq!(StencilKind::Nn2dDiag.name(), "2DNNdiag");
        assert_eq!(StencilKind::Nn3d.name(), "3DNN");
        assert_eq!(StencilKind::Nn3dDiag.name(), "3DNNdiag");
    }

    #[test]
    fn neighbor_counts() {
        let apps = [
            StencilApp::new_2d(StencilKind::Nn2d, 6, 6),
            StencilApp::new_2d(StencilKind::Nn2dDiag, 6, 6),
            StencilApp::new_3d(StencilKind::Nn3d, 4, 4, 4),
            StencilApp::new_3d(StencilKind::Nn3dDiag, 4, 4, 4),
        ];
        for app in &apps {
            for rank in 0..app.num_ranks() as u32 {
                let n = app.neighbors(rank);
                assert_eq!(n.len(), app.kind().neighbor_count(), "{:?} rank {rank}", app.kind());
                let set: HashSet<_> = n.iter().collect();
                assert_eq!(set.len(), n.len(), "duplicate neighbor for rank {rank}");
                assert!(!n.contains(&rank));
            }
        }
    }

    #[test]
    fn neighbors_are_symmetric() {
        // Periodic stencils are symmetric: j in N(i) <=> i in N(j).
        let app = StencilApp::new_3d(StencilKind::Nn3dDiag, 4, 3, 5);
        for i in 0..app.num_ranks() as u32 {
            for j in app.neighbors(i) {
                assert!(app.neighbors(j).contains(&i), "{i} -> {j} not symmetric");
            }
        }
    }

    #[test]
    fn nn2d_neighbors_explicit() {
        // 4x4 grid, rank 5 = (x=1, y=1): face neighbors (0,1),(2,1),(1,0),(1,2)
        // = ranks 4, 6, 1, 9.
        let app = StencilApp::new_2d(StencilKind::Nn2d, 4, 4);
        let mut n = app.neighbors(5);
        n.sort_unstable();
        assert_eq!(n, vec![1, 4, 6, 9]);
    }

    #[test]
    fn wraparound_at_corner() {
        let app = StencilApp::new_2d(StencilKind::Nn2d, 4, 4);
        let mut n = app.neighbors(0); // (0,0): left wraps to x=3, up wraps to y=3
        n.sort_unstable();
        assert_eq!(n, vec![1, 3, 4, 12]);
    }

    #[test]
    fn paper_grid_3600_ranks() {
        let app2 = StencilApp::for_ranks(StencilKind::Nn2d, 3600).unwrap();
        assert_eq!(app2.dims(), [60, 60, 1]); // paper: 60 x 60
        let app3 = StencilApp::for_ranks(StencilKind::Nn3d, 3600).unwrap();
        assert_eq!(app3.num_ranks(), 3600);
        let [a, b, c] = app3.dims();
        assert!(a >= 3 && b >= 3 && c >= 3);
        // paper uses 16 x 15 x 15; any near-cubic factorization is fine,
        // but the spread must be small.
        assert!(a.max(b).max(c) - a.min(b.min(c)) <= 6);
    }

    #[test]
    fn unfactorable_rank_counts() {
        assert!(StencilApp::for_ranks(StencilKind::Nn2d, 7).is_none()); // prime
        assert!(StencilApp::for_ranks(StencilKind::Nn3d, 25).is_none()); // 5*5, no 3rd factor
    }

    #[test]
    #[should_panic(expected = "use new_3d")]
    fn kind_dimension_mismatch_panics() {
        StencilApp::new_2d(StencilKind::Nn3d, 4, 4);
    }
}
