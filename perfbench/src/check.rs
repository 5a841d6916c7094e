//! Independent checks of program outputs: `/paths` bodies against the
//! graph, pristine bodies rendered from an in-process table, and path
//! validity for computed tables.

use jellyfish_routing::PathTable;
use jellyfish_topology::{Graph, NodeId};
use std::fmt::Write as _;

/// Dense adjacency matrix of a switch graph, for O(1) edge checks.
pub struct Adjacency {
    n: usize,
    edge: Vec<bool>,
}

impl Adjacency {
    /// Builds the matrix from `graph`'s edge list.
    pub fn new(graph: &Graph) -> Self {
        let n = graph.num_nodes();
        let mut edge = vec![false; n * n];
        for u in 0..n as NodeId {
            for &v in graph.neighbors(u) {
                edge[u as usize * n + v as usize] = true;
            }
        }
        Self { n, edge }
    }

    /// Number of switches.
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// Whether `u`–`v` is a link.
    pub fn has(&self, u: u64, v: u64) -> bool {
        (u as usize) < self.n
            && (v as usize) < self.n
            && self.edge[u as usize * self.n + v as usize]
    }

    /// Whether `path` is a simple `src -> dst` walk over links.
    pub fn valid_path(&self, src: u64, dst: u64, path: &[u64]) -> bool {
        if path.first() != Some(&src) || path.last() != Some(&dst) || path.len() < 2 {
            return false;
        }
        let mut seen = vec![false; self.n];
        for (i, &v) in path.iter().enumerate() {
            if v as usize >= self.n || std::mem::replace(&mut seen[v as usize], true) {
                return false;
            }
            if i > 0 && !self.has(path[i - 1], v) {
                return false;
            }
        }
        true
    }
}

/// A parsed `/paths` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathsBody {
    /// Echoed source switch.
    pub src: u64,
    /// Echoed destination switch.
    pub dst: u64,
    /// Selection name, e.g. `rEDKSP(8)`.
    pub selection: String,
    /// Stated path count.
    pub k: u64,
    /// The paths, as node lists.
    pub paths: Vec<Vec<u64>>,
}

/// A cursor over the exact byte layout the daemon renders.
struct Cursor<'a> {
    b: &'a [u8],
    i: usize,
}

impl Cursor<'_> {
    fn lit(&mut self, s: &str) -> Option<()> {
        let s = s.as_bytes();
        (self.b.get(self.i..self.i + s.len())? == s).then(|| self.i += s.len())
    }

    fn num(&mut self) -> Option<u64> {
        let start = self.i;
        while self.b.get(self.i).is_some_and(u8::is_ascii_digit) {
            self.i += 1;
        }
        if self.i == start || self.i - start > 19 {
            return None;
        }
        std::str::from_utf8(&self.b[start..self.i]).ok()?.parse().ok()
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }
}

/// Parses a `/paths` body of the form
/// `{"src":S,"dst":D,"selection":"NAME","k":K,"paths":[[..],..]}`.
pub fn parse_paths_body(body: &[u8]) -> Option<PathsBody> {
    let mut c = Cursor { b: body, i: 0 };
    c.lit("{\"src\":")?;
    let src = c.num()?;
    c.lit(",\"dst\":")?;
    let dst = c.num()?;
    c.lit(",\"selection\":\"")?;
    let start = c.i;
    while c.peek()? != b'"' {
        c.i += 1;
    }
    let selection = std::str::from_utf8(&body[start..c.i]).ok()?.to_string();
    c.lit("\",\"k\":")?;
    let k = c.num()?;
    c.lit(",\"paths\":[")?;
    let mut paths = Vec::new();
    if c.peek()? != b']' {
        loop {
            c.lit("[")?;
            let mut path = vec![c.num()?];
            while c.peek()? == b',' {
                c.i += 1;
                path.push(c.num()?);
            }
            c.lit("]")?;
            paths.push(path);
            if c.peek()? == b',' {
                c.i += 1;
            } else {
                break;
            }
        }
    }
    c.lit("]}")?;
    (c.i == body.len()).then_some(PathsBody { src, dst, selection, k, paths })
}

/// Checks one `/paths` answer for `(src, dst)`: it parses, echoes the
/// pair and selection, states its own path count, and lists at most
/// `k_max` simple `src -> dst` paths over the graph's links.
pub fn check_paths_body(
    body: &[u8],
    src: u64,
    dst: u64,
    selection: &str,
    k_max: usize,
    adj: &Adjacency,
) -> Result<(), String> {
    let p = parse_paths_body(body).ok_or("unparseable /paths body")?;
    if p.src != src || p.dst != dst {
        return Err(format!("asked {src}->{dst}, answered {}->{}", p.src, p.dst));
    }
    if p.selection != selection {
        return Err(format!("selection {:?}, expected {selection:?}", p.selection));
    }
    if p.k as usize != p.paths.len() || p.paths.len() > k_max {
        return Err(format!("k {} with {} paths (at most {k_max})", p.k, p.paths.len()));
    }
    match p.paths.iter().find(|path| !adj.valid_path(src, dst, path)) {
        Some(bad) => Err(format!("invalid path {bad:?} for {src}->{dst}")),
        None => Ok(()),
    }
}

/// Renders the `/paths` body for `(src, dst)` from `table`, written
/// here from the documented format rather than by the daemon's code.
pub fn render_paths_body(table: &PathTable, selection: &str, src: NodeId, dst: NodeId) -> String {
    let set = table.get(src, dst).expect("table covers every ordered pair");
    let mut out = format!("{{\"src\":{src},\"dst\":{dst},\"selection\":\"{selection}\",\"k\":");
    let _ = write!(out, "{},\"paths\":[", set.len());
    for (i, path) in set.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, node) in path.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{node}");
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// Whether every ordered pair of `table` holds between 1 and `k`
/// valid simple paths.
pub fn table_is_valid(table: &PathTable, adj: &Adjacency, k: usize) -> bool {
    let n = adj.nodes() as NodeId;
    let mut buf = Vec::new();
    (0..n).all(|s| {
        (0..n).filter(|&d| d != s).all(|d| {
            table.get(s, d).is_some_and(|set| {
                (1..=k).contains(&set.len())
                    && set.iter().all(|p| {
                        buf.clear();
                        buf.extend(p.iter().map(|&v| u64::from(v)));
                        adj.valid_path(u64::from(s), u64::from(d), &buf)
                    })
            })
        })
    })
}
