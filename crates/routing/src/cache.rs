//! Content-addressed on-disk cache for computed [`PathTable`]s.
//!
//! Path-table computation dominates experiment start-up: an all-pairs
//! rKSP(4) table on a 64-switch RRG runs tens of thousands of Yen's
//! searches. The result, however, is a pure function of four inputs — the
//! graph (captured by [`Graph::fingerprint`]), the [`PathSelection`], the
//! [`PairSet`] and the table seed. This module keys a binary cache on
//! exactly that tuple, so re-running an experiment with unchanged inputs
//! loads the table instead of recomputing it.
//!
//! # The `jellyfish-ptab v2` format
//!
//! Little-endian throughout:
//!
//! ```text
//! magic    [u8; 8]  = b"JFPTAB\r\n"   (the \r\n catches text-mode mangling)
//! version  u32      = 2
//! key block:
//!   fingerprint u64   graph CSR fingerprint
//!   n           u64   switch count
//!   seed        u64   table seed
//!   sel_tag     u8    0=SP 1=KSP 2=rKSP 3=EDKSP 4=rEDKSP 5=LLSKR
//!   sel params  3×u64 (k, 0, 0) or (spread, min_paths, max_paths)
//!   pair_tag    u8    0=all ordered pairs (dense), 1=explicit list
//!   pair_count  u64
//!   pairs_digest u64  FNV-1a of the materialized pair list (0 for all-pairs)
//! body:
//!   entry_count u64
//!   entries sorted ascending by (s, d), each:
//!     s u32, d u32, path_count u32,
//!     then per path: varint node_count,
//!     then: varint stream_len, stream_len bytes of the shared-prefix
//!     + zigzag-varint node stream (DESIGN.md §14)
//! footer:
//!   checksum u64      FNV-1a over every preceding byte
//! ```
//!
//! v2 replaces v1's raw `u32`-per-node path payload with that stream
//! (shared-prefix + delta encoding), roughly a 3× shrink for all-pairs
//! k-path tables; v1 files are rejected with
//! [`CacheError::BadVersion`] and transparently recomputed.
//!
//! Readers verify the checksum before parsing, validate every node id and
//! path endpoint, and return a [`CacheError`] — never panic — on
//! truncated, corrupted or version-skewed input. Entries are written
//! sorted, so a table serializes to identical bytes regardless of how many
//! threads computed it (the determinism tests in `tests/` pin this down).
//!
//! # Invalidation & bounding
//!
//! Invalidation is by construction: the file name is derived from the key
//! block, so any change to the graph, scheme, pair set or seed addresses a
//! different file. Stale files are never *read* again — but a long-running
//! service under fault/expansion churn mints a new key per topology
//! variant, so an unbounded store leaks disk without bound. A
//! [`DiskBudget`] (count and/or byte limit) therefore bounds the on-disk
//! store with least-recently-used eviction: every disk hit bumps the
//! file's mtime, and after every store the oldest files are deleted until
//! the budget holds again (the just-written file is always kept, so the
//! cache functions even under a budget smaller than one table).
//! `jellytool cache clear` still empties the store outright.
//!
//! # Service hardening
//!
//! [`PathCache`] is shared by every request thread of a long-running
//! daemon, so two failure modes that are harmless in batch runs are
//! handled explicitly:
//!
//! * **Lock poisoning** — a request thread that panics while holding the
//!   in-memory LRU lock must not turn every later query into an abort.
//!   All internal locks recover the guard from [`std::sync::PoisonError`]
//!   (the maps are updated in single, non-panicking steps, so a poisoned
//!   guard still protects consistent data) and count the recovery in
//!   `routing.cache.poison_recovered`.
//! * **Thundering herds** — [`PathCache::load_or_compute`] is
//!   single-flight per [`CacheKey`]: concurrent misses on the same key
//!   coalesce onto one leader's compute, and every follower gets the same
//!   [`Arc`] (counted in `routing.cache.coalesced`). A leader that panics
//!   abandons the flight; waiting followers retry and one of them becomes
//!   the new leader.

use crate::table::{PairSet, PathSelection, PathSet, PathTable};
use crate::LlskrConfig;
use jellyfish_topology::{Graph, NodeId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};

const MAGIC: [u8; 8] = *b"JFPTAB\r\n";
const VERSION: u32 = 2;

/// Why a cache file was rejected or could not be produced.
#[derive(Debug)]
pub enum CacheError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The file does not start with the `jellyfish-ptab` magic.
    BadMagic,
    /// The file uses an unsupported format version.
    BadVersion(u32),
    /// The file ends before the declared content does.
    Truncated,
    /// The trailing checksum does not match the content.
    BadChecksum,
    /// The content is structurally invalid (bad ids, unsorted entries…).
    Corrupt(&'static str),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io(e) => write!(f, "i/o error: {e}"),
            CacheError::BadMagic => write!(f, "not a jellyfish-ptab file (bad magic)"),
            CacheError::BadVersion(v) => {
                write!(f, "unsupported jellyfish-ptab version {v} (expected {VERSION})")
            }
            CacheError::Truncated => write!(f, "truncated jellyfish-ptab file"),
            CacheError::BadChecksum => write!(f, "jellyfish-ptab checksum mismatch"),
            CacheError::Corrupt(what) => write!(f, "corrupt jellyfish-ptab file: {what}"),
        }
    }
}

impl std::error::Error for CacheError {}

impl From<io::Error> for CacheError {
    fn from(e: io::Error) -> Self {
        CacheError::Io(e)
    }
}

/// 64-bit FNV-1a over a byte slice (same constants as
/// [`Graph::fingerprint`]).
fn fnv1a(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// The content-address of one cached table: every input that determines
/// the table's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    fingerprint: u64,
    n: u64,
    seed: u64,
    sel_tag: u8,
    sel_params: [u64; 3],
    pair_tag: u8,
    pair_count: u64,
    pairs_digest: u64,
}

impl CacheKey {
    /// Derives the key for computing `selection` over `pairs` on `graph`
    /// with `seed`.
    pub fn new(graph: &Graph, selection: PathSelection, pairs: &PairSet, seed: u64) -> Self {
        let (sel_tag, sel_params) = encode_selection(selection);
        let n = graph.num_nodes();
        let (pair_tag, pair_count, pairs_digest) = match pairs {
            PairSet::AllPairs => (0u8, (n * n.saturating_sub(1)) as u64, 0u64),
            PairSet::Pairs(_) => {
                let list = pairs.materialize(n);
                let mut bytes = Vec::with_capacity(list.len() * 8);
                for &(s, d) in &list {
                    bytes.extend_from_slice(&s.to_le_bytes());
                    bytes.extend_from_slice(&d.to_le_bytes());
                }
                (1u8, list.len() as u64, fnv1a(&bytes))
            }
        };
        Self {
            fingerprint: graph.fingerprint(),
            n: n as u64,
            seed,
            sel_tag,
            sel_params,
            pair_tag,
            pair_count,
            pairs_digest,
        }
    }

    /// Serializes the key block (everything after magic + version).
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        out.extend_from_slice(&self.n.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.push(self.sel_tag);
        for p in self.sel_params {
            out.extend_from_slice(&p.to_le_bytes());
        }
        out.push(self.pair_tag);
        out.extend_from_slice(&self.pair_count.to_le_bytes());
        out.extend_from_slice(&self.pairs_digest.to_le_bytes());
    }

    /// The file name this key addresses: 16 hex digits of the key digest.
    pub fn file_name(&self) -> String {
        let mut bytes = Vec::with_capacity(64);
        self.encode_into(&mut bytes);
        format!("{:016x}.ptab", fnv1a(&bytes))
    }

    /// The selection the key was built for.
    pub fn selection(&self) -> Option<PathSelection> {
        decode_selection(self.sel_tag, self.sel_params).ok()
    }

    /// Switch count of the keyed graph.
    pub fn num_switches(&self) -> usize {
        self.n as usize
    }

    /// Table seed of the keyed computation.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Human-readable pair coverage, e.g. `all-pairs` or `pairs(12)`.
    pub fn pairs_summary(&self) -> String {
        if self.pair_tag == 0 {
            "all-pairs".into()
        } else {
            format!("pairs({})", self.pair_count)
        }
    }
}

fn encode_selection(selection: PathSelection) -> (u8, [u64; 3]) {
    match selection {
        PathSelection::SinglePath => (0, [0, 0, 0]),
        PathSelection::Ksp(k) => (1, [k as u64, 0, 0]),
        PathSelection::RKsp(k) => (2, [k as u64, 0, 0]),
        PathSelection::EdKsp(k) => (3, [k as u64, 0, 0]),
        PathSelection::REdKsp(k) => (4, [k as u64, 0, 0]),
        PathSelection::Llskr(c) => (5, [c.spread as u64, c.min_paths as u64, c.max_paths as u64]),
    }
}

fn decode_selection(tag: u8, p: [u64; 3]) -> Result<PathSelection, CacheError> {
    Ok(match tag {
        0 => PathSelection::SinglePath,
        1 => PathSelection::Ksp(p[0] as usize),
        2 => PathSelection::RKsp(p[0] as usize),
        3 => PathSelection::EdKsp(p[0] as usize),
        4 => PathSelection::REdKsp(p[0] as usize),
        5 => PathSelection::Llskr(LlskrConfig {
            spread: p[0] as u32,
            min_paths: p[1] as usize,
            max_paths: p[2] as usize,
        }),
        _ => return Err(CacheError::Corrupt("unknown selection tag")),
    })
}

/// Serializes `table` under `key` to `jellyfish-ptab v2` bytes.
///
/// Entries are emitted sorted by `(s, d)`, so identical tables produce
/// identical bytes independent of thread count or hash-map iteration
/// order. The per-entry payload is the shared-prefix node stream of the
/// module-level format description.
pub fn encode_table(table: &PathTable, key: &CacheKey) -> Vec<u8> {
    let _span = jellyfish_obs::span("routing.cache.serialize");
    debug_assert_eq!(
        table.is_dense(),
        key.pair_tag == 0,
        "dense storage must coincide with the all-pairs key tag"
    );
    let entries = table.cache_entries();
    let mut out = Vec::with_capacity(64 + entries.len() * 16);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    key.encode_into(&mut out);
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    let mut stream = Vec::new();
    for (s, d, set) in entries {
        out.extend_from_slice(&s.to_le_bytes());
        out.extend_from_slice(&d.to_le_bytes());
        out.extend_from_slice(&(set.len() as u32).to_le_bytes());
        for path in set.iter() {
            write_varint(&mut out, path.len() as u64);
        }
        stream.clear();
        encode_stream_into(set, &mut stream);
        write_varint(&mut out, stream.len() as u64);
        out.extend_from_slice(&stream);
    }
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Appends the shared-prefix + zigzag-varint encoding of `set`'s node
/// stream to `out`.
///
/// Per path: `varint(prefix)` — the number of leading nodes shared with
/// the *previous* path in the set (0 for the first) — followed by one
/// zigzag-varint delta per remaining node, each relative to the preceding
/// node of the same path (the first node of a prefix-less path is delta'd
/// from 0). Length-sorted k-path sets share at least the source switch
/// and often several leading hops, and deltas halve the byte cost of
/// random node ids.
fn encode_stream_into(set: &PathSet, out: &mut Vec<u8>) {
    let mut prev_path: &[NodeId] = &[];
    for path in set.iter() {
        let prefix = path.iter().zip(prev_path).take_while(|(a, b)| a == b).count();
        write_varint(out, prefix as u64);
        let mut prev = if prefix == 0 { 0 } else { path[prefix - 1] };
        for &node in &path[prefix..] {
            write_varint(out, zigzag(node as i64 - prev as i64));
            prev = node;
        }
        prev_path = path;
    }
}

/// Decodes the stream produced by [`encode_stream_into`] for paths ending
/// at the cumulative offsets `ends`; `None` on any corruption. Strict:
/// `ends` must be strictly increasing from a non-zero first offset, no
/// prefix may exceed either path's length, and the whole byte stream
/// must be consumed.
fn decode_stream(bytes: &[u8], ends: &[u32]) -> Option<Vec<NodeId>> {
    let total = ends.last().copied().unwrap_or(0) as usize;
    let mut nodes: Vec<NodeId> = Vec::with_capacity(total);
    let mut pos = 0usize;
    let mut prev_start = 0usize;
    let mut lo = 0usize;
    for &e in ends {
        if e as usize <= lo {
            return None;
        }
        let len = e as usize - lo;
        let prefix = read_varint(bytes, &mut pos)? as usize;
        let prev_len = lo - prev_start;
        if prefix > len || prefix > prev_len {
            return None;
        }
        for j in 0..prefix {
            let shared = nodes[prev_start + j];
            nodes.push(shared);
        }
        let mut prev = if prefix == 0 { 0i64 } else { nodes[lo + prefix - 1] as i64 };
        for _ in prefix..len {
            let delta = unzigzag(read_varint(bytes, &mut pos)?);
            let node = prev + delta;
            if !(0..=u32::MAX as i64).contains(&node) {
                return None;
            }
            nodes.push(node as NodeId);
            prev = node;
        }
        prev_start = lo;
        lo = e as usize;
    }
    if pos != bytes.len() {
        return None; // trailing garbage
    }
    Some(nodes)
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let &byte = bytes.get(*pos)?;
        *pos += 1;
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Bounds-checked little-endian reader over untrusted bytes.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], CacheError> {
        let end = self.pos.checked_add(len).ok_or(CacheError::Truncated)?;
        if end > self.buf.len() {
            return Err(CacheError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CacheError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CacheError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, CacheError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn varint(&mut self) -> Result<u64, CacheError> {
        read_varint(self.buf, &mut self.pos).ok_or(CacheError::Truncated)
    }
}

/// Parses only the key block of a `jellyfish-ptab v2` file (checksum is
/// still verified over the whole file). Used by `jellytool cache stats`.
pub fn decode_key(bytes: &[u8]) -> Result<CacheKey, CacheError> {
    let mut cur = verify_envelope(bytes)?;
    read_key(&mut cur)
}

/// Verifies magic, version and trailing checksum; returns a cursor
/// positioned at the key block.
fn verify_envelope(bytes: &[u8]) -> Result<Cursor<'_>, CacheError> {
    let mut cur = Cursor { buf: bytes, pos: 0 };
    if cur.take(8).map_err(|_| CacheError::Truncated)? != MAGIC {
        return Err(CacheError::BadMagic);
    }
    let version = cur.u32()?;
    if version != VERSION {
        return Err(CacheError::BadVersion(version));
    }
    if bytes.len() < 20 {
        return Err(CacheError::Truncated);
    }
    let body = &bytes[..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    if fnv1a(body) != stored {
        return Err(CacheError::BadChecksum);
    }
    // Hide the footer from the cursor so body parsing cannot consume it.
    cur.buf = body;
    Ok(cur)
}

fn read_key(cur: &mut Cursor<'_>) -> Result<CacheKey, CacheError> {
    let fingerprint = cur.u64()?;
    let n = cur.u64()?;
    let seed = cur.u64()?;
    let sel_tag = cur.u8()?;
    let sel_params = [cur.u64()?, cur.u64()?, cur.u64()?];
    decode_selection(sel_tag, sel_params)?;
    let pair_tag = cur.u8()?;
    if pair_tag > 1 {
        return Err(CacheError::Corrupt("unknown pair-set tag"));
    }
    let pair_count = cur.u64()?;
    let pairs_digest = cur.u64()?;
    Ok(CacheKey { fingerprint, n, seed, sel_tag, sel_params, pair_tag, pair_count, pairs_digest })
}

/// Parses a full `jellyfish-ptab v2` file into its key and table.
///
/// Strict: the checksum must match, node ids must be in range, path
/// endpoints must equal the entry's pair, entries must be strictly sorted,
/// every node stream must decode exactly and no trailing bytes may
/// remain. Returns [`CacheError`] on any violation — this function never
/// panics on untrusted input. A round trip is indistinguishable from the
/// in-memory computation.
pub fn decode_table(bytes: &[u8]) -> Result<(CacheKey, PathTable), CacheError> {
    let _span = jellyfish_obs::span("routing.cache.deserialize");
    let mut cur = verify_envelope(bytes)?;
    let key = read_key(&mut cur)?;
    let selection = decode_selection(key.sel_tag, key.sel_params).expect("validated by read_key");
    if key.n > u32::MAX as u64 {
        return Err(CacheError::Corrupt("switch count exceeds u32 range"));
    }
    let n = key.n as usize;

    let entry_count = cur.u64()?;
    if key.pair_tag == 0 && entry_count != key.n * key.n.saturating_sub(1) {
        return Err(CacheError::Corrupt("all-pairs table with wrong entry count"));
    }
    let mut entries: Vec<((NodeId, NodeId), PathSet)> = Vec::new();
    let mut prev: Option<(NodeId, NodeId)> = None;
    for _ in 0..entry_count {
        let s = cur.u32()?;
        let d = cur.u32()?;
        if s as usize >= n || d as usize >= n || s == d {
            return Err(CacheError::Corrupt("pair id out of range"));
        }
        if prev.is_some_and(|p| p >= (s, d)) {
            return Err(CacheError::Corrupt("entries not strictly sorted"));
        }
        prev = Some((s, d));
        let path_count = cur.u32()?;
        if path_count as u64 > key.n.saturating_mul(key.n) {
            return Err(CacheError::Corrupt("implausible path count"));
        }
        let mut ends: Vec<u32> = Vec::with_capacity(path_count as usize);
        let mut total = 0u64;
        for _ in 0..path_count {
            let len = cur.varint()?;
            if len < 2 {
                return Err(CacheError::Corrupt("path shorter than one hop"));
            }
            total += len;
            if total > u32::MAX as u64 {
                return Err(CacheError::Corrupt("path nodes exceed u32 offsets"));
            }
            ends.push(total as u32);
        }
        let stream_len = cur.varint()? as usize;
        let nodes = decode_stream(cur.take(stream_len)?, &ends)
            .ok_or(CacheError::Corrupt("path node stream does not decode"))?;
        let set = PathSet { nodes, ends };
        for path in set.iter() {
            if path.iter().any(|&v| v as usize >= n) {
                return Err(CacheError::Corrupt("path node out of range"));
            }
            if path[0] != s || *path.last().expect("len >= 2") != d {
                return Err(CacheError::Corrupt("path endpoints disagree with pair"));
            }
        }
        entries.push(((s, d), set));
    }
    if cur.pos != cur.buf.len() {
        return Err(CacheError::Corrupt("trailing bytes after last entry"));
    }
    let table = PathTable::from_cache_entries(selection, n, entries, key.pair_tag == 0);
    Ok((key, table))
}

/// Aggregate on-disk cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of `.ptab` files in the cache directory.
    pub files: usize,
    /// Total size of those files in bytes.
    pub bytes: u64,
}

/// Description of one cached file, as shown by `jellytool cache stats`.
#[derive(Debug)]
pub struct CacheEntryInfo {
    /// File name within the cache directory.
    pub file: String,
    /// File size in bytes.
    pub bytes: u64,
    /// Parsed key, if the file is a valid `jellyfish-ptab v2`.
    pub key: Result<CacheKey, CacheError>,
}

/// Count/byte bounds on the on-disk store, enforced by LRU eviction
/// after every store (see the module docs). `None` means unbounded on
/// that axis; [`DiskBudget::UNBOUNDED`] is the [`PathCache::new`]
/// default, preserving batch-run behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskBudget {
    /// Maximum number of `.ptab` files kept on disk.
    pub max_files: Option<usize>,
    /// Maximum total size of `.ptab` files, in bytes.
    pub max_bytes: Option<u64>,
}

impl DiskBudget {
    /// No bound on either axis (the default).
    pub const UNBOUNDED: Self = Self { max_files: None, max_bytes: None };

    /// A budget bounded on both axes.
    pub fn bounded(max_files: usize, max_bytes: u64) -> Self {
        Self { max_files: Some(max_files), max_bytes: Some(max_bytes) }
    }

    /// Whether any axis is bounded.
    pub fn is_bounded(&self) -> bool {
        self.max_files.is_some() || self.max_bytes.is_some()
    }
}

/// Point-in-time snapshot of one cache instance's outcome counters
/// (also mirrored into the global [`jellyfish_obs`] registry under
/// `routing.cache.*`). Per-instance so a daemon's `/healthz` can report
/// its own hit rate regardless of what else the process ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Queries answered from the in-memory LRU.
    pub mem_hits: u64,
    /// Queries answered by loading and validating an on-disk file.
    pub disk_hits: u64,
    /// Queries that ran the full path-table computation.
    pub computes: u64,
    /// Queries that coalesced onto another thread's in-flight compute.
    pub coalesced: u64,
    /// On-disk files deleted by [`DiskBudget`] eviction.
    pub disk_evictions: u64,
    /// Lock-poisoning recoveries (a panicking holder was survived).
    pub poison_recovered: u64,
}

impl CacheCounters {
    /// Fraction of queries served without a compute (`NaN`-free: 0.0
    /// when nothing was queried yet).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.mem_hits + self.disk_hits + self.coalesced;
        let total = hits + self.computes;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

#[derive(Default)]
struct AtomicCounters {
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    computes: AtomicU64,
    coalesced: AtomicU64,
    disk_evictions: AtomicU64,
    poison_recovered: AtomicU64,
}

/// One in-flight computation that concurrent misses on the same key
/// coalesce onto.
struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

enum FlightState {
    /// The leader is still loading/computing.
    Pending,
    /// The leader published its result; every follower returns this
    /// same [`Arc`].
    Done(Arc<PathTable>),
    /// The leader panicked before publishing; followers retry (one
    /// becomes the new leader).
    Abandoned,
}

impl Flight {
    fn new() -> Self {
        Self { state: Mutex::new(FlightState::Pending), cv: Condvar::new() }
    }
}

/// Removes the flight from the in-flight map when the leader is done —
/// including by panic, in which case the still-`Pending` flight is
/// marked [`FlightState::Abandoned`] so waiting followers wake up and
/// retry instead of blocking forever.
struct FlightGuard<'a> {
    cache: &'a PathCache,
    key: CacheKey,
    flight: &'a Arc<Flight>,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        {
            let mut st = self.cache.lock_recovering(&self.flight.state);
            if matches!(*st, FlightState::Pending) {
                *st = FlightState::Abandoned;
                // Dropping while still pending means the leader is
                // unwinding: followers are about to be released to retry.
                jellyfish_obs::journal::publish(
                    0,
                    jellyfish_obs::journal::EventKind::CacheFlightAbandoned,
                );
            }
        }
        self.flight.cv.notify_all();
        self.cache.lock_recovering(&self.cache.inflight).remove(&self.key);
    }
}

/// Content-addressed path-table store: an in-process LRU in front of a
/// directory of `jellyfish-ptab v2` files.
///
/// [`PathCache::load_or_compute`] is the front door: memory hit, else
/// disk hit (with full validation — a corrupt file is treated as a miss
/// and overwritten), else compute-and-store, with concurrent misses on
/// the same key coalesced onto a single compute. All outcomes are
/// counted per instance ([`PathCache::counters`]) and in the
/// [`jellyfish_obs`] registry under `routing.cache.*`.
pub struct PathCache {
    dir: PathBuf,
    capacity: usize,
    disk_budget: DiskBudget,
    lru: Mutex<LruState>,
    inflight: Mutex<HashMap<CacheKey, Arc<Flight>>>,
    counters: AtomicCounters,
}

#[derive(Default)]
struct LruState {
    tick: u64,
    map: HashMap<CacheKey, (u64, Arc<PathTable>)>,
}

impl fmt::Debug for PathCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PathCache")
            .field("dir", &self.dir)
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl PathCache {
    /// Default number of tables kept in memory.
    pub const DEFAULT_CAPACITY: usize = 8;

    /// Opens (creating if needed) a cache rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        Self::with_capacity(dir, Self::DEFAULT_CAPACITY)
    }

    /// [`PathCache::new`] with an explicit in-memory LRU capacity.
    pub fn with_capacity(dir: impl Into<PathBuf>, capacity: usize) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            capacity: capacity.max(1),
            disk_budget: DiskBudget::UNBOUNDED,
            lru: Mutex::new(LruState::default()),
            inflight: Mutex::new(HashMap::new()),
            counters: AtomicCounters::default(),
        })
    }

    /// Bounds the on-disk store (builder style); see [`DiskBudget`].
    pub fn with_disk_budget(mut self, budget: DiskBudget) -> Self {
        self.disk_budget = budget;
        self
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured on-disk budget.
    pub fn disk_budget(&self) -> DiskBudget {
        self.disk_budget
    }

    /// Snapshot of this instance's outcome counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            mem_hits: self.counters.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.counters.disk_hits.load(Ordering::Relaxed),
            computes: self.counters.computes.load(Ordering::Relaxed),
            coalesced: self.counters.coalesced.load(Ordering::Relaxed),
            disk_evictions: self.counters.disk_evictions.load(Ordering::Relaxed),
            poison_recovered: self.counters.poison_recovered.load(Ordering::Relaxed),
        }
    }

    /// Locks `m`, recovering the guard if a previous holder panicked:
    /// every critical section over these maps is a single non-panicking
    /// update, so the data behind a poisoned lock is still consistent
    /// and denying all future queries would turn one bad request into a
    /// permanent outage.
    fn lock_recovering<'a, T>(&self, m: &'a Mutex<T>) -> MutexGuard<'a, T> {
        m.lock().unwrap_or_else(|poisoned| {
            self.counters.poison_recovered.fetch_add(1, Ordering::Relaxed);
            jellyfish_obs::global().counter_add("routing.cache.poison_recovered", 1);
            jellyfish_obs::journal::publish(
                0,
                jellyfish_obs::journal::EventKind::CachePoisonRecovered,
            );
            poisoned.into_inner()
        })
    }

    /// Returns the table for `(graph, selection, pairs, seed)`, loading it
    /// from memory or disk when cached and computing (then storing) it
    /// otherwise. The result is always identical to
    /// [`PathTable::compute`] on the same inputs.
    ///
    /// Single-flight: concurrent misses on the same key run one compute;
    /// every caller gets the same [`Arc`].
    pub fn load_or_compute(
        &self,
        graph: &Graph,
        selection: PathSelection,
        pairs: &PairSet,
        seed: u64,
    ) -> Arc<PathTable> {
        let key = CacheKey::new(graph, selection, pairs, seed);
        loop {
            if let Some(table) = self.lru_get(&key) {
                self.counters.mem_hits.fetch_add(1, Ordering::Relaxed);
                jellyfish_obs::global().counter_add("routing.cache.mem_hits", 1);
                return table;
            }
            // Join the in-flight computation for this key, or lead one.
            let (flight, leader) = {
                let mut inflight = self.lock_recovering(&self.inflight);
                match inflight.entry(key) {
                    Entry::Occupied(e) => (Arc::clone(e.get()), false),
                    Entry::Vacant(v) => {
                        let f = Arc::new(Flight::new());
                        v.insert(Arc::clone(&f));
                        (f, true)
                    }
                }
            };
            if !leader {
                self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                jellyfish_obs::global().counter_add("routing.cache.coalesced", 1);
                let mut st = self.lock_recovering(&flight.state);
                loop {
                    match &*st {
                        FlightState::Done(table) => return Arc::clone(table),
                        FlightState::Abandoned => break,
                        FlightState::Pending => {
                            st = flight.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                        }
                    }
                }
                // The leader panicked before publishing; retry from the
                // top (this thread may become the new leader).
                continue;
            }
            // Leader: the guard abandons the flight if the load/compute
            // below panics, so followers never block forever.
            let guard = FlightGuard { cache: self, key, flight: &flight };
            let table = self.load_or_compute_slow(graph, selection, pairs, seed, &key);
            {
                let mut st = self.lock_recovering(&flight.state);
                *st = FlightState::Done(Arc::clone(&table));
            }
            flight.cv.notify_all();
            drop(guard);
            return table;
        }
    }

    /// The miss path: disk load (validated) or compute-and-store, plus
    /// LRU insertion. Runs on exactly one thread per in-flight key.
    fn load_or_compute_slow(
        &self,
        graph: &Graph,
        selection: PathSelection,
        pairs: &PairSet,
        seed: u64,
        key: &CacheKey,
    ) -> Arc<PathTable> {
        let path = self.dir.join(key.file_name());
        match std::fs::read(&path) {
            Ok(bytes) => match decode_table(&bytes) {
                Ok((stored_key, table)) if stored_key == *key => {
                    self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
                    let mut obs = jellyfish_obs::global();
                    obs.counter_add("routing.cache.disk_hits", 1);
                    obs.counter_add("routing.cache.bytes_read", bytes.len() as u64);
                    drop(obs);
                    // Best-effort LRU touch: the eviction order below is
                    // by mtime, so a read must count as recent use.
                    touch(&path);
                    let table = Arc::new(table);
                    self.lru_put(*key, Arc::clone(&table));
                    return table;
                }
                Ok(_) => {
                    // File-name digest collision: treat as a miss and let
                    // the recompute overwrite the colliding file.
                    jellyfish_obs::global().counter_add("routing.cache.key_mismatches", 1);
                }
                Err(_) => {
                    jellyfish_obs::global().counter_add("routing.cache.rejected", 1);
                }
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(_) => {
                jellyfish_obs::global().counter_add("routing.cache.io_errors", 1);
            }
        }
        self.counters.computes.fetch_add(1, Ordering::Relaxed);
        jellyfish_obs::global().counter_add("routing.cache.misses", 1);
        let table = Arc::new(PathTable::compute(graph, selection, pairs, seed));
        let bytes = encode_table(&table, key);
        if self.write_atomic(&path, &bytes).is_ok() {
            jellyfish_obs::global().counter_add("routing.cache.bytes_written", bytes.len() as u64);
            self.enforce_disk_budget(&path);
        } else {
            jellyfish_obs::global().counter_add("routing.cache.io_errors", 1);
        }
        self.lru_put(*key, Arc::clone(&table));
        table
    }

    /// Evicts least-recently-used `.ptab` files (oldest mtime first)
    /// until the [`DiskBudget`] holds. `just_written` is always kept, so
    /// even a budget smaller than one table leaves the cache usable.
    /// Best-effort: I/O errors skip the file rather than failing the
    /// query that triggered enforcement.
    fn enforce_disk_budget(&self, just_written: &Path) {
        if !self.disk_budget.is_bounded() {
            return;
        }
        let Ok(entries) = std::fs::read_dir(&self.dir) else { return };
        let mut files: Vec<(std::time::SystemTime, PathBuf, u64)> = Vec::new();
        let mut total_bytes = 0u64;
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_none_or(|e| e != "ptab") {
                continue;
            }
            let Ok(meta) = entry.metadata() else { continue };
            let len = meta.len();
            total_bytes += len;
            // Unreadable mtimes sort first (most evictable).
            let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
            files.push((mtime, path, len));
        }
        // Oldest first; ties broken by name so eviction is deterministic
        // on coarse-mtime filesystems.
        files.sort();
        let mut count = files.len();
        for (_, path, len) in files {
            let over_files = self.disk_budget.max_files.is_some_and(|m| count > m);
            let over_bytes = self.disk_budget.max_bytes.is_some_and(|m| total_bytes > m);
            if !over_files && !over_bytes {
                break;
            }
            if path == just_written {
                continue;
            }
            if std::fs::remove_file(&path).is_ok() {
                count -= 1;
                total_bytes = total_bytes.saturating_sub(len);
                self.counters.disk_evictions.fetch_add(1, Ordering::Relaxed);
                {
                    let mut obs = jellyfish_obs::global();
                    obs.counter_add("routing.cache.disk_evictions", 1);
                    obs.counter_add("routing.cache.disk_evicted_bytes", len);
                }
                jellyfish_obs::journal::publish(
                    0,
                    jellyfish_obs::journal::EventKind::CacheEvicted { bytes: len },
                );
            }
        }
    }

    /// Write-then-rename so concurrent processes sharing the directory
    /// never observe a half-written file.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, path)
    }

    fn lru_get(&self, key: &CacheKey) -> Option<Arc<PathTable>> {
        let mut lru = self.lock_recovering(&self.lru);
        lru.tick += 1;
        let tick = lru.tick;
        lru.map.get_mut(key).map(|slot| {
            slot.0 = tick;
            Arc::clone(&slot.1)
        })
    }

    fn lru_put(&self, key: CacheKey, table: Arc<PathTable>) {
        let mut lru = self.lock_recovering(&self.lru);
        lru.tick += 1;
        let tick = lru.tick;
        lru.map.insert(key, (tick, table));
        while lru.map.len() > self.capacity {
            let oldest = *lru
                .map
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k)
                .expect("map non-empty");
            lru.map.remove(&oldest);
        }
    }

    /// Aggregate file count and byte size of the on-disk store.
    pub fn stats(&self) -> io::Result<CacheStats> {
        let mut stats = CacheStats { files: 0, bytes: 0 };
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.path().extension().is_some_and(|e| e == "ptab") {
                stats.files += 1;
                stats.bytes += entry.metadata()?.len();
            }
        }
        Ok(stats)
    }

    /// Per-file descriptions (sorted by file name) for `jellytool cache
    /// stats`. Invalid files are reported with their rejection reason.
    pub fn manifest(&self) -> io::Result<Vec<CacheEntryInfo>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().is_none_or(|e| e != "ptab") {
                continue;
            }
            let file = path.file_name().and_then(|f| f.to_str()).unwrap_or("?").to_string();
            let bytes = entry.metadata()?.len();
            let key = std::fs::read(&path).map_err(CacheError::Io).and_then(|b| decode_key(&b));
            out.push(CacheEntryInfo { file, bytes, key });
        }
        out.sort_by(|a, b| a.file.cmp(&b.file));
        Ok(out)
    }

    /// Deletes every `.ptab` file and drops the in-memory LRU. Returns the
    /// number of files removed.
    pub fn clear(&self) -> io::Result<usize> {
        let mut removed = 0;
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.path().extension().is_some_and(|e| e == "ptab") {
                std::fs::remove_file(entry.path())?;
                removed += 1;
            }
        }
        let mut lru = self.lock_recovering(&self.lru);
        lru.map.clear();
        Ok(removed)
    }
}

/// Best-effort mtime bump to "now", marking the file recently used for
/// [`DiskBudget`] eviction. Failures (read-only stores, exotic
/// filesystems) are ignored: they only make eviction order approximate.
fn touch(path: &Path) {
    if let Ok(file) = std::fs::OpenOptions::new().write(true).open(path) {
        let _ = file.set_modified(std::time::SystemTime::now());
    }
}

static GLOBAL: OnceLock<RwLock<Option<Arc<PathCache>>>> = OnceLock::new();

fn global_slot() -> &'static RwLock<Option<Arc<PathCache>>> {
    GLOBAL.get_or_init(|| RwLock::new(None))
}

/// Installs `cache` as the process-wide path cache consulted by
/// [`load_or_compute_global`] (and therefore by every experiment driver
/// that computes tables through `JellyfishNetwork::paths`).
pub fn install_global(cache: PathCache) {
    *global_slot().write().unwrap_or_else(PoisonError::into_inner) = Some(Arc::new(cache));
}

/// The currently installed process-wide cache, if any. Recovers from a
/// poisoned slot: the stored value is only ever replaced wholesale, so
/// a panicking writer cannot leave it half-updated.
pub fn global_cache() -> Option<Arc<PathCache>> {
    global_slot().read().unwrap_or_else(PoisonError::into_inner).clone()
}

/// [`PathTable::compute`] through the process-wide cache when one is
/// installed, plain compute otherwise. Results are identical either way.
pub fn load_or_compute_global(
    graph: &Graph,
    selection: PathSelection,
    pairs: &PairSet,
    seed: u64,
) -> PathTable {
    match global_cache() {
        Some(cache) => (*cache.load_or_compute(graph, selection, pairs, seed)).clone(),
        None => PathTable::compute(graph, selection, pairs, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let id = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("jfptab-unit-{}-{tag}-{id}", std::process::id()))
    }

    fn small_graph() -> Graph {
        crate::bfs::tests::figure3()
    }

    #[test]
    fn key_is_content_sensitive() {
        let g = small_graph();
        let base = CacheKey::new(&g, PathSelection::Ksp(4), &PairSet::AllPairs, 7);
        assert_eq!(base, CacheKey::new(&g, PathSelection::Ksp(4), &PairSet::AllPairs, 7));
        assert_ne!(base, CacheKey::new(&g, PathSelection::Ksp(4), &PairSet::AllPairs, 8));
        assert_ne!(base, CacheKey::new(&g, PathSelection::RKsp(4), &PairSet::AllPairs, 7));
        assert_ne!(base, CacheKey::new(&g, PathSelection::Ksp(3), &PairSet::AllPairs, 7));
        assert_ne!(
            base,
            CacheKey::new(&g, PathSelection::Ksp(4), &PairSet::Pairs(vec![(0, 9)]), 7)
        );
        let other = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        assert_ne!(base, CacheKey::new(&other, PathSelection::Ksp(4), &PairSet::AllPairs, 7));
    }

    #[test]
    fn pair_list_key_is_order_insensitive() {
        // materialize() sorts and dedups, so permuted or duplicated pair
        // lists address the same cache entry.
        let g = small_graph();
        let a = CacheKey::new(&g, PathSelection::Ksp(2), &PairSet::Pairs(vec![(0, 9), (3, 5)]), 1);
        let b = CacheKey::new(
            &g,
            PathSelection::Ksp(2),
            &PairSet::Pairs(vec![(3, 5), (0, 9), (0, 9)]),
            1,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn roundtrip_all_schemes_dense_and_sparse() {
        let g = small_graph();
        let selections = [
            PathSelection::SinglePath,
            PathSelection::Ksp(3),
            PathSelection::RKsp(3),
            PathSelection::EdKsp(3),
            PathSelection::REdKsp(3),
            PathSelection::Llskr(LlskrConfig::default()),
        ];
        for sel in selections {
            for pairs in [PairSet::AllPairs, PairSet::Pairs(vec![(0, 9), (9, 0), (2, 7)])] {
                let table = PathTable::compute(&g, sel, &pairs, 42);
                let key = CacheKey::new(&g, sel, &pairs, 42);
                let bytes = encode_table(&table, &key);
                let (got_key, got) = decode_table(&bytes).expect("roundtrip");
                assert_eq!(got_key, key);
                assert_eq!(got, table, "{} {pairs:?}", sel.name());
            }
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let g = small_graph();
        let pairs = PairSet::AllPairs;
        let sel = PathSelection::REdKsp(2);
        let key = CacheKey::new(&g, sel, &pairs, 5);
        let a = encode_table(&PathTable::compute(&g, sel, &pairs, 5), &key);
        let b = encode_table(&PathTable::compute(&g, sel, &pairs, 5), &key);
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_malformed_input() {
        let g = small_graph();
        let pairs = PairSet::Pairs(vec![(0, 9)]);
        let key = CacheKey::new(&g, PathSelection::Ksp(2), &pairs, 0);
        let table = PathTable::compute(&g, PathSelection::Ksp(2), &pairs, 0);
        let bytes = encode_table(&table, &key);

        assert!(matches!(decode_table(&[]), Err(CacheError::Truncated)));
        assert!(matches!(decode_table(&bytes[..6]), Err(CacheError::Truncated)));
        assert!(matches!(decode_table(&bytes[..bytes.len() - 1]), Err(CacheError::BadChecksum)));

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert!(matches!(decode_table(&bad_magic), Err(CacheError::BadMagic)));

        let mut bad_version = bytes.clone();
        bad_version[8] = 1;
        assert!(matches!(decode_table(&bad_version), Err(CacheError::BadVersion(1))));

        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        assert!(matches!(decode_table(&flipped), Err(CacheError::BadChecksum)));
    }

    fn stream_of(paths: &[Vec<NodeId>]) -> (PathSet, Vec<u8>) {
        let set = PathSet::from_paths(paths);
        let mut bytes = Vec::new();
        encode_stream_into(&set, &mut bytes);
        (set, bytes)
    }

    #[test]
    fn stream_codec_is_strict() {
        assert_eq!(decode_stream(&[], &[]), Some(vec![]));
        let (set, bytes) = stream_of(&[vec![5, 2, 8], vec![5, 2, 9]]);
        assert_eq!(decode_stream(&bytes, &set.ends).as_ref(), Some(&set.nodes));
        // Truncated stream.
        assert_eq!(decode_stream(&bytes[..bytes.len() - 1], &set.ends), None);
        // A trailing byte.
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(decode_stream(&long, &set.ends), None);
        // Non-increasing or zero end offsets.
        assert_eq!(decode_stream(&bytes, &[3, 3]), None);
        assert_eq!(decode_stream(&bytes, &[0, 3]), None);
        // A node below zero.
        assert_eq!(decode_stream(&[0, 1], &[1]), None);

        // The first path is one prefix byte plus three one-byte deltas,
        // so byte 4 is the second path's shared-prefix length.
        let (set, mut bytes) = stream_of(&[vec![5, 2, 8], vec![5, 2, 8, 1, 9]]);
        assert_eq!(bytes[4], 3);
        bytes[4] = 4; // longer than the previous path (3 nodes)
        assert_eq!(decode_stream(&bytes, &set.ends), None);
        let (set, mut bytes) = stream_of(&[vec![5, 2, 8, 1], vec![5, 2]]);
        assert_eq!(bytes[5], 2);
        bytes[5] = 3; // longer than the path itself (2 nodes)
        assert_eq!(decode_stream(&bytes, &set.ends), None);
    }

    /// A corrupt node stream inside an otherwise valid file (checksum
    /// resealed) is reported as corruption, not a panic.
    #[test]
    fn decode_table_rejects_a_corrupt_stream() {
        let g = small_graph();
        let pairs = PairSet::Pairs(vec![(0, 9)]);
        let key = CacheKey::new(&g, PathSelection::Ksp(2), &pairs, 0);
        let table = PathTable::compute(&g, PathSelection::Ksp(2), &pairs, 0);
        let mut bytes = encode_table(&table, &key);
        let body = bytes.len() - 8;
        // The last body byte ends the only entry's stream; a continuation
        // bit there leaves the final varint unterminated.
        bytes[body - 1] |= 0x80;
        let checksum = fnv1a(&bytes[..body]);
        bytes[body..].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            decode_table(&bytes),
            Err(CacheError::Corrupt("path node stream does not decode"))
        ));
    }

    #[test]
    fn cache_hits_memory_then_disk() {
        let dir = tmp_dir("hits");
        let g = small_graph();
        let pairs = PairSet::AllPairs;
        let sel = PathSelection::RKsp(2);

        let cache = PathCache::new(&dir).unwrap();
        let cold = cache.load_or_compute(&g, sel, &pairs, 9);
        let warm = cache.load_or_compute(&g, sel, &pairs, 9);
        assert_eq!(*cold, *warm);
        assert_eq!(cache.stats().unwrap().files, 1);

        // A fresh cache over the same directory must hit disk, not memory.
        let cache2 = PathCache::new(&dir).unwrap();
        let from_disk = cache2.load_or_compute(&g, sel, &pairs, 9);
        assert_eq!(*cold, *from_disk);
        assert_eq!(*from_disk, PathTable::compute(&g, sel, &pairs, 9));

        assert_eq!(cache2.clear().unwrap(), 1);
        assert_eq!(cache2.stats().unwrap().files, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_file_is_recomputed_and_repaired() {
        let dir = tmp_dir("corrupt");
        let g = small_graph();
        let pairs = PairSet::Pairs(vec![(0, 9), (5, 2)]);
        let sel = PathSelection::EdKsp(2);

        let cache = PathCache::new(&dir).unwrap();
        let key = CacheKey::new(&g, sel, &pairs, 3);
        let expected = cache.load_or_compute(&g, sel, &pairs, 3);

        // Corrupt the stored file in place.
        let path = dir.join(key.file_name());
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        // A fresh cache (no memory hit) must reject the file, recompute
        // the same table and repair the store.
        let cache2 = PathCache::new(&dir).unwrap();
        let got = cache2.load_or_compute(&g, sel, &pairs, 3);
        assert_eq!(*got, *expected);
        let repaired = std::fs::read(&path).unwrap();
        assert!(decode_table(&repaired).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lru_evicts_oldest() {
        let dir = tmp_dir("lru");
        let g = small_graph();
        let cache = PathCache::with_capacity(&dir, 2).unwrap();
        for seed in 0..3u64 {
            cache.load_or_compute(&g, PathSelection::Ksp(1), &PairSet::AllPairs, seed);
        }
        let lru = cache.lru.lock().unwrap();
        assert_eq!(lru.map.len(), 2);
        let evicted = CacheKey::new(&g, PathSelection::Ksp(1), &PairSet::AllPairs, 0);
        assert!(!lru.map.contains_key(&evicted), "seed 0 must be the evicted entry");
        drop(lru);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_reports_valid_and_invalid_files() {
        let dir = tmp_dir("manifest");
        let g = small_graph();
        let cache = PathCache::new(&dir).unwrap();
        cache.load_or_compute(&g, PathSelection::Ksp(2), &PairSet::AllPairs, 1);
        std::fs::write(dir.join("bogus.ptab"), b"not a ptab").unwrap();
        let manifest = cache.manifest().unwrap();
        assert_eq!(manifest.len(), 2);
        assert_eq!(manifest.iter().filter(|e| e.key.is_ok()).count(), 1);
        let bogus = manifest.iter().find(|e| e.file == "bogus.ptab").unwrap();
        assert!(matches!(bogus.key, Err(CacheError::BadMagic)));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression (disk-store leak): a daemon under churn mints a new
    /// key per topology variant, and before the [`DiskBudget`] the store
    /// grew one file per key forever — only `jellytool cache clear`
    /// shrank it. A bounded cache must evict down to the budget on every
    /// store, oldest files first.
    #[test]
    fn disk_budget_bounds_the_store() {
        let dir = tmp_dir("budget");
        let g = small_graph();
        let cache = PathCache::with_capacity(&dir, 1)
            .unwrap()
            .with_disk_budget(DiskBudget { max_files: Some(2), max_bytes: None });
        for seed in 0..4u64 {
            cache.load_or_compute(&g, PathSelection::Ksp(1), &PairSet::AllPairs, seed);
        }
        let stats = cache.stats().unwrap();
        assert_eq!(stats.files, 2, "store must hold the budget, not grow per key");
        assert!(cache.counters().disk_evictions >= 2);
        // The newest entries survive.
        for seed in [2u64, 3] {
            let key = CacheKey::new(&g, PathSelection::Ksp(1), &PairSet::AllPairs, seed);
            assert!(dir.join(key.file_name()).exists(), "seed {seed} must survive eviction");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A disk hit must count as recent use: reading seed 0 after writing
    /// seeds 0 and 1 makes seed 1 — not seed 0 — the eviction victim
    /// when seed 2 lands. (This is what makes the policy LRU rather
    /// than FIFO.)
    #[test]
    fn disk_eviction_is_lru_not_fifo() {
        let dir = tmp_dir("budget-lru");
        let g = small_graph();
        let cache = PathCache::with_capacity(&dir, 1)
            .unwrap()
            .with_disk_budget(DiskBudget { max_files: Some(2), max_bytes: None });
        let sel = PathSelection::Ksp(1);
        cache.load_or_compute(&g, sel, &PairSet::AllPairs, 0);
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.load_or_compute(&g, sel, &PairSet::AllPairs, 1);
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Re-read seed 0 through a fresh instance (cold memory, so the
        // read goes to disk and bumps the file's mtime).
        let reader = PathCache::with_capacity(&dir, 1).unwrap();
        reader.load_or_compute(&g, sel, &PairSet::AllPairs, 0);
        assert_eq!(reader.counters().disk_hits, 1, "re-read must come from disk");
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.load_or_compute(&g, sel, &PairSet::AllPairs, 2);
        let survives = |seed: u64| {
            dir.join(CacheKey::new(&g, sel, &PairSet::AllPairs, seed).file_name()).exists()
        };
        assert!(survives(0), "recently read entry must survive");
        assert!(!survives(1), "least recently used entry must be evicted");
        assert!(survives(2), "just-written entry must survive");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The just-written file is never evicted, even when it alone
    /// exceeds the byte budget — otherwise a tight budget would turn
    /// every query into a recompute.
    #[test]
    fn byte_budget_keeps_the_newest_entry() {
        let dir = tmp_dir("budget-bytes");
        let g = small_graph();
        let cache = PathCache::new(&dir)
            .unwrap()
            .with_disk_budget(DiskBudget { max_files: None, max_bytes: Some(1) });
        for seed in 0..3u64 {
            cache.load_or_compute(&g, PathSelection::Ksp(1), &PairSet::AllPairs, seed);
        }
        assert_eq!(cache.stats().unwrap().files, 1, "byte budget keeps exactly the newest file");
        let key = CacheKey::new(&g, PathSelection::Ksp(1), &PairSet::AllPairs, 2);
        assert!(dir.join(key.file_name()).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression (poisoned-mutex denial of service): `lru_get`/`lru_put`
    /// used `.lock().expect(...)`, so one request thread panicking while
    /// holding the LRU lock aborted every later query. The guard is now
    /// recovered from poisoning; queries after the panic must succeed.
    #[test]
    fn queries_survive_a_poisoned_lru() {
        let dir = tmp_dir("poison");
        let g = small_graph();
        let cache = PathCache::new(&dir).unwrap();
        let sel = PathSelection::Ksp(2);
        let before = cache.load_or_compute(&g, sel, &PairSet::AllPairs, 5);

        // Poison the LRU mutex: a thread panics while holding the guard.
        std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let _guard = cache.lru.lock().unwrap();
                panic!("request thread dies while holding the cache lock");
            });
            assert!(handle.join().is_err(), "the poisoning thread must have panicked");
        });
        assert!(cache.lru.is_poisoned(), "the lock must actually be poisoned");

        // Every access path must still work: memory hit, fresh store,
        // clear.
        let after = cache.load_or_compute(&g, sel, &PairSet::AllPairs, 5);
        assert_eq!(*before, *after);
        assert!(Arc::ptr_eq(&before, &after), "memory hit must survive poisoning");
        let other = cache.load_or_compute(&g, sel, &PairSet::AllPairs, 6);
        assert_eq!(*other, PathTable::compute(&g, sel, &PairSet::AllPairs, 6));
        assert!(cache.counters().poison_recovered >= 1);
        cache.clear().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The process-wide slot recovers from poisoning too: a panicking
    /// writer must not sever every driver from the cache.
    #[test]
    fn global_slot_survives_poisoning() {
        std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let _guard = global_slot().write().unwrap_or_else(PoisonError::into_inner);
                panic!("poison the global slot");
            });
            assert!(handle.join().is_err());
        });
        // Must not panic, whatever other tests have installed.
        let _ = global_cache();
    }

    /// Regression (cache stampede): `load_or_compute` had no
    /// single-flight, so concurrent misses on one key all ran the full
    /// compute and raced the atomic rename. Now exactly one thread
    /// computes and every caller gets the same `Arc`.
    #[test]
    fn concurrent_misses_coalesce_to_one_compute() {
        let dir = tmp_dir("stampede");
        let g = small_graph();
        let cache = PathCache::new(&dir).unwrap();
        let sel = PathSelection::RKsp(4);
        const THREADS: usize = 8;
        let barrier = std::sync::Barrier::new(THREADS);
        let results: Vec<Arc<PathTable>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache.load_or_compute(&g, sel, &PairSet::AllPairs, 77)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("query thread")).collect()
        });
        for r in &results[1..] {
            assert!(Arc::ptr_eq(&results[0], r), "all stampeding threads must share one Arc");
        }
        let counters = cache.counters();
        assert_eq!(counters.computes, 1, "the stampede must run exactly one compute");
        assert_eq!(
            counters.mem_hits + counters.coalesced,
            (THREADS - 1) as u64,
            "every other thread either coalesced or hit memory"
        );
        assert_eq!(*results[0], PathTable::compute(&g, sel, &PairSet::AllPairs, 77));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A leader that panics mid-compute must not strand its followers:
    /// the flight is abandoned, a follower retries and becomes the new
    /// leader, and the query still succeeds.
    #[test]
    fn abandoned_flight_is_retried_by_followers() {
        let dir = tmp_dir("abandon");
        let g = small_graph();
        let cache = PathCache::new(&dir).unwrap();
        let sel = PathSelection::Ksp(2);
        let key = CacheKey::new(&g, sel, &PairSet::AllPairs, 12);

        // Simulate a dying leader: register a flight, then drop its
        // guard through a panic without publishing a result.
        let flight = Arc::new(Flight::new());
        cache.lock_recovering(&cache.inflight).insert(key, Arc::clone(&flight));
        let follower = std::thread::scope(|s| {
            let follower = s.spawn(|| cache.load_or_compute(&g, sel, &PairSet::AllPairs, 12));
            // Give the follower time to park on the flight, then let the
            // "leader" die.
            std::thread::sleep(std::time::Duration::from_millis(30));
            let leader = s.spawn(|| {
                let _guard = FlightGuard { cache: &cache, key, flight: &flight };
                panic!("leader dies before publishing");
            });
            assert!(leader.join().is_err());
            follower.join().expect("follower must survive the abandoned flight")
        });
        assert_eq!(*follower, PathTable::compute(&g, sel, &PairSet::AllPairs, 12));
        assert_eq!(cache.counters().computes, 1, "the retrying follower computed the table");
        assert!(cache.lock_recovering(&cache.inflight).is_empty(), "no flight left behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn global_cache_roundtrip() {
        let dir = tmp_dir("global");
        let g = small_graph();
        let pairs = PairSet::AllPairs;
        let sel = PathSelection::REdKsp(2);
        let uncached = load_or_compute_global(&g, sel, &pairs, 11);
        install_global(PathCache::new(&dir).unwrap());
        let cold = load_or_compute_global(&g, sel, &pairs, 11);
        let warm = load_or_compute_global(&g, sel, &pairs, 11);
        assert_eq!(uncached, cold);
        assert_eq!(uncached, warm);
        std::fs::remove_dir_all(&dir).ok();
    }
}
