//! The one AND + BitCount walk of Eq. (5),
//! `TC(G) = Σ_(i,j)∈E BitCount(AND(R_i, C_j))`.
//!
//! Every path that executes the kernel — the serial engine, each
//! scheduled array, software slicing, the cross-shard composition pass,
//! live delta kernels and the motif engine — runs its arcs through
//! [`Walk::arc`]. They differ only in two static type parameters:
//!
//! * an [`Accounting`] observer: [`NoAccounting`] for paths that model
//!   nothing, or [`PimAccounting`] — the row region, column-slice cache,
//!   access statistics and event trace of one simulated array;
//! * a [`PairSink`] that consumes each AND result: [`CountOnly`] (the
//!   bit counter consumes the result in place) or [`Attribute`] (every
//!   non-zero result is read back out and its surviving bits reported
//!   to a [`TriangleSink`]).
//!
//! [`census_arc`] is the index-only twin for pricing and EXPLAIN: the
//! same per-arc census without decoding payloads. Both apply the one
//! dispatch rule.

use std::collections::BTreeMap;
use std::fmt;

use tcim_bitmatrix::popcount::{popcount_words, visit_set_bits, PopcountMethod};
use tcim_bitmatrix::{PairStats, RowEncoding, SlicedMatrix, SlicedRow};
use tcim_telemetry::{EventTrace, KernelEvent};

use crate::buffer::{AccessOutcome, ReplacementPolicy, SliceCache};
use crate::stats::AccessStats;

/// Normalized kernel accounting shared by every backend and query:
/// the same counters mean the same thing whether the run was serial
/// PIM, scheduled multi-array PIM, sliced software or a CPU baseline,
/// so reports are comparable across engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStats {
    /// Per-edge kernel dispatches: processed arcs of the oriented DAG
    /// (identical across faithful backends on one prepared graph).
    pub kernel_invocations: u64,
    /// Valid slice pairs AND + BitCounted. Zero for CPU baselines,
    /// which intersect adjacency lists instead of slices; identical
    /// between the serial and scheduled PIM paths by construction.
    pub slice_pairs: u64,
    /// AND results read back out of the array — non-zero only for
    /// attributed (per-vertex / edge-support) queries on PIM backends.
    pub result_readouts: u64,
    /// Mutually valid slice pairs proven zero by the sparse encoding's
    /// byte-mask filter and skipped before the AND. Always zero on
    /// dense-encoded graphs; `slice_pairs + blocks_skipped` is the pair
    /// count a dense run would have computed.
    pub blocks_skipped: u64,
}

impl KernelStats {
    /// Accumulates `other` into `self`, counter by counter.
    ///
    /// This is the single accumulation primitive for every place that
    /// sums kernel accounting — per-array and per-shard partials, the
    /// composition pass, and top-level report sums — so the counters
    /// can never drift apart. Merging is associative and commutative
    /// with [`KernelStats::default`] as identity.
    pub fn merge(&mut self, other: &KernelStats) {
        self.kernel_invocations += other.kernel_invocations;
        self.slice_pairs += other.slice_pairs;
        self.result_readouts += other.result_readouts;
        self.blocks_skipped += other.blocks_skipped;
    }

    /// [`merge`](KernelStats::merge) as a by-value fold operator, for
    /// iterator `fold`/`reduce` chains.
    #[must_use]
    pub fn merged(mut self, other: &KernelStats) -> KernelStats {
        self.merge(other);
        self
    }
}

impl fmt::Display for KernelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} kernels / {} slice pairs / {} readouts",
            self.kernel_invocations, self.slice_pairs, self.result_readouts
        )
    }
}

/// The dispatch rule: dense arcs always launch the kernel (the paper's
/// per-edge accounting); on sparse operands the controller consults the
/// summary masks first, so an arc whose walk visited no pair is never
/// dispatched.
fn dispatches(encoding: RowEncoding, visited: u64) -> bool {
    encoding == RowEncoding::Dense || visited > 0
}

/// Adds one arc's kernel census to `kernel` without decoding payloads:
/// the pairs its operand pairs would visit and skip, and whether the arc
/// would dispatch. Predicts [`Walk::arc`]'s `kernel_invocations`,
/// `slice_pairs` and `blocks_skipped` exactly.
///
/// # Panics
///
/// Panics when an operand pair disagrees in slice size, length or
/// encoding.
pub fn census_arc<'r>(
    operands: impl IntoIterator<Item = (&'r SlicedRow, &'r SlicedRow)>,
    kernel: &mut KernelStats,
) {
    let mut encoding = RowEncoding::Dense;
    let mut visited = 0u64;
    for (left, right) in operands {
        encoding = left.encoding();
        let pairs = left
            .matching_stats(right)
            .expect("kernel operands share slice size, length and encoding");
        visited += pairs.visited;
        kernel.blocks_skipped += pairs.skipped;
    }
    kernel.slice_pairs += visited;
    kernel.kernel_invocations += u64::from(dispatches(encoding, visited));
}

/// What a walk models besides the kernel census — called once per
/// visited pair, after the pair's AND result was counted.
pub trait Accounting {
    /// Pair `slice` of arc `(row, col)` was ANDed and counted `count`.
    fn pair(&mut self, row: u32, col: u32, slice: u32, count: u64);
}

/// The observer of paths that model no hardware (software slicing, the
/// composition pass, live delta kernels, motif kernels); compiles away.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoAccounting;

impl Accounting for NoAccounting {
    #[inline]
    fn pair(&mut self, _: u32, _: u32, _: u32, _: u64) {}
}

/// The bookkeeping of one simulated array (§IV-A): a row's slices are
/// written into the reserved row region on first use and reused for
/// the row's later arcs, column slices go through the LRU/FIFO/Random
/// [`SliceCache`], and every step is recorded in the [`EventTrace`]
/// in dataflow order (row write, column access, AND + BitCount).
#[derive(Debug, Clone)]
pub struct PimAccounting {
    cache: SliceCache,
    trace: EventTrace,
    current_row: Option<u32>,
    /// Per slice index, the `rows_seen` value when that row slice was
    /// last written: it is resident iff the stamp equals `rows_seen`,
    /// so a new row clears the region in O(1).
    row_loaded: Vec<u32>,
    rows_seen: u32,
    stats: AccessStats,
}

impl PimAccounting {
    /// An empty array with room for `column_capacity` column slices,
    /// recording up to `trace_capacity` events.
    pub fn new(
        column_capacity: usize,
        replacement: ReplacementPolicy,
        replacement_seed: u64,
        trace_capacity: usize,
    ) -> Self {
        PimAccounting {
            cache: SliceCache::new(column_capacity, replacement, replacement_seed),
            trace: EventTrace::new(trace_capacity),
            current_row: None,
            row_loaded: Vec::new(),
            rows_seen: 0,
            stats: AccessStats::default(),
        }
    }

    /// The array's access statistics, completed with the walk's kernel
    /// census, and its event trace.
    pub fn finish(self, kernel: &KernelStats) -> (AccessStats, EventTrace) {
        let stats = AccessStats {
            edges: kernel.kernel_invocations,
            and_ops: kernel.slice_pairs,
            bitcount_ops: kernel.slice_pairs,
            result_readouts: kernel.result_readouts,
            blocks_skipped: kernel.blocks_skipped,
            ..self.stats
        };
        (stats, self.trace)
    }
}

impl Accounting for PimAccounting {
    fn pair(&mut self, row: u32, col: u32, slice: u32, count: u64) {
        if self.current_row != Some(row) {
            // The new row overwrites the reserved row region.
            self.current_row = Some(row);
            self.rows_seen += 1;
        }
        let k = slice as usize;
        if k >= self.row_loaded.len() {
            self.row_loaded.resize(k + 1, 0);
        }
        if self.row_loaded[k] != self.rows_seen {
            self.row_loaded[k] = self.rows_seen;
            self.stats.row_slice_writes += 1;
            self.trace.push(KernelEvent::RowSliceWrite { row, slice });
        }
        let key = (u64::from(col) << 32) | u64::from(slice);
        match self.cache.access(key) {
            AccessOutcome::Hit => {
                self.stats.col_hits += 1;
                self.trace.push(KernelEvent::ColHit { col, slice });
            }
            AccessOutcome::Miss => {
                self.stats.col_misses += 1;
                self.trace.push(KernelEvent::ColMiss { col, slice });
            }
            AccessOutcome::Exchange { .. } => {
                self.stats.col_exchanges += 1;
                self.trace.push(KernelEvent::ColExchange { col, slice });
            }
        }
        self.trace.push(KernelEvent::AndBitcount { row, col, slice, count: count as u32 });
    }
}

/// Consumes each visited pair's AND result.
pub trait PairSink {
    /// Counts the AND result `anded` of arc `(row, col)`, whose first
    /// bit is vertex `base`; returns the count and whether the result
    /// was read back out of the array.
    fn consume(&mut self, row: u32, col: u32, base: u32, anded: &[u64]) -> (u64, bool);
}

/// Plain counting: the bit counter consumes each result in place with
/// the given method — [`PopcountMethod::Lut8`] in the simulator (the
/// synthesized 8→256-LUT counter), the configured method in software.
#[derive(Debug, Clone, Copy)]
pub struct CountOnly(pub PopcountMethod);

impl PairSink for CountOnly {
    #[inline]
    fn consume(&mut self, _: u32, _: u32, _: u32, anded: &[u64]) -> (u64, bool) {
        (popcount_words(anded, self.0), false)
    }
}

/// Attributed counting: every non-zero result is read back out and
/// each surviving bit `w` of arc `(i, j)` is reported as the triangle
/// `(i, w, j)` (see [`TriangleSink`]).
#[derive(Debug, Clone)]
pub struct Attribute<S>(pub S);

impl<S: TriangleSink> PairSink for Attribute<S> {
    #[inline]
    fn consume(&mut self, row: u32, col: u32, base: u32, anded: &[u64]) -> (u64, bool) {
        let mut count = 0u64;
        visit_set_bits(anded.iter().copied(), |offset| {
            count += 1;
            self.0.triangle(row, base + offset, col);
        });
        (count, count > 0)
    }
}

/// One arc's share of a walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArcWork {
    /// Set bits across the arc's AND results.
    pub count: u64,
    /// Slice pairs visited.
    pub pairs: u64,
    /// Non-zero results read back out.
    pub readouts: u64,
}

/// The kernel walk: arcs in, triangles and kernel accounting out, with
/// per-pair accounting and result consumption fixed at compile time.
#[derive(Debug)]
pub struct Walk<A, S> {
    /// The accounting observer.
    pub accounting: A,
    /// The result sink.
    pub sink: S,
    /// Triangles counted so far.
    pub triangles: u64,
    /// Kernel accounting so far.
    pub kernel: KernelStats,
}

impl<A: Accounting, S: PairSink> Walk<A, S> {
    /// An empty walk.
    pub fn new(accounting: A, sink: S) -> Self {
        Walk { accounting, sink, triangles: 0, kernel: KernelStats::default() }
    }

    /// Runs arc `(row, col)`'s kernel: every visited slice pair of every
    /// operand pair is ANDed, consumed by the sink and accounted, then
    /// the dispatch rule decides whether the arc counts as a kernel
    /// invocation. An arc usually has one operand pair, `(R_row,
    /// C_col)`; the composition pass splits it into region-disjoint
    /// pairs that dispatch as one kernel.
    ///
    /// # Panics
    ///
    /// Panics when an operand pair disagrees in slice size, length or
    /// encoding.
    pub fn arc<'r>(
        &mut self,
        row: u32,
        col: u32,
        operands: impl IntoIterator<Item = (&'r SlicedRow, &'r SlicedRow)>,
    ) -> ArcWork {
        let mut work = ArcWork::default();
        let mut encoding = RowEncoding::Dense;
        let mut skipped = 0u64;
        for (left, right) in operands {
            encoding = left.encoding();
            let slice_bits = left.slice_size().bits();
            let PairStats { visited, skipped: s } = left
                .for_each_matching(right, |slice, anded| {
                    let (count, read_out) =
                        self.sink.consume(row, col, slice * slice_bits, anded);
                    self.accounting.pair(row, col, slice, count);
                    work.count += count;
                    work.readouts += u64::from(read_out);
                })
                .expect("kernel operands share slice size, length and encoding");
            work.pairs += visited;
            skipped += s;
        }
        self.triangles += work.count;
        self.kernel.slice_pairs += work.pairs;
        self.kernel.result_readouts += work.readouts;
        self.kernel.blocks_skipped += skipped;
        self.kernel.kernel_invocations += u64::from(dispatches(encoding, work.pairs));
        work
    }

    /// Walks every arc of `matrix` in row order.
    pub fn matrix(&mut self, matrix: &SlicedMatrix) {
        for (i, j) in matrix.edges() {
            self.arc(i, j, [(matrix.row(i), matrix.col(j))]);
        }
    }
}

/// Receives every triangle an attributed walk surfaces — the per-row
/// accumulation hook behind every query that needs more than the
/// global count (per-vertex participation, clustering coefficients,
/// edge support).
///
/// While processing arc `(i, j)` the kernel's AND result is read back
/// out of the array; a surviving bit `w` is set in both row `i` and
/// column `j`, so `i < w < j` and the triangle is reported as
/// `triangle(i, w, j)`. The contract holds for every sink source in the
/// repository: `triangle(a, b, c)` is called with `a < b < c` in matrix
/// id order, so the triangle's three edges are exactly the DAG arcs
/// `(a, b)`, `(a, c)` and `(b, c)` and a sink can attribute per-vertex
/// or per-edge quantities without any further graph lookups.
///
/// Closures `FnMut(u32, u32, u32)` implement the trait, so ad-hoc
/// sinks need no named type.
pub trait TriangleSink {
    /// Called once per triangle `{a, b, c}`, `a < b < c` in matrix id
    /// order (arcs `(a, b)`, `(a, c)`, `(b, c)`).
    fn triangle(&mut self, a: u32, b: u32, c: u32);
}

impl<F: FnMut(u32, u32, u32)> TriangleSink for F {
    fn triangle(&mut self, a: u32, b: u32, c: u32) {
        self(a, b, c);
    }
}

/// The canonical [`TriangleSink`]: accumulates per-vertex triangle
/// participation and (optionally) per-arc triangle support, shared by
/// every attributed execution path in the repository (serial engine,
/// per-array scheduled executor, software slicing, composition pass) so
/// the attribution bookkeeping has exactly one implementation.
#[derive(Debug, Clone)]
pub struct TriangleTally {
    per_vertex: Vec<u64>,
    support: Option<BTreeMap<(u32, u32), u64>>,
    triangles: u64,
}

impl TriangleTally {
    /// An empty tally over `dim` vertices; accumulates per-arc support
    /// only when `need_support` is set.
    pub fn new(dim: usize, need_support: bool) -> Self {
        TriangleTally {
            per_vertex: vec![0u64; dim],
            support: need_support.then(BTreeMap::new),
            triangles: 0,
        }
    }

    /// Triangles recorded so far.
    pub fn triangles(&self) -> u64 {
        self.triangles
    }

    /// Adds a partial tally over the same vertices (one array's or one
    /// shard's share) into `self`.
    pub fn merge(&mut self, other: TriangleTally) {
        self.triangles += other.triangles;
        for (total, part) in self.per_vertex.iter_mut().zip(&other.per_vertex) {
            *total += part;
        }
        if let (Some(map), Some(part)) = (self.support.as_mut(), other.support) {
            for (arc, count) in part {
                *map.entry(arc).or_insert(0) += count;
            }
        }
    }

    /// Consumes the tally: `(triangles, per-vertex counts, per-arc
    /// support)`. The support triples `(i, j, count)` are ascending and
    /// cover every arc in at least one triangle; `None` unless
    /// requested at construction.
    #[allow(clippy::type_complexity)]
    pub fn into_parts(self) -> (u64, Vec<u64>, Option<Vec<(u32, u32, u64)>>) {
        (
            self.triangles,
            self.per_vertex,
            self.support.map(|map| map.into_iter().map(|((i, j), c)| (i, j, c)).collect()),
        )
    }
}

impl TriangleSink for TriangleTally {
    fn triangle(&mut self, a: u32, b: u32, c: u32) {
        self.triangles += 1;
        self.per_vertex[a as usize] += 1;
        self.per_vertex[b as usize] += 1;
        self.per_vertex[c as usize] += 1;
        if let Some(map) = self.support.as_mut() {
            for arc in [(a, b), (a, c), (b, c)] {
                *map.entry(arc).or_insert(0) += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcim_bitmatrix::{EncodingPolicy, SliceSize};

    /// A 200-vertex pseudo-random DAG under `policy`.
    fn matrix(policy: EncodingPolicy) -> SlicedMatrix {
        let mut rows = vec![Vec::new(); 200];
        let mut x = 3u64;
        for (u, row) in rows.iter_mut().enumerate() {
            for v in (u + 1)..200 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if (x >> 33).is_multiple_of(9) {
                    row.push(v as u32);
                }
            }
        }
        SlicedMatrix::from_adjacency_with(&rows, SliceSize::S16, policy).unwrap()
    }

    #[test]
    fn census_predicts_the_walk_and_sinks_agree() {
        for policy in [EncodingPolicy::ForceDense, EncodingPolicy::ForceSparse] {
            let m = matrix(policy);
            let mut census = KernelStats::default();
            for (i, j) in m.edges() {
                census_arc([(m.row(i), m.col(j))], &mut census);
            }
            let mut count = Walk::new(NoAccounting, CountOnly(PopcountMethod::Lut8));
            count.matrix(&m);
            assert_eq!(count.kernel, census, "{policy:?}");

            let mut tally = TriangleTally::new(m.dim(), true);
            let sink = Attribute(|a, b, c| tally.triangle(a, b, c));
            let mut attributed = Walk::new(NoAccounting, sink);
            attributed.matrix(&m);
            assert_eq!(attributed.triangles, count.triangles, "{policy:?}");
            assert_eq!(KernelStats { result_readouts: 0, ..attributed.kernel }, census);
            assert!(attributed.kernel.result_readouts <= census.slice_pairs);
            assert_eq!(tally.triangles(), count.triangles);
        }
    }
}
