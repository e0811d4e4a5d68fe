//! The cross-shard composition pass: one AND + BitCount kernel per
//! cross-shard arc, fanned over computational arrays through the
//! `tcim-sched` delta-job machinery.
//!
//! A cross arc `(a, c)` (tail shard `s`, head shard `t > s`) needs
//! `popcount(R_a AND C_c)` over the global bit universe. Both operands
//! are stored split at their shard cuts ([`crate::boundary`]), and
//! because shard slice ranges are disjoint the full kernel decomposes
//! into three region-disjoint sub-passes whose valid-pair counts sum to
//! the monolithic arc's:
//!
//! ```text
//!   R_a.local    AND  C_c.boundary   → middles in shard s
//!   R_a.boundary AND  C_c.boundary   → middles in shards between s and t
//!   R_a.boundary AND  C_c.local      → middles in shard t
//! ```
//!
//! Each surviving bit `w` names the triangle `(a, w, c)` — read back
//! out when attribution is requested, exactly like the monolithic
//! attributed run.

use tcim_arch::walk::{census_arc, Attribute, CountOnly, NoAccounting, PairSink, Walk};
use tcim_arch::{KernelStats, SliceCostModel, TriangleTally};
use tcim_bitmatrix::{PopcountMethod, SlicedRow};
use tcim_sched::{parallel_map_indexed, plan_deltas, DeltaJob, SchedPolicy};

use crate::boundary::{BoundarySlices, SplitOperand};
use crate::error::{Result, ShardError};
use crate::plan::ShardPlan;
use crate::spec::ShardMode;

/// The merged outcome of one composition pass.
#[derive(Debug, Clone)]
pub struct CompositionRun {
    /// Triangles spanning at least two shards.
    pub triangles: u64,
    /// Per-vertex participation over the *global oriented* id space;
    /// present only for attributed runs.
    pub per_vertex: Option<Vec<u64>>,
    /// Per-arc triangle support `(i, j, count)` over global oriented
    /// arcs, ascending; present only when support was requested.
    pub support: Option<Vec<(u32, u32, u64)>>,
    /// Kernel accounting: one dispatch per cross-shard arc on dense
    /// operands (sparse operands skip arcs whose summary walk visits
    /// nothing); slice pairs summed over the region sub-passes (equal
    /// to the monolithic pair count over the same arcs on dense
    /// operands); readouts only on attributed runs.
    pub kernel: KernelStats,
    /// Operand slices written into arrays.
    pub write_slices: u64,
    /// Modelled critical path of the pass (serial host dispatch plus
    /// the busiest array's AND/BitCount/readout work), in seconds.
    pub critical_path_s: f64,
    /// Modelled energy of the pass (J).
    pub modelled_energy_j: f64,
    /// Load-imbalance factor of the placement (`max / mean` busy time).
    pub imbalance: f64,
    /// Placement units the pass was scheduled as: arcs in
    /// [`ShardMode::OneD`], `(tail shard, head shard)` edge blocks in
    /// [`ShardMode::TwoD`].
    pub placement_units: usize,
}

/// The structural kernel census of a composition pass, computed
/// without executing any kernels (its `result_readouts` stay zero).
///
/// The composition's dispatch accounting is *structural*: whether an
/// arc dispatches and how many slice pairs it visits depend only on
/// the boundary operands' valid-slice structure (and the sparse
/// byte-mask filter), never on placement or AND results. A dry run
/// over the same [`BoundarySlices`] therefore predicts the executed
/// [`CompositionRun`]'s `kernel_invocations` / `slice_pairs` /
/// `blocks_skipped` bit-exactly — which is what query EXPLAIN plans
/// rely on.
pub type ComposeCensus = KernelStats;

/// Walks the composition pass's arcs without executing kernels and
/// returns the exact dispatch census the pass will produce (the same
/// per-arc census as [`compose`]'s walk, minus the ANDs).
///
/// # Errors
///
/// Returns [`ShardError::MissingBoundary`] when an arc's operands were
/// not extracted (an internal invariant violation).
pub fn compose_census(boundary: &BoundarySlices) -> Result<ComposeCensus> {
    let mut census = KernelStats::default();
    for &(a, c) in boundary.cross_arcs() {
        let row = operand(boundary.row(a), a, "row")?;
        let col = operand(boundary.col(c), c, "column")?;
        census_arc(regions(row, col), &mut census);
    }
    Ok(census)
}

/// The three region-disjoint operand pairs of cross arc `(row, col)`
/// (see the module docs); they dispatch as one kernel.
fn regions<'b>(
    row: &'b SplitOperand,
    col: &'b SplitOperand,
) -> [(&'b SlicedRow, &'b SlicedRow); 3] {
    [(&row.local, &col.boundary), (&row.boundary, &col.boundary), (&row.boundary, &col.local)]
}

/// One worker array's partial results.
struct ArrayPartial {
    triangles: u64,
    kernel: KernelStats,
    writes: u64,
    busy_s: f64,
    tally: Option<TriangleTally>,
}

/// Runs the composition pass for `plan` over the extracted `boundary`
/// material, placing kernels onto `policy.arrays` arrays: a fresh
/// [`CompositionPlan::build`] followed by [`CompositionPlan::execute`].
///
/// With `attributed` set, every non-zero AND result is read back out
/// and each surviving middle vertex `w` is recorded as the triangle
/// `(a, w, c)`; `need_support` additionally accumulates per-arc
/// support.
///
/// # Errors
///
/// Returns [`ShardError::MissingBoundary`] when an arc's operands were
/// not extracted (an internal invariant violation) and propagates
/// placement errors.
pub fn compose(
    vertex_count: usize,
    plan: &ShardPlan,
    boundary: &BoundarySlices,
    policy: &SchedPolicy,
    costs: &SliceCostModel,
    attributed: bool,
    need_support: bool,
) -> Result<CompositionRun> {
    CompositionPlan::build(plan, boundary, policy, costs)?.execute(
        vertex_count,
        boundary,
        policy.resolved_host_threads(),
        attributed,
        need_support,
    )
}

/// How a composition pass groups cross arcs into placement units.
#[derive(Debug, Clone)]
enum Units {
    /// [`ShardMode::OneD`]: one unit per cross arc, unit `k` being arc
    /// `k` — nothing to store.
    Arcs(usize),
    /// [`ShardMode::TwoD`]: one unit per `(tail shard, head shard)`
    /// edge block; unit `u` is `arcs[bounds[u]..bounds[u + 1]]`.
    Blocks { arcs: Vec<u32>, bounds: Vec<usize> },
}

impl Units {
    fn len(&self) -> usize {
        match self {
            Units::Arcs(n) => *n,
            Units::Blocks { bounds, .. } => bounds.len() - 1,
        }
    }

    /// Calls `f` with the arc indices of unit `u`.
    fn with_unit<R>(&self, u: usize, f: impl FnOnce(&[u32]) -> R) -> R {
        match self {
            Units::Arcs(_) => f(&[u as u32]),
            Units::Blocks { arcs, bounds } => f(&arcs[bounds[u]..bounds[u + 1]]),
        }
    }
}

/// The planned half of a composition pass: cross arcs grouped into
/// placement units, priced, and placed onto arrays. It depends only on
/// the shard plan, the boundary material, the policy's array count and
/// placement, and the cost model — never on the host thread count — so
/// one plan serves every later pass over the same artifact
/// ([`CompositionPlan::execute`]).
#[derive(Debug, Clone)]
pub struct CompositionPlan {
    units: Units,
    /// Unit ids per array, ascending.
    per_array: Vec<Vec<u32>>,
    costs: SliceCostModel,
}

impl CompositionPlan {
    /// Groups `boundary`'s cross arcs into placement units (arcs in
    /// [`ShardMode::OneD`], edge blocks in [`ShardMode::TwoD`]), prices
    /// each unit with `costs`, and places the units onto
    /// `policy.arrays` arrays.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::MissingBoundary`] when an arc's operands
    /// were not extracted (an internal invariant violation) and
    /// propagates placement errors.
    pub fn build(
        plan: &ShardPlan,
        boundary: &BoundarySlices,
        policy: &SchedPolicy,
        costs: &SliceCostModel,
    ) -> Result<CompositionPlan> {
        policy.validate().map_err(ShardError::Sched)?;
        let arcs = boundary.cross_arcs();
        // Units and their arcs are stored as `u32` indices, like vertex
        // ids.
        assert!(u32::try_from(arcs.len()).is_ok(), "cross arcs exceed u32 indices");
        let units = match plan.mode() {
            ShardMode::OneD => Units::Arcs(arcs.len()),
            ShardMode::TwoD => {
                let mut blocks: std::collections::BTreeMap<(usize, usize), Vec<u32>> =
                    std::collections::BTreeMap::new();
                for (k, &(a, c)) in arcs.iter().enumerate() {
                    blocks
                        .entry((plan.shard_of(a), plan.shard_of(c)))
                        .or_default()
                        .push(k as u32);
                }
                let mut bounds = vec![0];
                let mut grouped = Vec::with_capacity(arcs.len());
                for block in blocks.into_values() {
                    grouped.extend(block);
                    bounds.push(grouped.len());
                }
                Units::Blocks { arcs: grouped, bounds }
            }
        };
        let jobs: Vec<DeltaJob> = (0..units.len())
            .map(|u| units.with_unit(u, |unit| price_unit(u, unit, arcs, boundary, costs)))
            .collect::<Result<_>>()?;
        let per_array = plan_deltas(&jobs, policy)
            .map_err(ShardError::Sched)?
            .per_array_jobs()
            .into_iter()
            .map(|units| units.into_iter().map(|u| u as u32).collect())
            .collect();
        Ok(CompositionPlan { units, per_array, costs: *costs })
    }

    /// Placement units the pass is scheduled as.
    pub fn placement_units(&self) -> usize {
        self.units.len()
    }

    /// Number of arrays the units are placed onto.
    pub fn arrays(&self) -> usize {
        self.per_array.len()
    }

    /// Runs the planned pass over `boundary` (the material the plan was
    /// built from), fanning arrays over at most `host_threads` threads.
    ///
    /// With `attributed` set, every non-zero AND result is read back out
    /// and each surviving middle vertex `w` is recorded as the triangle
    /// `(a, w, c)`; `need_support` additionally accumulates per-arc
    /// support.
    ///
    /// # Errors
    ///
    /// Returns [`ShardError::MissingBoundary`] when an arc's operands
    /// were not extracted (an internal invariant violation).
    pub fn execute(
        &self,
        vertex_count: usize,
        boundary: &BoundarySlices,
        host_threads: usize,
        attributed: bool,
        need_support: bool,
    ) -> Result<CompositionRun> {
        let arcs = boundary.cross_arcs();
        let costs = &self.costs;
        let per_array = &self.per_array;

        // Execute each array's units; merge deterministically in array
        // order afterwards.
        let partials: Vec<Result<ArrayPartial>> =
            parallel_map_indexed(per_array.len(), host_threads, |array| {
                let units = &per_array[array];
                if attributed {
                    let tally = TriangleTally::new(vertex_count, need_support);
                    let (mut partial, Attribute(tally)) =
                        self.run_array(units, boundary, Attribute(tally))?;
                    partial.tally = Some(tally);
                    Ok(partial)
                } else {
                    Ok(self.run_array(units, boundary, CountOnly(PopcountMethod::Native))?.0)
                }
            });
        let mut triangles = 0u64;
        let mut kernel = KernelStats::default();
        let mut writes = 0u64;
        let mut busy: Vec<f64> = Vec::with_capacity(per_array.len());
        let mut tally = attributed.then(|| TriangleTally::new(vertex_count, need_support));
        for partial in partials {
            let partial = partial?;
            triangles += partial.triangles;
            kernel.merge(&partial.kernel);
            writes += partial.writes;
            busy.push(partial.busy_s);
            if let (Some(total), Some(part)) = (tally.as_mut(), partial.tally) {
                total.merge(part);
            }
        }
        let (per_vertex, support) = match tally.map(TriangleTally::into_parts) {
            Some((_, per_vertex, support)) => (Some(per_vertex), support),
            None => (None, None),
        };

        // Host dispatch stays serial (one controller), array work runs on
        // the busiest array's clock.
        let host_s = arcs.len() as f64 * costs.controller_overhead_s;
        let max_busy = busy.iter().copied().fold(0.0, f64::max);
        let mean_busy =
            if busy.is_empty() { 0.0 } else { busy.iter().sum::<f64>() / busy.len() as f64 };
        let energy = costs.write_energy_j * writes as f64
            + (costs.and_energy_j + costs.bitcount_energy_j) * kernel.slice_pairs as f64
            + costs.readout_energy_j * kernel.result_readouts as f64;

        Ok(CompositionRun {
            triangles,
            per_vertex,
            support,
            kernel,
            write_slices: writes,
            critical_path_s: host_s + max_busy,
            modelled_energy_j: energy,
            imbalance: if mean_busy > 0.0 { max_busy / mean_busy } else { 1.0 },
            placement_units: self.units.len(),
        })
    }

    /// Runs one array's placement `units` through the kernel walk,
    /// feeding every AND result to `sink`; returns the array's partial
    /// (without a tally) and the sink.
    fn run_array<S: PairSink>(
        &self,
        units: &[u32],
        boundary: &BoundarySlices,
        sink: S,
    ) -> Result<(ArrayPartial, S)> {
        let arcs = boundary.cross_arcs();
        let mut walk = Walk::new(NoAccounting, sink);
        let mut writes = 0u64;
        for &unit in units {
            self.units.with_unit(unit as usize, |unit| {
                run_unit(unit, arcs, boundary, &mut walk, &mut writes)
            })?;
        }
        let costs = &self.costs;
        let busy_s = costs.write_latency_s * writes as f64
            + (costs.and_latency_s + costs.bitcount_latency_s)
                * walk.kernel.slice_pairs as f64
            + costs.readout_latency_s * walk.kernel.result_readouts as f64;
        let partial = ArrayPartial {
            triangles: walk.triangles,
            kernel: walk.kernel,
            writes,
            busy_s,
            tally: None,
        };
        Ok((partial, walk.sink))
    }
}

/// Prices one placement unit: operand write slices (each distinct
/// operand written once per unit — the 2D mode's reuse) plus a pair
/// upper bound for load balancing.
fn price_unit(
    id: usize,
    unit: &[u32],
    arcs: &[(u32, u32)],
    boundary: &BoundarySlices,
    costs: &SliceCostModel,
) -> Result<DeltaJob> {
    let mut row_writes = 0u64;
    let mut col_writes = 0u64;
    let mut est_pairs = 0u64;
    let mut seen_rows: std::collections::HashSet<u32> = std::collections::HashSet::new();
    let mut seen_cols: std::collections::HashSet<u32> = std::collections::HashSet::new();
    for &k in unit {
        let (a, c) = arcs[k as usize];
        let row = operand(boundary.row(a), a, "row")?;
        let col = operand(boundary.col(c), c, "column")?;
        if seen_rows.insert(a) {
            row_writes += row.valid_slices();
        }
        if seen_cols.insert(c) {
            col_writes += col.valid_slices();
        }
        est_pairs += row.valid_slices().min(col.valid_slices());
    }
    Ok(DeltaJob::price(id, row_writes, col_writes, est_pairs, costs))
}

fn operand<'a>(
    found: Option<&'a SplitOperand>,
    vertex: u32,
    side: &'static str,
) -> Result<&'a SplitOperand> {
    found.ok_or(ShardError::MissingBoundary { vertex, side })
}

/// Executes one placement unit's arcs on one array: every arc runs its
/// three region sub-passes as one kernel, counting operand writes with
/// per-unit reuse (a 2D block writes each distinct operand once).
fn run_unit<S: PairSink>(
    unit: &[u32],
    arcs: &[(u32, u32)],
    boundary: &BoundarySlices,
    walk: &mut Walk<NoAccounting, S>,
    writes: &mut u64,
) -> Result<()> {
    let mut seen_rows: std::collections::HashSet<u32> = std::collections::HashSet::new();
    let mut seen_cols: std::collections::HashSet<u32> = std::collections::HashSet::new();
    for &k in unit {
        let (a, c) = arcs[k as usize];
        let row = operand(boundary.row(a), a, "row")?;
        let col = operand(boundary.col(c), c, "column")?;
        if seen_rows.insert(a) {
            *writes += row.valid_slices();
        }
        if seen_cols.insert(c) {
            *writes += col.valid_slices();
        }
        walk.arc(a, c, regions(row, col));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_shards;
    use crate::spec::ShardSpec;
    use tcim_arch::{PimConfig, PimEngine};
    use tcim_bitmatrix::{RowEncoding, SliceSize};
    use tcim_graph::generators::gnm;
    use tcim_graph::{CsrGraph, Orientation, OrientedGraph};

    fn costs() -> SliceCostModel {
        PimEngine::new(&PimConfig::default()).unwrap().cost_model()
    }

    fn fixture(shards: usize, mode_2d: bool) -> (CsrGraph, OrientedGraph, CompositionRun) {
        let g = gnm(512, 3500, 9).unwrap();
        let oriented = Orientation::Natural.orient(&g);
        let spec = if mode_2d { ShardSpec::two_d(shards) } else { ShardSpec::one_d(shards) };
        let plan = plan_shards(&oriented, &spec, SliceSize::S64).unwrap();
        let boundary =
            BoundarySlices::extract(&oriented, &plan, SliceSize::S64, RowEncoding::Dense);
        let run = compose(
            oriented.vertex_count(),
            &plan,
            &boundary,
            &SchedPolicy::with_arrays(4),
            &costs(),
            true,
            true,
        )
        .unwrap();
        (g, oriented, run)
    }

    /// CPU reference: triangles whose extreme vertices span shards.
    fn cross_reference(oriented: &OrientedGraph, plan: &ShardPlan) -> u64 {
        let mut count = 0u64;
        for (a, c) in oriented.arcs() {
            if !plan.is_cross(a, c) {
                continue;
            }
            // Middles w: heads of a that are tails of c.
            for &w in oriented.row(a) {
                if w < c && oriented.row(w).binary_search(&c).is_ok() {
                    count += 1;
                }
            }
        }
        count
    }

    #[test]
    fn composition_counts_exactly_the_cross_shard_triangles() {
        for shards in [2usize, 4, 8] {
            let g = gnm(512, 3500, 9).unwrap();
            let oriented = Orientation::Natural.orient(&g);
            let plan =
                plan_shards(&oriented, &ShardSpec::one_d(shards), SliceSize::S64).unwrap();
            let boundary =
                BoundarySlices::extract(&oriented, &plan, SliceSize::S64, RowEncoding::Dense);
            let run = compose(
                oriented.vertex_count(),
                &plan,
                &boundary,
                &SchedPolicy::with_arrays(4),
                &costs(),
                false,
                false,
            )
            .unwrap();
            assert_eq!(run.triangles, cross_reference(&oriented, &plan), "{shards} shards");
            assert_eq!(run.kernel.kernel_invocations, plan.cross_arcs());
            assert_eq!(run.kernel.result_readouts, 0, "count-only runs read nothing out");
        }
    }

    #[test]
    fn attribution_sums_to_three_per_triangle_and_support_to_three() {
        let (_, _, run) = fixture(4, false);
        let pv = run.per_vertex.as_ref().unwrap();
        assert_eq!(pv.iter().sum::<u64>(), 3 * run.triangles);
        let support = run.support.as_ref().unwrap();
        assert_eq!(support.iter().map(|&(_, _, c)| c).sum::<u64>(), 3 * run.triangles);
        assert!(run.kernel.result_readouts > 0);
        assert!(run.critical_path_s > 0.0);
        assert!(run.modelled_energy_j > 0.0);
    }

    #[test]
    fn two_d_blocks_count_identically_with_fewer_units_and_writes() {
        let (_, _, one_d) = fixture(4, false);
        let (_, _, two_d) = fixture(4, true);
        assert_eq!(one_d.triangles, two_d.triangles);
        assert_eq!(one_d.kernel.slice_pairs, two_d.kernel.slice_pairs);
        assert_eq!(one_d.per_vertex, two_d.per_vertex);
        assert_eq!(one_d.support, two_d.support);
        assert!(
            two_d.placement_units < one_d.placement_units,
            "blocks must coarsen placement ({} vs {})",
            two_d.placement_units,
            one_d.placement_units
        );
        assert!(
            two_d.write_slices < one_d.write_slices,
            "block operand reuse must save writes ({} vs {})",
            two_d.write_slices,
            one_d.write_slices
        );
    }

    #[test]
    fn slice_pairs_match_the_monolithic_pair_count_over_cross_arcs() {
        // The three region sub-passes partition the monolithic arc's
        // matching pairs, so totals must agree with a full-vector AND.
        let g = gnm(512, 3500, 9).unwrap();
        let oriented = Orientation::Natural.orient(&g);
        let plan = plan_shards(&oriented, &ShardSpec::one_d(4), SliceSize::S64).unwrap();
        let boundary =
            BoundarySlices::extract(&oriented, &plan, SliceSize::S64, RowEncoding::Dense);
        let run = compose(
            oriented.vertex_count(),
            &plan,
            &boundary,
            &SchedPolicy::with_arrays(2),
            &costs(),
            false,
            false,
        )
        .unwrap();

        let n = oriented.vertex_count();
        let mut in_lists: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (a, c) in oriented.arcs() {
            in_lists[c as usize].push(a as usize);
        }
        let mut expected = 0u64;
        for &(a, c) in boundary.cross_arcs() {
            let row = tcim_bitmatrix::SlicedBitVector::from_sorted_indices(
                n,
                oriented.row(a).iter().map(|&j| j as usize),
                SliceSize::S64,
            );
            let col = tcim_bitmatrix::SlicedBitVector::from_sorted_indices(
                n,
                in_lists[c as usize].iter().copied(),
                SliceSize::S64,
            );
            expected += row.matching_slices(&col).unwrap().count() as u64;
        }
        assert_eq!(run.kernel.slice_pairs, expected);
    }

    #[test]
    fn census_dry_run_matches_the_executed_pass_exactly() {
        for encoding in [RowEncoding::Dense, RowEncoding::Sparse] {
            let g = gnm(512, 3500, 9).unwrap();
            let oriented = Orientation::Natural.orient(&g);
            let plan = plan_shards(&oriented, &ShardSpec::one_d(4), SliceSize::S64).unwrap();
            let boundary = BoundarySlices::extract(&oriented, &plan, SliceSize::S64, encoding);
            let census = compose_census(&boundary).unwrap();
            let run = compose(
                oriented.vertex_count(),
                &plan,
                &boundary,
                &SchedPolicy::with_arrays(4),
                &costs(),
                false,
                false,
            )
            .unwrap();
            assert_eq!(census.kernel_invocations, run.kernel.kernel_invocations, "{encoding}");
            assert_eq!(census.slice_pairs, run.kernel.slice_pairs, "{encoding}");
            assert_eq!(census.blocks_skipped, run.kernel.blocks_skipped, "{encoding}");
        }
    }

    #[test]
    fn one_plan_executes_repeatedly_like_a_fresh_compose() {
        for mode_2d in [false, true] {
            let g = gnm(512, 3500, 9).unwrap();
            let oriented = Orientation::Natural.orient(&g);
            let spec = if mode_2d { ShardSpec::two_d(4) } else { ShardSpec::one_d(4) };
            let plan = plan_shards(&oriented, &spec, SliceSize::S64).unwrap();
            let boundary =
                BoundarySlices::extract(&oriented, &plan, SliceSize::S64, RowEncoding::Dense);
            let policy = SchedPolicy::with_arrays(4);
            let n = oriented.vertex_count();
            let fresh = compose(n, &plan, &boundary, &policy, &costs(), true, true).unwrap();
            let planned = CompositionPlan::build(&plan, &boundary, &policy, &costs()).unwrap();
            assert_eq!(planned.placement_units(), fresh.placement_units);
            assert_eq!(planned.arrays(), 4);
            for threads in [1, 2] {
                let run = planned.execute(n, &boundary, threads, true, true).unwrap();
                assert_eq!(run.triangles, fresh.triangles);
                assert_eq!(run.per_vertex, fresh.per_vertex);
                assert_eq!(run.support, fresh.support);
                assert_eq!(run.kernel.slice_pairs, fresh.kernel.slice_pairs);
                assert_eq!(run.write_slices, fresh.write_slices);
                assert_eq!(run.critical_path_s, fresh.critical_path_s);
                assert_eq!(run.modelled_energy_j, fresh.modelled_energy_j);
            }
        }
    }

    #[test]
    fn empty_composition_is_a_no_op() {
        let g = gnm(128, 600, 1).unwrap();
        let oriented = Orientation::Natural.orient(&g);
        let plan = plan_shards(&oriented, &ShardSpec::one_d(1), SliceSize::S64).unwrap();
        let boundary =
            BoundarySlices::extract(&oriented, &plan, SliceSize::S64, RowEncoding::Dense);
        let run = compose(
            oriented.vertex_count(),
            &plan,
            &boundary,
            &SchedPolicy::with_arrays(4),
            &costs(),
            true,
            true,
        )
        .unwrap();
        assert_eq!(run.triangles, 0);
        assert_eq!(run.kernel.slice_pairs, 0);
        assert_eq!(run.imbalance, 1.0);
        assert_eq!(run.placement_units, 0);
    }
}
