//! Owned schedules: a matrix's row jobs placed onto arrays, keyed by
//! everything the placement reads, so one plan can be shared (through an
//! `Arc`) by every run of the same matrix under the same configuration.
//!
//! The mapping step of the TCIM dataflow depends only on the graph and
//! the array configuration. [`SchedulePlan::build`] therefore reads
//! nothing but the matrix and a [`PlanKey`]; two requests with equal keys
//! over the same matrix produce identical plans, which is what makes the
//! key a sound cache key.

use std::time::{Duration, Instant};

use tcim_arch::{PimEngine, ReplacementPolicy, SliceCostModel};
use tcim_bitmatrix::SlicedMatrix;

use crate::error::{Result, SchedError};
use crate::jobs::decompose;
use crate::placement::Placement;
use crate::policy::{PlacementPolicy, SchedPolicy};

/// Everything a row-job placement reads besides the matrix: the array
/// count and placement policy, the engine's data-buffer capacity and
/// replacement behaviour (the reuse-aware policy models residency with
/// them), and the cost model jobs are priced with.
///
/// The host thread count is deliberately absent: it changes how a run
/// is simulated on the host, never where a job is placed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanKey {
    arrays: usize,
    placement: PlacementPolicy,
    buffer_slices: usize,
    replacement: ReplacementPolicy,
    replacement_seed: u64,
    costs: SliceCostModel,
}

impl PlanKey {
    /// The key of scheduling `matrix` on `engine` under `policy`, with
    /// jobs priced by `costs`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidPolicy`] for a malformed policy and
    /// [`SchedError::SliceSizeMismatch`] when `matrix` was sliced with a
    /// different slice size than `engine` is characterized for.
    pub fn new(
        engine: &PimEngine,
        matrix: &SlicedMatrix,
        policy: &SchedPolicy,
        costs: SliceCostModel,
    ) -> Result<PlanKey> {
        policy.validate()?;
        if matrix.slice_size() != engine.config().slice_size {
            return Err(SchedError::SliceSizeMismatch {
                engine_bits: engine.config().slice_size.bits(),
                matrix_bits: matrix.slice_size().bits(),
            });
        }
        Ok(PlanKey {
            arrays: policy.arrays,
            placement: policy.placement,
            buffer_slices: engine.capacity_slices(),
            replacement: engine.config().replacement,
            replacement_seed: engine.config().replacement_seed,
            costs,
        })
    }

    /// Number of arrays the plan places onto.
    pub fn arrays(&self) -> usize {
        self.arrays
    }

    /// The placement policy.
    pub fn placement(&self) -> PlacementPolicy {
        self.placement
    }

    /// The cost model jobs are priced with (and runs report with).
    pub fn costs(&self) -> &SliceCostModel {
        &self.costs
    }

    /// Column-slice buffer capacity of each of the equal per-array
    /// partitions of the engine's data buffer.
    pub(crate) fn per_array_capacity(&self) -> usize {
        (self.buffer_slices / self.arrays.max(1)).max(1)
    }

    pub(crate) fn replacement(&self) -> (ReplacementPolicy, u64) {
        (self.replacement, self.replacement_seed)
    }
}

/// A planned schedule: the placement of one matrix's row jobs, owned and
/// independent of any engine or matrix borrow, so it can be cached and
/// shared. [`ScheduledRun::bind`](crate::ScheduledRun::bind) runs it
/// without re-planning.
///
/// What it retains is what execution needs: per job the row, its
/// columns and its pricing. Each job's column-slice footprint, which
/// only the reuse-aware placer reads, is dropped once placement is done.
#[derive(Debug, Clone)]
pub struct SchedulePlan {
    key: PlanKey,
    placement: Placement,
    dim: usize,
    arcs: usize,
    placement_time: Duration,
}

impl SchedulePlan {
    /// Decomposes `matrix` into row jobs and places them as `key`
    /// describes.
    pub fn build(matrix: &SlicedMatrix, key: PlanKey) -> SchedulePlan {
        let start = Instant::now();
        let jobs = decompose(matrix, &key.costs);
        // Model the residency buffer the run will actually have: the
        // per-array share minus the row-region reservation. Assignments
        // are unknown while placing, so reserve the widest row of the
        // whole matrix — conservative for arrays that end up with
        // narrower rows.
        let widest_row = jobs.iter().map(|j| j.row_slices as usize).max().unwrap_or(0);
        let residency_capacity = key.per_array_capacity().saturating_sub(widest_row).max(1);
        let placement = Placement::place(
            jobs,
            key.arrays,
            key.placement,
            &key.costs,
            residency_capacity,
            key.replacement,
            key.replacement_seed,
        );
        placement.validate();
        SchedulePlan {
            key,
            placement,
            dim: matrix.dim(),
            arcs: matrix.edge_count(),
            placement_time: start.elapsed(),
        }
    }

    /// The key this plan was built under.
    pub fn key(&self) -> &PlanKey {
        &self.key
    }

    /// The placement of the matrix's row jobs.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Host wall-clock time building the plan took.
    pub fn placement_time(&self) -> Duration {
        self.placement_time
    }

    /// Whether the plan could have been built from `matrix`: the key
    /// cannot tell matrices apart, so binding checks the shape.
    pub(crate) fn fits(&self, matrix: &SlicedMatrix) -> bool {
        self.dim == matrix.dim() && self.arcs == matrix.edge_count()
    }
}
