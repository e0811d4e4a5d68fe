//! The batch job API: planned runs ([`ScheduledRun`]), executed over
//! host worker threads with a deterministic merge.
//!
//! Host-side parallelism uses `std::thread::scope` worker fan-out (the
//! build environment has no registry access, so a rayon dependency is
//! deliberately avoided; scoped threads give the same fork-join shape).
//! Determinism: per-array results are merged in array order, so the
//! reported counts and statistics are independent of thread
//! interleaving.

use std::sync::Arc;
use std::time::Instant;

use tcim_arch::walk::{Attribute, CountOnly, PairSink};
use tcim_arch::{PimEngine, SliceCostModel, TriangleTally};
use tcim_bitmatrix::{BuildScope, PopcountMethod, SlicedMatrix};

use crate::error::{Result, SchedError};
use crate::executor::run_array;
use crate::jobs::RowJob;
use crate::placement::Placement;
use crate::plan::{PlanKey, SchedulePlan};
use crate::policy::SchedPolicy;
use crate::report::{PlanTiming, ScheduledReport};

/// A scheduled run executed with triangle attribution: the usual
/// [`ScheduledReport`] plus the attributed quantities, merged
/// deterministically from each array's partial vectors (array order, so
/// results are independent of host-thread interleaving).
///
/// All ids are matrix ids; callers that relabelled vertices map them
/// back through their orientation.
#[derive(Debug, Clone)]
pub struct AttributedScheduledRun {
    /// The scheduled report (triangles, per-array statistics including
    /// the attribution's result readouts, critical path, energy).
    pub report: ScheduledReport,
    /// Triangles each vertex participates in; sums to `3 × triangles`.
    pub per_vertex: Vec<u64>,
    /// Triangle support per arc `(i, j)`, ascending, covering every arc
    /// that participates in at least one triangle. Present only when
    /// support accumulation was requested.
    pub support: Option<Vec<(u32, u32, u64)>>,
}

/// A planned scheduled run: a matrix bound to a placement, ready to
/// execute (possibly several times).
///
/// The placement lives in a shared [`SchedulePlan`]: [`ScheduledRun::plan`]
/// builds a fresh one, [`ScheduledRun::bind`] reuses one built earlier
/// (e.g. cached beside a prepared graph) without re-planning.
#[derive(Debug)]
pub struct ScheduledRun<'a> {
    matrix: &'a SlicedMatrix,
    policy: SchedPolicy,
    plan: Arc<SchedulePlan>,
    plan_cached: bool,
}

impl<'a> ScheduledRun<'a> {
    /// Plans a run: decomposes `matrix` into row jobs and places them
    /// onto `policy.arrays` arrays. Resolves the engine's cost model
    /// internally; callers that already hold one (a prepared pipeline)
    /// use [`ScheduledRun::plan_with_costs`].
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidPolicy`] for a malformed policy and
    /// [`SchedError::SliceSizeMismatch`] when `matrix` was sliced with a
    /// different slice size than `engine` is characterized for.
    pub fn plan(
        engine: &'a PimEngine,
        matrix: &'a SlicedMatrix,
        policy: &SchedPolicy,
    ) -> Result<ScheduledRun<'a>> {
        let costs = engine.cost_model();
        ScheduledRun::plan_with_costs(engine, matrix, policy, costs)
    }

    /// Plans a run against an externally prepared cost model — the
    /// characterize-once seam: the caller resolved pricing once (e.g. at
    /// graph-preparation time) and every plan/execute cycle reuses it.
    ///
    /// # Errors
    ///
    /// As [`ScheduledRun::plan`].
    pub fn plan_with_costs(
        engine: &'a PimEngine,
        matrix: &'a SlicedMatrix,
        policy: &SchedPolicy,
        costs: SliceCostModel,
    ) -> Result<ScheduledRun<'a>> {
        let key = PlanKey::new(engine, matrix, policy, costs)?;
        let schedule_span = tcim_telemetry::span("schedule");
        let plan = SchedulePlan::build(matrix, key);
        drop(schedule_span);
        Ok(ScheduledRun {
            matrix,
            policy: policy.clone(),
            plan: Arc::new(plan),
            plan_cached: false,
        })
    }

    /// Binds an existing `plan` to `engine` and `matrix` without
    /// re-planning. `policy` supplies the host thread count (which no
    /// plan depends on) and is echoed in the report; `cached` records
    /// whether the plan came from a cache rather than being built for
    /// this run, and surfaces as [`ScheduledReport::plan_cached`].
    ///
    /// # Errors
    ///
    /// As [`ScheduledRun::plan`], plus [`SchedError::PlanMismatch`] when
    /// `plan` was built for a different policy, engine configuration,
    /// or matrix shape.
    pub fn bind(
        engine: &'a PimEngine,
        matrix: &'a SlicedMatrix,
        policy: &SchedPolicy,
        plan: Arc<SchedulePlan>,
        cached: bool,
    ) -> Result<ScheduledRun<'a>> {
        let key = PlanKey::new(engine, matrix, policy, *plan.key().costs())?;
        if key != *plan.key() || !plan.fits(matrix) {
            return Err(SchedError::PlanMismatch);
        }
        Ok(ScheduledRun { matrix, policy: policy.clone(), plan, plan_cached: cached })
    }

    /// The placement this run will execute.
    pub fn placement(&self) -> &Placement {
        self.plan.placement()
    }

    /// The shared plan this run executes.
    pub fn schedule_plan(&self) -> &Arc<SchedulePlan> {
        &self.plan
    }

    /// Executes the planned run: fans per-array work over host worker
    /// threads, merges triangle counts and statistics deterministically,
    /// and aggregates inter-array timing/energy.
    pub fn execute(&self) -> ScheduledReport {
        // The simulated bit counter is the synthesized 8→256-LUT module.
        self.execute_with(|| CountOnly(PopcountMethod::Lut8)).0
    }

    /// Executes the planned run with triangle attribution: every array
    /// additionally reads non-zero AND results back out and accumulates
    /// a partial per-vertex participation vector (and, when
    /// `need_support` is set, partial per-arc triangle support); the
    /// partials merge deterministically in array order.
    ///
    /// The extra readouts appear in the per-array statistics and are
    /// priced into the report's critical path and energy, mirroring the
    /// serial engine's attributed run.
    pub fn execute_attributed(&self, need_support: bool) -> AttributedScheduledRun {
        let dim = self.matrix.dim();
        let (report, sinks) =
            self.execute_with(|| Attribute(TriangleTally::new(dim, need_support)));
        let mut total = TriangleTally::new(dim, need_support);
        for Attribute(tally) in sinks {
            total.merge(tally);
        }
        let (_, per_vertex, support) = total.into_parts();
        AttributedScheduledRun { report, per_vertex, support }
    }

    /// Runs every array's share with its own sink from `sink`; the
    /// sinks come back in array order.
    fn execute_with<S: PairSink + Send>(
        &self,
        sink: impl Fn() -> S + Sync,
    ) -> (ScheduledReport, Vec<S>) {
        let arrays = self.policy.arrays;
        let placement = self.plan.placement();
        let per_array_jobs: Vec<Vec<&RowJob>> = (0..arrays)
            .map(|a| placement.rows_of(a).into_iter().map(|j| &placement.jobs[j]).collect())
            .collect();
        let key = self.plan.key();
        let capacity = key.per_array_capacity();
        let (replacement, base_seed) = key.replacement();

        let start = Instant::now();
        // One span covers the whole fan-out: per-array work runs on
        // worker threads, which the calling thread's profiler cannot
        // observe, so the array phase is timed as a unit here.
        let array_span = tcim_telemetry::span("array");
        let runs = parallel_map_indexed(arrays, self.host_threads(), |a| {
            let jobs = &per_array_jobs[a];
            // Reserve the widest assigned row inside this array's
            // share of the buffer, exactly like the serial engine
            // reserves its widest row.
            let row_reserve = jobs.iter().map(|j| j.row_slices as usize).max().unwrap_or(0);
            run_array(
                self.matrix,
                jobs,
                capacity.saturating_sub(row_reserve).max(1),
                replacement,
                base_seed.wrapping_add(a as u64),
                sink(),
            )
        });
        drop(array_span);
        let host_sim_time = start.elapsed();

        // Deterministic merge: array order, independent of thread timing.
        let triangles = runs.iter().map(|r| r.0).sum();
        let rows_per_array: Vec<usize> =
            per_array_jobs.iter().map(std::vec::Vec::len).collect();
        let (stats_per_array, sinks) = runs.into_iter().map(|(_, s, t)| (s, t)).unzip();
        let report = ScheduledReport::assemble(
            triangles,
            self.policy.clone(),
            &rows_per_array,
            stats_per_array,
            key.costs(),
            PlanTiming {
                placement_time: self.plan.placement_time(),
                cached: self.plan_cached,
            },
            host_sim_time,
        );
        (report, sinks)
    }

    fn host_threads(&self) -> usize {
        self.policy.resolved_host_threads()
    }
}

/// Applies `f` to `0..n`, fanning over at most `threads` scoped worker
/// threads; results come back indexed, so output order is deterministic
/// regardless of scheduling.
///
/// Exposed because every layer that fans per-array work over the host
/// (this crate's runners, the `tcim-stream` delta executor) needs the
/// identical deterministic fork-join shape. Workers re-enter the
/// caller's [`BuildScope`]s, so matrix builds inside `f` are counted as
/// the caller's.
pub fn parallel_map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.min(n).max(1);
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let mut results: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    // Matrix builds on a worker count toward the caller's build scopes.
    let build_scopes = BuildScope::active();
    std::thread::scope(|scope| {
        let chunks = results.chunks_mut(n.div_ceil(workers));
        for (w, chunk) in chunks.enumerate() {
            let f = &f;
            let build_scopes = &build_scopes;
            let base = w * n.div_ceil(workers);
            scope.spawn(move || {
                let _builds = BuildScope::enter_all(build_scopes);
                for (off, slot) in chunk.iter_mut().enumerate() {
                    *slot = Some(f(base + off));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index is computed by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PlacementPolicy;
    use tcim_arch::PimConfig;
    use tcim_bitmatrix::{SliceSize, SlicedMatrixBuilder};

    fn engine() -> PimEngine {
        PimEngine::new(&PimConfig::default()).unwrap()
    }

    fn wheel_matrix(n: usize) -> SlicedMatrix {
        // Hub 0 plus a rim cycle: n - 1 rim triangles.
        let mut b = SlicedMatrixBuilder::new(n, SliceSize::S64);
        for v in 1..n {
            b.add_edge(0, v).unwrap();
        }
        for v in 1..n - 1 {
            b.add_edge(v, v + 1).unwrap();
        }
        b.add_edge(n - 1, 1).unwrap();
        b.build()
    }

    #[test]
    fn scheduled_count_matches_serial_for_every_policy_and_width() {
        let e = engine();
        let m = wheel_matrix(300);
        let serial = e.run(&m).triangles;
        assert_eq!(serial, 299);
        for placement in PlacementPolicy::ALL {
            for arrays in [1usize, 2, 4, 8, 16] {
                let policy = SchedPolicy { arrays, placement, host_threads: Some(2) };
                let report = ScheduledRun::plan(&e, &m, &policy).unwrap().execute().triangles;
                assert_eq!(report, serial, "{placement} x{arrays}");
            }
        }
    }

    #[test]
    fn parallel_and_serial_host_agree_exactly() {
        let e = engine();
        let m = wheel_matrix(500);
        let serial_host = SchedPolicy { host_threads: Some(1), ..SchedPolicy::with_arrays(8) };
        let parallel_host = SchedPolicy { host_threads: None, ..SchedPolicy::with_arrays(8) };
        let a = ScheduledRun::plan(&e, &m, &serial_host).unwrap().execute();
        let b = ScheduledRun::plan(&e, &m, &parallel_host).unwrap().execute();
        assert_eq!(a.triangles, b.triangles);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.critical_path_s, b.critical_path_s);
    }

    #[test]
    fn bound_plan_reproduces_a_fresh_plan_exactly() {
        let e = engine();
        let m = wheel_matrix(400);
        for placement in PlacementPolicy::ALL {
            let policy = SchedPolicy::with_arrays(4).placement(placement);
            let fresh = ScheduledRun::plan(&e, &m, &policy).unwrap();
            let plan = Arc::clone(fresh.schedule_plan());
            // Any host thread count binds the same plan.
            let serial_host = SchedPolicy { host_threads: Some(1), ..policy.clone() };
            let bound = ScheduledRun::bind(&e, &m, &serial_host, plan, true).unwrap();
            let (a, b) = (fresh.execute(), bound.execute());
            assert!(!a.plan_cached && b.plan_cached, "{placement}");
            assert_eq!(a.triangles, b.triangles, "{placement}");
            assert_eq!(a.stats, b.stats, "{placement}");
            assert_eq!(a.critical_path_s, b.critical_path_s, "{placement}");
            assert_eq!(a.total_energy_j, b.total_energy_j, "{placement}");
            assert_eq!(a.placement_time, b.placement_time, "{placement}");
        }
    }

    #[test]
    fn binding_a_plan_to_another_configuration_is_rejected() {
        let e = engine();
        let m = wheel_matrix(200);
        let plan = Arc::clone(
            ScheduledRun::plan(&e, &m, &SchedPolicy::with_arrays(4)).unwrap().schedule_plan(),
        );
        let other_arrays = SchedPolicy::with_arrays(2);
        let err = ScheduledRun::bind(&e, &m, &other_arrays, Arc::clone(&plan), true);
        assert!(matches!(err, Err(SchedError::PlanMismatch)));
        let tiny = PimEngine::new(&PimConfig {
            capacity_slices_override: Some(16),
            ..PimConfig::default()
        })
        .unwrap();
        let err = ScheduledRun::bind(
            &tiny,
            &m,
            &SchedPolicy::with_arrays(4),
            Arc::clone(&plan),
            true,
        );
        assert!(matches!(err, Err(SchedError::PlanMismatch)));
        let other_matrix = wheel_matrix(150);
        let err =
            ScheduledRun::bind(&e, &other_matrix, &SchedPolicy::with_arrays(4), plan, true);
        assert!(matches!(err, Err(SchedError::PlanMismatch)));
    }

    #[test]
    fn attributed_run_matches_serial_local_counts() {
        let e = engine();
        let m = wheel_matrix(120);
        let mut tally = TriangleTally::new(m.dim(), false);
        let serial = e.run_attributed(&m, &mut tally);
        let (_, serial_per_vertex, _) = tally.into_parts();
        for arrays in [1usize, 2, 4, 8] {
            let policy =
                SchedPolicy { arrays, host_threads: Some(2), ..SchedPolicy::default() };
            let run = ScheduledRun::plan(&e, &m, &policy).unwrap().execute_attributed(true);
            assert_eq!(run.report.triangles, serial.triangles, "{arrays} arrays");
            assert_eq!(run.per_vertex, serial_per_vertex, "{arrays} arrays");
            assert_eq!(run.report.stats.result_readouts, serial.stats.result_readouts);
            // Every triangle contributes to exactly three arcs.
            let support = run.support.unwrap();
            let total: u64 = support.iter().map(|&(_, _, c)| c).sum();
            assert_eq!(total, 3 * serial.triangles);
            assert!(support.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        }
    }

    #[test]
    fn plan_rejects_slice_size_mismatch() {
        let e = engine();
        let mut b = SlicedMatrixBuilder::new(8, SliceSize::S32);
        b.add_edge(0, 1).unwrap();
        let m = b.build();
        let err = ScheduledRun::plan(&e, &m, &SchedPolicy::default()).unwrap_err();
        assert!(matches!(err, SchedError::SliceSizeMismatch { .. }));
    }

    #[test]
    fn empty_matrix_schedules_cleanly() {
        let e = engine();
        let m = SlicedMatrix::from_adjacency(&[], SliceSize::S64).unwrap();
        let report = ScheduledRun::plan(&e, &m, &SchedPolicy::default()).unwrap().execute();
        assert_eq!(report.triangles, 0);
        assert_eq!(report.critical_path_s, 0.0);
        assert_eq!(report.imbalance, 1.0);
    }

    #[test]
    fn parallel_map_carries_build_scopes_onto_workers() {
        let scope = BuildScope::new();
        let _counting = scope.enter();
        parallel_map_indexed(4, 4, |i| wheel_matrix(10 + i));
        assert_eq!(scope.builds(), 4);
    }

    #[test]
    fn parallel_map_is_deterministic_and_complete() {
        let out = parallel_map_indexed(37, 5, |i| i * i);
        assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        let serial = parallel_map_indexed(7, 1, |i| i + 1);
        assert_eq!(serial, vec![1, 2, 3, 4, 5, 6, 7]);
    }
}
