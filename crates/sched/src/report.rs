//! Inter-array timing/energy aggregation: critical-path latency,
//! per-array utilization and the load-imbalance factor.
//!
//! The serial engine reports a single latency obtained by dividing
//! array-side work uniformly over the organization's subarrays. A
//! scheduled run replaces that approximation with explicit placement:
//! each array's busy time is priced individually (`parallel = 1` inside
//! an array), the run finishes when the *slowest* array finishes, and
//! the host's edge-dispatch remains serial — so
//!
//! ```text
//! critical_path = controller(total edges) + max_a busy(a)
//! ```

use tcim_arch::{AccessStats, SliceCostModel};

use crate::placement::imbalance;
use crate::policy::SchedPolicy;

/// Where a run's placement came from: how long planning took and
/// whether the plan was reused from a cache.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PlanTiming {
    pub placement_time: std::time::Duration,
    pub cached: bool,
}

/// Per-array outcome of a scheduled run.
#[derive(Debug, Clone)]
pub struct ArrayReport {
    /// Array index.
    pub array: usize,
    /// Rows (jobs) this array executed.
    pub rows: usize,
    /// The array's access statistics.
    pub stats: AccessStats,
    /// Array-side busy time (writes + ANDs + bit counts), seconds.
    pub busy_s: f64,
    /// Busy time relative to the slowest array (0..=1; 1 for the
    /// critical array, 0 for an idle one).
    pub utilization: f64,
    /// Switching energy spent by this array (J), excluding shared
    /// leakage and host energy.
    pub switching_j: f64,
}

/// Everything one scheduled multi-array run produces.
#[derive(Debug, Clone)]
pub struct ScheduledReport {
    /// Exact triangle count, merged deterministically over arrays.
    pub triangles: u64,
    /// The policy the run was scheduled under.
    pub policy: SchedPolicy,
    /// Per-array statistics, indexed by array.
    pub per_array: Vec<ArrayReport>,
    /// Aggregate access statistics (sums over arrays).
    pub stats: AccessStats,
    /// Serial host dispatch time over all edges (s).
    pub controller_s: f64,
    /// Busy time of the slowest array (s).
    pub max_busy_s: f64,
    /// Mean array busy time (s), over all arrays including idle ones.
    pub mean_busy_s: f64,
    /// End-to-end modelled latency: serial controller + slowest array.
    pub critical_path_s: f64,
    /// Load-imbalance factor `max busy / mean busy` (1.0 = perfect).
    pub imbalance: f64,
    /// Total modelled energy (J): switching + leakage over the critical
    /// path + host controller energy.
    pub total_energy_j: f64,
    /// Host wall-clock time building the placement this run executed
    /// took. On a cached plan ([`plan_cached`](Self::plan_cached)) this
    /// is the time the original planning took, spent by the earlier call
    /// that built the plan, not by this run: a caller totalling host
    /// planning cost counts only reports with `plan_cached == false`.
    pub placement_time: std::time::Duration,
    /// Whether the run executed a plan taken from a plan cache (`true`)
    /// rather than one built for this run (`false`). Never changes the
    /// modelled results: a cached plan is the plan a fresh planning
    /// would build.
    pub plan_cached: bool,
    /// Host wall-clock time spent simulating the arrays.
    pub host_sim_time: std::time::Duration,
}

impl ScheduledReport {
    /// Total modelled runtime (s) — the critical path.
    pub fn total_time_s(&self) -> f64 {
        self.critical_path_s
    }

    /// Modelled speedup of array work relative to executing the same
    /// placement on one array (`Σ busy / max busy`); bounded by the
    /// array count.
    pub fn array_speedup(&self) -> f64 {
        if self.max_busy_s > 0.0 {
            self.per_array.iter().map(|a| a.busy_s).sum::<f64>() / self.max_busy_s
        } else {
            1.0
        }
    }

    /// The number of arrays the run was placed onto.
    pub fn arrays(&self) -> usize {
        self.per_array.len()
    }

    /// Assembles the report from per-array outcomes.
    pub(crate) fn assemble(
        triangles: u64,
        policy: SchedPolicy,
        rows_per_array: &[usize],
        stats_per_array: Vec<AccessStats>,
        costs: &SliceCostModel,
        plan: PlanTiming,
        host_sim_time: std::time::Duration,
    ) -> ScheduledReport {
        let busy: Vec<f64> = stats_per_array.iter().map(|s| costs.array_busy_s(s)).collect();
        let max_busy_s = busy.iter().cloned().fold(0.0f64, f64::max);
        let mean_busy_s = busy.iter().sum::<f64>() / busy.len().max(1) as f64;

        let mut aggregate = AccessStats::default();
        let mut per_array = Vec::with_capacity(stats_per_array.len());
        let mut switching_total = 0.0f64;
        for (array, stats) in stats_per_array.into_iter().enumerate() {
            aggregate.merge(&stats);
            let switching_j = stats.total_writes() as f64 * costs.write_energy_j
                + stats.and_ops as f64 * costs.and_energy_j
                + stats.bitcount_ops as f64 * costs.bitcount_energy_j
                + stats.result_readouts as f64 * costs.readout_energy_j;
            switching_total += switching_j;
            per_array.push(ArrayReport {
                array,
                rows: rows_per_array[array],
                stats,
                busy_s: busy[array],
                utilization: if max_busy_s > 0.0 { busy[array] / max_busy_s } else { 0.0 },
                switching_j,
            });
        }

        let controller_s = aggregate.edges as f64 * costs.controller_overhead_s;
        let critical_path_s = controller_s + max_busy_s;
        let total_energy_j = switching_total
            + costs.leakage_w * critical_path_s
            + costs.host_power_w * controller_s;

        ScheduledReport {
            triangles,
            policy,
            per_array,
            stats: aggregate,
            controller_s,
            max_busy_s,
            mean_busy_s,
            critical_path_s,
            imbalance: imbalance(&busy),
            total_energy_j,
            placement_time: plan.placement_time,
            plan_cached: plan.cached,
            host_sim_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcim_arch::{PimConfig, PimEngine};

    fn costs() -> SliceCostModel {
        PimEngine::new(&PimConfig::default()).unwrap().cost_model()
    }

    fn stats(edges: u64, pairs: u64, writes: u64) -> AccessStats {
        AccessStats {
            edges,
            and_ops: pairs,
            bitcount_ops: pairs,
            row_slice_writes: writes,
            col_misses: pairs.min(writes),
            ..AccessStats::default()
        }
    }

    #[test]
    fn critical_path_is_controller_plus_slowest_array() {
        let c = costs();
        let report = ScheduledReport::assemble(
            7,
            SchedPolicy::with_arrays(2),
            &[2, 1],
            vec![stats(10, 40, 6), stats(5, 10, 2)],
            &c,
            PlanTiming::default(),
            std::time::Duration::ZERO,
        );
        assert_eq!(report.triangles, 7);
        assert_eq!(report.stats.edges, 15);
        let busy0 = report.per_array[0].busy_s;
        let busy1 = report.per_array[1].busy_s;
        assert!(busy0 > busy1);
        assert!((report.max_busy_s - busy0).abs() < 1e-18);
        assert!((report.critical_path_s - (report.controller_s + busy0)).abs() < 1e-18);
        assert!((report.per_array[0].utilization - 1.0).abs() < 1e-12);
        assert!(report.per_array[1].utilization < 1.0);
        assert!(report.imbalance > 1.0);
        assert!(report.array_speedup() > 1.0);
        assert!(report.total_energy_j > 0.0);
    }

    #[test]
    fn idle_run_is_well_defined() {
        let report = ScheduledReport::assemble(
            0,
            SchedPolicy::with_arrays(4),
            &[0, 0, 0, 0],
            vec![AccessStats::default(); 4],
            &costs(),
            PlanTiming::default(),
            std::time::Duration::ZERO,
        );
        assert_eq!(report.triangles, 0);
        assert_eq!(report.critical_path_s, 0.0);
        assert_eq!(report.imbalance, 1.0);
        assert_eq!(report.array_speedup(), 1.0);
        assert_eq!(report.arrays(), 4);
    }
}
