//! Run-time execution of Algorithm 1 over a prepared [`SlicedMatrix`]:
//! iterate edges, load valid slice pairs, AND + BitCount, manage the
//! column cache, account latency and energy.
//!
//! The public surface is the result types ([`PimRunResult`] and its
//! latency/energy breakdowns). The executors themselves are private:
//! they take a [`PimCharacterization`] (built once per configuration)
//! and a matrix that is already oriented and sliced — the run-time half
//! of the characterize/run split — and are reached only through
//! [`PimEngine::run`](crate::PimEngine::run) and
//! [`PimEngine::run_attributed`](crate::PimEngine::run_attributed).

use tcim_bitmatrix::SlicedMatrix;

use crate::characterization::PimCharacterization;
use crate::stats::AccessStats;
use crate::walk::{PairSink, PimAccounting, Walk};
use tcim_telemetry::EventTrace;

/// Where the simulated time went.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyBreakdown {
    /// Array WRITE time (row loads + column loads), after parallelism (s).
    pub write_s: f64,
    /// AND operation time, after parallelism (s).
    pub and_s: f64,
    /// Bit-counter time, after parallelism (s).
    pub bitcount_s: f64,
    /// AND-result readout time (local counting only), after
    /// parallelism (s).
    pub readout_s: f64,
    /// Host controller dispatch time (serial) (s).
    pub controller_s: f64,
}

impl LatencyBreakdown {
    /// Total simulated runtime (s).
    pub fn total_s(&self) -> f64 {
        self.write_s + self.and_s + self.bitcount_s + self.readout_s + self.controller_s
    }
}

/// Where the simulated energy went.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Array WRITE energy (J).
    pub write_j: f64,
    /// AND energy (J).
    pub and_j: f64,
    /// Bit-counter energy (J).
    pub bitcount_j: f64,
    /// AND-result readout energy (local counting only) (J).
    pub readout_j: f64,
    /// Peripheral leakage over the runtime (J).
    pub leakage_j: f64,
    /// Host controller energy (J).
    pub controller_j: f64,
}

impl EnergyBreakdown {
    /// Total energy (J).
    pub fn total_j(&self) -> f64 {
        self.write_j
            + self.and_j
            + self.bitcount_j
            + self.readout_j
            + self.leakage_j
            + self.controller_j
    }
}

/// Result of one simulated TCIM run.
#[derive(Debug, Clone)]
pub struct PimRunResult {
    /// The triangle count — functionally exact, produced by the simulated
    /// AND/BitCount dataflow itself.
    pub triangles: u64,
    /// Access statistics (Fig. 5 quantities).
    pub stats: AccessStats,
    /// Latency breakdown.
    pub latency: LatencyBreakdown,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Event trace (empty unless enabled in the config).
    pub trace: EventTrace,
}

impl PimRunResult {
    /// Total simulated runtime (s).
    pub fn total_time_s(&self) -> f64 {
        self.latency.total_s()
    }

    /// Total simulated energy (J).
    pub fn total_energy_j(&self) -> f64 {
        self.energy.total_j()
    }
}

/// The kernel walk over `matrix` on one simulated array, rolled up into
/// latency and energy.
pub(crate) fn simulate(
    chr: &PimCharacterization,
    matrix: &SlicedMatrix,
    sink: impl PairSink,
) -> PimRunResult {
    assert_eq!(
        matrix.slice_size(),
        chr.config().slice_size,
        "matrix slice size must match the engine configuration"
    );
    let config = chr.config();
    let accounting = PimAccounting::new(
        chr.column_capacity(matrix),
        config.replacement,
        config.replacement_seed,
        config.trace_capacity,
    );
    let mut walk = Walk::new(accounting, sink);
    walk.matrix(matrix);
    let (stats, trace) = walk.accounting.finish(&walk.kernel);
    let (latency, energy) = chr.roll_up(&stats);
    PimRunResult { triangles: walk.triangles, stats, latency, energy, trace }
}
