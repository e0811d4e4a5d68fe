//! The per-array executor: Algorithm 1 restricted to one array's
//! assigned rows, with the array's own column-slice buffer.
//!
//! It runs the same kernel walk and PIM accounting as
//! `tcim_arch::PimEngine::run`; the difference is scope — each array
//! only sees its assigned rows and manages an independent (partitioned)
//! data buffer, which is exactly what makes the scheduled counts
//! bit-identical to the serial engine: the AND + BitCount dataflow per
//! edge is unchanged, only *where* and *when* each edge executes moves.

use tcim_arch::walk::{PairSink, PimAccounting, Walk};
use tcim_arch::{AccessStats, ReplacementPolicy};
use tcim_bitmatrix::SlicedMatrix;

use crate::jobs::RowJob;

/// Executes the assigned `jobs` (ascending row order) on one array
/// whose column-slice buffer holds `column_capacity` slices, feeding
/// every AND result to `sink`. Returns the array's triangles, access
/// statistics and the sink.
pub(crate) fn run_array<S: PairSink>(
    matrix: &SlicedMatrix,
    jobs: &[&RowJob],
    column_capacity: usize,
    replacement: ReplacementPolicy,
    replacement_seed: u64,
    sink: S,
) -> (u64, AccessStats, S) {
    let accounting =
        PimAccounting::new(column_capacity.max(1), replacement, replacement_seed, 0);
    let mut walk = Walk::new(accounting, sink);
    for job in jobs {
        let row = matrix.row(job.row);
        for &j in &job.cols {
            walk.arc(job.row, j, [(row, matrix.col(j))]);
        }
    }
    let (stats, _) = walk.accounting.finish(&walk.kernel);
    (walk.triangles, stats, walk.sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::decompose;
    use tcim_arch::walk::CountOnly;
    use tcim_arch::{PimConfig, PimEngine};
    use tcim_bitmatrix::{PopcountMethod, SliceSize, SlicedMatrixBuilder};

    const COUNT: CountOnly = CountOnly(PopcountMethod::Lut8);

    fn fig2() -> SlicedMatrix {
        let mut b = SlicedMatrixBuilder::new(4, SliceSize::S64);
        for (u, v) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)] {
            b.add_edge(u, v).unwrap();
        }
        b.build()
    }

    #[test]
    fn one_array_reproduces_the_serial_engine() {
        let m = fig2();
        let engine = PimEngine::new(&PimConfig::default()).unwrap();
        let jobs = decompose(&m, &engine.cost_model());
        let refs: Vec<&RowJob> = jobs.iter().collect();
        let (triangles, stats, _) =
            run_array(&m, &refs, 1024, ReplacementPolicy::Lru, 0, COUNT);
        let serial = engine.run(&m);
        assert_eq!(triangles, serial.triangles);
        assert_eq!(stats.and_ops, serial.stats.and_ops);
        assert_eq!(stats.row_slice_writes, serial.stats.row_slice_writes);
    }

    #[test]
    fn disjoint_partitions_sum_to_the_whole() {
        let m = fig2();
        let engine = PimEngine::new(&PimConfig::default()).unwrap();
        let jobs = decompose(&m, &engine.cost_model());
        let serial = engine.run(&m).triangles;
        let first: Vec<&RowJob> = jobs.iter().take(1).collect();
        let rest: Vec<&RowJob> = jobs.iter().skip(1).collect();
        let (a, a_stats, _) = run_array(&m, &first, 64, ReplacementPolicy::Lru, 0, COUNT);
        let (b, b_stats, _) = run_array(&m, &rest, 64, ReplacementPolicy::Lru, 1, COUNT);
        assert_eq!(a + b, serial);
        assert_eq!(a_stats.edges + b_stats.edges, 5);
    }

    #[test]
    fn tiny_buffer_changes_traffic_not_counts() {
        let mut b = SlicedMatrixBuilder::new(500, SliceSize::S64);
        for v in 1..500 {
            b.add_edge(0, v).unwrap();
        }
        for v in 1..499 {
            b.add_edge(v, v + 1).unwrap();
        }
        let m = b.build();
        let engine = PimEngine::new(&PimConfig::default()).unwrap();
        let jobs = decompose(&m, &engine.cost_model());
        let refs: Vec<&RowJob> = jobs.iter().collect();
        let (roomy, roomy_stats, _) =
            run_array(&m, &refs, 4096, ReplacementPolicy::Lru, 0, COUNT);
        let (tight, tight_stats, _) =
            run_array(&m, &refs, 1, ReplacementPolicy::Lru, 0, COUNT);
        assert_eq!(roomy, tight);
        assert!(tight_stats.col_exchanges > roomy_stats.col_exchanges);
    }
}
