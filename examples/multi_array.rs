//! Multi-array scheduling: place a skewed graph's rows onto independent
//! computational arrays, compare placement policies, and run several
//! graphs through one pipeline.
//!
//! Run with:
//! ```text
//! cargo run --release --example multi_array
//! ```

use tcim_repro::graph::generators::{barabasi_albert, road_grid};
use tcim_repro::graph::CsrGraph;
use tcim_repro::sched::{PlacementPolicy, SchedPolicy, ScheduledReport};
use tcim_repro::tcim::{baseline, Backend, BackendDetail, TcimConfig, TcimPipeline};

/// Prepares `g` (cached by the pipeline) and runs it on the scheduled
/// multi-array backend under `policy`.
fn scheduled(
    pipeline: &TcimPipeline,
    g: &CsrGraph,
    policy: SchedPolicy,
) -> Result<ScheduledReport, Box<dyn std::error::Error>> {
    let report = pipeline.execute(&pipeline.prepare(g), &Backend::ScheduledPim(policy))?;
    let BackendDetail::ScheduledPim(sched) = report.detail else {
        unreachable!("the scheduled PIM backend returns a scheduled report")
    };
    Ok(*sched)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pipeline = TcimPipeline::new(&TcimConfig::default())?;

    // --- Part 1: one skewed graph, three placement policies ----------
    let graph = barabasi_albert(3000, 8, 7)?;
    let expected = baseline::edge_iterator_merge(&graph);
    println!(
        "== Barabási–Albert graph: |V| = {}, |E| = {}, {} triangles ==",
        graph.vertex_count(),
        graph.edge_count(),
        expected
    );

    for placement in PlacementPolicy::ALL {
        let policy = SchedPolicy::with_arrays(8).placement(placement);
        let report = scheduled(&pipeline, &graph, policy)?;
        assert_eq!(report.triangles, expected, "scheduling never changes counts");
        println!(
            "  {placement:>13} x8: critical path {:.3e} s, imbalance {:.3}, \
             array speedup {:.2}x, hit rate {:.1}%",
            report.critical_path_s,
            report.imbalance,
            report.array_speedup(),
            100.0 * report.stats.hit_rate(),
        );
    }

    // --- Part 2: per-array utilization under the default policy ------
    let report = scheduled(&pipeline, &graph, SchedPolicy::with_arrays(8))?;
    println!("\n== per-array utilization (load-balanced, 8 arrays) ==");
    for array in &report.per_array {
        println!(
            "  array {}: {:>4} rows, busy {:.3e} s, utilization {:>5.1}%, {}",
            array.array,
            array.rows,
            array.busy_s,
            100.0 * array.utilization,
            array.stats,
        );
    }

    // --- Part 3: several independent graphs ---------------------------
    println!("\n== three graphs through one pipeline ==");
    let graphs = [
        barabasi_albert(1500, 6, 1)?,
        road_grid(25, 25, 0.9, 0.3, 2)?,
        barabasi_albert(800, 4, 3)?,
    ];
    for (i, g) in graphs.iter().enumerate() {
        let job = scheduled(&pipeline, g, SchedPolicy::with_arrays(4))?;
        assert_eq!(job.triangles, baseline::edge_iterator_merge(g));
        println!(
            "  job {i}: {} triangles, critical path {:.3e} s, imbalance {:.3}",
            job.triangles, job.critical_path_s, job.imbalance
        );
    }
    Ok(())
}
