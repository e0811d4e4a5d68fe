//! Repository-level end-to-end tests of the multi-array scheduler: the
//! acceptance criteria of the `tcim-sched` subsystem, checked through
//! `TcimPipeline` on `Backend::ScheduledPim` against the software
//! baselines.

use tcim_repro::graph::generators::{barabasi_albert, classic, gnm};
use tcim_repro::sched::{PlacementPolicy, SchedPolicy, ScheduledReport};
use tcim_repro::tcim::{
    baseline, Backend, BackendDetail, PreparedGraph, TcimConfig, TcimPipeline,
};

fn pipeline() -> TcimPipeline {
    TcimPipeline::new(&TcimConfig::default()).unwrap()
}

/// Runs `prepared` on the scheduled multi-array backend under `policy`.
fn scheduled(
    p: &TcimPipeline,
    prepared: &PreparedGraph,
    policy: SchedPolicy,
) -> ScheduledReport {
    let report = p.execute(prepared, &Backend::ScheduledPim(policy)).unwrap();
    let BackendDetail::ScheduledPim(sched) = report.detail else {
        unreachable!("the scheduled PIM backend returns a scheduled report")
    };
    *sched
}

/// For every policy and array count in {1, 2, 4, 8, 16}: scheduled ==
/// serial == software baseline.
#[test]
fn scheduled_serial_and_software_counts_agree_everywhere() {
    let p = pipeline();
    let graphs = vec![
        classic::fig2_example(),
        classic::complete(25),
        gnm(300, 2200, 9).unwrap(),
        barabasi_albert(300, 5, 4).unwrap(),
    ];
    for g in graphs {
        let software = baseline::edge_iterator_merge(&g);
        let prepared = p.prepare(&g);
        let serial = p.execute(&prepared, &Backend::SerialPim).unwrap().triangles;
        assert_eq!(serial, software);
        for placement in PlacementPolicy::ALL {
            for arrays in [1usize, 2, 4, 8, 16] {
                let policy = SchedPolicy { arrays, placement, host_threads: None };
                let report = scheduled(&p, &prepared, policy);
                assert_eq!(report.triangles, software, "{placement} x{arrays} on {g:?}");
                assert_eq!(report.arrays(), arrays);
                assert!(report.imbalance >= 1.0 - 1e-12);
            }
        }
    }
}

/// On skewed (Barabási–Albert) graphs the load-balanced policy's
/// critical path never exceeds round-robin's, at any width.
#[test]
fn load_balancing_never_loses_to_round_robin_on_skewed_graphs() {
    let p = pipeline();
    // Preferential attachment: heavy-tailed degree distributions, the
    // adversarial case for reuse-blind dealing.
    for seed in [1u64, 7, 23] {
        let prepared = p.prepare(&barabasi_albert(500, 7, seed).unwrap());
        for arrays in [1usize, 2, 4, 8, 16] {
            let policy = SchedPolicy::with_arrays(arrays);
            let rr = scheduled(
                &p,
                &prepared,
                policy.clone().placement(PlacementPolicy::RoundRobin),
            );
            let lpt =
                scheduled(&p, &prepared, policy.placement(PlacementPolicy::LoadBalanced));
            assert_eq!(rr.triangles, lpt.triangles);
            assert!(
                lpt.critical_path_s <= rr.critical_path_s + 1e-18,
                "seed {seed} x{arrays}: LPT {} vs RR {}",
                lpt.critical_path_s,
                rr.critical_path_s
            );
            assert!(lpt.imbalance <= rr.imbalance + 1e-12);
        }
    }
}

/// More arrays shorten the modelled critical path (the parallelism the
/// scheduler exists to expose) while counts stay fixed.
#[test]
fn wider_schedules_shorten_the_critical_path() {
    let p = pipeline();
    let g = barabasi_albert(800, 8, 5).unwrap();
    let expected = baseline::edge_iterator_merge(&g);
    let prepared = p.prepare(&g);
    let mut previous = f64::INFINITY;
    for arrays in [1usize, 2, 4, 8, 16] {
        let report = scheduled(&p, &prepared, SchedPolicy::with_arrays(arrays));
        assert_eq!(report.triangles, expected);
        assert!(
            report.critical_path_s <= previous + 1e-18,
            "{arrays} arrays: {} after {previous}",
            report.critical_path_s
        );
        previous = report.critical_path_s;
    }
}

/// Independent graphs scheduled through one pipeline count exactly, and
/// a second pass reproduces every report.
#[test]
fn independent_graphs_schedule_deterministically() {
    let p = pipeline();
    let graphs = [classic::wheel(40), gnm(200, 1200, 3).unwrap(), classic::complete(15)];
    let expected: Vec<u64> = graphs.iter().map(baseline::edge_iterator_merge).collect();
    let pass = || -> Vec<ScheduledReport> {
        graphs
            .iter()
            .map(|g| scheduled(&p, &p.prepare(g), SchedPolicy::with_arrays(4)))
            .collect()
    };
    let (first, second) = (pass(), pass());
    let counts: Vec<u64> = first.iter().map(|r| r.triangles).collect();
    assert_eq!(counts, expected);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.triangles, b.triangles, "scheduled execution must be deterministic");
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.critical_path_s.to_bits(), b.critical_path_s.to_bits());
    }
}
