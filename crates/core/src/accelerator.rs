//! Accelerator-level checks of the multi-array TCIM configuration: the
//! paper's dataflow prepared once by [`TcimPipeline`] and run on
//! [`Backend::ScheduledPim`] against the serial engine and the software
//! baseline.

mod tests {
    use crate::{
        baseline, Backend, BackendDetail, PlacementPolicy, PreparedGraph, SchedPolicy,
        ScheduledReport, TcimConfig, TcimPipeline,
    };
    use tcim_graph::generators::barabasi_albert;

    fn pipeline() -> TcimPipeline {
        TcimPipeline::new(&TcimConfig::default()).unwrap()
    }

    fn scheduled(
        p: &TcimPipeline,
        prepared: &PreparedGraph,
        policy: &SchedPolicy,
    ) -> ScheduledReport {
        let report = p.execute(prepared, &Backend::ScheduledPim(policy.clone())).unwrap();
        let BackendDetail::ScheduledPim(sched) = report.detail else {
            unreachable!("the scheduled PIM backend returns a scheduled report")
        };
        *sched
    }

    #[test]
    fn scheduled_counts_match_serial_and_software_baseline() {
        let p = pipeline();
        let g = barabasi_albert(400, 6, 3).unwrap();
        let software = baseline::edge_iterator_merge(&g);
        let prepared = p.prepare(&g);
        let serial = p.execute(&prepared, &Backend::SerialPim).unwrap().triangles;
        assert_eq!(serial, software);
        for placement in PlacementPolicy::ALL {
            for arrays in [1usize, 2, 4, 8, 16] {
                let policy = SchedPolicy { arrays, placement, host_threads: Some(2) };
                let report = scheduled(&p, &prepared, &policy);
                assert_eq!(report.triangles, software, "{placement} x{arrays}");
                assert_eq!(report.arrays(), arrays);
                assert!(report.imbalance >= 1.0 - 1e-12);
            }
        }
    }

    #[test]
    fn load_balanced_critical_path_beats_round_robin_on_skewed_graphs() {
        let p = pipeline();
        // Preferential attachment: heavy-tailed degree distribution, the
        // adversarial case for reuse-blind dealing.
        for seed in [3u64, 11] {
            let prepared = p.prepare(&barabasi_albert(600, 8, seed).unwrap());
            for arrays in [2usize, 4, 8, 16] {
                let policy = SchedPolicy::with_arrays(arrays);
                let rr = scheduled(
                    &p,
                    &prepared,
                    &policy.clone().placement(PlacementPolicy::RoundRobin),
                );
                let lpt =
                    scheduled(&p, &prepared, &policy.placement(PlacementPolicy::LoadBalanced));
                assert_eq!(rr.triangles, lpt.triangles);
                assert!(
                    lpt.critical_path_s <= rr.critical_path_s + 1e-18,
                    "seed {seed}, {arrays} arrays: LPT {} vs RR {}",
                    lpt.critical_path_s,
                    rr.critical_path_s
                );
            }
        }
    }
}
