//! Plans once per artifact: a scheduled placement, and a sharded
//! composition plan, is built by the first query that needs it and
//! reused by every later one. Reuse must be invisible in the results:
//! a cached plan executes bit-identically to a fresh one.

use std::sync::Arc;

use tcim_repro::arch::{AccessStats, PimConfig, ReplacementPolicy};
use tcim_repro::bitmatrix::EncodingPolicy;
use tcim_repro::graph::generators::{barabasi_albert, gnm};
use tcim_repro::sched::{AttributedScheduledRun, ScheduledRun};
use tcim_repro::shard::{ShardMode, ShardSpec};
use tcim_repro::tcim::backend::ScheduledPimBackend;
use tcim_repro::tcim::{
    AttributedRun, Backend, BackendDetail, CountReport, ExecutionBackend, PlacementPolicy,
    PlanCacheStats, PreparedGraph, Query, SchedPolicy, ShardPolicy, TcimConfig, TcimPipeline,
};

/// The three execution primitives: count only, per-vertex attribution,
/// and per-vertex attribution with per-arc support.
const ATTRIBUTIONS: [Option<bool>; 3] = [None, Some(false), Some(true)];

fn run(scheduled: &ScheduledRun<'_>, attribution: Option<bool>) -> AttributedScheduledRun {
    match attribution {
        None => AttributedScheduledRun {
            report: scheduled.execute(),
            per_vertex: Vec::new(),
            support: None,
        },
        Some(need_support) => scheduled.execute_attributed(need_support),
    }
}

fn per_array_stats(run: &AttributedScheduledRun) -> Vec<AccessStats> {
    run.report.per_array.iter().map(|a| a.stats).collect()
}

fn assert_same_run(ctx: &str, a: &AttributedScheduledRun, b: &AttributedScheduledRun) {
    assert_eq!(a.report.triangles, b.report.triangles, "{ctx}: triangles");
    assert_eq!(per_array_stats(a), per_array_stats(b), "{ctx}: per-array stats");
    assert_eq!(a.report.critical_path_s, b.report.critical_path_s, "{ctx}: critical path");
    assert_eq!(a.report.total_energy_j, b.report.total_energy_j, "{ctx}: energy");
    assert_eq!(a.per_vertex, b.per_vertex, "{ctx}: per-vertex");
    assert_eq!(a.support, b.support, "{ctx}: support");
}

fn pipeline_with(encoding: EncodingPolicy, pim: PimConfig) -> TcimPipeline {
    TcimPipeline::new(&TcimConfig { encoding, pim, ..TcimConfig::default() }).unwrap()
}

/// Every placement policy × array count × encoding × execution
/// primitive: the cached path's first call (which plans), its repeat
/// (which reuses) and a fresh plan outside any cache report identical
/// triangles, per-array access statistics, critical path and energy.
#[test]
fn cached_plans_execute_bit_identically_to_fresh_plans() {
    let g = gnm(400, 3200, 23).unwrap();
    for encoding in [EncodingPolicy::ForceDense, EncodingPolicy::ForceSparse] {
        let pipeline = pipeline_with(encoding, PimConfig::default());
        let engine = pipeline.engine();
        let prepared = pipeline.prepare(&g);
        for placement in PlacementPolicy::ALL {
            for arrays in [1usize, 2, 3, 4, 8] {
                let policy = SchedPolicy::with_arrays(arrays).placement(placement);
                let backend = ScheduledPimBackend::new(engine, policy.clone());
                let first = backend.schedule(&prepared).unwrap();
                let repeat = backend.schedule(&prepared).unwrap();
                let fresh = ScheduledRun::plan_with_costs(
                    engine,
                    prepared.matrix(),
                    &policy,
                    engine.cost_model(),
                )
                .unwrap();
                assert!(Arc::ptr_eq(first.schedule_plan(), repeat.schedule_plan()));
                for attribution in ATTRIBUTIONS {
                    let ctx = format!("{encoding:?} {placement} x{arrays} {attribution:?}");
                    let (a, b, c) = (
                        run(&first, attribution),
                        run(&repeat, attribution),
                        run(&fresh, attribution),
                    );
                    assert!(!a.report.plan_cached, "{ctx}: the first call planned");
                    assert!(b.report.plan_cached, "{ctx}: the repeat reused");
                    assert!(!c.report.plan_cached, "{ctx}");
                    assert_same_run(&ctx, &a, &c);
                    assert_same_run(&ctx, &b, &c);
                }
                // The trait entry points go through the same cache.
                let count =
                    pipeline.execute(&prepared, &Backend::ScheduledPim(policy)).unwrap();
                let BackendDetail::ScheduledPim(report) = count.detail else {
                    panic!("scheduled runs carry the scheduled report");
                };
                assert!(report.plan_cached);
                let fresh = run(&fresh, None);
                assert_eq!(report.stats, fresh.report.stats);
                assert_eq!(report.critical_path_s, fresh.report.critical_path_s);
            }
        }
        let stats = prepared.plan_cache_stats();
        assert_eq!(stats.misses, 15, "{encoding:?}: one plan per (placement, arrays)");
    }
}

fn assert_same_count(ctx: &str, a: &CountReport, b: &CountReport) {
    assert_eq!(a.triangles, b.triangles, "{ctx}: triangles");
    assert_eq!(a.stats, b.stats, "{ctx}: stats");
    assert_eq!(a.kernel, b.kernel, "{ctx}: kernel");
    assert_eq!(a.modelled_time_s, b.modelled_time_s, "{ctx}: critical path");
    assert_eq!(a.modelled_energy_j, b.modelled_energy_j, "{ctx}: energy");
    let (BackendDetail::Sharded(pa), BackendDetail::Sharded(pb)) = (&a.detail, &b.detail)
    else {
        panic!("{ctx}: sharded runs carry shard provenance");
    };
    assert_eq!(pa, pb, "{ctx}: provenance");
}

fn assert_same_attributed(ctx: &str, a: &AttributedRun, b: &AttributedRun) {
    assert_eq!(a.triangles, b.triangles, "{ctx}: triangles");
    assert_eq!(a.per_vertex, b.per_vertex, "{ctx}: per-vertex");
    assert_eq!(a.support, b.support, "{ctx}: support");
    assert_eq!(a.kernel, b.kernel, "{ctx}: kernel");
    assert_eq!(a.modelled_time_s, b.modelled_time_s, "{ctx}: critical path");
    assert_eq!(a.modelled_energy_j, b.modelled_energy_j, "{ctx}: energy");
    assert_eq!(a.sharding, b.sharding, "{ctx}: provenance");
}

/// Sharded 1D and 2D: the pipeline's cached path (piece schedules and
/// the composition plan reused) against the uncached backend, which
/// builds a fresh artifact and fresh plans on every call.
#[test]
fn cached_sharded_plans_execute_bit_identically() {
    let g = barabasi_albert(600, 5, 3).unwrap();
    for encoding in [EncodingPolicy::ForceDense, EncodingPolicy::ForceSparse] {
        let pipeline = pipeline_with(encoding, PimConfig::default());
        let prepared = pipeline.prepare(&g);
        for mode in [ShardMode::OneD, ShardMode::TwoD] {
            for placement in PlacementPolicy::ALL {
                let spec = Backend::Sharded(ShardPolicy {
                    spec: ShardSpec { shards: 4, mode },
                    inner: SchedPolicy::with_arrays(2).placement(placement),
                });
                let cached = pipeline.backend(&spec);
                let fresh = spec.bind(pipeline.engine());
                for attribution in ATTRIBUTIONS {
                    let ctx = format!("{encoding:?} {mode} {placement} {attribution:?}");
                    match attribution {
                        None => {
                            let reference = fresh.execute(&prepared).unwrap();
                            for _ in 0..2 {
                                let report = cached.execute(&prepared).unwrap();
                                assert_same_count(&ctx, &report, &reference);
                            }
                        }
                        Some(need_support) => {
                            let reference =
                                fresh.execute_attributed(&prepared, need_support).unwrap();
                            for _ in 0..2 {
                                let run = cached
                                    .execute_attributed(&prepared, need_support)
                                    .unwrap();
                                assert_same_attributed(&ctx, &run, &reference);
                            }
                        }
                    }
                }
            }
            let artifact =
                pipeline.prepare_sharded(&prepared, &ShardSpec { shards: 4, mode }).unwrap();
            let composition = artifact.composition_cache_stats();
            assert_eq!(composition.misses, 3, "{mode}: one composition plan per placement");
            assert_eq!(composition.hits, 3 * 6 - 3, "{mode}");
        }
    }
}

/// Two engines whose data buffers differ share one prepared artifact:
/// the reuse-aware placer models each engine's own buffer, so they must
/// never share a placement — each gets the plan a fresh planning on its
/// own engine builds.
#[test]
fn engines_with_different_buffers_never_share_a_placement() {
    let g = barabasi_albert(2000, 6, 5).unwrap();
    let tight = PimConfig { capacity_slices_override: Some(96), ..PimConfig::default() };
    let pipelines = [
        pipeline_with(EncodingPolicy::default(), PimConfig::default()),
        pipeline_with(EncodingPolicy::default(), tight.clone()),
        pipeline_with(
            EncodingPolicy::default(),
            PimConfig { replacement: ReplacementPolicy::Random, replacement_seed: 9, ..tight },
        ),
    ];
    let prepared: Arc<PreparedGraph> = pipelines[0].prepare(&g);
    let policy = SchedPolicy::with_arrays(4).placement(PlacementPolicy::ReuseAware);
    let spec = Backend::ScheduledPim(policy.clone());
    let mut plans = Vec::new();
    for (p, pipeline) in pipelines.iter().enumerate() {
        for _ in 0..2 {
            let report = pipeline.execute(&prepared, &spec).unwrap();
            let fresh = ScheduledRun::plan(pipeline.engine(), prepared.matrix(), &policy)
                .unwrap()
                .execute();
            let BackendDetail::ScheduledPim(cached) = &report.detail else {
                panic!("scheduled runs carry the scheduled report");
            };
            let stats = |r: &tcim_repro::sched::ScheduledReport| -> Vec<AccessStats> {
                r.per_array.iter().map(|a| a.stats).collect()
            };
            assert_eq!(stats(cached), stats(&fresh), "engine {p}");
            assert_eq!(cached.critical_path_s, fresh.critical_path_s, "engine {p}");
        }
        let (plan, hit) = prepared.schedule_plan(pipeline.engine(), &policy).unwrap();
        assert!(hit);
        let fresh = ScheduledRun::plan(pipeline.engine(), prepared.matrix(), &policy).unwrap();
        assert_eq!(plan.placement().assignment, fresh.placement().assignment, "engine {p}");
        plans.push(plan);
    }
    assert_eq!(prepared.plan_cache_stats(), PlanCacheStats { plans: 3, hits: 6, misses: 3 });
    for (a, b) in [(0, 1), (0, 2), (1, 2)] {
        assert!(!Arc::ptr_eq(&plans[a], &plans[b]), "engines {a} and {b} share a plan");
    }
    // The tight buffer changes where the reuse-aware placer puts rows.
    assert_ne!(plans[0].placement().assignment, plans[1].placement().assignment);
}

/// The host thread count never changes a placement, so policies that
/// differ only in it share one plan — including the sharded backend's
/// serial-host inner policy and a direct query on the same piece.
#[test]
fn host_thread_counts_share_one_plan() {
    let pipeline = TcimPipeline::new(&TcimConfig::default()).unwrap();
    let prepared = pipeline.prepare(&gnm(600, 5000, 4).unwrap());
    let mut reports = Vec::new();
    for host_threads in [Some(1), Some(2), None, Some(3)] {
        let policy = SchedPolicy { host_threads, ..SchedPolicy::with_arrays(4) };
        reports.push(pipeline.execute(&prepared, &Backend::ScheduledPim(policy)).unwrap());
    }
    assert_eq!(prepared.plan_cache_stats(), PlanCacheStats { plans: 1, hits: 3, misses: 1 });
    for report in &reports[1..] {
        assert_eq!(report.stats, reports[0].stats);
        assert_eq!(report.modelled_time_s, reports[0].modelled_time_s);
    }

    let inner = SchedPolicy::with_arrays(2);
    let spec = Backend::Sharded(ShardPolicy::with_shards(2).inner(inner.clone()));
    pipeline.execute(&prepared, &spec).unwrap();
    let artifact = pipeline.prepare_sharded(&prepared, &ShardSpec::one_d(2)).unwrap();
    let piece = artifact.pieces()[0].prepared();
    assert_eq!(piece.plan_cache_stats().misses, 1);
    let direct = ScheduledPimBackend::new(pipeline.engine(), inner);
    direct.execute(piece).unwrap();
    assert_eq!(piece.plan_cache_stats(), PlanCacheStats { plans: 1, hits: 1, misses: 1 });
}

/// Plans once: every query after the first on one artifact reuses its
/// plan. Pinned by the artifact's own counters, so concurrent tests
/// cannot disturb it, and mirrored by the pipeline's Prometheus export.
#[test]
fn repeated_queries_plan_once_per_artifact() {
    let pipeline = TcimPipeline::new(&TcimConfig::default()).unwrap();
    let first = pipeline.prepare(&gnm(300, 2400, 8).unwrap());
    let second = pipeline.prepare(&gnm(300, 2400, 9).unwrap());
    let spec = Backend::ScheduledPim(SchedPolicy::with_arrays(4));
    let queries = Query::extended_suite();
    for prepared in [&first, &second] {
        for query in &queries {
            pipeline.query(prepared, &spec, query).unwrap();
        }
    }
    let n = queries.len() as u64;
    for prepared in [&first, &second] {
        assert_eq!(
            prepared.plan_cache_stats(),
            PlanCacheStats { plans: 1, hits: n - 1, misses: 1 }
        );
    }
    let snapshot = pipeline.metrics_snapshot();
    assert_eq!(snapshot.counter("tcim_plan_cache_misses_total"), Some(2));
    assert_eq!(snapshot.counter("tcim_plan_cache_hits_total"), Some(2 * (n - 1)));

    // Sharded: each occupied piece plans once, the composition once.
    let spec = Backend::Sharded(ShardPolicy::with_shards(4));
    for query in &queries {
        pipeline.query(&first, &spec, query).unwrap();
    }
    let artifact = pipeline.prepare_sharded(&first, &ShardSpec::one_d(4)).unwrap();
    for piece in artifact.pieces() {
        let stats = piece.prepared().plan_cache_stats();
        if piece.prepared().oriented().arc_count() > 0 {
            assert_eq!(stats, PlanCacheStats { plans: 1, hits: n - 1, misses: 1 });
        }
    }
    assert_eq!(
        artifact.composition_cache_stats(),
        PlanCacheStats { plans: 1, hits: n - 1, misses: 1 }
    );
}
