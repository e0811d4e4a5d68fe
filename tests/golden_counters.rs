//! Golden counters: the exact kernel accounting, buffer statistics and
//! modelled time/energy (as `f64::to_bits`) of every backend × query ×
//! encoding cell on three generator families, plus one live update
//! batch. The expected lines are literals, so any change to how a
//! kernel walk accounts its work — not just a disagreement between
//! backends — fails here.
//!
//! On a mismatch the test prints the full table of actual lines, which
//! is also how the literals were produced.

use tcim_repro::arch::{AccessStats, PimConfig, TriangleTally};
use tcim_repro::bitmatrix::popcount::PopcountMethod;
use tcim_repro::bitmatrix::EncodingPolicy;
use tcim_repro::graph::generators::{barabasi_albert, gnm, rmat, RmatParams};
use tcim_repro::graph::CsrGraph;
use tcim_repro::sched::ScheduledRun;
use tcim_repro::shard::ShardSpec;
use tcim_repro::stream::{DriftPolicy, DynamicGraph, StreamConfig, UpdateBatch};
use tcim_repro::tcim::{
    Backend, KernelStats, Query, SchedPolicy, ShardPolicy, TcimConfig, TcimPipeline,
};

/// A data buffer small enough that these graphs evict column slices,
/// so the exchange path is pinned too.
fn small_buffer() -> PimConfig {
    PimConfig { capacity_slices_override: Some(96), ..PimConfig::default() }
}

fn graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("ba", barabasi_albert(400, 4, 3).unwrap()),
        ("rmat", rmat(9, 2500, RmatParams::default(), 11).unwrap()),
        ("gnm", gnm(400, 2400, 7).unwrap()),
    ]
}

fn backends() -> Vec<(&'static str, Backend)> {
    vec![
        ("serial", Backend::SerialPim),
        ("sched1", Backend::ScheduledPim(SchedPolicy::with_arrays(1))),
        ("sched4", Backend::ScheduledPim(SchedPolicy::with_arrays(4))),
        ("software", Backend::Software(PopcountMethod::Native)),
        ("shard1d", Backend::Sharded(ShardPolicy::with_shards(4))),
        (
            "shard2d",
            Backend::Sharded(ShardPolicy {
                spec: ShardSpec::two_d(4),
                ..ShardPolicy::default()
            }),
        ),
    ]
}

fn queries() -> Vec<(&'static str, Query)> {
    vec![
        ("total", Query::TotalTriangles),
        ("per-vertex", Query::PerVertexTriangles),
        ("support", Query::EdgeSupport),
        ("ktruss3", Query::KTruss { k: 3 }),
        ("4clique", Query::FourCliques),
    ]
}

fn kernel(k: &KernelStats) -> String {
    format!(
        "{},{},{},{}",
        k.kernel_invocations, k.slice_pairs, k.result_readouts, k.blocks_skipped
    )
}

fn access(s: Option<AccessStats>) -> String {
    match s {
        None => "-".to_string(),
        Some(s) => format!(
            "{},{},{},{},{},{},{},{},{}",
            s.edges,
            s.and_ops,
            s.bitcount_ops,
            s.row_slice_writes,
            s.col_hits,
            s.col_misses,
            s.col_exchanges,
            s.result_readouts,
            s.blocks_skipped
        ),
    }
}

fn bits(x: Option<f64>) -> String {
    x.map_or_else(|| "-".to_string(), |x| format!("{:016x}", x.to_bits()))
}

fn actual_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (enc_label, encoding) in
        [("dense", EncodingPolicy::ForceDense), ("sparse", EncodingPolicy::ForceSparse)]
    {
        let config = TcimConfig { encoding, pim: small_buffer(), ..TcimConfig::default() };
        let pipeline = TcimPipeline::new(&config).unwrap();
        let engine = pipeline.engine();
        for (graph_label, g) in graphs() {
            let prepared = pipeline.prepare(&g);
            let matrix = prepared.matrix();
            for (backend_label, spec) in backends() {
                // The buffer statistics of the primitive each query
                // anchors on: the plain count, or the attributed run.
                let count_stats = pipeline.execute(&prepared, &spec).unwrap().stats;
                let attributed_stats = match &spec {
                    Backend::SerialPim => Some(
                        engine
                            .run_attributed(
                                matrix,
                                &mut TriangleTally::new(matrix.dim(), true),
                            )
                            .stats,
                    ),
                    Backend::ScheduledPim(policy) => Some(
                        ScheduledRun::plan(engine, matrix, policy)
                            .unwrap()
                            .execute_attributed(true)
                            .report
                            .stats,
                    ),
                    _ => None,
                };
                for (query_label, query) in queries() {
                    let report = pipeline.query(&prepared, &spec, &query).unwrap();
                    let stats = if query.needs_attribution() || query.is_motif() {
                        attributed_stats
                    } else {
                        count_stats
                    };
                    lines.push(format!(
                        "{graph_label}/{enc_label}/{backend_label}/{query_label} tri={} k={} \
                         s={} t={} e={}",
                        report.triangles,
                        kernel(&report.kernel),
                        access(stats),
                        bits(report.modelled_time_s),
                        bits(report.modelled_energy_j),
                    ));
                }
            }
        }
    }
    lines.extend(dynamic_lines());
    lines
}

fn dynamic_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (enc_label, encoding) in
        [("dense", EncodingPolicy::ForceDense), ("sparse", EncodingPolicy::ForceSparse)]
    {
        lines.extend(dynamic_batch(enc_label, encoding));
    }
    lines
}

/// One update batch on a live graph: per-delta accounting, the batch's
/// modelled kernel time, and the live kernels that read the patched
/// rows afterwards (edge support, k-truss, 4-cliques).
fn dynamic_batch(enc_label: &str, encoding: EncodingPolicy) -> Vec<String> {
    let g = barabasi_albert(300, 4, 5).unwrap();
    let config = StreamConfig {
        tcim: TcimConfig { encoding, ..TcimConfig::default() },
        drift: DriftPolicy::never(),
        fanout_threshold: 2,
        sched: SchedPolicy::with_arrays(4),
        ..StreamConfig::default()
    };
    let mut dg = DynamicGraph::new(&g, config).unwrap();
    let mut batch = UpdateBatch::new();
    for k in 0..24u32 {
        let u = (k * 37 + 1) % 300;
        let v = (k * 53 + 11) % 300;
        if k % 3 == 0 {
            let (a, b) = g.edges().nth((k * 29) as usize).unwrap();
            batch.delete(a, b);
        } else {
            batch.insert(u, v);
        }
    }
    let outcome = dg.apply_batch(&batch).unwrap();
    let mut lines = Vec::new();
    for d in &outcome.deltas {
        lines.push(format!(
            "dyn/{enc_label}/delta {:?} tri={} pairs={} round={}",
            d.update, d.triangles, d.slice_pairs, d.round
        ));
    }
    lines.push(format!(
        "dyn/{enc_label}/batch rejected={} rounds={} t={} total={}",
        outcome.rejected.len(),
        outcome.rounds,
        bits(Some(outcome.modelled_kernel_s)),
        outcome.triangles
    ));
    let per_vertex: u64 = dg.per_vertex().iter().sum();
    let (support, pairs, skipped) = dg.edge_support();
    let support_sum: u64 = support.iter().map(|&(_, _, c)| c).sum();
    lines.push(format!(
        "dyn/{enc_label}/support pv={per_vertex} edges={} sum={support_sum} pairs={pairs} skipped={skipped}",
        support.len()
    ));
    let (_, truss) = dg.trussness(3);
    lines.push(format!("dyn/{enc_label}/ktruss3 k={}", kernel(&truss)));
    let (_, cliques) = dg.four_cliques();
    lines.push(format!("dyn/{enc_label}/4clique k={}", kernel(&cliques)));
    lines
}

const GOLDEN: &[&str] = &[
    "ba/dense/serial/total tri=458 k=1590,2105,0,0 s=1590,2105,2105,428,215,89,1801,0,0 t=3ef9135fa9dd45df e=3f438aea88ae257c",
    "ba/dense/serial/per-vertex tri=458 k=1590,2105,341,0 s=1590,2105,2105,428,215,89,1801,341,0 t=3ef9142c20e07dcc e=3f438afbfd6bcdf6",
    "ba/dense/serial/support tri=458 k=1590,2105,341,0 s=1590,2105,2105,428,215,89,1801,341,0 t=3ef9142c20e07dcc e=3f438afbfd6bcdf6",
    "ba/dense/serial/ktruss3 tri=458 k=3180,4852,733,0 s=1590,2105,2105,428,215,89,1801,341,0 t=3f0e6ac339854312 e=3f438dfb55779ede",
    "ba/dense/serial/4clique tri=458 k=3429,7862,1327,0 s=1590,2105,2105,428,215,89,1801,341,0 t=3f125ca513967e6c e=3f439017ff589157",
    "ba/dense/sched1/total tri=458 k=1590,2105,0,0 s=1590,2105,2105,428,215,89,1801,0,0 t=3efd4e38b247edfe e=3f438b00b5ebd739",
    "ba/dense/sched1/per-vertex tri=458 k=1590,2105,341,0 s=1590,2105,2105,428,215,89,1801,341,0 t=3efd81567315e946 e=3f438b1332788c20",
    "ba/dense/sched1/support tri=458 k=1590,2105,341,0 s=1590,2105,2105,428,215,89,1801,341,0 t=3efd81567315e946 e=3f438b1332788c20",
    "ba/dense/sched1/ktruss3 tri=458 k=3180,4852,733,0 s=1590,2105,2105,428,215,89,1801,341,0 t=3f1050ac314ffc68 e=3f438e128a845d08",
    "ba/dense/sched1/4clique tri=458 k=3429,7862,1327,0 s=1590,2105,2105,428,215,89,1801,341,0 t=3f1377efa823d94b e=3f43902f34654f81",
    "ba/dense/sched4/total tri=458 k=1590,2105,0,0 s=1590,2105,2105,428,24,68,2013,0,0 t=3efa1fc129b22d6e e=3f438afe66a2dff9",
    "ba/dense/sched4/per-vertex tri=458 k=1590,2105,341,0 s=1590,2105,2105,428,24,68,2013,341,0 t=3efa2c7493127f44 e=3f438b1019c74f20",
    "ba/dense/sched4/support tri=458 k=1590,2105,341,0 s=1590,2105,2105,428,24,68,2013,341,0 t=3efa2c7493127f44 e=3f438b1019c74f20",
    "ba/dense/sched4/ktruss3 tri=458 k=3180,4852,733,0 s=1590,2105,2105,428,24,68,2013,341,0 t=3f0af03d7b28eb95 e=3f438e0f71d32008",
    "ba/dense/sched4/4clique tri=458 k=3429,7862,1327,0 s=1590,2105,2105,428,24,68,2013,341,0 t=3f0dfb5444cf56ce e=3f43902c1bb41281",
    "ba/dense/software/total tri=458 k=1590,2105,0,0 s=- t=- e=-",
    "ba/dense/software/per-vertex tri=458 k=1590,2105,0,0 s=- t=- e=-",
    "ba/dense/software/support tri=458 k=1590,2105,0,0 s=- t=- e=-",
    "ba/dense/software/ktruss3 tri=458 k=3180,4852,392,0 s=- t=- e=-",
    "ba/dense/software/4clique tri=458 k=3429,7862,986,0 s=- t=- e=-",
    "ba/dense/shard1d/total tri=458 k=1590,2105,0,0 s=1590,2105,2105,7601,59,219,191,0,0 t=3ef663770ecd4f23 e=3f2d2357312ea61f",
    "ba/dense/shard1d/per-vertex tri=458 k=1590,2105,341,0 s=- t=3ef66c4f29679062 e=3f2d239d64913a12",
    "ba/dense/shard1d/support tri=458 k=1590,2105,341,0 s=- t=3ef66c4f29679062 e=3f2d239d64913a12",
    "ba/dense/shard1d/ktruss3 tri=458 k=3180,4852,733,0 s=- t=3f09102ac6537424 e=3f2d2f9ac4c07db1",
    "ba/dense/shard1d/4clique tri=458 k=3429,7862,1327,0 s=- t=3f0c1b418ff9df5d e=3f2d380d6c444798",
    "ba/dense/shard2d/total tri=458 k=1590,2105,0,0 s=1590,2105,2105,2155,59,219,191,0,0 t=3ef69608afd8b5c8 e=3f2d1cf031b1b37f",
    "ba/dense/shard2d/per-vertex tri=458 k=1590,2105,341,0 s=- t=3ef6acab4208611c e=3f2d1d3665144773",
    "ba/dense/shard2d/support tri=458 k=1590,2105,341,0 s=- t=3ef6acab4208611c e=3f2d1d3665144773",
    "ba/dense/shard2d/ktruss3 tri=458 k=3180,4852,733,0 s=- t=3f093058d2a3dc81 e=3f2d2933c5438b12",
    "ba/dense/shard2d/4clique tri=458 k=3429,7862,1327,0 s=- t=3f0c3b6f9c4a47ba e=3f2d31a66cc754f9",
    "rmat/dense/serial/total tri=4073 k=1825,3303,0,0 s=1825,3303,3303,401,682,88,2533,0,0 t=3efccd8b1cfd0035 e=3f466e740d7d6c94",
    "rmat/dense/serial/per-vertex tri=4073 k=1825,3303,1720,0 s=1825,3303,3303,401,682,88,2533,1720,0 t=3efcd1926e879aad e=3f466ecc19c43139",
    "rmat/dense/serial/support tri=4073 k=1825,3303,1720,0 s=1825,3303,3303,401,682,88,2533,1720,0 t=3efcd1926e879aad e=3f466ecc19c43139",
    "rmat/dense/serial/ktruss3 tri=4073 k=3650,7267,4074,0 s=1825,3303,3303,401,682,88,2533,1720,0 t=3f1264ec312ede4a e=3f4673b18c60eb69",
    "rmat/dense/serial/4clique tri=4073 k=6903,24623,13072,0 s=1825,3303,3303,401,682,88,2533,1720,0 t=3f264423027cc85e e=3f468240b611ad1a",
    "rmat/dense/sched1/total tri=4073 k=1825,3303,0,0 s=1825,3303,3303,401,682,88,2533,0,0 t=3f017e23d7331aff e=3f466e9477968542",
    "rmat/dense/sched1/per-vertex tri=4073 k=1825,3303,1720,0 s=1825,3303,3303,401,682,88,2533,1720,0 t=3f01ff0e088669ee e=3f466ef1b6834805",
    "rmat/dense/sched1/support tri=4073 k=1825,3303,1720,0 s=1825,3303,3303,401,682,88,2533,1720,0 t=3f01ff0e088669ee e=3f466ef1b6834805",
    "rmat/dense/sched1/ktruss3 tri=4073 k=3650,7267,4074,0 s=1825,3303,3303,401,682,88,2533,1720,0 t=3f14300e99d02c96 e=3f4673d729200235",
    "rmat/dense/sched1/4clique tri=4073 k=6903,24623,13072,0 s=1825,3303,3303,401,682,88,2533,1720,0 t=3f2729b436cd6f84 e=3f46826652d0c3e6",
    "rmat/dense/sched4/total tri=4073 k=1825,3303,0,0 s=1825,3303,3303,401,68,64,3171,0,0 t=3efe64f0b51689a9 e=3f466eaa97bab286",
    "rmat/dense/sched4/per-vertex tri=4073 k=1825,3303,1720,0 s=1825,3303,3303,401,68,64,3171,1720,0 t=3efeac7169737acd e=3f466f0405c3c16f",
    "rmat/dense/sched4/support tri=4073 k=1825,3303,1720,0 s=1825,3303,3303,401,68,64,3171,1720,0 t=3efeac7169737acd e=3f466f0405c3c16f",
    "rmat/dense/sched4/ktruss3 tri=4073 k=3650,7267,4074,0 s=1825,3303,3303,401,68,64,3171,1720,0 t=3f0fbb9db3ea6022 e=3f4673e978607b9f",
    "rmat/dense/sched4/4clique tri=4073 k=6903,24623,13072,0 s=1825,3303,3303,401,68,64,3171,1720,0 t=3f1ffa05cdf5a2a7 e=3f468278a2113d50",
    "rmat/dense/software/total tri=4073 k=1825,3303,0,0 s=- t=- e=-",
    "rmat/dense/software/per-vertex tri=4073 k=1825,3303,0,0 s=- t=- e=-",
    "rmat/dense/software/support tri=4073 k=1825,3303,0,0 s=- t=- e=-",
    "rmat/dense/software/ktruss3 tri=4073 k=3650,7267,2354,0 s=- t=- e=-",
    "rmat/dense/software/4clique tri=4073 k=6903,24623,11352,0 s=- t=- e=-",
    "rmat/dense/shard1d/total tri=4073 k=1825,3303,0,0 s=1825,3303,3303,11127,126,199,344,0,0 t=3efb54cd2cc843b4 e=3f2f9ce45b5ec1ad",
    "rmat/dense/shard1d/per-vertex tri=4073 k=1825,3303,1720,0 s=- t=3efb9242c7464e8b e=3f2f9e4526e86172",
    "rmat/dense/shard1d/support tri=4073 k=1825,3303,1720,0 s=- t=3efb9242c7464e8b e=3f2f9e4526e86172",
    "rmat/dense/shard1d/ktruss3 tri=4073 k=3650,7267,4074,0 s=- t=3f0e2e8662d3ca02 e=3f2fb1daf15b4a33",
    "rmat/dense/shard1d/4clique tri=4073 k=6903,24623,13072,0 s=- t=3f1f337a256a5797 e=3f2fec17981e50f8",
    "rmat/dense/shard2d/total tri=4073 k=1825,3303,0,0 s=1825,3303,3303,1707,126,199,344,0,0 t=3efb6999fccc83e0 e=3f2f91d15daa73d7",
    "rmat/dense/shard2d/per-vertex tri=4073 k=1825,3303,1720,0 s=- t=3efc21d46c5e0fc4 e=3f2f93322934139d",
    "rmat/dense/shard2d/support tri=4073 k=1825,3303,1720,0 s=- t=3efc21d46c5e0fc4 e=3f2f93322934139d",
    "rmat/dense/shard2d/ktruss3 tri=4073 k=3650,7267,4074,0 s=- t=3f0e764f355faa9e e=3f2fa6c7f3a6fc5e",
    "rmat/dense/shard2d/4clique tri=4073 k=6903,24623,13072,0 s=- t=3f1f575e8eb047e5 e=3f2fe1049a6a0323",
    "gnm/dense/serial/total tri=254 k=2400,4711,0,0 s=2400,4711,4711,1057,688,89,3934,0,0 t=3f02f2e8f5adb859 e=3f4d800c1aafeeb5",
    "gnm/dense/serial/per-vertex tri=254 k=2400,4711,247,0 s=2400,4711,4711,1057,688,89,3934,247,0 t=3f02f33302c08729 e=3f4d8018bf9365bd",
    "gnm/dense/serial/support tri=254 k=2400,4711,247,0 s=2400,4711,4711,1057,688,89,3934,247,0 t=3f02f33302c08729 e=3f4d8018bf9365bd",
    "gnm/dense/serial/ktruss3 tri=254 k=4800,10477,501,0 s=2400,4711,4711,1057,688,89,3934,247,0 t=3f181c9ec493a874 e=3f4d859602fb4d53",
    "gnm/dense/serial/4clique tri=254 k=4820,16257,990,0 s=2400,4711,4711,1057,688,89,3934,247,0 t=3f1ba4e3503b8cf0 e=3f4d8861a4453eb5",
    "gnm/dense/sched1/total tri=254 k=2400,4711,0,0 s=2400,4711,4711,1057,688,89,3934,0,0 t=3f07a46ecd0ff20e e=3f4d803d51912fed",
    "gnm/dense/sched1/per-vertex tri=254 k=2400,4711,247,0 s=2400,4711,4711,1057,688,89,3934,247,0 t=3f07b6f211c3a606 e=3f4d804ab58b0049",
    "gnm/dense/sched1/support tri=254 k=2400,4711,247,0 s=2400,4711,4711,1057,688,89,3934,247,0 t=3f07b6f211c3a606 e=3f4d804ab58b0049",
    "gnm/dense/sched1/ktruss3 tri=254 k=4800,10477,501,0 s=2400,4711,4711,1057,688,89,3934,247,0 t=3f1a7e7e4c1537e2 e=3f4d85c7f8f2e7df",
    "gnm/dense/sched1/4clique tri=254 k=4820,16257,990,0 s=2400,4711,4711,1057,688,89,3934,247,0 t=3f1e06c2d7bd1c5f e=3f4d88939a3cd941",
    "gnm/dense/sched4/total tri=254 k=2400,4711,0,0 s=2400,4711,4711,1057,102,69,4540,0,0 t=3f041fa758288fe1 e=3f4d80448335a43f",
    "gnm/dense/sched4/per-vertex tri=254 k=2400,4711,247,0 s=2400,4711,4711,1057,102,69,4540,247,0 t=3f04244530156d0f e=3f4d8051557926d5",
    "gnm/dense/sched4/support tri=254 k=2400,4711,247,0 s=2400,4711,4711,1057,102,69,4540,247,0 t=3f04244530156d0f e=3f4d8051557926d5",
    "gnm/dense/sched4/ktruss3 tri=254 k=4800,10477,501,0 s=2400,4711,4711,1057,102,69,4540,247,0 t=3f14cef8b7bb7518 e=3f4d85ce98e10e6b",
    "gnm/dense/sched4/4clique tri=254 k=4820,16257,990,0 s=2400,4711,4711,1057,102,69,4540,247,0 t=3f15c00a63596145 e=3f4d889a3a2affcd",
    "gnm/dense/software/total tri=254 k=2400,4711,0,0 s=- t=- e=-",
    "gnm/dense/software/per-vertex tri=254 k=2400,4711,0,0 s=- t=- e=-",
    "gnm/dense/software/support tri=254 k=2400,4711,0,0 s=- t=- e=-",
    "gnm/dense/software/ktruss3 tri=254 k=4800,10477,254,0 s=- t=- e=-",
    "gnm/dense/software/4clique tri=254 k=4820,16257,743,0 s=- t=- e=-",
    "gnm/dense/shard1d/total tri=254 k=2400,4711,0,0 s=2400,4711,4711,12938,118,251,774,0,0 t=3f034fa50a504222 e=3f3646a549629d68",
    "gnm/dense/shard1d/per-vertex tri=254 k=2400,4711,247,0 s=- t=3f03539df7e3a4dc e=3f3646be9f83c075",
    "gnm/dense/shard1d/support tri=254 k=2400,4711,247,0 s=- t=3f03539df7e3a4dc e=3f3646be9f83c075",
    "gnm/dense/shard1d/ktruss3 tri=254 k=4800,10477,501,0 s=- t=3f1466a51ba290fe e=3f3651b926538fa2",
    "gnm/dense/shard1d/4clique tri=254 k=4820,16257,990,0 s=- t=3f1557b6c7407d2c e=3f36575068e77264",
    "gnm/dense/shard2d/total tri=254 k=2400,4711,0,0 s=2400,4711,4711,4661,118,251,774,0,0 t=3f02c66cbb79501f e=3f3641c7c95fea95",
    "gnm/dense/shard2d/per-vertex tri=254 k=2400,4711,247,0 s=- t=3f02cd8b8720e41c e=3f3641e11f810da2",
    "gnm/dense/shard2d/support tri=254 k=2400,4711,247,0 s=- t=3f02cd8b8720e41c e=3f3641e11f810da2",
    "gnm/dense/shard2d/ktruss3 tri=254 k=4800,10477,501,0 s=- t=3f14239be341309e e=3f364cdba650dccf",
    "gnm/dense/shard2d/4clique tri=254 k=4820,16257,990,0 s=- t=3f1514ad8edf1ccc e=3f365272e8e4bf91",
    "ba/sparse/serial/total tri=458 k=870,1137,0,968 s=870,1137,1137,211,135,89,913,0,968 t=3eeb707fb74c877f e=3f3562db4ab38f23",
    "ba/sparse/serial/per-vertex tri=458 k=870,1137,341,968 s=870,1137,1137,211,135,89,913,341,968 t=3eeb7218a552f759 e=3f3562fe342ee016",
    "ba/sparse/serial/support tri=458 k=870,1137,341,968 s=870,1137,1137,211,135,89,913,341,968 t=3eeb7218a552f759 e=3f3562fe342ee016",
    "ba/sparse/serial/ktruss3 tri=458 k=1871,2480,733,2372 s=870,1137,1137,211,135,89,913,341,968 t=3f07e2e7addf2269 e=3f3568f82c705942",
    "ba/sparse/serial/4clique tri=458 k=2463,4323,1327,3539 s=870,1137,1137,211,135,89,913,341,968 t=3f0d7bfc50928b00 e=3f356d2d943f2416",
    "ba/sparse/sched1/total tri=458 k=870,1137,0,968 s=870,1137,1137,211,135,89,913,0,968 t=3eeff3823a4c9172 e=3f3562f2f2477c76",
    "ba/sparse/sched1/per-vertex tri=458 k=870,1137,341,968 s=870,1137,1137,211,135,89,913,341,968 t=3ef02cdeddf44401 e=3f356317eb60e643",
    "ba/sparse/sched1/support tri=458 k=870,1137,341,968 s=870,1137,1137,211,135,89,913,341,968 t=3ef02cdeddf44401 e=3f356317eb60e643",
    "ba/sparse/sched1/ktruss3 tri=458 k=1871,2480,733,2372 s=870,1137,1137,211,135,89,913,341,968 t=3f091cd0f3848694 e=3f356911e3a25f6f",
    "ba/sparse/sched1/4clique tri=458 k=2463,4323,1327,3539 s=870,1137,1137,211,135,89,913,341,968 t=3f0eb5e59637ef2a e=3f356d474b712a43",
    "ba/sparse/sched4/total tri=458 k=870,1137,0,968 s=870,1137,1137,211,13,68,1056,0,968 t=3eec9291510d80e9 e=3f3562f39733b280",
    "ba/sparse/sched4/per-vertex tri=458 k=870,1137,341,968 s=870,1137,1137,211,13,68,1056,341,968 t=3eecaa8d426a65ec e=3f356316f60e06f1",
    "ba/sparse/sched4/support tri=458 k=870,1137,341,968 s=870,1137,1137,211,13,68,1056,341,968 t=3eecaa8d426a65ec e=3f356316f60e06f1",
    "ba/sparse/sched4/ktruss3 tri=458 k=1871,2480,733,2372 s=870,1137,1137,211,13,68,1056,341,968 t=3f04ce00cf9f8d38 e=3f356910ee4f801d",
    "ba/sparse/sched4/4clique tri=458 k=2463,4323,1327,3539 s=870,1137,1137,211,13,68,1056,341,968 t=3f07abb91d81f065 e=3f356d46561e4af1",
    "ba/sparse/software/total tri=458 k=870,1137,0,968 s=- t=- e=-",
    "ba/sparse/software/per-vertex tri=458 k=870,1137,0,968 s=- t=- e=-",
    "ba/sparse/software/support tri=458 k=870,1137,0,968 s=- t=- e=-",
    "ba/sparse/software/ktruss3 tri=458 k=1871,2480,392,2372 s=- t=- e=-",
    "ba/sparse/software/4clique tri=458 k=2463,4323,986,3539 s=- t=- e=-",
    "ba/sparse/shard1d/total tri=458 k=870,1137,0,968 s=870,1137,1137,7500,46,139,64,0,220 t=3ef49476cd973c47 e=3f188d1ff520107e",
    "ba/sparse/shard1d/per-vertex tri=458 k=870,1137,341,968 s=- t=3ef4a241452ca65c e=3f188dac5be53863",
    "ba/sparse/shard1d/support tri=458 k=870,1137,341,968 s=- t=3ef4a241452ca65c e=3f188dac5be53863",
    "ba/sparse/shard1d/ktruss3 tri=458 k=1871,2480,733,2372 s=- t=3f07f47e219b46ea e=3f18a5943ceb1d12",
    "ba/sparse/shard1d/4clique tri=458 k=2463,4323,1327,3539 s=- t=3f0ad2366f7daa18 e=3f18b669dc264864",
    "ba/sparse/shard2d/total tri=458 k=870,1137,0,968 s=870,1137,1137,2054,46,139,64,0,220 t=3ef465412d4a4912 e=3f188051f6262b3f",
    "ba/sparse/shard2d/per-vertex tri=458 k=870,1137,341,968 s=- t=3ef481493c2edb21 e=3f1880de5ceb5323",
    "ba/sparse/shard2d/support tri=458 k=870,1137,341,968 s=- t=3ef481493c2edb21 e=3f1880de5ceb5323",
    "ba/sparse/shard2d/ktruss3 tri=458 k=1871,2480,733,2372 s=- t=3f07e4021d1c614d e=3f1898c63df137d2",
    "ba/sparse/shard2d/4clique tri=458 k=2463,4323,1327,3539 s=- t=3f0ac1ba6afec47a e=3f18a99bdd2c6324",
    "rmat/sparse/serial/total tri=4073 k=1410,2711,0,592 s=1410,2711,2711,319,563,88,2060,0,592 t=3ef641fd627e5e2a e=3f4154acd7ae50e4",
    "rmat/sparse/serial/per-vertex tri=4073 k=1410,2711,1720,592 s=1410,2711,2711,319,563,88,2060,1720,592 t=3ef64604b408f8a2 e=3f415504e3f51589",
    "rmat/sparse/serial/support tri=4073 k=1410,2711,1720,592 s=1410,2711,2711,319,563,88,2060,1720,592 t=3ef64604b408f8a2 e=3f415504e3f51589",
    "rmat/sparse/serial/ktruss3 tri=4073 k=2995,5965,4074,1302 s=1410,2711,2711,319,563,88,2060,1720,592 t=3f108ad6a2fbd718 e=3f4159e9252b57af",
    "rmat/sparse/serial/4clique tri=4073 k=6187,19779,13072,4844 s=1410,2711,2711,319,563,88,2060,1720,592 t=3f24cd6a87ab3382 e=3f4168725b4caf0c",
    "rmat/sparse/sched1/total tri=4073 k=1410,2711,0,592 s=1410,2711,2711,319,563,88,2060,0,592 t=3efb5285d8b5b95e e=3f4154c7653f860b",
    "rmat/sparse/sched1/per-vertex tri=4073 k=1410,2711,1720,592 s=1410,2711,2711,319,563,88,2060,1720,592 t=3efc545a3b5c573e e=3f415524a42c48ce",
    "rmat/sparse/sched1/support tri=4073 k=1410,2711,1720,592 s=1410,2711,2711,319,563,88,2060,1720,592 t=3efc545a3b5c573e e=3f415524a42c48ce",
    "rmat/sparse/sched1/ktruss3 tri=4073 k=2995,5965,4074,1302 s=1410,2711,2711,319,563,88,2060,1720,592 t=3f120e6c04d0aebe e=3f415a08e5628af4",
    "rmat/sparse/sched1/4clique tri=4073 k=6187,19779,13072,4844 s=1410,2711,2711,319,563,88,2060,1720,592 t=3f258f3538959f56 e=3f4168921b83e250",
    "rmat/sparse/sched4/total tri=4073 k=1410,2711,0,592 s=1410,2711,2711,319,56,64,2591,0,592 t=3ef790411ba691ca e=3f4154d9d58f6931",
    "rmat/sparse/sched4/per-vertex tri=4073 k=1410,2711,1720,592 s=1410,2711,2711,319,56,64,2591,1720,592 t=3ef7d51f58348ba4 e=3f41553335c85079",
    "rmat/sparse/sched4/support tri=4073 k=1410,2711,1720,592 s=1410,2711,2711,319,56,64,2591,1720,592 t=3ef7d51f58348ba4 e=3f41553335c85079",
    "rmat/sparse/sched4/ktruss3 tri=4073 k=2995,5965,4074,1302 s=1410,2711,2711,319,56,64,2591,1720,592 t=3f0c33de25f2bb93 e=3f415a1776fe929f",
    "rmat/sparse/sched4/4clique tri=4073 k=6187,19779,13072,4844 s=1410,2711,2711,319,56,64,2591,1720,592 t=3f1df18365d2f7d7 e=3f4168a0ad1fe9fc",
    "rmat/sparse/software/total tri=4073 k=1410,2711,0,592 s=- t=- e=-",
    "rmat/sparse/software/per-vertex tri=4073 k=1410,2711,0,592 s=- t=- e=-",
    "rmat/sparse/software/support tri=4073 k=1410,2711,0,592 s=- t=- e=-",
    "rmat/sparse/software/ktruss3 tri=4073 k=2995,5965,2354,1302 s=- t=- e=-",
    "rmat/sparse/software/4clique tri=4073 k=6187,19779,11352,4844 s=- t=- e=-",
    "rmat/sparse/shard1d/total tri=4073 k=1410,2711,0,592 s=1410,2711,2711,11071,88,185,165,0,231 t=3ef8fac40f44c4f8 e=3f2352864dfd3527",
    "rmat/sparse/shard1d/per-vertex tri=4073 k=1410,2711,1720,592 s=- t=3ef93b3927ee6c71 e=3f2353e722f527ce",
    "rmat/sparse/shard1d/support tri=4073 k=1410,2711,1720,592 s=- t=3ef93b3927ee6c71 e=3f2353e722f527ce",
    "rmat/sparse/shard1d/ktruss3 tri=4073 k=2995,5965,4074,1302 s=- t=3f0ce6eb0dcfabfa e=3f23677827ce3064",
    "rmat/sparse/shard1d/4clique tri=4073 k=6187,19779,13072,4844 s=- t=3f1e4b09d9c1700a e=3f23a19d00538dd8",
    "rmat/sparse/shard2d/total tri=4073 k=1410,2711,0,592 s=1410,2711,2711,1651,88,185,165,0,231 t=3ef8e4a732e7c092 e=3f2347735048e751",
    "rmat/sparse/shard2d/per-vertex tri=4073 k=1410,2711,1720,592 s=- t=3ef99fe120a4e918 e=3f2348d42540d9f9",
    "rmat/sparse/shard2d/support tri=4073 k=1410,2711,1720,592 s=- t=3ef99fe120a4e918 e=3f2348d42540d9f9",
    "rmat/sparse/shard2d/ktruss3 tri=4073 k=2995,5965,4074,1302 s=- t=3f0d193f0a2aea4d e=3f235c652a19e28f",
    "rmat/sparse/shard2d/4clique tri=4073 k=6187,19779,13072,4844 s=- t=3f1e6433d7ef0f34 e=3f23968a029f4003",
    "gnm/sparse/serial/total tri=254 k=1378,1963,0,2748 s=1378,1963,1963,773,370,89,1504,0,2748 t=3ef5bd33ff9b59b4 e=3f40eff7769d4bb6",
    "gnm/sparse/serial/per-vertex tri=254 k=1378,1963,247,2748 s=1378,1963,1963,773,370,89,1504,247,2748 t=3ef5bdc819c0f754 e=3f40f0041b80c2bd",
    "gnm/sparse/serial/support tri=254 k=1378,1963,247,2748 s=1378,1963,1963,773,370,89,1504,247,2748 t=3ef5bdc819c0f754 e=3f40f0041b80c2bd",
    "gnm/sparse/serial/ktruss3 tri=254 k=2885,4167,501,6310 s=1378,1963,1963,773,370,89,1504,247,2748 t=3f12fd8dda19b71e e=3f40f57b62beed4b",
    "gnm/sparse/serial/4clique tri=254 k=3642,7298,990,8959 s=1378,1963,1963,773,370,89,1504,247,2748 t=3f15b7e31b372cb3 e=3f40f84290972df1",
    "gnm/sparse/sched1/total tri=254 k=1378,1963,0,2748 s=1378,1963,1963,773,370,89,1504,0,2748 t=3ef9d5aa19f04b0e e=3f40f00cef9248c8",
    "gnm/sparse/sched1/per-vertex tri=254 k=1378,1963,247,2748 s=1378,1963,1963,773,370,89,1504,247,2748 t=3ef9fab0a357b2fe e=3f40f01a538c1924",
    "gnm/sparse/sched1/support tri=254 k=1378,1963,247,2748 s=1378,1963,1963,773,370,89,1504,247,2748 t=3ef9fab0a357b2fe e=3f40f01a538c1924",
    "gnm/sparse/sched1/ktruss3 tri=254 k=2885,4167,501,6310 s=1378,1963,1963,773,370,89,1504,247,2748 t=3f140cc7fc7f6609 e=3f40f5919aca43b2",
    "gnm/sparse/sched1/4clique tri=254 k=3642,7298,990,8959 s=1378,1963,1963,773,370,89,1504,247,2748 t=3f16c71d3d9cdb9e e=3f40f858c8a28458",
    "gnm/sparse/sched4/total tri=254 k=1378,1963,0,2748 s=1378,1963,1963,773,67,68,1828,0,2748 t=3ef6c5b07245a164 e=3f40f013ad6472dd",
    "gnm/sparse/sched4/per-vertex tri=254 k=1378,1963,247,2748 s=1378,1963,1963,773,67,68,1828,247,2748 t=3ef6d0084bf5b0f4 e=3f40f0208579cb24",
    "gnm/sparse/sched4/support tri=254 k=1378,1963,247,2748 s=1378,1963,1963,773,67,68,1828,247,2748 t=3ef6d0084bf5b0f4 e=3f40f0208579cb24",
    "gnm/sparse/sched4/ktruss3 tri=254 k=2885,4167,501,6310 s=1378,1963,1963,773,67,68,1828,247,2748 t=3f102b97e894b050 e=3f40f597ccb7f5b2",
    "gnm/sparse/sched4/4clique tri=254 k=3642,7298,990,8959 s=1378,1963,1963,773,67,68,1828,247,2748 t=3f10e9319ded8004 e=3f40f85efa903658",
    "gnm/sparse/software/total tri=254 k=1378,1963,0,2748 s=- t=- e=-",
    "gnm/sparse/software/per-vertex tri=254 k=1378,1963,0,2748 s=- t=- e=-",
    "gnm/sparse/software/support tri=254 k=1378,1963,0,2748 s=- t=- e=-",
    "gnm/sparse/software/ktruss3 tri=254 k=2885,4167,254,6310 s=- t=- e=-",
    "gnm/sparse/software/4clique tri=254 k=3642,7298,743,8959 s=- t=- e=-",
    "gnm/sparse/shard1d/total tri=254 k=1378,1963,0,2748 s=1378,1963,1963,12768,47,136,302,0,658 t=3effe972f1e03c30 e=3f23c5dd3c139afb",
    "gnm/sparse/shard1d/per-vertex tri=254 k=1378,1963,247,2748 s=- t=3efff4644b329e46 e=3f23c60fe938d556",
    "gnm/sparse/shard1d/support tri=254 k=1378,1963,247,2748 s=- t=3efff4644b329e46 e=3f23c60fe938d556",
    "gnm/sparse/shard1d/ktruss3 tri=254 k=2885,4167,501,6310 s=- t=3f1274aee863eba5 e=3f23dbed06317f8d",
    "gnm/sparse/shard1d/4clique tri=254 k=3642,7298,990,8959 s=- t=3f1332489dbcbb58 e=3f23e709bd928225",
    "gnm/sparse/shard2d/total tri=254 k=1378,1963,0,2748 s=1378,1963,1963,4491,47,136,302,0,658 t=3efe8fb9b150864c e=3f23bc223c0e3554",
    "gnm/sparse/shard2d/per-vertex tri=254 k=1378,1963,247,2748 s=- t=3efe9df7489fae46 e=3f23bc54e9336faf",
    "gnm/sparse/shard2d/support tri=254 k=1378,1963,247,2748 s=- t=3efe9df7489fae46 e=3f23bc54e9336faf",
    "gnm/sparse/shard2d/ktruss3 tri=254 k=2885,4167,501,6310 s=- t=3f121f13a7bf2fa5 e=3f23d232062c19e6",
    "gnm/sparse/shard2d/4clique tri=254 k=3642,7298,990,8959 s=- t=3f12dcad5d17ff58 e=3f23dd4ebd8d1c7e",
    "dyn/dense/delta Delete(0, 1) tri=-4 pairs=5 round=0",
    "dyn/dense/delta Insert(38, 64) tri=1 pairs=2 round=0",
    "dyn/dense/delta Insert(75, 117) tri=0 pairs=5 round=0",
    "dyn/dense/delta Delete(2, 124) tri=-1 pairs=3 round=0",
    "dyn/dense/delta Insert(149, 223) tri=0 pairs=1 round=0",
    "dyn/dense/delta Insert(186, 276) tri=0 pairs=1 round=0",
    "dyn/dense/delta Delete(4, 97) tri=-2 pairs=2 round=0",
    "dyn/dense/delta Insert(82, 260) tri=1 pairs=2 round=0",
    "dyn/dense/delta Insert(135, 297) tri=0 pairs=1 round=0",
    "dyn/dense/delta Delete(8, 9) tri=-4 pairs=5 round=0",
    "dyn/dense/delta Insert(71, 241) tri=0 pairs=1 round=0",
    "dyn/dense/delta Insert(108, 294) tri=0 pairs=2 round=0",
    "dyn/dense/delta Delete(10, 91) tri=0 pairs=4 round=0",
    "dyn/dense/delta Insert(100, 182) tri=0 pairs=2 round=0",
    "dyn/dense/delta Insert(153, 219) tri=0 pairs=1 round=0",
    "dyn/dense/delta Delete(15, 227) tri=0 pairs=2 round=0",
    "dyn/dense/delta Insert(259, 293) tri=0 pairs=2 round=0",
    "dyn/dense/delta Insert(12, 30) tri=3 pairs=3 round=0",
    "dyn/dense/delta Delete(21, 270) tri=-1 pairs=3 round=0",
    "dyn/dense/delta Insert(104, 118) tri=0 pairs=2 round=0",
    "dyn/dense/delta Insert(141, 171) tri=0 pairs=2 round=0",
    "dyn/dense/delta Delete(31, 242) tri=0 pairs=3 round=0",
    "dyn/dense/delta Insert(215, 277) tri=1 pairs=2 round=0",
    "dyn/dense/delta Insert(30, 252) tri=1 pairs=3 round=1",
    "dyn/dense/batch rejected=0 rounds=2 t=3e6e1e5881a26005 total=316",
    "dyn/dense/support pv=948 edges=1198 sum=948 pairs=3556 skipped=0",
    "dyn/dense/ktruss3 k=2396,5602,887,0",
    "dyn/dense/4clique k=1364,3903,663,0",
    "dyn/sparse/delta Delete(0, 1) tri=-4 pairs=4 round=0",
    "dyn/sparse/delta Insert(38, 64) tri=1 pairs=2 round=0",
    "dyn/sparse/delta Insert(75, 117) tri=0 pairs=1 round=0",
    "dyn/sparse/delta Delete(2, 124) tri=-1 pairs=1 round=0",
    "dyn/sparse/delta Insert(149, 223) tri=0 pairs=1 round=0",
    "dyn/sparse/delta Insert(186, 276) tri=0 pairs=1 round=0",
    "dyn/sparse/delta Delete(4, 97) tri=-2 pairs=1 round=0",
    "dyn/sparse/delta Insert(82, 260) tri=1 pairs=2 round=0",
    "dyn/sparse/delta Insert(135, 297) tri=0 pairs=1 round=0",
    "dyn/sparse/delta Delete(8, 9) tri=-4 pairs=4 round=0",
    "dyn/sparse/delta Insert(71, 241) tri=0 pairs=1 round=0",
    "dyn/sparse/delta Insert(108, 294) tri=0 pairs=1 round=0",
    "dyn/sparse/delta Delete(10, 91) tri=0 pairs=2 round=0",
    "dyn/sparse/delta Insert(100, 182) tri=0 pairs=1 round=0",
    "dyn/sparse/delta Insert(153, 219) tri=0 pairs=1 round=0",
    "dyn/sparse/delta Delete(15, 227) tri=0 pairs=2 round=0",
    "dyn/sparse/delta Insert(259, 293) tri=0 pairs=0 round=0",
    "dyn/sparse/delta Insert(12, 30) tri=3 pairs=2 round=0",
    "dyn/sparse/delta Delete(21, 270) tri=-1 pairs=2 round=0",
    "dyn/sparse/delta Insert(104, 118) tri=0 pairs=0 round=0",
    "dyn/sparse/delta Insert(141, 171) tri=0 pairs=1 round=0",
    "dyn/sparse/delta Delete(31, 242) tri=0 pairs=2 round=0",
    "dyn/sparse/delta Insert(215, 277) tri=1 pairs=1 round=0",
    "dyn/sparse/delta Insert(30, 252) tri=1 pairs=1 round=1",
    "dyn/sparse/batch rejected=0 rounds=2 t=3e6e1e5881a26005 total=316",
    "dyn/sparse/support pv=948 edges=1198 sum=948 pairs=2070 skipped=1486",
    "dyn/sparse/ktruss3 k=1799,3073,887,2529",
    "dyn/sparse/4clique k=1198,2284,663,1619",
];

#[test]
fn kernel_counters_match_the_golden_table() {
    let actual = actual_lines();
    if actual != GOLDEN {
        for line in &actual {
            println!("    {line:?},");
        }
        let first = actual.iter().zip(GOLDEN).position(|(a, g)| a != g);
        panic!(
            "golden counters differ ({} actual lines, {} golden; first difference at {:?})",
            actual.len(),
            GOLDEN.len(),
            first
        );
    }
}
