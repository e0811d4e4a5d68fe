//! The compute-layer ladder of a traced run: each crate's public entry
//! points called directly on one workload graph, each call inside a
//! span, from the graph layer up to `TcimPipeline::query`.

use tcim_bitmatrix::popcount::popcount_words;
use tcim_bitmatrix::{PopcountMethod, SlicedMatrix};
use tcim_core::{
    Backend, Query, SchedPolicy, ShardPolicy, ShardSpec, ShardedPreparedGraph, TcimConfig,
    TcimPipeline,
};
use tcim_graph::CsrGraph;
use tcim_sched::{parallel_map_indexed, ScheduledRun};
use tcim_shard::plan_shards;

use crate::stats::{median, Rng};
use crate::trace::Tracer;
use crate::Outcome;

/// Repetitions of each heavy call; the metric is the median span.
const REPS: usize = 3;
/// Repetitions of each call that takes microseconds.
const FAST_REPS: usize = 200;
/// Words in the popcount operand (512 KiB, larger than L1 and L2).
const POPCOUNT_WORDS: usize = 1 << 16;

const SERIAL_RUNG: &str = "core.execute_ms.serial-pim";
const SOFTWARE_RUNG: &str = "core.execute_ms.software";

/// The backend ladder, by metric name, cheapest floor first.
fn ladder() -> Vec<(&'static str, Backend)> {
    vec![
        ("core.execute_ms.cpu-forward", Backend::CpuForward),
        ("core.execute_ms.cpu-merge", Backend::CpuMerge),
        (SOFTWARE_RUNG, Backend::Software(PopcountMethod::Native)),
        (SERIAL_RUNG, Backend::SerialPim),
        (
            "core.execute_ms.scheduled-pim-4",
            Backend::ScheduledPim(SchedPolicy::with_arrays(4)),
        ),
        ("core.execute_ms.sharded-4", Backend::Sharded(sharded_policy())),
    ]
}

/// Four shards of two arrays each: the sharded backend the `sim-ba20k`
/// rotation and the ladder run.
pub fn sharded_policy() -> ShardPolicy {
    ShardPolicy::with_shards(4).inner(SchedPolicy::with_arrays(2))
}

/// Runs the ladder on `g` (whose exact triangle count is `triangles`),
/// adding every compute-layer metric to `out` and checking every count
/// against `triangles`.
pub fn probe(g: &CsrGraph, triangles: u64, seed: u64, tracer: &Tracer, out: &mut Outcome) {
    let config = TcimConfig::default();
    let pipeline = TcimPipeline::new(&config).expect("default config characterizes");
    let slice_size = config.pim.slice_size;
    let mut checks: Vec<bool> = Vec::new();
    let timed = |name: &'static str, reps: usize, f: &mut dyn FnMut()| -> f64 {
        for _ in 0..reps {
            let request = tracer.next_id();
            tracer.span(name, request, 0, |_| f());
        }
        median(&tracer.durations_ms(name))
    };

    // Preparation layers → setup_s.
    let mut oriented = None;
    let orient_ms = timed("graph.orient", REPS, &mut || {
        oriented = Some(config.orientation.orient(g));
    });
    let oriented = oriented.expect("orientation ran");
    let slice_ms = timed("bitmatrix.slice", REPS, &mut || {
        let m =
            SlicedMatrix::from_adjacency_with(oriented.rows(), slice_size, config.encoding)
                .expect("oriented adjacency is in bounds");
        std::hint::black_box(m);
    });
    let prepare_ms = timed("core.prepare_uncached", REPS, &mut || {
        std::hint::black_box(pipeline.prepare_uncached(g));
    });
    let prepared = pipeline.prepare(g);
    let spec = ShardSpec::one_d(4);
    let shard_prepare_ms = timed("shard.prepare", REPS, &mut || {
        let built = ShardedPreparedGraph::build(&prepared, &spec, pipeline.engine())
            .expect("a valid shard spec");
        std::hint::black_box(built);
    });
    let mut plan = None;
    let shard_plan_ms = timed("shard.plan", REPS, &mut || {
        plan = Some(plan_shards(prepared.oriented(), &spec, slice_size).expect("valid spec"));
    });
    let plan = plan.expect("shard planning ran");
    out.metrics.push("graph.orient_ms", orient_ms, "ms");
    out.metrics.push("bitmatrix.slice_ms", slice_ms, "ms");
    out.metrics.push("core.prepare_ms", prepare_ms, "ms");
    out.metrics.push("shard.prepare_ms", shard_prepare_ms, "ms");
    out.metrics.push("shard.plan_ms", shard_plan_ms, "ms");
    let arcs = (plan.intra_arcs() + plan.cross_arcs()).max(1);
    out.metrics.push(
        "shard.cross_arc_frac",
        plan.cross_arcs() as f64 / arcs as f64,
        "fraction",
    );

    // Bit-level kernels → latency on sim-rmat14.
    let mut rng = Rng::new(seed);
    let words: Vec<u64> = (0..POPCOUNT_WORDS).map(|_| rng.next_u64()).collect();
    let popcount_ms = timed("bitmatrix.popcount_words", FAST_REPS, &mut || {
        std::hint::black_box(popcount_words(
            std::hint::black_box(&words),
            PopcountMethod::Native,
        ));
    });
    out.metrics.push(
        "bitmatrix.popcount_ns_per_word",
        popcount_ms * 1e6 / POPCOUNT_WORDS as f64,
        "ns",
    );
    let matrix = prepared.matrix();
    let mut walked = 0u64;
    let and_ms = timed("bitmatrix.and_popcount_all_arcs", REPS, &mut || {
        walked = matrix.edges().map(|(i, j)| matrix.row(i).and_popcount(matrix.col(j))).sum();
    });
    checks.push(walked == triangles);
    let arc_count = matrix.edge_count().max(1) as f64;
    out.metrics.push("bitmatrix.and_popcount_ns_per_arc", and_ms * 1e6 / arc_count, "ns");
    let pricing = prepared.pricing();
    let compared = (pricing.slice_pairs + pricing.blocks_skipped).max(1);
    out.metrics.push(
        "bitmatrix.skip_frac",
        pricing.blocks_skipped as f64 / compared as f64,
        "fraction",
    );
    out.metrics.push(
        "bitmatrix.compressed_bytes",
        prepared.slice_stats().compressed_bytes as f64,
        "bytes",
    );

    // The simulator → throughput on sim-rmat14, modelled time everywhere.
    let mut sim = None;
    let run_ms = timed("arch.run", REPS, &mut || sim = Some(pipeline.engine().run(matrix)));
    let sim = sim.expect("the engine ran");
    checks.push(sim.triangles == triangles);
    let s = sim.stats;
    out.metrics.push("arch.run_ns_per_arc", run_ms * 1e6 / s.edges.max(1) as f64, "ns");
    out.metrics.push("arch.and_ops", s.and_ops as f64, "count");
    out.metrics.push("arch.row_slice_writes", s.row_slice_writes as f64, "count");
    out.metrics.push("arch.col_hit_frac", s.hit_rate(), "fraction");
    out.metrics.push("arch.col_exchanges", s.col_exchanges as f64, "count");

    // Scheduling → latency on sim-ba20k.
    let policy = SchedPolicy::with_arrays(4);
    let costs = pipeline.engine().cost_model();
    for _ in 0..REPS {
        let request = tracer.next_id();
        tracer.span("sched.run", request, 0, |parent| {
            let run = tracer.span("sched.plan", request, parent, |_| {
                ScheduledRun::plan_with_costs(pipeline.engine(), matrix, &policy, costs)
                    .expect("a valid policy")
            });
            let report = tracer.span("sched.execute", request, parent, |_| run.execute());
            checks.push(report.triangles == triangles);
        });
    }
    out.metrics.push("sched.plan_ms", median(&tracer.durations_ms("sched.plan")), "ms");
    out.metrics.push("sched.execute_ms", median(&tracer.durations_ms("sched.execute")), "ms");
    let threads = policy.resolved_host_threads();
    let spawn_ms = timed("sched.parallel_map_indexed", FAST_REPS, &mut || {
        std::hint::black_box(parallel_map_indexed(policy.arrays, threads, |i| i));
    });
    out.metrics.push("sched.spawn_us", spawn_ms * 1e3, "us");

    // The backend ladder through `TcimPipeline::execute`, then `query`.
    // The sharded rung reuses one cached partition, as serving does.
    pipeline.prepare_sharded(&prepared, &sharded_policy().spec).expect("a valid shard spec");
    for (name, backend) in ladder() {
        let mut answer = 0;
        let ms = timed(name, REPS, &mut || {
            answer =
                pipeline.execute(&prepared, &backend).expect("backend executes").triangles;
        });
        checks.push(answer == triangles);
        out.metrics.push(name, ms, "ms");
    }
    // Paired, so drift between repetitions cancels: each repetition
    // executes, then answers the same count through `query`.
    let mut overhead_ms = Vec::new();
    for _ in 0..REPS {
        let request = tracer.next_id();
        let pair = |name: &'static str, f: &mut dyn FnMut()| {
            let start = std::time::Instant::now();
            tracer.span(name, request, 0, |_| f());
            start.elapsed().as_secs_f64() * 1e3
        };
        let execute_ms = pair("core.execute.serial-pim", &mut || {
            let report = pipeline.execute(&prepared, &Backend::SerialPim).expect("executes");
            checks.push(report.triangles == triangles);
        });
        let query_ms = pair("core.query.serial-pim", &mut || {
            let report = pipeline
                .query(&prepared, &Backend::SerialPim, &Query::TotalTriangles)
                .expect("query answers");
            checks.push(report.triangles == triangles);
        });
        overhead_ms.push(query_ms - execute_ms);
    }
    out.metrics.push("core.query_overhead_ms", median(&overhead_ms), "ms");
    let rung = |name: &str| median(&tracer.durations_ms(name));
    out.metrics.push(
        "arch.sim_overhead_ratio",
        rung(SERIAL_RUNG) / rung(SOFTWARE_RUNG),
        "ratio",
    );
    for ok in checks {
        out.check(ok);
    }
}
