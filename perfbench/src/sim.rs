//! The closed-loop simulator workloads, `sim-ba20k` and `sim-rmat14`:
//! one client sends its next query through `TcimPipeline::query` only
//! after the previous one returned, rotating queries × backends over
//! one prepared graph.

use std::time::{Duration, Instant};

use tcim_bitmatrix::PopcountMethod;
use tcim_core::{
    baseline, Backend, Query, QueryReport, SchedPolicy, TcimConfig, TcimPipeline,
};
use tcim_graph::generators::{barabasi_albert, rmat, RmatParams};
use tcim_graph::CsrGraph;
use tcim_stream::{DynamicGraph, StreamConfig};
use tcim_telemetry::json::{num_u64, object};
use tcim_telemetry::Json;

use crate::serve::{self, LiveModel, ServeCtx};
use crate::stats::{self, median, ms, quantile, tail_quantile, Rng};
use crate::trace::Tracer;
use crate::{layers, Outcome};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Update batches applied to the live copy after each rotation (each
/// takes about a tenth of a millisecond, so many are cheap).
const UPDATES_PER_ROTATION: usize = 10;
/// The serving probe of a traced run: a gentle open loop, so the probe
/// measures the serving layers rather than a backlog.
const PROBE_RATE: u64 = 10;
const PROBE_SECONDS: f64 = 3.0;

pub struct SimWorkload {
    pub graph: CsrGraph,
    pub backends: Vec<Backend>,
}

/// Light kernel work, heavy scheduling and shard planning.
pub fn ba20k(seed: u64) -> SimWorkload {
    SimWorkload {
        graph: barabasi_albert(20_000, 8, seed).expect("generator parameters are valid"),
        backends: vec![
            Backend::SerialPim,
            Backend::ScheduledPim(SchedPolicy::with_arrays(4)),
            Backend::Sharded(layers::sharded_policy()),
        ],
    }
}

/// Bound by AND+popcount and simulator bookkeeping; never plans.
pub fn rmat14(seed: u64) -> SimWorkload {
    SimWorkload {
        graph: rmat(14, 200_000, RmatParams::default(), seed)
            .expect("generator parameters are valid"),
        backends: vec![Backend::SerialPim, Backend::Software(PopcountMethod::Native)],
    }
}

fn queries() -> [Query; 2] {
    [Query::TotalTriangles, Query::PerVertexTriangles]
}

/// One timed rotation: its per-query latencies (ms, failures infinite),
/// the update batches that followed it, and its host calibration factor.
struct Rotation {
    traced: bool,
    scale: f64,
    latency_ms: Vec<f64>,
    update_ms: Vec<f64>,
}

struct Ready {
    pipeline: TcimPipeline,
    prepared: std::sync::Arc<tcim_core::PreparedGraph>,
    live: DynamicGraph,
}

/// Everything between a generated CSR and ready-to-serve: the pipeline,
/// the prepared artifact, the sharded partition a sharded backend in
/// the rotation needs, and the live copy the update phase writes to.
fn set_up(w: &SimWorkload) -> Ready {
    let pipeline =
        TcimPipeline::new(&TcimConfig::default()).expect("default config characterizes");
    let prepared = pipeline.prepare(&w.graph);
    for backend in &w.backends {
        if let Backend::Sharded(policy) = backend {
            pipeline.prepare_sharded(&prepared, &policy.spec).expect("a valid shard spec");
        }
    }
    let live = DynamicGraph::new(&w.graph, StreamConfig::default()).expect("a valid graph");
    Ready { pipeline, prepared, live }
}

pub fn run(w: &SimWorkload, seed: u64, seconds: f64, tracer: &Tracer, out: &mut Outcome) {
    out.calibrate(3);
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..if tracer.enabled() { 1 } else { SETUP_REPS } {
        drop(ready.take());
        let start = Instant::now();
        ready = Some(set_up(w));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let Ready { pipeline, prepared, mut live } = ready.expect("at least one set-up runs");

    // Reference answers: the CPU forward algorithm.
    let reference = pipeline
        .query(&prepared, &Backend::CpuForward, &Query::PerVertexTriangles)
        .expect("the CPU baseline answers");
    let check = |report: &QueryReport| match report.query {
        Query::TotalTriangles => report.value.total() == Some(reference.triangles),
        _ => report.value.per_vertex() == reference.value.per_vertex(),
    };
    let combos: Vec<(Query, Backend)> = queries()
        .into_iter()
        .flat_map(|q| w.backends.iter().map(move |b| (q.clone(), b.clone())))
        .collect();

    // One untimed rotation: lazy set-up finishes, and its reports are
    // the deterministic accounting of the workload.
    let mut accounting = Vec::new();
    let mut modelled = Vec::new();
    for (query, backend) in &combos {
        let report = pipeline.query(&prepared, backend, query).expect("backend answers");
        out.check(check(&report));
        if let (Some(t), Some(e)) = (report.modelled_time_s, report.modelled_energy_j) {
            modelled.push((t, e));
        }
        accounting.push(crate::report_json(&report));
    }
    for backend in &w.backends {
        let count = pipeline.execute(&prepared, backend).expect("backend executes");
        out.check(count.triangles == reference.triangles);
        if let Some(stats) = count.stats {
            accounting.push(crate::access_json(&count.backend, &stats));
        }
    }

    // The measured closed loop. A traced run alternates traced and
    // untraced rotations, so their difference is the tracing overhead.
    // Each rotation is calibrated by the mean of the calibration kernel
    // timed just before it and just after it.
    let untraced = Tracer::new(false);
    let mut rotations: Vec<Rotation> = Vec::new();
    let mut model = LiveModel::new(&w.graph);
    let mut rng = Rng::new(seed ^ 0xda7a);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    out.calibrate(1);
    while Instant::now() < deadline {
        let traced = tracer.enabled() && rotations.len() % 2 == 1;
        let t = if traced { tracer } else { &untraced };
        let mut latency_ms = Vec::with_capacity(combos.len());
        for (query, backend) in &combos {
            let request = t.next_id();
            let sent = Instant::now();
            let report = t
                .span("core.query", request, 0, |_| pipeline.query(&prepared, backend, query));
            let latency = ms(sent.elapsed());
            let ok = matches!(&report, Ok(r) if check(r));
            out.check(ok);
            latency_ms.push(if ok { latency } else { f64::INFINITY });
        }
        // Update batches to the live copy, spread over the run.
        let mut update_ms = Vec::with_capacity(UPDATES_PER_ROTATION);
        for _ in 0..UPDATES_PER_ROTATION {
            let batch = model.next_batch(&mut rng);
            let request = t.next_id();
            let sent = Instant::now();
            let applied =
                t.span("stream.apply_batch", request, 0, |_| live.apply_batch(&batch));
            update_ms.push(ms(sent.elapsed()));
            out.check(matches!(applied, Ok(r) if r.rejected.is_empty()));
        }
        let before = *out.calibration_ms.last().expect("calibrated before the loop");
        out.calibrate(1);
        let after = *out.calibration_ms.last().expect("just calibrated");
        let scale = stats::CALIBRATION_REF_MS / ((before + after) / 2.0);
        rotations.push(Rotation { traced, scale, latency_ms, update_ms });
    }
    let latency_ms: Vec<f64> =
        rotations.iter().flat_map(|r| r.latency_ms.iter().map(|l| l * r.scale)).collect();
    let update_ms: Vec<f64> =
        rotations.iter().flat_map(|r| r.update_ms.iter().map(|l| l * r.scale)).collect();
    let per_combo: Vec<Json> = combos
        .iter()
        .enumerate()
        .map(|(c, (query, backend))| {
            let mine: Vec<f64> =
                latency_ms.iter().skip(c).step_by(combos.len()).copied().collect();
            object([
                ("query", Json::String(query.to_string())),
                ("backend", Json::String(backend.label())),
                ("samples", num_u64(mine.len() as u64)),
                ("latency_p50_ms", crate::num(median(&mine))),
            ])
        })
        .collect();
    out.record.push(("per_combo", Json::Array(per_combo)));
    let rotation_ms = |traced: bool| -> Vec<f64> {
        rotations
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.latency_ms.iter().sum::<f64>() * r.scale)
            .collect()
    };
    out.record.push((
        "rotation_ms",
        Json::Array(rotation_ms(false).into_iter().map(crate::num).collect()),
    ));

    // The live copy against a from-scratch count of its final edges.
    let final_graph = model.graph();
    out.check(live.triangles() == baseline::forward(&final_graph));
    out.check(live.per_vertex() == baseline::local_triangles(&final_graph).as_slice());

    let n_modelled = modelled.len().max(1) as f64;
    out.record.push(("queries", num_u64(latency_ms.len() as u64)));
    out.record.push(("setup_samples", num_u64(setup_s.len() as u64)));
    out.record.push(("update_samples", num_u64(update_ms.len() as u64)));
    out.record.push(("accounting", Json::Array(accounting)));
    out.record.push((
        "graph",
        object([
            ("vertices", num_u64(w.graph.vertex_count() as u64)),
            ("edges", num_u64(w.graph.edge_count() as u64)),
            ("triangles", num_u64(reference.triangles)),
        ]),
    ));

    if tracer.enabled() {
        let traced = median(&rotation_ms(true));
        let plain = median(&rotation_ms(false));
        out.metrics.push(
            "telemetry.trace_overhead_frac",
            (traced - plain) / plain,
            "fraction",
        );
        layers::probe(&w.graph, reference.triangles, seed, tracer, out);
        let (mut ctx, _) = ServeCtx::new(&w.graph, &w.graph, seed, 1);
        let step = ctx.run_step(PROBE_RATE, Duration::from_secs_f64(PROBE_SECONDS), tracer);
        out.tally(step.attempted(), step.failed());
        serve::serving_layers(&mut ctx, &[&step], tracer, out);
        ctx.shutdown();
        return;
    }
    // Set-up ran before the loop, so it takes the run-wide calibration.
    let run_scale = stats::CALIBRATION_REF_MS / median(&out.calibration_ms);
    out.record.push(("setup_s_uncalibrated", crate::num(median(&setup_s))));
    out.metrics.push("setup_s", median(&setup_s) * run_scale, "s");
    // Latencies, rotations and updates are calibrated already, rotation
    // by rotation.
    let (p90, p90_at) = tail_quantile(&latency_ms, 0.9);
    let (p99, p99_at) = tail_quantile(&latency_ms, 0.99);
    out.record.push(("latency_p90_percentile", crate::num(p90_at)));
    out.record.push(("latency_p99_percentile", crate::num(p99_at)));
    out.metrics.push("latency_p50_ms", quantile(&latency_ms, 0.5), "ms");
    out.metrics.push("latency_p90_ms", p90, "ms");
    out.metrics.push("latency_p99_ms", p99, "ms");
    // The median rotation's rate, so one stalled rotation cannot move it.
    let rate = combos.len() as f64 * 1e3 / median(&rotation_ms(false));
    out.metrics.push("throughput_qps", rate, "1/s");
    // One closed-loop client cannot be offered more than it completes,
    // so no backlog can form: its highest sustainable rate is its
    // throughput.
    out.metrics.push("max_qps_within_slo", rate, "1/s");
    out.metrics.push("update_p50_ms", median(&update_ms), "ms");
    let (t, e) = modelled.iter().fold((0.0, 0.0), |acc, m| (acc.0 + m.0, acc.1 + m.1));
    out.metrics.push("modelled_us_per_query", t * 1e6 / n_modelled, "us");
    out.metrics.push("modelled_uj_per_query", e * 1e6 / n_modelled, "uJ");
}
