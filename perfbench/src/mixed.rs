//! The open-loop `serve-mixed` workload: paced mixed reads and update
//! batches through a `Gateway`, stepping the offered rate up.

use std::time::Duration;

use tcim_core::Backend;
use tcim_gateway::GatewayConfig;
use tcim_graph::generators::{barabasi_albert, gnm};
use tcim_telemetry::Json;

use crate::serve::{self, ServeCtx, Step, STATIC};
use crate::stats::{median, quantile, tail_quantile};
use crate::trace::Tracer;
use crate::{layers, Outcome, SLO_MS};

/// Offered operation rates (per second), stepped up within one run.
const RATES: [u64; 5] = [200, 400, 800, 1600, 3200];
/// The step whose latencies are the workload's latency metrics. It gets
/// half of the run, the other steps share the rest: the latency figures
/// need the samples, the other steps only need to show a backlog.
const LATENCY_RATE: u64 = 400;
/// Set-ups per untraced run; `setup_s` is their median. One set-up takes
/// tens of milliseconds here, so many are cheap.
const SETUP_REPS: usize = 21;

pub fn run(seed: u64, seconds: f64, tracer: &Tracer, out: &mut Outcome) {
    let static_graph =
        barabasi_albert(5_000, 8, seed).expect("generator parameters are valid");
    let live_graph =
        gnm(2_000, 16_000, seed ^ 0x11fe).expect("generator parameters are valid");
    let reps = if tracer.enabled() { 1 } else { SETUP_REPS };
    let (mut ctx, setup_s) = ServeCtx::new(&static_graph, &live_graph, seed, reps);
    let max_wave = GatewayConfig::default().max_wave;

    // Deterministic accounting: the reference answers, and the
    // simulator's access counts on the static graph.
    let mut accounting: Vec<Json> = ctx.reference.iter().map(crate::response_json).collect();
    let prepared = ctx.service.store().get(STATIC).expect("the static graph is registered");
    let count =
        ctx.service.pipeline().execute(&prepared, &Backend::SerialPim).expect("executes");
    out.check(count.triangles == ctx.reference[0].triangles);
    if let Some(stats) = count.stats {
        accounting.push(crate::access_json(&count.backend, &stats));
    }
    out.record.push(("accounting", Json::Array(accounting)));

    if tracer.enabled() {
        // Quarters of the run at the latency step, untraced and traced
        // in turn; the traced quarters give the gateway-layer figures.
        let quarter = Duration::from_secs_f64(seconds / 4.0);
        let plain = Tracer::new(false);
        let mut latencies = [Vec::new(), Vec::new()];
        let mut steps = Vec::new();
        for i in 0..4 {
            let t = if i % 2 == 1 { tracer } else { &plain };
            let step = ctx.run_step(LATENCY_RATE, quarter, t);
            out.tally(step.attempted(), step.failed());
            latencies[i % 2].extend_from_slice(&step.latency_ms);
            steps.push(step);
        }
        let (p, t) = (median(&latencies[0]), median(&latencies[1]));
        out.metrics.push("telemetry.trace_overhead_frac", (t - p) / p, "fraction");
        out.record.push((
            "steps",
            Json::Array(steps.iter().map(|s| s.to_json(SLO_MS, max_wave)).collect()),
        ));
        serve::serving_layers(&mut ctx, &[&steps[1], &steps[3]], tracer, out);
        layers::probe(&static_graph, ctx.reference[0].triangles, seed, tracer, out);
    } else {
        let mut peaks = Vec::new();
        let others = (RATES.len() - 1) as f64;
        let steps: Vec<Step> = RATES
            .iter()
            .map(|&rate| {
                let share = if rate == LATENCY_RATE { 0.5 } else { 0.5 / others };
                let step =
                    ctx.run_step(rate, Duration::from_secs_f64(seconds * share), tracer);
                peaks.push(crate::peak_rss_mib());
                step
            })
            .collect();
        for step in &steps {
            out.tally(step.attempted(), step.failed());
        }
        let at = steps.iter().find(|s| s.rate == LATENCY_RATE).expect("the latency step ran");
        let answered: u64 = steps.iter().map(|s| s.answered).sum();
        let measured: f64 = steps.iter().map(|s| s.last_completion.as_secs_f64()).sum();
        let within = steps
            .iter()
            .filter(|s| s.within_slo(max_wave, SLO_MS))
            .map(|s| s.rate)
            .max()
            .unwrap_or(0);
        let n = ctx.reference.len() as f64;
        let modelled_s: f64 = ctx.reference.iter().filter_map(|r| r.modelled_time_s).sum();
        let modelled_j: f64 = ctx.reference.iter().filter_map(|r| r.modelled_energy_j).sum();
        let m = &mut out.metrics;
        m.push("setup_s", median(&setup_s), "s");
        m.push("latency_p50_ms", quantile(&at.latency_ms, 0.5), "ms");
        m.push("latency_p90_ms", tail_quantile(&at.latency_ms, 0.9).0, "ms");
        m.push("latency_p99_ms", tail_quantile(&at.latency_ms, 0.99).0, "ms");
        m.push("throughput_qps", answered as f64 / measured, "1/s");
        m.push("max_qps_within_slo", within as f64, "1/s");
        m.push("update_p50_ms", median(&at.update_ms), "ms");
        m.push("modelled_us_per_query", modelled_s * 1e6 / n, "us");
        m.push("modelled_uj_per_query", modelled_j * 1e6 / n, "uJ");
        out.record.push((
            "steps",
            Json::Array(steps.iter().map(|s| s.to_json(SLO_MS, max_wave)).collect()),
        ));
        out.record.push((
            "peak_rss_mib_after_step",
            Json::Array(peaks.into_iter().map(crate::num).collect()),
        ));
        out.record
            .push(("setup_samples", tcim_telemetry::json::num_u64(setup_s.len() as u64)));
    }
    let (checks, failed) = ctx.check_live();
    out.tally(checks, failed);
    ctx.shutdown();
}
