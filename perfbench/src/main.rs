//! The TCIM benchmark: one command, three workloads, end-to-end metrics
//! with tracing off and per-layer metrics from a separate traced run.
//!
//! ```text
//! tcim-perfbench --workload <sim-ba20k|sim-rmat14|serve-mixed> --seed <n>
//!                --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Inputs are generated from `--seed`. Every answer is checked; the last
//! line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the full record
//! (deterministic accounting, rate steps, host facts) goes to
//! `<out>/<workload>-seed<n>-trace<t>.json`, spans to `...-spans.json`.
//! See `README.md` beside this crate for the workloads and metrics.

mod layers;
mod mixed;
mod serve;
mod sim;
mod stats;
mod trace;

use std::process::{Command, ExitCode};

use tcim_arch::AccessStats;
use tcim_core::{KernelStats, Query, QueryReport};
use tcim_service::QueryResponse;
use tcim_telemetry::json::{num_u64, object};
use tcim_telemetry::Json;

use trace::Tracer;

/// The latency limit of the serving metrics: a step (or, in a closed
/// loop, a query) is within the SLO when its latency is at most this.
pub const SLO_MS: f64 = 250.0;

/// The end-to-end metrics every untraced run prints, with their units.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("max_qps_within_slo", "1/s"),
    ("update_p50_ms", "ms"),
    ("modelled_us_per_query", "us"),
    ("modelled_uj_per_query", "uJ"),
    ("peak_rss_mib", "MiB"),
];

const WORKLOADS: [&str; 3] = ["sim-ba20k", "sim-rmat14", "serve-mixed"];

/// Metrics of one run, in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// What a workload hands back: its checked operations, its metrics and
/// the calibration samples it took, plus detail for the run's record.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// [`stats::calibrate`] times (ms) taken at quiet points of the run.
    pub calibration_ms: Vec<f64>,
    pub record: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.tally(1, u64::from(!ok));
    }

    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Takes `n` calibration samples (call only while the program is
    /// idle, so the samples see the host and not the workload).
    pub fn calibrate(&mut self, n: usize) {
        self.calibration_ms.extend((0..n).map(|_| stats::calibrate()));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = ".bench_out".to_string();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| "--seconds takes a number")?)
            }
            "--trace" => trace = Some(value == "1"),
            "--out" => out = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tcim-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let mut outcome = Outcome::default();
    match args.workload.as_str() {
        "sim-ba20k" => {
            sim::run(&sim::ba20k(args.seed), args.seed, args.seconds, &tracer, &mut outcome)
        }
        "sim-rmat14" => {
            sim::run(&sim::rmat14(args.seed), args.seed, args.seconds, &tracer, &mut outcome)
        }
        _ => mixed::run(args.seed, args.seconds, &tracer, &mut outcome),
    }
    if !args.trace {
        outcome.metrics.push("peak_rss_mib", peak_rss_mib(), "MiB");
    }
    let mut measured: Vec<(&str, &str)> =
        outcome.metrics.0.iter().map(|m| (m.0, m.2)).collect();
    measured.sort_unstable();
    let mut names: Vec<&str> = measured.iter().map(|m| m.0).collect();
    names.dedup();
    let mut expected: Vec<&str> =
        if args.trace { PER_LAYER.to_vec() } else { END_TO_END.iter().map(|m| m.0).collect() };
    expected.sort_unstable();
    let units_match = args.trace || measured.iter().all(|m| END_TO_END.contains(m));
    if names != expected || names.len() != measured.len() || !units_match {
        eprintln!("tcim-perfbench: metric set mismatch: measured {measured:?}, expected {expected:?}");
        return ExitCode::from(3);
    }

    outcome.record.push((
        "calibration",
        object([
            ("reference_ms", num(stats::CALIBRATION_REF_MS)),
            (
                "samples_ms",
                Json::Array(outcome.calibration_ms.iter().map(|&c| num(c)).collect()),
            ),
        ]),
    ));

    let correct = outcome.failed == 0 && outcome.metrics.0.iter().all(|m| m.1.is_finite());
    let metrics = Json::Object(
        outcome
            .metrics
            .0
            .iter()
            .map(|&(name, value, unit)| {
                let entry =
                    object([("value", num(value)), ("unit", Json::String(unit.into()))]);
                (name.to_string(), entry)
            })
            .collect(),
    );
    let result = object([
        ("correct", Json::Bool(correct)),
        ("attempted", num_u64(outcome.attempted)),
        ("failed", num_u64(outcome.failed)),
        ("metrics", metrics),
    ]);
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let mut record: Vec<(&'static str, Json)> = vec![
        ("workload", Json::String(args.workload.clone())),
        ("seed", num_u64(args.seed)),
        ("seconds", num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("host", host_facts()),
        ("result", result.clone()),
    ];
    record.append(&mut outcome.record);
    let write = |name: String, doc: &Json| {
        let path = std::path::Path::new(&args.out).join(name);
        if let Err(e) = std::fs::create_dir_all(&args.out)
            .and_then(|_| std::fs::write(&path, doc.to_pretty()))
        {
            eprintln!("tcim-perfbench: cannot write {}: {e}", path.display());
        }
    };
    write(format!("{stem}-trace{}.json", u8::from(args.trace)), &object(record));
    if args.trace {
        write(format!("{stem}-spans.json"), &tracer.to_json());
    }
    for (name, value, unit) in &outcome.metrics.0 {
        eprintln!("{:<38} {:>16.6} {unit}", name, value);
    }
    eprintln!("attempted {}, failed {}", outcome.attempted, outcome.failed);
    // One line: the pretty writer's line breaks only ever separate tokens.
    let line: String = result.to_pretty().lines().map(str::trim).collect::<Vec<_>>().join(" ");
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The per-layer metrics every traced run prints.
const PER_LAYER: [&str; 34] = [
    "graph.orient_ms",
    "bitmatrix.slice_ms",
    "core.prepare_ms",
    "shard.prepare_ms",
    "bitmatrix.popcount_ns_per_word",
    "bitmatrix.and_popcount_ns_per_arc",
    "bitmatrix.skip_frac",
    "bitmatrix.compressed_bytes",
    "arch.run_ns_per_arc",
    "arch.sim_overhead_ratio",
    "arch.and_ops",
    "arch.row_slice_writes",
    "arch.col_hit_frac",
    "arch.col_exchanges",
    "sched.plan_ms",
    "sched.execute_ms",
    "sched.spawn_us",
    "shard.plan_ms",
    "shard.cross_arc_frac",
    "core.execute_ms.cpu-forward",
    "core.execute_ms.cpu-merge",
    "core.execute_ms.software",
    "core.execute_ms.serial-pim",
    "core.execute_ms.scheduled-pim-4",
    "core.execute_ms.sharded-4",
    "core.query_overhead_ms",
    "stream.update_ms",
    "stream.publish_ms",
    "service.serve_batch_ms",
    "gateway.submit_us",
    "gateway.outside_wall_ms",
    "gateway.executions_per_query",
    "gateway.shed_frac",
    "telemetry.trace_overhead_frac",
];

/// A JSON number, or `null` for a non-finite value (a quantile that
/// reached a failed request), which JSON cannot hold.
pub fn num(x: f64) -> Json {
    if x.is_finite() {
        Json::Number(x)
    } else {
        Json::Null
    }
}

/// Deterministic accounting of one answer, from a pipeline report or a
/// service response (the two carry the same fields).
fn accounting_json(
    query: &Query,
    backend: &str,
    triangles: u64,
    kernel: &KernelStats,
    compressed_bytes: u64,
    modelled: (Option<f64>, Option<f64>),
) -> Json {
    object([
        ("query", Json::String(query.to_string())),
        ("backend", Json::String(backend.to_string())),
        ("triangles", num_u64(triangles)),
        ("kernel_invocations", num_u64(kernel.kernel_invocations)),
        ("slice_pairs", num_u64(kernel.slice_pairs)),
        ("blocks_skipped", num_u64(kernel.blocks_skipped)),
        ("result_readouts", num_u64(kernel.result_readouts)),
        ("compressed_bytes", num_u64(compressed_bytes)),
        ("modelled_time_s", modelled.0.map_or(Json::Null, num)),
        ("modelled_energy_j", modelled.1.map_or(Json::Null, num)),
    ])
}

pub fn report_json(r: &QueryReport) -> Json {
    let modelled = (r.modelled_time_s, r.modelled_energy_j);
    accounting_json(&r.query, &r.backend, r.triangles, &r.kernel, r.compressed_bytes, modelled)
}

pub fn response_json(r: &QueryResponse) -> Json {
    let modelled = (r.modelled_time_s, r.modelled_energy_j);
    accounting_json(&r.query, &r.backend, r.triangles, &r.kernel, r.compressed_bytes, modelled)
}

/// The simulator's access counts of one execution.
pub fn access_json(backend: &str, s: &AccessStats) -> Json {
    object([
        ("backend", Json::String(backend.to_string())),
        ("edges", num_u64(s.edges)),
        ("and_ops", num_u64(s.and_ops)),
        ("bitcount_ops", num_u64(s.bitcount_ops)),
        ("row_slice_writes", num_u64(s.row_slice_writes)),
        ("col_hits", num_u64(s.col_hits)),
        ("col_misses", num_u64(s.col_misses)),
        ("col_exchanges", num_u64(s.col_exchanges)),
        ("result_readouts", num_u64(s.result_readouts)),
        ("blocks_skipped", num_u64(s.blocks_skipped)),
    ])
}

/// Peak resident memory of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Output of a command, or `None` when it cannot run or fails. Git is
/// kept from searching above the working directory.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    let out = Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn host_facts() -> Json {
    let text = |s: Option<String>| s.map_or(Json::Null, Json::String);
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|info| {
        info.lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
    });
    object([
        ("nproc", num_u64(std::thread::available_parallelism().map_or(0, usize::from) as u64)),
        ("cpu", text(cpu)),
        ("rustc", text(command_output("rustc", &["-V"]))),
        ("git_commit", text(command_output("git", &["rev-parse", "HEAD"]))),
        (
            "git_dirty",
            command_output("git", &["status", "--porcelain"])
                .map_or(Json::Null, |s| Json::Bool(!s.is_empty())),
        ),
        (
            "build_profile",
            Json::String(if cfg!(debug_assertions) { "debug" } else { "release" }.into()),
        ),
    ])
}
