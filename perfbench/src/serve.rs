//! The open-loop serving path: a `Gateway` over a `TcimService` with
//! one static and one live graph, driven by paced mixed traffic.
//!
//! Used whole by the `serve-mixed` workload, and at a low rate as the
//! serving-layer probe of the traced runs of the other workloads.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tcim_core::{baseline, Query};
use tcim_gateway::{Gateway, GatewayConfig, Ticket};
use tcim_graph::CsrGraph;
use tcim_service::{
    BatchOptions, LiveReadMode, QueryRequest, QueryResponse, ServiceConfig, TcimService,
};
use tcim_stream::UpdateBatch;
use tcim_telemetry::json::{num_u64, object};
use tcim_telemetry::Json;

use crate::stats::{median, ms, quantile, Rng};
use crate::trace::Tracer;
use crate::Outcome;

/// Repetitions of each direct serving-layer call in a traced run.
const LAYER_REPS: usize = 3;

/// The serving-layer metrics of a traced run: gateway figures pooled
/// over `steps` (which ran traced), then direct calls into the stream
/// and service layers, each inside a span.
pub fn serving_layers(
    ctx: &mut ServeCtx,
    steps: &[&Step],
    tracer: &Tracer,
    out: &mut Outcome,
) {
    for _ in 0..LAYER_REPS {
        let applied = ctx.update_now(tracer);
        out.check(applied);
        let request = tracer.next_id();
        let published =
            tracer.span("service.publish", request, 0, |_| ctx.service.publish(LIVE).is_ok());
        out.check(published);
        let request = tracer.next_id();
        let wrong = tracer.span("service.serve_with", request, 0, |_| ctx.serve_wave());
        out.tally(ctx.wave().len() as u64, wrong);
    }
    let (checks, failed) = ctx.check_live();
    out.tally(checks, failed);
    let m = &mut out.metrics;
    m.push("stream.update_ms", median(&tracer.durations_ms("gateway.update")), "ms");
    m.push("stream.publish_ms", median(&tracer.durations_ms("service.publish")), "ms");
    m.push("service.serve_batch_ms", median(&tracer.durations_ms("service.serve_with")), "ms");
    let pooled = |f: fn(&Step) -> &Vec<f64>| -> Vec<f64> {
        steps.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    m.push("gateway.submit_us", median(&pooled(|s| &s.submit_us)), "us");
    m.push("gateway.outside_wall_ms", median(&pooled(|s| &s.outside_wall_ms)), "ms");
    let sum = |f: fn(&Step) -> u64| steps.iter().map(|s| f(s)).sum::<u64>() as f64;
    let executions = sum(|s| s.executions) / sum(|s| s.answered).max(1.0);
    m.push("gateway.executions_per_query", executions, "ratio");
    let shed = sum(|s| s.shed) / sum(|s| s.reads as u64).max(1.0);
    m.push("gateway.shed_frac", shed, "fraction");
}

pub const STATIC: &str = "static";
pub const LIVE: &str = "live";
const TENANT: &str = "bench";
/// Edges per update batch: half deletions of present edges, half
/// insertions of absent ones, so the live graph keeps its size.
const BATCH_EDGES: usize = 16;
/// Every `UPDATE_EVERY`-th operation of the traffic is an update batch.
const UPDATE_EVERY: usize = 10;
/// How many tickets past the oldest one the collector polls; dispatch
/// is FIFO per wave, so only the waves in flight can have finished.
const POLL_WINDOW: usize = 128;
/// The update thread sleeps until this long before an update is due
/// and spins the rest, so sleep overshoot does not count as update
/// latency. (Reads are tens of milliseconds; their generator sleeps.)
const SPIN: Duration = Duration::from_micros(150);
/// A step stops offering load once this many requests are queued (half
/// the gateway's default queue capacity): its backlog has grown, and
/// offering more would only be shed.
const ABORT_DEPTH: usize = 512;
/// The collector's completion-observation granularity.
const POLL_INTERVAL: Duration = Duration::from_micros(500);

/// The read rotation of the traffic.
pub fn query_kinds() -> [Query; 4] {
    [
        Query::TotalTriangles,
        Query::PerVertexTriangles,
        Query::TopKVertices { k: 8 },
        Query::GlobalClustering,
    ]
}

/// The live graph's edge set as the benchmark knows it: every update
/// batch is drawn from, and applied to, this model, so each batch is
/// valid and the final edge set is known without asking the program.
#[derive(Debug, Clone)]
pub struct LiveModel {
    vertices: usize,
    edges: Vec<(u32, u32)>,
    present: HashSet<(u32, u32)>,
}

impl LiveModel {
    pub fn new(g: &CsrGraph) -> Self {
        let edges: Vec<(u32, u32)> = g.edges().map(|(u, v)| (u.min(v), u.max(v))).collect();
        LiveModel {
            vertices: g.vertex_count(),
            present: edges.iter().copied().collect(),
            edges,
        }
    }

    /// Draws the next batch and applies it to the model.
    pub fn next_batch(&mut self, rng: &mut Rng) -> UpdateBatch {
        let mut batch = UpdateBatch::new();
        let mut touched = HashSet::new();
        for _ in 0..BATCH_EDGES / 2 {
            let at = rng.below(self.edges.len() as u64) as usize;
            let (u, v) = self.edges.swap_remove(at);
            self.present.remove(&(u, v));
            touched.insert((u, v));
            batch.delete(u, v);
        }
        let mut inserted = 0;
        while inserted < BATCH_EDGES / 2 {
            let a = rng.below(self.vertices as u64) as u32;
            let b = rng.below(self.vertices as u64) as u32;
            let e = (a.min(b), a.max(b));
            if a == b || self.present.contains(&e) || touched.contains(&e) {
                continue;
            }
            self.present.insert(e);
            self.edges.push(e);
            touched.insert(e);
            batch.insert(e.0, e.1);
            inserted += 1;
        }
        batch
    }

    pub fn graph(&self) -> CsrGraph {
        CsrGraph::from_edges(self.vertices, self.edges.iter().copied())
            .expect("the model holds a simple graph")
    }
}

/// A ready-to-serve gateway with its reference answers.
pub struct ServeCtx {
    pub service: Arc<TcimService>,
    pub gateway: Arc<Gateway>,
    /// Unbatched `TcimService::query` answers on the static graph, per
    /// entry of [`query_kinds`]; their accounting is deterministic.
    pub reference: Vec<QueryResponse>,
    model: LiveModel,
    rng: Rng,
}

impl ServeCtx {
    /// Service construction, registration of both graphs and gateway
    /// start: everything between a generated CSR and ready-to-serve.
    fn build(
        static_graph: &CsrGraph,
        live_graph: &CsrGraph,
    ) -> (Arc<TcimService>, Arc<Gateway>) {
        let service = Arc::new(
            TcimService::new(&ServiceConfig::default()).expect("default config characterizes"),
        );
        service.register(STATIC, static_graph).expect("static registration succeeds");
        service.register_live(LIVE, live_graph).expect("live registration succeeds");
        let gateway = Arc::new(Gateway::new(
            Arc::clone(&service),
            &GatewayConfig { workers: 2, ..GatewayConfig::default() },
        ));
        gateway.start_workers();
        (service, gateway)
    }

    /// Builds the serving stack `reps` times (timing each) and keeps the
    /// last one. Returns the context and the set-up times in seconds.
    pub fn new(
        static_graph: &CsrGraph,
        live_graph: &CsrGraph,
        seed: u64,
        reps: usize,
    ) -> (ServeCtx, Vec<f64>) {
        let mut times = Vec::with_capacity(reps);
        let mut built: Option<(Arc<TcimService>, Arc<Gateway>)> = None;
        for _ in 0..reps.max(1) {
            if let Some((_, old)) = built.take() {
                old.shutdown();
            }
            let start = Instant::now();
            built = Some(ServeCtx::build(static_graph, live_graph));
            times.push(start.elapsed().as_secs_f64());
        }
        let (service, gateway) = built.expect("at least one set-up runs");
        let reference = query_kinds()
            .iter()
            .map(|query| service.query(STATIC, query).expect("reference query succeeds"))
            .collect();
        let ctx = ServeCtx {
            service,
            gateway,
            reference,
            model: LiveModel::new(live_graph),
            rng: Rng::new(seed ^ 0x5e7e),
        };
        (ctx, times)
    }

    /// The traffic of one step: `ops` operations, every
    /// [`UPDATE_EVERY`]-th an update batch, reads 3:1 static:live over
    /// the query rotation.
    fn plan(&mut self, ops: usize) -> Vec<Op> {
        (0..ops)
            .map(|i| {
                if i % UPDATE_EVERY == UPDATE_EVERY - 1 {
                    Op::Update(self.model.next_batch(&mut self.rng))
                } else {
                    let read = i - i / UPDATE_EVERY;
                    let graph = if read % 4 == 3 { LIVE } else { STATIC };
                    Op::Read { graph, kind: (read / 4) % 4 }
                }
            })
            .collect()
    }

    /// Applies one update batch through the gateway (tracked by the
    /// model) and returns whether it applied cleanly.
    pub fn update_now(&mut self, tracer: &Tracer) -> bool {
        let batch = self.model.next_batch(&mut self.rng);
        let request = tracer.next_id();
        tracer.span(
            "gateway.update",
            request,
            0,
            |_| matches!(self.gateway.update(LIVE, &batch), Ok(r) if r.rejected.is_empty()),
        )
    }

    /// A dispatch-wave-sized batch: every query kind on both graphs,
    /// three static reads per live one.
    pub fn wave(&self) -> Vec<QueryRequest> {
        (0..16)
            .map(|read| {
                let graph = if read % 4 == 3 { LIVE } else { STATIC };
                QueryRequest::new(graph, query_kinds()[(read / 4) % 4].clone())
            })
            .collect()
    }

    /// Serves [`ServeCtx::wave`] through the gateway's own batch path
    /// (coalescing, pinned live reads); returns how many static answers
    /// differed from the reference or failed.
    pub fn serve_wave(&self) -> u64 {
        let wave = self.wave();
        let opts = BatchOptions { coalesce: true, live: LiveReadMode::Pinned };
        let results = self.service.serve_with(&wave, &opts);
        wave.iter()
            .zip(results)
            .filter(|(request, result)| match result {
                Ok(r) if request.graph == STATIC => !self.is_reference(&request.query, r),
                Ok(_) => false,
                Err(_) => true,
            })
            .count() as u64
    }

    fn is_reference(&self, query: &Query, response: &QueryResponse) -> bool {
        let kind = query_kinds().iter().position(|q| q == query).expect("a rotation query");
        response.value == self.reference[kind].value
    }

    /// After the traffic: the live graph's maintained total and
    /// per-vertex counts must equal a from-scratch count of the model's
    /// final edge set. Returns (checks made, checks failed).
    pub fn check_live(&self) -> (u64, u64) {
        let g = self.model.graph();
        let total = baseline::forward(&g);
        let per_vertex = baseline::local_triangles(&g);
        let mut failed = 0;
        match self.service.query(LIVE, &Query::TotalTriangles) {
            Ok(r) if r.value.total() == Some(total) => {}
            _ => failed += 1,
        }
        match self.service.query(LIVE, &Query::PerVertexTriangles) {
            Ok(r) if r.value.per_vertex() == Some(per_vertex.as_slice()) => {}
            _ => failed += 1,
        }
        (2, failed)
    }

    pub fn shutdown(&self) {
        self.gateway.shutdown();
    }

    /// Runs one open-loop step: `rate` operations per second for
    /// `duration`, every operation timed from when it was due.
    pub fn run_step(&mut self, rate: u64, duration: Duration, tracer: &Tracer) -> Step {
        let ops = self.plan((rate as f64 * duration.as_secs_f64()).round() as usize);
        let interval = Duration::from_secs_f64(1.0 / rate as f64);
        let due_of = |i: usize| interval * i as u32;
        let reads: Vec<(Duration, &'static str, usize)> = ops
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match op {
                Op::Read { graph, kind } => Some((due_of(i), *graph, *kind)),
                Op::Update(_) => None,
            })
            .collect();
        let updates: Vec<(Duration, &UpdateBatch)> = ops
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match op {
                Op::Update(batch) => Some((due_of(i), batch)),
                Op::Read { .. } => None,
            })
            .collect();
        let kinds = query_kinds();
        let gateway = &self.gateway;
        let mut step = Step::new(rate);
        let (tx, rx) = mpsc::channel::<Submitted>();
        let overloaded = AtomicBool::new(false);
        let start = Instant::now();

        std::thread::scope(|scope| {
            // Load thread 1: reads, submitted at their due times.
            scope.spawn(|| {
                for &(due, graph, kind) in &reads {
                    let due = start + due;
                    sleep_until(due);
                    if gateway.queue_depth() >= ABORT_DEPTH {
                        overloaded.store(true, Ordering::Relaxed);
                    }
                    if overloaded.load(Ordering::Relaxed) {
                        break;
                    }
                    let request = tracer.next_id();
                    let root = tracer.next_id();
                    let sent = Instant::now();
                    let ticket = gateway
                        .submit(TENANT, QueryRequest::new(graph, kinds[kind].clone()))
                        .ok();
                    let submitted = Instant::now();
                    tracer.record(
                        tracer.next_id(),
                        "gateway.submit",
                        request,
                        root,
                        sent,
                        submitted,
                    );
                    let msg =
                        Submitted { due, sent, submitted, graph, kind, ticket, request, root };
                    if tx.send(msg).is_err() {
                        return;
                    }
                }
                drop(tx);
            });
            // Load thread 2: update batches, applied at their due times.
            let update_results = scope.spawn(|| {
                updates
                    .iter()
                    .map_while(|&(due, batch)| {
                        let due = start + due;
                        sleep_until(due - SPIN);
                        while Instant::now() < due {
                            std::hint::spin_loop();
                        }
                        if overloaded.load(Ordering::Relaxed) {
                            return None;
                        }
                        let request = tracer.next_id();
                        let root = tracer.next_id();
                        let sent = Instant::now();
                        let ok = matches!(gateway.update(LIVE, batch), Ok(r) if r.rejected.is_empty());
                        let done = Instant::now();
                        tracer.record(tracer.next_id(), "gateway.update", request, root, sent, done);
                        tracer.record(root, "update", request, 0, due, done);
                        Some((ms(done - due), ok))
                    })
                    .collect::<Vec<_>>()
            });
            self.collect(&rx, &mut step, start, duration, &reads, tracer);
            for (latency, ok) in update_results.join().expect("the update thread completes") {
                step.updates += 1;
                step.update_ms.push(if ok { latency } else { f64::INFINITY });
                step.update_failures += u64::from(!ok);
            }
        });
        step.aborted = overloaded.into_inner();
        step
    }

    /// The collector: observes every ticket's completion (to within
    /// [`POLL_INTERVAL`]), checks each answer, and samples the backlog
    /// at the middle and the end of the step.
    fn collect(
        &self,
        rx: &mpsc::Receiver<Submitted>,
        step: &mut Step,
        start: Instant,
        duration: Duration,
        reads: &[(Duration, &'static str, usize)],
        tracer: &Tracer,
    ) {
        let mut pending: VecDeque<Submitted> = VecDeque::new();
        let mut open = true;
        let mut resolved = 0usize;
        let mut batches: HashMap<u64, u64> = HashMap::new();
        let mut epochs: HashMap<u64, u64> = HashMap::new();
        let mut samples = [(duration / 2, None), (duration, None)];
        loop {
            loop {
                match rx.try_recv() {
                    Ok(s) => {
                        step.reads += 1;
                        step.lag_ms.push(ms(s.sent.saturating_duration_since(s.due)));
                        step.submit_us.push((s.submitted - s.sent).as_secs_f64() * 1e6);
                        if s.ticket.is_some() {
                            pending.push_back(s);
                        } else {
                            tracer.record(s.root, "request", s.request, 0, s.due, s.submitted);
                            step.shed += 1;
                            step.latency_ms.push(f64::INFINITY);
                            resolved += 1;
                        }
                    }
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        open = false;
                        break;
                    }
                }
            }
            let now = Instant::now();
            for (at, sample) in &mut samples {
                if sample.is_none() && now >= start + *at {
                    let due = reads.partition_point(|r| start + r.0 <= now);
                    *sample = Some((due.saturating_sub(resolved), self.gateway.queue_depth()));
                }
            }
            if pending.is_empty() {
                if !open {
                    break;
                }
                std::thread::sleep(POLL_INTERVAL);
                continue;
            }
            let front = pending.front().and_then(|s| s.ticket.as_ref()).expect("queued");
            let mut done = Vec::new();
            if let Some(outcome) = front.wait_timeout(POLL_INTERVAL) {
                done.push((
                    pending.pop_front().expect("front exists"),
                    outcome,
                    Instant::now(),
                ));
            }
            let mut kept = VecDeque::new();
            for s in pending.drain(..POLL_WINDOW.min(pending.len())) {
                match s.ticket.as_ref().and_then(Ticket::try_take) {
                    Some(outcome) => done.push((s, outcome, Instant::now())),
                    None => kept.push_back(s),
                }
            }
            while let Some(s) = kept.pop_back() {
                pending.push_front(s);
            }
            for (s, outcome, at) in done {
                resolved += 1;
                step.last_completion = step.last_completion.max(at - start);
                tracer.record(s.root, "request", s.request, 0, s.due, at);
                let latency = ms(at - s.due);
                let correct = match outcome {
                    Ok(response) => {
                        step.wall_ms.push(ms(response.wall));
                        step.outside_wall_ms.push(latency - ms(response.wall));
                        match &response.batch {
                            Some(b) => {
                                batches.insert(b.batch_id, b.executions);
                            }
                            None => step.unbatched += 1,
                        }
                        Some(if s.graph == STATIC {
                            self.is_reference(&query_kinds()[s.kind], &response)
                        } else {
                            // Pinned live reads of one epoch must agree.
                            let epoch = response.epoch.unwrap_or(u64::MAX);
                            *epochs.entry(epoch).or_insert(response.triangles)
                                == response.triangles
                        })
                    }
                    Err(_) => None,
                };
                match correct {
                    Some(true) => {
                        step.answered += 1;
                        step.latency_ms.push(latency);
                    }
                    Some(false) => step.wrong += 1,
                    None => step.errors += 1,
                }
                if correct != Some(true) {
                    step.latency_ms.push(f64::INFINITY);
                }
            }
        }
        step.executions = batches.values().sum::<u64>() + step.unbatched;
        step.backlog_mid = samples[0].1.unwrap_or((0, 0));
        step.backlog_end = samples[1].1.unwrap_or((0, 0));
    }
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

enum Op {
    Read { graph: &'static str, kind: usize },
    Update(UpdateBatch),
}

struct Submitted {
    due: Instant,
    sent: Instant,
    submitted: Instant,
    graph: &'static str,
    kind: usize,
    ticket: Option<Ticket>,
    request: u64,
    root: u64,
}

/// Everything measured in one rate step.
#[derive(Debug, Default)]
pub struct Step {
    pub rate: u64,
    /// Reads and updates actually offered.
    pub reads: usize,
    pub updates: usize,
    /// The step stopped offering load early because its queue passed
    /// [`ABORT_DEPTH`].
    pub aborted: bool,
    pub answered: u64,
    pub shed: u64,
    pub errors: u64,
    pub wrong: u64,
    pub update_failures: u64,
    /// Per read, from due time to observed completion; failures are
    /// infinite (they miss every latency limit).
    pub latency_ms: Vec<f64>,
    pub update_ms: Vec<f64>,
    pub lag_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub wall_ms: Vec<f64>,
    pub outside_wall_ms: Vec<f64>,
    pub unbatched: u64,
    pub executions: u64,
    /// (due-but-unanswered reads, gateway queue depth) at mid-step.
    pub backlog_mid: (usize, usize),
    /// The same at the end of the step's window.
    pub backlog_end: (usize, usize),
    pub last_completion: Duration,
}

impl Step {
    fn new(rate: u64) -> Self {
        Step { rate, ..Step::default() }
    }

    pub fn failed(&self) -> u64 {
        self.shed + self.errors + self.wrong + self.update_failures
    }

    pub fn attempted(&self) -> u64 {
        (self.reads + self.updates) as u64
    }

    /// The backlog grew when, over the step's second half, more than
    /// one dispatch wave of due reads piled up, ending above what the
    /// offered rate brings in within one SLO window.
    pub fn backlog_grew(&self, max_wave: usize, slo_ms: f64) -> bool {
        let window = self.rate as f64 * slo_ms / 1e3;
        self.backlog_end.0 > self.backlog_mid.0 + max_wave
            && self.backlog_end.0 as f64 > window
    }

    /// Whether this step met the SLO: p99 within it and no backlog growth.
    pub fn within_slo(&self, max_wave: usize, slo_ms: f64) -> bool {
        !self.aborted && self.p99_ms() <= slo_ms && !self.backlog_grew(max_wave, slo_ms)
    }

    pub fn p99_ms(&self) -> f64 {
        quantile(&self.latency_ms, 0.99)
    }

    pub fn to_json(&self, slo_ms: f64, max_wave: usize) -> Json {
        object([
            ("offered_ops_per_s", num_u64(self.rate)),
            ("reads", num_u64(self.reads as u64)),
            ("aborted", Json::Bool(self.aborted)),
            ("updates", num_u64(self.updates as u64)),
            ("answered", num_u64(self.answered)),
            ("shed", num_u64(self.shed)),
            ("errors", num_u64(self.errors)),
            ("wrong", num_u64(self.wrong)),
            ("update_failures", num_u64(self.update_failures)),
            ("latency_p50_ms", crate::num(quantile(&self.latency_ms, 0.5))),
            ("latency_p90_ms", crate::num(quantile(&self.latency_ms, 0.9))),
            ("latency_p99_ms", crate::num(self.p99_ms())),
            ("update_p10_ms", crate::num(quantile(&self.update_ms, 0.1))),
            ("update_p50_ms", crate::num(median(&self.update_ms))),
            ("update_p90_ms", crate::num(quantile(&self.update_ms, 0.9))),
            ("wall_p50_ms", crate::num(median(&self.wall_ms))),
            ("outside_wall_p50_ms", crate::num(median(&self.outside_wall_ms))),
            ("generator_lag_p50_ms", crate::num(median(&self.lag_ms))),
            ("generator_lag_max_ms", crate::num(quantile(&self.lag_ms, 1.0))),
            ("backlog_mid", num_u64(self.backlog_mid.0 as u64)),
            ("backlog_end", num_u64(self.backlog_end.0 as u64)),
            ("queue_depth_end", num_u64(self.backlog_end.1 as u64)),
            ("backlog_grew", Json::Bool(self.backlog_grew(max_wave, slo_ms))),
            ("within_slo", Json::Bool(self.within_slo(max_wave, slo_ms))),
            ("executions", num_u64(self.executions)),
            ("last_completion_s", crate::num(self.last_completion.as_secs_f64())),
        ])
    }
}
