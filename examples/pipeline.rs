//! The staged pipeline: prepare a graph once, execute it on every
//! backend, and amortize preparation across repeated queries via the
//! prepared-graph cache.
//!
//! Run with:
//! ```text
//! cargo run --release --example pipeline
//! ```

use tcim_repro::graph::generators::barabasi_albert;
use tcim_repro::tcim::{Backend, TcimConfig, TcimPipeline};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = barabasi_albert(5_000, 8, 42)?;
    println!(
        "== Barabási–Albert graph: |V| = {}, |E| = {} ==",
        graph.vertex_count(),
        graph.edge_count()
    );

    // Stage 1: prepare once — orient, slice, measure, price.
    let pipeline = TcimPipeline::new(&TcimConfig::default())?;
    let prepared = pipeline.prepare(&graph);
    println!(
        "prepared in {:.3} ms: {:.3} MiB compressed, {} slice pairs priced at {:.3e} s busy",
        prepared.prepare_time().as_secs_f64() * 1e3,
        prepared.slice_stats().compressed_mib(),
        prepared.pricing().slice_pairs,
        prepared.pricing().est_busy_s,
    );

    // Stage 2: the same artifact runs on every backend.
    println!("\n== backend dispatch over one prepared artifact ==");
    for spec in Backend::default_suite() {
        let report = pipeline.execute(&prepared, &spec)?;
        println!("  {report}");
    }

    // Repeated queries hit the cache: nothing is re-oriented or
    // re-sliced.
    println!("\n== amortization across repeated queries ==");
    for _ in 0..4 {
        pipeline.execute(&pipeline.prepare(&graph), &Backend::SerialPim)?;
    }
    println!(
        "cache after 4 repeated counts: {} hit(s), {} miss(es)",
        pipeline.cache().hits(),
        pipeline.cache().misses()
    );
    Ok(())
}
