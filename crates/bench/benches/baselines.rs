//! Benchmarks of the CPU triangle-counting baselines (Table V's software
//! columns): framework-style hash intersect vs merge vs forward vs the
//! sliced software path. The sliced path runs over a prepared artifact
//! (oriented and sliced once, outside the timed loop), as the pipeline
//! serves it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tcim_bitmatrix::popcount::PopcountMethod;
use tcim_core::software::sliced_count;
use tcim_core::{baseline, TcimConfig, TcimPipeline};
use tcim_graph::generators::{barabasi_albert, road_grid};
use tcim_graph::CsrGraph;

fn workloads() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("social_ba_5k", barabasi_albert(5_000, 10, 1).unwrap()),
        ("road_50x50", road_grid(50, 50, 0.95, 0.03, 1).unwrap()),
    ]
}

fn bench_baselines(c: &mut Criterion) {
    let pipeline = TcimPipeline::new(&TcimConfig::default()).unwrap();
    for (name, g) in workloads() {
        let prepared = pipeline.prepare(&g);
        let mut group = c.benchmark_group(format!("baselines/{name}"));
        group.sample_size(20);
        group.bench_function(BenchmarkId::from_parameter("hash_intersect"), |b| {
            b.iter(|| baseline::hash_intersect(black_box(&g)))
        });
        group.bench_function(BenchmarkId::from_parameter("edge_iterator_merge"), |b| {
            b.iter(|| baseline::edge_iterator_merge(black_box(&g)))
        });
        group.bench_function(BenchmarkId::from_parameter("forward"), |b| {
            b.iter(|| baseline::forward(black_box(&g)))
        });
        group.bench_function(BenchmarkId::from_parameter("parallel_x4"), |b| {
            b.iter(|| baseline::parallel_edge_iterator(black_box(&g), 4))
        });
        group.bench_function(BenchmarkId::from_parameter("sliced_software"), |b| {
            b.iter(|| {
                sliced_count(black_box(prepared.matrix()), PopcountMethod::Native).triangles
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
