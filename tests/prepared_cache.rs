//! Acceptance proof for the prepared-graph cache: a second execution on
//! a cached `PreparedGraph` performs **no re-slicing** — the builds a
//! `BuildScope` entered by the test counts and the slice statistics are
//! unchanged. The scope counts only this test's builds (and those of
//! the workers it fans out to), so tests running on parallel threads
//! cannot disturb the pin.

use std::sync::Arc;

use tcim_repro::bitmatrix::BuildScope;
use tcim_repro::graph::generators::gnm;
use tcim_repro::tcim::{Backend, TcimConfig, TcimPipeline};

#[test]
fn cached_prepared_graph_is_never_resliced() {
    let pipeline = TcimPipeline::new(&TcimConfig::default()).unwrap();
    let g = gnm(300, 2200, 19).unwrap();
    let builds = BuildScope::new();
    let _counting = builds.enter();

    // First preparation slices exactly once.
    let builds_before_prepare = builds.builds();
    let prepared = pipeline.prepare(&g);
    assert_eq!(builds.builds(), builds_before_prepare + 1);
    let stats = prepared.slice_stats();
    let pricing = prepared.pricing();

    // Execute the full backend suite twice over the cached artifact:
    // no backend, planner or popcount path may slice anything.
    let builds_after_prepare = builds.builds();
    let mut counts = Vec::new();
    for round in 0..2 {
        let again = pipeline.prepare(&g);
        assert!(
            Arc::ptr_eq(&prepared, &again),
            "round {round}: prepare must return the cached artifact"
        );
        for spec in Backend::default_suite() {
            counts.push(pipeline.execute(&again, &spec).unwrap().triangles);
        }
    }
    assert_eq!(builds.builds(), builds_after_prepare, "execution must not re-slice");

    // Work counters of the artifact are untouched…
    assert_eq!(prepared.slice_stats(), stats);
    assert_eq!(prepared.pricing(), pricing);
    // …and every execution agreed.
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");

    // Cache accounting: one miss (the initial build), hits ever after.
    assert_eq!(pipeline.cache().misses(), 1);
    assert_eq!(pipeline.cache().hits(), 2);
}
