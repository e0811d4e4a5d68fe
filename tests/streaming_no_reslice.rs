//! Acceptance proof for the dynamic-graph subsystem: applying a batch
//! below the drift threshold performs **zero** new `SlicedMatrix`
//! builds (the per-update delta kernels run entirely on the in-place
//! patched rows), while exceeding the threshold triggers exactly one
//! rebuild that lands in the pipeline's `PreparedCache`.
//!
//! Builds are counted by a `BuildScope` the test enters, which follows
//! the work onto the workers it fans out to and ignores builds made by
//! tests running on parallel threads.

use std::sync::Arc;

use tcim_repro::bitmatrix::BuildScope;
use tcim_repro::graph::generators::gnm;
use tcim_repro::stream::{DriftPolicy, DynamicGraph, StreamConfig, Update, UpdateBatch};

#[test]
fn deltas_never_reslice_and_drift_triggers_exactly_one_rebuild() {
    let g = gnm(200, 1200, 31).unwrap();
    let builds = BuildScope::new();
    let _counting = builds.enter();
    let config = StreamConfig {
        drift: DriftPolicy {
            // 200 vertices: trip the fold once more than 25% of the
            // rows (50) were touched since the last fold.
            max_touched_fraction: Some(0.25),
            max_valid_slice_drift: None,
            max_updates: None,
        },
        verify_on_fold: true,
        ..StreamConfig::default()
    };

    // Construction prepares (slices) the epoch-0 artifact exactly once.
    let before_new = builds.builds();
    let mut dg = DynamicGraph::new(&g, config).unwrap();
    assert_eq!(builds.builds(), before_new + 1);
    assert_eq!(dg.pipeline().cache().len(), 1);

    // A small batch (touches ≤ 20 rows out of 200) stays below the
    // drift threshold: zero new SlicedMatrix builds, no fold.
    let mut small = UpdateBatch::new();
    for v in 0..10u32 {
        small.push(Update::Insert(2 * v, 2 * v + 1));
    }
    let before_small = builds.builds();
    let outcome = dg.apply_batch(&small).unwrap();
    assert!(outcome.applied() > 0, "the batch did real work");
    assert!(!outcome.folded, "below the drift threshold");
    assert_eq!(
        builds.builds(),
        before_small,
        "sub-threshold batches must not build any SlicedMatrix"
    );
    assert_eq!(dg.epoch(), 0);
    assert_eq!(dg.report().rebuilds, 0);

    // A wide batch (touches 120 distinct rows) exceeds the threshold:
    // exactly one rebuild, landing in the PreparedCache.
    let mut wide = UpdateBatch::new();
    for v in 20..80u32 {
        wide.push(Update::Insert(v, v + 100));
    }
    let before_wide = builds.builds();
    let misses_before = dg.pipeline().cache().misses();
    let outcome = dg.apply_batch(&wide).unwrap();
    assert!(outcome.folded, "above the drift threshold");
    assert_eq!(builds.builds(), before_wide + 1, "the fold rebuilds exactly one SlicedMatrix");
    assert_eq!(dg.epoch(), 1);
    assert_eq!(dg.report().rebuilds, 1);
    // …and the artifact landed in the cache: one miss (the build), and
    // re-preparing the same snapshot is a pure hit on the same Arc.
    assert_eq!(dg.pipeline().cache().misses(), misses_before + 1);
    assert_eq!(dg.pipeline().cache().len(), 2);
    let hits_before = dg.pipeline().cache().hits();
    let again = dg.pipeline().prepare(&dg.snapshot());
    assert!(Arc::ptr_eq(dg.prepared(), &again));
    assert_eq!(dg.pipeline().cache().hits(), hits_before + 1);
    assert_eq!(builds.builds(), before_wide + 1, "the hit resliced nothing");

    // The drift measure reset after the fold.
    assert_eq!(dg.drift().touched_rows, 0);
    assert_eq!(dg.drift().updates_since_fold, 0);
}
