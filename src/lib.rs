//! Umbrella crate for the TCIM reproduction workspace.
//!
//! This crate exists to host the repository-level runnable examples
//! (`examples/`) and cross-crate integration tests (`tests/`). All real
//! functionality lives in the member crates, re-exported here so examples
//! can use one import root:
//!
//! * [`tcim_bitmatrix`] — bit-vectors and the sliced compression of §IV-B.
//! * [`tcim_graph`] — graph storage, parsers, generators, dataset catalog.
//! * [`tcim_mtj`] — MTJ device physics (Brinkman + LLG, Table I).
//! * [`tcim_nvsim`] — NVSim-style array latency/energy/area model.
//! * [`tcim_arch`] — the processing-in-MRAM architecture simulator.
//! * [`tcim_sched`] — the multi-array scheduler and parallel execution
//!   runtime (placement policies, critical-path aggregation, batching).
//! * [`tcim_shard`] — sharded large-graph execution: degree-aware
//!   vertex-range partitioning, cross-shard boundary slices, the
//!   composition pass.
//! * [`tcim_core`] — the public TCIM accelerator API, the typed
//!   [`Query`](tcim_core::Query) layer and baselines.
//! * [`tcim_stream`] — the dynamic-graph subsystem: incremental triangle
//!   maintenance (total + per-vertex) under edge streams with per-update
//!   PIM delta kernels.
//! * [`tcim_service`] — the serving facade: a named multi-graph registry
//!   answering concurrent typed queries with provenance.
//! * [`tcim_gateway`] — the serving front-end: bounded tenant-fair
//!   admission, query micro-batching, snapshot-isolated live reads.
//! * [`tcim_telemetry`] — the observability substrate: tracing spans,
//!   the bounded ring recorder, the metrics registry and the
//!   Prometheus-style exporter.
//!
//! The umbrella also provides [`TcimError`], the workspace-level error
//! every member crate's error converts into, so `?` composes across
//! crate boundaries in examples and integration tests.

use std::error::Error;
use std::fmt;

pub use tcim_arch as arch;
pub use tcim_bitmatrix as bitmatrix;
pub use tcim_core as tcim;
pub use tcim_gateway as gateway;
pub use tcim_graph as graph;
pub use tcim_mtj as mtj;
pub use tcim_nvsim as nvsim;
pub use tcim_sched as sched;
pub use tcim_service as service;
pub use tcim_shard as shard;
pub use tcim_stream as stream;
pub use tcim_telemetry as telemetry;

/// Convenience alias for results in examples and integration tests.
pub type Result<T> = std::result::Result<T, TcimError>;

/// The workspace-level error: every member crate's error type converts
/// into it, so one `?` works across any sequence of cross-crate calls
/// (`fn main() -> tcim_repro::Result<()>` in the examples).
#[derive(Debug)]
#[non_exhaustive]
pub enum TcimError {
    /// From `tcim-graph` (construction, generation, parsing).
    Graph(tcim_graph::GraphError),
    /// From `tcim-bitmatrix` (bit-vector and sliced-matrix operations).
    BitMatrix(tcim_bitmatrix::BitMatrixError),
    /// From `tcim-mtj` (device physics).
    Mtj(tcim_mtj::MtjError),
    /// From `tcim-nvsim` (array characterization).
    Nvsim(tcim_nvsim::NvsimError),
    /// From `tcim-arch` (simulator configuration/characterization).
    Arch(tcim_arch::ArchError),
    /// From `tcim-sched` (scheduling policies and planning).
    Sched(tcim_sched::SchedError),
    /// From `tcim-shard` (partition planning and composition).
    Shard(tcim_shard::ShardError),
    /// From `tcim-core` (pipeline, backends, queries).
    Core(tcim_core::CoreError),
    /// From `tcim-stream` (dynamic-graph updates and folding).
    Stream(tcim_stream::StreamError),
    /// From `tcim-service` (registry and serving).
    Service(tcim_service::ServiceError),
    /// From `tcim-gateway` (admission control and dispatch).
    Gateway(tcim_gateway::GatewayError),
}

impl fmt::Display for TcimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TcimError::Graph(e) => write!(f, "graph: {e}"),
            TcimError::BitMatrix(e) => write!(f, "bitmatrix: {e}"),
            TcimError::Mtj(e) => write!(f, "mtj: {e}"),
            TcimError::Nvsim(e) => write!(f, "nvsim: {e}"),
            TcimError::Arch(e) => write!(f, "arch: {e}"),
            TcimError::Sched(e) => write!(f, "sched: {e}"),
            TcimError::Shard(e) => write!(f, "shard: {e}"),
            TcimError::Core(e) => write!(f, "core: {e}"),
            TcimError::Stream(e) => write!(f, "stream: {e}"),
            TcimError::Service(e) => write!(f, "service: {e}"),
            TcimError::Gateway(e) => write!(f, "gateway: {e}"),
        }
    }
}

impl Error for TcimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TcimError::Graph(e) => Some(e),
            TcimError::BitMatrix(e) => Some(e),
            TcimError::Mtj(e) => Some(e),
            TcimError::Nvsim(e) => Some(e),
            TcimError::Arch(e) => Some(e),
            TcimError::Sched(e) => Some(e),
            TcimError::Shard(e) => Some(e),
            TcimError::Core(e) => Some(e),
            TcimError::Stream(e) => Some(e),
            TcimError::Service(e) => Some(e),
            TcimError::Gateway(e) => Some(e),
        }
    }
}

macro_rules! from_member {
    ($variant:ident, $err:ty) => {
        impl From<$err> for TcimError {
            fn from(e: $err) -> Self {
                TcimError::$variant(e)
            }
        }
    };
}

from_member!(Graph, tcim_graph::GraphError);
from_member!(BitMatrix, tcim_bitmatrix::BitMatrixError);
from_member!(Mtj, tcim_mtj::MtjError);
from_member!(Nvsim, tcim_nvsim::NvsimError);
from_member!(Arch, tcim_arch::ArchError);
from_member!(Sched, tcim_sched::SchedError);
from_member!(Shard, tcim_shard::ShardError);
from_member!(Core, tcim_core::CoreError);
from_member!(Stream, tcim_stream::StreamError);
from_member!(Service, tcim_service::ServiceError);
from_member!(Gateway, tcim_gateway::GatewayError);

#[cfg(test)]
mod tests {
    use super::*;

    /// `?` composes across crate boundaries through `TcimError`.
    #[test]
    fn question_mark_composes_across_crates() {
        fn cross_crate() -> Result<u64> {
            let g = tcim_graph::generators::gnm(50, 200, 1)?; // GraphError
            let mut b =
                tcim_bitmatrix::SlicedMatrixBuilder::new(4, tcim_bitmatrix::SliceSize::S64);
            b.add_edge(0, 1)?; // BitMatrixError
            let pipeline = tcim_core::TcimPipeline::new(&tcim_core::TcimConfig::default())?; // CoreError
            let report =
                pipeline.execute(&pipeline.prepare(&g), &tcim_core::Backend::CpuMerge)?;
            let mut dynamic =
                tcim_stream::DynamicGraph::new(&g, tcim_stream::StreamConfig::default())?; // StreamError
            dynamic.apply(tcim_stream::Update::Insert(0, 49)).ok();
            let service =
                tcim_service::TcimService::new(&tcim_service::ServiceConfig::default())?; // ServiceError
            service.register("g", &g)?;
            Ok(report.triangles)
        }
        let triangles = cross_crate().unwrap();
        assert_eq!(
            triangles,
            tcim_core::baseline::edge_iterator_merge(
                &tcim_graph::generators::gnm(50, 200, 1).unwrap()
            )
        );
    }

    #[test]
    fn every_member_error_converts_and_sources() {
        let e: TcimError =
            tcim_graph::GraphError::InvalidParameter { reason: "x".into() }.into();
        assert!(e.to_string().starts_with("graph:"));
        assert!(e.source().is_some());
        let e: TcimError =
            tcim_service::ServiceError::UnknownGraph { name: "g".into() }.into();
        assert!(e.to_string().starts_with("service:"));
        let e: TcimError = tcim_sched::SchedError::InvalidPolicy { reason: "y".into() }.into();
        assert!(matches!(e, TcimError::Sched(_)));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TcimError>();
    }
}
