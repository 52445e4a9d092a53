//! # vidur-scheduler
//!
//! Vidur's three-tier hierarchical scheduler (paper §4.5):
//!
//! 1. **Global scheduler** ([`global`], [`router`]) — routes arriving
//!    requests to replicas. [`router::RoutingTier`] is the live subsystem
//!    (seven policies over an incrementally-maintained replica view,
//!    deferred-queue bookkeeping, per-tenant routing stats);
//!    [`global::GlobalPolicy`] survives as the seed-faithful spec for the
//!    four original policies.
//! 2. **Replica scheduler** ([`replica`]) — forms batches each iteration and
//!    manages KV-cache memory through the paged [`memory::BlockManager`].
//!    Five batching policies are implemented, matching the paper's set:
//!    vLLM, Orca+, Sarathi-Serve (chunked prefills), FasterTransformer, and
//!    LightLLM.
//! 3. **Replica stage scheduler** ([`stage`]) — synchronous pipeline-parallel
//!    execution of a batch across stages with bubble accounting.
//!
//! The scheduler crate is pure bookkeeping: it decides *what* runs, while
//! runtime predictors decide *how long* it takes. The end-to-end simulator
//! (vidur-simulator) drives both from the event loop.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod global;
pub mod memory;
pub mod reference;
pub mod replica;
pub mod request;
pub mod router;
pub mod slab;
pub mod stage;

pub use config::{BatchPolicyKind, SchedulerConfig};
pub use global::{GlobalPolicy, GlobalPolicyKind};
pub use memory::BlockManager;
pub use reference::ReferenceScheduler;
pub use replica::ReplicaScheduler;
pub use request::{Request, RequestId, RequestPhase, TrackedRequest, NO_PREFIX};
pub use router::{
    DeferredEntry, ReplicaHealth, ReplicaLoad, RouteRequest, Router, RouterView, RoutingTier,
    TenantRouting,
};
pub use slab::{IdSlab, Slot, SlotSlab};
pub use stage::PipelineTracker;
