//! # sickle-store — out-of-core shard store + batch-serving data plane
//!
//! Curated datasets from the sampling pipeline are big enough that the
//! training hosts cannot (and should not) hold them in memory. This crate
//! turns a [`SamplingOutput`](sickle_core::pipeline::SamplingOutput) into
//! a persistent, content-addressed **shard store** and serves it to many
//! trainers at once:
//!
//! - [`store`] / [`manifest`] / [`shard_bytes`] / [`cache`] /
//!   [`prefetch`] — the storage layer: per-`(snapshot, cube)` shards back
//!   to back in one pack file behind a `manifest.json` that records each
//!   shard's range and XXH64 content hash (store manifest version 3). A
//!   store maps its pack once; each shard is verified once per cache
//!   residency and read back through a byte-budgeted LRU cache warmed by a
//!   lookahead prefetcher.
//! - [`protocol`] / [`server`] — the serving layer: a length-prefixed
//!   binary protocol over plain `std::net` TCP, readiness-driven
//!   request-granular worker scheduling (`epoll` through raw externs)
//!   with explicit `Busy` overload shedding, and fault-plan
//!   hooks (`drop@conn:request`, `kill@conn:request`) for resilience
//!   testing. The `sickle-serve` binary wraps it.
//! - [`client`] / [`batching`] — the consumption layer: a
//!   reconnect-and-retry [`StoreClient`] (seeded jitter [`backoff`]) and
//!   the deterministic batch assembly that makes streamed batches
//!   **bit-identical** to what an in-memory trainer would build from the
//!   same sets and seed.

pub mod backoff;
pub mod batching;
pub mod cache;
pub mod client;
pub mod manifest;
pub mod prefetch;
pub mod protocol;
mod readiness;
pub mod server;
pub mod shard_bytes;
pub mod stats;
pub mod store;
pub mod testutil;

pub use backoff::Backoff;
pub use batching::{Batch, BatchShape, BatchSpec};
pub use cache::{BlockCache, DecodedShard};
pub use client::{ClientConfig, StoreClient};
pub use manifest::{ShardEntry, ShardKey, StoreManifest};
pub use prefetch::Prefetcher;
pub use protocol::{Request, Response, WireErrorKind};
pub use server::{serve, ServeConfig, ServerHandle};
pub use sickle_codec::Codec;
/// The type of [`ServeConfig::fault_plan`].
pub use sickle_hpc::FaultPlan;
pub use stats::{CodecStats, ConnRegistry, ConnStats, StatsSnapshot};
pub use store::{set_key, ShardStore, StoreConfig};
