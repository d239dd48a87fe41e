//! `pbrs-gateway`: the cluster's streaming object front door.
//!
//! The chunk services (`pbrs-chunkd`) and the placement-aware store
//! (`pbrs-store`) give the repo durable, repairable erasure-coded
//! storage; this crate puts a network API in front of it. Clients speak a
//! small length-prefixed RPC vocabulary (`PUT` / `GET` / `DELETE` /
//! `STAT` / `METRICS`) over plain TCP, and the gateway streams objects
//! **stripe by stripe** in both directions: an object of any size crosses
//! the gateway holding only O(stripe) memory per request.
//!
//! The serving core is a hand-rolled readiness-based reactor
//! ([`server`]): one thread multiplexing non-blocking sockets with
//! `poll(2)` (via the [`poll`] shim — the workspace's only FFI), a small
//! worker pool doing the erasure coding and chunk I/O, and explicit
//! backpressure at three levels (admission `BUSY` shed, per-connection
//! stripe budgets, TCP pushback on writes). Degraded reads — the paper's
//! central cost — are first-class: every `GET` reports how many of its
//! stripes were rebuilt from survivors, and [`metrics`] aggregates the
//! degraded-read share.
//!
//! Module map:
//!
//! * [`protocol`] — the request/response vocabulary and the incremental
//!   [`protocol::FrameDecoder`]; the frame format is `pbrs-wire`'s.
//! * [`poll`] — the `poll(2)` FFI shim (the crate's only `unsafe`).
//! * [`server`] — the reactor, worker pool, and backpressure machinery.
//! * [`client`] — a small blocking client, with pipelining-capable raw
//!   frame access for tests and load generators.
//! * [`metrics`] — gateway-side counters, serialised by the `METRICS`
//!   RPC.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod client;
pub mod metrics;
pub mod poll;
pub mod protocol;
pub mod server;

pub use client::{GatewayClient, GatewayError, GetObject};
pub use metrics::{GatewayLatencySnapshot, GatewayMetrics, OpClass};
pub use protocol::{Request, Response};
pub use server::{Gateway, GatewayConfig};
