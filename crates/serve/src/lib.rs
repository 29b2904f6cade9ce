//! `ppscan-serve`: a long-lived `(ε, µ)` structural-clustering service
//! over a shared GS*-Index.
//!
//! The paper's offline pipeline answers one parameterization per run;
//! the index crate (`ppscan-gsindex`) already amortizes the similarity
//! work across parameterizations. This crate adds the last layer: a
//! **server** that builds the index once and answers concurrent
//! `(ε, µ)` cluster/hub/outlier queries from many client threads, with
//! index refreshes that run alongside the queries.
//!
//! * [`server`] — [`server::Server`]: an in-process request queue, a
//!   dispatcher that runs each batch's queries in FIFO order against
//!   one index snapshot per batch, each query split across a
//!   `ppscan-sched` [`WorkerPool`](ppscan_sched::WorkerPool), per-query
//!   `ppscan-obs` spans, and a lock-free latency histogram
//!   (p50/p99/p999) for run reports. The index is published
//!   as an `Arc` behind a `Mutex`: the dispatcher clones it once per
//!   batch, and a rebuild or update swaps it.
//!
//! See DESIGN.md §11 for the publication scheme and the report fields
//! the serve benchmark emits.
//!
//! # Example
//!
//! ```
//! use ppscan_serve::{Server, ServeConfig};
//! use std::sync::Arc;
//!
//! let graph = Arc::new(ppscan_graph::gen::planted_partition(2, 12, 0.7, 0.05, 3));
//! let server = Server::start(Arc::clone(&graph), ServeConfig::default());
//! let response = server.query(0.5, 2);
//! assert_eq!(response.generation, 1);
//! assert!(response.result.unwrap().num_cores() > 0);
//! ```

#![warn(missing_docs)]

pub mod server;

pub use server::{QueryResponse, ServeConfig, Server, Ticket};
