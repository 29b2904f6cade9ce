//! # ppscan-update
//!
//! Streaming edge updates, and the differential check that keeps them
//! honest. An update is [`GsIndex::apply_delta_with`]: a batch of edge
//! edits ([`GraphDelta`]) is spliced into a fresh CSR and the index is
//! repaired by localized recomputation. The clustering after it, for any
//! `(ε, µ)`, is [`GsIndex::query_with`] on the repaired index — the same
//! path `Server::update` and every served query take.
//!
//! The [`stress`] module checks `incremental(G, ΔE) ≡ from_scratch(G + ΔE)`
//! over the generator zoo × execution strategies × batch sizes: the
//! repaired index must equal a fresh build bit for bit, and its query
//! must equal a fresh query at every grid point, with ddmin shrinking of
//! failing deltas into a replayable corpus.
//!
//! [`GraphDelta`]: ppscan_graph::delta::GraphDelta
//! [`GsIndex::apply_delta_with`]: ppscan_gsindex::GsIndex::apply_delta_with
//! [`GsIndex::query_with`]: ppscan_gsindex::GsIndex::query_with

pub mod stress;
