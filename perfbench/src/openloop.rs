//! Open-loop `(ε, µ)` query load against a [`Server`].
//!
//! One generator thread submits each query when it is due, whatever the
//! state of earlier ones; the calling thread redeems the tickets in order.
//! A query's latency runs from when it was due, so a stall also charges
//! the queries that queued behind it.
//!
//! In-order redemption bias: `Ticket::wait` blocks and a ticket cannot be
//! polled, so with two load threads an answer is stamped when the redeemer
//! reaches it. The dispatcher answers each query of a batch of two or more
//! as soon as it finishes, so a query that finishes before an earlier one
//! of its batch is charged up to that earlier query's remaining time.
//! [`LoopOut::ready_on_reach`] counts the queries whose answer was already
//! waiting when the redeemer reached them: only those can carry the bias.
//! The server's own enqueue → answer histogram has no such bias.

use crate::stats::{Schedule, Tally};
use crate::trace::Tracer;
use ppscan_serve::{QueryResponse, Server, Ticket};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A `wait` shorter than this found its answer already delivered: a
/// blocked wait also pays a condvar wake-up, and no query is answered
/// this soon after the redeemer reaches it.
const READY_WAIT: Duration = Duration::from_micros(10);

/// What the redeemer learned about every query.
pub struct LoopOut {
    /// Due → answer delivered, per query, in milliseconds.
    pub latency_ms: Vec<f64>,
    /// Due → submitted (how late the generator ran), in milliseconds.
    pub lag_ms: Vec<f64>,
    /// Latencies of the traced queries (odd-numbered, in a traced run).
    pub traced_ms: Vec<f64>,
    /// Latencies of the untraced queries.
    pub untraced_ms: Vec<f64>,
    /// Queries whose answer was waiting before the redeemer reached them;
    /// their latency may include an earlier query's (see the module doc).
    pub ready_on_reach: usize,
    /// Answers checked.
    pub tally: Tally,
    /// First due time → last answer delivered, in seconds.
    pub wall_s: f64,
}

struct Pending {
    i: usize,
    due: Instant,
    sent: Instant,
    submitted: Instant,
    generation_before: u64,
    ticket: Ticket,
}

/// Offers `points` (indices into `grid`) at `rate` queries per second and
/// checks each answer with `check(i, generation_before_submit, response)`.
/// Spans of query `i` use op id `op_base + i`.
pub fn run(
    server: &Server,
    grid: &[(f64, usize)],
    points: &[usize],
    rate: f64,
    tracer: Option<&Tracer>,
    op_base: u64,
    check: &(dyn Fn(usize, u64, &QueryResponse) -> bool + Sync),
) -> LoopOut {
    let schedule = Schedule::new(rate);
    let (tx, rx) = mpsc::channel::<Pending>();
    let t0 = Instant::now();
    let mut out = LoopOut {
        latency_ms: Vec::with_capacity(points.len()),
        lag_ms: Vec::with_capacity(points.len()),
        traced_ms: Vec::new(),
        untraced_ms: Vec::new(),
        ready_on_reach: 0,
        tally: Tally::default(),
        wall_s: 0.0,
    };
    std::thread::scope(|s| {
        s.spawn(move || {
            for (i, &p) in points.iter().enumerate() {
                let due = t0 + schedule.due(i);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let (eps, mu) = grid[p];
                let generation_before = server.generation();
                let sent = Instant::now();
                let ticket = server.submit(eps, mu);
                let submitted = Instant::now();
                let pending = Pending {
                    i,
                    due,
                    sent,
                    submitted,
                    generation_before,
                    ticket,
                };
                if tx.send(pending).is_err() {
                    break;
                }
            }
        });
        for p in rx {
            let reached = Instant::now();
            let resp = p.ticket.wait();
            let done = Instant::now();
            if done - reached < READY_WAIT {
                out.ready_on_reach += 1;
            }
            let ms = (done - p.due).as_secs_f64() * 1e3;
            out.latency_ms.push(ms);
            out.lag_ms.push((p.sent - p.due).as_secs_f64() * 1e3);
            out.tally.record(check(p.i, p.generation_before, &resp));
            match tracer.filter(|_| p.i % 2 == 1) {
                Some(t) => {
                    let op = op_base + p.i as u64;
                    let root = t.new_id();
                    t.record(op, root, 0, "query", p.due, done);
                    t.record(op, t.new_id(), root, "bench.generator_lag", p.due, p.sent);
                    t.record(op, t.new_id(), root, "serve.submit", p.sent, p.submitted);
                    t.record(op, t.new_id(), root, "serve.ticket_wait", p.submitted, done);
                    out.traced_ms.push(ms);
                }
                None => out.untraced_ms.push(ms),
            }
        }
    });
    out.wall_s = t0.elapsed().as_secs_f64();
    out
}
