//! Per-operation cost of each layer, timed by driving the layer's public
//! API with an op stream shaped like the workload: the queue depth,
//! conflict rate, window batch, recall fan-out, hit rate and message mix
//! the traced run reported.
//!
//! Every driver times a few batches of operations and returns the median
//! nanoseconds per operation, so one slow batch (a host hiccup) does not
//! move the figure.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Duration;

use siteselect_locks::{
    CallbackTracker, ForwardEntry, LockTable, QueueDiscipline, WaitForGraph, WindowManager,
};
use siteselect_net::{Fabric, MessageKind};
use siteselect_obs::{Event, EventSink};
use siteselect_sim::{EventQueue, Prng};
use siteselect_storage::{ClientCache, LogRecord, Wal};
use siteselect_types::{
    ClientId, ExperimentConfig, LockMode, ObjectId, SimDuration, SimTime, SiteId, TransactionId,
};

use crate::host::{self, median};

/// Batches per driver; the median batch is reported.
const BATCHES: usize = 5;
/// Operations per batch: enough for tens of milliseconds per batch on
/// every driver, small enough that all drivers together take seconds.
const OPS: u64 = 200_000;

/// Times `BATCHES` calls of `batch` (each returns its own measured
/// duration and operation count) and returns the median ns per operation.
fn ns_per_op(mut batch: impl FnMut() -> (Duration, u64)) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (d, ops) = batch();
            d.as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

fn txn(client: u16, seq: u64) -> TransactionId {
    TransactionId::new(ClientId(client), seq)
}

/// What the drivers are fed, taken from a workload's traced run.
#[derive(Debug, Clone)]
pub struct OpStream {
    /// A representative cell configuration of the workload.
    pub cfg: ExperimentConfig,
    /// Pending events the queue holds: every arrival of a cell is queued
    /// up front, so this is the transactions per cell.
    pub queue_depth: usize,
    /// Share of lock requests that block behind a holder.
    pub conflict: f64,
    /// Lock requests per transaction.
    pub locks_per_txn: f64,
    /// Forward hops per collection window.
    pub window_batch: f64,
    /// Holders messaged per callback recall.
    pub recall_fanout: f64,
    /// Cache (or, for CE, server buffer) slots in memory and on disk.
    pub cache_slots: (usize, usize),
    /// Cache hit share in `[0, 1]`.
    pub hit: f64,
    /// WAL update records per commit record.
    pub writes_per_commit: f64,
    /// Message counts by kind, in `MessageKind::ALL` order.
    pub message_mix: Vec<u64>,
}

/// ns per hold operation (pop the next event, push one 5 ms ahead) on an
/// `EventQueue` holding `depth` future arrivals spread over the run.
#[must_use]
pub fn queue_ns(ops: &OpStream) -> f64 {
    let horizon = ops.cfg.runtime.duration.as_micros().max(1);
    let mut rng = Prng::seed_from_u64(1);
    ns_per_op(|| {
        let mut q = EventQueue::with_capacity(ops.queue_depth + 128);
        for i in 0..ops.queue_depth {
            q.push(SimTime::from_micros(rng.below(horizon)), i);
        }
        for i in 0..128 {
            q.push(SimTime::from_micros(rng.below(5_000)), i);
        }
        let t0 = host::now();
        for _ in 0..OPS {
            let (at, ev) = q.pop().expect("the hold model keeps the queue full");
            q.push(
                at + rng.exp_duration(SimDuration::from_millis(5)),
                black_box(ev),
            );
        }
        (t0.elapsed(), OPS)
    })
}

/// ns per lock request on a `LockTable` where every client holds one
/// object exclusively, a `conflict` share of requests hits such an object,
/// and each transaction requests `locks_per_txn` locks and ends with
/// `release_all`, as the engines' commit and abort paths do. The release
/// is part of each request's cost.
#[must_use]
pub fn lock_table_ns(ops: &OpStream) -> f64 {
    let clients = ops.cfg.clients.max(1);
    let objects = ops.cfg.database.num_objects.max(u32::from(clients) + 1);
    let per_txn = ops.locks_per_txn.round().max(1.0) as u64;
    let far = SimTime::from_secs(1_000_000);
    let update = ops.cfg.workload.update_fraction;
    let mut rng = Prng::seed_from_u64(2);
    let mut seq = 1;
    ns_per_op(|| {
        let mut table: LockTable<TransactionId> = LockTable::new(QueueDiscipline::Deadline);
        table.reserve_objects(objects as usize);
        for c in 0..clients {
            let _ = table.request(ObjectId(u32::from(c)), txn(c, 0), LockMode::Exclusive, far);
        }
        let free = u64::from(objects - u32::from(clients));
        let mut requests = 0;
        let t0 = host::now();
        while requests < OPS {
            let owner = txn(rng.below(u64::from(clients)) as u16, seq);
            seq += 1;
            for _ in 0..per_txn {
                let o = if rng.bernoulli(ops.conflict) {
                    ObjectId(rng.below(u64::from(clients)) as u32)
                } else {
                    ObjectId(u32::from(clients) + rng.below(free) as u32)
                };
                let mode = LockMode::for_write(rng.bernoulli(update));
                black_box(table.request(o, owner, mode, far));
            }
            black_box(table.release_all(owner));
            requests += per_txn;
        }
        (t0.elapsed(), requests)
    })
}

/// ns per deadlock check on a `WaitForGraph` over one transaction per
/// client, a `conflict` share of which wait on another.
#[must_use]
pub fn wfg_ns(ops: &OpStream) -> f64 {
    let n = u64::from(ops.cfg.clients.max(2));
    let mut rng = Prng::seed_from_u64(3);
    let mut g: WaitForGraph<TransactionId> = WaitForGraph::new();
    for i in 0..n - 1 {
        if rng.bernoulli(ops.conflict) {
            // Edges only point to higher ids, so the graph stays acyclic
            // and every check walks the waiting chain to its end.
            let holder = rng.range_u64(i + 1, n);
            g.add_waits(txn(i as u16, 0), [txn(holder as u16, 0)]);
        }
    }
    ns_per_op(|| {
        let t0 = host::now();
        for _ in 0..OPS {
            let w = txn(rng.below(n) as u16, 0);
            let h = txn(rng.below(n) as u16, 0);
            black_box(g.would_deadlock(w, &[h]));
        }
        (t0.elapsed(), OPS)
    })
}

/// ns per offer to a `WindowManager` whose windows each collect
/// `1 + window_batch` requests before closing.
#[must_use]
pub fn window_ns(ops: &OpStream) -> f64 {
    let len = ops.cfg.load_sharing.collection_window;
    let per_window = 1 + ops.window_batch.round() as u64;
    let clients = u64::from(ops.cfg.clients.max(1));
    let mut rng = Prng::seed_from_u64(4);
    ns_per_op(|| {
        let mut wm = WindowManager::new(len);
        let mut now = SimTime::ZERO;
        let mut offers = 0;
        let t0 = host::now();
        while offers < OPS {
            let object = ObjectId(rng.below(10_000) as u32);
            for k in 0..per_window {
                let entry = ForwardEntry {
                    client: ClientId(rng.below(clients) as u16),
                    txn: txn(0, offers + k + 1),
                    deadline: now + SimDuration::from_secs(5),
                    mode: LockMode::Exclusive,
                };
                black_box(wm.offer(object, entry, now));
            }
            offers += per_window;
            now += len;
            black_box(wm.close_at(object, now));
        }
        (t0.elapsed(), offers)
    })
}

/// ns per callback recall (begin plus every holder's acknowledgement) on a
/// `CallbackTracker`, each recall messaging `recall_fanout` holders.
#[must_use]
pub fn callback_ns(ops: &OpStream) -> f64 {
    let clients = ops.cfg.clients.max(1);
    let fanout = (ops.recall_fanout.round() as u16).clamp(1, clients);
    let mut rng = Prng::seed_from_u64(5);
    ns_per_op(|| {
        let mut cb = CallbackTracker::new();
        let t0 = host::now();
        for i in 0..OPS {
            let object = ObjectId((i % 10_000) as u32);
            let first = rng.below(u64::from(clients)) as u16;
            let holders = (0..fanout).map(|k| ClientId((first + k) % clients));
            let fresh = cb.begin_at(
                object,
                holders,
                LockMode::Exclusive,
                SimTime::from_micros(i),
            );
            for c in fresh {
                black_box(cb.acknowledge(object, c));
            }
        }
        (t0.elapsed(), OPS)
    })
}

/// ns per probe (plus the insert a miss triggers) on a `ClientCache` of
/// the workload's size, hitting at the workload's rate.
#[must_use]
pub fn cache_ns(ops: &OpStream) -> f64 {
    let (memory, disk) = ops.cache_slots;
    let universe = ops.cfg.database.num_objects.max(1);
    // Re-used ids come from the most recent half of the resident set, so
    // they are still cached when probed again.
    let recent_cap = ((memory + disk) / 2).max(1);
    let mut rng = Prng::seed_from_u64(6);
    ns_per_op(|| {
        let mut cache = ClientCache::new(memory, disk);
        cache.reserve_ids(universe as usize);
        let mut recent: VecDeque<ObjectId> = VecDeque::with_capacity(recent_cap);
        let mut fresh = 0u32;
        let t0 = host::now();
        for _ in 0..OPS {
            let id = if !recent.is_empty() && rng.bernoulli(ops.hit) {
                recent[rng.below_usize(recent.len())]
            } else {
                fresh = (fresh + 1) % universe;
                ObjectId(fresh)
            };
            if black_box(cache.probe(id)).is_none() {
                cache.insert(id);
                if recent.len() == recent_cap {
                    recent.pop_front();
                }
                recent.push_back(id);
            }
        }
        (t0.elapsed(), OPS)
    })
}

/// ns per WAL append, with a commit record (and a flush) after every
/// `writes_per_commit` updates.
#[must_use]
pub fn wal_ns(ops: &OpStream) -> f64 {
    let per_commit = ops.writes_per_commit.round().max(1.0) as u64;
    ns_per_op(|| {
        let mut wal = Wal::new();
        let t0 = host::now();
        for i in 0..OPS {
            let t = i / (per_commit + 1);
            if i % (per_commit + 1) == per_commit {
                black_box(wal.append(&LogRecord::Commit { txn: t }));
                wal.flush();
            } else {
                let rec = LogRecord::Update {
                    txn: t,
                    page: ObjectId((i % 10_000) as u32),
                    offset: 0,
                    before: i,
                    after: i + 1,
                };
                black_box(wal.append(&rec));
            }
        }
        (t0.elapsed(), OPS)
    })
}

/// ns per `Fabric::send`, kinds drawn in the workload's message mix.
#[must_use]
pub fn fabric_ns(ops: &OpStream) -> f64 {
    let mut mix: Vec<(MessageKind, u64)> = MessageKind::ALL
        .iter()
        .zip(&ops.message_mix)
        .filter(|(_, &n)| n > 0)
        .map(|(&k, &n)| (k, n))
        .collect();
    if mix.is_empty() {
        mix = vec![
            (MessageKind::ObjectRequest, 1),
            (MessageKind::ObjectSend, 1),
        ];
    }
    let total: u64 = mix.iter().map(|&(_, n)| n).sum();
    let clients = u64::from(ops.cfg.clients.max(1));
    let mut rng = Prng::seed_from_u64(7);
    ns_per_op(|| {
        let mut fabric = Fabric::new(ops.cfg.network, ops.cfg.database.object_size_bytes);
        let mut now = SimTime::ZERO;
        let t0 = host::now();
        for _ in 0..OPS {
            let mut pick = rng.below(total);
            let kind = mix
                .iter()
                .find(|&&(_, n)| {
                    let hit = pick < n;
                    pick = pick.saturating_sub(n);
                    hit
                })
                .map_or(MessageKind::ObjectRequest, |&(k, _)| k);
            let client = SiteId::Client(ClientId(rng.below(clients) as u16));
            let (from, to) = if rng.bernoulli(0.5) {
                (client, SiteId::Server)
            } else {
                (SiteId::Server, client)
            };
            let objects = u32::from(kind.carries_objects());
            black_box(fabric.send(now, from, to, kind, objects));
            now += SimDuration::from_micros(200);
        }
        (t0.elapsed(), OPS)
    })
}

/// ns per `EventSink::emit` of a lock-held record, on an enabled sink
/// (retaining every record) or a disabled one.
#[must_use]
pub fn emit_ns(enabled: bool) -> f64 {
    ns_per_op(|| {
        let sink = if enabled {
            EventSink::enabled(OPS as usize)
        } else {
            EventSink::disabled()
        };
        let t0 = host::now();
        for i in 0..OPS {
            sink.emit(SimTime::from_micros(i), SiteId::Server, || {
                Event::LockHeld {
                    txn: txn(0, i + 1),
                    object: ObjectId((i % 10_000) as u32),
                    exclusive: true,
                }
            });
        }
        let elapsed = t0.elapsed();
        black_box(sink.finish());
        (elapsed, OPS)
    })
}
