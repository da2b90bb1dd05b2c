//! Property-based tests over the core data structures and invariants.
//!
//! Randomized inputs come from the workspace's own deterministic [`Prng`]
//! (seeded per case), so failures reproduce exactly without an external
//! property-testing framework.

use siteselect::locks::{Acquire, ForwardEntry, ForwardList, LockTable, QueueDiscipline, WaitForGraph};
use siteselect::sim::{EventQueue, OnlineStats, Prng};
use siteselect::storage::ClientCache;
use siteselect::types::{ClientId, LockMode, ObjectId, SimTime, TransactionId};

const CASES: u64 = 256;

// ---------------------------------------------------------------------
// Lock table: no conflicting holders, ever, under arbitrary op sequences.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum LockOp {
    Request { obj: u8, owner: u8, exclusive: bool, deadline: u16 },
    Release { obj: u8, owner: u8 },
    Downgrade { obj: u8, owner: u8 },
    Cancel { obj: u8, owner: u8 },
    ReleaseAll { owner: u8 },
    Expire { now: u16 },
}

fn lock_op(rng: &mut Prng) -> LockOp {
    let obj = rng.below(6) as u8;
    let owner = rng.below(5) as u8;
    match rng.below(6) {
        0 => LockOp::Request {
            obj,
            owner,
            exclusive: rng.bernoulli(0.5),
            deadline: rng.below(100) as u16,
        },
        1 => LockOp::Release { obj, owner },
        2 => LockOp::Downgrade { obj, owner },
        3 => LockOp::Cancel { obj, owner },
        4 => LockOp::ReleaseAll { owner },
        _ => LockOp::Expire {
            now: rng.below(100) as u16,
        },
    }
}

#[test]
fn lock_table_never_grants_conflicting_holders() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0xA11C_0000 + case);
        let discipline = if rng.bernoulli(0.5) {
            QueueDiscipline::Deadline
        } else {
            QueueDiscipline::Fifo
        };
        let mut table: LockTable<ClientId> = LockTable::new(discipline);
        let ops = 1 + rng.below_usize(79);
        for _ in 0..ops {
            match lock_op(&mut rng) {
                LockOp::Request { obj, owner, exclusive, deadline } => {
                    let mode = LockMode::for_write(exclusive);
                    let _ = table.request(
                        ObjectId(obj.into()),
                        ClientId(owner.into()),
                        mode,
                        SimTime::from_secs(deadline.into()),
                    );
                }
                LockOp::Release { obj, owner } => {
                    let _ = table.release(ObjectId(obj.into()), ClientId(owner.into()));
                }
                LockOp::Downgrade { obj, owner } => {
                    let _ = table.downgrade(ObjectId(obj.into()), ClientId(owner.into()));
                }
                LockOp::Cancel { obj, owner } => {
                    let _ = table.cancel_wait(ObjectId(obj.into()), ClientId(owner.into()));
                }
                LockOp::ReleaseAll { owner } => {
                    let _ = table.release_all(ClientId(owner.into()));
                }
                LockOp::Expire { now } => {
                    let _ = table.cancel_expired(SimTime::from_secs(now.into()));
                }
            }
            table.check_invariants().expect("lock table invariant violated");
        }
    }
}

#[test]
fn blocked_requests_are_eventually_granted_on_release() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0xB10C_0000 + case);
        let mut table: LockTable<ClientId> = LockTable::new(QueueDiscipline::Fifo);
        let obj = ObjectId(1);
        let n = 2 + rng.below_usize(4);
        let mut distinct: Vec<u8> = (0..n).map(|_| rng.below(5) as u8).collect();
        distinct.sort_unstable();
        distinct.dedup();
        // All owners request EL; the first wins.
        for (i, &w) in distinct.iter().enumerate() {
            let r = table.request(obj, ClientId(w.into()), LockMode::Exclusive, SimTime::MAX);
            if i == 0 {
                assert!(r.is_granted());
            } else {
                assert!(matches!(r, Acquire::Blocked { .. }));
            }
        }
        // Releasing in turn grants everyone exactly once, in order.
        let mut granted_order = vec![distinct[0]];
        for _ in 1..distinct.len() {
            let current = *granted_order.last().unwrap();
            let grants = table.release(obj, ClientId(current.into()));
            assert_eq!(grants.len(), 1);
            granted_order.push(grants[0].owner.0 as u8);
        }
        assert_eq!(granted_order, distinct);
    }
}

// ------------------------------------------------------------------
// Wait-for graph: the gate keeps the graph acyclic.
// ------------------------------------------------------------------

#[test]
fn wfg_gate_prevents_cycles() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0x3F6_0000 + case);
        let mut g: WaitForGraph<u8> = WaitForGraph::new();
        let edges = 1 + rng.below_usize(59);
        for _ in 0..edges {
            let a = rng.below(8) as u8;
            let b = rng.below(8) as u8;
            if a != b && !g.would_deadlock(a, [b]) {
                g.add_waits(a, [b]);
            }
            assert!(!g.has_cycle());
        }
    }
}

// ------------------------------------------------------------------
// Client cache: capacity and tier behaviour.
// ------------------------------------------------------------------

#[test]
fn client_cache_never_exceeds_capacity() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0xCAC4_E000 + case);
        let mem = 1 + rng.below_usize(7);
        let disk = rng.below_usize(8);
        let mut cache = ClientCache::new(mem, disk);
        let ops = 1 + rng.below_usize(199);
        for _ in 0..ops {
            let obj = rng.below(40) as u32;
            if rng.bernoulli(0.5) {
                cache.insert(ObjectId(obj));
            } else {
                let _ = cache.probe(ObjectId(obj));
            }
            assert!(cache.len() <= mem + disk);
        }
        // Every id the iterator yields is reported present.
        let ids: Vec<ObjectId> = cache.iter().collect();
        for id in ids {
            assert!(cache.contains(id));
        }
    }
}

#[test]
fn client_cache_insert_makes_present_until_evicted() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0x1A5E_0000 + case);
        let mut cache = ClientCache::new(4, 4);
        let n = 1 + rng.below_usize(49);
        for _ in 0..n {
            let o = rng.below(20) as u32;
            cache.insert(ObjectId(o));
            // The most recently inserted object is always present.
            assert!(cache.contains(ObjectId(o)));
        }
    }
}

// ------------------------------------------------------------------
// Forward lists: ordering and liveness filtering.
// ------------------------------------------------------------------

#[test]
fn forward_list_serves_in_deadline_order_and_skips_expired() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0xF0D0_0000 + case);
        let mut list = ForwardList::new(ObjectId(1));
        let n = 1 + rng.below_usize(19);
        for _ in 0..n {
            let client = rng.below(10) as u16;
            let deadline = rng.range_u64(1, 100);
            let write = rng.bernoulli(0.5);
            list.push(ForwardEntry {
                client: ClientId(client),
                txn: TransactionId::new(ClientId(client), deadline),
                deadline: SimTime::from_secs(deadline),
                mode: LockMode::for_write(write),
            });
        }
        // Entries are deadline-sorted.
        let ds: Vec<_> = list.entries().iter().map(|e| e.deadline).collect();
        assert!(ds.windows(2).all(|w| w[0] <= w[1]));
        // Draining never yields an expired entry and consumes everything.
        let now_t = SimTime::from_secs(rng.below(100));
        let mut served = 0usize;
        let mut skipped = 0usize;
        loop {
            let (next, dead) = list.pop_next_live(now_t);
            skipped += dead.len();
            match next {
                Some(e) => {
                    assert!(e.deadline >= now_t);
                    served += 1;
                }
                None => break,
            }
        }
        assert_eq!(served + skipped, n);
    }
}

// ------------------------------------------------------------------
// Event queue: global ordering with FIFO ties.
// ------------------------------------------------------------------

#[test]
fn event_queue_is_stable_priority_order() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0xE0_0000 + case);
        let mut q = EventQueue::new();
        let n = 1 + rng.below_usize(99);
        for i in 0..n {
            q.push(SimTime::from_secs(rng.below(50)), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                assert!(t >= lt);
                if t == lt {
                    assert!(i > li, "FIFO tie-break violated");
                }
            }
            last = Some((t, i));
        }
    }
}

// ------------------------------------------------------------------
// Statistics: Welford matches the naive two-pass computation.
// ------------------------------------------------------------------

#[test]
fn online_stats_match_naive() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0x57A7_0000 + case);
        let n = 2 + rng.below_usize(98);
        let values: Vec<f64> = (0..n).map(|_| (rng.next_f64() - 0.5) * 2e6).collect();
        let mut s = OnlineStats::new();
        for &v in &values {
            s.push(v);
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!((s.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
        assert!((s.variance() - var).abs() < 1e-5 * var.abs().max(1.0));
    }
}

// ------------------------------------------------------------------
// Network fabric: timing, medium booking and fault-layer invariants.
// ------------------------------------------------------------------

use siteselect::net::{Delivery, Fabric, MessageKind};
use siteselect::types::{FaultConfig, LanKind, NetworkConfig, SimDuration, SiteId};

fn random_site(rng: &mut Prng) -> SiteId {
    match rng.below(6) {
        0 => SiteId::Server,
        1 => SiteId::Directory,
        n => SiteId::Client(ClientId((n - 2) as u16)),
    }
}

fn random_kind(rng: &mut Prng) -> MessageKind {
    *rng.choose(&[
        MessageKind::TxnSubmit,
        MessageKind::ObjectRequest,
        MessageKind::ObjectSend,
        MessageKind::Recall,
        MessageKind::ObjectReturn,
        MessageKind::ObjectForward,
    ])
}

#[test]
fn fabric_never_delivers_before_latency_plus_now() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0xFAB_0000 + case);
        let cfg = NetworkConfig {
            kind: if rng.bernoulli(0.5) {
                LanKind::SharedEthernet
            } else {
                LanKind::Switched
            },
            latency: SimDuration::from_micros(rng.below(5_000)),
            ..NetworkConfig::default()
        };
        let latency = cfg.latency;
        let mut fabric = Fabric::new(cfg, 2048);
        let mut now = SimTime::ZERO;
        for _ in 0..1 + rng.below_usize(39) {
            now = now.saturating_add(SimDuration::from_micros(rng.below(10_000)));
            let from = random_site(&mut rng);
            let to = random_site(&mut rng);
            let objects = rng.below(3) as u32;
            let delivered = fabric.send(now, from, to, random_kind(&mut rng), objects);
            assert!(
                delivered >= now.saturating_add(latency),
                "delivered {delivered:?} before now {now:?} + latency {latency:?}"
            );
        }
    }
}

#[test]
fn fabric_shared_medium_busy_time_is_monotone() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0xFAB2_0000 + case);
        let mut fabric = Fabric::new(NetworkConfig::default(), 2048);
        let mut now = SimTime::ZERO;
        let mut last_busy = fabric.busy_until();
        for _ in 0..1 + rng.below_usize(59) {
            now = now.saturating_add(SimDuration::from_micros(rng.below(20_000)));
            let from = random_site(&mut rng);
            let to = random_site(&mut rng);
            fabric.send(now, from, to, random_kind(&mut rng), rng.below(3) as u32);
            let busy = fabric.busy_until();
            assert!(
                busy >= last_busy,
                "shared busy time went backwards: {busy:?} < {last_busy:?}"
            );
            last_busy = busy;
        }
    }
}

#[test]
fn fabric_with_zero_loss_probability_never_drops() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0xFAB3_0000 + case);
        let mut fabric = Fabric::new(NetworkConfig::default(), 2048);
        // Jitter without loss: deliveries may shift but never vanish.
        let faults = FaultConfig {
            loss_probability: 0.0,
            max_delay_jitter: SimDuration::from_micros(rng.below(2_000)),
            ..FaultConfig::default()
        };
        fabric.enable_faults(faults, Prng::seed_from_u64(0xFA_B1 ^ case));
        let mut now = SimTime::ZERO;
        for _ in 0..1 + rng.below_usize(59) {
            now = now.saturating_add(SimDuration::from_micros(rng.below(10_000)));
            let from = random_site(&mut rng);
            let to = random_site(&mut rng);
            let sent = fabric.try_send(now, from, to, random_kind(&mut rng), rng.below(3) as u32);
            match sent {
                Delivery::Delivered(t) => assert!(t >= now),
                Delivery::Dropped => panic!("dropped a frame at loss probability 0"),
            }
        }
        assert_eq!(fabric.dropped_messages(), 0);
    }
}

// ------------------------------------------------------------------
// PRNG: bounds hold for arbitrary seeds and ranges.
// ------------------------------------------------------------------

#[test]
fn prng_below_respects_bound() {
    for case in 0..CASES {
        let mut meta = Prng::seed_from_u64(0x5EED_0000 + case);
        let seed = meta.next_u64();
        let bound = meta.range_u64(1, 1_000_000);
        let mut rng = Prng::seed_from_u64(seed);
        for _ in 0..50 {
            assert!(rng.below(bound) < bound);
        }
    }
}

// ------------------------------------------------------------------
// Observability histogram: bucket geometry, merge algebra, quantiles.
// ------------------------------------------------------------------

fn random_value(rng: &mut Prng) -> u64 {
    // Span the full bucket range: uniform within a random power-of-two
    // magnitude, so small and huge values are equally likely.
    let magnitude = rng.below(64);
    rng.below(1u64 << magnitude.max(1))
}

#[test]
fn histogram_buckets_contain_their_values() {
    use siteselect::obs::LogHistogram;
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0x4157_0000 + case);
        for _ in 0..64 {
            let v = random_value(&mut rng);
            let i = LogHistogram::bucket_index(v);
            // The value lands at or above its bucket's lower bound and
            // strictly below the next bucket's.
            assert!(LogHistogram::bucket_lower_bound(i) <= v, "lower bound above {v}");
            if i + 1 < siteselect::obs::hist::BUCKETS {
                assert!(
                    v < LogHistogram::bucket_lower_bound(i + 1),
                    "{v} not below next bucket's bound"
                );
            }
        }
    }
}

#[test]
fn histogram_bucket_bounds_are_monotone_and_consistent() {
    use siteselect::obs::hist::BUCKETS;
    use siteselect::obs::LogHistogram;
    for i in 0..BUCKETS {
        let lo = LogHistogram::bucket_lower_bound(i);
        // Round-trip: a bucket's lower bound indexes back to the bucket.
        assert_eq!(LogHistogram::bucket_index(lo), i, "round-trip failed at {i}");
        if i + 1 < BUCKETS {
            assert!(lo < LogHistogram::bucket_lower_bound(i + 1), "bounds not increasing at {i}");
        }
    }
}

#[test]
fn histogram_merge_is_associative_and_matches_bulk_record() {
    use siteselect::obs::LogHistogram;
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0x4157_1000 + case);
        let parts: Vec<Vec<u64>> = (0..3)
            .map(|_| (0..rng.below_usize(40)).map(|_| random_value(&mut rng)).collect())
            .collect();
        let hist_of = |values: &[u64]| {
            let mut h = LogHistogram::new();
            for &v in values {
                h.record(v);
            }
            h
        };
        let [a, b, c] = [hist_of(&parts[0]), hist_of(&parts[1]), hist_of(&parts[2])];
        // (a + b) + c == a + (b + c)
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "merge not associative");
        // Both equal recording every value into one histogram.
        let all: Vec<u64> = parts.concat();
        assert_eq!(left, hist_of(&all), "merge differs from bulk record");
    }
}

#[test]
fn histogram_quantiles_are_monotone_and_bounded() {
    use siteselect::obs::LogHistogram;
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0x4157_2000 + case);
        let mut h = LogHistogram::new();
        for _ in 0..1 + rng.below_usize(99) {
            h.record(random_value(&mut rng));
        }
        let mut prev = 0u64;
        for step in 0..=20 {
            let q = f64::from(step) / 20.0;
            let v = h.quantile(q);
            assert!(v >= prev, "quantile not monotone at q={q}");
            assert!(h.min() <= v && v <= h.max(), "quantile outside [min, max] at q={q}");
            prev = v;
        }
        // quantile(1.0) is the max up to bucket quantization: same bucket.
        assert_eq!(
            LogHistogram::bucket_index(h.quantile(1.0)),
            LogHistogram::bucket_index(h.max())
        );
    }
}

// ------------------------------------------------------------------
// Dense object-indexed containers vs the HashMap/HashSet oracle.
// ------------------------------------------------------------------

use siteselect::types::InlineVec;
use siteselect::types::{HashMap, HashSet};
use siteselect::types::{ObjectMap, ObjectSet};

/// Ids biased toward the interesting spots: the empty low end, a single
/// slot, and both sides of each growth boundary the slot vector crosses.
fn dense_id(rng: &mut Prng) -> ObjectId {
    const EDGES: [u32; 9] = [0, 1, 2, 7, 8, 63, 64, 65, 300];
    if rng.bernoulli(0.7) {
        ObjectId(EDGES[rng.below_usize(EDGES.len())])
    } else {
        ObjectId(rng.below(512) as u32)
    }
}

fn check_map_matches(m: &ObjectMap<u64>, model: &HashMap<u32, u64>) {
    assert_eq!(m.len(), model.len());
    assert_eq!(m.is_empty(), model.is_empty());
    #[expect(clippy::disallowed_methods, reason = "collected, then sorted on the next line")]
    let mut expect: Vec<(u32, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    expect.sort_unstable();
    let got: Vec<(u32, u64)> = m.iter().map(|(id, &v)| (id.0, v)).collect();
    assert_eq!(got, expect, "iteration differs from sorted model");
    let keys: Vec<u32> = m.keys().map(|k| k.0).collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys not ascending");
    for &(k, v) in &expect {
        assert_eq!(m.get(ObjectId(k)), Some(&v));
        assert!(m.contains(ObjectId(k)));
    }
    // Probes past every growth boundary stay safe and absent.
    assert_eq!(m.get(ObjectId(100_000)), None);
    assert!(!m.contains(ObjectId(100_000)));
}

#[test]
fn object_map_matches_hashmap_oracle() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0xDE45_E000 + case);
        let mut m: ObjectMap<u64> = if rng.bernoulli(0.5) {
            ObjectMap::new()
        } else {
            ObjectMap::with_capacity(rng.below_usize(65))
        };
        let mut model: HashMap<u32, u64> = HashMap::default();
        for step in 0..1 + rng.below(99) {
            let id = dense_id(&mut rng);
            match rng.below(6) {
                0 | 1 => {
                    assert_eq!(m.insert(id, step), model.insert(id.0, step));
                }
                2 => {
                    assert_eq!(m.remove(id), model.remove(&id.0));
                }
                3 => {
                    *m.get_or_default(id) += 1;
                    *model.entry(id.0).or_default() += 1;
                }
                4 => {
                    if let Some(v) = m.get_mut(id) {
                        *v = step;
                    }
                    if let Some(v) = model.get_mut(&id.0) {
                        *v = step;
                    }
                }
                _ => {
                    let bit = rng.bernoulli(0.5);
                    m.retain(|id, v| (id.0 as u64 + *v).is_multiple_of(2) == bit);
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "the predicate is per-element, visit order is irrelevant"
                    )]
                    model.retain(|&k, v| (u64::from(k) + *v).is_multiple_of(2) == bit);
                }
            }
            check_map_matches(&m, &model);
        }
        m.clear();
        model.clear();
        check_map_matches(&m, &model);
        // A cleared map keeps working.
        let id = dense_id(&mut rng);
        assert_eq!(m.insert(id, 7), model.insert(id.0, 7));
        check_map_matches(&m, &model);
    }
}

#[test]
fn object_set_matches_hashset_oracle() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0xDE45_5E70 + case);
        let mut s = ObjectSet::new();
        let mut model: HashSet<u32> = HashSet::default();
        for _ in 0..1 + rng.below(99) {
            let id = dense_id(&mut rng);
            match rng.below(4) {
                0 | 1 => assert_eq!(s.insert(id), model.insert(id.0)),
                2 => assert_eq!(s.remove(id), model.remove(&id.0)),
                _ => {
                    s.clear();
                    model.clear();
                }
            }
            assert_eq!(s.len(), model.len());
            assert_eq!(s.is_empty(), model.is_empty());
            #[expect(
                clippy::disallowed_methods,
                reason = "collected, then sorted on the next line"
            )]
            let mut expect: Vec<u32> = model.iter().copied().collect();
            expect.sort_unstable();
            let got: Vec<u32> = s.iter().map(|id| id.0).collect();
            assert_eq!(got, expect, "membership differs from sorted model");
            assert!(!s.contains(ObjectId(100_000)));
        }
    }
}

// ------------------------------------------------------------------
// InlineVec<_, 2>: spill/unspill round-trips across the inline boundary.
// ------------------------------------------------------------------

#[test]
fn inline_vec_spill_unspill_round_trips() {
    for case in 0..CASES {
        let mut rng = Prng::seed_from_u64(0xD011_1E00 + case);
        let mut iv: InlineVec<u64, 2> = InlineVec::new();
        let mut want: Vec<u64> = Vec::new();
        for step in 0..1 + rng.below(149) {
            // Bias the walk so the length repeatedly crosses the N = 2
            // spill boundary in both directions instead of drifting off.
            let grow = if want.len() <= 1 {
                true
            } else if want.len() >= 5 {
                false
            } else {
                rng.bernoulli(0.5)
            };
            if grow {
                let pos = rng.below_usize(want.len() + 1);
                if pos == want.len() && rng.bernoulli(0.5) {
                    iv.push(step);
                    want.push(step);
                } else {
                    iv.insert(pos, step);
                    want.insert(pos, step);
                }
            } else if rng.bernoulli(0.8) {
                let pos = rng.below_usize(want.len());
                if rng.bernoulli(0.5) {
                    assert_eq!(iv.remove(pos), want.remove(pos));
                } else {
                    assert_eq!(iv.swap_remove(pos), want.swap_remove(pos));
                }
            } else {
                let keep = rng.below(3);
                iv.retain(|v| v % 3 != keep);
                want.retain(|v| v % 3 != keep);
            }
            assert_eq!(iv.len(), want.len());
            assert_eq!(iv.to_vec(), want);
            assert_eq!(iv.first(), want.first());
            assert_eq!(iv.iter().copied().collect::<Vec<_>>(), want);
            for (i, v) in want.iter().enumerate() {
                assert_eq!(iv.get(i), Some(v));
            }
            assert_eq!(iv.get(want.len()), None);
        }
        // Drain to empty (fully unspilled), then refill past the boundary:
        // the round trip must leave no stale inline or spill state behind.
        while !want.is_empty() {
            let pos = rng.below_usize(want.len());
            if rng.bernoulli(0.5) {
                assert_eq!(iv.remove(pos), want.remove(pos));
            } else {
                assert_eq!(iv.swap_remove(pos), want.swap_remove(pos));
            }
            assert_eq!(iv.to_vec(), want);
        }
        assert!(iv.is_empty());
        for v in 0..5 {
            iv.push(v);
            want.push(v);
        }
        assert_eq!(iv.to_vec(), want);
    }
}

// ------------------------------------------------------------------
// Event queue: the bucketed timer wheel matches a BinaryHeap oracle.
// ------------------------------------------------------------------

/// Reference model: a max-heap of `Reverse((time, seq))`, i.e. exactly the
/// pre-wheel implementation of [`EventQueue`].
#[derive(Default)]
struct HeapOracle {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
    next_seq: u64,
}

impl HeapOracle {
    fn push(&mut self, t: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(std::cmp::Reverse((t, seq)));
        seq
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        self.heap.pop().map(|std::cmp::Reverse(e)| e)
    }

    fn pop_before(&mut self, deadline: u64) -> Option<(u64, u64)> {
        match self.heap.peek() {
            Some(std::cmp::Reverse((t, _))) if *t <= deadline => self.pop(),
            _ => None,
        }
    }
}

/// A random fire time spanning every wheel level: mostly near-future
/// offsets, sometimes far-future jumps (level cascades) and occasionally
/// the extreme top of the range (rollover of the highest-level buckets).
fn wheel_time(rng: &mut Prng, now: u64) -> u64 {
    // All arms saturate: `now` itself can sit near u64::MAX after a
    // top-of-range pop.
    match rng.below(10) {
        0..=4 => now.saturating_add(rng.below(64)),        // level 0 window
        5 | 6 => now.saturating_add(rng.below(1 << 12)),   // level 1-2
        7 => now.saturating_add(rng.below(1 << 30)),       // mid levels
        8 => now.saturating_add(rng.below(1 << 62)),       // far future
        _ => u64::MAX - rng.below(1 << 8),                 // top-level wrap
    }
}

/// Full randomized coverage natively; a small but representative slice
/// under Miri, where each interpreted case costs ~10000x.
const QUEUE_CASES: u64 = if cfg!(miri) { 48 } else { 10_000 };

#[test]
fn event_queue_matches_heap_oracle() {
    // Randomized interleavings of push / pop / pop_before, asserting
    // identical (time, FIFO-sequence) pop order against the heap model.
    for case in 0..QUEUE_CASES {
        let mut rng = Prng::seed_from_u64(0x0EE1_0000 + case);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut oracle = HeapOracle::default();
        let mut now = 0u64;
        let ops = 1 + rng.below_usize(40);
        for _ in 0..ops {
            match rng.below(4) {
                0 | 1 => {
                    let t = wheel_time(&mut rng, now);
                    let seq = oracle.push(t);
                    q.push(SimTime::from_micros(t), seq);
                }
                2 => {
                    let want = oracle.pop();
                    let got = q.pop().map(|(t, seq)| (t.as_micros(), seq));
                    assert_eq!(got, want, "case {case}");
                    if let Some((t, _)) = got {
                        now = now.max(t);
                    }
                }
                _ => {
                    let deadline = wheel_time(&mut rng, now);
                    let want = oracle.pop_before(deadline);
                    let got = q
                        .pop_before(SimTime::from_micros(deadline))
                        .map(|(t, seq)| (t.as_micros(), seq));
                    assert_eq!(got, want, "case {case}");
                    if let Some((t, _)) = got {
                        now = now.max(t);
                    }
                }
            }
            assert_eq!(q.len(), oracle.heap.len(), "case {case}");
            assert_eq!(
                q.peek_time().map(SimTime::as_micros),
                oracle.heap.peek().map(|std::cmp::Reverse((t, _))| *t),
                "case {case}"
            );
        }
        // Drain both to the end: every queued event must come out in the
        // oracle's order.
        loop {
            let want = oracle.pop();
            let got = q.pop().map(|(t, seq)| (t.as_micros(), seq));
            assert_eq!(got, want, "case {case} drain");
            if got.is_none() {
                break;
            }
        }
        assert!(q.is_empty());
    }
}

#[test]
fn event_queue_equal_timestamps_stay_fifo_across_cascades() {
    // Bursts of equal-timestamp pushes issued from different wheel origins
    // (forcing different cascade paths into the shared bucket) must still
    // pop in global insertion order.
    for case in 0..(QUEUE_CASES / 50).max(8) {
        let mut rng = Prng::seed_from_u64(0xF1F0_0000 + case);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut seq = 0u64;
        let t_shared = 1 + rng.below(1 << 20);
        let mut expected = Vec::new();
        for _ in 0..3 {
            for _ in 0..rng.below(5) {
                q.push(SimTime::from_micros(t_shared), seq);
                expected.push(seq);
                seq += 1;
            }
            // Advance the cursor by draining an earlier filler event.
            let filler = rng.below(t_shared);
            q.push(SimTime::from_micros(filler), u64::MAX);
            while let Some((_, e)) = q.pop_before(SimTime::from_micros(filler)) {
                assert_eq!(e, u64::MAX, "case {case}: filler out of order");
            }
        }
        let drained: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(drained, expected, "case {case}");
    }
}
