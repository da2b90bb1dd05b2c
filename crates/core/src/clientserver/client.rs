//! Client-side behaviour: transaction admission (H1), acquisition of
//! objects and locks, local EDF execution, callback handling with
//! downgrade, forward-list hops, shipping and decomposition.

use siteselect_locks::{Acquire, ForwardList};
use siteselect_net::MessageKind;
use siteselect_storage::CacheTier;
use siteselect_types::{
    AbortReason, AccessSpec, ClientId, LockMode, ObjectId, SimTime, SiteId, TransactionId,
    TxnOutcome,
};

use super::{
    subtask_key, ClientServerSim, Ev, Fetch, InfoReason, Msg, Need, Revoke, RunKind, RunState,
    SiteDest, TKey, TxnRun, Want,
};

/// Fraction of a decomposed transaction's CPU demand spent synthesizing the
/// subtask answers at the origin (§3.2's "answer synthesis" phase).
const SYNTHESIS_FRACTION: f64 = 0.1;

impl ClientServerSim {
    // ------------------------------------------------------------------
    // Messaging helpers
    // ------------------------------------------------------------------

    pub(crate) fn send_to_server(
        &mut self,
        from: ClientId,
        kind: MessageKind,
        objects: u32,
        logical: u32,
        msg: Msg,
    ) {
        let delivery =
            self.fabric
                .try_send_counted(self.now, SiteId::Client(from), SiteId::Server, kind, objects, logical);
        self.push_delivery(delivery, SiteDest::Server, msg);
    }

    pub(crate) fn send_to_client(
        &mut self,
        from: SiteDest,
        to: ClientId,
        kind: MessageKind,
        objects: u32,
        msg: Msg,
    ) {
        let from_site = match from {
            SiteDest::Server => SiteId::Server,
            SiteDest::Client(c) => SiteId::Client(c),
        };
        let to_site = SiteId::Client(to);
        let client_to_client = matches!(from, SiteDest::Client(_));
        let delivery = if client_to_client && self.cfg.load_sharing.directory_enabled {
            self.fabric
                .try_send_via_directory(self.now, from_site, to_site, kind, objects)
        } else {
            self.fabric.try_send(self.now, from_site, to_site, kind, objects)
        };
        self.push_delivery(delivery, SiteDest::Client(to), msg);
    }

    // ------------------------------------------------------------------
    // Arrival, H1 and routing
    // ------------------------------------------------------------------

    #[expect(
        clippy::indexing_slicing,
        reason = "i indexes specs, the generated workload, which is fixed for the run"
    )]
    pub(crate) fn on_arrive(&mut self, i: usize) {
        let spec = self.specs[i].clone();
        let key = spec.id.as_u64();
        let ci = spec.origin.index();
        if !self.site_up(spec.origin) {
            // The originating workstation is crashed: the transaction is
            // lost with it (a dead site submits nothing).
            if self.measured_arrival(spec.arrival) {
                self.record_outcome_at(
                    SiteId::Client(spec.origin),
                    spec.id,
                    TxnOutcome::Aborted(AbortReason::SiteCrash),
                );
            }
            return;
        }
        self.inflight += 1;
        self.sink.emit(self.now, SiteId::Client(spec.origin), || {
            siteselect_obs::Event::TxnSubmit {
                txn: spec.id,
                deadline: spec.deadline,
                accesses: spec.accesses.len() as u32,
            }
        });
        let run = TxnRun {
            kind: RunKind::Normal,
            state: RunState::Acquiring,
            needed: Default::default(),
            acquire_started: self.now,
            exec_started: self.now,
            spec,
        };
        self.admit(ci, key, run);
    }

    /// Routes a fresh unit of work at client `ci` through the LS heuristics
    /// or straight into acquisition.
    #[expect(
        clippy::indexing_slicing,
        reason = "ci is a ClientId index issued at construction; clients and faults.up hold one entry per client and never shrink"
    )]
    pub(crate) fn admit(&mut self, ci: usize, key: TKey, run: TxnRun) {
        let spec_deadline = run.spec.deadline;
        if run.spec.is_expired(self.now) {
            // Dead on arrival (e.g. shipped transaction that travelled too
            // long).
            self.clients[ci].txns.insert(key, run);
            self.abort_txn(ci, key, AbortReason::Expired);
            return;
        }
        let is_plain = matches!(run.kind, RunKind::Normal);
        let ls_cfg = self.cfg.load_sharing;
        if self.ls && is_plain {
            let c = &self.clients[ci];
            let feasible = !ls_cfg.h1_enabled || {
                let n = c.queue_ahead() as f64;
                let projected = self.now + siteselect_types::SimDuration::from_secs_f64(n * c.atl());
                let ok = projected <= spec_deadline;
                let (txn, queue_ahead) = (run.spec.id, c.queue_ahead() as u64);
                let atl_us =
                    siteselect_types::SimDuration::from_secs_f64(c.atl()).as_micros();
                self.sink.emit(self.now, SiteId::Client(run.spec.origin), || {
                    let (projected, deadline) = (projected, spec_deadline);
                    if ok {
                        siteselect_obs::Event::H1Admit { txn, queue_ahead, atl_us, projected, deadline }
                    } else {
                        siteselect_obs::Event::H1Reject { txn, queue_ahead, atl_us, projected, deadline }
                    }
                });
                ok
            };
            let objects: Vec<ObjectId> = run.spec.objects().collect();
            if !feasible {
                if self.measured_arrival(run.spec.arrival) {
                    self.metrics.load_sharing.h1_rejections += 1;
                }
                let origin = run.spec.origin;
                let mut run = run;
                run.state = RunState::AwaitInfo {
                    reason: InfoReason::H1Infeasible,
                };
                self.clients[ci].txns.insert(key, run);
                self.send_to_server(
                    origin,
                    MessageKind::LoadQuery,
                    0,
                    1,
                    Msg::LoadQuery { txn: key, objects },
                );
                return;
            }
            if run.spec.decomposable && ls_cfg.decomposition_enabled && run.spec.accesses.len() > 1
            {
                let origin = run.spec.origin;
                let mut run = run;
                run.state = RunState::AwaitInfo {
                    reason: InfoReason::Decompose,
                };
                self.clients[ci].txns.insert(key, run);
                self.send_to_server(
                    origin,
                    MessageKind::LoadQuery,
                    0,
                    1,
                    Msg::LoadQuery { txn: key, objects },
                );
                return;
            }
        }
        self.clients[ci].txns.insert(key, run);
        self.begin_acquisition(ci, key, self.ls);
    }

    // ------------------------------------------------------------------
    // Acquisition
    // ------------------------------------------------------------------

    /// Classifies every access of `key` and sends one batched request for
    /// the objects the client cannot serve locally.
    #[expect(
        clippy::indexing_slicing,
        reason = "ci is a ClientId index issued at construction; clients and faults.up hold one entry per client and never shrink"
    )]
    pub(crate) fn begin_acquisition(&mut self, ci: usize, key: TKey, grant_all: bool) {
        let Some(run) = self.clients[ci].txns.get(&key) else {
            return;
        };
        let accesses: Vec<AccessSpec> = run.spec.accesses.clone();
        let measured = self.measured_arrival(run.spec.arrival);
        let deadline = run.spec.deadline;
        if let Some(run) = self.clients[ci].txns.get_mut(&key) {
            run.state = RunState::Acquiring;
            run.acquire_started = self.now;
        }
        let mut wants: Vec<Want> = Vec::new();
        for a in accesses {
            let mode = a.mode();
            // Table 2 accounting: a hit is data present in either tier.
            let tier = self.clients[ci].cache.probe(a.object);
            if measured {
                match tier {
                    Some(CacheTier::Memory) => self.metrics.cache.memory_hits += 1,
                    Some(CacheTier::Disk) => self.metrics.cache.disk_hits += 1,
                    None => self.metrics.cache.misses += 1,
                }
            }
            let c = &self.clients[ci];
            let covered = c
                .cached_locks
                .get(a.object)
                .is_some_and(|m| m.covers(mode));
            let usable = covered && tier.is_some() && !c.revokes.contains_key(&a.object);
            if usable {
                let promote = tier == Some(CacheTier::Disk);
                if self.request_local_lock(ci, key, a.object, mode, promote) {
                    return; // transaction aborted (local deadlock)
                }
            } else {
                let needs_data = tier.is_none() || c.revokes.contains_key(&a.object);
                if let Some(run) = self.clients[ci].txns.get_mut(&key) {
                    run.needed.insert(a.object, mode, Need::Fetch);
                }
                if let Some(w) = self.join_fetch(ci, key, a.object, mode, needs_data, deadline) {
                    wants.push(w);
                }
            }
        }
        if wants.is_empty() {
            self.check_ready(ci, key);
            return;
        }
        let client = self.clients[ci].id;
        let logical = wants.len() as u32;
        let use_grant_all = grant_all && self.ls;
        if use_grant_all {
            if let Some(run) = self.clients[ci].txns.get_mut(&key) {
                run.state = RunState::AwaitGrantAll;
            }
        }
        self.send_to_server(
            client,
            MessageKind::ObjectRequest,
            0,
            logical,
            Msg::RequestBatch {
                txn: key,
                client,
                wants,
                grant_all: use_grant_all,
            },
        );
    }

    /// Joins (or creates) the outstanding fetch of `object`; returns the
    /// `Want` to transmit if a new/stronger request must go to the server.
    #[expect(
        clippy::indexing_slicing,
        reason = "ci is a ClientId index issued at construction; clients and faults.up hold one entry per client and never shrink"
    )]
    fn join_fetch(
        &mut self,
        ci: usize,
        key: TKey,
        object: ObjectId,
        mode: LockMode,
        needs_data: bool,
        deadline: SimTime,
    ) -> Option<Want> {
        let c = &mut self.clients[ci];
        if let Some(f) = c.fetches.get_mut(&object) {
            if !f.waiters.contains(&key) {
                f.waiters.push(key);
            }
            if f.mode.covers(mode) {
                return None;
            }
            if !f.sent {
                // Still staged: strengthen in place.
                f.mode = LockMode::Exclusive;
                return None;
            }
            // Already on the wire in a weaker mode; the upgrade is issued
            // when the weak grant resolves (see resolve_fetch).
            return None;
        }
        c.fetches.insert(
            object,
            Fetch {
                mode,
                sent_at: self.now,
                waiters: vec![key],
                sent: true,
                attempts: 0,
            },
        );
        // Failure handling: guard the fresh request with a retry timer in
        // case it (or its grant) is lost.
        if self.faults.active && self.cfg.faults.max_retries > 0 {
            self.queue.push(
                self.now + self.cfg.faults.retry_backoff_base,
                Ev::RetryFetch {
                    client: ci,
                    object,
                    attempt: 0,
                    sent_at: self.now,
                },
            );
        }
        Some(Want {
            object,
            mode,
            needs_data,
            deadline,
        })
    }

    /// Requests the local (transaction-level) lock. Returns `true` if the
    /// transaction was aborted to avoid a local deadlock.
    #[expect(
        clippy::indexing_slicing,
        reason = "ci is a ClientId index issued at construction; clients and faults.up hold one entry per client and never shrink"
    )]
    fn request_local_lock(
        &mut self,
        ci: usize,
        key: TKey,
        object: ObjectId,
        mode: LockMode,
        promote: bool,
    ) -> bool {
        let deadline = self.clients[ci]
            .txns
            .get(&key)
            .map_or(SimTime::MAX, |r| r.spec.deadline);
        let c = &mut self.clients[ci];
        let conflicts = c.local_locks.conflicting_holders(object, key, mode);
        if c.local_wfg.would_deadlock(key, &conflicts) {
            self.abort_txn(ci, key, AbortReason::Deadlock);
            return true;
        }
        match c.local_locks.request(object, key, mode, deadline) {
            Acquire::Granted | Acquire::AlreadyHeld | Acquire::Upgraded => {
                let unit = TransactionId::from_raw(key);
                let (holder, exclusive) = (c.id, mode == LockMode::Exclusive);
                self.sink.emit(self.now, SiteId::Client(holder), || {
                    siteselect_obs::Event::LockHeld {
                        txn: unit,
                        object,
                        exclusive,
                    }
                });
                if promote {
                    let done = c.disk.schedule_io(self.now);
                    if let Some(run) = c.txns.get_mut(&key) {
                        run.needed.insert(object, mode, Need::DiskPromote);
                    }
                    self.queue.push(
                        done,
                        Ev::ClientDiskReady {
                            client: ci,
                            txn: key,
                            object,
                            scheduled_at: self.now,
                        },
                    );
                } else if let Some(run) = c.txns.get_mut(&key) {
                    run.needed.insert(object, mode, Need::Held);
                }
            }
            Acquire::Blocked { conflicts } => {
                let blocker = conflicts.first().copied();
                c.local_wfg.add_waits(key, conflicts);
                if let Some(run) = c.txns.get_mut(&key) {
                    run.needed.insert(object, mode, Need::LocalWait);
                    let (txn, origin) = (run.spec.id, run.spec.origin);
                    self.sink.emit(self.now, SiteId::Client(origin), || {
                        siteselect_obs::Event::LockWait { txn, object }
                    });
                }
                // Trace-only wait-start bookkeeping for the lock-wait span
                // emitted when the wait resolves (pure observer).
                if self.sink.is_enabled() {
                    self.clients[ci]
                        .lock_wait_from
                        .insert((key, object), (self.now, blocker));
                }
            }
        }
        false
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "ci is a ClientId index issued at construction; clients and faults.up hold one entry per client and never shrink"
    )]
    pub(crate) fn on_client_disk_ready(
        &mut self,
        ci: usize,
        key: TKey,
        object: ObjectId,
        scheduled_at: SimTime,
    ) {
        let id = self.clients[ci].id;
        self.emit_span(
            SiteId::Client(id),
            key,
            siteselect_obs::SpanKind::Disk,
            scheduled_at,
            None,
        );
        let Some(run) = self.clients[ci].txns.get_mut(&key) else {
            return;
        };
        if run.needed.get(object).is_some_and(|(_, n)| n == Need::DiskPromote) {
            run.needed.set_need(object, Need::Held);
        }
        self.check_ready(ci, key);
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    #[expect(
        clippy::indexing_slicing,
        reason = "ci is a ClientId index issued at construction; clients and faults.up hold one entry per client and never shrink"
    )]
    pub(crate) fn client_on_msg(&mut self, to: ClientId, msg: Msg) {
        let ci = to.index();
        match msg {
            Msg::GrantBatch { items } => {
                for (object, mode, with_data) in items {
                    self.resolve_fetch(ci, object, mode, with_data);
                }
            }
            Msg::ConflictReport { txn, conflicts } => self.on_conflict_report(ci, txn, conflicts),
            Msg::Rejected { txn, expired } => {
                let reason = if expired {
                    AbortReason::Expired
                } else {
                    AbortReason::Deadlock
                };
                // The server rejected one object of the batch: the
                // transaction as a whole cannot proceed.
                self.abort_txn(ci, txn, reason);
            }
            Msg::Recall {
                object,
                desired,
                forward,
            } => self.on_recall(ci, object, desired, forward),
            Msg::ObjectForward { object, mode, rest } => {
                if self.now >= self.warmup_end {
                    self.metrics.load_sharing.forward_satisfied += 1;
                }
                // Receiving a forwarded object: it must keep moving after
                // local use (the last client returns it to the server).
                self.clients[ci].revokes.insert(
                    object,
                    Revoke {
                        desired: LockMode::Exclusive,
                        forward: Some(rest),
                    },
                );
                self.resolve_fetch(ci, object, mode, true);
                // If no local transaction wanted it any more, move it on
                // immediately.
                self.try_execute_revoke(ci, object);
            }
            Msg::TxnShip { spec, sent_at } => {
                let key = spec.id.as_u64();
                // The shipped transaction travelled the fabric from the
                // ship decision to this delivery.
                self.emit_span(
                    SiteId::Client(to),
                    key,
                    siteselect_obs::SpanKind::Net,
                    sent_at,
                    None,
                );
                let origin = spec.origin;
                let run = TxnRun {
                    kind: RunKind::Shipped { origin },
                    state: RunState::Acquiring,
                    needed: Default::default(),
                    acquire_started: self.now,
                    exec_started: self.now,
                    spec,
                };
                self.admit(ci, key, run);
            }
            Msg::TxnShipResult {
                txn,
                committed,
                deadline,
                arrival,
                sent_at,
            } => {
                // Commit protocol: the remote outcome travelled back to its
                // origin from the remote commit/abort to this delivery.
                self.emit_span(
                    SiteId::Client(to),
                    txn.as_u64(),
                    siteselect_obs::SpanKind::Commit,
                    sent_at,
                    None,
                );
                // Origin scores the shipped transaction when the result
                // arrives back.
                self.inflight -= 1;
                if self.measured_arrival(arrival) {
                    let outcome = if committed && self.now <= deadline {
                        TxnOutcome::Committed
                    } else if committed {
                        TxnOutcome::CommittedLate
                    } else {
                        TxnOutcome::Aborted(AbortReason::Expired)
                    };
                    self.record_outcome_at(SiteId::Client(to), txn, outcome);
                    if outcome == TxnOutcome::Committed {
                        self.metrics
                            .latency
                            .push_duration(self.now.duration_since(arrival));
                    }
                }
            }
            Msg::SubtaskShip {
                parent,
                index,
                origin,
                spec,
                sent_at,
            } => {
                let key = subtask_key(parent, index);
                self.emit_span(
                    SiteId::Client(to),
                    key,
                    siteselect_obs::SpanKind::Net,
                    sent_at,
                    None,
                );
                let run = TxnRun {
                    kind: RunKind::Subtask {
                        parent,
                        index,
                        origin,
                    },
                    state: RunState::Acquiring,
                    needed: Default::default(),
                    acquire_started: self.now,
                    exec_started: self.now,
                    spec,
                };
                self.admit(ci, key, run);
            }
            Msg::SubtaskResult { parent, ok, sent_at } => {
                self.emit_span(
                    SiteId::Client(to),
                    parent,
                    siteselect_obs::SpanKind::Commit,
                    sent_at,
                    None,
                );
                self.on_subtask_result(ci, parent, ok);
            }
            Msg::LoadReply {
                txn,
                locations,
                loads,
            } => self.on_load_reply(ci, txn, locations, loads),
            // Server-bound messages never arrive here.
            Msg::RequestBatch { .. }
            | Msg::ObjectReturn { .. }
            | Msg::CallbackAck { .. }
            | Msg::CancelWants { .. }
            | Msg::LoadQuery { .. } => unreachable!("server message delivered to client"),
        }
    }

    /// An object/lock grant arrived: record response time, install the
    /// cached lock (and data), and unblock waiting transactions.
    #[expect(
        clippy::indexing_slicing,
        reason = "ci is a ClientId index issued at construction; clients and faults.up hold one entry per client and never shrink"
    )]
    fn resolve_fetch(&mut self, ci: usize, object: ObjectId, mode: LockMode, with_data: bool) {
        let c = &mut self.clients[ci];
        let fetch = c.fetches.remove(&object);
        let prior = c.cached_locks.get(object).copied();
        let installed = prior.map_or(mode, |p| p.stronger(mode));
        c.cached_locks.insert(object, installed);
        let holder = c.id;
        self.sink.emit(self.now, SiteId::Client(holder), || {
            siteselect_obs::Event::CacheInstall {
                client: holder,
                object,
                exclusive: installed.is_exclusive(),
            }
        });
        let c = &mut self.clients[ci];
        if with_data {
            c.cache.insert(object);
            c.dirty.remove(object);
        }
        let Some(fetch) = fetch else {
            return; // unsolicited (request was cancelled): keep the cache
        };
        if fetch.sent_at >= self.warmup_end {
            let dt = self.now.duration_since(fetch.sent_at).as_secs_f64();
            match fetch.mode {
                LockMode::Shared => self.metrics.response.shared.push(dt),
                LockMode::Exclusive => self.metrics.response.exclusive.push(dt),
            }
        }
        // Every waiter spent the fetch round-trip on the network (interior
        // server-side spans — disk, lock queue — carve themselves out by
        // priority in the blame extractor).
        for &key in &fetch.waiters {
            self.emit_span(
                SiteId::Client(holder),
                key,
                siteselect_obs::SpanKind::Net,
                fetch.sent_at,
                None,
            );
        }
        for key in fetch.waiters {
            let (need_mode, deadline) = {
                let Some(run) = self.clients[ci].txns.get_mut(&key) else {
                    continue;
                };
                // A grant-all round that came back as grants: acquisition
                // continues normally.
                if run.state == RunState::AwaitGrantAll {
                    run.state = RunState::Acquiring;
                }
                match run.needed.get(object) {
                    Some((need_mode, Need::Fetch)) => (need_mode, run.spec.deadline),
                    _ => continue,
                }
            };
            // The lock installed above can vanish mid-loop: an earlier
            // waiter's completed acquisition may release local locks and
            // let a queued revoke execute, surrendering the cached lock
            // again. For later waiters that is indistinguishable from a
            // too-weak grant — fall through to the re-request path.
            let granted_mode = self.clients[ci].cached_locks.get(object).copied();
            if granted_mode.is_some_and(|m| m.covers(need_mode))
                && self.clients[ci].cache.contains(object)
            {
                let promote =
                    self.clients[ci].cache.peek(object) == Some(CacheTier::Disk);
                if self.request_local_lock(ci, key, object, need_mode, promote) {
                    continue;
                }
                self.check_ready(ci, key);
            } else {
                // Granted mode too weak (or data still missing): go again.
                let needs_data = !self.clients[ci].cache.contains(object);
                if let Some(w) =
                    self.join_fetch(ci, key, object, need_mode, needs_data, deadline)
                {
                    let client = self.clients[ci].id;
                    self.send_to_server(
                        client,
                        MessageKind::ObjectRequest,
                        0,
                        1,
                        Msg::RequestBatch {
                            txn: key,
                            client,
                            wants: vec![w],
                            grant_all: false,
                        },
                    );
                }
            }
        }
    }

    /// LS: the grant-all round failed; run H2 and either ship the
    /// transaction or commit to local processing.
    #[expect(
        clippy::indexing_slicing,
        reason = "ci is a ClientId index issued at construction; clients and faults.up hold one entry per client and never shrink"
    )]
    fn on_conflict_report(
        &mut self,
        ci: usize,
        key: TKey,
        conflicts: Vec<(ObjectId, Vec<(ClientId, LockMode)>)>,
    ) {
        let Some(run) = self.clients[ci].txns.get(&key) else {
            return;
        };
        // The transaction may already have left AwaitGrantAll if another
        // fetch resolved in the meantime; the conflict answer still stands
        // for whatever it is still waiting on.
        if !matches!(run.state, RunState::AwaitGrantAll | RunState::Acquiring) {
            return;
        }
        let shipped = !matches!(run.kind, RunKind::Normal);
        let self_id = self.clients[ci].id;
        let txn = run.spec.id;
        let accesses: Vec<AccessSpec> = run.spec.accesses.clone();
        // H2 decision wait: the grant-all round from batch send to this
        // conflict report.
        self.emit_span(
            SiteId::Client(self_id),
            key,
            siteselect_obs::SpanKind::Decision,
            run.acquire_started,
            None,
        );
        if self.cfg.load_sharing.h2_enabled && !shipped {
            let best = Self::h2_choose(self_id, &accesses, &conflicts, &[]);
            self.sink.emit(self.now, SiteId::Client(self_id), || {
                Self::h2_choose_event(txn, self_id, best, &accesses, &conflicts)
            });
            // Ship only when the destination substantially reduces the
            // conflicting-lock count and already caches a significant share
            // of the transaction's data (§3.1: transaction-shipping pays
            // when "a significant percentage of a transaction's required
            // data is already cached at another site"). Shipping cancels
            // the requests the server has queued on our behalf.
            let ls = self.cfg.load_sharing;
            let best_score = Self::h2_score(best, &accesses, &conflicts) as f64;
            let origin_score = Self::h2_score(self_id, &accesses, &conflicts) as f64;
            if best != self_id
                && self.site_up(best)
                && best_score <= ls.ship_conflict_ratio * origin_score
                && Self::holds_fraction(best, &accesses, &conflicts) >= ls.ship_locality_min
            {
                self.ship_txn(ci, key, best);
                return;
            }
        }
        // Otherwise nothing to do: the server already queued the blocked
        // requests and will ship the objects as soon as possible (§4).
        if let Some(run) = self.clients[ci].txns.get_mut(&key) {
            if run.state == RunState::AwaitGrantAll {
                run.state = RunState::Acquiring;
            }
        }
        self.check_ready(ci, key);
    }

    /// Builds the `H2Choose` trace event: every scored candidate in
    /// evaluation order (origin first, then holders as discovered).
    fn h2_choose_event(
        txn: siteselect_types::TransactionId,
        origin: ClientId,
        chosen: ClientId,
        accesses: &[AccessSpec],
        locations: &[(ObjectId, Vec<(ClientId, LockMode)>)],
    ) -> siteselect_obs::Event {
        let mut candidates: Vec<ClientId> = vec![origin];
        for (_, holders) in locations {
            for &(c, _) in holders {
                if !candidates.contains(&c) {
                    candidates.push(c);
                }
            }
        }
        siteselect_obs::Event::H2Choose {
            txn,
            origin: SiteId::Client(origin),
            chosen: SiteId::Client(chosen),
            candidates: candidates
                .into_iter()
                .map(|c| siteselect_obs::H2Candidate {
                    site: SiteId::Client(c),
                    score: Self::h2_score(c, accesses, locations) as u64,
                })
                .collect(),
        }
    }

    /// H2: the site at which the transaction would wait for the fewest
    /// conflicting locks; `loads` breaks ties.
    pub(crate) fn h2_choose(
        origin: ClientId,
        accesses: &[AccessSpec],
        locations: &[(ObjectId, Vec<(ClientId, LockMode)>)],
        loads: &[(ClientId, usize, f64)],
    ) -> ClientId {
        let load_of = |c: ClientId| {
            loads
                .iter()
                .find(|(id, _, _)| *id == c)
                .map_or(0, |&(_, l, _)| l)
        };
        let mut candidates: Vec<ClientId> = vec![origin];
        for (_, holders) in locations {
            for &(c, _) in holders {
                if !candidates.contains(&c) {
                    candidates.push(c);
                }
            }
        }
        let origin_score = Self::h2_score(origin, accesses, locations);
        let best = candidates
            .into_iter()
            .map(|c| (Self::h2_score(c, accesses, locations), load_of(c), c.0, c))
            .min()
            .map_or(origin, |(_, _, _, c)| c);
        // Ship only for a strict improvement in conflicting locks.
        if Self::h2_score(best, accesses, locations) < origin_score {
            best
        } else {
            origin
        }
    }

    /// Fraction of the transaction's objects on which `site` holds a lock —
    /// the proxy for "how much of the required data is cached there".
    pub(crate) fn holds_fraction(
        site: ClientId,
        accesses: &[AccessSpec],
        locations: &[(ObjectId, Vec<(ClientId, LockMode)>)],
    ) -> f64 {
        if accesses.is_empty() {
            return 0.0;
        }
        let held = accesses
            .iter()
            .filter(|a| {
                locations
                    .iter()
                    .find(|(o, _)| *o == a.object)
                    .is_some_and(|(_, holders)| holders.iter().any(|(h, _)| *h == site))
            })
            .count();
        held as f64 / accesses.len() as f64
    }

    /// The number of conflicting locks transaction `accesses` would wait
    /// for if executed at `site` (the quantity H2 minimizes).
    pub(crate) fn h2_score(
        site: ClientId,
        accesses: &[AccessSpec],
        locations: &[(ObjectId, Vec<(ClientId, LockMode)>)],
    ) -> usize {
        accesses
            .iter()
            .map(|a| {
                let mode = a.mode();
                locations
                    .iter()
                    .find(|(o, _)| *o == a.object)
                    .map_or(0, |(_, holders)| {
                        holders
                            .iter()
                            .filter(|(h, m)| *h != site && !m.compatible_with(mode))
                            .count()
                    })
            })
            .sum()
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "ci is a ClientId index issued at construction; clients and faults.up hold one entry per client and never shrink"
    )]
    fn on_load_reply(
        &mut self,
        ci: usize,
        key: TKey,
        locations: Vec<(ObjectId, Vec<(ClientId, LockMode)>)>,
        loads: Vec<(ClientId, usize, f64)>,
    ) {
        let Some(run) = self.clients[ci].txns.get(&key) else {
            return;
        };
        let RunState::AwaitInfo { reason } = run.state else {
            return;
        };
        let self_id = self.clients[ci].id;
        let txn = run.spec.id;
        let accesses: Vec<AccessSpec> = run.spec.accesses.clone();
        // The load-query round the transaction waited on: H1-infeasible
        // admission handling, or the decomposition placement lookup.
        self.emit_span(
            SiteId::Client(self_id),
            key,
            match reason {
                InfoReason::H1Infeasible => siteselect_obs::SpanKind::Admission,
                InfoReason::Decompose => siteselect_obs::SpanKind::Decision,
            },
            run.acquire_started,
            None,
        );
        match reason {
            InfoReason::H1Infeasible => {
                let best = if self.cfg.load_sharing.h2_enabled {
                    let best = Self::h2_choose(self_id, &accesses, &locations, &loads);
                    self.sink.emit(self.now, SiteId::Client(self_id), || {
                        Self::h2_choose_event(txn, self_id, best, &accesses, &locations)
                    });
                    best
                } else {
                    // Without H2, fall back to the least-loaded site.
                    loads
                        .iter()
                        .map(|&(c, l, _)| (l, c.0, c))
                        .min()
                        .map_or(self_id, |(_, _, c)| c)
                };
                if best != self_id && self.site_up(best) {
                    self.ship_txn(ci, key, best);
                } else {
                    // Best site is home, or the chosen site is crashed:
                    // local processing degrades gracefully.
                    self.begin_acquisition(ci, key, true);
                }
            }
            InfoReason::Decompose => {
                let raw = Self::group_by_location(self_id, &accesses, &locations);
                // Keep decomposition worthwhile: remote groups must carry at
                // least two objects (a single-object fetch is cheaper than a
                // subtask) and the fan-out is capped at four sites, as in
                // the paper's illustration.
                let mut origin_accs: Vec<AccessSpec> = Vec::new();
                let mut groups: Vec<(ClientId, Vec<AccessSpec>)> = Vec::new();
                for (site, accs) in raw {
                    if site == self_id || !self.site_up(site) || accs.len() < 2 || groups.len() >= 4
                    {
                        origin_accs.extend(accs);
                    } else {
                        groups.push((site, accs));
                    }
                }
                if !origin_accs.is_empty() {
                    groups.push((self_id, origin_accs));
                }
                if groups.len() >= 2 {
                    self.decompose(ci, key, groups);
                } else {
                    self.begin_acquisition(ci, key, true);
                }
            }
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "ci is a ClientId index issued at construction; clients and faults.up hold one entry per client and never shrink"
    )]
    fn decompose(&mut self, ci: usize, key: TKey, groups: Vec<(ClientId, Vec<AccessSpec>)>) {
        let Some(run) = self.clients[ci].txns.get_mut(&key) else {
            return;
        };
        let parent_spec = run.spec.clone();
        let total = parent_spec.accesses.len().max(1) as f64;
        run.state = RunState::AwaitSubtasks {
            pending: groups.len() as u8,
            failed: false,
        };
        if self.measured_arrival(parent_spec.arrival) {
            self.metrics.load_sharing.decomposed += 1;
            self.metrics.load_sharing.subtasks += groups.len() as u64;
        }
        let subtasks = groups.len() as u32;
        self.sink
            .emit(self.now, SiteId::Client(parent_spec.origin), || {
                siteselect_obs::Event::Decomposed {
                    txn: parent_spec.id,
                    subtasks,
                }
            });
        let origin = self.clients[ci].id;
        for (index, (site, accesses)) in groups.into_iter().enumerate() {
            let index = index as u8;
            let share = accesses.len() as f64 / total;
            let mut spec = parent_spec.clone();
            spec.accesses = accesses;
            spec.cpu_demand = parent_spec
                .cpu_demand
                .mul_f64((1.0 - SYNTHESIS_FRACTION) * share);
            spec.decomposable = false;
            if site == origin {
                let skey = subtask_key(key, index);
                let run = TxnRun {
                    kind: RunKind::Subtask {
                        parent: key,
                        index,
                        origin,
                    },
                    state: RunState::Acquiring,
                    needed: Default::default(),
                    acquire_started: self.now,
                    exec_started: self.now,
                    spec,
                };
                self.clients[ci].txns.insert(skey, run);
                self.begin_acquisition(ci, skey, self.ls);
            } else {
                self.send_to_client(
                    SiteDest::Client(origin),
                    site,
                    MessageKind::SubtaskShip,
                    0,
                    Msg::SubtaskShip {
                        parent: key,
                        index,
                        origin,
                        spec,
                        sent_at: self.now,
                    },
                );
            }
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "ci is a ClientId index issued at construction; clients and faults.up hold one entry per client and never shrink"
    )]
    fn on_subtask_result(&mut self, ci: usize, parent: TKey, ok: bool) {
        let Some(run) = self.clients[ci].txns.get_mut(&parent) else {
            return; // parent already aborted (e.g. expired)
        };
        let RunState::AwaitSubtasks { pending, failed } = run.state else {
            return;
        };
        let pending = pending - 1;
        let failed = failed || !ok;
        run.state = RunState::AwaitSubtasks { pending, failed };
        if pending > 0 {
            return;
        }
        if failed {
            self.abort_txn(ci, parent, AbortReason::SubtaskFailure);
            return;
        }
        // Synthesis phase: combine the subtask answers.
        let (deadline, demand) = (
            run.spec.deadline,
            run.spec.cpu_demand.mul_f64(SYNTHESIS_FRACTION),
        );
        run.state = RunState::Synthesis;
        run.exec_started = self.now;
        let resched = self.clients[ci].cpu.submit(self.now, parent, deadline, demand);
        if let Some((t, generation)) = resched {
            self.queue.push(
                t,
                Ev::ClientCpu {
                    client: ci,
                    generation,
                },
            );
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "ci is a ClientId index issued at construction; clients and faults.up hold one entry per client and never shrink"
    )]
    pub(crate) fn ship_txn(&mut self, ci: usize, key: TKey, dest: ClientId) {
        let Some(run) = self.clients[ci].txns.remove(&key) else {
            return;
        };
        if self.measured_arrival(run.spec.arrival) {
            self.metrics.load_sharing.shipped += 1;
        }
        let txn = run.spec.id;
        self.sink
            .emit(self.now, SiteId::Client(self.clients[ci].id), || {
                siteselect_obs::Event::Shipped {
                    txn,
                    to: SiteId::Client(dest),
                }
            });
        // The origin-side episode ends without committing anything: local
        // locks are released here and the unit re-executes (as a fresh
        // lock episode) at the destination.
        self.sink
            .emit(self.now, SiteId::Client(self.clients[ci].id), || {
                siteselect_obs::Event::UnitEnd {
                    txn,
                    committed: false,
                }
            });
        self.detach_txn(ci, key, &run);
        let from = self.clients[ci].id;
        self.send_to_client(
            SiteDest::Client(from),
            dest,
            MessageKind::TxnShip,
            0,
            Msg::TxnShip {
                spec: run.spec,
                sent_at: self.now,
            },
        );
    }

    /// Releases everything `key` holds or awaits at client `ci`.
    #[expect(
        clippy::indexing_slicing,
        reason = "ci is a ClientId index issued at construction; clients and faults.up hold one entry per client and never shrink"
    )]
    fn detach_txn(&mut self, ci: usize, key: TKey, run: &TxnRun) {
        // Close out lock waits still open at detach (an aborted/shipped
        // unit stops waiting now).
        if self.sink.is_enabled() {
            let id = self.clients[ci].id;
            #[expect(
                clippy::disallowed_methods,
                reason = "collected, then sorted by object on the next line"
            )]
            let mut open: Vec<(ObjectId, SimTime, Option<TKey>)> = self.clients[ci]
                .lock_wait_from
                .iter()
                .filter(|((k, _), _)| *k == key)
                .map(|(&(_, o), &(t, b))| (o, t, b))
                .collect();
            open.sort_unstable_by_key(|&(o, _, _)| o);
            for (object, started, blocker) in open {
                self.clients[ci].lock_wait_from.remove(&(key, object));
                self.emit_span(
                    SiteId::Client(id),
                    key,
                    siteselect_obs::SpanKind::LockWait,
                    started,
                    blocker,
                );
            }
        }
        // Local locks and queued local waits.
        let grants = self.clients[ci].local_locks.release_all(key);
        self.clients[ci].local_wfg.remove_node(key);
        for (object, waiters) in grants {
            let keys: Vec<TKey> = waiters.iter().map(|w| w.owner).collect();
            self.on_local_grants(ci, object, keys);
        }
        // Pending revokes may now be executable.
        let held: Vec<ObjectId> = run.needed.objects().collect();
        for object in held {
            self.try_execute_revoke(ci, object);
        }
        // Outstanding fetches.
        let mut cancelled: Vec<ObjectId> = Vec::new();
        let c = &mut self.clients[ci];
        #[expect(
            clippy::disallowed_methods,
            reason = "per-entry removal; the cancelled list is sorted before it is sent"
        )]
        c.fetches.retain(|&object, f| {
            f.waiters.retain(|&w| w != key);
            if f.waiters.is_empty() {
                if f.sent {
                    cancelled.push(object);
                }
                false
            } else {
                true
            }
        });
        if !cancelled.is_empty() {
            cancelled.sort_unstable(); // retain walks hash order
            let client = self.clients[ci].id;
            self.send_to_server(
                client,
                MessageKind::ObjectRequest,
                0,
                1,
                Msg::CancelWants {
                    client,
                    objects: cancelled,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Callbacks, downgrades and forward hops
    // ------------------------------------------------------------------

    #[expect(
        clippy::indexing_slicing,
        reason = "ci is a ClientId index issued at construction; clients and faults.up hold one entry per client and never shrink"
    )]
    fn on_recall(
        &mut self,
        ci: usize,
        object: ObjectId,
        desired: LockMode,
        forward: Option<ForwardList>,
    ) {
        let c = &mut self.clients[ci];
        if !c.cached_locks.contains(object) {
            // We no longer hold it (silently evicted): answer immediately.
            let from = c.id;
            let had_copy = c.cache.contains(object);
            self.send_to_server(
                from,
                MessageKind::CallbackAck,
                0,
                1,
                Msg::CallbackAck {
                    object,
                    from,
                    had_copy,
                },
            );
            return;
        }
        c.revokes.insert(object, Revoke { desired, forward });
        // Queued local waiters can no longer rely on the cached lock.
        self.requeue_local_waiters(ci, object);
        self.try_execute_revoke(ci, object);
    }

    /// Converts local-wait transactions on `object` into server fetches
    /// (their cached lock is being revoked or downgraded).
    #[expect(
        clippy::indexing_slicing,
        reason = "ci is a ClientId index issued at construction; clients and faults.up hold one entry per client and never shrink"
    )]
    fn requeue_local_waiters(&mut self, ci: usize, object: ObjectId) {
        let waiters: Vec<TKey> = self.clients[ci]
            .local_locks
            .waiters(object)
            .iter()
            .map(|w| w.owner)
            .collect();
        for key in waiters {
            let Some(run) = self.clients[ci].txns.get(&key) else {
                continue;
            };
            let Some((mode, Need::LocalWait)) = run.needed.get(object) else {
                continue;
            };
            let deadline = run.spec.deadline;
            let (_, grants) = self.clients[ci].local_locks.cancel_wait(object, key);
            // The local wait ends here (it converts into a server fetch).
            if let Some((started, blocker)) =
                self.clients[ci].lock_wait_from.remove(&(key, object))
            {
                let id = self.clients[ci].id;
                self.emit_span(
                    SiteId::Client(id),
                    key,
                    siteselect_obs::SpanKind::LockWait,
                    started,
                    blocker,
                );
            }
            if let Some(run) = self.clients[ci].txns.get_mut(&key) {
                run.needed.insert(object, mode, Need::Fetch);
            }
            let keys: Vec<TKey> = grants.iter().map(|w| w.owner).collect();
            self.on_local_grants(ci, object, keys);
            if let Some(w) = self.join_fetch(ci, key, object, mode, true, deadline) {
                let client = self.clients[ci].id;
                self.send_to_server(
                    client,
                    MessageKind::ObjectRequest,
                    0,
                    1,
                    Msg::RequestBatch {
                        txn: key,
                        client,
                        wants: vec![w],
                        grant_all: false,
                    },
                );
            }
        }
    }

    /// Executes a pending revocation once no local transaction holds the
    /// object.
    #[expect(
        clippy::expect_used,
        clippy::indexing_slicing,
        reason = "ci is a ClientId index issued at construction; clients and faults.up hold one entry per client and never shrink"
    )]
    pub(crate) fn try_execute_revoke(&mut self, ci: usize, object: ObjectId) {
        let c = &self.clients[ci];
        if !c.revokes.contains_key(&object) {
            return;
        }
        if !c.local_locks.holders(object).is_empty() {
            return; // active local users finish first
        }
        let revoke = self.clients[ci]
            .revokes
            .remove(&object)
            .expect("checked above");
        let from = self.clients[ci].id;
        let held = self.clients[ci].cached_locks.get(object).copied();
        let has_data = self.clients[ci].cache.contains(object);

        if let Some(mut list) = revoke.forward {
            // Grouped-lock hop: ship the object to the next live entry.
            if !has_data {
                self.clients[ci].cached_locks.remove(object);
                self.sink.emit(self.now, SiteId::Client(from), || {
                    siteselect_obs::Event::CacheDrop { client: from, object }
                });
                self.send_to_server(
                    from,
                    MessageKind::CallbackAck,
                    0,
                    1,
                    Msg::CallbackAck {
                        object,
                        from,
                        had_copy: false,
                    },
                );
                return;
            }
            self.clients[ci].cached_locks.remove(object);
            self.clients[ci].cache.invalidate(object);
            self.clients[ci].dirty.remove(object);
            self.sink.emit(self.now, SiteId::Client(from), || {
                siteselect_obs::Event::CacheDrop { client: from, object }
            });
            // Skip entries whose deadline passed and (failure handling)
            // entries whose client is crashed — forwarding to a dead site
            // would strand the object.
            let next = loop {
                let (next, _skipped) = list.pop_next_live(self.now);
                match next {
                    Some(e) if !self.site_up(e.client) => continue,
                    other => break other,
                }
            };
            match next {
                Some(entry) => {
                    let to = entry.client;
                    self.sink.emit(self.now, SiteId::Client(from), || {
                        siteselect_obs::Event::ForwardHop { object, to }
                    });
                    self.send_to_client(
                        SiteDest::Client(from),
                        entry.client,
                        MessageKind::ObjectForward,
                        1,
                        Msg::ObjectForward {
                            object,
                            mode: entry.mode,
                            rest: list,
                        },
                    );
                }
                None => {
                    // Everyone on the list expired: hand the object home.
                    self.send_to_server(
                        from,
                        MessageKind::ObjectReturn,
                        1,
                        1,
                        Msg::ObjectReturn {
                            object,
                            from,
                            downgraded: false,
                        },
                    );
                }
            }
            return;
        }

        // Plain callback path.
        let downgrade = revoke.desired == LockMode::Shared
            && held == Some(LockMode::Exclusive)
            && has_data;
        if downgrade {
            self.clients[ci]
                .cached_locks
                .insert(object, LockMode::Shared);
            self.clients[ci].dirty.remove(object);
            self.sink.emit(self.now, SiteId::Client(from), || {
                siteselect_obs::Event::CacheDowngrade { client: from, object }
            });
            self.send_to_server(
                from,
                MessageKind::ObjectReturn,
                1,
                1,
                Msg::ObjectReturn {
                    object,
                    from,
                    downgraded: true,
                },
            );
            return;
        }
        self.clients[ci].cached_locks.remove(object);
        self.sink.emit(self.now, SiteId::Client(from), || {
            siteselect_obs::Event::CacheDrop { client: from, object }
        });
        let send_data = held == Some(LockMode::Exclusive) && has_data;
        self.clients[ci].cache.invalidate(object);
        self.clients[ci].dirty.remove(object);
        if send_data {
            self.send_to_server(
                from,
                MessageKind::ObjectReturn,
                1,
                1,
                Msg::ObjectReturn {
                    object,
                    from,
                    downgraded: false,
                },
            );
        } else {
            self.send_to_server(
                from,
                MessageKind::CallbackAck,
                0,
                1,
                Msg::CallbackAck {
                    object,
                    from,
                    had_copy: has_data,
                },
            );
        }
    }

    /// Local lock grants cascading from a release.
    #[expect(
        clippy::indexing_slicing,
        reason = "ci is a ClientId index issued at construction; clients and faults.up hold one entry per client and never shrink"
    )]
    pub(crate) fn on_local_grants(&mut self, ci: usize, object: ObjectId, keys: Vec<TKey>) {
        for key in keys {
            let Some(run) = self.clients[ci].txns.get(&key) else {
                // Granted to a transaction that no longer exists.
                let grants = self.clients[ci].local_locks.release(object, key);
                let more: Vec<TKey> = grants.iter().map(|w| w.owner).collect();
                self.on_local_grants(ci, object, more);
                continue;
            };
            let Some((mode, status)) = run.needed.get(object) else {
                continue;
            };
            if status != Need::LocalWait {
                continue;
            }
            self.clients[ci].local_wfg.clear_waits(key);
            // The local lock wait ends with this grant.
            if let Some((started, blocker)) =
                self.clients[ci].lock_wait_from.remove(&(key, object))
            {
                let id = self.clients[ci].id;
                self.emit_span(
                    SiteId::Client(id),
                    key,
                    siteselect_obs::SpanKind::LockWait,
                    started,
                    blocker,
                );
            }
            let c = &self.clients[ci];
            let covered = c
                .cached_locks
                .get(object)
                .is_some_and(|m| m.covers(mode));
            if covered && c.cache.contains(object) {
                let promote = c.cache.peek(object) == Some(CacheTier::Disk);
                let unit = TransactionId::from_raw(key);
                let (holder, exclusive) = (c.id, mode == LockMode::Exclusive);
                self.sink.emit(self.now, SiteId::Client(holder), || {
                    siteselect_obs::Event::LockHeld {
                        txn: unit,
                        object,
                        exclusive,
                    }
                });
                if promote {
                    let done = self.clients[ci].disk.schedule_io(self.now);
                    if let Some(run) = self.clients[ci].txns.get_mut(&key) {
                        run.needed.insert(object, mode, Need::DiskPromote);
                    }
                    self.queue.push(
                        done,
                        Ev::ClientDiskReady {
                            client: ci,
                            txn: key,
                            object,
                            scheduled_at: self.now,
                        },
                    );
                } else {
                    if let Some(run) = self.clients[ci].txns.get_mut(&key) {
                        run.needed.insert(object, mode, Need::Held);
                    }
                    self.check_ready(ci, key);
                }
            } else {
                // Cached lock vanished while queued: fetch from the server.
                let deadline = self.clients[ci]
                    .txns
                    .get(&key)
                    .map_or(SimTime::MAX, |r| r.spec.deadline);
                self.clients[ci].local_locks.release(object, key);
                if let Some(run) = self.clients[ci].txns.get_mut(&key) {
                    run.needed.insert(object, mode, Need::Fetch);
                }
                if let Some(w) = self.join_fetch(ci, key, object, mode, true, deadline) {
                    let client = self.clients[ci].id;
                    self.send_to_server(
                        client,
                        MessageKind::ObjectRequest,
                        0,
                        1,
                        Msg::RequestBatch {
                            txn: key,
                            client,
                            wants: vec![w],
                            grant_all: false,
                        },
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Execution and completion
    // ------------------------------------------------------------------

    #[expect(
        clippy::indexing_slicing,
        reason = "ci is a ClientId index issued at construction; clients and faults.up hold one entry per client and never shrink"
    )]
    pub(crate) fn check_ready(&mut self, ci: usize, key: TKey) {
        let Some(run) = self.clients[ci].txns.get(&key) else {
            return;
        };
        if !run.ready() {
            return;
        }
        if run.spec.is_expired(self.now) {
            self.abort_txn(ci, key, AbortReason::Expired);
            return;
        }
        let measured = self.measured_arrival(run.spec.arrival);
        let blocked = self.now.duration_since(run.acquire_started);
        if measured {
            self.metrics.blocking.push_duration(blocked);
        }
        let (deadline, demand) = (run.spec.deadline, run.spec.cpu_demand);
        let txn = run.spec.id;
        if let Some(run) = self.clients[ci].txns.get_mut(&key) {
            run.state = RunState::Executing;
            run.exec_started = self.now;
        }
        self.sink
            .emit(self.now, SiteId::Client(self.clients[ci].id), || {
                siteselect_obs::Event::ExecStart { txn }
            });
        let resched = self.clients[ci].cpu.submit(self.now, key, deadline, demand);
        if let Some((t, generation)) = resched {
            self.queue.push(
                t,
                Ev::ClientCpu {
                    client: ci,
                    generation,
                },
            );
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "ci is a ClientId index issued at construction; clients and faults.up hold one entry per client and never shrink"
    )]
    pub(crate) fn on_client_cpu(&mut self, ci: usize, generation: u64) {
        match self.clients[ci].cpu.on_completion(self.now, generation) {
            crate::cpu::Tick::Stale => {}
            crate::cpu::Tick::Done { finished, next } => {
                if let Some((t, generation)) = next {
                    self.queue.push(
                        t,
                        Ev::ClientCpu {
                            client: ci,
                            generation,
                        },
                    );
                }
                for &key in finished.iter() {
                    self.commit_txn(ci, key);
                }
            }
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "ci is a ClientId index issued at construction; clients and faults.up hold one entry per client and never shrink"
    )]
    fn commit_txn(&mut self, ci: usize, key: TKey) {
        let Some(run) = self.clients[ci].txns.remove(&key) else {
            return;
        };
        // Mark updated objects dirty in the cache (they carry the newest
        // version under the exclusive lock).
        if run.state == RunState::Executing {
            let writes: Vec<ObjectId> = run.spec.write_set().collect();
            for o in writes {
                if self.clients[ci].cache.contains(o) {
                    self.clients[ci].dirty.insert(o);
                }
            }
        }
        let unit = TransactionId::from_raw(key);
        self.sink
            .emit(self.now, SiteId::Client(self.clients[ci].id), || {
                siteselect_obs::Event::UnitEnd {
                    txn: unit,
                    committed: true,
                }
            });
        self.detach_txn(ci, key, &run);
        // ATL bookkeeping for H1: the paper's "average execution time for
        // all completed transactions" — the CPU-resident span.
        let exec_time = self.now.duration_since(run.exec_started).as_secs_f64();
        self.clients[ci].atl_sum += exec_time;
        self.clients[ci].atl_count += 1;

        let committed = self.now <= run.spec.deadline;
        let measured = self.measured_arrival(run.spec.arrival);
        if matches!(run.kind, RunKind::Normal) {
            let txn = run.spec.id;
            let latency_us = self.now.duration_since(run.spec.arrival).as_micros();
            let slack_us = run.spec.deadline.as_micros() as i64 - self.now.as_micros() as i64;
            self.sink
                .emit(self.now, SiteId::Client(self.clients[ci].id), || {
                    siteselect_obs::Event::Commit {
                        txn,
                        latency_us,
                        slack_us,
                    }
                });
        }
        match run.kind {
            RunKind::Normal => {
                self.inflight -= 1;
                if measured {
                    let outcome = if committed {
                        TxnOutcome::Committed
                    } else {
                        TxnOutcome::CommittedLate
                    };
                    self.record_outcome_at(
                        SiteId::Client(self.clients[ci].id),
                        run.spec.id,
                        outcome,
                    );
                    if committed {
                        self.metrics
                            .latency
                            .push_duration(self.now.duration_since(run.spec.arrival));
                    }
                }
            }
            RunKind::Shipped { origin } => {
                let from = self.clients[ci].id;
                self.send_to_client(
                    SiteDest::Client(from),
                    origin,
                    MessageKind::TxnShipResult,
                    0,
                    Msg::TxnShipResult {
                        txn: run.spec.id,
                        committed,
                        deadline: run.spec.deadline,
                        arrival: run.spec.arrival,
                        sent_at: self.now,
                    },
                );
            }
            RunKind::Subtask {
                parent,
                index: _,
                origin,
            } => {
                let from = self.clients[ci].id;
                if origin == from {
                    self.on_subtask_result(ci, parent, committed);
                } else {
                    self.send_to_client(
                        SiteDest::Client(from),
                        origin,
                        MessageKind::SubtaskResult,
                        0,
                        Msg::SubtaskResult {
                            parent,
                            ok: committed,
                            sent_at: self.now,
                        },
                    );
                }
            }
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "ci is a ClientId index issued at construction; clients and faults.up hold one entry per client and never shrink"
    )]
    pub(crate) fn abort_txn(&mut self, ci: usize, key: TKey, reason: AbortReason) {
        let Some(run) = self.clients[ci].txns.remove(&key) else {
            return;
        };
        if matches!(run.state, RunState::Executing | RunState::Synthesis) {
            if let Some((t, generation)) = self.clients[ci].cpu.remove(self.now, key) {
                self.queue.push(
                    t,
                    Ev::ClientCpu {
                        client: ci,
                        generation,
                    },
                );
            }
        }
        self.detach_txn(ci, key, &run);
        let measured = self.measured_arrival(run.spec.arrival);
        let txn = run.spec.id;
        self.sink
            .emit(self.now, SiteId::Client(self.clients[ci].id), || {
                siteselect_obs::Event::Abort { txn, reason }
            });
        let unit = TransactionId::from_raw(key);
        self.sink
            .emit(self.now, SiteId::Client(self.clients[ci].id), || {
                siteselect_obs::Event::UnitEnd {
                    txn: unit,
                    committed: false,
                }
            });
        match run.kind {
            RunKind::Normal => {
                self.inflight -= 1;
                if measured {
                    self.record_outcome_at(
                        SiteId::Client(self.clients[ci].id),
                        run.spec.id,
                        TxnOutcome::Aborted(reason),
                    );
                }
            }
            RunKind::Shipped { origin } => {
                let from = self.clients[ci].id;
                self.send_to_client(
                    SiteDest::Client(from),
                    origin,
                    MessageKind::TxnShipResult,
                    0,
                    Msg::TxnShipResult {
                        txn: run.spec.id,
                        committed: false,
                        deadline: run.spec.deadline,
                        arrival: run.spec.arrival,
                        sent_at: self.now,
                    },
                );
            }
            RunKind::Subtask {
                parent,
                index: _,
                origin,
            } => {
                let from = self.clients[ci].id;
                if origin == from {
                    self.on_subtask_result(ci, parent, false);
                } else {
                    self.send_to_client(
                        SiteDest::Client(from),
                        origin,
                        MessageKind::SubtaskResult,
                        0,
                        Msg::SubtaskResult {
                            parent,
                            ok: false,
                            sent_at: self.now,
                        },
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault injection and failure handling
    // ------------------------------------------------------------------

    /// A client site crashes: every resident unit of work dies, all
    /// volatile state (caches, cached locks, local lock table) is lost, and
    /// the fabric refuses deliveries until recovery. The site sends
    /// nothing on its way down — the rest of the system learns of the
    /// failure only through timeouts and lease expiry.
    #[expect(
        clippy::indexing_slicing,
        reason = "ci is a ClientId index issued at construction; clients and faults.up hold one entry per client and never shrink"
    )]
    pub(crate) fn on_site_crash(&mut self, ci: usize) {
        if !self.faults.up[ci] {
            return; // already down (schedules can overlap at run end)
        }
        self.faults.up[ci] = false;
        self.metrics.faults.crashes += 1;
        let id = self.clients[ci].id;
        self.sink.emit(self.now, SiteId::Client(id), || {
            siteselect_obs::Event::SiteCrash {
                site: SiteId::Client(id),
            }
        });
        self.fabric.set_site_down(SiteId::Client(id));
        #[expect(
            clippy::disallowed_methods,
            reason = "collected, then sorted before the kill cascade"
        )]
        let mut keys: Vec<TKey> = self.clients[ci].txns.keys().copied().collect();
        keys.sort_unstable(); // hash order is arbitrary; kills cascade
        for key in keys {
            self.kill_run_on_crash(ci, key);
        }
        self.sink.emit(self.now, SiteId::Client(id), || {
            siteselect_obs::Event::CacheWipe { client: id }
        });
        let cfg = self.cfg.client;
        let c = &mut self.clients[ci];
        c.cached_locks.clear();
        c.dirty.clear();
        c.fetches.clear();
        c.revokes.clear();
        c.lock_wait_from.clear();
        c.cache = siteselect_storage::ClientCache::new(
            cfg.memory_cache_objects,
            cfg.disk_cache_objects,
        );
        c.local_locks =
            siteselect_locks::LockTable::new(siteselect_locks::QueueDiscipline::Deadline);
        c.local_wfg = siteselect_locks::WaitForGraph::new();
    }

    /// Silent death of one unit of work in a crash. Unlike
    /// [`abort_txn`](Self::abort_txn) nothing is sent: remote interest is
    /// settled by a synthetic timeout result, and whatever the site held at
    /// the server is reclaimed by callback leases.
    #[expect(
        clippy::indexing_slicing,
        reason = "ci is a ClientId index issued at construction; clients and faults.up hold one entry per client and never shrink"
    )]
    fn kill_run_on_crash(&mut self, ci: usize, key: TKey) {
        let Some(run) = self.clients[ci].txns.remove(&key) else {
            return;
        };
        if matches!(run.state, RunState::Executing | RunState::Synthesis) {
            if let Some((t, generation)) = self.clients[ci].cpu.remove(self.now, key) {
                self.queue.push(
                    t,
                    Ev::ClientCpu {
                        client: ci,
                        generation,
                    },
                );
            }
        }
        let unit = TransactionId::from_raw(key);
        let site = self.clients[ci].id;
        self.sink.emit(self.now, SiteId::Client(site), || {
            siteselect_obs::Event::UnitEnd {
                txn: unit,
                committed: false,
            }
        });
        match run.kind {
            RunKind::Normal => {
                self.inflight -= 1;
                if self.measured_arrival(run.spec.arrival) {
                    self.record_outcome_at(
                        SiteId::Client(site),
                        run.spec.id,
                        TxnOutcome::Aborted(AbortReason::SiteCrash),
                    );
                }
            }
            // The origin is still waiting; model its failure detector as a
            // synthetic failed result that fires after the full backoff
            // cap (pushed straight to the event queue — a dead site puts
            // nothing on the wire).
            RunKind::Shipped { origin } => {
                self.queue.push(
                    self.now.saturating_add(self.cfg.faults.retry_backoff_cap),
                    Ev::Deliver {
                        to: SiteDest::Client(origin),
                        msgs: vec![Msg::TxnShipResult {
                            txn: run.spec.id,
                            committed: false,
                            deadline: run.spec.deadline,
                            arrival: run.spec.arrival,
                            sent_at: self.now,
                        }],
                    },
                );
            }
            RunKind::Subtask {
                parent,
                index: _,
                origin,
            } => {
                self.queue.push(
                    self.now.saturating_add(self.cfg.faults.retry_backoff_cap),
                    Ev::Deliver {
                        to: SiteDest::Client(origin),
                        msgs: vec![Msg::SubtaskResult {
                            parent,
                            ok: false,
                            sent_at: self.now,
                        }],
                    },
                );
            }
        }
    }

    /// A crashed site comes back up, cold: it accepts traffic again but
    /// remembers nothing (its caches were wiped at crash time).
    #[expect(
        clippy::indexing_slicing,
        reason = "ci is a ClientId index issued at construction; clients and faults.up hold one entry per client and never shrink"
    )]
    pub(crate) fn on_site_recover(&mut self, ci: usize) {
        if self.faults.up[ci] {
            return;
        }
        self.faults.up[ci] = true;
        self.metrics.faults.recoveries += 1;
        let id = self.clients[ci].id;
        self.sink.emit(self.now, SiteId::Client(id), || {
            siteselect_obs::Event::SiteRecover {
                site: SiteId::Client(id),
            }
        });
        self.fabric.set_site_up(SiteId::Client(id));
    }

    /// Retry timer for an outstanding fetch: if the fetch `sent_at` is
    /// still unanswered, retransmit the request and re-arm with doubled
    /// (capped) backoff. Stale timers — the fetch resolved, was replaced,
    /// or a newer retry round superseded this one — mismatch and do
    /// nothing.
    #[expect(
        clippy::indexing_slicing,
        reason = "ci is a ClientId index issued at construction; clients and faults.up hold one entry per client and never shrink"
    )]
    pub(crate) fn on_retry_fetch(
        &mut self,
        ci: usize,
        object: ObjectId,
        attempt: u32,
        sent_at: SimTime,
    ) {
        let f = self.cfg.faults;
        if !self.faults.active || !self.faults.up[ci] {
            return;
        }
        let Some(fetch) = self.clients[ci].fetches.get(&object) else {
            return; // answered (or cancelled) in time
        };
        if !fetch.sent || fetch.sent_at != sent_at || fetch.attempts != attempt {
            return; // stale timer
        }
        if attempt >= f.max_retries {
            return; // budget exhausted; the deadline sweep settles waiters
        }
        let mode = fetch.mode;
        // Re-issue on behalf of the earliest-deadline surviving waiter.
        let Some((txn, deadline)) = fetch
            .waiters
            .iter()
            .filter_map(|&k| {
                self.clients[ci]
                    .txns
                    .get(&k)
                    .map(|r| (k, r.spec.deadline))
            })
            .min_by_key(|&(k, d)| (d, k))
        else {
            return;
        };
        if let Some(fetch) = self.clients[ci].fetches.get_mut(&object) {
            fetch.attempts = attempt + 1;
        }
        self.metrics.faults.retries += 1;
        let needs_data = !self.clients[ci].cache.contains(object);
        let client = self.clients[ci].id;
        if let Some(id) = self.clients[ci].txns.get(&txn).map(|r| r.spec.id) {
            self.sink.emit(self.now, SiteId::Client(client), || {
                siteselect_obs::Event::RetrySent { txn: id }
            });
        }
        // The dead time from the (lost) send to this retransmission is a
        // retry/backoff episode, carved out of the fetch's network span.
        self.emit_span(
            SiteId::Client(client),
            txn,
            siteselect_obs::SpanKind::Retry,
            sent_at,
            None,
        );
        self.send_to_server(
            client,
            MessageKind::ObjectRequest,
            0,
            1,
            Msg::RequestBatch {
                txn,
                client,
                wants: vec![Want {
                    object,
                    mode,
                    needs_data,
                    deadline,
                }],
                grant_all: false,
            },
        );
        let backoff = f
            .retry_backoff_base
            .mul_f64(f64::from(2u32.saturating_pow(attempt + 1)))
            .min(f.retry_backoff_cap);
        self.queue.push(
            self.now + backoff,
            Ev::RetryFetch {
                client: ci,
                object,
                attempt: attempt + 1,
                sent_at,
            },
        );
    }

    /// Drops transactions whose deadline passed while they were not yet
    /// executing ("tasks that have missed their deadlines are not processed
    /// at all", §2).
    #[expect(
        clippy::indexing_slicing,
        reason = "ci is a ClientId index issued at construction; clients and faults.up hold one entry per client and never shrink"
    )]
    pub(crate) fn sweep_expired_txns(&mut self) {
        for ci in 0..self.clients.len() {
            #[expect(
                clippy::disallowed_methods,
                reason = "collected, then sorted before the abort cascade"
            )]
            let mut expired: Vec<TKey> = self.clients[ci]
                .txns
                .iter()
                .filter(|(_, r)| r.spec.is_expired(self.now))
                .map(|(&k, _)| k)
                .collect();
            // HashMap order is hash order and the abort cascade is
            // order-sensitive; sort so runs are independent of the hasher.
            expired.sort_unstable();
            for key in expired {
                self.abort_txn(ci, key, AbortReason::Expired);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(
        o: u32,
        holders: &[(u16, LockMode)],
    ) -> (ObjectId, Vec<(ClientId, LockMode)>) {
        (
            ObjectId(o),
            holders.iter().map(|&(c, m)| (ClientId(c), m)).collect(),
        )
    }

    #[test]
    fn h2_prefers_the_site_holding_the_conflicting_locks() {
        let accesses = vec![AccessSpec::write(ObjectId(1)), AccessSpec::write(ObjectId(2))];
        let locations = vec![
            loc(1, &[(5, LockMode::Exclusive)]),
            loc(2, &[(5, LockMode::Exclusive)]),
        ];
        let best = ClientServerSim::h2_choose(ClientId(0), &accesses, &locations, &[]);
        assert_eq!(best, ClientId(5));
    }

    #[test]
    fn h2_stays_home_without_strict_improvement() {
        let accesses = vec![AccessSpec::read(ObjectId(1))];
        // A shared lock elsewhere does not conflict with a read.
        let locations = vec![loc(1, &[(5, LockMode::Shared)])];
        let best = ClientServerSim::h2_choose(ClientId(0), &accesses, &locations, &[]);
        assert_eq!(best, ClientId(0));
    }

    #[test]
    fn h2_counts_conflicts_per_site() {
        let accesses = vec![AccessSpec::write(ObjectId(1)), AccessSpec::write(ObjectId(2))];
        // Client 5 holds obj1 EL; client 6 holds obj2 EL. Either site still
        // waits for one conflicting lock; origin waits for two. Tie between
        // 5 and 6 broken by id.
        let locations = vec![
            loc(1, &[(5, LockMode::Exclusive)]),
            loc(2, &[(6, LockMode::Exclusive)]),
        ];
        let best = ClientServerSim::h2_choose(ClientId(0), &accesses, &locations, &[]);
        assert_eq!(best, ClientId(5));
    }

    #[test]
    fn h2_breaks_ties_by_load() {
        let accesses = vec![AccessSpec::write(ObjectId(1)), AccessSpec::write(ObjectId(2))];
        let locations = vec![
            loc(1, &[(5, LockMode::Exclusive)]),
            loc(2, &[(6, LockMode::Exclusive)]),
        ];
        let loads = vec![(ClientId(5), 10, 1.0), (ClientId(6), 1, 1.0)];
        let best = ClientServerSim::h2_choose(ClientId(0), &accesses, &locations, &loads);
        assert_eq!(best, ClientId(6));
    }
}
