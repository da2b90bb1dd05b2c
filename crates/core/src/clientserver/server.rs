//! Server-side behaviour: the global client-granularity lock table,
//! callback recalls with downgrade, wait-for-graph admission, grant-all
//! rounds, collection windows / forward lists, location & load queries, and
//! the buffer/disk path that ships object payloads.

use siteselect_locks::{
    Acquire, CallbackTracker, ForwardEntry, ForwardList, LockTable, QueueDiscipline, Waiter,
    WaitForGraph, WindowManager, WindowOffer,
};
use siteselect_net::{Delivery, MessageKind};
use siteselect_storage::{ClientCache, DurableStore};
use siteselect_types::{AbortReason, ClientId, LockMode, ObjectId, ObjectMap, SimTime, SiteId, TransactionId};

use super::{ClientServerSim, Ev, Msg, SiteDest, TKey, WaitingWants, Want, WantInfo};

impl ClientServerSim {
    pub(crate) fn server_on_msg(&mut self, msg: Msg) {
        match msg {
            Msg::RequestBatch {
                txn,
                client,
                wants,
                grant_all,
            } => {
                if grant_all {
                    self.server_grant_all(txn, client, wants);
                } else {
                    for w in wants {
                        self.server_handle_want(txn, client, w);
                    }
                }
            }
            Msg::ObjectReturn {
                object,
                from,
                downgraded,
            } => self.server_on_return(object, from, downgraded),
            Msg::CallbackAck {
                object,
                from,
                had_copy,
            } => self.server_on_ack(object, from, had_copy),
            Msg::CancelWants { client, objects } => {
                for object in objects {
                    let (_, grants) = self.server.locks.cancel_wait(object, client);
                    self.server.waiting_wants.remove(object, client);
                    self.server_apply_grants(object, grants);
                }
                self.refresh_wfg(client);
            }
            Msg::LoadQuery { txn, objects } => self.server_on_load_query(txn, objects),
            _ => unreachable!("client message delivered to server"),
        }
    }

    // ------------------------------------------------------------------
    // Grant-all (LS first round)
    // ------------------------------------------------------------------

    /// The LS first round: the batch is processed exactly like a CS batch
    /// (grantable wants ship at once, the rest queue with callbacks or
    /// collection windows), and — when anything conflicted — the locations
    /// of the conflicting holders ride back to the client (§4), which may
    /// then cancel its queued requests and ship the transaction to a
    /// better site (H2).
    fn server_grant_all(&mut self, txn: TKey, client: ClientId, wants: Vec<Want>) {
        let conflicts: Vec<(ObjectId, Vec<(ClientId, LockMode)>)> = wants
            .iter()
            .filter_map(|w| {
                let holders: Vec<(ClientId, LockMode)> = self
                    .server
                    .locks
                    .holders(w.object)
                    .into_iter()
                    .filter(|&(h, m)| h != client && !m.compatible_with(w.mode))
                    .collect();
                let holders = self.with_routing_holders(w.object, holders);
                (!holders.is_empty()).then_some((w.object, holders))
            })
            .collect();
        for w in wants {
            self.server_handle_want(txn, client, w);
        }
        if !conflicts.is_empty() {
            let delivery = self.fabric.try_send(
                self.now,
                SiteId::Server,
                SiteId::Client(client),
                MessageKind::ConflictInfo,
                0,
            );
            self.push_delivery(
                delivery,
                SiteDest::Client(client),
                Msg::ConflictReport { txn, conflicts },
            );
        }
    }

    /// Reports the tail of a travelling forward list as the object's
    /// location (§4: "the server refers to the object's forward list and
    /// reports the last client in the list").
    fn with_routing_holders(
        &self,
        object: ObjectId,
        holders: Vec<(ClientId, LockMode)>,
    ) -> Vec<(ClientId, LockMode)> {
        if holders.is_empty() {
            if let Some(list) = self.server.routing.get(object) {
                if let Some(last) = list.last_client() {
                    return vec![(last, LockMode::Exclusive)];
                }
            }
        }
        holders
    }

    // ------------------------------------------------------------------
    // Individual requests (CS path and LS commit-local)
    // ------------------------------------------------------------------

    fn server_handle_want(&mut self, txn: TKey, client: ClientId, w: Want) {
        let ls = self.ls && self.cfg.load_sharing.forward_lists_enabled;
        // §3.3: the server refuses to work for already-expired requests.
        if self.ls && self.cfg.load_sharing.request_scheduling_enabled && w.deadline < self.now {
            self.server_reject(client, txn, true);
            return;
        }
        // Failure handling: a retransmit from a holder whose cached lock is
        // being called back must not be answered — the grant or re-ship
        // would cross the holder's own callback ack on the wire, and the
        // ack releases the lock, so a conflicting grant could coexist with
        // the re-shipped copy. Drop it; the ack (or the lease) settles the
        // lock and the client's next retry or deadline sweep settles the
        // transaction.
        if self.faults.active
            && self
                .server
                .callbacks
                .outstanding(w.object)
                .contains(&client)
        {
            return;
        }
        if let Some(held) = self.server.locks.held_mode(w.object, client) {
            if held.covers(w.mode) {
                self.server_ship(txn, client, vec![(w.object, w.mode, w.needs_data)]);
                return;
            }
        }
        // A travelling forward list leaves the lock table empty; the chain
        // tail stands in as the holder so the request batches behind the
        // chain instead of being granted against the in-flight copies.
        let holders = self.with_routing_holders(w.object, self.server.locks.holders(w.object));
        let conflicting: Vec<ClientId> = holders
            .iter()
            .filter(|&&(h, m)| h != client && !m.compatible_with(w.mode))
            .map(|&(h, _)| h)
            .collect();

        // Grouped-lock path: requests that arrive while the object is
        // already being chased (an outstanding recall, an open window, or a
        // travelling forward list) are *batched* instead of queued — the
        // first conflicting request always goes through the plain callback
        // immediately, so grouping never delays the uncontended case.
        // A routed object always batches: the server's copy is stale while
        // the chain travels (a chain client may write), so nothing may be
        // granted from it — not even to the chain's own tail, for whom
        // `conflicting` filters to empty.
        let forward_eligible = ls
            && (self.server.routing.contains(w.object)
                || (!conflicting.is_empty()
                    && (self.server.windows.is_open(w.object)
                        || self.server.callbacks.is_recalling(w.object))));
        if forward_eligible {
            let entry = ForwardEntry {
                client,
                txn: TransactionId::from_raw(txn),
                deadline: w.deadline,
                mode: w.mode,
            };
            if let WindowOffer::Opened { closes_at } =
                self.server.windows.offer(w.object, entry, self.now)
            {
                self.queue
                    .push(closes_at, Ev::WindowClose { object: w.object });
            }
            return;
        }

        self.server_want_plain(txn, client, w, conflicting);
    }

    /// The plain (CS-RTDBS) path: queue in the lock table under deadlock
    /// avoidance and recall conflicting cached locks.
    fn server_want_plain(&mut self, txn: TKey, client: ClientId, w: Want, conflicting: Vec<ClientId>) {
        // Failure handling: a retransmitted request whose original is still
        // queued must not double-queue in the lock table.
        if self.faults.active && self.server.waiting_wants.contains(w.object, client) {
            return;
        }
        if self.server.wfg.would_deadlock(client, &conflicting) {
            self.server_reject(client, txn, false);
            return;
        }
        match self
            .server
            .locks
            .request(w.object, client, w.mode, w.deadline)
        {
            Acquire::Granted | Acquire::AlreadyHeld | Acquire::Upgraded => {
                self.server_ship(txn, client, vec![(w.object, w.mode, w.needs_data)]);
            }
            Acquire::Blocked { conflicts } => {
                self.server.waiting_wants.insert(
                    w.object,
                    client,
                    WantInfo {
                        mode: w.mode,
                        needs_data: w.needs_data,
                        deadline: w.deadline,
                        txn,
                        queued_at: self.now,
                    },
                );
                self.server.wfg.add_waits(client, conflicts);
                // Call back the conflicting cached locks.
                let targets = self.server.callbacks.begin_at(
                    w.object,
                    conflicting.clone(),
                    w.mode,
                    self.now,
                );
                for t in targets {
                    let delivery = self.fabric.try_send(
                        self.now,
                        SiteId::Server,
                        SiteId::Client(t),
                        MessageKind::Recall,
                        0,
                    );
                    // A lost recall is recovered by the callback lease: the
                    // server presumes the silent holder dead and reclaims.
                    self.push_delivery(
                        delivery,
                        SiteDest::Client(t),
                        Msg::Recall {
                            object: w.object,
                            desired: w.mode,
                            forward: None,
                        },
                    );
                }
            }
        }
    }

    fn server_reject(&mut self, client: ClientId, txn: TKey, expired: bool) {
        self.sink.emit(self.now, SiteId::Server, || {
            siteselect_obs::Event::ServerReject {
                txn: TransactionId::from_raw(txn),
                expired,
            }
        });
        let delivery = self.fabric.try_send(
            self.now,
            SiteId::Server,
            SiteId::Client(client),
            MessageKind::ConflictInfo,
            0,
        );
        self.push_delivery(delivery, SiteDest::Client(client), Msg::Rejected { txn, expired });
    }

    // ------------------------------------------------------------------
    // Shipping
    // ------------------------------------------------------------------

    /// Ships granted `(object, mode, with_data)` items to `client`. Items
    /// already in the server buffer go on the wire immediately; items that
    /// miss ship when their disk reads complete, so a buffered object is
    /// never delayed behind a co-requested miss. `txn` attributes the disk
    /// span of a miss to the requesting transaction.
    pub(crate) fn server_ship(
        &mut self,
        txn: TKey,
        client: ClientId,
        items: Vec<(ObjectId, LockMode, bool)>,
    ) {
        let mut ready = Vec::new();
        let mut missed = Vec::new();
        for item in items {
            let (object, _, with_data) = item;
            if with_data {
                let hit = self.server.buffer.probe(object).is_some();
                if self.now >= self.warmup_end {
                    self.metrics.server_buffer.record(hit);
                }
                if hit {
                    ready.push(item);
                } else {
                    self.server.buffer.insert(object);
                    missed.push(item);
                }
            } else {
                ready.push(item);
            }
        }
        if !ready.is_empty() {
            self.server_ship_now(client, ready);
        }
        if !missed.is_empty() {
            let done = self
                .server
                .disk
                .schedule_batch(self.now, missed.len() as u32);
            self.queue.push(
                done,
                Ev::ServerFetchDone {
                    to: client,
                    txn,
                    items: missed,
                    scheduled_at: self.now,
                },
            );
        }
    }

    /// Puts the grant batch on the wire (buffer already warm).
    pub(crate) fn server_ship_now(&mut self, to: ClientId, items: Vec<(ObjectId, LockMode, bool)>) {
        let with_data = items.iter().filter(|(_, _, d)| *d).count() as u32;
        let lock_only = items.len() as u32 - with_data;
        let mut delivery = Delivery::Delivered(self.now);
        if with_data > 0 {
            delivery = self.fabric.try_send_counted(
                self.now,
                SiteId::Server,
                SiteId::Client(to),
                MessageKind::ObjectSend,
                with_data,
                with_data,
            );
        }
        if lock_only > 0 {
            let locks = self.fabric.try_send_counted(
                self.now,
                SiteId::Server,
                SiteId::Client(to),
                MessageKind::LockGrant,
                0,
                lock_only,
            );
            // The batch resolves as one unit: losing either frame loses it
            // (the client's retries re-request everything outstanding).
            delivery = match (delivery, locks) {
                (Delivery::Delivered(a), Delivery::Delivered(b)) => Delivery::Delivered(a.max(b)),
                _ => Delivery::Dropped,
            };
        }
        self.push_delivery(delivery, SiteDest::Client(to), Msg::GrantBatch { items });
    }

    // ------------------------------------------------------------------
    // Returns, acks and grant cascades
    // ------------------------------------------------------------------

    fn server_on_return(&mut self, object: ObjectId, from: ClientId, downgraded: bool) {
        self.server.buffer.insert(object);
        // Durable apply: a returned object carries the newest committed
        // version, so it is WAL-logged and force-committed under a
        // server-local pseudo-transaction before any volatile bookkeeping —
        // a crash from here on replays this write instead of losing it.
        self.server.pseudo_seq += 1;
        let pseudo = (1u64 << 63) | self.server.pseudo_seq;
        let checkpoints = self.server.store.checkpoints();
        let stamp = self.server.store.write(pseudo, object);
        self.server.store.commit(pseudo);
        self.sink.emit(self.now, SiteId::Server, || {
            siteselect_obs::Event::WalWrite {
                txn: TransactionId::from_raw(pseudo),
                page: object,
                stamp,
            }
        });
        self.sink.emit(self.now, SiteId::Server, || {
            siteselect_obs::Event::WalCommit {
                txn: TransactionId::from_raw(pseudo),
            }
        });
        if self.server.store.checkpoints() > checkpoints {
            let active = self.server.store.active_txns() as u32;
            let log_records = self.server.store.log_records();
            self.sink.emit(self.now, SiteId::Server, || {
                siteselect_obs::Event::WalCheckpoint {
                    active,
                    log_records,
                }
            });
        }
        self.server.callbacks.acknowledge(object, from);
        self.sink.emit(self.now, SiteId::Server, || {
            siteselect_obs::Event::CallbackAcked { object, from }
        });
        // The end of a forward chain: the object is home again.
        self.server.routing.remove(object);
        let grants = if downgraded {
            self.server.locks.downgrade(object, from)
        } else {
            self.server.locks.release(object, from)
        };
        self.server_apply_grants(object, grants);
    }

    fn server_on_ack(&mut self, object: ObjectId, from: ClientId, had_copy: bool) {
        self.server.callbacks.acknowledge(object, from);
        self.sink.emit(self.now, SiteId::Server, || {
            siteselect_obs::Event::CallbackAcked { object, from }
        });
        let grants = self.server.locks.release(object, from);
        self.server_apply_grants(object, grants);
        if !had_copy {
            // The recalled holder could not serve the forward list that
            // rode on the callback; the server serves it from its own copy.
            if let Some(list) = self.server.routing.remove(object) {
                self.serve_list_from_server(object, list);
            }
        }
    }

    /// Completes grants that cascaded out of a release/downgrade/cancel.
    pub(crate) fn server_apply_grants(&mut self, object: ObjectId, granted: Vec<Waiter<ClientId>>) {
        for w in granted {
            let client = w.owner;
            let Some(info) = self.server.waiting_wants.remove(object, client) else {
                // No want on file (cancelled or raced): undo the grant.
                let grants = self.server_undo_grant(object, client, w.upgrade);
                self.server_apply_grants(object, grants);
                continue;
            };
            self.refresh_wfg(client);
            if self.ls
                && self.cfg.load_sharing.request_scheduling_enabled
                && info.deadline < self.now
            {
                // §3.3: do not ship to a transaction that already missed.
                let grants = self.server_undo_grant(object, client, w.upgrade);
                self.server_reject(client, info.txn, true);
                self.server_apply_grants(object, grants);
                continue;
            }
            // The want waited in the server's lock queue from enqueue to
            // this grant.
            self.emit_span(
                SiteId::Server,
                info.txn,
                siteselect_obs::SpanKind::LockWait,
                info.queued_at,
                None,
            );
            self.server_ship(info.txn, client, vec![(object, info.mode, info.needs_data)]);
        }
    }

    /// Takes back a cascaded grant that will never ship. An upgrade grant
    /// converted the client's held shared lock in place, and the client
    /// still caches that shared copy — so it reverts to shared; anything
    /// else is released outright.
    fn server_undo_grant(
        &mut self,
        object: ObjectId,
        client: ClientId,
        upgrade: bool,
    ) -> Vec<Waiter<ClientId>> {
        if upgrade {
            self.server.locks.downgrade(object, client)
        } else {
            self.server.locks.release(object, client)
        }
    }

    /// Recomputes a client's wait-for edges from its queued wants.
    pub(crate) fn refresh_wfg(&mut self, client: ClientId) {
        self.server.wfg.clear_waits(client);
        let wants: Vec<(ObjectId, LockMode)> = self
            .server
            .waiting_wants
            .of_client(client)
            .iter()
            .map(|&(o, info)| (o, info.mode))
            .collect();
        for (object, mode) in wants {
            let conflicts = self.server.locks.conflicting_holders(object, client, mode);
            self.server.wfg.add_waits(client, conflicts);
        }
    }

    // ------------------------------------------------------------------
    // Collection windows and forward lists
    // ------------------------------------------------------------------

    #[expect(clippy::indexing_slicing, reason = "list.len() == 1 is checked on the line above")]
    pub(crate) fn server_on_window_close(&mut self, object: ObjectId) {
        let Some(list) = self.server.windows.close_at(object, self.now) else {
            return;
        };
        let still_busy = self.server.routing.contains(object)
            || self.server.callbacks.is_recalling(object);
        if still_busy {
            // The object is still travelling or being recalled for the
            // plain-path waiter: keep collecting until it comes home.
            self.server_reoffer_window(object, list);
            return;
        }
        if list.len() == 1 {
            // A window that collected only one request gains nothing from
            // grouping: serve it as a plain recall, which also lets an
            // exclusive holder downgrade and keep its cached copy.
            let e = list.entries()[0];
            let w = Want {
                object,
                mode: e.mode,
                needs_data: true,
                deadline: e.deadline,
            };
            let conflicting: Vec<ClientId> = self
                .server
                .locks
                .holders(object)
                .into_iter()
                .filter(|&(h, m)| h != e.client && !m.compatible_with(e.mode))
                .map(|(h, _)| h)
                .collect();
            self.server_want_plain(e.txn.as_u64(), e.client, w, conflicting);
            return;
        }
        let holders = self.server.locks.holders(object);
        let el_holder = holders
            .iter()
            .find(|(_, m)| m.is_exclusive())
            .map(|&(h, _)| h);
        match el_holder {
            Some(holder) if self.server.locks.waiters(object).is_empty() => {
                // One recall carries the whole forward list; the holder
                // ships the object down the chain and the last client
                // returns it (2n+1 messages, §3.4).
                let delivery = self.fabric.try_send(
                    self.now,
                    SiteId::Server,
                    SiteId::Client(holder),
                    MessageKind::Recall,
                    0,
                );
                if delivery == Delivery::Dropped {
                    // The chain never started, so the holder keeps its
                    // lock — the table entry is what fences its cached
                    // exclusive from later grants. A callback lease makes
                    // the loss recoverable (a dead holder is reclaimed at
                    // expiry); until then the batch keeps collecting.
                    self.server
                        .callbacks
                        .begin_at(object, [holder], LockMode::Exclusive, self.now);
                    self.server_reoffer_window(object, list);
                    return;
                }
                self.server.routing.insert(object, list.clone());
                let grants = self.server.locks.release(object, holder);
                debug_assert!(grants.is_empty(), "no queue behind a routed object");
                self.push_delivery(
                    delivery,
                    SiteDest::Client(holder),
                    Msg::Recall {
                        object,
                        desired: LockMode::Exclusive,
                        forward: Some(list),
                    },
                );
            }
            Some(_) => {
                // A holder remains but plain-path waiters are queued: let
                // the callback complete and collect a little longer.
                self.server_reoffer_window(object, list);
            }
            None if holders.is_empty() => {
                // The object is home: serve the batch from the server's own
                // copy as a client-to-client chain.
                self.serve_list_from_server(object, list);
            }
            None => {
                // Shared cached copies remain. A batch of shared requests
                // can be served alongside them, but an exclusive entry
                // needs the cached copies called back first.
                if list
                    .entries()
                    .iter()
                    .all(|e| e.mode == LockMode::Shared)
                {
                    self.serve_list_from_server(object, list);
                    return;
                }
                let targets = self.server.callbacks.begin_at(
                    object,
                    holders.iter().map(|&(h, _)| h),
                    LockMode::Exclusive,
                    self.now,
                );
                for t in targets {
                    let delivery = self.fabric.try_send(
                        self.now,
                        SiteId::Server,
                        SiteId::Client(t),
                        MessageKind::Recall,
                        0,
                    );
                    // A lost recall is recovered by the callback lease.
                    self.push_delivery(
                        delivery,
                        SiteDest::Client(t),
                        Msg::Recall {
                            object,
                            desired: LockMode::Exclusive,
                            forward: None,
                        },
                    );
                }
                self.server_reoffer_window(object, list);
            }
        }
    }

    /// Puts a closed window's entries back into a fresh collection window
    /// (the object is not yet servable) and schedules its close.
    fn server_reoffer_window(&mut self, object: ObjectId, list: ForwardList) {
        let mut reopen_close = None;
        for e in list.entries().iter().copied() {
            if let WindowOffer::Opened { closes_at } =
                self.server.windows.offer(object, e, self.now)
            {
                reopen_close = Some(closes_at);
            }
        }
        if let Some(at) = reopen_close {
            self.queue.push(at, Ev::WindowClose { object });
        }
    }

    /// Ships a forward list starting from the server's copy of the object.
    pub(crate) fn serve_list_from_server(&mut self, object: ObjectId, mut list: ForwardList) {
        // Skip expired requesters and (failure handling) crashed ones.
        let next = loop {
            let (next, _skipped) = list.pop_next_live(self.now);
            match next {
                Some(e) if !self.site_up(e.client) => continue,
                other => break other,
            }
        };
        let Some(entry) = next else {
            return; // every requester expired or crashed; the object stays home
        };
        self.server.buffer.insert(object);
        if list.is_empty() {
            // Single live entry: an ordinary tracked grant.
            match self
                .server
                .locks
                .request(object, entry.client, entry.mode, entry.deadline)
            {
                Acquire::Granted | Acquire::AlreadyHeld | Acquire::Upgraded => {
                    self.server_ship(entry.txn.as_u64(), entry.client, vec![(object, entry.mode, true)]);
                }
                Acquire::Blocked { .. } => {
                    // Another client claimed the object in the meantime:
                    // fall back to the plain path.
                    self.server.waiting_wants.insert(
                        object,
                        entry.client,
                        WantInfo {
                            mode: entry.mode,
                            needs_data: true,
                            deadline: entry.deadline,
                            txn: entry.txn.as_u64(),
                            queued_at: self.now,
                        },
                    );
                }
            }
            return;
        }
        // A real chain: route it untracked; the last client returns the
        // object.
        self.server.routing.insert(object, list.clone());
        let to = entry.client;
        self.sink.emit(self.now, SiteId::Server, || {
            siteselect_obs::Event::ForwardHop { object, to }
        });
        let delivery = self.fabric.try_send(
            self.now,
            SiteId::Server,
            SiteId::Client(entry.client),
            MessageKind::ObjectSend,
            1,
        );
        // A dropped ObjectForward clears the routing entry again (see
        // `on_dropped_delivery`).
        self.push_delivery(
            delivery,
            SiteDest::Client(entry.client),
            Msg::ObjectForward {
                object,
                mode: entry.mode,
                rest: list,
            },
        );
    }

    // ------------------------------------------------------------------
    // Location / load queries
    // ------------------------------------------------------------------

    fn server_on_load_query(&mut self, txn: TKey, objects: Vec<ObjectId>) {
        let locations: Vec<(ObjectId, Vec<(ClientId, LockMode)>)> = objects
            .iter()
            .map(|&o| {
                let holders = self.server.locks.holders(o);
                (o, self.with_routing_holders(o, holders))
            })
            .collect();
        // Load information is piggybacked on the constant client-server
        // traffic (§4), so the server's view is current: read it live.
        let loads: Vec<(ClientId, usize, f64)> = self
            .clients
            .iter()
            .map(|c| (c.id, c.load(), c.atl()))
            .collect();
        let client = TransactionId::from_raw(txn).origin();
        let delivery = self.fabric.try_send(
            self.now,
            SiteId::Server,
            SiteId::Client(client),
            MessageKind::LoadReply,
            0,
        );
        // A lost reply leaves the transaction in AwaitInfo until the
        // deadline sweep reaps it — a miss, never a hang.
        self.push_delivery(
            delivery,
            SiteDest::Client(client),
            Msg::LoadReply {
                txn,
                locations,
                loads,
            },
        );
    }

    // ------------------------------------------------------------------
    // Sweeps
    // ------------------------------------------------------------------

    pub(crate) fn server_sweep(&mut self) {
        self.reclaim_expired_leases();
        let (expired, grants) = self.server.locks.cancel_expired(self.now);
        let mut touched: Vec<ClientId> = Vec::new();
        for (object, waiter) in expired {
            self.server.waiting_wants.remove(object, waiter.owner);
            if !touched.contains(&waiter.owner) {
                touched.push(waiter.owner);
            }
        }
        for client in touched {
            self.refresh_wfg(client);
        }
        for (object, waiters) in grants {
            self.server_apply_grants(object, waiters);
        }
    }

    /// Failure handling: callbacks unanswered past the lease are presumed
    /// lost with their holder. The server reclaims the lock, fences the
    /// holder's cached copy (so a zombie or recovered site cannot serve
    /// stale data) and grants the waiters from its own copy. Inert unless
    /// faults are injected and a non-zero lease is configured.
    #[expect(
        clippy::indexing_slicing,
        reason = "holder is a ClientId issued at construction; clients holds one entry per client"
    )]
    fn reclaim_expired_leases(&mut self) {
        let lease = self.cfg.faults.callback_lease;
        if !self.faults.active || lease.is_zero() {
            return;
        }
        for (object, holder) in self.server.callbacks.expired(self.now, lease) {
            self.metrics.faults.leases_expired += 1;
            self.sink.emit(self.now, SiteId::Server, || {
                siteselect_obs::Event::LeaseExpired { object, holder }
            });
            self.server.callbacks.acknowledge(object, holder);
            let grants = self.server.locks.release(object, holder);
            // Fence the presumed-dead holder. If it was merely slow, the
            // invalidation is conservative but safe: it must re-fetch.
            let c = &mut self.clients[holder.index()];
            c.cached_locks.remove(object);
            c.cache.invalidate(object);
            c.dirty.remove(object);
            c.revokes.remove(&object);
            self.sink.emit(self.now, SiteId::Server, || {
                siteselect_obs::Event::CacheDrop {
                    client: holder,
                    object,
                }
            });
            // The fence must also kill the holder's in-flight local users
            // of the object: a zombie that already read the fenced copy
            // would otherwise commit against locks the server has re-granted
            // (its commit would fail the lease check in a real system).
            let zombies: Vec<TKey> = self.clients[holder.index()]
                .local_locks
                .holders(object)
                .into_iter()
                .map(|(owner, _)| owner)
                .collect();
            for key in zombies {
                self.abort_txn(holder.index(), key, AbortReason::SiteCrash);
            }
            self.server_apply_grants(object, grants);
        }
        // A forward chain whose every requester deadline has passed can no
        // longer terminate by itself (a crashed intermediary may have
        // swallowed the object): the server's copy becomes authoritative
        // again, which also lets stalled collection windows drain.
        let now = self.now;
        self.server
            .routing
            .retain(|_, l| l.entries().iter().any(|e| e.deadline >= now));
    }

    // ------------------------------------------------------------------
    // Server crash-restart
    // ------------------------------------------------------------------

    /// The server crashes: volatile state (lock table, WFG, callback and
    /// window managers, buffer pool, routing and queued wants, plus the
    /// staged log tail past a random cut) is lost; the WAL and the durable
    /// pages survive. Clients keep running against their caches — their
    /// outstanding requests die silently and are re-driven by retries or
    /// reaped by the deadline sweeps.
    pub(crate) fn on_server_crash(&mut self) {
        if !self.faults.server_up {
            return; // scheduled crash landed while already down
        }
        self.faults.server_up = false;
        self.faults.server_crashed_at = Some(self.now);
        self.metrics.faults.crashes += 1;
        self.sink.emit(self.now, SiteId::Server, || {
            siteselect_obs::Event::SiteCrash {
                site: SiteId::Server,
            }
        });
        self.fabric.set_site_down(SiteId::Server);
        let clients = self.clients.len();
        self.server.locks = LockTable::new(QueueDiscipline::Fifo);
        self.server.wfg = WaitForGraph::new();
        self.server.callbacks = CallbackTracker::new();
        self.server.callbacks.set_sink(self.sink.clone());
        self.server.windows = WindowManager::new(self.cfg.load_sharing.collection_window);
        self.server.windows.set_sink(self.sink.clone());
        self.server.buffer = ClientCache::new(self.cfg.server.buffer_objects, 0);
        self.server.routing = ObjectMap::new();
        self.server.waiting_wants = WaitingWants::new(clients);
        if self.cfg.faults.mean_recovery_time.is_zero() {
            return; // permanent crash: the site stays dark
        }
        // Crash the durable store (a random cut of the staged tail may
        // leave a torn final record) and replay its surviving log.
        let frames = self.cfg.server.buffer_objects.max(1);
        let keep = self
            .faults
            .crash_prng
            .below_usize(self.server.store.staged_len() + 1);
        let dead = std::mem::replace(&mut self.server.store, DurableStore::new(1, 1));
        let (log, disk) = dead.crash(keep);
        let (recovered, outcome) = DurableStore::restart(&log, disk, frames);
        self.server.store = recovered;
        // Reboot lag, then the replay's I/O at the (possibly slow) disk.
        let back = self.now
            + self
                .faults
                .crash_prng
                .exp_duration(self.cfg.faults.mean_recovery_time);
        let ios = u32::try_from(outcome.replay_ios()).unwrap_or(u32::MAX);
        let ready = if ios == 0 {
            back
        } else {
            self.server.disk.schedule_batch(back, ios)
        };
        self.faults.pending_recovery = Some(outcome);
        self.queue.push(ready, Ev::ServerRecover);
    }

    /// Replay finished: the server rejoins with only durable state, then
    /// re-derives its client-granularity lock table from the surviving
    /// clients' cached locks — the model's stand-in for clients
    /// revalidating their leases on reconnect (the callback table starts
    /// empty and is rebuilt on demand). A cached copy that no longer fits
    /// (possible only via a grant in flight at the crash instant) is fenced
    /// so its holder must re-fetch.
    #[expect(
        clippy::indexing_slicing,
        reason = "ci is a ClientId index issued at construction; clients and faults.up hold one entry per client and never shrink"
    )]
    pub(crate) fn on_server_recover(&mut self) {
        self.faults.server_up = true;
        self.fabric.set_site_up(SiteId::Server);
        self.metrics.faults.recoveries += 1;
        let outcome = self.faults.pending_recovery.take().unwrap_or_default();
        let (redo, undone) = (outcome.redo_applied, outcome.undone);
        let (losers, replay_ios) = (outcome.losers.len() as u32, outcome.replay_ios());
        self.sink.emit(self.now, SiteId::Server, || {
            siteselect_obs::Event::RecoveryDone {
                site: SiteId::Server,
                redo,
                undone,
                losers,
                replay_ios,
            }
        });
        // Post-replay durable state, in ascending page order: the recovery
        // oracle checks these stamps against the committed history.
        if self.sink.is_enabled() {
            for (page, stamp) in self.server.store.stamps() {
                self.sink.emit(self.now, SiteId::Server, || {
                    siteselect_obs::Event::WalState { page, stamp }
                });
            }
        }
        for ci in 0..self.clients.len() {
            if !self.faults.up[ci] {
                continue; // a crashed client has nothing to revalidate
            }
            let id = self.clients[ci].id;
            let locks: Vec<(ObjectId, LockMode)> = self.clients[ci]
                .cached_locks
                .iter()
                .map(|(o, m)| (o, *m))
                .collect();
            for (object, mode) in locks {
                match self.server.locks.request(object, id, mode, SimTime::MAX) {
                    Acquire::Granted | Acquire::AlreadyHeld | Acquire::Upgraded => {}
                    Acquire::Blocked { .. } => {
                        let _ = self.server.locks.cancel_wait(object, id);
                        let c = &mut self.clients[ci];
                        c.cached_locks.remove(object);
                        c.cache.invalidate(object);
                        c.dirty.remove(object);
                        c.revokes.remove(&object);
                        self.sink.emit(self.now, SiteId::Server, || {
                            siteselect_obs::Event::CacheDrop { client: id, object }
                        });
                    }
                }
            }
        }
        self.sink.emit(self.now, SiteId::Server, || {
            siteselect_obs::Event::SiteRecover {
                site: SiteId::Server,
            }
        });
        // Site-scoped replay span: the outage window (down + WAL replay
        // until rejoin) blames every transaction it overlaps.
        if let Some(start) = self.faults.server_crashed_at.take() {
            self.sink.emit(self.now, SiteId::Server, || {
                siteselect_obs::Event::Span {
                    txn: None,
                    kind: siteselect_obs::SpanKind::Replay,
                    start,
                    blocker: None,
                }
            });
        }
        // The rebuilt lock table remembers nothing of the transactional
        // (non-cached) grants that were in flight at the crash, so a
        // transaction alive across the outage could commit against locks
        // the server has silently re-granted. On reconnect every such
        // in-flight transaction aborts instead — which also cancels its
        // outstanding fetches, disarming the post-recovery retry storm.
        for ci in 0..self.clients.len() {
            if !self.faults.up[ci] {
                continue; // a crashed client's work already died with it
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "collected, then sorted before the abort cascade"
            )]
            let mut stranded: Vec<TKey> =
                self.clients[ci].txns.keys().copied().collect();
            stranded.sort_unstable();
            for key in stranded {
                self.abort_txn(ci, key, AbortReason::SiteCrash);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siteselect_types::{ExperimentConfig, SimTime, SystemKind};

    fn sim(system: SystemKind) -> ClientServerSim {
        let mut cfg = ExperimentConfig::paper(system, 4, 0.05);
        cfg.runtime.duration = siteselect_types::SimDuration::from_secs(50);
        cfg.runtime.warmup = siteselect_types::SimDuration::from_secs(5);
        ClientServerSim::new(cfg)
    }

    #[test]
    fn grant_all_round_grants_free_objects_and_reports_conflicts() {
        let mut s = sim(SystemKind::LoadSharing);
        // Client 1 holds object 1 exclusively; object 2 is free.
        s.server
            .locks
            .request(ObjectId(1), ClientId(1), LockMode::Exclusive, SimTime::MAX);
        let wants = vec![
            Want {
                object: ObjectId(1),
                mode: LockMode::Exclusive,
                needs_data: true,
                deadline: SimTime::from_secs(100),
            },
            Want {
                object: ObjectId(2),
                mode: LockMode::Shared,
                needs_data: true,
                deadline: SimTime::from_secs(100),
            },
        ];
        s.server_on_msg(Msg::RequestBatch {
            txn: 7,
            client: ClientId(0),
            wants,
            grant_all: true,
        });
        // The free object was granted immediately...
        assert_eq!(
            s.server.locks.held_mode(ObjectId(2), ClientId(0)),
            Some(LockMode::Shared)
        );
        // ...the conflicted one queued with a recall to the holder...
        assert!(s.server.callbacks.is_recalling(ObjectId(1)));
        // ...and a conflict report went out alongside the grant.
        let kinds: Vec<&Msg> = Vec::new();
        drop(kinds);
        assert!(s.server.waiting_wants.contains(ObjectId(1), ClientId(0)));
    }

    #[test]
    fn routing_location_reports_last_client() {
        let mut s = sim(SystemKind::LoadSharing);
        let mut list = ForwardList::new(ObjectId(3));
        list.push(ForwardEntry {
            client: ClientId(2),
            txn: TransactionId::new(ClientId(2), 1),
            deadline: SimTime::from_secs(50),
            mode: LockMode::Exclusive,
        });
        list.push(ForwardEntry {
            client: ClientId(3),
            txn: TransactionId::new(ClientId(3), 1),
            deadline: SimTime::from_secs(80),
            mode: LockMode::Exclusive,
        });
        s.server.routing.insert(ObjectId(3), list);
        let holders = s.with_routing_holders(ObjectId(3), vec![]);
        assert_eq!(holders, vec![(ClientId(3), LockMode::Exclusive)]);
    }
}
