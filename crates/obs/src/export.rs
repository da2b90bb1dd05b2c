//! Trace exporters: JSONL and Chrome `trace_event` format.
//!
//! Both writers are hand-rolled (the workspace is dependency-free) and emit
//! only integers and `Display`-stable identifier strings, so output is
//! byte-identical across runs at the same seed.

use std::fmt::Write as _;

use siteselect_types::{HashMap, SimTime, SiteId, TransactionId};

use crate::event::Event;
use crate::sink::TraceRecord;

/// Serializes records as one JSON object per line.
///
/// # Example
///
/// ```
/// use siteselect_obs::{export, Event, TraceRecord};
/// use siteselect_types::{ClientId, SimTime, SiteId, TransactionId};
///
/// let rec = TraceRecord {
///     time: SimTime::from_micros(42),
///     seq: 0,
///     site: SiteId::Server,
///     event: Event::ExecStart { txn: TransactionId::new(ClientId(1), 7) },
/// };
/// let line = export::jsonl(&[rec]);
/// assert_eq!(
///     line,
///     "{\"t\":42,\"seq\":0,\"site\":\"server\",\"kind\":\"exec_start\",\"txn\":\"txn#1.7\"}\n"
/// );
/// ```
#[must_use]
pub fn jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 96);
    for rec in records {
        let _ = write!(
            out,
            r#"{{"t":{},"seq":{},"site":"{}","kind":"{}""#,
            rec.time.as_micros(),
            rec.seq,
            rec.site,
            rec.event.kind()
        );
        rec.event.write_json_fields(&mut out);
        out.push_str("}\n");
    }
    out
}

/// Process id used in the Chrome trace for a site: the server is 0, the
/// directory 1, client *c* is *c + 2*.
#[must_use]
pub fn site_pid(site: SiteId) -> u32 {
    match site {
        SiteId::Server => 0,
        SiteId::Directory => 1,
        SiteId::Client(c) => u32::from(c.0) + 2,
    }
}

/// Serializes records in Chrome `trace_event` JSON (open the file in
/// `chrome://tracing` or Perfetto).
///
/// Transaction lifecycles become duration (`"X"`) events spanning submit →
/// commit/abort on the originating client's track; causal spans become
/// named duration events on their site's span track; crash-restart
/// episodes become `wal_replay` (crash → replay finished) and
/// `rejoin_revalidation` (replay finished → rejoin) slices on the crashed
/// site's track (`site_down` when the site rejoins without a replay);
/// every record also appears as an instant (`"i"`) event carrying the full
/// payload.
#[must_use]
pub fn chrome_trace(records: &[TraceRecord]) -> String {
    let mut submits: HashMap<TransactionId, SimTime> = HashMap::default();
    let mut crashed: HashMap<SiteId, SimTime> = HashMap::default();
    let mut replayed: HashMap<SiteId, SimTime> = HashMap::default();
    let mut out = String::with_capacity(records.len() * 160 + 64);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut push_event = |out: &mut String, body: &str| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(body);
    };
    for rec in records {
        let pid = site_pid(rec.site);
        match &rec.event {
            Event::TxnSubmit { txn, .. } => {
                submits.insert(*txn, rec.time);
            }
            Event::Commit { txn, .. } | Event::Abort { txn, .. } => {
                if let Some(start) = submits.remove(txn) {
                    let dur = rec.time.duration_since(start).as_micros();
                    let mut span = String::new();
                    let _ = write!(
                        span,
                        r#"{{"name":"{txn}","cat":"txn","ph":"X","ts":{},"dur":{dur},"pid":{},"tid":0,"args":{{"outcome":"{}"}}}}"#,
                        start.as_micros(),
                        site_pid(SiteId::Client(txn.origin())),
                        rec.event.kind()
                    );
                    push_event(&mut out, &span);
                }
            }
            Event::Span {
                txn,
                kind,
                start,
                blocker,
            } => {
                let dur = rec.time.duration_since(*start).as_micros();
                let mut span = String::new();
                let _ = write!(
                    span,
                    r#"{{"name":"{}","cat":"span","ph":"X","ts":{},"dur":{dur},"pid":{pid},"tid":2,"args":{{"#,
                    kind.label(),
                    start.as_micros()
                );
                if let Some(t) = txn {
                    let _ = write!(span, r#""txn":"{t}""#);
                }
                if let Some(b) = blocker {
                    let _ = write!(span, r#","blocker":"{b}""#);
                }
                span.push_str("}}");
                push_event(&mut out, &span);
            }
            Event::SiteCrash { site } => {
                crashed.insert(*site, rec.time);
            }
            Event::RecoveryDone {
                site,
                redo,
                undone,
                losers,
                replay_ios,
            } => {
                if let Some(down) = crashed.remove(site) {
                    let dur = rec.time.duration_since(down).as_micros();
                    let mut span = String::new();
                    let _ = write!(
                        span,
                        r#"{{"name":"wal_replay","cat":"recovery","ph":"X","ts":{},"dur":{dur},"pid":{},"tid":0,"args":{{"redo":{redo},"undone":{undone},"losers":{losers},"replay_ios":{replay_ios}}}}}"#,
                        down.as_micros(),
                        site_pid(*site)
                    );
                    push_event(&mut out, &span);
                    replayed.insert(*site, rec.time);
                }
            }
            Event::SiteRecover { site } => {
                if let Some(done) = replayed.remove(site) {
                    let dur = rec.time.duration_since(done).as_micros();
                    let mut span = String::new();
                    let _ = write!(
                        span,
                        r#"{{"name":"rejoin_revalidation","cat":"recovery","ph":"X","ts":{},"dur":{dur},"pid":{},"tid":0,"args":{{}}}}"#,
                        done.as_micros(),
                        site_pid(*site)
                    );
                    push_event(&mut out, &span);
                } else if let Some(down) = crashed.remove(site) {
                    let dur = rec.time.duration_since(down).as_micros();
                    let mut span = String::new();
                    let _ = write!(
                        span,
                        r#"{{"name":"site_down","cat":"recovery","ph":"X","ts":{},"dur":{dur},"pid":{},"tid":0,"args":{{}}}}"#,
                        down.as_micros(),
                        site_pid(*site)
                    );
                    push_event(&mut out, &span);
                }
            }
            _ => {}
        }
        let mut inst = String::new();
        let _ = write!(
            inst,
            r#"{{"name":"{}","cat":"ev","ph":"i","s":"t","ts":{},"pid":{pid},"tid":1,"args":{{"seq":{}"#,
            rec.event.kind(),
            rec.time.as_micros(),
            rec.seq
        );
        rec.event.write_json_fields(&mut inst);
        inst.push_str("}}");
        push_event(&mut out, &inst);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use siteselect_types::ClientId;

    fn txn() -> TransactionId {
        TransactionId::new(ClientId(2), 9)
    }

    fn records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                time: SimTime::from_micros(100),
                seq: 0,
                site: SiteId::Client(ClientId(2)),
                event: Event::TxnSubmit {
                    txn: txn(),
                    deadline: SimTime::from_micros(900),
                    accesses: 2,
                },
            },
            TraceRecord {
                time: SimTime::from_micros(700),
                seq: 1,
                site: SiteId::Client(ClientId(2)),
                event: Event::Commit {
                    txn: txn(),
                    latency_us: 600,
                    slack_us: 200,
                },
            },
        ]
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let text = jsonl(&records());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        assert!(lines[0].contains(r#""kind":"txn_submit""#));
        assert!(lines[1].contains(r#""slack_us":200"#));
    }

    #[test]
    fn chrome_trace_pairs_submit_with_commit() {
        let text = chrome_trace(&records());
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.trim_end().ends_with("]}"));
        assert!(text.contains(r#""ph":"X","ts":100,"dur":600"#));
        // Two instants + one span.
        assert_eq!(text.matches(r#""ph":"i""#).count(), 2);
        assert_eq!(text.matches(r#""ph":"X""#).count(), 1);
    }

    #[test]
    fn pids_separate_sites() {
        assert_eq!(site_pid(SiteId::Server), 0);
        assert_eq!(site_pid(SiteId::Directory), 1);
        assert_eq!(site_pid(SiteId::Client(ClientId(0))), 2);
        assert_eq!(site_pid(SiteId::Client(ClientId(5))), 7);
    }

    #[test]
    fn chrome_trace_renders_spans_as_named_slices() {
        let recs = vec![TraceRecord {
            time: SimTime::from_micros(900),
            seq: 0,
            site: SiteId::Server,
            event: Event::Span {
                txn: Some(txn()),
                kind: crate::SpanKind::LockWait,
                start: SimTime::from_micros(400),
                blocker: Some(TransactionId::new(ClientId(1), 3)),
            },
        }];
        let text = chrome_trace(&recs);
        assert!(
            text.contains(r#""name":"lock_wait","cat":"span","ph":"X","ts":400,"dur":500"#),
            "{text}"
        );
        assert!(text.contains(r#""blocker":"txn#1.3""#), "{text}");
    }

    #[test]
    fn chrome_trace_renders_recovery_phases() {
        let site = SiteId::Server;
        let recs = vec![
            TraceRecord {
                time: SimTime::from_micros(100),
                seq: 0,
                site,
                event: Event::SiteCrash { site },
            },
            TraceRecord {
                time: SimTime::from_micros(700),
                seq: 1,
                site,
                event: Event::RecoveryDone {
                    site,
                    redo: 4,
                    undone: 2,
                    losers: 1,
                    replay_ios: 6,
                },
            },
            TraceRecord {
                time: SimTime::from_micros(750),
                seq: 2,
                site,
                event: Event::SiteRecover { site },
            },
        ];
        let text = chrome_trace(&recs);
        assert!(
            text.contains(r#""name":"wal_replay","cat":"recovery","ph":"X","ts":100,"dur":600"#),
            "{text}"
        );
        assert!(text.contains(r#""redo":4,"undone":2,"losers":1,"replay_ios":6"#), "{text}");
        assert!(
            text.contains(
                r#""name":"rejoin_revalidation","cat":"recovery","ph":"X","ts":700,"dur":50"#
            ),
            "{text}"
        );
    }

    #[test]
    fn chrome_trace_marks_replayless_rejoin_as_site_down() {
        let site = SiteId::Client(ClientId(3));
        let recs = vec![
            TraceRecord {
                time: SimTime::from_micros(10),
                seq: 0,
                site,
                event: Event::SiteCrash { site },
            },
            TraceRecord {
                time: SimTime::from_micros(90),
                seq: 1,
                site,
                event: Event::SiteRecover { site },
            },
        ];
        let text = chrome_trace(&recs);
        assert!(
            text.contains(r#""name":"site_down","cat":"recovery","ph":"X","ts":10,"dur":80"#),
            "{text}"
        );
    }

    #[test]
    fn abort_without_submit_still_renders_instant() {
        let recs = vec![TraceRecord {
            time: SimTime::from_micros(5),
            seq: 0,
            site: SiteId::Server,
            event: Event::Abort {
                txn: txn(),
                reason: siteselect_types::AbortReason::Deadlock,
            },
        }];
        let text = chrome_trace(&recs);
        assert!(!text.contains(r#""ph":"X""#));
        assert!(text.contains(r#""reason":"deadlock""#));
    }
}
