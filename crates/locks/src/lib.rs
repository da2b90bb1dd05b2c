//! Locking substrate for the `siteselect` systems.
//!
//! Implements every locking mechanism the paper's three prototypes rely on:
//!
//! * [`LockTable`] — a strict-2PL lock table with Shared/Exclusive modes,
//!   upgrades, downgrades and either FIFO or deadline-ordered (ED) waiter
//!   queues. It is generic over the owner type: the server's *global* table
//!   is keyed by client (clients cache locks, §2), while the per-site local
//!   tables are keyed by transaction.
//! * [`WaitForGraph`] — cycle detection used by the servers to refuse lock
//!   requests that would deadlock ("added to the request queue only if it
//!   does not cause a deadlock cycle", §5.1).
//! * [`CallbackTracker`] — the callback protocol with the paper's downgrade
//!   optimization: a holder asked to give up an EL for a requester that only
//!   wants an SL downgrades to SL and keeps the object (§2).
//! * [`ForwardList`] / [`WindowManager`] — grouped locks (§3.4): the server
//!   collects lock requests on an object during a *collection window*, then
//!   grants to the earliest deadline and ships the object together with the
//!   deadline-ordered forward list; the object hops client→client and the
//!   last client returns it (2n+1 messages instead of 3n/4n).
//! * [`protocol_costs`] — executable reproductions of Figures 1 and 2.
//!
//! # Example
//!
//! ```
//! use siteselect_locks::{Acquire, LockTable, QueueDiscipline};
//! use siteselect_types::{ClientId, LockMode, ObjectId, SimTime};
//!
//! let mut table: LockTable<ClientId> = LockTable::new(QueueDiscipline::Deadline);
//! let obj = ObjectId(1);
//! let a = ClientId(0);
//! let b = ClientId(1);
//! assert!(matches!(
//!     table.request(obj, a, LockMode::Exclusive, SimTime::from_secs(10)),
//!     Acquire::Granted
//! ));
//! // B conflicts and must wait behind A.
//! assert!(matches!(
//!     table.request(obj, b, LockMode::Shared, SimTime::from_secs(5)),
//!     Acquire::Blocked { .. }
//! ));
//! let granted = table.release(obj, a);
//! assert_eq!(granted.len(), 1);
//! assert_eq!(granted[0].owner, b);
//! ```

// D9 (DESIGN.md §11): a panic in engine library code would invalidate a
// replay or pass for a site crash in the recovery oracle. Each accepted
// site carries `#[expect(…, reason = "<invariant>")]` on its fn; tests
// are exempt via clippy.toml.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

pub mod callback;
pub mod forward;
pub mod protocol_costs;
#[cfg(test)]
mod reference;
pub mod table;
pub mod waitfor;
pub mod window;

pub use callback::{CallbackTracker, RecallProgress};
pub use forward::{ForwardEntry, ForwardList};
pub use table::{Acquire, LockTable, QueueDiscipline, Waiter};
pub use waitfor::WaitForGraph;
pub use window::{WindowManager, WindowOffer};
