//! Commit-history recording and conflict-serializability checking.
//!
//! Every object carries a version counter in its first page word. Readers
//! record the version they observed; writers record the version transition
//! they performed. The checker rebuilds the per-object version order and
//! verifies that the induced precedence graph over transactions is acyclic
//! — the standard conflict-serializability test.

use std::fmt;

use crate::sync::Mutex;
use siteselect_types::{HashMap, HashSet, ObjectId, TransactionId};

/// One recorded access by a committed transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// The transaction read the object at this version.
    Read {
        /// Reader.
        txn: TransactionId,
        /// Object read.
        object: ObjectId,
        /// Version observed.
        version: u64,
    },
    /// The transaction advanced the object from `from` to `from + 1`.
    Write {
        /// Writer.
        txn: TransactionId,
        /// Object written.
        object: ObjectId,
        /// Version it replaced.
        from: u64,
    },
}

impl Op {
    /// The object this operation touched.
    #[must_use]
    pub fn object(&self) -> ObjectId {
        match *self {
            Op::Read { object, .. } | Op::Write { object, .. } => object,
        }
    }
}

/// Why a history failed the serializability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerializabilityError {
    /// Two committed writers claim the same version transition.
    ConflictingWrites {
        /// Object with the duplicate transition.
        object: ObjectId,
        /// Version written twice.
        version: u64,
    },
    /// The precedence graph has a cycle through this transaction.
    Cycle {
        /// A transaction on the cycle.
        witness: TransactionId,
    },
}

impl fmt::Display for SerializabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SerializabilityError::ConflictingWrites { object, version } => {
                write!(f, "two committed writes produced version {version} of {object}")
            }
            SerializabilityError::Cycle { witness } => {
                write!(f, "precedence cycle through {witness}")
            }
        }
    }
}

impl std::error::Error for SerializabilityError {}

/// A thread-safe log of committed accesses.
#[derive(Debug, Default)]
pub struct HistoryLog {
    ops: Mutex<Vec<Op>>,
}

impl HistoryLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        HistoryLog::default()
    }

    /// Appends the committed accesses of one transaction atomically.
    pub fn commit(&self, ops: impl IntoIterator<Item = Op>) {
        self.ops.lock().extend(ops);
    }

    /// Number of recorded operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.lock().len()
    }

    /// True if nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.lock().is_empty()
    }

    /// Snapshot of the recorded operations.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Op> {
        self.ops.lock().clone()
    }

    /// Verifies conflict-serializability of the recorded history.
    ///
    /// # Errors
    ///
    /// Returns the violation found: duplicate version transitions or a
    /// cycle in the precedence graph.
    pub fn check_serializable(&self) -> Result<(), SerializabilityError> {
        let ops = self.snapshot();
        check_ops(&ops)
    }
}

/// Checks an explicit operation list (exposed for tests and tools).
///
/// # Errors
///
/// See [`HistoryLog::check_serializable`].
pub fn check_ops(ops: &[Op]) -> Result<(), SerializabilityError> {
    // Writer of each (object, version-produced).
    let mut writer_of: HashMap<(ObjectId, u64), TransactionId> = HashMap::default();
    for op in ops {
        if let Op::Write { txn, object, from } = *op {
            if let Some(prev) = writer_of.insert((object, from + 1), txn) {
                if prev != txn {
                    return Err(SerializabilityError::ConflictingWrites {
                        object,
                        version: from + 1,
                    });
                }
            }
        }
    }
    // Precedence edges.
    let mut edges: HashMap<TransactionId, HashSet<TransactionId>> = HashMap::default();
    let mut add = |a: TransactionId, b: TransactionId| {
        if a != b {
            edges.entry(a).or_default().insert(b);
        }
    };
    for op in ops {
        match *op {
            Op::Read {
                txn,
                object,
                version,
            } => {
                // Writer of `version` precedes the reader...
                if version > 0 {
                    if let Some(&w) = writer_of.get(&(object, version)) {
                        add(w, txn);
                    }
                }
                // ...and the reader precedes the writer of `version + 1`.
                if let Some(&w) = writer_of.get(&(object, version + 1)) {
                    add(txn, w);
                }
            }
            Op::Write { txn, object, from } => {
                if from > 0 {
                    if let Some(&w) = writer_of.get(&(object, from)) {
                        add(w, txn);
                    }
                }
            }
        }
    }
    // Cycle detection: iterative DFS with colors.
    let mut color: HashMap<TransactionId, u8> = HashMap::default(); // 1 = on stack, 2 = done
    #[expect(
        clippy::disallowed_methods,
        reason = "cycle detection: whether a cycle exists does not depend on visit order"
    )]
    let nodes: Vec<TransactionId> = edges.keys().copied().collect();
    for &start in &nodes {
        if color.get(&start).copied().unwrap_or(0) != 0 {
            continue;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "cycle detection: whether a cycle exists does not depend on visit order"
        )]
        let mut stack: Vec<(TransactionId, Vec<TransactionId>)> = vec![(
            start,
            edges.get(&start).map(|s| s.iter().copied().collect()).unwrap_or_default(),
        )];
        color.insert(start, 1);
        while let Some((node, children)) = stack.last_mut() {
            match children.pop() {
                Some(next) => match color.get(&next).copied().unwrap_or(0) {
                    0 => {
                        color.insert(next, 1);
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "cycle detection: whether a cycle exists does not depend on visit order"
                        )]
                        let kids = edges
                            .get(&next)
                            .map(|s| s.iter().copied().collect())
                            .unwrap_or_default();
                        stack.push((next, kids));
                    }
                    1 => return Err(SerializabilityError::Cycle { witness: next }),
                    _ => {}
                },
                None => {
                    color.insert(*node, 2);
                    stack.pop();
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use siteselect_types::ClientId;

    fn t(n: u64) -> TransactionId {
        TransactionId::new(ClientId(0), n)
    }
    const O1: ObjectId = ObjectId(1);
    const O2: ObjectId = ObjectId(2);

    #[test]
    fn empty_history_is_serializable() {
        let log = HistoryLog::new();
        assert!(log.is_empty());
        log.check_serializable().unwrap();
    }

    #[test]
    fn sequential_writes_are_serializable() {
        let ops = vec![
            Op::Write { txn: t(1), object: O1, from: 0 },
            Op::Write { txn: t(2), object: O1, from: 1 },
            Op::Read { txn: t(3), object: O1, version: 2 },
        ];
        check_ops(&ops).unwrap();
    }

    #[test]
    fn duplicate_version_transition_detected() {
        let ops = vec![
            Op::Write { txn: t(1), object: O1, from: 0 },
            Op::Write { txn: t(2), object: O1, from: 0 },
        ];
        assert_eq!(
            check_ops(&ops),
            Err(SerializabilityError::ConflictingWrites { object: O1, version: 1 })
        );
    }

    #[test]
    fn classic_nonserializable_interleaving_detected() {
        // T1 reads O1@0 then writes O2; T2 reads O2@0 then writes O1.
        // Each must precede the other: cycle.
        let ops = vec![
            Op::Read { txn: t(1), object: O1, version: 0 },
            Op::Read { txn: t(2), object: O2, version: 0 },
            Op::Write { txn: t(1), object: O2, from: 0 },
            Op::Write { txn: t(2), object: O1, from: 0 },
        ];
        assert!(matches!(
            check_ops(&ops),
            Err(SerializabilityError::Cycle { .. })
        ));
    }

    #[test]
    fn read_your_own_write_is_fine() {
        let ops = vec![
            Op::Write { txn: t(1), object: O1, from: 0 },
            Op::Read { txn: t(1), object: O1, version: 1 },
        ];
        check_ops(&ops).unwrap();
    }

    #[test]
    fn readers_between_writers_order_correctly() {
        let ops = vec![
            Op::Write { txn: t(1), object: O1, from: 0 },
            Op::Read { txn: t(2), object: O1, version: 1 },
            Op::Write { txn: t(3), object: O1, from: 1 },
            Op::Read { txn: t(4), object: O1, version: 2 },
        ];
        check_ops(&ops).unwrap();
    }

    #[test]
    fn log_commit_and_snapshot() {
        let log = HistoryLog::new();
        log.commit(vec![Op::Read { txn: t(1), object: O1, version: 0 }]);
        log.commit(vec![Op::Write { txn: t(2), object: O1, from: 0 }]);
        assert_eq!(log.len(), 2);
        assert_eq!(log.snapshot().len(), 2);
        log.check_serializable().unwrap();
    }

    #[test]
    fn op_object_accessor() {
        assert_eq!(Op::Read { txn: t(1), object: O2, version: 0 }.object(), O2);
    }

    #[test]
    fn error_display() {
        let e = SerializabilityError::Cycle { witness: t(9) };
        assert!(e.to_string().contains("cycle"));
        let e = SerializabilityError::ConflictingWrites { object: O1, version: 3 };
        assert!(e.to_string().contains("version 3"));
    }
}
