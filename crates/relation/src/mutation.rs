//! Logical mutation records and the observer hook.
//!
//! Durability lives outside this crate (`cr-storage`), but the engine is
//! the only place that sees every successful mutation — DML through the
//! SQL front end, programmatic inserts, index DDL — so tables and the
//! catalog emit a [`Mutation`] to an attached [`MutationObserver`] after
//! each one commits in memory. The observer is invoked while the table's
//! write lock is held, which gives the write-ahead log a per-table order
//! identical to the in-memory apply order.
//!
//! Observers are infallible by design: a durability layer that hits an
//! I/O error records it on its side (sticky error + metrics) rather than
//! unwinding a mutation that already happened.

use std::fmt;
use std::sync::Arc;

use crate::index::IndexKind;
use crate::row::{Row, RowId};
use crate::schema::Schema;

/// One successful logical mutation, borrowed from the table that applied
/// it. Row payloads are redo images: replaying inserts/updates/deletes in
/// emission order onto the same starting state reproduces the table
/// byte-for-byte (row ids included). Updates and deletes additionally
/// carry the *old* row image and every record carries the post-mutation
/// [`crate::table::Table::version`], so delta-driven caches can test a write
/// against an entry's dependency set (touched columns, key values)
/// without re-reading the table.
pub enum Mutation<'a> {
    /// A row was inserted at `rid`.
    Insert {
        rid: RowId,
        row: &'a Row,
        /// Table version after this insert.
        version: u64,
    },
    /// The row at `rid` was replaced with `row` (old image attached).
    Update {
        rid: RowId,
        row: &'a Row,
        old_row: &'a Row,
        /// Table version after this update.
        version: u64,
    },
    /// The row at `rid` was tombstoned (`row` is the removed image).
    Delete {
        rid: RowId,
        row: &'a Row,
        /// Table version after this delete.
        version: u64,
    },
    /// A secondary index was created (and backfilled).
    CreateIndex {
        name: &'a str,
        columns: &'a [usize],
        kind: IndexKind,
        unique: bool,
    },
}

impl Mutation<'_> {
    /// Post-mutation table version (None for index DDL, which does not
    /// bump the mutation counter).
    pub fn version(&self) -> Option<u64> {
        match self {
            Mutation::Insert { version, .. }
            | Mutation::Update { version, .. }
            | Mutation::Delete { version, .. } => Some(*version),
            Mutation::CreateIndex { .. } => None,
        }
    }
}

/// Receiver for logical mutations. Implemented by `cr-storage`'s WAL
/// writer and by delta-maintained result caches; attach with
/// [`crate::Catalog::add_observer`].
pub trait MutationObserver: Send + Sync {
    /// Called after a mutation commits in memory, under the table lock.
    /// `schema` is the mutated table's schema (column-name resolution for
    /// dependency tests without a catalog round-trip — observers must not
    /// call back into the catalog from this hook).
    fn on_mutation(&self, table: &str, schema: &Schema, mutation: &Mutation<'_>);

    /// Called after a table is created (DDL is logged too, so recovery
    /// can rebuild a store that never reached its first snapshot).
    fn on_create_table(&self, name: &str, schema: &Schema, pk_columns: &[usize]) {
        let _ = (name, schema, pk_columns);
    }

    /// Called after a table is dropped.
    fn on_drop_table(&self, name: &str) {
        let _ = name;
    }
}

/// Holder for an optional observer that keeps `#[derive(Debug)]` usable
/// on the structs embedding it (trait objects have no `Debug`).
#[derive(Clone, Default)]
pub(crate) struct ObserverSlot(pub(crate) Option<Arc<dyn MutationObserver>>);

impl ObserverSlot {
    #[inline]
    pub(crate) fn get(&self) -> Option<&Arc<dyn MutationObserver>> {
        self.0.as_ref()
    }
}

impl fmt::Debug for ObserverSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "ObserverSlot(attached)"
        } else {
            "ObserverSlot(none)"
        })
    }
}

/// Fan-out observer: forwards every event to each inner observer in
/// insertion order. [`crate::Catalog::add_observer`] composes the WAL
/// writer (attached first, so durability sees each mutation before any
/// cache reacts to it) with result-cache subscribers.
pub struct CompositeObserver {
    observers: Vec<Arc<dyn MutationObserver>>,
}

impl CompositeObserver {
    pub fn new(observers: Vec<Arc<dyn MutationObserver>>) -> Self {
        CompositeObserver { observers }
    }

    /// The inner observers, in notification order.
    pub fn observers(&self) -> &[Arc<dyn MutationObserver>] {
        &self.observers
    }
}

impl MutationObserver for CompositeObserver {
    fn on_mutation(&self, table: &str, schema: &Schema, mutation: &Mutation<'_>) {
        for obs in &self.observers {
            obs.on_mutation(table, schema, mutation);
        }
    }

    fn on_create_table(&self, name: &str, schema: &Schema, pk_columns: &[usize]) {
        for obs in &self.observers {
            obs.on_create_table(name, schema, pk_columns);
        }
    }

    fn on_drop_table(&self, name: &str) {
        for obs in &self.observers {
            obs.on_drop_table(name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    struct Tap {
        label: &'static str,
        log: Arc<Mutex<Vec<String>>>,
    }

    impl MutationObserver for Tap {
        fn on_mutation(&self, table: &str, _schema: &Schema, mutation: &Mutation<'_>) {
            let kind = match mutation {
                Mutation::Insert { .. } => "insert",
                Mutation::Update { .. } => "update",
                Mutation::Delete { .. } => "delete",
                Mutation::CreateIndex { .. } => "index",
            };
            self.log
                .lock()
                .push(format!("{}:{kind}:{table}", self.label));
        }
    }

    #[test]
    fn composite_preserves_insertion_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let composite = CompositeObserver::new(vec![
            Arc::new(Tap {
                label: "wal",
                log: Arc::clone(&log),
            }),
            Arc::new(Tap {
                label: "cache",
                log: Arc::clone(&log),
            }),
        ]);
        let schema = Schema::default();
        let row: Row = vec![];
        composite.on_mutation(
            "t",
            &schema,
            &Mutation::Insert {
                rid: RowId(0),
                row: &row,
                version: 1,
            },
        );
        composite.on_mutation(
            "t",
            &schema,
            &Mutation::Delete {
                rid: RowId(0),
                row: &row,
                version: 2,
            },
        );
        assert_eq!(
            *log.lock(),
            vec![
                "wal:insert:t",
                "cache:insert:t",
                "wal:delete:t",
                "cache:delete:t"
            ]
        );
    }
}
