//! Plan dependency extraction — what a plan actually *reads*.
//!
//! This module answers the question result caches need: **which base
//! tables, which columns of them, and (when filters are analyzable) which
//! key values does this plan consult?** A cached result tagged with the
//! extracted [`PlanDeps`] can then test an incoming mutation against its
//! dependency set — a comment by a student the plan never filtered for
//! provably cannot change the result, so the cache entry survives the
//! write.
//!
//! Everything here is conservative: any plan shape the analysis does not
//! understand degrades to "all columns, all keys" for the affected table,
//! which can only cause spurious invalidations, never a stale result.
//!
//! Key-constraint soundness: a `column = literal` / `column IN (...)`
//! constraint is attributed to a scan only when it provably gates every
//! row of that scan *before* any order/count-sensitive operator sees it —
//! i.e. it is the scan's own pushed-down filter, or a `Filter` node
//! separated from the scan only by other `Filter`s and `Sort`s (which
//! preserve the row set). A `Limit` (or aggregate, join, …) in between
//! makes the surviving row set depend on rows the filter later discards,
//! so constraints are not propagated through them. When the same table is
//! scanned more than once, a key constraint survives only if *every* scan
//! instance is constrained on the same column (value sets union).

use std::collections::{BTreeMap, BTreeSet};

use crate::catalog::Catalog;
use crate::expr::{BinOp, Expr};
use crate::plan::LogicalPlan;
use crate::schema::Schema;
use crate::value::Value;

/// Which columns of a table a plan reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnSet {
    /// Every column (or the analysis gave up).
    All,
    /// Only these columns (lowercase names).
    Named(BTreeSet<String>),
}

impl ColumnSet {
    fn union(self, other: ColumnSet) -> ColumnSet {
        match (self, other) {
            (ColumnSet::Named(mut a), ColumnSet::Named(b)) => {
                a.extend(b);
                ColumnSet::Named(a)
            }
            _ => ColumnSet::All,
        }
    }
}

/// An equality constraint over one column: the plan only consults rows
/// whose `column` value is in `values`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeySet {
    /// Lowercase column name.
    pub column: String,
    pub values: BTreeSet<Value>,
}

/// Dependency footprint on one base table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDeps {
    pub columns: ColumnSet,
    /// `Some` when every scan of the table is gated by an analyzable
    /// equality constraint on the same column.
    pub key: Option<KeySet>,
}

impl TableDeps {
    /// Every column of every row: the conservative footprint.
    pub fn all() -> TableDeps {
        TableDeps {
            columns: ColumnSet::All,
            key: None,
        }
    }

    /// Restrict to the named columns.
    pub fn with_columns<S: AsRef<str>>(mut self, cols: impl IntoIterator<Item = S>) -> TableDeps {
        let named = cols.into_iter().map(|c| c.as_ref().to_ascii_lowercase());
        self.columns = ColumnSet::Named(named.collect());
        self
    }

    /// Restrict to rows whose `column` value is in `values`.
    pub fn with_key(mut self, column: &str, values: impl IntoIterator<Item = Value>) -> TableDeps {
        self.key = Some(KeySet {
            column: column.to_ascii_lowercase(),
            values: values.into_iter().collect(),
        });
        self
    }

    /// The footprint that covers both: columns union (`All` absorbs),
    /// and a key gate survives only when both gate on the same column,
    /// with the values unioned.
    pub fn union(self, other: TableDeps) -> TableDeps {
        let key = match (self.key, other.key) {
            (Some(mut a), Some(mut b)) if a.column == b.column => {
                a.values.append(&mut b.values);
                Some(a)
            }
            _ => None,
        };
        TableDeps {
            columns: self.columns.union(other.columns),
            key,
        }
    }
}

/// Dependency footprint of a whole plan: per lowercase table name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanDeps {
    pub tables: BTreeMap<String, TableDeps>,
}

impl PlanDeps {
    /// Table names, sorted (lowercase).
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Add a footprint on `table`, [`TableDeps::union`]ed with the one
    /// already there.
    pub fn add(&mut self, table: &str, deps: TableDeps) {
        let table = table.to_ascii_lowercase();
        let deps = match self.tables.remove(&table) {
            Some(prev) => prev.union(deps),
            None => deps,
        };
        self.tables.insert(table, deps);
    }
}

impl<S: AsRef<str>> FromIterator<(S, TableDeps)> for PlanDeps {
    /// One footprint per table, each [`PlanDeps::add`]ed.
    fn from_iter<I: IntoIterator<Item = (S, TableDeps)>>(iter: I) -> PlanDeps {
        let mut deps = PlanDeps::default();
        for (table, d) in iter {
            deps.add(table.as_ref(), d);
        }
        deps
    }
}

/// Extract the dependency footprint of `plan`. Works on bound plans
/// (optimized or not); running it on the optimized plan sees pushed-down
/// scan filters and projections and therefore extracts tighter sets.
pub fn extract(plan: &LogicalPlan) -> PlanDeps {
    extract_in(plan, None)
}

/// [`extract`] with a catalog for full-schema resolution: a scan's pushed
/// filter is bound against the *full* table schema (the scan's `schema`
/// field is the post-projection output), so naming the columns such a
/// filter consults — and its key constraints under a projection — needs
/// the base schema. Without a catalog those cases degrade conservatively.
pub fn extract_in(plan: &LogicalPlan, catalog: Option<&Catalog>) -> PlanDeps {
    let mut deps = PlanDeps::default();
    walk_scan_chain(plan, catalog, &[], &mut deps);
    deps
}

/// Recursive walk; every scan instance's footprint is added to `deps`
/// (a second scan of the same table unions with the first).
/// Follows a chain of row-set-preserving nodes (`Filter`, `Sort`) down to
/// a `Scan`, accumulating in `pending` the filter predicates that apply to
/// every row the scan emits. Any other node ends the chain: its inputs
/// start fresh ones.
fn walk_scan_chain<'p>(
    plan: &'p LogicalPlan,
    catalog: Option<&Catalog>,
    pending: &[&'p Expr],
    deps: &mut PlanDeps,
) {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let mut preds = pending.to_vec();
            preds.push(predicate);
            walk_scan_chain(input, catalog, &preds, deps);
        }
        LogicalPlan::Sort { input, .. } => walk_scan_chain(input, catalog, pending, deps),
        LogicalPlan::Scan {
            table,
            projection,
            filter,
            schema,
            ..
        } => {
            let scan = scan_dep(table, projection, filter, schema, catalog, pending);
            deps.add(table, scan);
        }
        // Chain broken (Project/Join/Limit/…, a new operator included):
        // predicates above this node do not provably gate the scans below
        // it row-for-row, so they are dropped. Safe for every variant —
        // dropping a key constraint only widens the footprint.
        other => {
            for (_, child) in other.children().into_iter().flatten() {
                walk_scan_chain(child, catalog, &[], deps);
            }
        }
    }
}

fn scan_dep(
    table: &str,
    projection: &Option<Vec<usize>>,
    filter: &Option<Expr>,
    output_schema: &Schema,
    catalog: Option<&Catalog>,
    above: &[&Expr],
) -> TableDeps {
    // `output_schema` is the scan's post-projection output (what gating
    // predicates above the scan are bound against); the scan's own pushed
    // filter is bound against the full base-table schema.
    let full_schema: Option<Schema> = if projection.is_none() {
        Some(output_schema.clone())
    } else {
        catalog.and_then(|c| c.table_schema(table).ok())
    };

    // Columns read: projected output columns plus everything the pushed
    // filter consults. `projection == None` means the full row is emitted.
    let columns = match projection {
        None => ColumnSet::All,
        Some(_) => {
            let mut named: BTreeSet<String> = output_schema
                .columns()
                .iter()
                .map(|c| c.name.to_ascii_lowercase())
                .collect();
            let mut resolved = true;
            if let Some(f) = filter {
                match &full_schema {
                    Some(full) => {
                        let mut used = Vec::new();
                        f.referenced_columns(&mut used);
                        for pos in used {
                            match full.columns().get(pos) {
                                Some(c) => {
                                    named.insert(c.name.to_ascii_lowercase());
                                }
                                None => resolved = false,
                            }
                        }
                    }
                    None => resolved = false,
                }
            }
            if resolved {
                ColumnSet::Named(named)
            } else {
                ColumnSet::All
            }
        }
    };

    let mut key: Option<KeySet> = None;
    let mut merge = |col: String, values: BTreeSet<Value>| match &mut key {
        None => {
            key = Some(KeySet {
                column: col,
                values,
            });
        }
        Some(k) if k.column == col => {
            // Two independent constraints on the same column: the row
            // must satisfy both, so the gating set is the intersection.
            k.values = k.values.intersection(&values).cloned().collect();
        }
        Some(_) => {
            // Constraints on different columns: keep the first (one key
            // column is all the delta test uses; extra constraints only
            // narrow further, so dropping them stays sound).
        }
    };

    // The scan's pushed filter gates every emitted row: full-schema
    // positions.
    if let (Some(f), Some(full)) = (filter, &full_schema) {
        for (pos, values) in equality_constraints(f) {
            if let Some(c) = full.columns().get(pos) {
                merge(c.name.to_ascii_lowercase(), values);
            }
        }
    }
    // Predicates gating the scan from above: output-schema positions.
    for pred in above {
        for (pos, values) in equality_constraints(pred) {
            if let Some(c) = output_schema.columns().get(pos) {
                merge(c.name.to_ascii_lowercase(), values);
            }
        }
    }

    TableDeps { columns, key }
}

/// Extract `column = literal` / `column IN (literals)` constraints from
/// the AND-conjuncts of a bound predicate. Conjuncts that do not match
/// are ignored (they only narrow the row set further, which keeps the
/// extracted constraint sound). Returns (column position, value set).
pub fn equality_constraints(expr: &Expr) -> Vec<(usize, BTreeSet<Value>)> {
    let mut out = Vec::new();
    collect_conjuncts(expr, &mut out);
    out
}

fn collect_conjuncts(expr: &Expr, out: &mut Vec<(usize, BTreeSet<Value>)>) {
    match expr {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            collect_conjuncts(left, out);
            collect_conjuncts(right, out);
        }
        Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } => {
            let pair = match (left.as_ref(), right.as_ref()) {
                (Expr::Column(i), Expr::Literal(v)) | (Expr::Literal(v), Expr::Column(i)) => {
                    Some((*i, v.clone()))
                }
                _ => None,
            };
            if let Some((i, v)) = pair {
                out.push((i, BTreeSet::from([v])));
            }
        }
        Expr::InList {
            expr: inner,
            list,
            negated: false,
        } => {
            if let Expr::Column(i) = inner.as_ref() {
                let mut values = BTreeSet::new();
                for item in list {
                    match item {
                        Expr::Literal(v) => {
                            values.insert(v.clone());
                        }
                        _ => return, // non-literal member: give up on this conjunct
                    }
                }
                out.push((*i, values));
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanBuilder;
    use crate::schema::{Column, DataType};
    use crate::Database;

    fn campus() -> Database {
        let db = Database::new();
        db.execute_sql("CREATE TABLE Comments (CommentID INT PRIMARY KEY, SuID INT, CourseID INT, Rating FLOAT)")
            .unwrap();
        db.execute_sql("CREATE TABLE Courses (CourseID INT PRIMARY KEY, Title TEXT)")
            .unwrap();
        db
    }

    #[test]
    fn scan_filter_yields_key_constraint() {
        let db = campus();
        let plan = crate::sql::plan_query(
            "SELECT CourseID, Rating FROM Comments WHERE SuID = 7",
            &db.catalog(),
        )
        .unwrap();
        let deps = extract_in(&plan, Some(&db.catalog()));
        let t = deps.tables.get("comments").expect("comments dep");
        let key = t.key.as_ref().expect("key constraint");
        assert_eq!(key.column, "suid");
        assert_eq!(key.values, BTreeSet::from([Value::Int(7)]));
        // Without a catalog the projected scan cannot resolve its pushed
        // filter against the base schema and must degrade conservatively.
        let blind = extract(&plan);
        assert_eq!(blind.tables["comments"].columns, ColumnSet::All);
    }

    #[test]
    fn in_list_yields_value_set() {
        let db = campus();
        let plan = crate::sql::plan_query(
            "SELECT Rating FROM Comments WHERE SuID IN (1, 2, 3)",
            &db.catalog(),
        )
        .unwrap();
        let deps = extract_in(&plan, Some(&db.catalog()));
        let key = deps.tables["comments"].key.as_ref().expect("key");
        assert_eq!(key.column, "suid");
        assert_eq!(key.values.len(), 3);
    }

    #[test]
    fn join_breaks_key_chain_but_keeps_tables() {
        let db = campus();
        let plan = crate::sql::plan_query(
            "SELECT c.Title FROM Comments m JOIN Courses c ON m.CourseID = c.CourseID WHERE m.SuID = 7",
            &db.catalog(),
        )
        .unwrap();
        let deps = extract(&plan);
        assert!(deps.tables.contains_key("comments"));
        assert!(deps.tables.contains_key("courses"));
        // The WHERE sits above the join here (unless pushed into the
        // scan); either way courses must not inherit the suid key.
        assert!(deps.tables["courses"].key.is_none());
    }

    #[test]
    fn same_table_twice_unions_or_drops_keys() {
        let schema = crate::Schema::qualified(
            "t",
            vec![
                Column::new("id", DataType::Int),
                Column::new("v", DataType::Int),
            ],
        );
        let scan = |val: i64| LogicalPlan::Scan {
            table: "t".into(),
            alias: None,
            projection: None,
            filter: Some(Expr::col_idx(0).eq(Expr::lit(val))),
            schema: schema.clone(),
        };
        let both = LogicalPlan::Union {
            left: Box::new(scan(1)),
            right: Box::new(scan(2)),
        };
        let deps = extract(&both);
        let key = deps.tables["t"].key.as_ref().expect("unioned key");
        assert_eq!(key.values, BTreeSet::from([Value::Int(1), Value::Int(2)]));

        // One unconstrained scan poisons the key.
        let half = LogicalPlan::Union {
            left: Box::new(scan(1)),
            right: Box::new(LogicalPlan::Scan {
                table: "t".into(),
                alias: None,
                projection: None,
                filter: None,
                schema: schema.clone(),
            }),
        };
        assert!(extract(&half).tables["t"].key.is_none());
    }

    #[test]
    fn limit_between_filter_and_scan_discards_constraint() {
        let schema = crate::Schema::qualified("t", vec![Column::new("id", DataType::Int)]);
        let plan = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Limit {
                input: Box::new(LogicalPlan::Scan {
                    table: "t".into(),
                    alias: None,
                    projection: None,
                    filter: None,
                    schema,
                }),
                limit: Some(5),
                offset: 0,
            }),
            predicate: Expr::col_idx(0).eq(Expr::lit(1i64)),
        };
        let deps = extract(&plan);
        assert!(deps.tables["t"].key.is_none());
    }

    #[test]
    fn join_group_by_footprint_names_the_columns_it_reads() {
        // The optimizer narrows both scans under the join, so the cache
        // footprint is the key, the grouped, aggregated and filtered
        // columns — an update to a course title cannot change the answer
        // and no longer invalidates it.
        let db = campus();
        let plan = crate::sql::plan_query(
            "SELECT m.SuID, COUNT(*) AS n, AVG(m.Rating) AS r FROM Comments m \
             JOIN Courses c ON c.CourseID = m.CourseID WHERE m.SuID > 3 GROUP BY m.SuID",
            &db.catalog(),
        )
        .unwrap();
        let deps = extract_in(&plan, Some(&db.catalog()));
        let named = |cols: &[&str]| ColumnSet::Named(cols.iter().map(|c| c.to_string()).collect());
        assert_eq!(
            deps.tables["comments"].columns,
            named(&["courseid", "rating", "suid"])
        );
        assert_eq!(deps.tables["courses"].columns, named(&["courseid"]));
        // Counting every row reads no column at all.
        let count =
            crate::sql::plan_query("SELECT COUNT(*) AS n FROM Comments", &db.catalog()).unwrap();
        assert_eq!(
            extract_in(&count, Some(&db.catalog())).tables["comments"].columns,
            named(&[])
        );
    }

    #[test]
    fn builder_plans_extract_too() {
        let db = campus();
        let plan = PlanBuilder::scan(&db.catalog(), "Comments")
            .unwrap()
            .filter(Expr::col("SuID").eq(Expr::lit(9i64)))
            .unwrap()
            .build();
        let optimized = crate::plan::optimizer::optimize(plan);
        let deps = extract(&optimized);
        let key = deps.tables["comments"].key.as_ref().expect("key");
        assert_eq!(key.column, "suid");
    }
}
