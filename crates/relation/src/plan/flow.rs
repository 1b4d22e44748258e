//! Information-flow analysis over [`LogicalPlan`]s: sensitivity labels,
//! declassification proofs, and principal-aware disclosure checking.
//!
//! The paper's §2.2 makes privacy a first-class concern — plan sharing is
//! opt-out per student, and grade distributions are suppressed below a
//! class-size threshold ("we do not show distributions for classes with
//! very few students"). Enforcing those rules only in the service layer
//! leaves every other entry point (ad-hoc SQL, FlexRecs workflows,
//! cr-server sessions) free to scan the underlying tables. This module
//! makes the policies *provable at compile time*: every column carries a
//! sensitivity label, a single tree walk propagates labels through every
//! plan operator (including implicit flows through predicates), a small
//! set of declassification rules model the paper's two policies, and
//! [`check_disclosure`] reports any flow that exceeds a principal's
//! clearance as a stable machine-readable P-code in the same
//! [`Diagnostic`] format as the structural validator (PR 5).
//!
//! # The lattice
//!
//! ```text
//! Public < Community < PerUser < Restricted
//! ```
//!
//! * `Public` — catalog data (courses, departments, offerings);
//! * `Community` — campus-visible contributions (comments, ratings,
//!   enrollment counts *after* k-declassification);
//! * `PerUser` — data owned by one student (grades, GPA, plan rows);
//!   visible to its owner, to staff, and — for gated columns — to the
//!   community when the owner's sharing gate is open;
//! * `Restricted` — operator-only telemetry that embeds query text
//!   (`cr_stat_traces`, `cr_stat_slow_queries`).
//!
//! Labels join by `max`; a derived value is as sensitive as the most
//! sensitive input that influenced it. Implicit flows are tracked as a
//! context label: a predicate over sensitive data taints every row that
//! survives it, even if no sensitive column reaches the output.
//!
//! # Declassification rules (proof obligations in DESIGN.md §15)
//!
//! 1. **Self-access**: a conjunct `owner_col = <principal id>` lowers the
//!    owning table's `PerUser` cells to `Community` — you may always see
//!    your own rows.
//! 2. **Opt-out gate**: a conjunct checking an [`ColumnRole::OptOutGate`]
//!    column (`SharePlans = TRUE`) lowers *gated* cells to `Community`
//!    — the paper's "one can opt out of sharing", inverted into a proof
//!    that the plan only reads sharers' rows. Faculty and anonymous
//!    principals do not benefit (the paper's visibility matrix).
//! 3. **k-aggregation**: an aggregate over `PerUser` data is still
//!    `PerUser` but *guardable*; a downstream conjunct `count >= k` with
//!    `k` at or above the policy threshold lowers the aggregate's cells
//!    to `Community` — the paper's small-class suppression. A guard
//!    counting rows rather than `COUNT(DISTINCT owner)` earns a P101
//!    warning (rows may overcount per owner).
//! 4. **Recommendation scores**: the ▷ operator's appended score is an
//!    aggregate similarity over the whole comparator set; comparator-side
//!    `PerUser` data declassifies to `Community` through it (the system's
//!    core function — recommendations derived from everyone's data —
//!    while `Restricted` never launders).
//!
//! The pass is deliberately *sound-ish*, not complete: gate and owner
//! declassifications apply to all in-scope cells of the relevant origin
//! without proving the join topology links them row-by-row. DESIGN.md
//! §15 lists these obligations explicitly.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::catalog::Catalog;
use crate::expr::{BinOp, Expr};
use crate::schema::Schema;
use crate::value::Value;

use super::logical::{AggFn, Child, LogicalPlan};
use super::validate::{Diagnostic, ValidationReport};

// ---------------------------------------------------------------------------
// Diagnostic codes
// ---------------------------------------------------------------------------

/// Direct disclosure: an output column's label exceeds the principal's
/// clearance.
pub const P_DIRECT: &str = "P001";
/// Implicit flow: a filter/join predicate over data above the principal's
/// clearance selects the output rows.
pub const P_IMPLICIT: &str = "P002";
/// Aggregate over per-user data reaches the output without a k-threshold
/// guard (or with one below the policy threshold).
pub const P_AGG_BELOW_K: &str = "P003";
/// Opt-out bypass: a sharing-gated column is disclosed without checking
/// the owner's gate.
pub const P_OPTOUT_BYPASS: &str = "P004";
/// A `Restricted` source (operator telemetry) is scanned by a principal
/// below `Restricted` clearance.
pub const P_RESTRICTED_SOURCE: &str = "P005";
/// Warning: k-guard counts rows, not distinct owners — the threshold may
/// be satisfied by fewer than k students.
pub const P_WEAK_GUARD: &str = "P101";

/// The flow-analysis code table: `(code, short description)`. Rendered by
/// `crlint --codes` alongside the structural E/W table.
pub fn flow_code_table() -> &'static [(&'static str, &'static str)] {
    &[
        (P_DIRECT, "direct disclosure above principal clearance"),
        (
            P_IMPLICIT,
            "implicit flow via predicate over sensitive data",
        ),
        (
            P_AGG_BELOW_K,
            "aggregate below k-threshold (missing/low guard)",
        ),
        (P_OPTOUT_BYPASS, "opt-out gate bypass on shared-plans data"),
        (P_RESTRICTED_SOURCE, "restricted telemetry source scanned"),
        (P_WEAK_GUARD, "k-guard counts rows, not distinct owners"),
    ]
}

/// The k-anonymity threshold: the minimum distinct-owner count before an
/// aggregate over `PerUser` data declassifies. The paper suppresses grade
/// distributions for classes with fewer than 5 students; CourseRank's
/// privacy service withholds by the same number.
pub const K: i64 = 5;

// ---------------------------------------------------------------------------
// Lattice and principals
// ---------------------------------------------------------------------------

/// The sensitivity lattice, ordered `Public < Community < PerUser <
/// Restricted`; `max` is the lattice join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Sensitivity {
    #[default]
    Public,
    Community,
    PerUser,
    Restricted,
}

impl fmt::Display for Sensitivity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sensitivity::Public => write!(f, "public"),
            Sensitivity::Community => write!(f, "community"),
            Sensitivity::PerUser => write!(f, "per-user"),
            Sensitivity::Restricted => write!(f, "restricted"),
        }
    }
}

/// Who is asking. Carried by cr-server sessions (the Hello handshake),
/// `crlint --principal`, and the strategies registry (define-time lint
/// uses the template student).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Principal {
    /// No authenticated identity: sees `Public` only.
    Anonymous,
    /// A student; `Some(id)` is a concrete session, `None` is the
    /// *template* student used at workflow define time (any owner-equality
    /// literal counts as self-access, because the registry substitutes the
    /// session's own id for the placeholder at select time).
    Student(Option<i64>),
    /// Faculty see community data but nothing student-specific — they do
    /// not benefit from sharing gates (the paper's visibility matrix).
    Faculty,
    /// Advisors/operators: full clearance.
    Staff,
    Admin,
}

impl Principal {
    /// Highest label this principal may receive.
    pub fn clearance(&self) -> Sensitivity {
        match self {
            Principal::Anonymous => Sensitivity::Public,
            Principal::Student(_) | Principal::Faculty => Sensitivity::Community,
            Principal::Staff | Principal::Admin => Sensitivity::Restricted,
        }
    }

    /// Does an `owner_col = lit` conjunct count as self-access?
    fn owns(&self, id: i64) -> bool {
        match self {
            Principal::Student(Some(me)) => *me == id,
            // Template mode: the concrete id is substituted per session.
            Principal::Student(None) => true,
            _ => false,
        }
    }

    /// May this principal see gated data once the sharing gate is checked?
    /// Faculty and anonymous users may not (role matrix of §2.2).
    fn benefits_from_gates(&self) -> bool {
        matches!(
            self,
            Principal::Student(_) | Principal::Staff | Principal::Admin
        )
    }

    /// Parse `"staff"`, `"student"`, `"student:444"`, `"faculty"`,
    /// `"admin"`, `"anonymous"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Principal> {
        let s = s.trim().to_ascii_lowercase();
        match s.as_str() {
            "anonymous" | "anon" => Some(Principal::Anonymous),
            "student" => Some(Principal::Student(None)),
            "faculty" => Some(Principal::Faculty),
            "staff" => Some(Principal::Staff),
            "admin" => Some(Principal::Admin),
            _ => match s.strip_prefix("student:") {
                Some(id) => id.parse::<i64>().ok().map(|i| Principal::Student(Some(i))),
                None => None,
            },
        }
    }
}

impl fmt::Display for Principal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Principal::Anonymous => write!(f, "anonymous"),
            Principal::Student(None) => write!(f, "student"),
            Principal::Student(Some(id)) => write!(f, "student:{id}"),
            Principal::Faculty => write!(f, "faculty"),
            Principal::Staff => write!(f, "staff"),
            Principal::Admin => write!(f, "admin"),
        }
    }
}

/// Outcome of the gated-visibility decision ([`gate_decision`], which
/// courserank's `Privacy::can_view_plans` applies to each owner's row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateDecision {
    Allow,
    /// The owner's sharing gate is closed.
    DeniedOptOut,
    /// The principal's role never benefits from sharing gates.
    DeniedRole,
}

/// Row-level twin of the static gate rule: may `principal` see a gated
/// row owned by `owner` whose sharing gate is `gate_open`? Self-access
/// and full clearance always allow; gate-benefiting roles need the gate;
/// everyone else is denied by role.
pub fn gate_decision(principal: &Principal, owner: i64, gate_open: bool) -> GateDecision {
    if principal.owns(owner) || principal.clearance() >= Sensitivity::Restricted {
        return GateDecision::Allow;
    }
    if !principal.benefits_from_gates() {
        return GateDecision::DeniedRole;
    }
    if gate_open {
        GateDecision::Allow
    } else {
        GateDecision::DeniedOptOut
    }
}

// ---------------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------------

/// What a column *is* to the policy machinery, beyond its label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ColumnRole {
    #[default]
    None,
    /// Identifies the owning user; equality with the principal's id is the
    /// self-access declassifier.
    Owner,
    /// A boolean opt-out gate (`SharePlans`); checking it declassifies the
    /// table's gated cells.
    OptOutGate,
}

/// Per-column policy: a label, an optional role, and whether visibility is
/// gated by the table's opt-out column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnPolicy {
    pub label: Sensitivity,
    pub role: ColumnRole,
    pub gated: bool,
}

impl Default for ColumnPolicy {
    fn default() -> Self {
        ColumnPolicy {
            label: Sensitivity::Public,
            role: ColumnRole::None,
            gated: false,
        }
    }
}

/// Per-table policy: a default label plus per-column overrides (looked up
/// case-insensitively). Tables without a registered policy are `Public`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TablePolicy {
    pub default_label: Sensitivity,
    columns: BTreeMap<String, ColumnPolicy>,
}

impl TablePolicy {
    pub fn new(default_label: Sensitivity) -> Self {
        TablePolicy {
            default_label,
            columns: BTreeMap::new(),
        }
    }

    /// Set a column's label.
    pub fn column(mut self, name: &str, label: Sensitivity) -> Self {
        self.columns
            .entry(name.to_ascii_lowercase())
            .or_default()
            .label = label;
        self
    }

    /// Mark a column as the owner id (and give it a label).
    pub fn owner(mut self, name: &str, label: Sensitivity) -> Self {
        let c = self.columns.entry(name.to_ascii_lowercase()).or_default();
        c.label = label;
        c.role = ColumnRole::Owner;
        self
    }

    /// Mark a column as the opt-out gate (and give it a label).
    pub fn gate(mut self, name: &str, label: Sensitivity) -> Self {
        let c = self.columns.entry(name.to_ascii_lowercase()).or_default();
        c.label = label;
        c.role = ColumnRole::OptOutGate;
        self
    }

    /// A gated column: `PerUser` unless the sharing gate is proven checked,
    /// in which case it declassifies to `Community`.
    pub fn gated(mut self, name: &str) -> Self {
        let c = self.columns.entry(name.to_ascii_lowercase()).or_default();
        c.label = Sensitivity::PerUser;
        c.gated = true;
        self
    }

    /// The effective policy for one column.
    pub fn column_policy(&self, name: &str) -> ColumnPolicy {
        match self.columns.get(&name.to_ascii_lowercase()) {
            Some(c) => *c,
            None => ColumnPolicy {
                label: self.default_label,
                role: ColumnRole::None,
                gated: false,
            },
        }
    }

    /// Highest label any column of this table can carry.
    pub fn max_label(&self) -> Sensitivity {
        self.columns
            .values()
            .map(|c| c.label)
            .chain(std::iter::once(self.default_label))
            .max()
            .unwrap_or(self.default_label)
    }
}

/// The catalog-wide flow policy: the table registry. Stored `Arc`-shared
/// inside [`Catalog`] so snapshots keep the labels of the live catalog.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowPolicy {
    tables: BTreeMap<String, TablePolicy>,
}

impl FlowPolicy {
    pub fn set_table(&mut self, table: &str, policy: TablePolicy) {
        self.tables.insert(table.to_ascii_lowercase(), policy);
    }

    pub fn table(&self, table: &str) -> Option<&TablePolicy> {
        self.tables.get(&table.to_ascii_lowercase())
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct FMetrics {
    checks: Arc<cr_obs::Counter>,
    denials: Arc<cr_obs::Counter>,
    warnings: Arc<cr_obs::Counter>,
}

fn fmetrics() -> &'static FMetrics {
    static M: OnceLock<FMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = cr_obs::Registry::global();
        FMetrics {
            checks: r.counter("plan.flow.checks"),
            denials: r.counter("plan.flow.denials"),
            warnings: r.counter("plan.flow.warnings"),
        }
    })
}

// ---------------------------------------------------------------------------
// The dataflow pass
// ---------------------------------------------------------------------------

/// Flow state of one output column. Strings are `Arc`-shared so the
/// cell clones that dominate the dataflow pass (every Project, Join,
/// and Aggregate derives cells) are refcount bumps, not allocations.
#[derive(Debug, Clone)]
struct Cell {
    label: Sensitivity,
    /// Visibility depends on an unchecked opt-out gate.
    gated: bool,
    /// Label is `PerUser` via aggregation; a k-guard can declassify.
    agg_guarded: bool,
    /// A COUNT output usable as a k-guard; the bool is `true` when the
    /// count is DISTINCT over an owner column (a *strong* guard).
    guard: Option<bool>,
    role: ColumnRole,
    /// Lowercased origin table ("" for derived cells).
    table: Arc<str>,
    /// Column name for messages.
    name: Arc<str>,
}

/// The shared "" for derived cells (no per-cell allocation).
fn no_table() -> Arc<str> {
    static EMPTY: OnceLock<Arc<str>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::from("")))
}

impl Cell {
    fn public(name: &str) -> Cell {
        Cell {
            label: Sensitivity::Public,
            gated: false,
            agg_guarded: false,
            guard: None,
            role: ColumnRole::None,
            table: no_table(),
            name: Arc::from(name),
        }
    }
}

/// Pre-resolved flow state of one table's scan — the catalog labels
/// applied to every column, computed once and memoized on the catalog
/// ([`Catalog::flow_template`]). The cache is cleared on any
/// `set_table_policy`; a hit is additionally verified against the live
/// schema (names, positionally) before use, so stale templates can
/// never mislabel a column after DDL.
#[derive(Debug)]
pub(crate) struct ScanTemplate {
    /// Lowercased table name.
    table: Arc<str>,
    cells: Vec<Cell>,
    /// Any column of the table is `Restricted` (reported as P005 at the
    /// scan site for under-cleared principals).
    restricted: bool,
}

/// Flow state of a whole sub-plan: per-column cells plus the implicit
/// (control) context label.
#[derive(Debug, Clone)]
struct FlowInfo {
    cells: Vec<Cell>,
    /// Table columns a scan's projection dropped below this point. They
    /// still decide which rows exist, so `COUNT(*)` reads them with the
    /// output cells: the answer is the same whether or not the optimizer
    /// narrowed the scans. A `Project` (a query's own column list) or an
    /// `Aggregate` starts afresh.
    hidden: Vec<Cell>,
    ctx: Sensitivity,
    /// What tainted the context, as `(kind, table, column)` parts —
    /// formatted only if a P002 diagnostic is actually emitted.
    ctx_origin: Option<(&'static str, Arc<str>, Arc<str>)>,
    /// The current context maximum was contributed by a *gated* cell, so a
    /// later gate check lowers it.
    ctx_gated: bool,
    /// A sharing-gate check was proven somewhere in this sub-plan (by a
    /// gate-benefiting principal); joined-in gated cells declassify.
    gate_checked: bool,
}

impl FlowInfo {
    fn new(cells: Vec<Cell>) -> FlowInfo {
        FlowInfo {
            cells,
            hidden: Vec::new(),
            ctx: Sensitivity::Public,
            ctx_origin: None,
            ctx_gated: false,
            gate_checked: false,
        }
    }

    /// Output cells, then the cells a projection hid.
    fn all_cells_mut(&mut self) -> impl Iterator<Item = &mut Cell> {
        self.cells.iter_mut().chain(self.hidden.iter_mut())
    }

    /// Render the context-taint origin for a P002 message.
    fn ctx_origin_string(&self) -> String {
        match &self.ctx_origin {
            Some((what, table, name)) if !table.is_empty() => {
                format!("{what} over {table}.{name}")
            }
            Some((what, _, name)) => format!("{what} over {name}"),
            None => "predicate".to_owned(),
        }
    }

    /// Re-apply an established gate check to the current scope: every
    /// gated cell (and a gated context taint) lowers to `Community`.
    fn settle_gate(&mut self) {
        if !self.gate_checked {
            return;
        }
        for c in self.all_cells_mut() {
            if c.gated {
                c.gated = false;
                if c.label == Sensitivity::PerUser {
                    c.label = Sensitivity::Community;
                }
            }
        }
        if self.ctx_gated && self.ctx == Sensitivity::PerUser {
            self.ctx = Sensitivity::Community;
            self.ctx_gated = false;
        }
    }
}

struct FlowChecker<'a> {
    catalog: &'a Catalog,
    principal: &'a Principal,
    diags: Vec<Diagnostic>,
    stack: Vec<&'static str>,
    /// Tables already reported as P005 at their scan site, so the root
    /// check does not double-report their cells.
    restricted_reported: BTreeSet<Arc<str>>,
}

impl<'a> FlowChecker<'a> {
    fn path(&self) -> String {
        self.stack.join(".")
    }

    /// The flow state of `plan`'s output: the operator's transfer over
    /// its inputs' states, each taken along its [`LogicalPlan::children`]
    /// edge by [`FlowChecker::descend`].
    fn flow(&mut self, plan: &LogicalPlan) -> FlowInfo {
        let [first, second] = plan.children();
        match plan {
            LogicalPlan::Scan {
                table,
                projection,
                filter,
                schema,
                ..
            } => self.scan_flow(table, projection, filter.as_ref(), schema),
            LogicalPlan::Filter { predicate, .. } => {
                let mut info = self.descend(first);
                self.apply_predicate(&mut info, predicate);
                info
            }
            LogicalPlan::Project { exprs, .. } => {
                let info = self.descend(first);
                let cells = exprs
                    .iter()
                    .map(|(e, name)| derive_cell(&info.cells, e, name))
                    .collect();
                FlowInfo {
                    cells,
                    hidden: Vec::new(),
                    ..info
                }
            }
            LogicalPlan::Join { on, .. } => {
                let mut info =
                    merge_infos(self.descend(first), self.descend(second), |mut lc, rc| {
                        lc.extend(rc);
                        lc
                    });
                info.settle_gate();
                self.apply_predicate(&mut info, on);
                info
            }
            LogicalPlan::Aggregate { group_by, aggs, .. } => {
                let info = self.descend(first);
                self.aggregate_flow(&info, group_by, aggs)
            }
            LogicalPlan::Sort { keys, .. } => {
                let mut info = self.descend(first);
                // Sorting by sensitive data is an implicit flow: the output
                // *order* encodes it even if the column is projected away
                // above.
                for key in keys {
                    taint_with_expr(&mut info, &key.expr, "sort key");
                }
                info
            }
            LogicalPlan::Limit { .. } => self.descend(first),
            LogicalPlan::Values { schema, .. } => FlowInfo::new(
                schema
                    .columns()
                    .iter()
                    .map(|c| Cell::public(&c.name))
                    .collect(),
            ),
            LogicalPlan::Union { .. } => {
                let mut info = merge_infos(self.descend(first), self.descend(second), |lc, rc| {
                    lc.into_iter()
                        .zip(rc)
                        .map(|(a, b)| join_cells(a, &b))
                        .collect()
                });
                info.settle_gate();
                info
            }
            LogicalPlan::Extend { as_name, .. } => {
                let (mut out, rel) = (self.descend(first), self.descend(second));
                // The appended nested attribute carries everything the
                // related sub-plan produced, *selected* under the related
                // side's context (its filters), so that context folds into
                // the cell's label rather than the node context.
                let mut appended = Cell::public(as_name);
                for c in &rel.cells {
                    appended.label = appended.label.max(c.label);
                    appended.gated |= c.gated;
                    appended.agg_guarded |= c.agg_guarded;
                    if appended.table.is_empty() {
                        appended.table = c.table.clone();
                    }
                }
                appended.label = appended.label.max(rel.ctx);
                out.cells.push(appended);
                out.gate_checked |= rel.gate_checked;
                out.settle_gate();
                out
            }
            LogicalPlan::Recommend { spec, .. } => {
                let (mut out, c) = (self.descend(first), self.descend(second));
                // Declassification rule 4: the score is an aggregate
                // similarity over the whole comparator set, so comparator-
                // side PerUser data lowers to Community through it.
                // Restricted never launders.
                let comp_max = c
                    .cells
                    .iter()
                    .map(|cell| cell.label)
                    .chain(std::iter::once(c.ctx))
                    .max()
                    .unwrap_or(Sensitivity::Public);
                let score_label = match comp_max {
                    Sensitivity::PerUser => Sensitivity::Community,
                    other => other,
                };
                out.cells.push(Cell {
                    label: score_label,
                    gated: false,
                    agg_guarded: false,
                    guard: None,
                    role: ColumnRole::None,
                    table: no_table(),
                    name: Arc::from(spec.score_name.as_str()),
                });
                out
            }
        }
    }

    /// The flow state of one input, with the path stack spelled as the
    /// validator spells it while the input is walked.
    #[inline]
    fn descend(&mut self, edge: Option<Child<'_>>) -> FlowInfo {
        let (label, child) = edge.expect("children() yields every input of the operator");
        let depth = self.stack.len();
        if let Some(label) = label {
            self.stack.push(label);
        }
        self.stack.push(child.op_name());
        let info = self.flow(child);
        self.stack.truncate(depth);
        info
    }

    fn scan_flow(
        &mut self,
        table: &str,
        projection: &Option<Vec<usize>>,
        filter: Option<&Expr>,
        node_schema: &Schema,
    ) -> FlowInfo {
        let Some(template) = self.lookup_template(table) else {
            // Unknown or unlabeled table: everything Public. The structural
            // validator reports unknown tables as E016; the flow pass never
            // invents sensitivity it was not told about.
            let cells = self
                .catalog
                .with_table_schema(table, |s| {
                    s.columns()
                        .iter()
                        .map(|c| Cell::public(&c.name))
                        .collect::<Vec<_>>()
                })
                .unwrap_or_else(|_| {
                    node_schema
                        .columns()
                        .iter()
                        .map(|c| Cell::public(&c.name))
                        .collect()
                });
            let mut info = FlowInfo::new(cells);
            if let Some(pred) = filter {
                self.apply_predicate(&mut info, pred);
            }
            if let Some(idx) = projection {
                project_scan(&mut info, idx);
            }
            return info;
        };
        if template.restricted && self.principal.clearance() < Sensitivity::Restricted {
            self.diags.push(Diagnostic::error(
                P_RESTRICTED_SOURCE,
                self.path(),
                format!(
                    "table {table} is restricted telemetry; principal {} has {} clearance",
                    self.principal,
                    self.principal.clearance()
                ),
            ));
            self.restricted_reported.insert(template.table.clone());
        }
        // The scan filter executes against full-schema rows before the
        // projection is applied (see exec::scan_batched), so declassifiers
        // must see the full cell vector too.
        let mut info = FlowInfo::new(template.cells.clone());
        if let Some(pred) = filter {
            self.apply_predicate(&mut info, pred);
        }
        if let Some(idx) = projection {
            project_scan(&mut info, idx);
        }
        info
    }

    /// Resolve the memoized [`ScanTemplate`] for `table`, building and
    /// storing it on a miss. `None` means unknown table or no registered
    /// policy (the all-Public fallback). The cache is shared across
    /// catalog clones *and* snapshots; generation stamps (see
    /// `Catalog::flow_gen_now`) make a template built against a
    /// different schema lineage a miss, so stale entries can never
    /// mislabel a column after DDL. The generation is captured *before*
    /// the schema read: a concurrent DDL leaves the new entry stamped
    /// stale, which fails safe (rebuild), never stale-but-trusted.
    fn lookup_template(&self, table: &str) -> Option<Arc<ScanTemplate>> {
        if let Some(t) = self.catalog.flow_template(table) {
            return Some(t);
        }
        let gen = self.catalog.flow_gen_now();
        let policy = self.catalog.table_policy(table)?;
        let key = table.to_ascii_lowercase();
        let tarc: Arc<str> = Arc::from(key.as_str());
        let cells = self
            .catalog
            .with_table_schema(table, |s| {
                s.columns()
                    .iter()
                    .map(|c| {
                        let cp = policy.column_policy(&c.name);
                        Cell {
                            label: cp.label,
                            gated: cp.gated,
                            agg_guarded: false,
                            guard: None,
                            role: cp.role,
                            table: tarc.clone(),
                            name: Arc::from(c.name.as_str()),
                        }
                    })
                    .collect::<Vec<_>>()
            })
            .ok()?;
        let template = Arc::new(ScanTemplate {
            table: tarc,
            cells,
            restricted: policy.max_label() == Sensitivity::Restricted,
        });
        self.catalog.store_flow_template(key, gen, template.clone());
        Some(template)
    }

    /// Process a predicate: apply declassifying conjuncts first (rules 1–3),
    /// then taint the context with whatever remains.
    fn apply_predicate(&mut self, info: &mut FlowInfo, pred: &Expr) {
        // Borrowing split: the declassify-then-taint two-pass never needs
        // owned conjuncts, and this runs on every Filter/Join/scan-filter.
        fn conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
            match e {
                Expr::Binary {
                    op: BinOp::And,
                    left,
                    right,
                } => {
                    conjuncts(left, out);
                    conjuncts(right, out);
                }
                other => out.push(other),
            }
        }
        let mut parts: Vec<&Expr> = Vec::new();
        conjuncts(pred, &mut parts);
        // Declassifiers apply first (a gate check later in the conjunction
        // still covers sensitive conjuncts before it), then the remainder
        // taints the context.
        parts.retain(|c| !self.try_declassify(info, c));
        for t in parts {
            taint_with_expr(info, t, "predicate");
        }
    }

    /// Returns true when the conjunct is a declassifier and was applied.
    fn try_declassify(&mut self, info: &mut FlowInfo, conjunct: &Expr) -> bool {
        // Bare boolean gate column: `WHERE SharePlans`.
        if let Expr::Column(i) = conjunct {
            if let Some(cell) = info.cells.get(*i) {
                if cell.role == ColumnRole::OptOutGate {
                    return self.apply_gate(info);
                }
            }
        }
        let Some((col, value, op)) = as_col_lit(conjunct) else {
            return false;
        };
        let Some(cell) = info.cells.get(col) else {
            return false;
        };
        match (op, value) {
            // Rule 1: self-access (`owner = me`). Someone else's id falls
            // through to the catch-all: not a declassifier; the equality
            // still taints (it selects rows by that owner).
            (BinOp::Eq, Value::Int(id))
                if cell.role == ColumnRole::Owner && self.principal.owns(*id) =>
            {
                let table = cell.table.clone();
                for c in info.all_cells_mut().filter(|c| c.table == table) {
                    if c.label == Sensitivity::PerUser {
                        c.label = Sensitivity::Community;
                    }
                    c.gated = false;
                }
                true
            }
            // Rule 2: gate check (`SharePlans = TRUE`).
            (BinOp::Eq, Value::Bool(true)) if cell.role == ColumnRole::OptOutGate => {
                self.apply_gate(info)
            }
            // Rule 3: k-guard (`count >= k` / `count > k-1`).
            (BinOp::GtEq | BinOp::Gt, Value::Int(n)) if cell.guard.is_some() => {
                let threshold = if op == BinOp::Gt { *n + 1 } else { *n };
                if threshold >= K {
                    let strong = cell.guard == Some(true);
                    let declassifies = info.cells.iter().any(|c| c.agg_guarded);
                    if !strong && declassifies {
                        self.diags.push(Diagnostic::warning(
                            P_WEAK_GUARD,
                            self.path(),
                            format!(
                                "k-guard on {} counts rows, not distinct owners; \
                                 {threshold} rows may cover fewer than {} students",
                                cell.name, K
                            ),
                        ));
                    }
                    for c in info.cells.iter_mut() {
                        if c.agg_guarded {
                            c.agg_guarded = false;
                            c.gated = false;
                            if c.label == Sensitivity::PerUser {
                                c.label = Sensitivity::Community;
                            }
                        }
                    }
                    true
                } else {
                    // Guard below the policy threshold: no declassification;
                    // the root check reports P003 with the cells still
                    // guarded. Not a taint either (the count itself is the
                    // aggregate output, already a cell).
                    true
                }
            }
            _ => false,
        }
    }

    fn apply_gate(&mut self, info: &mut FlowInfo) -> bool {
        if !self.principal.benefits_from_gates() {
            // Faculty/anonymous: the gate is checked but their role never
            // sees gated data; leave cells gated so the root reports P004.
            return true;
        }
        info.gate_checked = true;
        info.settle_gate();
        true
    }

    fn aggregate_flow(
        &mut self,
        info: &FlowInfo,
        group_by: &[Expr],
        aggs: &[super::logical::AggExpr],
    ) -> FlowInfo {
        let mut cells = Vec::with_capacity(group_by.len() + aggs.len());
        for (i, g) in group_by.iter().enumerate() {
            // Pure column passthroughs keep their own name (and skip the
            // format! alloc); only computed keys get a synthetic one.
            let mut cell = if let Expr::Column(idx) = g {
                info.cells
                    .get(*idx)
                    .cloned()
                    .unwrap_or_else(|| Cell::public("?"))
            } else {
                derive_cell(&info.cells, g, &format!("group{i}"))
            };
            // The input context selected which rows each group aggregates
            // over; it folds into every output cell.
            cell.label = cell.label.max(info.ctx);
            if cell.label == Sensitivity::PerUser {
                cell.agg_guarded = true;
            }
            cell.guard = None;
            cells.push(cell);
        }
        for a in aggs {
            let mut label = info.ctx;
            let mut gated = false;
            let read = |c: &Cell| {
                label = label.max(c.label);
                gated |= c.gated;
            };
            if a.func == AggFn::CountStar {
                // COUNT(*) depends on every input column's row multiset,
                // the ones a scan projection hid included.
                info.cells.iter().chain(&info.hidden).for_each(read);
            } else {
                let mut refs = Vec::new();
                a.arg.referenced_columns(&mut refs);
                refs.iter()
                    .filter_map(|&r| info.cells.get(r))
                    .for_each(read);
            }
            let agg_guarded = label == Sensitivity::PerUser;
            // Any count is a k-guard candidate — even when the counted column
            // itself is low-sensitivity (COUNT(DISTINCT owner) proves group
            // size without touching per-user data). It is *strong* when it
            // counts distinct owners.
            let guard = if matches!(a.func, AggFn::Count | AggFn::CountStar) {
                let strong = a.distinct
                    && matches!(
                        &a.arg,
                        Expr::Column(i) if info.cells.get(*i).is_some_and(|c| c.role == ColumnRole::Owner)
                    );
                Some(strong)
            } else {
                None
            };
            cells.push(Cell {
                label,
                gated,
                agg_guarded,
                guard,
                role: ColumnRole::None,
                table: no_table(),
                name: Arc::from(a.name.as_str()),
            });
        }
        // The aggregate blurs its input's row-selection context into the
        // cells above; the node itself starts a fresh context.
        let mut out = FlowInfo::new(cells);
        out.gate_checked = info.gate_checked;
        out
    }
}

/// `Column op Literal` (either order; the operator is flipped when the
/// literal is on the left).
fn as_col_lit(e: &Expr) -> Option<(usize, &Value, BinOp)> {
    let Expr::Binary { op, left, right } = e else {
        return None;
    };
    match (left.as_ref(), right.as_ref()) {
        (Expr::Column(i), Expr::Literal(v)) => Some((*i, v, *op)),
        (Expr::Literal(v), Expr::Column(i)) => {
            let flipped = match op {
                BinOp::Lt => BinOp::Gt,
                BinOp::LtEq => BinOp::GtEq,
                BinOp::Gt => BinOp::Lt,
                BinOp::GtEq => BinOp::LtEq,
                other => *other,
            };
            Some((*i, v, flipped))
        }
        _ => None,
    }
}

fn derive_cell(cells: &[Cell], expr: &Expr, name: &str) -> Cell {
    // A pure column passthrough keeps the cell's full flow state (roles,
    // guards) so declassifiers still recognize it above the projection.
    if let Expr::Column(i) = expr {
        if let Some(c) = cells.get(*i) {
            let mut c = c.clone();
            if &*c.name != name {
                c.name = Arc::from(name);
            }
            return c;
        }
    }
    let mut refs = Vec::new();
    expr.referenced_columns(&mut refs);
    let mut out = Cell::public(name);
    for &r in &refs {
        if let Some(c) = cells.get(r) {
            out.label = out.label.max(c.label);
            out.gated |= c.gated;
            out.agg_guarded |= c.agg_guarded;
            if out.table.is_empty() {
                out.table = c.table.clone();
            } else if out.table != c.table {
                out.table = no_table();
            }
        }
    }
    out
}

/// Apply a scan's projection: the picked cells become the output, the
/// rest are hidden (see [`FlowInfo::hidden`]).
fn project_scan(info: &mut FlowInfo, idx: &[usize]) {
    let cells = std::mem::take(&mut info.cells);
    info.cells = idx
        .iter()
        .map(|&i| cells.get(i).cloned().unwrap_or_else(|| Cell::public("?")))
        .collect();
    info.hidden.extend(
        cells
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !idx.contains(i))
            .map(|(_, c)| c),
    );
}

fn join_cells(mut a: Cell, b: &Cell) -> Cell {
    a.label = a.label.max(b.label);
    a.gated |= b.gated;
    a.agg_guarded |= b.agg_guarded;
    if a.table != b.table {
        a.table = no_table();
    }
    a
}

/// Combine two child infos: `combine` merges the cell vectors; context is
/// the lattice join; gate checks survive from either side.
fn merge_infos(
    mut l: FlowInfo,
    r: FlowInfo,
    combine: impl FnOnce(Vec<Cell>, Vec<Cell>) -> Vec<Cell>,
) -> FlowInfo {
    l.hidden.extend(r.hidden);
    let (ctx, ctx_origin, ctx_gated) = if r.ctx > l.ctx {
        (r.ctx, r.ctx_origin, r.ctx_gated)
    } else if l.ctx == r.ctx && l.ctx_gated && !r.ctx_gated && r.ctx > Sensitivity::Public {
        // An equally-high non-gated taint dominates a gated one (a gate
        // check must not launder it).
        (r.ctx, r.ctx_origin, false)
    } else {
        (l.ctx, l.ctx_origin, l.ctx_gated)
    };
    FlowInfo {
        cells: combine(l.cells, r.cells),
        hidden: l.hidden,
        ctx,
        ctx_origin,
        ctx_gated,
        gate_checked: l.gate_checked || r.gate_checked,
    }
}

fn taint_with_expr(info: &mut FlowInfo, expr: &Expr, what: &'static str) {
    let mut refs = Vec::new();
    expr.referenced_columns(&mut refs);
    for r in refs {
        if let Some(c) = info.cells.get(r) {
            if c.label > info.ctx {
                info.ctx = c.label;
                info.ctx_origin = Some((what, c.table.clone(), c.name.clone()));
                info.ctx_gated = c.gated;
            } else if c.label == info.ctx
                && info.ctx_gated
                && !c.gated
                && c.label > Sensitivity::Public
            {
                // A non-gated taint at the same level pins the context: a
                // later gate check must not lower it.
                info.ctx_origin = Some((what, c.table.clone(), c.name.clone()));
                info.ctx_gated = false;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Statically prove (or refute) that `plan`'s output may be disclosed to
/// `principal`. Labels come from the catalog's [`FlowPolicy`]; unlabeled
/// tables are `Public`. Violations are reported as P-code [`Diagnostic`]s;
/// an empty report is the disclosure proof.
pub fn check_disclosure(
    plan: &LogicalPlan,
    catalog: &Catalog,
    principal: &Principal,
) -> ValidationReport {
    // Full clearance sits at the lattice top: no label or context can
    // exceed it, so no error path can fire. Skip the walk — the server's
    // staff sessions pay nothing for the gate. (P101 weak-guard warnings
    // are skipped too; they only matter to principals the guard protects
    // against, and `crlint --principal student` surfaces them.)
    if principal.clearance() >= Sensitivity::Restricted {
        if cr_obs::enabled() {
            fmetrics().checks.inc();
        }
        return ValidationReport {
            diagnostics: Vec::new(),
        };
    }
    let mut checker = FlowChecker {
        catalog,
        principal,
        diags: Vec::new(),
        stack: vec![plan.op_name()],
        restricted_reported: BTreeSet::new(),
    };
    let info = checker.flow(plan);
    let clearance = principal.clearance();
    for (i, cell) in info.cells.iter().enumerate() {
        if cell.label <= clearance {
            continue;
        }
        if cell.label == Sensitivity::Restricted
            && checker.restricted_reported.contains(&cell.table)
        {
            continue; // already reported as P005 at the scan site
        }
        let origin = if cell.table.is_empty() {
            cell.name.to_string()
        } else {
            format!("{}.{}", cell.table, cell.name)
        };
        let (code, hint) = if cell.gated {
            (
                P_OPTOUT_BYPASS,
                "add a sharing-gate check (e.g. SharePlans = TRUE) or restrict to the owner",
            )
        } else if cell.agg_guarded {
            (
                P_AGG_BELOW_K,
                "guard the aggregate with a k-threshold (e.g. HAVING COUNT(...) >= k)",
            )
        } else if cell.label == Sensitivity::Restricted {
            (P_RESTRICTED_SOURCE, "restricted telemetry never discloses")
        } else {
            (P_DIRECT, "project it away or restrict to the owner")
        };
        checker.diags.push(Diagnostic::error(
            code,
            "output".to_owned(),
            format!(
                "column #{i} ({origin}) is {} but principal {} has {} clearance; {hint}",
                cell.label, principal, clearance
            ),
        ));
    }
    if info.ctx > clearance {
        checker.diags.push(Diagnostic::error(
            P_IMPLICIT,
            "output".to_owned(),
            format!(
                "row selection depends on {} data ({}) above {} clearance of principal {}",
                info.ctx,
                info.ctx_origin_string(),
                clearance,
                principal
            ),
        ));
    }
    let report = ValidationReport {
        diagnostics: checker.diags,
    };
    if cr_obs::enabled() {
        let m = fmetrics();
        m.checks.inc();
        if report.has_errors() {
            m.denials.inc();
        }
        let w = report.warnings().count() as u64;
        if w > 0 {
            m.warnings.add(w);
        }
    }
    report
}

/// Disclosure decision for a SQL text, memoized on the catalog — the
/// steady-state form of [`check_disclosure`] for the server's read path,
/// where the same query texts recur across requests. A hit skips both
/// planning and the flow walk; the per-request analysis overhead is one
/// map lookup. Soundness: decisions depend only on schema and policy
/// (never data), the cache key includes the principal, and entries are
/// generation-stamped (DDL) and cleared on policy changes — the same
/// invalidation discipline the scan-template cache uses.
///
/// Returns `None` when the text does not plan as a query (DML/DDL);
/// the caller's read-only guard owns that error path.
pub fn check_disclosure_sql(
    sql: &str,
    catalog: &Catalog,
    principal: &Principal,
) -> Option<Arc<ValidationReport>> {
    let gen = catalog.flow_gen_now();
    let key = format!("{principal}\u{1f}{sql}");
    if let Some(report) = catalog.flow_decision(gen, &key) {
        if cr_obs::enabled() {
            let m = fmetrics();
            m.checks.inc();
            if report.has_errors() {
                m.denials.inc();
            }
        }
        return Some(report);
    }
    let plan = crate::sql::plan_query(sql, catalog).ok()?;
    let report = Arc::new(check_disclosure(&plan, catalog, principal));
    catalog.store_flow_decision(key, gen, Arc::clone(&report));
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;

    fn campus() -> Database {
        let db = Database::new();
        db.execute_sql(
            "CREATE TABLE Students (SuID INT PRIMARY KEY, Name TEXT, GPA FLOAT, SharePlans BOOL)",
        )
        .unwrap();
        db.execute_sql(
            "CREATE TABLE Enrollments (SuID INT, CourseID INT, Grade TEXT, Status TEXT)",
        )
        .unwrap();
        let catalog = db.catalog();
        catalog.set_table_policy(
            "Students",
            TablePolicy::new(Sensitivity::Community)
                .owner("SuID", Sensitivity::Community)
                .column("GPA", Sensitivity::PerUser)
                .gate("SharePlans", Sensitivity::Community),
        );
        catalog.set_table_policy(
            "Enrollments",
            TablePolicy::new(Sensitivity::Community)
                .owner("SuID", Sensitivity::Community)
                .column("Grade", Sensitivity::PerUser)
                .gated("CourseID")
                .gated("Status"),
        );
        db
    }

    fn check(db: &Database, sql: &str, p: &Principal) -> ValidationReport {
        let plan = crate::sql::plan_query(sql, &db.catalog()).unwrap();
        check_disclosure(&plan, &db.catalog(), p)
    }

    #[test]
    fn lattice_orders() {
        assert!(Sensitivity::Public < Sensitivity::Community);
        assert!(Sensitivity::Community < Sensitivity::PerUser);
        assert!(Sensitivity::PerUser < Sensitivity::Restricted);
    }

    #[test]
    fn principal_parsing() {
        assert_eq!(Principal::parse("staff"), Some(Principal::Staff));
        assert_eq!(
            Principal::parse("Student:444"),
            Some(Principal::Student(Some(444)))
        );
        assert_eq!(Principal::parse("student"), Some(Principal::Student(None)));
        assert_eq!(Principal::parse("nope"), None);
    }

    #[test]
    fn direct_disclosure_denied_for_student_allowed_for_staff() {
        let db = campus();
        let r = check(
            &db,
            "SELECT SuID, Grade FROM Enrollments",
            &Principal::Student(Some(2)),
        );
        assert!(r.has_code(P_DIRECT), "{r}");
        let r = check(
            &db,
            "SELECT SuID, Grade FROM Enrollments",
            &Principal::Staff,
        );
        assert!(r.is_empty(), "{r}");
    }

    #[test]
    fn self_access_declassifies() {
        let db = campus();
        let r = check(
            &db,
            "SELECT Grade FROM Enrollments WHERE SuID = 2",
            &Principal::Student(Some(2)),
        );
        assert!(r.is_empty(), "{r}");
        // Someone else's id: still denied.
        let r = check(
            &db,
            "SELECT Grade FROM Enrollments WHERE SuID = 3",
            &Principal::Student(Some(2)),
        );
        assert!(r.has_errors(), "{r}");
    }

    #[test]
    fn implicit_flow_via_predicate() {
        let db = campus();
        // Only community columns in the output, but selection depends on
        // a per-user grade.
        let r = check(
            &db,
            "SELECT SuID FROM Enrollments WHERE Grade = 'A'",
            &Principal::Student(Some(2)),
        );
        assert!(r.has_code(P_IMPLICIT), "{r}");
    }

    #[test]
    fn k_guard_declassifies_aggregate() {
        let db = campus();
        let denied = check(
            &db,
            "SELECT Grade, COUNT(*) AS n FROM Enrollments GROUP BY Grade",
            &Principal::Student(Some(2)),
        );
        assert!(denied.has_code(P_AGG_BELOW_K), "{denied}");
        let ok = check(
            &db,
            "SELECT Grade, COUNT(*) AS n FROM Enrollments GROUP BY Grade HAVING COUNT(*) >= 5",
            &Principal::Student(Some(2)),
        );
        assert!(!ok.has_errors(), "{ok}");
        // Weak guard (rows, not distinct owners) warns.
        assert!(ok.has_code(P_WEAK_GUARD), "{ok}");
        let strong = check(
            &db,
            "SELECT Grade, COUNT(DISTINCT SuID) AS n FROM Enrollments GROUP BY Grade \
             HAVING COUNT(DISTINCT SuID) >= 5",
            &Principal::Student(Some(2)),
        );
        assert!(strong.is_empty(), "{strong}");
    }

    #[test]
    fn optout_gate() {
        let db = campus();
        let bypass = check(
            &db,
            "SELECT e.SuID, e.CourseID FROM Enrollments e WHERE e.Status = 'planned'",
            &Principal::Student(Some(2)),
        );
        assert!(bypass.has_code(P_OPTOUT_BYPASS), "{bypass}");
        let gated = check(
            &db,
            "SELECT e.SuID, e.CourseID FROM Enrollments e \
             JOIN Students s ON e.SuID = s.SuID \
             WHERE s.SharePlans = TRUE AND e.Status = 'planned'",
            &Principal::Student(Some(2)),
        );
        assert!(!gated.has_errors(), "{gated}");
        // Faculty never benefit from the gate.
        let faculty = check(
            &db,
            "SELECT e.SuID, e.CourseID FROM Enrollments e \
             JOIN Students s ON e.SuID = s.SuID \
             WHERE s.SharePlans = TRUE AND e.Status = 'planned'",
            &Principal::Faculty,
        );
        assert!(faculty.has_code(P_OPTOUT_BYPASS), "{faculty}");
    }

    #[test]
    fn narrowed_scans_keep_every_p_code() {
        // The optimizer narrows scans to the columns read above them, so a
        // COUNT(*) can sit over scans that emit no column at all. The
        // verdict must not depend on that: the bound plan and the
        // optimized one get the same codes for every principal.
        let db = campus();
        let bound = |sql: &str| match crate::sql::parse(sql).unwrap().as_slice() {
            [crate::sql::ast::Statement::Select(q)] => {
                crate::sql::binder::bind_select(q, &db.catalog()).unwrap()
            }
            other => panic!("expected one SELECT, got {other:?}"),
        };
        let codes = |r: ValidationReport| {
            let mut c: Vec<&str> = r.diagnostics.iter().map(|d| d.code).collect();
            c.sort_unstable();
            c
        };
        let corpus = [
            "SELECT COUNT(*) AS n FROM Enrollments",
            "SELECT COUNT(*) AS n FROM Enrollments WHERE SuID = 2",
            "SELECT COUNT(*) AS n FROM Enrollments WHERE Grade = 'A'",
            "SELECT CourseID, COUNT(*) AS n FROM Enrollments GROUP BY CourseID",
            "SELECT s.Name, COUNT(*) AS n FROM Students s JOIN Enrollments e ON e.SuID = s.SuID \
             GROUP BY s.Name",
            "SELECT e.CourseID, COUNT(*) AS n FROM Enrollments e JOIN Students s \
             ON e.SuID = s.SuID WHERE s.SharePlans = TRUE GROUP BY e.CourseID",
            "SELECT s.Name, COUNT(*) AS n FROM Students s JOIN Enrollments e ON e.SuID = s.SuID \
             WHERE e.SuID = 2 GROUP BY s.Name",
            "SELECT Grade, COUNT(*) AS n FROM Enrollments GROUP BY Grade HAVING COUNT(*) >= 5",
            "SELECT e.SuID, e.CourseID FROM Enrollments e JOIN Students s ON e.SuID = s.SuID \
             WHERE s.SharePlans = TRUE AND e.Status = 'planned'",
            "SELECT Name FROM Students WHERE GPA > 3.5",
        ];
        for sql in corpus {
            let plan = bound(sql);
            let optimized = crate::plan::optimizer::optimize(plan.clone());
            assert!(optimized.explain().contains("cols="), "{sql}");
            for p in [
                Principal::Student(Some(2)),
                Principal::Student(None),
                Principal::Faculty,
                Principal::Anonymous,
            ] {
                let want = codes(check_disclosure(&plan, &db.catalog(), &p));
                let got = codes(check_disclosure(&optimized, &db.catalog(), &p));
                assert_eq!(got, want, "{p}: {sql}\n{}", optimized.explain());
            }
        }
        // The counted table's labels still reach a zero-column scan.
        let r = check(
            &db,
            "SELECT COUNT(*) AS n FROM Enrollments",
            &Principal::Student(Some(2)),
        );
        assert!(r.has_errors(), "{r}");
    }

    #[test]
    fn restricted_scan_paths_are_spelled_as_the_validator_spells_them() {
        // A P005 names the scan it fires at with the validator's path:
        // every operator once, plus the edge label of a non-main input.
        use crate::plan::validate::{validate, E_SCHEMA_ARITY};
        use crate::plan::PlanBuilder;
        let db = campus();
        db.execute_sql("CREATE TABLE Telemetry (Id INT PRIMARY KEY, SuID INT, Query TEXT)")
            .unwrap();
        let c = db.catalog();
        c.set_table_policy("Telemetry", TablePolicy::new(Sensitivity::Restricted));
        let scan = |t: &str| PlanBuilder::scan(&c, t).unwrap();
        let pair = |t: &str, key: &str| scan(t).select_columns(&["SuID", key]).unwrap();
        let cases = [
            (
                crate::sql::plan_query("SELECT Query FROM Telemetry", &c).unwrap(),
                "Project.Scan",
            ),
            (
                scan("Telemetry")
                    .join(
                        scan("Students"),
                        crate::plan::JoinKind::Inner,
                        Expr::col("Telemetry.SuID").eq(Expr::col("Students.SuID")),
                    )
                    .unwrap()
                    .select_columns(&["Name"])
                    .unwrap()
                    .build(),
                "Project.Join.left.Scan",
            ),
            (
                scan("Telemetry")
                    .extend(pair("Enrollments", "CourseID"), "SuID", false, "taken")
                    .unwrap()
                    .build(),
                "Extend.Scan",
            ),
            (
                scan("Students")
                    .extend(pair("Telemetry", "Id"), "SuID", false, "queries")
                    .unwrap()
                    .build(),
                "Extend.related.Project.Scan",
            ),
        ];
        // The validator's path to the same scan: give it a projection its
        // schema disagrees with, and read where E004 fires.
        fn break_telemetry_scans(plan: LogicalPlan) -> LogicalPlan {
            let mut plan = plan.map_children(break_telemetry_scans);
            if let LogicalPlan::Scan {
                table, projection, ..
            } = &mut plan
            {
                if table == "Telemetry" {
                    *projection = Some(Vec::new());
                }
            }
            plan
        }
        for (plan, want) in cases {
            let r = check_disclosure(&plan, &c, &Principal::Student(Some(2)));
            let p005: Vec<&str> = r
                .diagnostics
                .iter()
                .filter(|d| d.code == P_RESTRICTED_SOURCE)
                .map(|d| d.path.as_str())
                .collect();
            assert_eq!(p005, [want], "{r}\n{}", plan.explain());
            let v = validate(&break_telemetry_scans(plan));
            let e004: Vec<&str> = v
                .diagnostics
                .iter()
                .filter(|d| d.code == E_SCHEMA_ARITY)
                .map(|d| d.path.as_str())
                .collect();
            assert_eq!(e004, [want], "{v}");
        }
    }

    #[test]
    fn unlabeled_tables_are_public() {
        let db = Database::new();
        db.execute_sql("CREATE TABLE t (x INT)").unwrap();
        let r = check(&db, "SELECT x FROM t", &Principal::Anonymous);
        assert!(r.is_empty(), "{r}");
    }
}
