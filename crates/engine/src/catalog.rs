//! In-memory storage: tables and the versioned database catalog.
//!
//! The catalog is **snapshot isolated**: [`Database`] holds an
//! `Arc<DbSnapshot>` — an immutable map of table name → `Arc<Table>`
//! (segments + statistics) stamped with a version number — that is
//! swapped atomically when a [`WriteTxn`] commits. Queries pin the
//! snapshot once at dispatch ([`Database::snapshot`]) and read it
//! lock-free to completion; writers build the next version behind a
//! single writer mutex and publish it with one pointer store. No reader
//! ever blocks on a writer or observes partial state, which is what lets
//! the server run the paper's multi-stream throughput test (§5.2)
//! concurrently with data maintenance.
//!
//! **The segments are the table.** A [`Table`] keeps its rows once, as a
//! [`ColumnTable`] of immutable, `Arc`-shared segments; there is no row
//! list and no secondary structure beside them, so every scan reads the
//! segments. Staging a table copies no segment, and a table changes by one
//! call, [`Table::change`]: the rows it removes die, marked in the masks of
//! the segments they sit in, and the rows it appends (a typed batch;
//! [`Table::insert`] builds one from rows) follow the live rows. It builds
//! the tail it grows (less than a morsel of it), the segments it adds and
//! any segment it leaves a quarter dead, which it compacts — nothing else.
//! An update is one change: the old versions die and the new ones are
//! appended, so an updated row moves to the end of the table. Statistics
//! follow each change at once, by the same rule: it folds in the rows it
//! appends and takes out the rows it removes — so a commit pays for the
//! rows it changed.
//! What a reader gets is indistinguishable from segments and statistics
//! built from scratch over the published live rows, in order, except that
//! the NDV sketches still count the values of rows deleted, old versions
//! of updated rows among them (see `tpcds_storage::stats`).
//!
//! Commit is panic-safe by construction: a transaction that unwinds
//! before [`WriteTxn::commit`] publishes nothing — the staged tables are
//! dropped and the head snapshot is untouched (nothing a published
//! version owns is ever written through; the writer mutex ignores
//! poisoning, see `crate::sync`).

use crate::error::{EngineError, Result};
use crate::sync::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use tpcds_obs::qlog::{QueryLog, DEFAULT_CAPACITY};
use tpcds_storage::{ColumnTable, TableStats};
use tpcds_types::{DataType, Row};

/// A row producer for a server-owned `sys.*` virtual table
/// (`sys.sessions`, `sys.queries`): the server registers a closure over
/// its live session registry, the engine calls it at scan time.
type SysProvider = Box<dyn Fn() -> Vec<Row> + Send + Sync>;

/// Schema of one stored column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnMeta {
    /// Column name (lower-case).
    pub name: String,
    /// Runtime type of values stored.
    pub dtype: DataType,
}

/// One stored table. Cloning a `Table` is how a [`WriteTxn`] stages it,
/// and copies no row: the segments and the statistics are `Arc`s shared
/// with the base version. [`Table::change`] builds the segments whose
/// columns it changes and brings the statistics along.
#[derive(Clone, Debug)]
pub struct Table {
    /// Column metadata, in order.
    pub columns: Vec<ColumnMeta>,
    /// The rows, as typed column segments.
    data: Arc<ColumnTable>,
    /// Per-column statistics (row/null counts, min/max, NDV, histogram)
    /// of `data`'s live rows.
    stats: Arc<TableStats>,
    /// What its changes have done since the table was staged.
    staged: Derived,
}

impl Table {
    /// Creates an empty table with the given columns.
    pub fn new(columns: Vec<ColumnMeta>) -> Table {
        let dtypes = columns.iter().map(|c| c.dtype).collect();
        Table {
            stats: Arc::new(TableStats::empty(columns.len())),
            columns,
            data: Arc::new(ColumnTable::from_rows::<Row>(dtypes, &[])),
            staged: Derived::default(),
        }
    }

    /// The rows: the segments every scan and kernel reads. Always
    /// current, on a staged table too.
    pub fn data(&self) -> &Arc<ColumnTable> {
        &self.data
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Appends rows: [`Table::change`] with a batch built from them. A
    /// row of the wrong arity fails the whole batch and leaves the table
    /// exactly as it was.
    pub fn insert(&mut self, rows: Vec<Row>) -> Result<()> {
        let width = self.columns.len();
        if let Some(bad) = rows.iter().find(|row| row.len() != width) {
            return Err(EngineError::Catalog(format!(
                "arity mismatch: row has {} values, table has {width} columns",
                bad.len()
            )));
        }
        let batch = ColumnTable::from_rows(self.data.dtypes.clone(), &rows);
        self.change(&[], Some(&batch))
    }

    /// Removes the live rows at `removed`, ascending ids a caller picked
    /// from the segments ([`ColumnTable::int_ids`], say), and appends the
    /// live rows of `appended`, a table of this one's column types: the
    /// one way a table changes after its load ([`ColumnTable::change`]).
    /// An update is both, the old versions removed and the new ones
    /// appended, so an updated row moves to the end of the table. A batch
    /// of other column types fails and leaves the table exactly as it was.
    /// The statistics follow at once: the rows appended fold in, then the
    /// rows removed leave, so an extreme a new version still holds is
    /// found among the rows rather than rescanned for.
    pub fn change(&mut self, removed: &[u32], appended: Option<&ColumnTable>) -> Result<()> {
        if let Some(batch) = appended.filter(|batch| batch.dtypes != self.data.dtypes) {
            return Err(EngineError::Catalog(format!(
                "type mismatch: batch columns {:?}, table columns {:?}",
                batch.dtypes, self.data.dtypes
            )));
        }
        let added = appended.map_or(0, |batch| batch.rows);
        if removed.is_empty() && added == 0 {
            return Ok(());
        }
        let threads = tpcds_storage::effective_threads();
        let gone = (!removed.is_empty())
            .then(|| tpcds_storage::removed_stats_at(&self.data, removed, threads));
        let (data, built, compacted) = self.data.change(removed, appended, threads);
        self.data = Arc::new(data);
        let (stats, staged) = (Arc::make_mut(&mut self.stats), &mut self.staged);
        staged.rows_changed += removed.len() + added;
        staged.rows_masked += removed.len();
        staged.segments_rebuilt += built;
        staged.segments_compacted += compacted;
        if let Some(batch) = appended.filter(|batch| batch.rows > 0) {
            stats.append(batch, threads);
            staged.stats_cells_folded += added * self.data.width();
        }
        if let Some(gone) = gone {
            stats.retract(&gone, &self.data);
            staged.stats_cells_retracted += removed.len() * self.data.width();
        }
        Ok(())
    }

    /// Fills an empty table with a load built elsewhere: the segments and
    /// the statistics of their rows (the bulk load builds both one segment
    /// at a time, on every core). Errors if the column types or the row
    /// count disagree with the segments.
    pub fn load(&mut self, data: ColumnTable, stats: TableStats) -> Result<()> {
        let width = data.width();
        let fits = data.dtypes == self.data.dtypes
            && self.data.rows == 0
            && (stats.rows, stats.columns.len()) == (data.rows as u64, width);
        if !fits {
            return Err(EngineError::Catalog(format!(
                "cannot load {}x{width} segments and statistics of {} rows into a {}x{} table",
                data.rows,
                stats.rows,
                self.data.rows,
                self.data.width(),
            )));
        }
        self.staged.rows_changed += data.rows;
        self.staged.segments_rebuilt += data.segments.len();
        self.staged.stats_cells_folded += data.rows * width;
        self.data = Arc::new(data);
        self.stats = Arc::new(stats);
        Ok(())
    }

    /// The per-column statistics of the rows, current on a staged table
    /// too.
    pub fn stats(&self) -> Arc<TableStats> {
        Arc::clone(&self.stats)
    }

    /// What the transaction cost.
    fn publish(&mut self) -> Derived {
        let mut derived = std::mem::take(&mut self.staged);
        derived.tables_rebuilt = usize::from(derived.rows_changed > 0);
        derived
    }
}

/// What one table's changes and its commit did.
#[derive(Clone, Copy, Debug, Default)]
struct Derived {
    rows_changed: usize,
    tables_rebuilt: usize,
    segments_rebuilt: usize,
    rows_masked: usize,
    segments_compacted: usize,
    stats_cells_folded: usize,
    stats_cells_retracted: usize,
}

/// One immutable published version of the database: every table frozen at
/// a point in time, plus the version number. Queries hold an
/// `Arc<DbSnapshot>` and read without any locking; writers never touch a
/// published snapshot.
#[derive(Debug)]
pub struct DbSnapshot {
    version: u64,
    tables: HashMap<String, Arc<Table>>,
}

impl DbSnapshot {
    /// The version number (0 = the empty database, +1 per commit).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Handle to a table in this snapshot.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .get(name)
            .cloned()
            .ok_or_else(|| EngineError::Catalog(format!("unknown table {name}")))
    }

    /// True when the table exists in this snapshot.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.keys().cloned().collect();
        v.sort();
        v
    }

    /// Row count of a table (0 when missing — used by the planner for
    /// cardinality estimates only).
    pub fn row_count(&self, name: &str) -> usize {
        self.tables.get(name).map(|t| t.data.rows).unwrap_or(0)
    }

    /// Total number of stored rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.data.rows).sum()
    }
}

/// One retained snapshot as reported by [`Database::snapshot_history`]
/// (a `sys.snapshots` row).
#[derive(Clone, Copy, Debug)]
pub struct SnapshotInfo {
    /// The published version number.
    pub version: u64,
    /// Tables in the snapshot.
    pub tables: usize,
    /// Total stored rows across the snapshot.
    pub rows: usize,
    /// True for the currently published head.
    pub is_head: bool,
}

/// What a committed transaction changed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Commit {
    /// The version number the commit published.
    pub version: u64,
    /// Tables the transaction wrote (created, dropped, or mutated).
    pub tables_changed: usize,
    /// Tables whose rows the transaction actually mutated — the
    /// `snapshot.tables_rebuilt` counter.
    pub tables_rebuilt: usize,
    /// Segments whose columns its changes built — appended tails and new
    /// segments, compactions; every other segment of the new version
    /// shares its columns with the base version
    /// (`snapshot.segments_rebuilt`).
    pub segments_rebuilt: usize,
    /// Rows its deletes and updates marked dead in a segment's mask.
    pub rows_masked: usize,
    /// Segments its deletes and updates left a quarter dead and so
    /// rebuilt without their dead rows (also counted in
    /// `segments_rebuilt`); not a tail its append copied, which that copy
    /// leaves without them.
    pub segments_compacted: usize,
    /// Cells folded into table statistics: appended rows and new
    /// versions of updated ones, times the table's width.
    pub stats_cells_folded: usize,
    /// Cells taken out of table statistics: deleted rows and old versions
    /// of updated ones, times the table's width.
    pub stats_cells_retracted: usize,
}

struct WriterState {
    /// Recently published snapshots, oldest first; the last entry is the
    /// current head. [`Database::snapshot_at`] serves pinned-version
    /// lookups (the soak test's differential oracle) from here.
    history: VecDeque<Arc<DbSnapshot>>,
    retain: usize,
}

enum TxnEntry {
    Put(Table),
    Dropped,
}

/// A write transaction: copy-on-write table edits staged against the base
/// snapshot, published atomically by [`WriteTxn::commit`]. Dropping the
/// transaction without committing publishes nothing — mid-transaction
/// panics (a DM failure half-way through a batch) leave the head snapshot
/// exactly as it was.
pub struct WriteTxn<'a> {
    db: &'a Database,
    state: std::sync::MutexGuard<'a, WriterState>,
    base: Arc<DbSnapshot>,
    pending: HashMap<String, TxnEntry>,
}

impl std::fmt::Debug for WriteTxn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WriteTxn(base v{}, {} pending)",
            self.base.version(),
            self.pending.len()
        )
    }
}

impl<'a> WriteTxn<'a> {
    /// The snapshot this transaction reads from and builds upon.
    pub fn base(&self) -> &Arc<DbSnapshot> {
        &self.base
    }

    /// True when the table exists in the transaction's view.
    pub fn has_table(&self, name: &str) -> bool {
        match self.pending.get(name) {
            Some(TxnEntry::Put(_)) => true,
            Some(TxnEntry::Dropped) => false,
            None => self.base.has_table(name),
        }
    }

    /// Mutable handle to a table, staged out of the base snapshot on first
    /// touch. Staging copies no row: segments and statistics stay shared
    /// with the base version, and [`Table::change`] builds what it
    /// changes.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        if !self.pending.contains_key(name) {
            let t = self.base.table(name)?;
            self.pending
                .insert(name.to_string(), TxnEntry::Put((*t).clone()));
        }
        match self.pending.get_mut(name) {
            Some(TxnEntry::Put(t)) => Ok(t),
            _ => Err(EngineError::Catalog(format!("unknown table {name}"))),
        }
    }

    /// Creates an empty table. Errors if the name exists in this
    /// transaction's view.
    pub fn create_table(&mut self, name: &str, columns: Vec<ColumnMeta>) -> Result<()> {
        if self.has_table(name) {
            return Err(EngineError::Catalog(format!("table {name} already exists")));
        }
        self.pending
            .insert(name.to_string(), TxnEntry::Put(Table::new(columns)));
        Ok(())
    }

    /// Drops a table. Errors if missing.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        if !self.has_table(name) {
            return Err(EngineError::Catalog(format!("unknown table {name}")));
        }
        self.pending.insert(name.to_string(), TxnEntry::Dropped);
        Ok(())
    }

    /// Publishes the staged tables as the next snapshot version and
    /// returns what changed. The changes already built the segments and
    /// revised the statistics for what they moved, so the commit only
    /// swaps the tables in: the returned [`Commit`] says what the
    /// transaction cost.
    pub fn commit(mut self) -> Commit {
        let span = tpcds_obs::span("snapshot", "commit");
        let mut tables = self.base.tables.clone();
        let tables_changed = self.pending.len();
        let mut total = Derived::default();
        for (name, entry) in self.pending.drain() {
            match entry {
                TxnEntry::Dropped => {
                    tables.remove(&name);
                }
                TxnEntry::Put(mut t) => {
                    let derived = t.publish();
                    total.tables_rebuilt += derived.tables_rebuilt;
                    total.segments_rebuilt += derived.segments_rebuilt;
                    total.rows_masked += derived.rows_masked;
                    total.segments_compacted += derived.segments_compacted;
                    total.stats_cells_folded += derived.stats_cells_folded;
                    total.stats_cells_retracted += derived.stats_cells_retracted;
                    tables.insert(name, Arc::new(t));
                }
            }
        }
        let version = self.base.version + 1;
        let snap = Arc::new(DbSnapshot { version, tables });
        *self.db.head.write() = Arc::clone(&snap);
        self.state.history.push_back(snap);
        let retain = self.state.retain.max(1);
        while self.state.history.len() > retain {
            self.state.history.pop_front();
        }
        tpcds_obs::counter("snapshot", "commits", 1.0);
        let tables_rebuilt = total.tables_rebuilt;
        if tables_rebuilt > 0 {
            for (name, n) in [
                ("tables_rebuilt", tables_rebuilt),
                ("segments_rebuilt", total.segments_rebuilt),
                ("rows_masked", total.rows_masked),
                ("segments_compacted", total.segments_compacted),
            ] {
                tpcds_obs::counter("snapshot", name, n as f64);
            }
        }
        tpcds_obs::metrics::gauge_set("snapshot.version", version as i64);
        span.finish();
        Commit {
            version,
            tables_changed,
            tables_rebuilt,
            segments_rebuilt: total.segments_rebuilt,
            rows_masked: total.rows_masked,
            segments_compacted: total.segments_compacted,
            stats_cells_folded: total.stats_cells_folded,
            stats_cells_retracted: total.stats_cells_retracted,
        }
    }
}

/// The database: a versioned, atomically published collection of tables.
pub struct Database {
    head: RwLock<Arc<DbSnapshot>>,
    writer: Mutex<WriterState>,
    /// Per-database finished-query ring, served as `sys.query_log`.
    query_log: Arc<QueryLog>,
    /// Server-registered row producers for `sys.sessions`/`sys.queries`
    /// (empty tables until a server registers them).
    sys_providers: RwLock<HashMap<String, SysProvider>>,
}

impl Default for Database {
    fn default() -> Database {
        let v0 = Arc::new(DbSnapshot {
            version: 0,
            tables: HashMap::new(),
        });
        let mut history = VecDeque::new();
        history.push_back(Arc::clone(&v0));
        Database {
            head: RwLock::new(v0),
            writer: Mutex::new(WriterState { history, retain: 8 }),
            query_log: Arc::new(QueryLog::new(DEFAULT_CAPACITY)),
            sys_providers: RwLock::new(HashMap::new()),
        }
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        write!(
            f,
            "Database(v{}, {} tables, {} rows)",
            s.version(),
            s.tables.len(),
            s.total_rows()
        )
    }
}

impl Database {
    /// An empty database at version 0.
    pub fn new() -> Database {
        Database::default()
    }

    /// Pins the current head snapshot. The returned `Arc` stays valid and
    /// immutable forever; later commits publish new snapshots without
    /// disturbing it.
    pub fn snapshot(&self) -> Arc<DbSnapshot> {
        Arc::clone(&self.head.read())
    }

    /// The currently published version number.
    pub fn version(&self) -> u64 {
        self.head.read().version
    }

    /// A recently published snapshot by version number, if still retained
    /// (see [`Database::set_snapshot_retention`]). The soak test's
    /// differential oracle replays queries against exactly the version a
    /// server response was computed on.
    pub fn snapshot_at(&self, version: u64) -> Option<Arc<DbSnapshot>> {
        self.writer
            .lock()
            .history
            .iter()
            .find(|s| s.version == version)
            .cloned()
    }

    /// Sets how many published snapshots [`Database::snapshot_at`] can
    /// look up (minimum 1 — the head itself). Pinned `Arc`s held by
    /// in-flight queries are unaffected by trimming.
    pub fn set_snapshot_retention(&self, retain: usize) {
        let mut state = self.writer.lock();
        state.retain = retain.max(1);
        while state.history.len() > state.retain {
            state.history.pop_front();
        }
    }

    /// The per-database finished-query log backing `sys.query_log`:
    /// the latest [`DEFAULT_CAPACITY`] statements, enabled until
    /// [`QueryLog::set_enabled`] turns it off.
    pub fn query_log(&self) -> &Arc<QueryLog> {
        &self.query_log
    }

    /// Registers (or replaces) the row producer behind a server-owned
    /// virtual table (`sys.sessions`, `sys.queries`). The closure runs at
    /// scan time on the querying thread — it must not call back into the
    /// engine.
    pub fn register_sys_provider(
        &self,
        name: &str,
        f: impl Fn() -> Vec<Row> + Send + Sync + 'static,
    ) {
        self.sys_providers
            .write()
            .insert(name.to_string(), Box::new(f));
    }

    /// Rows from a registered provider, or `None` when nothing is
    /// registered under `name`.
    pub fn sys_provider_rows(&self, name: &str) -> Option<Vec<Row>> {
        self.sys_providers.read().get(name).map(|f| f())
    }

    /// Every retained snapshot (oldest first) plus the retention limit —
    /// the rows of `sys.snapshots`.
    pub fn snapshot_history(&self) -> (Vec<SnapshotInfo>, usize) {
        let head = self.version();
        let state = self.writer.lock();
        let infos = state
            .history
            .iter()
            .map(|s| SnapshotInfo {
                version: s.version,
                tables: s.tables.len(),
                rows: s.total_rows(),
                is_head: s.version == head,
            })
            .collect();
        (infos, state.retain)
    }

    /// Opens a write transaction. Writers serialize on an internal mutex;
    /// readers are never blocked. Stage edits with
    /// [`WriteTxn::table_mut`] / [`WriteTxn::create_table`] /
    /// [`WriteTxn::drop_table`], then [`WriteTxn::commit`] — or drop the
    /// transaction to abandon every staged change.
    pub fn begin(&self) -> WriteTxn<'_> {
        let state = self.writer.lock();
        let base = self.snapshot();
        WriteTxn {
            db: self,
            state,
            base,
            pending: HashMap::new(),
        }
    }

    /// Creates an empty table (one auto-commit transaction).
    pub fn create_table(&self, name: &str, columns: Vec<ColumnMeta>) -> Result<()> {
        let mut txn = self.begin();
        txn.create_table(name, columns)?;
        txn.commit();
        Ok(())
    }

    /// Creates a table pre-populated with rows (one auto-commit
    /// transaction — a failed insert publishes nothing).
    pub fn create_table_with_rows(
        &self,
        name: &str,
        columns: Vec<ColumnMeta>,
        rows: Vec<Row>,
    ) -> Result<()> {
        let mut txn = self.begin();
        txn.create_table(name, columns)?;
        txn.table_mut(name)?.insert(rows)?;
        txn.commit();
        Ok(())
    }

    /// Drops a table. Errors if missing.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let mut txn = self.begin();
        txn.drop_table(name)?;
        txn.commit();
        Ok(())
    }

    /// Handle to a table in the current head snapshot. The handle is a
    /// frozen version: it never sees later commits. Re-fetch (or pin a
    /// whole [`Database::snapshot`]) to observe new versions.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.head.read().table(name)
    }

    /// True when the table exists in the head snapshot.
    pub fn has_table(&self, name: &str) -> bool {
        self.head.read().has_table(name)
    }

    /// All table names in the head snapshot.
    pub fn table_names(&self) -> Vec<String> {
        self.head.read().table_names()
    }

    /// Appends rows to a table (one auto-commit transaction).
    pub fn insert(&self, name: &str, rows: Vec<Row>) -> Result<()> {
        let mut txn = self.begin();
        txn.table_mut(name)?.insert(rows)?;
        txn.commit();
        Ok(())
    }

    /// Row count of a table in the head snapshot (0 when missing).
    pub fn row_count(&self, name: &str) -> usize {
        self.head.read().row_count(name)
    }

    /// Column metadata of a table.
    pub fn columns(&self, name: &str) -> Result<Vec<ColumnMeta>> {
        Ok(self.table(name)?.columns.clone())
    }

    /// Total number of stored rows across the head snapshot.
    pub fn total_rows(&self) -> usize {
        self.head.read().total_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpcds_types::Value;

    fn cols(names: &[&str]) -> Vec<ColumnMeta> {
        names
            .iter()
            .map(|n| ColumnMeta {
                name: n.to_string(),
                dtype: DataType::Int,
            })
            .collect()
    }

    #[test]
    fn create_insert_and_count() {
        let db = Database::new();
        db.create_table("t", cols(&["a", "b"])).unwrap();
        db.insert("t", vec![vec![Value::Int(1), Value::Int(2)]])
            .unwrap();
        assert_eq!(db.row_count("t"), 1);
        assert!(db.has_table("t"));
        assert!(!db.has_table("u"));
    }

    #[test]
    fn duplicate_table_rejected() {
        let db = Database::new();
        db.create_table("t", cols(&["a"])).unwrap();
        assert!(db.create_table("t", cols(&["a"])).is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let db = Database::new();
        db.create_table("t", cols(&["a", "b"])).unwrap();
        assert!(db.insert("t", vec![vec![Value::Int(1)]]).is_err());
    }

    /// The ids of the live rows holding `key` in column 0.
    fn ids(t: &Table, key: i64) -> Vec<usize> {
        let data = t.data();
        (data.live_ids())
            .filter(|&id| data.value(id, 0) == Value::Int(key))
            .collect()
    }

    /// The ids of the live rows `pred` admits.
    fn ids_where(t: &Table, pred: impl Fn(&[Value]) -> bool) -> Vec<u32> {
        let data = t.data();
        (data.live_ids())
            .filter(|&id| pred(&data.row(id)))
            .map(|id| id as u32)
            .collect()
    }

    /// Removes the rows of `name` that `pred` admits, in one auto-commit
    /// transaction; returns how many.
    fn delete_where(db: &Database, name: &str, pred: impl Fn(&[Value]) -> bool) -> usize {
        let mut txn = db.begin();
        let t = txn.table_mut(name).unwrap();
        let gone = ids_where(t, pred);
        t.change(&gone, None).unwrap();
        txn.commit();
        gone.len()
    }

    fn ints(values: &[i64]) -> ColumnTable {
        let rows: Vec<Row> = values.iter().map(|&x| vec![Value::Int(x)]).collect();
        ColumnTable::from_rows(vec![DataType::Int], &rows)
    }

    #[test]
    fn failed_insert_publishes_nothing() {
        let db = Database::new();
        db.create_table("t", cols(&["a"])).unwrap();
        db.insert("t", vec![vec![Value::Int(1)]]).unwrap();
        let v = db.version();
        // Second row has the wrong arity: the whole batch must vanish and
        // no new snapshot version may be published.
        let err = db.insert(
            "t",
            vec![vec![Value::Int(2)], vec![Value::Int(3), Value::Int(4)]],
        );
        assert!(err.is_err());
        assert_eq!(db.version(), v, "aborted txn must not publish");
        let t = db.table("t").unwrap();
        assert_eq!(t.data.rows, 1);
    }

    #[test]
    fn delete_remaps_index_positions_in_order() {
        let db = Database::new();
        db.create_table("t", cols(&["a", "b"])).unwrap();
        let rows = (0..12).map(|i| vec![Value::Int(i % 3), Value::Int(i)]);
        db.insert("t", rows.collect()).unwrap();
        let before = db.table("t").unwrap();
        let b_in = |set: &'static [i64]| move |r: &[Value]| set.contains(&r[1].as_int().unwrap());
        // Two rows of twelve: masked. The columns are shared, and the
        // survivors keep their ids.
        assert_eq!(delete_where(&db, "t", b_in(&[1, 4])), 2);
        let masked = db.table("t").unwrap();
        let seg = |t: &Table| Arc::clone(&t.data.segments[0].columns);
        assert!(Arc::ptr_eq(&seg(&masked), &seg(&before)));
        assert_eq!(ids(&masked, 1), [7, 10]);
        // A quarter dead: compacted, so the survivors move up.
        assert_eq!(delete_where(&db, "t", b_in(&[7])), 1);
        let tr = db.table("t").unwrap();
        assert_eq!((tr.data.rows, tr.data.has_dead()), (9, false));
        for (key, at) in [(0, [0, 2, 4, 6].as_slice()), (1, &[7]), (2, &[1, 3, 5, 8])] {
            assert_eq!(ids(&tr, key), at);
        }
        // Surviving order is the original relative order.
        let vals: Vec<i64> = tr.data.column(1).map(|v| v.as_int().unwrap()).collect();
        assert_eq!(vals, vec![0, 2, 3, 5, 6, 8, 9, 10, 11]);
    }

    #[test]
    fn commits_rebuild_only_mutated_tables() {
        let db = Database::new();
        db.create_table("t", cols(&["a"])).unwrap();
        db.create_table("u", cols(&["a"])).unwrap();
        db.insert("t", vec![vec![Value::Int(1)], vec![Value::Int(2)]])
            .unwrap();
        db.insert("u", vec![vec![Value::Int(9)]]).unwrap();
        let u_before = Arc::clone(db.table("u").unwrap().data());

        // Mutate only `t`: the commit rebuilds exactly one table, and the
        // published snapshot serves it immediately — no refresh step.
        let mut txn = db.begin();
        txn.table_mut("t")
            .unwrap()
            .insert(vec![vec![Value::Int(3)]])
            .unwrap();
        let commit = txn.commit();
        assert_eq!(commit.tables_changed, 1);
        assert_eq!(commit.tables_rebuilt, 1);
        let cells = (commit.stats_cells_folded, commit.stats_cells_retracted);
        assert_eq!(cells, (1, 0), "one appended cell folded in");
        let t = db.table("t").unwrap();
        assert_eq!(t.data().rows, 3);
        assert_eq!(t.stats().rows, 3, "commit brings stats up");
        // `u` was untouched: its segments are the very same Arc.
        assert!(Arc::ptr_eq(db.table("u").unwrap().data(), &u_before));
    }

    #[test]
    fn pinned_snapshots_never_change() {
        let db = Database::new();
        db.create_table("t", cols(&["a"])).unwrap();
        db.insert("t", vec![vec![Value::Int(1)]]).unwrap();
        let pinned = db.snapshot();
        let v = pinned.version();
        db.insert("t", vec![vec![Value::Int(2)]]).unwrap();
        delete_where(&db, "t", |r| r[0] == Value::Int(1));
        // The pinned snapshot still sees exactly one row with value 1.
        assert_eq!(pinned.version(), v);
        assert_eq!(pinned.row_count("t"), 1);
        assert_eq!(pinned.table("t").unwrap().data.row(0), [Value::Int(1)]);
        // The head moved on: two commits, one surviving row of value 2.
        assert_eq!(db.version(), v + 2);
        assert_eq!(db.table("t").unwrap().data.row(0), [Value::Int(2)]);
        // snapshot_at serves both retained versions.
        assert!(Arc::ptr_eq(&db.snapshot_at(v).unwrap(), &pinned));
        assert_eq!(db.snapshot_at(v + 2).unwrap().row_count("t"), 1);
    }

    #[test]
    fn snapshot_retention_trims_history() {
        let db = Database::new();
        db.create_table("t", cols(&["a"])).unwrap();
        db.set_snapshot_retention(2);
        for i in 0..5 {
            db.insert("t", vec![vec![Value::Int(i)]]).unwrap();
        }
        let head = db.version();
        assert!(db.snapshot_at(head).is_some());
        assert!(db.snapshot_at(head - 1).is_some());
        assert!(db.snapshot_at(head - 2).is_none(), "trimmed");
    }

    #[test]
    fn panicking_transaction_publishes_nothing() {
        let db = Database::new();
        db.create_table("t", cols(&["a"])).unwrap();
        db.insert("t", vec![vec![Value::Int(1)], vec![Value::Int(2)]])
            .unwrap();
        let v = db.version();
        let rows_before = db.row_count("t");
        let before = db.table("t").unwrap();
        // A DM batch that stages an append, a delete and an update —
        // segments built, statistics revised — and then dies
        // mid-transaction.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut txn = db.begin();
            let t = txn.table_mut("t").unwrap();
            t.insert(vec![vec![Value::Int(3)]]).unwrap();
            let one = ids_where(t, |r| r[0] == Value::Int(1));
            t.change(&one, None).unwrap();
            let two = ids_where(t, |r| r[0] == Value::Int(2));
            t.change(&two, Some(&ints(&[20]))).unwrap();
            panic!("writer dies mid-batch");
        }));
        assert!(result.is_err());
        // Head untouched: same version, same rows — the very table, with
        // nothing written through what it shares with the dead
        // transaction.
        assert_eq!(db.version(), v);
        assert_eq!(db.row_count("t"), rows_before);
        assert!(Arc::ptr_eq(&db.table("t").unwrap(), &before));
        let rows: Vec<Row> = before.data.iter_rows().collect();
        assert_eq!(rows, [[Value::Int(1)], [Value::Int(2)]]);
        assert_eq!(before.stats().rows, 2);
        // The writer lock recovered from the poisoning panic: later
        // transactions commit normally.
        db.insert("t", vec![vec![Value::Int(7)]]).unwrap();
        assert_eq!(db.version(), v + 1);
        assert_eq!(db.row_count("t"), rows_before + 1);
    }

    #[test]
    fn load_validates_shape_and_emptiness() {
        let db = Database::new();
        db.create_table("t", cols(&["a"])).unwrap();
        let load = |ct: ColumnTable, stats: TableStats| {
            let mut txn = db.begin();
            let t = txn.table_mut("t").unwrap();
            t.load(ct, stats)?;
            txn.commit();
            Ok::<(), EngineError>(())
        };
        let one = |dtype| ColumnTable::from_rows(vec![dtype], &[vec![Value::Int(1)]]);
        let (int, str) = (one(DataType::Int), one(DataType::Str));
        let stats = |ct: &ColumnTable| tpcds_storage::collect_stats(ct, 1);
        let wrong_type = load(str.clone(), stats(&str));
        assert!(wrong_type.is_err(), "wrong column type");
        let no_stats = load(int.clone(), TableStats::empty(1));
        assert!(no_stats.is_err(), "statistics of other rows");
        assert!(load(int.clone(), stats(&int)).is_ok());
        let t = db.table("t").unwrap();
        assert_eq!((t.data().rows, t.stats().rows), (1, 1));
        assert_eq!(ids(&t, 1), [0]);
        assert!(load(int.clone(), stats(&int)).is_err(), "table not empty");
    }

    #[test]
    fn an_update_is_one_change_that_builds_its_tail_once() {
        let db = Database::new();
        db.create_table("t", cols(&["a"])).unwrap();
        db.insert("t", vec![vec![Value::Int(1)], vec![Value::Int(5)]])
            .unwrap();
        // Row 5's new version: the old one dies, half the segment, and the
        // new one is appended to a copy of its live rows — one segment
        // built, not compacted first.
        let mut txn = db.begin();
        let t = txn.table_mut("t").unwrap();
        let five = t.data().int_ids(0, |x| x == 5);
        assert_eq!(five, [1]);
        t.change(&five, Some(&ints(&[50]))).unwrap();
        let commit = txn.commit();
        let counts = (commit.segments_rebuilt, commit.segments_compacted);
        assert_eq!((commit.rows_masked, counts), (1, (1, 0)));
        let cells = (commit.stats_cells_folded, commit.stats_cells_retracted);
        assert_eq!(cells, (1, 1));
        let t = db.table("t").unwrap();
        assert_eq!(
            t.data.iter_rows().collect::<Vec<_>>(),
            [[Value::Int(1)], [Value::Int(50)]]
        );
        assert_eq!(t.stats().columns[0].max, Some(Value::Int(50)));
        // A batch of other column types fails and changes nothing, not
        // even the rows it was to remove.
        let mut txn = db.begin();
        let t = txn.table_mut("t").unwrap();
        let strs = ColumnTable::from_rows(vec![DataType::Str], &[vec![Value::str("x")]]);
        assert!(t.change(&[0], Some(&strs)).is_err());
        assert_eq!((t.data.rows, t.data.has_dead()), (2, false));
        // A removal alone appends nothing.
        let gone = t.data().int_ids(0, |x| x == 50);
        t.change(&gone, None).unwrap();
        assert_eq!(t.data.iter_rows().collect::<Vec<_>>(), [[Value::Int(1)]]);
    }
}
