//! In-memory storage: tables, secondary indexes, and the versioned
//! database catalog.
//!
//! The catalog is **snapshot isolated**: [`Database`] holds an
//! `Arc<DbSnapshot>` — an immutable map of table name → `Arc<Table>`
//! (segments + indexes + statistics) stamped with a version number — that
//! is swapped atomically when a [`WriteTxn`] commits. Queries pin the
//! snapshot once at dispatch ([`Database::snapshot`]) and read it
//! lock-free to completion; writers build the next version behind a
//! single writer mutex and publish it with one pointer store. No reader
//! ever blocks on a writer or observes partial state, which is what lets
//! the server run the paper's multi-stream throughput test (§5.2)
//! concurrently with data maintenance.
//!
//! **The segments are the table.** A [`Table`] keeps its rows once, as a
//! [`ColumnTable`] of immutable, `Arc`-shared segments, and each [`Index`]
//! as one immutable map per segment; there is no row list beside them.
//! Staging a table copies no segment and no map, and [`Table::insert`],
//! [`Table::delete_where`] and [`Table::update_each`] build only the
//! segments whose columns they change: an append the tail it grows (less
//! than a morsel of it) and the segments it adds, an update the segments
//! it hits, a delete nothing — it marks its rows dead in the masks of the
//! segments it hits — unless it leaves a segment a quarter dead, which it
//! then compacts. The maps of exactly those segments are rebuilt (an
//! update's only when it changed an indexed column), so a staged table is
//! consistent after every call. Statistics follow the same rule: a delete
//! takes its rows out of them, an update its old versions out and its new
//! ones in, and [`WriteTxn::commit`] folds in the appended rows — so a
//! commit pays for the rows it changed. What a reader gets is
//! indistinguishable from segments, statistics and indexes built from
//! scratch over the published live rows, in order, except that the NDV
//! sketches still count the values of rows deleted or overwritten (see
//! `tpcds_storage::stats`).
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
use tpcds_obs::qlog::QueryLog;
use tpcds_storage::{ColumnTable, Segment, TableStats, SEGMENT_ROWS};
use tpcds_types::{DataType, Row, Value};

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

/// A hash index over one column: one immutable map per segment, aligned
/// with the table's segments. Versions of a table share the maps of the
/// segments they share, so staging clones a `Vec` of `Arc`s; a delete
/// touches no map ([`Index::lookup`] skips dead rows), and a mutator
/// rebuilds only the maps of segments whose columns it built.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Index {
    maps: Vec<Arc<Postings>>,
}

/// One segment's map: key → the ascending offsets holding it.
pub type Postings = HashMap<Value, Vec<u32>>;

impl Index {
    fn build(data: &ColumnTable, col: usize) -> Index {
        let mut index = Index::default();
        index.rebuild(data, col, 0..data.segments.len());
        index
    }

    /// The map of `seg`'s live rows in column `col`.
    pub fn postings(seg: &Segment, col: usize) -> Postings {
        let mut map = Postings::new();
        for i in seg.live_offsets() {
            let key = seg.columns[col].value_at(i);
            map.entry(key).or_default().push(i as u32);
        }
        map
    }

    /// Builds the maps of `data`'s segments `built`, which are new or
    /// follow the last map, and shares every other one.
    fn rebuild(&mut self, data: &ColumnTable, col: usize, built: impl IntoIterator<Item = usize>) {
        for si in built {
            let map = Arc::new(Index::postings(&data.segments[si], col));
            match self.maps.get_mut(si) {
                Some(old) => *old = map,
                None => self.maps.push(map),
            }
        }
        debug_assert_eq!(self.maps.len(), data.segments.len());
    }

    /// The ids of `data`'s live rows holding `key`, ascending. `data` is
    /// the version of the table the index belongs to.
    pub fn lookup<'a>(
        &'a self,
        data: &'a ColumnTable,
        key: &'a Value,
    ) -> impl Iterator<Item = usize> + 'a {
        debug_assert_eq!(self.maps.len(), data.segments.len());
        let maps = self.maps.iter().zip(&data.segments).enumerate();
        maps.flat_map(move |(si, (map, seg))| {
            let offsets = map.get(key).map_or(&[][..], Vec::as_slice).iter();
            let live = offsets.map(|&i| i as usize).filter(|&i| !seg.is_dead(i));
            live.map(move |i| si * SEGMENT_ROWS + i)
        })
    }

    /// The map of segment `si`.
    pub fn segment(&self, si: usize) -> &Arc<Postings> {
        &self.maps[si]
    }

    /// Approximate heap bytes: the key tables plus the offset lists.
    pub fn heap_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(Value, Vec<u32>)>();
        let map = |m: &Arc<Postings>| {
            let postings = m.values().map(|p| p.capacity() * 4).sum::<usize>();
            m.capacity() * entry + postings
        };
        self.maps.iter().map(map).sum()
    }
}

/// The row an [`Table::update_each`] closure is handed: the stored row,
/// decoded. Writing through it marks the row for replacement.
pub struct RowMut<'a> {
    row: &'a mut [Value],
    written: bool,
}

impl std::ops::Deref for RowMut<'_> {
    type Target = [Value];
    fn deref(&self) -> &[Value] {
        self.row
    }
}

impl std::ops::DerefMut for RowMut<'_> {
    fn deref_mut(&mut self) -> &mut [Value] {
        self.written = true;
        self.row
    }
}

/// One stored table. Cloning a `Table` is how a [`WriteTxn`] stages it,
/// and copies no row and no index map: the segments, the maps and the
/// statistics are `Arc`s shared with the base version. Mutators build the
/// segments whose columns they change, and the maps of those, and revise
/// the statistics for the rows they remove or replace; appended rows fold
/// in at [`WriteTxn::commit`].
#[derive(Clone, Debug)]
pub struct Table {
    /// Column metadata, in order.
    pub columns: Vec<ColumnMeta>,
    /// The rows, as typed column segments.
    data: Arc<ColumnTable>,
    /// Secondary hash indexes, keyed by column position.
    pub indexes: HashMap<usize, Index>,
    /// Per-column statistics (row/null counts, min/max, NDV, histogram)
    /// of `data`'s live rows but the last `data.rows - stats.rows`: all of
    /// them on a published table, all but those appended since on a
    /// staged one.
    stats: Arc<TableStats>,
    /// What the mutators have done since the table was staged.
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
            indexes: HashMap::new(),
            staged: Derived::default(),
        }
    }

    /// The rows: the segments every scan, probe and kernel reads. Always
    /// current, on a staged table too.
    pub fn data(&self) -> &Arc<ColumnTable> {
        &self.data
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Installs the segments a mutator built and the maps of those.
    fn put(&mut self, data: ColumnTable, built: &[usize], rows_changed: usize) {
        for (col, idx) in self.indexes.iter_mut() {
            idx.rebuild(&data, *col, built.iter().copied());
        }
        self.data = Arc::new(data);
        self.staged.rows_changed += rows_changed;
        self.staged.segments_rebuilt += built.len();
    }

    /// Appends rows, building the maps of the segments the append built. A
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
        if !rows.is_empty() {
            let (data, built) = self.data.append(&rows);
            let built: Vec<usize> = (data.segments.len() - built..data.segments.len()).collect();
            self.put(data, &built, rows.len());
        }
        Ok(())
    }

    /// Replaces the contents of an empty, unindexed table with pre-built
    /// segments (the bulk load: rows stream out of the data generator
    /// into a segment builder and never exist as a row list). Errors if
    /// the column types disagree.
    pub fn load(&mut self, data: ColumnTable) -> Result<()> {
        if data.dtypes != self.data.dtypes || self.data.rows > 0 || !self.indexes.is_empty() {
            return Err(EngineError::Catalog(format!(
                "cannot load {}x{} segments into a {}x{} table with {} indexes",
                data.rows,
                data.width(),
                self.data.rows,
                self.data.width(),
                self.indexes.len()
            )));
        }
        let (rows, built) = (data.rows, (0..data.segments.len()).collect::<Vec<_>>());
        self.put(data, &built, rows);
        Ok(())
    }

    /// Deletes every live row for which `pred` returns true; returns the
    /// number deleted. The rows are marked dead in their segments' masks:
    /// survivors keep their ids, order and index postings, and only a
    /// segment the delete leaves a quarter dead is rebuilt (compacted),
    /// with its index maps. A predicate that matches nothing copies
    /// nothing. The `engine/maint.deleted_rows` counter records how bulky
    /// deletes actually are, instead of asserting in a comment that they
    /// are rare.
    pub fn delete_where(&mut self, mut pred: impl FnMut(&[Value]) -> bool) -> usize {
        let mut row = Row::new();
        self.delete_at(|data, id| {
            data.read_row(id, &mut row);
            pred(&row)
        })
    }

    /// [`Table::delete_where`] for a predicate that decides from the
    /// segments and a live row's id — one column of a wide table, say —
    /// instead of a decoded row.
    pub fn delete_at(&mut self, mut gone: impl FnMut(&ColumnTable, usize) -> bool) -> usize {
        let data = Arc::clone(&self.data);
        let removed: Vec<u32> = (data.live_ids())
            .filter(|&id| gone(&data, id))
            .map(|id| id as u32)
            .collect();
        if removed.is_empty() {
            return 0;
        }
        let threads = tpcds_storage::effective_threads();
        self.catch_up_stats(threads);
        let gone_stats = tpcds_storage::collect_stats_at(&data, &removed, threads);
        let (masked, compacted) = data.delete(&removed, threads);
        self.staged.rows_masked += removed.len();
        self.staged.segments_compacted += compacted.len();
        self.put(masked, &compacted, removed.len());
        self.revise_stats(&gone_stats, None);
        tpcds_obs::counter(
            "engine",
            "maint.deleted_rows",
            removed.len() as f64,
            &[(
                "remaining",
                tpcds_obs::FieldValue::Int(self.data.rows as i64),
            )],
        );
        removed.len()
    }

    /// Applies `f` to every live row (dimension updates); returns the
    /// number of rows for which `f` returned true (i.e. reported a
    /// change). A row `f` writes to is replaced; an index's maps are
    /// rebuilt only for the segments where a written row changed its key
    /// — an update that touches no key column shares every map.
    pub fn update_each(&mut self, f: impl FnMut(&mut RowMut<'_>) -> bool) -> usize {
        self.update_at(|_, _| true, f)
    }

    /// [`Table::update_each`] over only the live rows `at` selects from
    /// the segments and an id; the others are not decoded.
    pub fn update_at(
        &mut self,
        mut at: impl FnMut(&ColumnTable, usize) -> bool,
        mut f: impl FnMut(&mut RowMut<'_>) -> bool,
    ) -> usize {
        let data = Arc::clone(&self.data);
        let mut changed = 0;
        let mut replaced: Vec<(usize, Row)> = Vec::new();
        let mut scratch = Row::new();
        for id in data.live_ids().filter(|&id| at(&data, id)) {
            data.read_row(id, &mut scratch);
            let mut row = RowMut {
                row: &mut scratch,
                written: false,
            };
            changed += usize::from(f(&mut row));
            if row.written {
                replaced.push((id, std::mem::take(&mut scratch)));
            }
        }
        if !replaced.is_empty() {
            let threads = tpcds_storage::effective_threads();
            self.catch_up_stats(threads);
            let ids: Vec<u32> = replaced.iter().map(|(id, _)| *id as u32).collect();
            let old = tpcds_storage::collect_stats_at(&data, &ids, threads);
            let (new_data, built) = data.replace(&replaced, threads);
            let hit = replaced.chunk_by(|a, b| a.0 / SEGMENT_ROWS == b.0 / SEGMENT_ROWS);
            for (col, idx) in self.indexes.iter_mut() {
                let rekeyed = |group: &&[(usize, Row)]| {
                    (group.iter()).any(|(id, row)| data.value(*id, *col) != row[*col])
                };
                let segments = hit.clone().filter(rekeyed).map(|g| g[0].0 / SEGMENT_ROWS);
                idx.rebuild(&new_data, *col, segments);
            }
            self.data = Arc::new(new_data);
            self.staged.rows_changed += replaced.len();
            self.staged.segments_rebuilt += built;
            let new = tpcds_storage::collect_stats_at(&self.data, &ids, threads);
            self.revise_stats(&old, Some(&new));
        }
        changed
    }

    /// Builds (or rebuilds) a hash index on `column`.
    pub fn create_index(&mut self, column: usize) {
        self.indexes
            .insert(column, Index::build(&self.data, column));
    }

    /// Drops the index on `column`.
    pub fn drop_index(&mut self, column: usize) {
        self.indexes.remove(&column);
    }

    /// The per-column statistics. Current on a published table; on a
    /// table staged in a [`WriteTxn`] they lag the rows appended until
    /// commit.
    pub fn stats(&self) -> Arc<TableStats> {
        Arc::clone(&self.stats)
    }

    /// Folds the rows appended since the statistics were last brought up
    /// into them: at commit, and before a delete or update moves rows.
    fn catch_up_stats(&mut self, threads: usize) {
        let (counted, data) = (self.stats.rows as usize, &self.data);
        if counted < data.rows {
            self.staged.stats_cells_folded += (data.rows - counted) * data.width();
            self.stats = Arc::new(tpcds_storage::extend_stats(&self.stats, data, threads));
        }
    }

    /// Brings the statistics along with a mutator that took the rows
    /// `removed` describes out of the table and put those `added`
    /// describes in: folds in and takes out just those rows
    /// ([`TableStats::retract`]).
    fn revise_stats(&mut self, removed: &TableStats, added: Option<&TableStats>) {
        let width = self.data.width() as u64;
        let stats = Arc::make_mut(&mut self.stats);
        if let Some(added) = added {
            stats.merge(added);
            self.staged.stats_cells_folded += (added.rows * width) as usize;
        }
        stats.retract(removed, &self.data);
        self.staged.stats_cells_retracted += (removed.rows * width) as usize;
    }

    /// Brings the statistics up to the rows and returns what the
    /// transaction cost.
    fn publish(&mut self, threads: usize) -> Derived {
        self.catch_up_stats(threads);
        let mut derived = std::mem::take(&mut self.staged);
        derived.tables_rebuilt = usize::from(derived.rows_changed > 0);
        derived
    }
}

/// What one table's mutators and its commit did.
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
    /// Segments whose columns its mutators built — appended tails and new
    /// segments, segments with replaced rows, compactions; every other
    /// segment of the new version shares its columns with the base
    /// version (`snapshot.segments_rebuilt`).
    pub segments_rebuilt: usize,
    /// Rows its deletes marked dead in a segment's mask.
    pub rows_masked: usize,
    /// Segments its deletes left a quarter dead and so rebuilt without
    /// their dead rows (also counted in `segments_rebuilt`).
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
    /// touch. Staging copies no row and no index map: segments, maps and
    /// statistics stay shared with the base version, and the table's
    /// mutators build what they change.
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

    /// Builds a hash index on each of `table`'s `columns`.
    pub fn create_indexes(&mut self, table: &str, columns: &[&str]) -> Result<()> {
        let t = self.table_mut(table)?;
        for column in columns {
            let col = t
                .column_index(column)
                .ok_or_else(|| EngineError::Catalog(format!("unknown column {table}.{column}")))?;
            t.create_index(col);
        }
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
    /// returns what changed. The mutators already built the segments and
    /// revised the statistics for what they moved; the rows appended since
    /// fold in here ([`Table::publish`]), so the commit costs what the
    /// transaction changed: `rows_changed`, `segments_rebuilt`,
    /// `rows_masked`, `segments_compacted`, `stats_cells_folded` and
    /// `stats_cells_retracted` on the `snapshot/commit` span say how much
    /// that was.
    pub fn commit(mut self) -> Commit {
        let span = tpcds_obs::span("snapshot", "commit");
        let threads = tpcds_storage::effective_threads();
        let mut tables = self.base.tables.clone();
        let tables_changed = self.pending.len();
        let mut total = Derived::default();
        for (name, entry) in self.pending.drain() {
            match entry {
                TxnEntry::Dropped => {
                    tables.remove(&name);
                }
                TxnEntry::Put(mut t) => {
                    let derived = t.publish(threads);
                    total.rows_changed += derived.rows_changed;
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
        tpcds_obs::counter("snapshot", "commits", 1.0, &[]);
        let tables_rebuilt = total.tables_rebuilt;
        if tables_rebuilt > 0 {
            let version = [("version", tpcds_obs::FieldValue::Int(version as i64))];
            tpcds_obs::counter(
                "snapshot",
                "tables_rebuilt",
                tables_rebuilt as f64,
                &version,
            );
            for (name, n) in [
                ("segments_rebuilt", total.segments_rebuilt),
                ("rows_masked", total.rows_masked),
                ("segments_compacted", total.segments_compacted),
            ] {
                tpcds_obs::counter("snapshot", name, n as f64, &version);
            }
        }
        tpcds_obs::metrics::gauge_set("snapshot.version", version as i64);
        span.field("version", version as i64)
            .field("tables_changed", tables_changed as i64)
            .field("tables_rebuilt", tables_rebuilt as i64)
            .field("rows_changed", total.rows_changed as i64)
            .field("segments_rebuilt", total.segments_rebuilt as i64)
            .field("rows_masked", total.rows_masked as i64)
            .field("segments_compacted", total.segments_compacted as i64)
            .field("stats_cells_folded", total.stats_cells_folded as i64)
            .field("stats_cells_retracted", total.stats_cells_retracted as i64)
            .finish();
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
            query_log: Arc::new(QueryLog::from_env()),
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

    /// The per-database finished-query log backing `sys.query_log`.
    /// Enabled by default; `TPCDS_QUERY_LOG=off` starts it disabled and
    /// `TPCDS_QUERY_LOG_CAP` sizes the ring (default 1024).
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

    /// Deletes rows matching `pred` (one auto-commit transaction);
    /// returns the number deleted.
    pub fn delete_where(&self, name: &str, pred: impl FnMut(&[Value]) -> bool) -> Result<usize> {
        let mut txn = self.begin();
        let deleted = txn.table_mut(name)?.delete_where(pred);
        txn.commit();
        Ok(deleted)
    }

    /// Applies `f` to every row of a table (one auto-commit transaction);
    /// returns the number of rows `f` reported changed.
    pub fn update_each(&self, name: &str, f: impl FnMut(&mut RowMut<'_>) -> bool) -> Result<usize> {
        let mut txn = self.begin();
        let changed = txn.table_mut(name)?.update_each(f);
        txn.commit();
        Ok(changed)
    }

    /// Row count of a table in the head snapshot (0 when missing).
    pub fn row_count(&self, name: &str) -> usize {
        self.head.read().row_count(name)
    }

    /// Column metadata of a table.
    pub fn columns(&self, name: &str) -> Result<Vec<ColumnMeta>> {
        Ok(self.table(name)?.columns.clone())
    }

    /// Builds a hash index on `table.column` (one auto-commit transaction).
    pub fn create_index(&self, table: &str, column: &str) -> Result<()> {
        self.create_indexes(table, &[column])
    }

    /// Builds a hash index on each of `table`'s `columns` in one
    /// transaction: one staged table, one published version.
    pub fn create_indexes(&self, table: &str, columns: &[&str]) -> Result<()> {
        let mut txn = self.begin();
        txn.create_indexes(table, columns)?;
        txn.commit();
        Ok(())
    }

    /// Drops the hash index on `table.column`, if any.
    pub fn drop_index(&self, table: &str, column: &str) -> Result<()> {
        let mut txn = self.begin();
        let t = txn.table_mut(table)?;
        let col = t
            .column_index(column)
            .ok_or_else(|| EngineError::Catalog(format!("unknown column {table}.{column}")))?;
        t.drop_index(col);
        txn.commit();
        Ok(())
    }

    /// Total number of stored rows across the head snapshot.
    pub fn total_rows(&self) -> usize {
        self.head.read().total_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The ids the index on column 0 finds `key` at.
    fn lookup(t: &Table, key: i64) -> Vec<usize> {
        t.indexes[&0].lookup(t.data(), &Value::Int(key)).collect()
    }

    #[test]
    fn index_follows_inserts_and_deletes() {
        let db = Database::new();
        db.create_table("t", cols(&["a"])).unwrap();
        db.insert("t", vec![vec![Value::Int(1)], vec![Value::Int(2)]])
            .unwrap();
        db.create_index("t", "a").unwrap();
        assert_eq!(lookup(&db.table("t").unwrap(), 2), [1]);
        db.insert("t", vec![vec![Value::Int(2)]]).unwrap();
        assert_eq!(lookup(&db.table("t").unwrap(), 2), [1, 2]);
        let deleted = db.delete_where("t", |r| r[0] == Value::Int(2)).unwrap();
        assert_eq!(deleted, 2);
        assert_eq!(lookup(&db.table("t").unwrap(), 2), [] as [usize; 0]);
    }

    #[test]
    fn failed_insert_publishes_nothing() {
        let db = Database::new();
        db.create_table("t", cols(&["a"])).unwrap();
        db.insert("t", vec![vec![Value::Int(1)]]).unwrap();
        db.create_index("t", "a").unwrap();
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
        assert_eq!(lookup(&t, 2), [] as [usize; 0]);
        assert_eq!(t.indexes[&0], Index::build(&t.data, 0));
    }

    #[test]
    fn delete_remaps_index_positions_in_order() {
        let db = Database::new();
        db.create_table("t", cols(&["a", "b"])).unwrap();
        let rows = (0..12).map(|i| vec![Value::Int(i % 3), Value::Int(i)]);
        db.insert("t", rows.collect()).unwrap();
        db.create_index("t", "a").unwrap();
        let before = db.table("t").unwrap();
        let b_in = |set: &'static [i64]| move |r: &[Value]| set.contains(&r[1].as_int().unwrap());
        // Two rows of twelve: masked. The columns and the index map are
        // shared, and the lookup skips the dead rows.
        assert_eq!(db.delete_where("t", b_in(&[1, 4])).unwrap(), 2);
        let masked = db.table("t").unwrap();
        let seg = |t: &Table| Arc::clone(&t.data.segments[0].columns);
        assert!(Arc::ptr_eq(&seg(&masked), &seg(&before)));
        assert!(Arc::ptr_eq(
            masked.indexes[&0].segment(0),
            before.indexes[&0].segment(0)
        ));
        assert_eq!(lookup(&masked, 1), [7, 10]);
        // A quarter dead: compacted, and the map rebuilt over the rows left.
        assert_eq!(db.delete_where("t", b_in(&[7])).unwrap(), 1);
        let tr = db.table("t").unwrap();
        assert_eq!((tr.data.rows, tr.data.has_dead()), (9, false));
        assert_eq!(tr.indexes[&0], Index::build(&tr.data, 0));
        for (key, ids) in [(0, [0, 2, 4, 6].as_slice()), (1, &[7]), (2, &[1, 3, 5, 8])] {
            assert_eq!(lookup(&tr, key), ids);
            for &id in ids {
                assert_eq!(tr.data.value(id, 0), Value::Int(key));
            }
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
        db.delete_where("t", |r| r[0] == Value::Int(1)).unwrap();
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
        db.create_index("t", "a").unwrap();
        let v = db.version();
        let rows_before = db.row_count("t");
        let before = db.table("t").unwrap();
        // A DM batch that stages an append, a delete and an update —
        // segments built, indexes patched — and then dies
        // mid-transaction.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut txn = db.begin();
            let t = txn.table_mut("t").unwrap();
            t.insert(vec![vec![Value::Int(3)]]).unwrap();
            assert_eq!(t.delete_where(|r| r[0] == Value::Int(1)), 1);
            t.update_each(|r| {
                if r[0] == Value::Int(3) {
                    panic!("writer dies mid-batch");
                }
                r[0] = Value::Int(20);
                true
            });
            txn.commit();
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
        assert_eq!(before.indexes[&0], Index::build(&before.data, 0));
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
        let load = |ct| {
            let mut txn = db.begin();
            txn.table_mut("t").unwrap().load(ct)?;
            txn.create_indexes("t", &["a"])?;
            txn.commit();
            Ok::<(), EngineError>(())
        };
        let one = |dtype| ColumnTable::from_rows(vec![dtype], &[vec![Value::Int(1)]]);
        assert!(load(one(DataType::Str)).is_err(), "wrong column type");
        assert!(load(one(DataType::Int)).is_ok());
        let t = db.table("t").unwrap();
        assert_eq!((t.data().rows, t.stats().rows), (1, 1));
        assert_eq!(lookup(&t, 1), [0]);
        assert!(load(one(DataType::Int)).is_err(), "table not empty");
    }

    #[test]
    fn update_each_moves_only_the_postings_whose_key_changed() {
        let db = Database::new();
        db.create_table("t", cols(&["k", "v"])).unwrap();
        let rows = (0..100).map(|i| vec![Value::Int(i % 10), Value::Int(i)]);
        db.insert("t", rows.collect()).unwrap();
        db.create_index("t", "k").unwrap();
        let mut txn = db.begin();
        let t = txn.table_mut("t").unwrap();
        let map = |t: &Table| Arc::clone(t.indexes[&0].segment(0));
        let before = map(t);
        // No key column written: the index is not rebuilt — the map is
        // the very one it was — and is still right.
        let changed = t.update_each(|r| {
            r[1] = Value::Int(-1);
            true
        });
        assert_eq!(changed, 100);
        assert!(Arc::ptr_eq(&map(t), &before));
        assert_eq!(t.indexes[&0], Index::build(&t.data, 0));
        // A key written: the segment's map is rebuilt, so the posting
        // moves, in id order, and a key left with no row drops out.
        t.update_each(|r| {
            let hit = r[0] == Value::Int(3) || r[1] == Value::Int(-1) && r[0] == Value::Int(9);
            if hit {
                r[0] = Value::Int(4);
            }
            hit
        });
        assert_eq!(t.indexes[&0], Index::build(&t.data, 0));
        assert_eq!(t.indexes[&0].segment(0).len(), 8);
        txn.commit();
    }

    #[test]
    fn update_each_reports_changes() {
        let db = Database::new();
        db.create_table("t", cols(&["a"])).unwrap();
        db.insert("t", vec![vec![Value::Int(1)], vec![Value::Int(5)]])
            .unwrap();
        let changed = db
            .update_each("t", |r| {
                if r[0] == Value::Int(5) {
                    r[0] = Value::Int(50);
                    true
                } else {
                    false
                }
            })
            .unwrap();
        assert_eq!(changed, 1);
        assert_eq!(db.table("t").unwrap().data.value(1, 0), Value::Int(50));
        // The position-selected forms visit only what they select.
        let mut txn = db.begin();
        let t = txn.table_mut("t").unwrap();
        let fifty = |data: &ColumnTable, pos| data.value(pos, 0) == Value::Int(50);
        let mut seen = Vec::new();
        let visited = t.update_at(fifty, |r| {
            seen.push(r[0].clone());
            true
        });
        assert_eq!(visited, 1);
        assert_eq!(seen, [Value::Int(50)]);
        assert_eq!(t.delete_at(fifty), 1);
        assert_eq!(t.data.iter_rows().collect::<Vec<_>>(), [[Value::Int(1)]]);
    }
}
