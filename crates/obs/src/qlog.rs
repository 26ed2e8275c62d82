//! The per-query log: a fixed-capacity concurrent ring buffer of
//! [`QueryRecord`]s, one per finished query.
//!
//! The engine owns one [`QueryLog`] per `Database` and its statement
//! pipeline pushes one record per statement — success or error — so
//! `sys.query_log` answers "what ran, how long, on which snapshot, and
//! why was it slow" without a trace file. The ring holds the most recent
//! `capacity` records (default 1024, `TPCDS_QUERY_LOG_CAP` overrides);
//! [`QueryLog::total_recorded`] counts every push monotonically so
//! wraparound never hides whether records were produced at all — the
//! soak harness cross-checks it against the queries it issued.
//!
//! Identity crosses layers as an argument, [`QueryMeta`]: the server
//! passes the client-assigned `query_id`, its session id and the admission
//! wait; in-process callers pass the default and get a generated `q-N` id
//! with session 0.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// One finished query. All durations are microseconds, `mem_peak` is
/// bytes (0 unless the binary installs [`crate::mem::CountingAlloc`]).
#[derive(Clone, Debug, Default)]
pub struct QueryRecord {
    /// Monotone sequence number assigned at push (1-based); survives
    /// wraparound, so `seq` gaps in a snapshot reveal evicted records.
    pub seq: u64,
    /// Client-assigned or generated (`q-N`) query identity.
    pub query_id: String,
    /// Server session id (0 = in-process).
    pub session: u64,
    /// The SQL text as received.
    pub sql: String,
    /// Wall-clock time from dispatch to result, µs.
    pub wall_us: u64,
    /// CPU time of the dispatching thread, µs (Linux; 0 elsewhere).
    /// Morsel workers run on their own threads, so this is coordination
    /// cost, not total work.
    pub cpu_us: u64,
    /// Result rows produced (0 on error).
    pub rows: u64,
    /// Peak live-memory growth during execution, bytes.
    pub mem_peak: u64,
    /// Time spent queued behind the server's admission limit, µs (0
    /// in-process).
    pub admission_wait_us: u64,
    /// Best route any plan node took (`columnar` / `index` /
    /// `serial`; empty on bind errors).
    pub best_route: &'static str,
    /// Comma-joined, sorted, deduplicated fallback reason codes.
    pub fallbacks: String,
    /// Snapshot version the query executed against.
    pub snapshot_version: u64,
    /// Error message when the query failed.
    pub error: Option<String>,
    /// Lexing + parsing, µs.
    pub parse_us: u64,
    /// Binding + optimizing, µs (0 when parsing failed).
    pub plan_us: u64,
    /// Executing the plan to result rows, µs (0 when binding failed).
    pub exec_us: u64,
}

/// The fixed-capacity concurrent ring. Push is a short critical section
/// (one `VecDeque` append + bounded pop); snapshot clones the `Arc`s,
/// not the records.
#[derive(Debug)]
pub struct QueryLog {
    cap: usize,
    enabled: AtomicBool,
    total: AtomicU64,
    ring: Mutex<VecDeque<Arc<QueryRecord>>>,
}

/// Default ring capacity when `TPCDS_QUERY_LOG_CAP` is unset.
pub const DEFAULT_CAPACITY: usize = 1024;

impl QueryLog {
    /// A log holding at most `cap` records (minimum 1), enabled.
    pub fn new(cap: usize) -> QueryLog {
        let cap = cap.max(1);
        QueryLog {
            cap,
            enabled: AtomicBool::new(true),
            total: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::with_capacity(cap.min(4096))),
        }
    }

    /// A log configured from the environment: `TPCDS_QUERY_LOG_CAP=N`
    /// sizes the ring, `TPCDS_QUERY_LOG=off|0` starts it disabled.
    pub fn from_env() -> QueryLog {
        let cap = std::env::var("TPCDS_QUERY_LOG_CAP")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(DEFAULT_CAPACITY);
        let log = QueryLog::new(cap);
        if matches!(
            std::env::var("TPCDS_QUERY_LOG").as_deref(),
            Ok("off") | Ok("0") | Ok("false")
        ) {
            log.set_enabled(false);
        }
        log
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Whether pushes are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off (the observer-overhead bench measures
    /// the difference).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Records one finished query, assigning its `seq`, and hands the
    /// shared record back. While disabled nothing is retained and `seq`
    /// stays 0. The monotone total and the ring move under one lock, so a
    /// snapshot plus `total_recorded` is a consistent pair.
    pub fn push(&self, mut rec: QueryRecord) -> Arc<QueryRecord> {
        if !self.is_enabled() {
            return Arc::new(rec);
        }
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        rec.seq = self.total.fetch_add(1, Ordering::Relaxed) + 1;
        let rec = Arc::new(rec);
        ring.push_back(Arc::clone(&rec));
        while ring.len() > self.cap {
            ring.pop_front();
        }
        rec
    }

    /// The retained records, oldest first — a consistent snapshot taken
    /// under the ring lock; concurrent pushes land before or after it,
    /// never half-way.
    pub fn snapshot(&self) -> Vec<Arc<QueryRecord>> {
        self.ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// Records currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every record ever pushed, including those the ring evicted.
    pub fn total_recorded(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Drops all retained records (tests); the monotone total is kept.
    pub fn clear(&self) {
        self.ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

impl Default for QueryLog {
    fn default() -> QueryLog {
        QueryLog::from_env()
    }
}

/// Cross-layer identity of one statement: who asked. The server fills it
/// in; the default is an in-process caller.
#[derive(Clone, Debug, Default)]
pub struct QueryMeta {
    /// Client-assigned query id, if any.
    pub query_id: Option<String>,
    /// Server session id (0 = in-process).
    pub session: u64,
    /// Admission-queue wait already paid for this query, µs.
    pub admission_wait_us: u64,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// A process-unique generated query id (`q-1`, `q-2`, …) for queries the
/// client did not name.
pub fn next_query_id() -> String {
    format!("q-{}", NEXT_ID.fetch_add(1, Ordering::Relaxed) + 1)
}

/// CPU time (user + system) consumed so far by the calling thread, µs.
/// Reads `/proc/thread-self/stat` on Linux; returns 0 elsewhere. Call
/// twice and subtract for a per-query figure.
#[cfg(target_os = "linux")]
pub fn thread_cpu_us() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/thread-self/stat") else {
        return 0;
    };
    // Skip past the parenthesized comm (it may contain spaces); utime and
    // stime are stat fields 14 and 15, i.e. the 12th and 13th tokens
    // after the comm.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0;
    };
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11).and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    // USER_HZ is 100 on every mainstream Linux: one tick = 10 ms.
    (utime + stime) * 10_000
}

/// CPU time of the calling thread, µs (unsupported platform: always 0).
#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_us() -> u64 {
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64) -> QueryRecord {
        QueryRecord {
            query_id: format!("t-{id}"),
            sql: format!("select {id}"),
            wall_us: id,
            rows: 1,
            best_route: "serial",
            ..QueryRecord::default()
        }
    }

    #[test]
    fn ring_wraps_at_capacity_keeping_newest() {
        let log = QueryLog::new(4);
        for i in 0..10 {
            log.push(rec(i));
        }
        assert_eq!(log.total_recorded(), 10);
        assert_eq!(log.len(), 4);
        let snap = log.snapshot();
        let ids: Vec<&str> = snap.iter().map(|r| r.query_id.as_str()).collect();
        assert_eq!(ids, ["t-6", "t-7", "t-8", "t-9"]);
        // Seq numbers survive eviction: the oldest retained is push #7.
        assert_eq!(snap.first().unwrap().seq, 7);
        assert_eq!(snap.last().unwrap().seq, 10);
    }

    #[test]
    fn disabled_log_drops_everything() {
        let log = QueryLog::new(4);
        log.set_enabled(false);
        log.push(rec(1));
        assert_eq!(log.total_recorded(), 0);
        assert!(log.is_empty());
        log.set_enabled(true);
        log.push(rec(2));
        assert_eq!(log.total_recorded(), 1);
    }

    #[test]
    fn concurrent_writers_never_drop_records() {
        let log = Arc::new(QueryLog::new(64));
        let threads = 8;
        let per_thread = 200;
        std::thread::scope(|s| {
            for t in 0..threads {
                let log = Arc::clone(&log);
                s.spawn(move || {
                    for i in 0..per_thread {
                        log.push(rec((t * per_thread + i) as u64));
                    }
                });
            }
        });
        // Every push is counted exactly once; the ring holds the cap.
        assert_eq!(log.total_recorded(), (threads * per_thread) as u64);
        assert_eq!(log.len(), 64);
        // Seqs are dense over the whole run and strictly increasing in
        // the retained window.
        let snap = log.snapshot();
        let seqs: Vec<u64> = snap.iter().map(|r| r.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] + 1 == w[1]), "{seqs:?}");
        assert_eq!(*seqs.last().unwrap(), (threads * per_thread) as u64);
    }

    #[test]
    fn snapshot_is_consistent_while_writes_continue() {
        let log = Arc::new(QueryLog::new(32));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            let writer = {
                let log = Arc::clone(&log);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        log.push(rec(i));
                        i += 1;
                    }
                })
            };
            // Each snapshot must be internally consistent: contiguous
            // seqs, bounded length — even though the writer never pauses.
            for _ in 0..200 {
                let snap = log.snapshot();
                assert!(snap.len() <= 32);
                let seqs: Vec<u64> = snap.iter().map(|r| r.seq).collect();
                assert!(seqs.windows(2).all(|w| w[0] + 1 == w[1]), "{seqs:?}");
            }
            stop.store(true, Ordering::Relaxed);
            writer.join().unwrap();
        });
    }

    #[test]
    fn generated_ids_are_unique() {
        let a = next_query_id();
        let b = next_query_id();
        assert_ne!(a, b);
        assert!(a.starts_with("q-"));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn thread_cpu_time_is_monotone() {
        let before = thread_cpu_us();
        // Burn a little CPU so the counter can only move forward.
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(thread_cpu_us() >= before);
    }
}
