//! A loaded database holds every table once: the live heap after the load
//! stays within a stated multiple of what the tables' segments and indexes
//! account for. This is the only test of its binary — the counting
//! allocator's live-bytes register is process-wide, so a concurrently
//! running test would be counted too.

use tpcds_repro::engine::Database;
use tpcds_repro::obs::mem;
use tpcds_repro::{maint, Generator};

#[global_allocator]
static ALLOC: mem::CountingAlloc = mem::CountingAlloc;

/// Live heap bytes per byte of segments + indexes. Measured 1.51 at
/// SF 0.01 (111 MB over 73 MB): beyond the accounted bytes there are the
/// per-column statistics (an NDV sketch and a histogram each), the
/// `Arc<str>` headers and allocator-size rounding that the segments' own
/// estimate leaves out, and the generator's distributions. With a second
/// copy of every table as `Arc<[Value]>` rows (48-byte cells) it read 3.72
/// (273 MB).
const CEILING: f64 = 2.0;

#[test]
fn live_heap_after_load_is_a_small_multiple_of_segments_plus_indexes() {
    let before = mem::live_bytes();
    let generator = Generator::new(0.01);
    let db = Database::new();
    maint::load_initial_population(&db, &generator).unwrap();
    let live = (mem::live_bytes() - before) as f64;

    let accounted: usize = (db.table_names().iter())
        .map(|name| {
            let t = db.table(name).unwrap();
            let indexes: usize = t.indexes.values().map(|i| i.heap_bytes()).sum();
            t.data().bytes() + indexes
        })
        .sum();
    let ratio = live / accounted as f64;
    println!("live {live} B, segments + indexes {accounted} B, ratio {ratio:.2}");
    assert!(
        ratio <= CEILING,
        "{live} live bytes is {ratio:.2}x the {accounted} bytes of segments + indexes \
         (ceiling {CEILING}x): is something holding a second copy of the tables?"
    );
}
