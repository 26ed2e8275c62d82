//! A loaded database holds every table once: the live heap after the load
//! stays within a stated multiple of what the tables' segments account
//! for. This is the only test of its binary — the counting allocator's
//! live-bytes register is process-wide, so a concurrently running test
//! would be counted too.

use tpcds_core::engine::Database;
use tpcds_core::obs::mem;
use tpcds_core::{maint, Generator};

#[global_allocator]
static ALLOC: mem::CountingAlloc = mem::CountingAlloc;

/// Live heap bytes per byte of segments. Measured 1.22 at SF 0.01 (33 MB
/// over 27 MB; 1.21, 34 over 28 MB, while a decimal cell was a 32-byte
/// `Decimal` rather than an 8-byte mantissa): beyond the accounted bytes there are the per-column
/// statistics (an NDV sketch and a histogram each), allocator-size
/// rounding and spare capacity that the segments' own estimate leaves
/// out, and the generator's distributions. A string cell is its bytes
/// plus a 4-byte end offset; when each was an `Arc<str>` — a 16-byte
/// pointer and a heap block with its own counts — it read 1.74 (77 MB),
/// and with a second copy of every table as `Arc<[Value]>` rows (48-byte
/// cells) 3.72 (273 MB).
const CEILING: f64 = 1.4;

#[test]
fn live_heap_after_load_is_a_small_multiple_of_segments() {
    let before = mem::live_bytes();
    let generator = Generator::new(0.01);
    let db = Database::new();
    maint::load_initial_population(&db, &generator).unwrap();
    let live = (mem::live_bytes() - before) as f64;

    let accounted: usize = (db.table_names().iter())
        .map(|name| db.table(name).unwrap().data().bytes())
        .sum();
    let ratio = live / accounted as f64;
    println!("live {live} B, segments {accounted} B, ratio {ratio:.2}");
    assert!(
        ratio <= CEILING,
        "{live} live bytes is {ratio:.2}x the {accounted} bytes of segments \
         (ceiling {CEILING}x): is something holding a second copy of the tables?"
    );
}
