//! Memory accounting: a counting wrapper around the system allocator plus
//! scoped high-water marks.
//!
//! Binaries opt in by installing [`CountingAlloc`] as their global
//! allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: tpcds_obs::mem::CountingAlloc = tpcds_obs::mem::CountingAlloc;
//! ```
//!
//! The wrapper keeps two relaxed atomics — live bytes and peak live
//! bytes — so the cost per allocation is two uncontended atomic
//! operations on top of the system allocator's own work. Libraries (and
//! processes that don't install the wrapper) see zeros.
//!
//! [`Watermark`] measures the peak *growth* of live memory inside a scope
//! (EXPLAIN ANALYZE per-operator `mem_peak=`, join build footprints).
//! Watermarks nest correctly on one thread — each restores the enclosing
//! scope's view of the peak when dropped — but concurrent
//! watermarks on different threads share the single process-wide peak
//! register and will observe each other's resets; see
//! `docs/OBSERVABILITY.md` for the caveats.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// A counting `#[global_allocator]` wrapper around [`System`].
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn on_alloc(size: usize) {
        let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    #[inline]
    fn on_dealloc(size: usize) {
        LIVE.fetch_sub(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: defers all allocation to `System`; the bookkeeping only touches
// lock-free atomics (no allocation, no TLS), so it cannot recurse.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            Self::on_dealloc(layout.size());
            Self::on_alloc(new_size);
        }
        p
    }
}

/// Currently live (allocated minus freed) bytes. 0 without the wrapper.
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// A scoped memory high-water mark: measures how far live memory rose
/// above its level at [`Watermark::start`].
///
/// Starting a watermark resets the process peak register down to the
/// current live level; dropping it restores the enclosing peak, so
/// watermarks nest correctly on a single thread. Concurrent watermarks on
/// other threads share the register (documented caveat).
#[derive(Debug)]
pub struct Watermark {
    start_live: u64,
    outer_peak: u64,
}

impl Watermark {
    /// Opens a scope: peak measurement restarts from the current live
    /// level.
    pub fn start() -> Watermark {
        let outer_peak = PEAK.load(Ordering::Relaxed);
        let start_live = LIVE.load(Ordering::Relaxed);
        PEAK.store(start_live, Ordering::Relaxed);
        Watermark {
            start_live,
            outer_peak,
        }
    }

    /// Peak growth of live memory since this watermark started, in bytes.
    pub fn peak_delta(&self) -> u64 {
        PEAK.load(Ordering::Relaxed).saturating_sub(self.start_live)
    }

    /// Growth of live memory since this watermark started (what's still
    /// held), in bytes.
    pub fn live_delta(&self) -> u64 {
        LIVE.load(Ordering::Relaxed).saturating_sub(self.start_live)
    }
}

impl Drop for Watermark {
    fn drop(&mut self) {
        // Restore the enclosing scope's peak: whatever this scope saw also
        // happened inside the parent.
        PEAK.fetch_max(self.outer_peak, Ordering::Relaxed);
    }
}

/// Renders a byte count compactly (`512B`, `3.2KiB`, `1.5MiB`, `2.0GiB`).
pub fn fmt_bytes(b: u64) -> String {
    const KIB: f64 = 1024.0;
    let b = b as f64;
    if b < KIB {
        format!("{b:.0}B")
    } else if b < KIB * KIB {
        format!("{:.1}KiB", b / KIB)
    } else if b < KIB * KIB * KIB {
        format!("{:.1}MiB", b / (KIB * KIB))
    } else {
        format!("{:.1}GiB", b / (KIB * KIB * KIB))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install the wrapper, so exercise the
    // bookkeeping directly.
    #[test]
    fn counters_and_watermarks_track_alloc_traffic() {
        let live0 = live_bytes();
        let wm = Watermark::start();
        CountingAlloc::on_alloc(1000);
        CountingAlloc::on_alloc(500);
        CountingAlloc::on_dealloc(1000);
        assert_eq!(live_bytes(), live0 + 500);
        assert_eq!(wm.peak_delta(), 1500);
        assert_eq!(wm.live_delta(), 500);

        // A nested scope sees only its own growth...
        {
            let inner = Watermark::start();
            CountingAlloc::on_alloc(200);
            CountingAlloc::on_dealloc(200);
            assert_eq!(inner.peak_delta(), 200);
        }
        // ...and restores the outer scope's peak when it drops.
        assert_eq!(wm.peak_delta(), 1500);

        CountingAlloc::on_dealloc(500);
        assert_eq!(live_bytes(), live0);
    }

    #[test]
    fn fmt_bytes_picks_sane_units() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(3 * 1024 + 200), "3.2KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024 / 2), "1.5MiB");
        assert_eq!(fmt_bytes(2 * 1024 * 1024 * 1024), "2.0GiB");
    }
}
