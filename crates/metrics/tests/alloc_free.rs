//! The metrics hit path allocates nothing: once a series exists, `inc`,
//! `set_gauge`, `observe` and a steady-state `History::sample_registry`
//! make no heap allocation. A counting global allocator checks it; the
//! file holds a single test so no other test thread allocates while it
//! counts.

use hwm_metrics::{History, HistoryConfig, MetricClass, MetricsRegistry, LATENCY_BUCKETS_NS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator,
// which upholds the `GlobalAlloc` contract; counting touches only an
// atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator, and
        // the caller's guarantees for `layout` and `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One request's worth of the server's metric writes.
fn serve(m: &MetricsRegistry, op: &str, outcome: &str, tick: u64) {
    m.inc(
        "service_requests_total",
        &[("op", op), ("outcome", outcome)],
        1,
    );
    m.observe(
        "service_handler_ns",
        &[("op", op)],
        MetricClass::Timing,
        LATENCY_BUCKETS_NS,
        tick * 37,
    );
    m.set_gauge("service_clock_ticks", &[], MetricClass::Det, tick);
    m.set_gauge(
        "registry_ics",
        &[("state", "unlocked")],
        MetricClass::Det,
        tick / 2,
    );
}

#[test]
fn hit_path_and_steady_state_sampling_allocate_nothing() {
    let m = MetricsRegistry::default();
    let ops = [
        ("register", "registered"),
        ("unlock", "key"),
        ("status", "status"),
    ];
    let mut history = History::new(HistoryConfig {
        stride: 1,
        capacity: 4,
    });
    // Warm-up: every series is created and each history ring fills to
    // capacity, so later samples only overwrite.
    for tick in 1..=8 {
        let (op, outcome) = ops[tick as usize % ops.len()];
        serve(&m, op, outcome, tick);
        history.sample_registry(tick, &m);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for tick in 9..=200 {
        let (op, outcome) = ops[tick as usize % ops.len()];
        serve(&m, op, outcome, tick);
        history.sample_registry(tick, &m);
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "the metrics hit path allocated {allocated} times"
    );
    assert_eq!(m.snapshot().counter_total("service_requests_total"), 200);
}
