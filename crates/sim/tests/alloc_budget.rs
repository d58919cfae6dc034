//! Per-access heap allocation budget of the saturation workloads.
//!
//! A counting global allocator wraps the whole binary, so this file holds
//! exactly one `#[test]`: no other test can run beside it and pollute the
//! counter. Allocation counts do not depend on the machine, so they are
//! gated exactly, like the work counts (ROADMAP, layer budget).
//!
//! The marginal cost of one access is (A(2N) − A(N)) / N, where A(n) is
//! every allocation — rig setup, warm-up, server threads — made by one
//! single-thread `run_saturation` of n accesses. Setup cancels in the
//! difference, leaving the steady-state per-access count.
//!
//! Run it in release for the committed figures:
//! `cargo test --release -p ucam-sim --test alloc_budget -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ucam_sim::saturation::{run_saturation, SaturationConfig, SaturationMode, TransportKind};

/// Counts every allocation and reallocation; frees pass straight through.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Accesses in the shorter of the two runs.
const N: usize = 200;

/// Allocations made by one single-thread run of `iters` accesses.
fn allocs_of_run(mode: SaturationMode, transport: TransportKind, iters: usize) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    let row = run_saturation(&SaturationConfig {
        threads: 1,
        iters_per_thread: iters,
        mode,
        transport,
    });
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(row.work.accesses, iters as u64);
    after - before
}

/// Marginal allocations per access: (A(2N) − A(N)) / N.
fn allocs_per_access(mode: SaturationMode, transport: TransportKind) -> f64 {
    let short = allocs_of_run(mode, transport, N);
    let long = allocs_of_run(mode, transport, 2 * N);
    long.saturating_sub(short) as f64 / N as f64
}

#[test]
fn per_access_allocations_stay_within_budget() {
    // (mode, backend, budget). Measured: 260.00, 200.04, 20.66 and 11.24
    // allocations per access, identical in debug and release builds. Each
    // budget sits half an allocation above its count, so one more
    // allocation per access on any of these paths fails here.
    let cases = [
        (SaturationMode::FullFlow, TransportKind::Http, 260.5),
        (SaturationMode::FullFlow, TransportKind::Sim, 200.5),
        (SaturationMode::Phase6Warm, TransportKind::Http, 21.2),
        (SaturationMode::Phase6Warm, TransportKind::Sim, 11.7),
    ];
    let mut over = Vec::new();
    for (mode, transport, budget) in cases {
        let per_access = allocs_per_access(mode, transport);
        let name = mode.bench_name(transport);
        println!("{name}: {per_access:.2} allocations per access (budget {budget})");
        if per_access > budget {
            over.push(format!("{name}: {per_access:.2} > {budget}"));
        }
    }
    assert!(over.is_empty(), "allocation budget exceeded: {over:?}");
}
