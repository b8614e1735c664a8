//! Hostile snapshot bodies: crafted files whose FNV checksum is valid,
//! so every byte reaches the body decoder.
//!
//! Truncation and bit-flip tests stop at the checksum; these do not. A
//! count of `u64::MAX`, a string length past the end of the file and an
//! out-of-range histogram bucket must each come back as a typed
//! [`SnapshotError::Corrupt`], never a panic, and the decoder must never
//! make a single allocation larger than the file it was handed (plus
//! [`SLACK`]): a length prefix sizes nothing the remaining bytes cannot
//! back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use pacman_daemon::snapshot::{MAGIC, VERSION};
use pacman_daemon::{DaemonSnapshot, SnapshotError};
use pacman_telemetry::bin::{fnv1a, Writer};

/// Fixed allowance over the file size for one allocation that no
/// prefix sizes: a map node for a decoded series, an error message.
const SLACK: usize = 1024;

/// Records the largest single allocation made by a measuring thread.
struct PeakAlloc;

static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn note(size: usize) {
    if MEASURING.with(Cell::get) {
        PEAK.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// bookkeeping only reads a const-initialised thread-local and updates
// an atomic, neither of which allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Loads `bytes`, returning the result and the largest single
/// allocation the load made.
fn load_measured(bytes: &[u8]) -> (Result<DaemonSnapshot, SnapshotError>, usize) {
    PEAK.store(0, Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    let result = DaemonSnapshot::load(bytes);
    MEASURING.with(|m| m.set(false));
    (result, PEAK.load(Ordering::Relaxed))
}

/// Wraps `body` in a current-version header with its real checksum.
fn envelope(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&fnv1a(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// The daemon-wide totals that open every body.
fn totals(w: &mut Writer) {
    w.u64(3);
    w.u64(2);
    w.u64(1);
}

/// A registry with the given series counts (and no series).
fn registry(w: &mut Writer, counters: u64, gauges: u64, histograms: u64) {
    w.bool(true);
    w.u64(counters);
    w.u64(gauges);
    w.u64(histograms);
}

/// One session's fixed fields up to (not including) its job count.
fn session_head(w: &mut Writer) {
    w.str("alpha");
    for v in [4, 2, 1, 17] {
        w.u64(v);
    }
    registry(w, 0, 0, 0);
}

fn crafted(build: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    build(&mut w);
    envelope(&w.into_bytes())
}

#[test]
fn crafted_bodies_with_valid_checksums_fail_typed_and_small() {
    // Control: the same builders produce a file that loads, so each
    // failure below comes from the one crafted field.
    let valid = crafted(|w| {
        totals(w);
        registry(w, 0, 0, 0);
        w.usize(1);
        session_head(w);
        w.usize(1);
        w.u64(0);
        w.str("oracle --trials 4");
        w.u64(2);
    });
    let (loaded, peak) = load_measured(&valid);
    let loaded = loaded.expect("the control body loads");
    assert_eq!(loaded.sessions[0].jobs[0].command, "oracle --trials 4");
    assert!(peak > 0, "the allocation probe sees the decoder's allocations");

    let cases: Vec<(&str, Vec<u8>)> = vec![
        (
            "session count u64::MAX",
            crafted(|w| {
                totals(w);
                registry(w, 0, 0, 0);
                w.u64(u64::MAX);
            }),
        ),
        (
            "job count u64::MAX",
            crafted(|w| {
                totals(w);
                registry(w, 0, 0, 0);
                w.usize(1);
                session_head(w);
                w.u64(u64::MAX);
            }),
        ),
        (
            "counter series count u64::MAX",
            crafted(|w| {
                totals(w);
                registry(w, u64::MAX, 0, 0);
            }),
        ),
        (
            "gauge series count u64::MAX",
            crafted(|w| {
                totals(w);
                registry(w, 0, u64::MAX, 0);
            }),
        ),
        (
            "histogram series count u64::MAX",
            crafted(|w| {
                totals(w);
                registry(w, 0, 0, u64::MAX);
            }),
        ),
        (
            "session registry series count u64::MAX",
            crafted(|w| {
                totals(w);
                registry(w, 0, 0, 0);
                w.usize(1);
                w.str("alpha");
                for v in [4, 2, 1, 17] {
                    w.u64(v);
                }
                registry(w, u64::MAX, 0, 0);
            }),
        ),
        (
            "session name length past the end of the file",
            crafted(|w| {
                totals(w);
                registry(w, 0, 0, 0);
                w.usize(1);
                w.u64(1 << 40);
                w.u8(b'a');
            }),
        ),
        (
            "job command length past the end of the file",
            crafted(|w| {
                totals(w);
                registry(w, 0, 0, 0);
                w.usize(1);
                session_head(w);
                w.usize(1);
                w.u64(0);
                w.u64(u64::MAX);
            }),
        ),
        (
            "histogram bucket index 255",
            crafted(|w| {
                totals(w);
                registry(w, 0, 0, 1);
                w.str("h");
                for v in [1, 5, 5, 5] {
                    w.u64(v);
                }
                w.usize(1);
                w.u8(255);
                w.u64(1);
                w.usize(0);
            }),
        ),
    ];
    for (name, bytes) in cases {
        let (result, peak) = load_measured(&bytes);
        match result {
            Err(SnapshotError::Corrupt(msg)) => {
                if name.contains("bucket") {
                    assert!(msg.contains("bucket index 255"), "{name}: {msg}");
                }
            }
            other => panic!("{name}: expected a Corrupt error, got {other:?}"),
        }
        assert!(
            peak <= bytes.len() + SLACK,
            "{name}: a {peak}-byte allocation decoding a {}-byte file",
            bytes.len()
        );
    }
}
