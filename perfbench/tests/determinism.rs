//! Same seed, same work: two fixed-length runs of a single-client workload
//! with one seed must produce identical engine counter deltas and request
//! counts, so per-layer counts such as `relstore.rows_read_per_req` can be
//! cited as exact. A different seed must change the request stream and
//! still pass every output check.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the workloads set up a 10,000-slot pool).

use perfbench::{cas_pool, pool_reports};

#[test]
fn cas_pool_counts_repeat_exactly() {
    let a = cas_pool::counts(7, 3_000).expect("first run passes its checks");
    let b = cas_pool::counts(7, 3_000).expect("second run passes its checks");
    assert_eq!(a, b);
    assert!(a.0["rows_read"] > 0 && a.0["commits"] > 0);
    let c = cas_pool::counts(8, 3_000).expect("another seed passes its checks");
    assert_ne!(a.0, c.0, "another seed issues another request stream");
}

#[test]
fn pool_reports_counts_repeat_exactly() {
    let a = pool_reports::counts(7, 300).expect("first run passes its checks");
    let b = pool_reports::counts(7, 300).expect("second run passes its checks");
    assert_eq!(a, b);
    assert!(a.0["rows_read"] > 0 && a.0["commits"] > 0);
    let c = pool_reports::counts(8, 300).expect("another seed passes its checks");
    assert_ne!(a.0, c.0, "another seed issues another request stream");
}
