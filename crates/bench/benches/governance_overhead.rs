//! What resource governance costs on the prepared point select — the
//! hottest statement shape in the cluster-middleware workload — along two
//! distinct paths:
//!
//! * `_ungoverned`: the `Database` convenience, which runs with
//!   `Governance::NONE`. It is the same code path as `relstore_ops`'
//!   `prepared_point_select` and must be indistinguishable from it.
//! * `_governed_none` and the `_armed` legs: one long-lived `Session`, the
//!   surface every governed caller uses. With `Governance::NONE` (a
//!   disarmed governor, one branch per check) the delta against
//!   `_ungoverned` is the session's own tax: tuple-style parameter binding
//!   into an owned `Vec`. Armed with generous limits nothing trips, it
//!   prices deadline arithmetic, budget counters and row sizing.

use criterion::{criterion_group, criterion_main, Criterion};
use relstore::{Database, Governance, Value};
use std::hint::black_box;
use std::time::Duration;

fn setup_db(rows: usize) -> Database {
    let db = Database::new();
    db.execute(
        "CREATE TABLE jobs (job_id INT PRIMARY KEY, owner TEXT NOT NULL, state TEXT, runtime_ms INT)",
    )
    .unwrap();
    db.execute("CREATE INDEX ON jobs (state)").unwrap();
    for i in 0..rows {
        db.execute(&format!(
            "INSERT INTO jobs VALUES ({i}, 'user{}', 'idle', 60000)",
            i % 50
        ))
        .unwrap();
    }
    db
}

fn bench_governance(c: &mut Criterion) {
    let db = setup_db(5_000);
    let q = db.prepare("SELECT * FROM jobs WHERE job_id = ?").unwrap();
    let params = [Value::Int(2500)];

    // The ungoverned entry point — must match relstore_ops'
    // prepared_point_select (it is the same code path).
    c.bench_function("prepared_point_select_ungoverned", |b| {
        b.iter(|| db.query_prepared(black_box(&q), black_box(&params)).unwrap())
    });

    // The session every governed caller goes through, first with no limits:
    // it arms a disarmed governor, whose every check is one predictable
    // branch, and binds its parameters into an owned vector.
    let mut session = db.session();
    c.bench_function("prepared_point_select_governed_none", |b| {
        b.iter(|| session.query(black_box(&q), black_box(&params[..])).unwrap())
    });

    // The same session fully armed with generous limits nothing trips:
    // deadline arithmetic, budget counters and row sizing all run. This is
    // the worst case a governed service statement pays.
    session.set_governance(Governance {
        deadline: Some(Duration::from_secs(30)),
        max_rows: Some(1_000_000),
        max_bytes: Some(1 << 30),
        ..Governance::default()
    });
    c.bench_function("prepared_point_select_governed_armed", |b| {
        b.iter(|| session.query(black_box(&q), black_box(&params[..])).unwrap())
    });

    // The armed tax on a statement that actually ticks per row: a bounded
    // index range (50 rows) under full limits.
    let range = db
        .prepare("SELECT job_id FROM jobs WHERE job_id >= ? AND job_id < ?")
        .unwrap();
    let range_params = [Value::Int(2400), Value::Int(2450)];
    c.bench_function("range_select_governed_armed", |b| {
        b.iter(|| {
            session
                .query(black_box(&range), black_box(&range_params[..]))
                .unwrap()
        })
    });
}

criterion_group!(benches, bench_governance);
criterion_main!(benches);
