//! `wire_clients`: client statements over TCP.
//!
//! One process serves the database with `wire::serve` on loopback and
//! drives it from one client connection in a closed loop: the client sends
//! its next operation as soon as the previous one returns. The mix is 80 %
//! prepared point selects of a job's status, 15 % short write transactions
//! (a heartbeat-shaped UPDATE plus an INSERT) and 5 % 64-select
//! `query_batch` calls, exactly, per block of 20 operations.
//!
//! The whole process runs on one CPU. On a shared 2-vCPU host, a thread
//! that blocks on its socket leaves its vCPU idle, and waking an idle vCPU
//! costs whatever the host's load makes it cost. An open loop at a fixed
//! offered rate and an unpinned client measured that cost, not the
//! program; two clients spread over both vCPUs lost up to half their
//! throughput in the host's noisy spells. Pinned, the client and the
//! server thread hand over on a CPU that never idles (see the README).

use crate::trace::Trace;
use crate::{block_schedule, ratio, Outcome, Rng, RunOptions, Samples};
use relstore::{Database, Value};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wire::{Client, RemoteStatement};

/// Rows in the served `jobs` table.
pub const JOBS: i64 = 100_000;
/// Client connections, one thread each.
pub const CLIENTS: usize = 1;
/// Selects in one `query_batch`.
pub const BATCH: usize = 64;
/// Operation mix per block of 20.
const MIX: [(Op, usize); 3] = [(Op::PointSelect, 16), (Op::WriteTxn, 3), (Op::Batch64, 1)];

const POINT_SQL: &str = "SELECT job_id, state FROM jobs WHERE job_id = ?";
/// The batch runs the same select under its own text, so the engine's
/// statement profile separates single selects from batched ones.
const BATCH_SQL: &str = "SELECT job_id AS id, state FROM jobs WHERE job_id = ?";
const UPDATE_SQL: &str = "UPDATE jobs SET updated = ? WHERE job_id = ?";
const INSERT_SQL: &str =
    "INSERT INTO job_history (history_id, job_id, client, completed) VALUES (?, ?, ?, ?)";

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    PointSelect,
    WriteTxn,
    Batch64,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::PointSelect => "point_select",
            Op::WriteTxn => "write_txn",
            Op::Batch64 => "batch64",
        }
    }
}

/// Confines the calling thread, and every thread it starts afterwards, to
/// the highest-numbered CPU it may run on. Returns that CPU.
fn pin_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// The expected `state` of job `id`.
fn state_of(seed: u64, id: i64) -> &'static str {
    let mut rng = Rng::new(seed ^ id as u64, 3);
    ["idle", "running", "matched"][rng.below(3)]
}

/// A served database.
struct Served {
    server: wire::ServerHandle,
    db: Arc<Database>,
}

fn setup(seed: u64) -> Result<Served, String> {
    let err = |e: relstore::Error| e.to_string();
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, owner TEXT NOT NULL, state TEXT NOT NULL, updated INT)")
        .map_err(err)?;
    db.execute("CREATE TABLE job_history (history_id INT PRIMARY KEY, job_id INT NOT NULL, client INT, completed INT)")
        .map_err(err)?;
    let insert = db
        .prepare("INSERT INTO jobs (job_id, owner, state, updated) VALUES (?, ?, ?, 0)")
        .map_err(err)?;
    let rows = (0..JOBS).map(|id| {
        vec![
            Value::Int(id),
            Value::Text(format!("user{:03}", id % 100).into()),
            Value::Text(state_of(seed, id).into()),
        ]
    });
    db.session().execute_batch(&insert, rows).map_err(err)?;
    let server = wire::serve(Arc::clone(&db), "127.0.0.1:0").map_err(err)?;
    Ok(Served { server, db })
}

/// One client's share of a phase.
#[derive(Default)]
struct ClientRun {
    all: Samples,
    by_op: BTreeMap<Op, Samples>,
    ops: u64,
    requests: u64,
    writes: u64,
    failures: Vec<String>,
    failed: u64,
    trace: Option<Trace>,
}

struct Prepared {
    point: RemoteStatement,
    batch: RemoteStatement,
    update: RemoteStatement,
    insert: RemoteStatement,
}

/// Runs one client's closed loop until `deadline`.
fn client_loop(
    addr: std::net::SocketAddr,
    seed: u64,
    client_id: usize,
    start: Instant,
    deadline: Duration,
    next_history: i64,
    traced: Option<Instant>,
) -> ClientRun {
    let mut run = ClientRun {
        trace: traced.map(Trace::with_origin),
        ..ClientRun::default()
    };
    let fail = |run: &mut ClientRun, what: String| {
        run.failed += 1;
        if run.failures.len() < 8 {
            run.failures.push(what);
        }
    };
    let connected = Client::connect(addr).and_then(|mut c| {
        let p = Prepared {
            point: c.prepare(POINT_SQL)?,
            batch: c.prepare(BATCH_SQL)?,
            update: c.prepare(UPDATE_SQL)?,
            insert: c.prepare(INSERT_SQL)?,
        };
        Ok((c, p))
    });
    let (mut client, stmts) = match connected {
        Ok(c) => c,
        Err(e) => {
            fail(&mut run, format!("client {client_id} connect: {e}"));
            return run;
        }
    };
    let mut rng = Rng::new(seed, 10 + client_id as u64);
    let schedule = block_schedule(&mut rng, &MIX);
    let mut history_id = next_history;
    for i in 0u64.. {
        let began = start.elapsed();
        if began >= deadline {
            break;
        }
        let op = schedule[i as usize % schedule.len()];
        let t0 = run.trace.as_ref().map(|t| t.now());
        let result = match op {
            Op::PointSelect => {
                run.requests += 1;
                let id = rng.range(0, JOBS - 1);
                client
                    .query(stmts.point, (id,))
                    .map_err(|e| e.to_string())
                    .and_then(|r| check_rows(seed, &[id], std::slice::from_ref(&r)))
            }
            Op::Batch64 => {
                run.requests += 1;
                let ids: Vec<i64> = (0..BATCH).map(|_| rng.range(0, JOBS - 1)).collect();
                client
                    .query_batch(stmts.batch, ids.iter().map(|id| (*id,)))
                    .map_err(|e| e.to_string())
                    .and_then(|results| check_rows(seed, &ids, &results))
            }
            Op::WriteTxn => {
                run.requests += 4;
                history_id += 1;
                let job = rng.range(0, JOBS - 1);
                let at = began.as_millis() as i64;
                let txn = client.transaction().and_then(|mut tx| {
                    tx.execute(stmts.update, (at, job))?;
                    tx.execute(stmts.insert, (history_id, job, client_id as i64, at))?;
                    tx.commit()
                });
                match txn {
                    Ok(()) => {
                        run.writes += 1;
                        Ok(())
                    }
                    Err(e) => Err(e.to_string()),
                }
            }
        };
        let ns = (start.elapsed() - began).as_nanos() as u64;
        if let (Some(trace), Some(t0)) = (run.trace.as_mut(), t0) {
            trace.record("wire.client", op.name(), t0, t0 + ns, None, i);
        }
        run.by_op.entry(op).or_default().push(ns);
        run.all.push(ns);
        run.ops += 1;
        if let Err(e) = result {
            fail(&mut run, format!("client {client_id} {}: {e}", op.name()));
        }
    }
    run
}

/// TCP segments sent in this network namespace so far (`OutSegs` of
/// `/proc/self/net/snmp`): both ends of the loopback connections, and
/// nothing else runs in the benchmark's namespace.
fn tcp_out_segments() -> u64 {
    let snmp = std::fs::read_to_string("/proc/self/net/snmp").unwrap_or_default();
    let mut tcp = snmp.lines().filter(|l| l.starts_with("Tcp:"));
    let (Some(names), Some(values)) = (tcp.next(), tcp.next()) else {
        return 0;
    };
    names
        .split_whitespace()
        .zip(values.split_whitespace())
        .find(|(n, _)| *n == "OutSegs")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}

/// Checks that every select returned exactly its job's row.
fn check_rows(seed: u64, ids: &[i64], results: &[relstore::QueryResult]) -> Result<(), String> {
    if results.len() != ids.len() {
        return Err(format!(
            "{} results for {} selects",
            results.len(),
            ids.len()
        ));
    }
    for (id, r) in ids.iter().zip(results) {
        let row = r
            .views()
            .next()
            .ok_or_else(|| format!("job {id}: no row"))?;
        let got: (i64, String) = (
            row.get_at(0).map_err(|e| e.to_string())?,
            row.get_at(1).map_err(|e| e.to_string())?,
        );
        if r.len() != 1 || got != (*id, state_of(seed, *id).to_string()) {
            return Err(format!("job {id}: got {got:?} in {} rows", r.len()));
        }
    }
    Ok(())
}

/// One closed-loop phase over every client.
fn phase(
    served: &Served,
    seed: u64,
    length: Duration,
    first_history: i64,
    traced: bool,
) -> (Vec<ClientRun>, f64) {
    let addr = served.server.local_addr();
    let start = Instant::now();
    let origin = traced.then_some(start);
    let runs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let base = first_history + c as i64 * 1_000_000_000;
                s.spawn(move || client_loop(addr, seed, c, start, length, base, origin))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (runs, start.elapsed().as_secs_f64())
}

fn merge(runs: &[ClientRun], out: &mut Outcome) -> ClientRun {
    let mut total = ClientRun::default();
    for r in runs {
        total.all.0.extend_from_slice(&r.all.0);
        for (op, s) in &r.by_op {
            let t = total.by_op.entry(*op).or_default();
            s.0.iter().for_each(|&ns| t.push(ns));
        }
        total.ops += r.ops;
        total.requests += r.requests;
        total.writes += r.writes;
        out.failed += r.failed;
        out.failures.extend(r.failures.iter().take(8).cloned());
    }
    total
}

/// Runs the workload: `setup_reps` set-ups (the last one is measured), one
/// untraced phase, and with `opts.trace` a traced phase after it.
pub fn run(opts: &RunOptions) -> Result<Outcome, String> {
    let crate::Budget::Time(length) = opts.budget else {
        return Err("wire_clients runs for a wall-clock duration only".into());
    };
    let cpu = pin_to_one_cpu()?;
    let mut out = Outcome::default();
    // Dropping a `ServerHandle` shuts its server down and joins its threads.
    let (served, setups) = crate::repeat_setup(opts.setup_reps, || setup(opts.seed))?;
    let (runs, secs) = phase(&served, opts.seed, length, 0, false);
    let total = merge(&runs, &mut out);
    let mut committed = total.writes;
    let e2e = crate::end_to_end(&mut out, &setups, secs, total.ops, total.writes, &total.all);
    for (op, s) in &total.by_op {
        out.notes.push(s.describe(op.name(), 0.99));
    }
    let mut ops = total.ops;
    if opts.trace {
        let db = &served.db;
        let (s0, n0, w0, p0) = (
            db.stats(),
            served.server.stats(),
            tcp_out_segments(),
            crate::profiles(db),
        );
        let (runs, tsecs) = phase(&served, opts.seed, length, 500_000_000, true);
        let (s1, n1, w1, p1) = (
            db.stats(),
            served.server.stats(),
            tcp_out_segments(),
            crate::profiles(db),
        );
        let traced = merge(&runs, &mut out);
        committed += traced.writes;
        ops += traced.ops;
        let d = s1.delta_since(&s0);
        let net = n1.delta_since(&n0);
        let req = traced.requests as f64;
        for op in [Op::PointSelect, Op::WriteTxn, Op::Batch64] {
            let s = traced.by_op.get(&op).cloned().unwrap_or_default();
            out.layer(
                format!("wire.client_us.{}", op.name()),
                s.quantile_us(0.5),
                "us",
            );
            out.notes
                .push(s.describe(&format!("traced client span {}", op.name()), 0.99));
        }
        let points = traced
            .by_op
            .get(&Op::PointSelect)
            .cloned()
            .unwrap_or_default();
        let (calls, engine_ns) = crate::statement_delta(&p0, &p1, POINT_SQL);
        out.layer(
            "wire.overhead_us",
            ratio(points.total() as f64 - engine_ns as f64, calls as f64) / 1e3,
            "us",
        );
        let e = crate::engine_delta(&p0, &p1);
        out.layer(
            "relstore.engine_us_per_req",
            e.nanos as f64 / req / 1e3,
            "us",
        );
        out.layer("relstore.stmts_per_req", e.calls as f64 / req, "count");
        out.layer(
            "relstore.rows_read_per_req",
            d.rows_read as f64 / req,
            "count",
        );
        out.layer(
            "relstore.rows_read_per_row_returned",
            ratio(d.rows_read as f64, e.select_rows as f64),
            "count",
        );
        out.layer(
            "wire.tcp_segments_per_stmt",
            w1.saturating_sub(w0) as f64 / req,
            "count",
        );
        out.layer(
            "wire.frames_per_stmt",
            ratio(net.frames_decoded as f64, d.statements_executed as f64),
            "count",
        );
        out.layer(
            "wire.bytes_per_stmt",
            (net.net_bytes_in + net.net_bytes_out) as f64 / req,
            "B",
        );
        out.layer(
            "relstore.mvcc.lock_wait_us_total",
            d.lock_wait_nanos as f64 / 1e3,
            "us",
        );
        out.layer("relstore.mvcc.lock_waits", d.lock_waits as f64, "count");
        out.layer(
            "relstore.mvcc.max_version_chain",
            d.max_version_chain as f64,
            "count",
        );
        let base = e2e.get("throughput_ops_s").copied().unwrap_or(0.0);
        let thr = traced.ops as f64 / tsecs;
        out.layer(
            "bench.trace_overhead_pct",
            ratio(base - thr, base) * 100.0,
            "%",
        );
        out.notes.push(format!(
            "trace overhead: throughput_ops_s {base:.1} -> {thr:.1}; latency_p50_us {:.1} -> {:.1}",
            e2e.get("latency_p50_us").copied().unwrap_or(0.0),
            traced.all.quantile_us(0.5)
        ));
        for (c, r) in runs.iter().enumerate() {
            if let Some(t) = &r.trace {
                let path = crate::out_dir().join(format!(
                    "spans-wire_clients-{}-c{c}.tsv",
                    std::process::id()
                ));
                if let Err(e) = t.write_tsv(&path) {
                    out.notes.push(format!("spans not written: {e}"));
                }
            }
        }
    }
    // Final row counts: every committed write left exactly one history row.
    let count = |sql: &str| {
        served
            .db
            .query(sql)
            .ok()
            .and_then(|r| r.scalar_int())
            .unwrap_or(-1)
    };
    let history = count("SELECT COUNT(*) FROM job_history");
    let jobs = count("SELECT COUNT(*) FROM jobs");
    if history != committed as i64 || jobs != JOBS {
        out.fail(format!(
            "final rows: history {history} (committed {committed}), jobs {jobs}"
        ));
    }
    served.server.shutdown();
    out.attempted = ops.max(1);
    out.notes.push(format!(
        "sizes: {JOBS} jobs, {CLIENTS} closed-loop client; in-memory database served on \
         loopback; process pinned to CPU {cpu}"
    ));
    Ok(out)
}
