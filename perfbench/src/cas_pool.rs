//! `cas_pool`: the paper's hot path, in process, at 10,000 slots.
//!
//! One load-generator thread plays every startd and user of a pool in a closed loop
//! with one request outstanding; the CAS is a single serialized server
//! (`&mut CasState`). Each request is a SOAP envelope handed to
//! `AppContainer::handle`, which dispatches to the CAS logic, which runs
//! prepared SQL and commits on a file-backed WAL under
//! `DurabilityPolicy::Checkpoint`. Requests are issued in the order of a
//! simulated clock (each slot heartbeats once a simulated minute while
//! running, and every few simulated seconds while idle), and the scheduler
//! passes and the container's checkpoints fire on that clock, so a run is a
//! pure function of its seed.
//!
//! Steady state: every slot runs a job for a seeded number of heartbeats,
//! reports it completed, and the completion resubmits one job, so the idle
//! queue depth and the running set stay constant.

use crate::trace::Trace;
use crate::{
    deterministic_counters, engine_delta, profiles, ratio, statement_delta, Outcome, Rng,
    RunOptions, Samples, ScratchDir,
};
use appserver::{AppContainer, CostModel, ServiceRegistry, SoapRequest, SoapResponse, SoapStatus};
use cluster_sim::{SimDuration, SimTime};
use condorj2::CasState;
use relstore::{Database, DurabilityPolicy, OpStats};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Registered execute slots: the paper's upper scale.
pub const SLOTS: i64 = 10_000;
/// Idle jobs waiting in the queue in steady state.
pub const QUEUE: i64 = 2_000;
/// Distinct job owners.
pub const OWNERS: i64 = 100;
/// A job runs for this many heartbeats (one per simulated minute).
pub const HEARTBEATS_PER_JOB: (i64, i64) = (5, 40);
/// A running slot heartbeats once a simulated minute.
pub const RUNNING_HEARTBEAT_MS: u64 = 60_000;
/// An idle slot heartbeats every six simulated seconds until matched.
pub const IDLE_HEARTBEAT_MS: u64 = 6_000;
/// Scheduler pass interval, simulated (about 1,000 requests).
pub const SCHEDULER_EVERY_MS: u64 = 6_000;
/// Container maintenance (checkpoint) interval, simulated (about 2,500
/// requests, so several checkpoints fire in every run).
pub const MAINTENANCE_EVERY_MS: u64 = 15_000;
/// Tolerance of the traced run's accounting check: engine time may exceed
/// its enclosing `handle` span by at most this much (clock granularity).
pub const ACCOUNTING_TOLERANCE_NS: u64 = 1_000;

/// The message kinds of the pool protocol, as timed.
pub const OPS: [&str; 5] = [
    "heartbeat_idle",
    "heartbeat_running",
    "heartbeat_completed",
    "acceptMatch",
    "submitJob",
];

#[derive(Debug, Clone, Copy)]
enum Slot {
    Idle,
    Running { job: i64, left: i64 },
}

/// A deployed pool in steady state.
pub struct Pool {
    container: AppContainer<CasState>,
    cas: CasState,
    slots: Vec<Slot>,
    /// Each slot's next heartbeat, by simulated due time.
    due: BinaryHeap<Reverse<(u64, usize)>>,
    now_ms: u64,
    next_scheduler_ms: u64,
    rng: Rng,
    /// Heartbeats each submitted, not yet completed job will run for.
    job_length: HashMap<i64, i64>,
    /// The rest of the current deck of job lengths.
    lengths: Vec<i64>,
    submitted: u64,
    completed: u64,
    _dir: ScratchDir,
}

/// What the measured loop collects.
#[derive(Default)]
struct Phase {
    all: Samples,
    by_op: BTreeMap<&'static str, Samples>,
    requests: u64,
    completions: u64,
    scheduler: Samples,
    trace: Option<Traced>,
}

/// Traced-run extras: spans plus per-request counter sums.
#[derive(Default)]
struct Traced {
    trace: Trace,
    engine_nanos: u64,
    engine_calls: u64,
    select_rows: u64,
    rows_read: u64,
    commits: u64,
    statements: u64,
    maintenance_reqs: u64,
    overruns: u64,
}

fn db_err(e: relstore::Error) -> String {
    e.to_string()
}

impl Pool {
    /// Deploys the CAS over a fresh file-backed WAL and brings the pool to
    /// steady state: every slot registered and running a job, `QUEUE` jobs
    /// idle. All of it goes through the pool's message protocol.
    pub fn setup(seed: u64) -> Result<Pool, String> {
        let dir = ScratchDir::new("cas_pool").map_err(|e| e.to_string())?;
        let db = Arc::new(
            Database::open_durable_with(dir.path().join("wal.log"), DurabilityPolicy::Checkpoint)
                .map_err(db_err)?,
        );
        let cas = CasState::new(Arc::clone(&db)).map_err(db_err)?;
        let mut registry = ServiceRegistry::new();
        condorj2::cas::register_services(&mut registry);
        let mut container = AppContainer::new(
            db,
            registry,
            CostModel::cas_server(),
            8,
            4,
            SimDuration::from_secs(60),
        );
        container.set_maintenance_interval(SimDuration(0));
        let mut pool = Pool {
            container,
            cas,
            slots: vec![Slot::Idle; SLOTS as usize],
            due: BinaryHeap::new(),
            now_ms: 0,
            next_scheduler_ms: SCHEDULER_EVERY_MS,
            rng: Rng::new(seed, 1),
            job_length: HashMap::new(),
            lengths: Vec::new(),
            submitted: 0,
            completed: 0,
            _dir: dir,
        };
        for m in 0..SLOTS {
            let req = SoapRequest::new("registerMachine")
                .with("machine_id", m)
                .with("name", format!("vm{m}@node{:04}", m / 4))
                .with("phys_id", m / 4)
                .with("memory_mb", 2048i64);
            pool.setup_call(&req)?;
        }
        for _ in 0..SLOTS + QUEUE {
            let req = pool.next_submission();
            let resp = pool.setup_call(&req)?;
            pool.note_submission(&req, &resp)?;
        }
        pool.cas.now_ms = pool.now_ms as i64;
        let matched = pool.cas.run_scheduler().map_err(db_err)?;
        if matched != SLOTS as usize {
            return Err(format!(
                "set-up scheduler matched {matched} of {SLOTS} slots"
            ));
        }
        let mut offsets: Vec<usize> = (0..SLOTS as usize).collect();
        pool.rng.shuffle(&mut offsets);
        let mut started = BTreeMap::new();
        for (m, offset) in offsets.into_iter().enumerate() {
            let req = SoapRequest::new("heartbeat")
                .with("machine_id", m as i64)
                .with("status", "idle");
            let resp = pool.setup_call(&req)?;
            let job = resp.field("job_id").as_int().map_err(|e| e.to_string())?;
            let req = SoapRequest::new("acceptMatch")
                .with("machine_id", m as i64)
                .with("job_id", job);
            pool.setup_call(&req)?;
            // Start the slots running a job of length k at evenly spread
            // points 0..=k of it, each at its own offset into the heartbeat
            // minute: completions then arrive at a steady rate that barely
            // depends on the seed.
            let length = pool.job_length[&job];
            let seen = started.entry(length).or_insert(0i64);
            pool.slots[m] = Slot::Running {
                job,
                left: *seen % (length + 1),
            };
            *seen += 1;
            let due = offset as u64 * RUNNING_HEARTBEAT_MS / SLOTS as u64;
            pool.due.push(Reverse((due, m)));
        }
        pool.container.database().checkpoint().map_err(db_err)?;
        pool.container
            .set_maintenance_interval(SimDuration(MAINTENANCE_EVERY_MS));
        Ok(pool)
    }

    fn setup_call(&mut self, req: &SoapRequest) -> Result<SoapResponse, String> {
        self.cas.now_ms = self.now_ms as i64;
        let (resp, _) = self
            .container
            .handle(&mut self.cas, SimTime(self.now_ms), req);
        match resp.fault_message() {
            Some(msg) => Err(format!("set-up {} faulted: {msg}", req.operation)),
            None => Ok(resp),
        }
    }

    fn next_submission(&mut self) -> SoapRequest {
        let owner = format!("user{:03}", self.rng.range(0, OWNERS - 1));
        if self.lengths.is_empty() {
            // Job lengths come from shuffled decks holding every length once,
            // so the length mix is exact rather than sampled.
            self.lengths = (HEARTBEATS_PER_JOB.0..=HEARTBEATS_PER_JOB.1).collect();
            self.rng.shuffle(&mut self.lengths);
        }
        let beats = self.lengths.pop().expect("deck refilled above");
        SoapRequest::new("submitJob")
            .with("owner", owner)
            .with("runtime_ms", beats * 60_000)
    }

    fn note_submission(&mut self, req: &SoapRequest, resp: &SoapResponse) -> Result<(), String> {
        let job = resp
            .field("first_job_id")
            .as_int()
            .map_err(|e| e.to_string())?;
        let beats = req.int_param("runtime_ms")? / 60_000;
        if self.job_length.insert(job, beats).is_some() {
            return Err(format!("job id {job} issued twice"));
        }
        self.submitted += 1;
        Ok(())
    }

    /// The engine underneath the pool.
    pub fn database(&self) -> &Arc<Database> {
        self.container.database()
    }

    /// Issues one request, timing it (and tracing it when the phase is
    /// traced). A fault is a failed operation.
    fn call(
        &mut self,
        op: &'static str,
        req: &SoapRequest,
        phase: &mut Phase,
        out: &mut Outcome,
    ) -> Option<SoapResponse> {
        self.cas.now_ms = self.now_ms as i64;
        let now = SimTime(self.now_ms);
        phase.requests += 1;
        *out.requests.entry(op.to_string()).or_default() += 1;
        let resp = match phase.trace.as_mut() {
            None => {
                let t = Instant::now();
                let (resp, _) = self.container.handle(&mut self.cas, now, req);
                let ns = t.elapsed().as_nanos() as u64;
                phase.all.push(ns);
                phase.by_op.entry(op).or_default().push(ns);
                resp
            }
            Some(tr) => {
                let db = Arc::clone(self.container.database());
                let (p0, s0) = (profiles(&db), db.stats());
                let t0 = tr.trace.now();
                let (resp, _) = self.container.handle(&mut self.cas, now, req);
                let t1 = tr.trace.now();
                let (p1, s1) = (profiles(&db), db.stats());
                let (ns, e, d) = (t1 - t0, engine_delta(&p0, &p1), s1.delta_since(&s0));
                phase.all.push(ns);
                phase.by_op.entry(op).or_default().push(ns);
                let id = tr
                    .trace
                    .record("appserver.handle", op, t0, t1, None, phase.requests);
                if d.checkpoints > 0 {
                    // The container's checkpoint is engine work outside any
                    // statement profile; keep it out of the self-time figures.
                    tr.maintenance_reqs += 1;
                    tr.trace
                        .record("relstore.checkpoint", op, t0, t1, Some(id), phase.requests);
                } else {
                    tr.trace.record(
                        "relstore.engine",
                        op,
                        t0,
                        t0 + e.nanos,
                        Some(id),
                        phase.requests,
                    );
                    if e.nanos > ns + ACCOUNTING_TOLERANCE_NS {
                        tr.overruns += 1;
                    }
                }
                tr.engine_nanos += e.nanos;
                tr.engine_calls += e.calls;
                tr.select_rows += e.select_rows;
                tr.rows_read += d.rows_read;
                tr.commits += d.commits;
                tr.statements += d.statements_executed;
                resp
            }
        };
        if let Some(msg) = resp.fault_message() {
            out.fail(format!("{op}: {msg}"));
            return None;
        }
        Some(resp)
    }

    /// The next due slot's turn: one heartbeat, plus the follow-up request
    /// its reply calls for (`acceptMatch` after a match, `submitJob` after a
    /// completion).
    fn turn(&mut self, phase: &mut Phase, out: &mut Outcome) {
        let Reverse((due, m)) = self.due.pop().expect("every slot is scheduled");
        self.now_ms = self.now_ms.max(due);
        self.turn_of(m, phase, out);
        let next = match self.slots[m] {
            Slot::Idle => IDLE_HEARTBEAT_MS,
            Slot::Running { .. } => RUNNING_HEARTBEAT_MS,
        };
        self.due.push(Reverse((due + next, m)));
        if self.now_ms >= self.next_scheduler_ms {
            self.next_scheduler_ms += SCHEDULER_EVERY_MS;
            self.scheduler_pass(phase, out);
        }
    }

    fn turn_of(&mut self, m: usize, phase: &mut Phase, out: &mut Outcome) {
        let hb = SoapRequest::new("heartbeat").with("machine_id", m as i64);
        match self.slots[m] {
            Slot::Idle => {
                let Some(resp) =
                    self.call("heartbeat_idle", &hb.with("status", "idle"), phase, out)
                else {
                    return;
                };
                if resp.status != SoapStatus::MatchInfo {
                    return;
                }
                let job = match resp.field("job_id").as_int() {
                    Ok(job) => job,
                    Err(e) => return out.fail(format!("match without job id: {e}")),
                };
                let accept = SoapRequest::new("acceptMatch")
                    .with("machine_id", m as i64)
                    .with("job_id", job);
                if self.call("acceptMatch", &accept, phase, out).is_some() {
                    match self.job_length.get(&job) {
                        Some(&left) => self.slots[m] = Slot::Running { job, left },
                        None => out.fail(format!("matched unknown job {job}")),
                    }
                }
            }
            Slot::Running { job, left } if left > 0 => {
                let req = hb.with("status", "running").with("job_id", job);
                self.call("heartbeat_running", &req, phase, out);
                self.slots[m] = Slot::Running {
                    job,
                    left: left - 1,
                };
            }
            Slot::Running { job, .. } => {
                let req = hb.with("status", "completed").with("job_id", job);
                if self.call("heartbeat_completed", &req, phase, out).is_none() {
                    return;
                }
                self.slots[m] = Slot::Idle;
                self.job_length.remove(&job);
                self.completed += 1;
                phase.completions += 1;
                let submit = self.next_submission();
                if let Some(resp) = self.call("submitJob", &submit, phase, out) {
                    if let Err(e) = self.note_submission(&submit, &resp) {
                        out.fail(e);
                    }
                }
            }
        }
    }

    fn scheduler_pass(&mut self, phase: &mut Phase, out: &mut Outcome) {
        self.cas.now_ms = self.now_ms as i64;
        let db = Arc::clone(self.container.database());
        let traced = phase
            .trace
            .as_mut()
            .map(|tr| (tr.trace.now(), profiles(&db)));
        let t = Instant::now();
        let result = self.cas.run_scheduler();
        phase.scheduler.push(t.elapsed().as_nanos() as u64);
        if let (Some(tr), Some((t0, p0))) = (phase.trace.as_mut(), traced) {
            let t1 = tr.trace.now();
            let e = engine_delta(&p0, &profiles(&db));
            let id = tr.trace.record("cas.run_scheduler", "", t0, t1, None, 0);
            tr.trace.record(
                "relstore.engine",
                "run_scheduler",
                t0,
                t0 + e.nanos,
                Some(id),
                0,
            );
        }
        if let Err(e) = result {
            out.fail(format!("run_scheduler: {e}"));
        }
    }

    fn run_phase(&mut self, opts: &RunOptions, traced: bool, out: &mut Outcome) -> (Phase, f64) {
        let mut phase = Phase {
            trace: traced.then(Traced::default),
            ..Phase::default()
        };
        let start = Instant::now();
        while !opts.budget.done(start, phase.requests) {
            self.turn(&mut phase, out);
        }
        (phase, start.elapsed().as_secs_f64())
    }

    /// End-of-run output checks: every submitted job is in exactly one of
    /// `jobs` and `job_history`, the counts match the generator's model, and
    /// the engine's own consistency check passes.
    fn check(&self, out: &mut Outcome) {
        let db = self.database();
        let count = |sql: &str| {
            db.query(sql)
                .ok()
                .and_then(|r| r.scalar_int())
                .unwrap_or(-1)
        };
        let live = count("SELECT COUNT(*) FROM jobs");
        let history = count("SELECT COUNT(*) FROM job_history");
        let both =
            count("SELECT COUNT(*) FROM jobs JOIN job_history ON jobs.job_id = job_history.job_id");
        let max_id = count("SELECT MAX(job_id) FROM jobs");
        if live != (self.submitted - self.completed) as i64 || history != self.completed as i64 {
            out.fail(format!(
                "jobs {live} / job_history {history}, expected {} / {}",
                self.submitted - self.completed,
                self.completed
            ));
        }
        if both != 0 || live + history != self.submitted as i64 || max_id > self.submitted as i64 {
            out.fail(format!("{both} jobs in both tables; max id {max_id}"));
        }
        if let Err(e) = db.check_consistency() {
            out.fail(format!("check_consistency: {e}"));
        }
    }
}

/// Runs the workload: `setup_reps` set-ups (the last one is measured), one
/// untraced phase, and with `opts.trace` a traced phase after it.
pub fn run(opts: &RunOptions) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut pool, setups) = crate::repeat_setup(opts.setup_reps, || Pool::setup(opts.seed))?;
    let (phase, secs) = pool.run_phase(opts, false, &mut out);
    let e2e = end_to_end(&phase, secs, &setups, &mut out);
    if opts.trace {
        let s0 = pool.database().stats();
        let p0 = profiles(pool.database());
        let (traced, tsecs) = pool.run_phase(opts, true, &mut out);
        let delta = pool.database().stats().delta_since(&s0);
        let p1 = profiles(pool.database());
        per_layer(&pool, &traced, tsecs, &delta, &p0, &p1, &e2e, &mut out);
    }
    pool.check(&mut out);
    out.attempted = out.requests.values().sum();
    out.notes.push(format!(
        "sizes: {SLOTS} slots, {QUEUE} queued jobs, {OWNERS} owners; WAL file, \
         DurabilityPolicy::Checkpoint; simulated checkpoint interval {MAINTENANCE_EVERY_MS} ms, \
         scheduler interval {SCHEDULER_EVERY_MS} ms"
    ));
    Ok(out)
}

/// The end-to-end metrics of an untraced phase.
fn end_to_end(
    phase: &Phase,
    secs: f64,
    setups: &[f64],
    out: &mut Outcome,
) -> BTreeMap<String, f64> {
    let e2e = crate::end_to_end(
        out,
        setups,
        secs,
        phase.requests,
        phase.completions,
        &phase.all,
    );
    for (op, s) in &phase.by_op {
        out.notes.push(s.describe(op, 0.99));
    }
    out.notes
        .push(phase.scheduler.describe("run_scheduler pass", 0.9));
    e2e
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    pool: &Pool,
    phase: &Phase,
    secs: f64,
    delta: &OpStats,
    p0: &crate::Profiles,
    p1: &crate::Profiles,
    e2e: &BTreeMap<String, f64>,
    out: &mut Outcome,
) {
    let tr = phase.trace.as_ref().expect("traced phase");
    let n = phase.requests as f64;
    for op in OPS {
        let s = phase.by_op.get(op).cloned().unwrap_or_default();
        out.layer(
            format!("appserver.handle_us.{op}"),
            s.quantile_us(0.5),
            "us",
        );
        out.notes
            .push(s.describe(&format!("traced handle {op}"), 0.99));
    }
    // Self time of the handle spans of requests without a checkpoint.
    let self_ns = tr.trace.self_nanos();
    let (mut self_sum, mut counted) = (0u64, 0u64);
    let spans = tr.trace.spans();
    let mut clean = vec![true; spans.len()];
    for s in spans {
        if s.name == "relstore.checkpoint" {
            clean[s.parent.expect("checkpoint spans have a parent")] = false;
        }
    }
    for (i, s) in spans.iter().enumerate() {
        if s.name == "appserver.handle" && clean[i] {
            self_sum += self_ns[i];
            counted += 1;
        }
    }
    out.layer(
        "appserver.self_us_per_req",
        ratio(self_sum as f64, counted as f64) / 1e3,
        "us",
    );
    out.layer(
        "relstore.engine_us_per_req",
        tr.engine_nanos as f64 / n / 1e3,
        "us",
    );
    out.layer(
        "relstore.stmts_per_req",
        tr.engine_calls as f64 / n,
        "count",
    );
    out.layer("relstore.commits_per_req", tr.commits as f64 / n, "count");
    out.layer(
        "relstore.rows_read_per_req",
        tr.rows_read as f64 / n,
        "count",
    );
    out.layer(
        "relstore.rows_read_per_row_returned",
        ratio(tr.rows_read as f64, tr.select_rows as f64),
        "count",
    );
    let job_fetch = p1
        .keys()
        .find(|sql| sql.contains("FROM jobs JOIN runs"))
        .cloned()
        .unwrap_or_else(|| "".into());
    let (calls, nanos) = statement_delta(p0, p1, &job_fetch);
    out.layer(
        "relstore.stmt.job_fetch.mean_us",
        ratio(nanos as f64, calls as f64) / 1e3,
        "us",
    );
    out.layer(
        "relstore.stmt.job_fetch.rows_read_per_row",
        job_fetch_probe(pool, &job_fetch),
        "count",
    );
    out.layer(
        "cas.scheduler_pass_ms",
        phase.scheduler.quantile_us(0.5) / 1e3,
        "ms",
    );
    out.layer(
        "relstore.wal.bytes_per_commit",
        ratio(delta.wal_bytes as f64, delta.commits as f64),
        "B",
    );
    out.layer(
        "relstore.wal.records_per_commit",
        ratio(delta.wal_records as f64, delta.commits as f64),
        "count",
    );
    let ckpt = pool.database().obs().histograms.checkpoint.snapshot();
    out.layer(
        "relstore.wal.checkpoint_ms",
        ckpt.quantile(0.5).unwrap_or(0) as f64 / 1e6,
        "ms",
    );
    out.layer(
        "relstore.wal.checkpoints",
        delta.checkpoints as f64,
        "count",
    );
    out.layer(
        "relstore.wal.fsync_ms_total",
        delta.wal_fsync_nanos as f64 / 1e6,
        "ms",
    );
    out.layer(
        "relstore.mvcc.versions_vacuumed",
        delta.versions_vacuumed as f64,
        "count",
    );
    let thr = phase.requests as f64 / secs;
    let untraced = e2e.get("throughput_ops_s").copied().unwrap_or(0.0);
    out.layer(
        "bench.trace_overhead_pct",
        ratio(untraced - thr, untraced) * 100.0,
        "%",
    );
    for (name, q) in [("latency_p50_us", 0.5), ("latency_p99_us", 0.99)] {
        let base = e2e.get(name).copied().unwrap_or(0.0);
        let traced = phase.all.quantile_us(q);
        out.notes.push(format!(
            "trace overhead {name}: {base:.1} -> {traced:.1} us ({:+.1}%)",
            ratio(traced - base, base) * 100.0
        ));
    }
    out.notes.push(format!(
        "trace overhead throughput_ops_s: {untraced:.1} -> {thr:.1} 1/s; jobs_per_s {:.1} -> {:.1}",
        e2e.get("jobs_per_s").copied().unwrap_or(0.0),
        phase.completions as f64 / secs
    ));
    out.notes.push(format!(
        "accounting: {counted} handle spans without a checkpoint; {} spans with engine > \
         handle + {ACCOUNTING_TOLERANCE_NS} ns; {} requests ran a checkpoint; statements profiled \
         {} vs executed {}",
        tr.overruns, tr.maintenance_reqs, tr.engine_calls, tr.statements
    ));
    // The accounting holds when engine time never overruns its span and
    // every executed statement was seen by the statement profiles.
    if tr.overruns > 0 || tr.engine_calls != tr.statements {
        out.fail("traced accounting: appserver self + engine time does not add up to handle");
    }
    let path = crate::out_dir().join(format!("spans-cas_pool-{}.tsv", std::process::id()));
    match tr.trace.write_tsv(&path) {
        Ok(()) => out.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => out.notes.push(format!("spans not written: {e}")),
    }
}

/// Runs the completion join once for a running job and reports rows read
/// per row returned, from the engine's counters.
fn job_fetch_probe(pool: &Pool, sql: &str) -> f64 {
    let Some(job) = pool.slots.iter().find_map(|s| match s {
        Slot::Running { job, .. } => Some(*job),
        Slot::Idle => None,
    }) else {
        return 0.0;
    };
    let db = pool.database();
    let s0 = db.stats();
    let rows = db
        .session()
        .query(sql, (job,))
        .map(|r| r.len())
        .unwrap_or(0);
    let d = db.stats().delta_since(&s0);
    ratio(d.rows_read as f64, rows as f64)
}

/// Counter deltas of a fixed-length untraced run (used by the determinism
/// test): `(engine counters, requests per operation)`.
pub fn counts(seed: u64, ops: u64) -> Result<crate::Counts, String> {
    let mut pool = Pool::setup(seed)?;
    let mut out = Outcome::default();
    let opts = RunOptions {
        seed,
        budget: crate::Budget::Ops(ops),
        trace: false,
        setup_reps: 1,
    };
    let s0 = pool.database().stats();
    pool.run_phase(&opts, false, &mut out);
    let delta = deterministic_counters(&pool.database().stats().delta_since(&s0));
    pool.check(&mut out);
    if out.failed > 0 {
        return Err(format!(
            "{} failed operations: {:?}",
            out.failed, out.failures
        ));
    }
    Ok((delta, out.requests))
}
