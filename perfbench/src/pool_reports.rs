//! `pool_reports`: the "expressive query language over operational data"
//! side of the paper.
//!
//! One load-generator thread, closed loop, issues a weighted web-site /
//! administrator report mix against a preloaded pool: front-page reports
//! are frequent and the full per-owner usage report is rare (the weights
//! are assumed, see [`REPORTS`]). A trickle of writes (one job completion
//! cycle per 10 reports: the completion, its resubmission, a one-match
//! scheduler pass, the freed slot's heartbeat and its `acceptMatch`) keeps
//! the plan and hash-join build caches honest.
//! The database is in memory: appserver and WAL work is negligible here.

use crate::trace::Trace;
use crate::{
    block_schedule, deterministic_counters, engine_delta, explain_analyze, profiles, ratio,
    Outcome, Rng, RunOptions, Samples,
};
use appserver::{AppContainer, CostModel, ServiceRegistry, SoapRequest, SoapStatus};
use cluster_sim::{SimDuration, SimTime};
use condorj2::CasState;
use relstore::{Database, OpStats, Prepared, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Registered machines, all running a job.
pub const MACHINES: i64 = 10_000;
/// Jobs waiting in the idle queue.
pub const IDLE_JOBS: i64 = 40_000;
/// Completed-job history rows.
pub const HISTORY: i64 = 200_000;
/// Distinct owners.
pub const OWNERS: usize = 100;
/// Provenance records (one output data set each).
pub const PROVENANCE: i64 = 20_000;
/// Preloaded history and provenance rows take ids from here up, clear of
/// the ids the CAS assigns itself.
const PRELOAD_ID_BASE: i64 = 1_000_000_000;

/// Reports in the mix and their weights per block of 200 reports. The
/// weights are assumed, not measured: front-page reports dominate and the
/// full usage report is rare; no trace of a real pool's report traffic was
/// available to set them from.
pub const REPORTS: [(Op, usize); 7] = [
    (Op::QueryPool, 40),
    (Op::IdleTop10, 40),
    (Op::OwnerJobs, 30),
    (Op::OwnerHistory, 30),
    (Op::ProvenanceOf, 25),
    (Op::GetConfig, 34),
    (Op::UsageByOwner, 1),
];
/// One write cycle runs after every this many reports.
pub const REPORTS_PER_WRITE_CYCLE: u64 = 10;

const IDLE_TOP10_SQL: &str =
    "SELECT job_id, owner FROM jobs WHERE state = 'idle' ORDER BY job_id LIMIT 10";
const OWNER_JOBS_SQL: &str = "SELECT job_id, state FROM jobs WHERE owner = ? ORDER BY job_id";
const OWNER_HISTORY_SQL: &str =
    "SELECT COUNT(*) AS jobs, SUM(runtime_ms) AS total_ms FROM job_history WHERE owner = ?";
/// The SQL the CAS runs for `queryPool`'s idle count and `usage_by_owner`,
/// repeated here for `EXPLAIN ANALYZE`.
const QUERY_POOL_IDLE_SQL: &str = "SELECT COUNT(*) FROM jobs WHERE state = 'idle'";
const USAGE_SQL: &str = "SELECT users.name AS owner, users.priority AS priority, \
     COUNT(*) AS jobs, SUM(job_history.runtime_ms) AS total_ms \
     FROM job_history JOIN users ON job_history.owner = users.name \
     GROUP BY users.name, users.priority ORDER BY owner";
const PROVENANCE_SQL: &str = "SELECT job_id, executable, input_dataset FROM provenance \
     WHERE output_dataset = ? ORDER BY record_id";
const CONFIG_SQL: &str = "SELECT value FROM config WHERE name = ?";

/// An operation of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// `queryPool` through the container.
    QueryPool,
    /// The ten oldest idle jobs.
    IdleTop10,
    /// One owner's live jobs.
    OwnerJobs,
    /// One owner's completed-job count and runtime sum.
    OwnerHistory,
    /// `CasState::provenance_of` for one data set.
    ProvenanceOf,
    /// `getConfig` through the container.
    GetConfig,
    /// `CasState::usage_by_owner`.
    UsageByOwner,
    /// A write: completion, resubmission, scheduler pass, heartbeat,
    /// `acceptMatch`.
    Write,
}

impl Op {
    /// Metric name of the operation.
    pub fn name(self) -> &'static str {
        match self {
            Op::QueryPool => "query_pool",
            Op::IdleTop10 => "idle_top10",
            Op::OwnerJobs => "owner_jobs",
            Op::OwnerHistory => "owner_history",
            Op::ProvenanceOf => "provenance_of",
            Op::GetConfig => "get_config",
            Op::UsageByOwner => "usage_by_owner",
            Op::Write => "write",
        }
    }
}

fn owner_name(i: usize) -> String {
    format!("user{i:03}")
}

fn dataset_name(i: i64) -> String {
    format!("results-{i:06}.out")
}

/// What the generator knows about the pool: every check compares against it.
#[derive(Default)]
struct Model {
    /// Live job id → (owner index, runtime).
    jobs: HashMap<i64, (usize, i64)>,
    idle: BTreeSet<i64>,
    /// Machine → the job it runs.
    running: BTreeMap<i64, i64>,
    owner_jobs: Vec<i64>,
    /// Per owner: completed jobs and their runtime sum.
    owner_history: Vec<(i64, i64)>,
    completed: i64,
    last_job_id: i64,
}

/// A preloaded pool plus the model of its contents.
pub struct Reports {
    container: AppContainer<CasState>,
    cas: CasState,
    model: Model,
    idle_top10: Prepared,
    owner_jobs: Prepared,
    owner_history: Prepared,
    rng: Rng,
    schedule: Vec<Op>,
    cursor: usize,
    since_write: u64,
    now_ms: u64,
}

fn db_err(e: relstore::Error) -> String {
    e.to_string()
}

impl Reports {
    /// Preloads the pool. Machines and live jobs go through the CAS (so its
    /// id counters stay right); history and provenance rows are bulk
    /// inserted with ids clear of the CAS's own.
    pub fn setup(seed: u64) -> Result<Reports, String> {
        let db = Arc::new(Database::new());
        let mut cas = CasState::new(Arc::clone(&db)).map_err(db_err)?;
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
        let mut rng = Rng::new(seed, 2);
        let mut model = Model {
            owner_jobs: vec![0; OWNERS],
            owner_history: vec![(0, 0); OWNERS],
            ..Model::default()
        };
        for m in 0..MACHINES {
            cas.register_machine(m, &format!("vm{m}"), 1.0, m / 4, 2048)
                .map_err(db_err)?;
        }
        for _ in 0..MACHINES + IDLE_JOBS {
            let owner = rng.below(OWNERS);
            let runtime = rng.range(1, 120) * 60_000;
            let id = cas
                .submit_job(&owner_name(owner), runtime)
                .map_err(db_err)?;
            model.jobs.insert(id, (owner, runtime));
            model.idle.insert(id);
            model.owner_jobs[owner] += 1;
            model.last_job_id = id;
        }
        if cas.run_scheduler().map_err(db_err)? != MACHINES as usize {
            return Err("set-up scheduler did not match every machine".into());
        }
        // The scheduler pairs machines and jobs in id order.
        let matched: Vec<i64> = model.idle.iter().take(MACHINES as usize).copied().collect();
        for (m, job) in (0..MACHINES).zip(matched) {
            cas.accept_match(m, job).map_err(db_err)?;
            model.idle.remove(&job);
            model.running.insert(m, job);
        }
        let db = Arc::clone(cas.database());
        let insert = db
            .prepare(
                "INSERT INTO job_history (history_id, job_id, owner, runtime_ms, submitted, \
                 completed, machine_id, requeues) VALUES (?, ?, ?, ?, ?, ?, ?, 0)",
            )
            .map_err(db_err)?;
        let mut rows = Vec::with_capacity(10_000);
        for h in 0..HISTORY {
            let owner = rng.below(OWNERS);
            let runtime = rng.range(1, 120) * 60_000;
            model.owner_history[owner].0 += 1;
            model.owner_history[owner].1 += runtime;
            let id = PRELOAD_ID_BASE + h;
            let machine = rng.range(0, MACHINES - 1);
            rows.push(vec![
                Value::Int(id),
                Value::Int(id),
                Value::Text(owner_name(owner).into()),
                Value::Int(runtime),
                Value::Int(0),
                Value::Int(runtime),
                Value::Int(machine),
            ]);
            if rows.len() == 10_000 {
                db.session()
                    .execute_batch(&insert, rows.drain(..))
                    .map_err(db_err)?;
            }
        }
        model.completed = HISTORY;
        let insert = db
            .prepare(
                "INSERT INTO provenance (record_id, job_id, executable, input_dataset, \
                 output_dataset, recorded) VALUES (?, ?, ?, ?, ?, 0)",
            )
            .map_err(db_err)?;
        let rows = (0..PROVENANCE).map(|p| {
            vec![
                Value::Int(PRELOAD_ID_BASE + p),
                Value::Int(PRELOAD_ID_BASE + p * (HISTORY / PROVENANCE)),
                Value::Text(format!("simulate-v{}", p % 7).into()),
                Value::Text(format!("raw-{p:06}.dat").into()),
                Value::Text(dataset_name(p).into()),
            ]
        });
        db.session().execute_batch(&insert, rows).map_err(db_err)?;
        db.analyze(None).map_err(db_err)?;
        let prep = |sql: &str| db.prepare(sql).map_err(db_err);
        let mut schedule = Vec::new();
        for _ in 0..8 {
            schedule.extend(block_schedule(&mut rng, &REPORTS));
        }
        Ok(Reports {
            idle_top10: prep(IDLE_TOP10_SQL)?,
            owner_jobs: prep(OWNER_JOBS_SQL)?,
            owner_history: prep(OWNER_HISTORY_SQL)?,
            container,
            cas,
            model,
            rng,
            schedule,
            cursor: 0,
            since_write: 0,
            now_ms: 0,
        })
    }

    /// The engine underneath the pool.
    pub fn database(&self) -> &Arc<Database> {
        self.cas.database()
    }

    fn next_op(&mut self) -> Op {
        if self.since_write == REPORTS_PER_WRITE_CYCLE {
            self.since_write = 0;
            return Op::Write;
        }
        self.since_write += 1;
        let op = self.schedule[self.cursor];
        self.cursor = (self.cursor + 1) % self.schedule.len();
        op
    }

    /// Runs one operation and checks its result against the model. Returns
    /// the rows it returned (for rows-read-per-row figures).
    fn run_op(&mut self, op: Op, out: &mut Outcome) -> Result<u64, String> {
        self.now_ms += 1_000;
        self.cas.now_ms = self.now_ms as i64;
        let now = SimTime(self.now_ms);
        let m = &self.model;
        match op {
            Op::QueryPool => {
                let (resp, _) =
                    self.container
                        .handle(&mut self.cas, now, &SoapRequest::new("queryPool"));
                let idle = m.idle.len() as i64;
                let want = [
                    ("idle_jobs", idle),
                    ("active_jobs", m.jobs.len() as i64 - idle),
                    ("busy_machines", m.running.len() as i64),
                    ("total_machines", MACHINES),
                    ("completed_jobs", m.completed),
                ];
                for (field, v) in want {
                    if resp.field(field) != Value::Int(v) {
                        return Err(format!(
                            "queryPool {field} = {:?}, expected {v}",
                            resp.field(field)
                        ));
                    }
                }
                Ok(1)
            }
            Op::IdleTop10 => {
                let r = self
                    .cas
                    .database()
                    .session()
                    .query(&self.idle_top10, ())
                    .map_err(db_err)?;
                let got: Vec<i64> = r
                    .views()
                    .map(|v| v.get("job_id"))
                    .collect::<Result<_, _>>()
                    .map_err(db_err)?;
                let want: Vec<i64> = m.idle.iter().take(10).copied().collect();
                if got != want {
                    return Err(format!("idle top 10 {got:?}, expected {want:?}"));
                }
                Ok(r.len() as u64)
            }
            Op::OwnerJobs => {
                let owner = self.rng.below(OWNERS);
                let r = self
                    .cas
                    .database()
                    .session()
                    .query(&self.owner_jobs, (owner_name(owner),))
                    .map_err(db_err)?;
                if r.len() as i64 != m.owner_jobs[owner] {
                    return Err(format!(
                        "owner {owner} has {} jobs, expected {}",
                        r.len(),
                        m.owner_jobs[owner]
                    ));
                }
                Ok(r.len() as u64)
            }
            Op::OwnerHistory => {
                let owner = self.rng.below(OWNERS);
                let got: Option<(i64, Option<i64>)> = self
                    .cas
                    .database()
                    .session()
                    .query_one(&self.owner_history, (owner_name(owner),))
                    .map_err(db_err)?;
                let (n, sum) = m.owner_history[owner];
                if got != Some((n, Some(sum))) {
                    return Err(format!(
                        "owner {owner} history {got:?}, expected ({n}, {sum})"
                    ));
                }
                Ok(1)
            }
            Op::ProvenanceOf => {
                let p = self.rng.range(0, PROVENANCE - 1);
                let lineage = self.cas.provenance_of(&dataset_name(p)).map_err(db_err)?;
                let ok = lineage.len() == 1
                    && lineage[0].job_id == PRELOAD_ID_BASE + p * (HISTORY / PROVENANCE)
                    && lineage[0].input_dataset == format!("raw-{p:06}.dat");
                if !ok {
                    return Err(format!("provenance of data set {p}: {lineage:?}"));
                }
                Ok(1)
            }
            Op::GetConfig => {
                let req = SoapRequest::new("getConfig").with("name", "scheduler");
                let (resp, _) = self.container.handle(&mut self.cas, now, &req);
                if resp.field("value") != Value::Text("fifo".into()) {
                    return Err(format!("getConfig scheduler = {:?}", resp.field("value")));
                }
                Ok(1)
            }
            Op::UsageByOwner => {
                let usage = self.cas.usage_by_owner().map_err(db_err)?;
                let want: Vec<(String, i64, i64)> = (0..OWNERS)
                    .filter(|&o| m.owner_history[o].0 > 0)
                    .map(|o| (owner_name(o), m.owner_history[o].0, m.owner_history[o].1))
                    .collect();
                let got: Vec<(String, i64, i64)> = usage
                    .iter()
                    .map(|u| {
                        (
                            u.owner.clone(),
                            u.jobs,
                            (u.machine_minutes * 60_000.0).round() as i64,
                        )
                    })
                    .collect();
                if got != want {
                    return Err(format!(
                        "usage_by_owner: {} lines differ from the model",
                        got.len()
                    ));
                }
                Ok(usage.len() as u64)
            }
            Op::Write => self.write_cycle(now, out).map(|()| 0),
        }
    }

    /// Completes one running job and refills the slot from the queue, all
    /// through the pool's protocol.
    fn write_cycle(&mut self, now: SimTime, out: &mut Outcome) -> Result<(), String> {
        // Every machine runs a job between write cycles.
        let machine = self.rng.range(0, MACHINES - 1);
        let job = *self
            .model
            .running
            .get(&machine)
            .ok_or("a machine without a job")?;
        let hb = SoapRequest::new("heartbeat").with("machine_id", machine);
        self.call(
            now,
            hb.clone().with("status", "completed").with("job_id", job),
            out,
        )?;
        let owner = self.rng.below(OWNERS);
        let runtime = self.rng.range(1, 120) * 60_000;
        let submit = SoapRequest::new("submitJob")
            .with("owner", owner_name(owner))
            .with("runtime_ms", runtime);
        let id = self.call(now, submit, out)?.field("first_job_id");
        let m = &mut self.model;
        let (done_owner, done_runtime) = m.jobs.remove(&job).ok_or("completed an unknown job")?;
        m.running.remove(&machine);
        m.owner_jobs[done_owner] -= 1;
        m.owner_history[done_owner].0 += 1;
        m.owner_history[done_owner].1 += done_runtime;
        m.completed += 1;
        m.last_job_id += 1;
        if id != Value::Int(m.last_job_id) {
            return Err(format!(
                "submitJob returned {id:?}, expected {}",
                m.last_job_id
            ));
        }
        m.jobs.insert(m.last_job_id, (owner, runtime));
        m.idle.insert(m.last_job_id);
        m.owner_jobs[owner] += 1;
        self.cas.now_ms = now.0 as i64;
        let made = self.cas.run_scheduler_limited(1).map_err(db_err)?;
        let next = self.model.idle.pop_first().ok_or("idle queue is empty")?;
        let resp = self.call(now, hb.with("status", "idle"), out)?;
        if made != 1
            || resp.status != SoapStatus::MatchInfo
            || resp.field("job_id") != Value::Int(next)
        {
            return Err(format!(
                "slot {machine} matched {:?}, expected job {next}",
                resp.field("job_id")
            ));
        }
        let accept = SoapRequest::new("acceptMatch")
            .with("machine_id", machine)
            .with("job_id", next);
        self.call(now, accept, out)?;
        self.model.running.insert(machine, next);
        Ok(())
    }

    /// Sends one write-cycle request through the container; a fault fails
    /// the cycle.
    fn call(
        &mut self,
        now: SimTime,
        req: SoapRequest,
        out: &mut Outcome,
    ) -> Result<appserver::SoapResponse, String> {
        *out.requests.entry(req.operation.clone()).or_default() += 1;
        let (resp, _) = self.container.handle(&mut self.cas, now, &req);
        match resp.fault_message() {
            Some(msg) => Err(format!("{}: {msg}", req.operation)),
            None => Ok(resp),
        }
    }
}

/// What a measured phase collects.
#[derive(Default)]
struct Phase {
    all: Samples,
    by_op: BTreeMap<Op, Samples>,
    ops: u64,
    completions: u64,
    trace: Option<Traced>,
}

/// Per-report sums of the traced phase.
#[derive(Default)]
struct Traced {
    trace: Trace,
    /// Per op: (engine ns, rows read, rows returned, statements).
    per_op: BTreeMap<Op, (u64, u64, u64, u64)>,
}

impl Reports {
    fn run_phase(&mut self, opts: &RunOptions, traced: bool, out: &mut Outcome) -> (Phase, f64) {
        let mut phase = Phase {
            trace: traced.then(Traced::default),
            ..Phase::default()
        };
        let start = Instant::now();
        while !opts.budget.done(start, phase.ops) {
            let op = self.next_op();
            if op != Op::Write {
                *out.requests.entry(op.name().to_string()).or_default() += 1;
            }
            let db = Arc::clone(self.database());
            let before = phase
                .trace
                .as_ref()
                .map(|tr| (tr.trace.now(), profiles(&db), db.stats()));
            let t = Instant::now();
            let result = self.run_op(op, out);
            let ns = t.elapsed().as_nanos() as u64;
            phase.ops += 1;
            phase.all.push(ns);
            phase.by_op.entry(op).or_default().push(ns);
            if op == Op::Write && result.is_ok() {
                phase.completions += 1;
            }
            if let (Some(tr), Some((t0, p0, s0))) = (phase.trace.as_mut(), before) {
                let t1 = t0 + ns;
                let e = engine_delta(&p0, &profiles(&db));
                let d = db.stats().delta_since(&s0);
                let id = tr
                    .trace
                    .record("bench.op", op.name(), t0, t1, None, phase.ops);
                tr.trace.record(
                    "relstore.engine",
                    op.name(),
                    t0,
                    t0 + e.nanos,
                    Some(id),
                    phase.ops,
                );
                let rows = *result.as_ref().unwrap_or(&0);
                let entry = tr.per_op.entry(op).or_default();
                entry.0 += e.nanos;
                entry.1 += d.rows_read;
                entry.2 += rows;
                entry.3 += d.statements_executed;
            }
            if let Err(e) = result {
                out.fail(format!("{}: {e}", op.name()));
            }
        }
        (phase, start.elapsed().as_secs_f64())
    }

    fn check(&self, out: &mut Outcome) {
        let db = self.database();
        let count = |sql: &str| {
            db.query(sql)
                .ok()
                .and_then(|r| r.scalar_int())
                .unwrap_or(-1)
        };
        let jobs = count("SELECT COUNT(*) FROM jobs");
        let history = count("SELECT COUNT(*) FROM job_history");
        if jobs != self.model.jobs.len() as i64 || history != self.model.completed {
            out.fail(format!(
                "final jobs {jobs} / history {history} differ from the model"
            ));
        }
    }
}

/// Runs the workload: `setup_reps` preloads (the last one is measured), one
/// untraced phase, and with `opts.trace` a traced phase after it.
pub fn run(opts: &RunOptions) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut pool, setups) = crate::repeat_setup(opts.setup_reps, || Reports::setup(opts.seed))?;
    let (phase, secs) = pool.run_phase(opts, false, &mut out);
    let e2e = crate::end_to_end(
        &mut out,
        &setups,
        secs,
        phase.ops,
        phase.completions,
        &phase.all,
    );
    for (op, s) in &phase.by_op {
        out.notes.push(s.describe(op.name(), 0.9));
    }
    if opts.trace {
        let s0 = pool.database().stats();
        let (traced, tsecs) = pool.run_phase(opts, true, &mut out);
        let delta = pool.database().stats().delta_since(&s0);
        per_layer(&pool, &traced, tsecs, &delta, &e2e, &mut out);
    }
    pool.check(&mut out);
    out.attempted = out.requests.values().sum::<u64>().max(1);
    out.notes.push(format!(
        "sizes: {MACHINES} machines, {} live jobs ({IDLE_JOBS} idle), {HISTORY} history rows, \
         {OWNERS} owners, {PROVENANCE} provenance rows; in-memory database",
        MACHINES + IDLE_JOBS
    ));
    Ok(out)
}

fn per_layer(
    pool: &Reports,
    phase: &Phase,
    secs: f64,
    delta: &OpStats,
    e2e: &BTreeMap<String, f64>,
    out: &mut Outcome,
) {
    let tr = phase.trace.as_ref().expect("traced phase");
    let db = pool.database();
    for (op, _) in REPORTS {
        let s = phase.by_op.get(&op).cloned().unwrap_or_default();
        out.layer(format!("report.{}_us", op.name()), s.quantile_us(0.5), "us");
        out.notes
            .push(s.describe(&format!("traced report {}", op.name()), 0.9));
        let (_, read, rows, _) = tr.per_op.get(&op).copied().unwrap_or_default();
        out.layer(
            format!("relstore.{}.rows_read_per_row", op.name()),
            ratio(read as f64, rows as f64),
            "count",
        );
    }
    let (engine, read, stmts) = tr
        .per_op
        .values()
        .fold((0, 0, 0), |(e, r, s), v| (e + v.0, r + v.1, s + v.3));
    let n = phase.ops as f64;
    out.layer("relstore.engine_us_per_req", engine as f64 / n / 1e3, "us");
    out.layer("relstore.stmts_per_req", stmts as f64 / n, "count");
    out.layer("relstore.rows_read_per_req", read as f64 / n, "count");
    // Operations that go through `AppContainer::handle` alone: their self
    // time is the appserver's share.
    let self_ns = tr.trace.self_nanos();
    let (mut self_sum, mut count) = (0u64, 0u64);
    for (i, s) in tr.trace.spans().iter().enumerate() {
        if s.name == "bench.op" && (s.detail == "query_pool" || s.detail == "get_config") {
            self_sum += self_ns[i];
            count += 1;
        }
    }
    out.layer(
        "appserver.self_us_per_req",
        ratio(self_sum as f64, count as f64) / 1e3,
        "us",
    );
    // Operator timings: median of five EXPLAIN ANALYZE runs per report.
    let explain: [(Op, &str, Vec<Value>); 7] = [
        (Op::QueryPool, QUERY_POOL_IDLE_SQL, vec![]),
        (Op::IdleTop10, IDLE_TOP10_SQL, vec![]),
        (
            Op::OwnerJobs,
            OWNER_JOBS_SQL,
            vec![Value::Text(owner_name(7).into())],
        ),
        (
            Op::OwnerHistory,
            OWNER_HISTORY_SQL,
            vec![Value::Text(owner_name(7).into())],
        ),
        (
            Op::ProvenanceOf,
            PROVENANCE_SQL,
            vec![Value::Text(dataset_name(7).into())],
        ),
        (
            Op::GetConfig,
            CONFIG_SQL,
            vec![Value::Text("scheduler".into())],
        ),
        (Op::UsageByOwner, USAGE_SQL, vec![]),
    ];
    for (op, sql, params) in explain {
        let mut runs: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for _ in 0..5 {
            match explain_analyze(db, sql, params.clone()) {
                Ok(steps) => steps
                    .into_iter()
                    .for_each(|(k, v)| runs.entry(k).or_default().push(v)),
                Err(e) => out
                    .notes
                    .push(format!("EXPLAIN ANALYZE {}: {e}", op.name())),
            }
        }
        let steps: &[&str] = if op == Op::UsageByOwner {
            &["Access", "HashJoin", "Filter", "Output"]
        } else {
            &["Access", "Filter", "Output"]
        };
        for step in steps {
            let v = runs.get(*step).map_or(0.0, |v| crate::median(v));
            out.layer(format!("relstore.exec.{}.{step}_us", op.name()), v, "us");
        }
        out.notes.push(format!(
            "EXPLAIN ANALYZE {}: {:?}",
            op.name(),
            runs.keys().collect::<Vec<_>>()
        ));
    }
    out.layer(
        "relstore.sql.stmt_cache_hit_ratio",
        ratio(
            delta.cache_hits as f64,
            (delta.cache_hits + delta.cache_misses) as f64,
        ),
        "ratio",
    );
    let joined = (delta.plan_cache_hits + delta.plans_built) as f64;
    out.layer(
        "relstore.plan.plan_cache_hit_ratio",
        ratio(delta.plan_cache_hits as f64, joined),
        "ratio",
    );
    out.layer(
        "relstore.plan.build_reuse_ratio",
        ratio(delta.build_reuse_hits as f64, joined),
        "ratio",
    );
    out.layer("relstore.sql.prepare_us", prepare_us(db), "us");
    let thr = phase.ops as f64 / secs;
    let untraced = e2e.get("throughput_ops_s").copied().unwrap_or(0.0);
    out.layer(
        "bench.trace_overhead_pct",
        ratio(untraced - thr, untraced) * 100.0,
        "%",
    );
    out.notes.push(format!(
        "trace overhead: throughput_ops_s {untraced:.1} -> {thr:.1}; latency_p50_us {:.1} -> {:.1}",
        e2e.get("latency_p50_us").copied().unwrap_or(0.0),
        phase.all.quantile_us(0.5)
    ));
    let path = crate::out_dir().join(format!("spans-pool_reports-{}.tsv", std::process::id()));
    if let Err(e) = tr.trace.write_tsv(&path) {
        out.notes.push(format!("spans not written: {e}"));
    }
}

/// Median time to prepare a statement the cache has not seen (a parse),
/// over 200 distinct texts.
fn prepare_us(db: &Database) -> f64 {
    let mut s = Samples::default();
    for i in 0..200 {
        let sql = format!(
            "SELECT job_id, owner FROM jobs WHERE owner = ? AND runtime_ms > {i} ORDER BY job_id"
        );
        let t = Instant::now();
        let ok = db.prepare(&sql).is_ok();
        s.push(t.elapsed().as_nanos() as u64);
        if !ok {
            return 0.0;
        }
    }
    s.quantile_us(0.5)
}

/// Counter deltas of a fixed-length untraced run (used by the determinism
/// test): `(engine counters, requests per operation)`.
pub fn counts(seed: u64, ops: u64) -> Result<crate::Counts, String> {
    let mut pool = Reports::setup(seed)?;
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
