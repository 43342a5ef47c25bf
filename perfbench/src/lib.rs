//! The repository benchmark: three workloads over the CondorJ2 stack, each
//! reporting end-to-end metrics (tracing off) or per-layer metrics (a
//! separate traced run).
//!
//! * [`cas_pool`] — the paper's hot path in process: SOAP request →
//!   `AppContainer::handle` → CAS logic → prepared SQL → commit on a
//!   file-backed WAL, at 10,000 slots.
//! * [`pool_reports`] — the web-site / administrator query mix over a
//!   preloaded pool, with a trickle of writes.
//! * [`wire_clients`] — client statements over TCP against `wire::serve`
//!   from two closed-loop client connections.
//!
//! Every input is generated from the `--seed` argument; the program under
//! test only ever sees the generated requests. Each workload checks the
//! program's outputs against what its generator knows and counts every
//! mismatch as a failed operation.

pub mod cas_pool;
pub mod pool_reports;
pub mod trace;
pub mod wire_clients;

use relstore::{Database, OpStats, StmtKind};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How long a measured phase runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Wall-clock duration (the benchmark proper).
    Time(Duration),
    /// A fixed number of operations (the determinism test).
    Ops(u64),
}

impl Budget {
    /// True once `ops` operations have run or the deadline has passed.
    pub fn done(&self, start: Instant, ops: u64) -> bool {
        match *self {
            Budget::Time(d) => start.elapsed() >= d,
            Budget::Ops(n) => ops >= n,
        }
    }
}

/// Options shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Seed of the input generator.
    pub seed: u64,
    /// Length of each measured phase.
    pub budget: Budget,
    /// Run the traced phase and report per-layer metrics.
    pub trace: bool,
    /// Times the set-up is repeated; `setup_s` is the median.
    pub setup_reps: usize,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit of the value.
    pub unit: &'static str,
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase(s).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong result.
    pub failed: u64,
    /// The first few failure descriptions, for the log.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced phase).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced phase; empty when not tracing).
    pub per_layer: Vec<Metric>,
    /// Human-readable lines: every timing with its median, tail and sample
    /// count, sizes and settings.
    pub notes: Vec<String>,
    /// Requests issued per operation kind in the measured phase.
    pub requests: BTreeMap<String, u64>,
}

impl Outcome {
    /// Records one failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what.into());
        }
    }

    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Engine counters minus those that measure wall-clock time, which no two
/// runs share.
pub fn deterministic_counters(delta: &OpStats) -> BTreeMap<&'static str, u64> {
    delta
        .fields()
        .into_iter()
        .filter(|(name, _)| !name.ends_with("_nanos"))
        .collect()
}

/// A seeded SplitMix64 generator: the same seed gives the same stream on
/// every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Builds a repeating operation schedule: each block holds exactly
/// `weight` copies of every kind, shuffled. Exact per-block proportions keep
/// a rare, expensive operation from making run-to-run figures depend on how
/// often the dice happened to pick it.
pub fn block_schedule<K: Copy>(rng: &mut Rng, weights: &[(K, usize)]) -> Vec<K> {
    let mut block: Vec<K> = weights
        .iter()
        .flat_map(|&(k, w)| std::iter::repeat_n(k, w))
        .collect();
    rng.shuffle(&mut block);
    block
}

/// Latency samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, nanos: u64) {
        self.0.push(nanos);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Sum of all samples, in nanoseconds.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Nearest-rank `q`-quantile in microseconds (0 when empty).
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64 / 1_000.0
    }

    /// One log line: median, tail percentile and sample count. The tail is
    /// flagged when fewer than ten samples lie beyond it.
    pub fn describe(&self, name: &str, tail: f64) -> String {
        let beyond = self.0.len() as f64 * (1.0 - tail);
        format!(
            "{name}: p50 {:.1} us, p{} {:.1} us, n {}{}",
            self.quantile_us(0.5),
            (tail * 100.0).round(),
            self.quantile_us(tail),
            self.0.len(),
            if beyond < 10.0 {
                " (tail has <10 samples beyond it)"
            } else {
                ""
            }
        )
    }
}

/// Pushes every end-to-end metric of one untraced phase. `ops` operations
/// completed in `secs` seconds, `jobs` of them finished a job, and
/// `latency` holds every operation's latency.
pub fn end_to_end(
    out: &mut Outcome,
    setups: &[f64],
    secs: f64,
    ops: u64,
    jobs: u64,
    latency: &Samples,
) -> BTreeMap<String, f64> {
    let (p50, p99) = (latency.quantile_us(0.5), latency.quantile_us(0.99));
    out.e2e("setup_s", median(setups), "s");
    out.e2e("throughput_ops_s", ops as f64 / secs, "1/s");
    out.e2e("jobs_per_s", jobs as f64 / secs, "1/s");
    out.e2e("latency_p50_us", p50, "us");
    out.e2e("latency_p99_us", p99, "us");
    out.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    out.notes
        .push(latency.describe("operation latency over the phase", 0.99));
    out.notes
        .push(latency.describe("operation latency over the phase", 0.9));
    out.notes.push(format!("set-up repetitions {setups:?} s"));
    out.end_to_end
        .iter()
        .map(|m| (m.name.clone(), m.value))
        .collect()
}

/// A repeated set-up keeps repeating until its repetitions took this long
/// in total, so a short set-up runs often enough for its median to settle.
pub const SETUP_MIN_SECS: f64 = 2.0;

/// Runs `setup` `reps` times (at least once), and with `reps` > 1 further
/// times until [`SETUP_MIN_SECS`] have passed, dropping each result before
/// the next set-up starts. Returns the last result with every set-up's
/// duration in seconds.
pub fn repeat_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < reps.max(1) || (reps > 1 && times.iter().sum::<f64>() < SETUP_MIN_SECS) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up ran"), times))
}

/// Median of a few values (set-up repetitions).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Reads a `key:  value kB` field of `/proc/self/status`, in kB.
fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with(key))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// The directory the benchmark writes into: `$CARGO_TARGET_DIR/perfbench`,
/// or `perfbench/target/perfbench` when the variable is unset. Both lie
/// inside the checkout and are ignored by git.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    target.join("perfbench")
}

/// A scratch directory for one run's files, removed on drop.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `out_dir()/<name>-<pid>-<n>`, empty.
    pub fn new(name: &str) -> std::io::Result<ScratchDir> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("{name}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// The directory's path.
    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Per-statement profile totals, keyed by SQL text: `(calls, rows, nanos)`.
pub type Profiles = BTreeMap<std::sync::Arc<str>, (u64, u64, u64, StmtKind)>;

/// Snapshots every cached statement's execution profile.
pub fn profiles(db: &Database) -> Profiles {
    db.statement_profiles()
        .into_iter()
        .map(|p| (p.sql, (p.calls, p.rows, p.total_nanos, p.kind)))
        .collect()
}

/// Engine work between two profile snapshots.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct EngineDelta {
    /// Statements executed.
    pub calls: u64,
    /// Rows returned by SELECT statements.
    pub select_rows: u64,
    /// Nanoseconds the engine spent in those statements (commit included
    /// for autocommit writes).
    pub nanos: u64,
}

/// Sums the profile deltas `after - before` over every statement.
pub fn engine_delta(before: &Profiles, after: &Profiles) -> EngineDelta {
    let mut d = EngineDelta::default();
    for (sql, &(calls, rows, nanos, kind)) in after {
        let (c0, r0, n0, _) = before.get(sql).copied().unwrap_or((0, 0, 0, kind));
        d.calls += calls.saturating_sub(c0);
        d.nanos += nanos.saturating_sub(n0);
        if kind == StmtKind::Select {
            d.select_rows += rows.saturating_sub(r0);
        }
    }
    d
}

/// The `(calls, nanos)` delta of one statement, found by SQL text.
pub fn statement_delta(before: &Profiles, after: &Profiles, sql: &str) -> (u64, u64) {
    let get = |p: &Profiles| p.get(sql).map_or((0, 0), |&(c, _, n, _)| (c, n));
    let (c0, n0) = get(before);
    let (c1, n1) = get(after);
    (c1.saturating_sub(c0), n1.saturating_sub(n0))
}

/// Operator timings of one `EXPLAIN ANALYZE` run, keyed by operator kind
/// (`Access`, `Filter`, `HashJoin`, `Output`, …), in microseconds.
pub fn explain_analyze(
    db: &Database,
    sql: &str,
    params: Vec<relstore::Value>,
) -> relstore::Result<BTreeMap<String, f64>> {
    let result = db
        .session()
        .query(format!("EXPLAIN ANALYZE {sql}").as_str(), params)?;
    let mut steps = BTreeMap::new();
    for row in result.views() {
        let operator: String = row.get("operator")?;
        let kind = operator.split('(').next().unwrap_or(&operator).to_string();
        let us: f64 = row.get("time_us")?;
        *steps.entry(kind).or_insert(0.0) += us;
    }
    Ok(steps)
}

/// Formats the result line the benchmark prints last.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Every per-layer metric and its unit, in the order `BENCHMARK.json` lists
/// them. A traced run reports all of them; a metric of a layer the workload
/// does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("appserver.handle_us.heartbeat_idle", "us"),
    ("appserver.handle_us.heartbeat_running", "us"),
    ("appserver.handle_us.heartbeat_completed", "us"),
    ("appserver.handle_us.acceptMatch", "us"),
    ("appserver.handle_us.submitJob", "us"),
    ("appserver.self_us_per_req", "us"),
    ("relstore.engine_us_per_req", "us"),
    ("relstore.stmts_per_req", "count"),
    ("relstore.commits_per_req", "count"),
    ("relstore.rows_read_per_req", "count"),
    ("relstore.rows_read_per_row_returned", "count"),
    ("relstore.stmt.job_fetch.mean_us", "us"),
    ("relstore.stmt.job_fetch.rows_read_per_row", "count"),
    ("cas.scheduler_pass_ms", "ms"),
    ("relstore.wal.bytes_per_commit", "B"),
    ("relstore.wal.records_per_commit", "count"),
    ("relstore.wal.checkpoint_ms", "ms"),
    ("relstore.wal.checkpoints", "count"),
    ("relstore.wal.fsync_ms_total", "ms"),
    ("relstore.mvcc.versions_vacuumed", "count"),
    ("report.query_pool_us", "us"),
    ("report.idle_top10_us", "us"),
    ("report.owner_jobs_us", "us"),
    ("report.owner_history_us", "us"),
    ("report.provenance_of_us", "us"),
    ("report.get_config_us", "us"),
    ("report.usage_by_owner_us", "us"),
    ("relstore.query_pool.rows_read_per_row", "count"),
    ("relstore.idle_top10.rows_read_per_row", "count"),
    ("relstore.owner_jobs.rows_read_per_row", "count"),
    ("relstore.owner_history.rows_read_per_row", "count"),
    ("relstore.provenance_of.rows_read_per_row", "count"),
    ("relstore.get_config.rows_read_per_row", "count"),
    ("relstore.usage_by_owner.rows_read_per_row", "count"),
    ("relstore.exec.query_pool.Access_us", "us"),
    ("relstore.exec.query_pool.Filter_us", "us"),
    ("relstore.exec.query_pool.Output_us", "us"),
    ("relstore.exec.idle_top10.Access_us", "us"),
    ("relstore.exec.idle_top10.Filter_us", "us"),
    ("relstore.exec.idle_top10.Output_us", "us"),
    ("relstore.exec.owner_jobs.Access_us", "us"),
    ("relstore.exec.owner_jobs.Filter_us", "us"),
    ("relstore.exec.owner_jobs.Output_us", "us"),
    ("relstore.exec.owner_history.Access_us", "us"),
    ("relstore.exec.owner_history.Filter_us", "us"),
    ("relstore.exec.owner_history.Output_us", "us"),
    ("relstore.exec.provenance_of.Access_us", "us"),
    ("relstore.exec.provenance_of.Filter_us", "us"),
    ("relstore.exec.provenance_of.Output_us", "us"),
    ("relstore.exec.get_config.Access_us", "us"),
    ("relstore.exec.get_config.Filter_us", "us"),
    ("relstore.exec.get_config.Output_us", "us"),
    ("relstore.exec.usage_by_owner.Access_us", "us"),
    ("relstore.exec.usage_by_owner.HashJoin_us", "us"),
    ("relstore.exec.usage_by_owner.Filter_us", "us"),
    ("relstore.exec.usage_by_owner.Output_us", "us"),
    ("relstore.sql.prepare_us", "us"),
    ("relstore.sql.stmt_cache_hit_ratio", "ratio"),
    ("relstore.plan.plan_cache_hit_ratio", "ratio"),
    ("relstore.plan.build_reuse_ratio", "ratio"),
    ("wire.client_us.point_select", "us"),
    ("wire.client_us.write_txn", "us"),
    ("wire.client_us.batch64", "us"),
    ("wire.overhead_us", "us"),
    ("wire.tcp_segments_per_stmt", "count"),
    ("wire.frames_per_stmt", "count"),
    ("wire.bytes_per_stmt", "B"),
    ("relstore.mvcc.lock_wait_us_total", "us"),
    ("relstore.mvcc.lock_waits", "count"),
    ("relstore.mvcc.max_version_chain", "count"),
    ("bench.trace_overhead_pct", "%"),
];

/// The per-layer metrics of a traced run in `PER_LAYER` order, with 0 for
/// those the workload did not measure. A measured metric missing from
/// `PER_LAYER` is a bug in the benchmark and an error.
pub fn all_per_layer(measured: &[Metric]) -> Result<Vec<Metric>, String> {
    if let Some(m) = measured
        .iter()
        .find(|m| !PER_LAYER.iter().any(|(n, _)| *n == m.name))
    {
        return Err(format!("per-layer metric {} is not listed", m.name));
    }
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            Metric {
                name: name.to_string(),
                value,
                unit,
            }
        })
        .collect())
}

/// Engine counter deltas and requests per operation of one fixed-length
/// run, as the determinism test compares them.
pub type Counts = (BTreeMap<&'static str, u64>, BTreeMap<String, u64>);
