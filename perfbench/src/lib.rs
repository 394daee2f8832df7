//! Closed-loop end-to-end benchmark of the Gengar pool.
//!
//! One process launches a Gengar cluster, populates it, warms it up and
//! then drives one workload from one thread, one caller that waits for
//! each reply, verifying every value it reads. A timed run reports the
//! end-to-end metrics with telemetry and tracing off; a traced run adds a
//! second, traced phase on a fresh cluster and reports the per-layer
//! breakdown, the registry snapshot and the tracing overhead. See
//! `perfbench/README.md` for the workloads and metric definitions.

pub mod conn;
pub mod report;
pub mod spans;
pub mod workload;

use std::collections::BTreeMap;
use std::time::Duration;

use gengar_core::alloc::AllocStats;
use gengar_core::error::GengarError;
use gengar_core::{CacheStats, ClientStats};
use gengar_telemetry::{Registry, RegistrySnapshot};

use conn::{Conn, Traced};
use report::{Latency, Metrics};
use spans::Agg;
use workload::{deploy, Deployment, Kind, Plan, Tally};

/// A call that failed outside the verified op loop, with the phase it
/// failed in.
#[derive(Debug)]
pub struct RunError {
    /// `set-up`, `barrier` or `read-back`.
    pub phase: &'static str,
    /// The client's error.
    pub error: GengarError,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} failed: {}", self.phase, self.error)
    }
}

fn during<T>(phase: &'static str, r: Result<T, GengarError>) -> Result<T, RunError> {
    r.map_err(|error| RunError { phase, error })
}

/// Fewest set-ups per timed run; `setup_s` is their median. More follow
/// until `Plan::setup_floor` has passed, up to `SETUPS_MAX`.
pub const SETUPS: usize = 5;

/// Most set-ups per timed run.
pub const SETUPS_MAX: usize = 25;

/// The end-to-end metrics every workload reports in its result line, in
/// `BENCHMARK.json` order. `p50_us`/`p95_us` are the workload's primary
/// call: `get` on `kv-read-zipf`, `put` on `kv-update-uniform`, the
/// private submit on `batch-mixed`. The tail gated here is p95, not p99:
/// on a host with few cores the slowest 1 % or so of calls are the ones
/// the scheduler preempted, so a p99 sits on that cliff and jumps between
/// runs. The per-call p99s are still printed.
pub const END_TO_END: [&str; 4] = ["setup_s", "ops_per_s", "p50_us", "p95_us"];

/// Per-layer metrics of the result line under `--trace 1`, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: &[&str] = &[
    "kv.get_us",
    "kv.get_self_us",
    "kv.put_us",
    "kv.put_self_us",
    "kv.pool_reads_per_get",
    "kv.pool_ops_per_put",
    "client.read_us.cache",
    "client.read_us.nvm",
    "client.read_us.writeback",
    "client.read_us.index",
    "client.write_us.staged",
    "client.write_us.direct",
    "client.cache_hit_ratio",
    "client.value_hit_ratio",
    "client.index_hit_ratio",
    "client.cache_reject_ratio",
    "client.staged_ratio",
    "client.reports_per_kop",
    "client.retries",
    "client.reconnects",
    "client.lock_retries",
    "client.read_retries",
    "client.degraded_ops",
    "batch.submit_us.pipelined",
    "batch.submit_us.fallback",
    "batch.servers_per_submit",
    "batch.fallback_share",
    "shared.submit_us",
    "shared.lock_retries",
    "shared.read_retries",
    "cache.promotions",
    "cache.evictions",
    "cache.invalidations",
    "cache.updates",
    "cache.admitted",
    "cache.rejected",
    "cache.ghost_hits",
    "cache.admit_ratio",
    "cache.resident_objects",
    "hotness.epochs",
    "proxy.barrier_ms",
    "proxy.stage_ns",
    "proxy.drain_ns",
    "proxy.ring_full_waits",
    "proxy.staged_records",
    "proxy.drained_records",
    "replica.mirror_lag",
    "replica.mirror_losses",
    "rdma.read_ops_per_kop",
    "rdma.doorbells_per_kop",
    "rdma.doorbells_saved_per_kop",
    "rdma.batch_size",
    "server.rpc_requests_per_kop",
    "hotness.reports_per_kop",
    "alloc.space_amp",
    "alloc.allocs",
    "setup.launch_s",
    "setup.populate_s",
    "setup.warmup_s",
    "trace.overhead.ops_per_s",
    "trace.overhead.p50_us",
    "fail_ratio",
];

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric computed, in print order.
    pub metrics: Metrics,
    /// Ops whose result was checked (warm-up, measured and read-back).
    pub attempted: u64,
    /// Errors plus mismatches over the same ops.
    pub failed: u64,
    /// Per-layer self-time table of the traced phase (traced runs only).
    pub self_time: String,
    /// Registry snapshot of the traced phase (traced runs only).
    pub registry: Option<RegistrySnapshot>,
    /// Spans of the traced phase, tab-separated (traced runs only).
    pub spans_tsv: String,
    /// The first few failures, described.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Whether every checked op succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn absorb(&mut self, t: &Tally) {
        self.attempted += t.attempted;
        self.failed += t.failed();
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures.extend(t.failures.iter().take(room).cloned());
    }
}

/// Counters read before and after the measured phase.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    main: ClientStats,
    shared: ClientStats,
    cache: CacheStats,
    alloc: AllocStats,
    epochs: u64,
    resident: u64,
}

fn counters(dep: &Deployment) -> Counters {
    let mut c = Counters {
        main: dep.main.stats(),
        shared: dep.shared.as_ref().map(|s| s.stats()).unwrap_or_default(),
        ..Counters::default()
    };
    for s in dep.cluster.servers() {
        let cs = s.cache_stats();
        c.cache.promotions += cs.promotions;
        c.cache.evictions += cs.evictions;
        c.cache.invalidations += cs.invalidations;
        c.cache.updates += cs.updates;
        c.cache.admitted += cs.admitted;
        c.cache.rejected += cs.rejected;
        c.cache.ghost_hits += cs.ghost_hits;
        let a = s.alloc_stats();
        c.alloc.live_bytes += a.live_bytes;
        c.alloc.allocs += a.allocs;
        c.epochs = c.epochs.max(s.epochs());
        c.resident += s.cached_objects() as u64;
    }
    c
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Runs the op loop untimed until the DRAM cache's resident set has
/// settled: `plan.warmup` first, then one-second slices until a slice
/// grows the resident count by less than 1 %, for at most
/// `plan.warmup_max`. Uniform traffic fills the cache slowly, and latency
/// climbs while it fills. Returns the seconds spent.
fn warm_up(dep: &mut Deployment, plan: &Plan, tally: &mut Tally) -> f64 {
    let resident = |dep: &Deployment| -> usize {
        dep.cluster
            .servers()
            .iter()
            .map(|s| s.cached_objects())
            .sum()
    };
    let start = std::time::Instant::now();
    dep.workload
        .run_for(&mut dep.main, dep.shared.as_mut(), plan.warmup, tally);
    let mut before = resident(dep);
    while start.elapsed() < plan.warmup_max {
        dep.workload
            .run_for(&mut dep.main, dep.shared.as_mut(), plan.warmup_slice, tally);
        let now = resident(dep);
        if now <= before + before / 100 {
            break;
        }
        before = now;
    }
    start.elapsed().as_secs_f64()
}

/// Calls `barrier()` on every workload connection; returns seconds taken.
fn barrier<C: Conn>(main: &mut C, shared: Option<&mut C>) -> Result<f64, GengarError> {
    let t = std::time::Instant::now();
    main.barrier()?;
    if let Some(s) = shared {
        s.barrier()?;
    }
    Ok(t.elapsed().as_secs_f64())
}

/// What the host took from this process: CPU time the hypervisor stole
/// from the whole VM, and time the calling thread sat runnable but not
/// running. Read from `/proc`, so only on Linux.
#[derive(Debug, Clone, Copy)]
struct HostClock {
    steal_ticks: u64,
    cpu_ticks: u64,
    caller_wait_ns: u64,
    at: std::time::Instant,
}

fn host_clock() -> Option<HostClock> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    // user nice system idle iowait irq softirq steal
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    let sched = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    Some(HostClock {
        steal_ticks: *ticks.get(7)?,
        cpu_ticks: ticks.iter().sum(),
        caller_wait_ns: sched.split_whitespace().nth(1)?.parse().ok()?,
        at: std::time::Instant::now(),
    })
}

/// Prints how much of the measured phase the host took away, so a run
/// that was slowed by other work on the host can be told apart.
fn host_layers(h0: Option<HostClock>, h1: Option<HostClock>, m: &mut Metrics) {
    let (Some(a), Some(b)) = (h0, h1) else {
        return;
    };
    m.ratio(
        "host.steal_share",
        sub(b.steal_ticks, a.steal_ticks),
        sub(b.cpu_ticks, a.cpu_ticks),
        "ratio",
        "stolen / all CPU ticks of the VM, measured phase",
    );
    m.ratio(
        "host.caller_wait_share",
        sub(b.caller_wait_ns, a.caller_wait_ns),
        b.at.duration_since(a.at).as_nanos() as f64,
        "ratio",
        "ns the caller waited to run / ns, measured phase",
    );
}

/// Slices a timed run's measured phase is cut into. Rates and percentiles
/// are the median over the slices, so one slice disturbed by another
/// process on the host does not move the result.
pub const WINDOWS: u32 = 10;

/// One measured slice: what the loop did and how long it ran.
pub type Window = (Tally, Duration);

fn median_of(windows: &[Window], f: impl Fn(&Window) -> f64) -> f64 {
    let mut v: Vec<f64> = windows.iter().map(f).collect();
    median(&mut v)
}

/// The end-to-end metrics of one measured phase, each the median over
/// `windows`; the base names the whole phase's sample.
fn end_to_end(kind: Kind, windows: &[Window], m: &mut Metrics) {
    let ops: u64 = windows.iter().map(|(t, _)| t.ops).sum();
    let secs: f64 = windows.iter().map(|(_, d)| d.as_secs_f64()).sum();
    let mut rates: Vec<f64> = windows
        .iter()
        .map(|(t, d)| t.ops as f64 / d.as_secs_f64())
        .collect();
    let rate = median(&mut rates);
    let (lo, hi) = (rates[0], rates[rates.len() - 1]);
    m.push(
        "ops_per_s",
        rate,
        "1/s",
        format!(
            "median of {} slices, {lo:.0}..{hi:.0}; {ops} ops in {secs:.3} s",
            windows.len()
        ),
    );
    let mut lat = |name: &'static str, pick: fn(&Tally) -> &[u64]| {
        let all = Latency::new(
            windows
                .iter()
                .flat_map(|(t, _)| pick(t).iter().copied())
                .collect(),
        );
        let base = format!("median of {} slices; {}", windows.len(), all.base());
        for p in [50.0, 95.0, 99.0] {
            let v = median_of(windows, |(t, _)| Latency::new(pick(t).to_vec()).pct_us(p));
            m.push(&format!("{name}_p{p}_us"), v, "us", base.clone());
        }
        name
    };
    let primary = match kind {
        Kind::KvReadZipf => lat("read", |t| &t.get_ns),
        Kind::KvUpdateUniform => {
            lat("read", |t| &t.get_ns);
            lat("write", |t| &t.put_ns)
        }
        Kind::BatchMixed => {
            let l = lat("batch", |t| &t.batch_ns);
            lat("shared", |t| &t.shared_ns);
            l
        }
    };
    for p in ["p50", "p95"] {
        let src = m
            .get(&format!("{primary}_{p}_us"))
            .expect("recorded")
            .clone();
        m.push(
            &format!("{p}_us"),
            src.value,
            "us",
            format!("= {primary}_{p}_us"),
        );
    }
}

fn sub(a: u64, b: u64) -> f64 {
    a.saturating_sub(b) as f64
}

/// Per-layer metrics the cheap counters give, across the measured phase.
fn counter_layers(c0: &Counters, c1: &Counters, ops: u64, payload: u64, m: &mut Metrics) {
    let (a, b) = (&c0.main, &c1.main);
    let reads = sub(b.reads, a.reads);
    let writes = sub(b.writes, a.writes);
    for (name, num, den, base) in [
        (
            "client.cache_hit_ratio",
            sub(b.cache_hits, a.cache_hits),
            reads,
            "cache hits / reads",
        ),
        (
            "client.cache_reject_ratio",
            sub(b.cache_rejects, a.cache_rejects),
            reads,
            "rejects / reads",
        ),
        (
            "client.staged_ratio",
            sub(b.staged_writes, a.staged_writes),
            writes,
            "staged / writes",
        ),
    ] {
        m.ratio(name, num, den, "ratio", base);
    }
    m.ratio(
        "client.reports_per_kop",
        1e3 * sub(b.reports, a.reports),
        ops as f64,
        "1/kop",
        "reports*1000 / ops",
    );
    let (x, y) = (&c0.cache, &c1.cache);
    for (name, delta, base) in [
        (
            "client.retries",
            sub(b.retries, a.retries),
            "measured phase",
        ),
        (
            "client.reconnects",
            sub(b.reconnects, a.reconnects),
            "measured phase",
        ),
        (
            "client.lock_retries",
            sub(b.lock_retries, a.lock_retries),
            "measured phase",
        ),
        (
            "client.read_retries",
            sub(b.read_retries, a.read_retries),
            "measured phase",
        ),
        (
            "client.degraded_ops",
            sub(b.degraded_ops, a.degraded_ops),
            "measured phase",
        ),
        (
            "shared.lock_retries",
            sub(c1.shared.lock_retries, c0.shared.lock_retries),
            "seqlock connection",
        ),
        (
            "shared.read_retries",
            sub(c1.shared.read_retries, c0.shared.read_retries),
            "seqlock connection",
        ),
        (
            "cache.promotions",
            sub(y.promotions, x.promotions),
            "both servers",
        ),
        (
            "cache.evictions",
            sub(y.evictions, x.evictions),
            "both servers",
        ),
        (
            "cache.invalidations",
            sub(y.invalidations, x.invalidations),
            "both servers",
        ),
        ("cache.updates", sub(y.updates, x.updates), "both servers"),
        (
            "cache.admitted",
            sub(y.admitted, x.admitted),
            "both servers",
        ),
        (
            "cache.rejected",
            sub(y.rejected, x.rejected),
            "both servers",
        ),
        (
            "cache.ghost_hits",
            sub(y.ghost_hits, x.ghost_hits),
            "both servers",
        ),
    ] {
        m.push(name, delta, "count", base);
    }
    let admitted = sub(y.admitted, x.admitted);
    m.ratio(
        "cache.admit_ratio",
        admitted,
        admitted + sub(y.rejected, x.rejected),
        "ratio",
        "admitted / candidates",
    );
    m.push(
        "cache.resident_objects",
        c1.resident as f64,
        "count",
        "after the measured phase",
    );
    m.push(
        "hotness.epochs",
        sub(c1.epochs, c0.epochs),
        "count",
        "measured phase",
    );
    m.ratio(
        "alloc.space_amp",
        c1.alloc.live_bytes as f64,
        payload as f64,
        "ratio",
        "live bytes / payload bytes",
    );
    m.push(
        "alloc.allocs",
        c1.alloc.allocs as f64,
        "count",
        "since launch",
    );
}

fn batch_layers(tally: &Tally, m: &mut Metrics) {
    let submits = tally.batch_ns.len() as f64;
    m.ratio(
        "batch.servers_per_submit",
        tally.submit_servers as f64,
        submits,
        "count",
        "servers / private submits",
    );
    m.ratio(
        "batch.fallback_share",
        tally.fallback_submits as f64,
        submits,
        "ratio",
        "oversize submits / submits",
    );
}

/// A timed run: `setups` set-ups or more (see `Plan::setup_floor`), a
/// warm-up, `seconds` measured with telemetry and tracing off, then a
/// barrier and a fresh-connection read-back.
///
/// # Errors
///
/// Launch, populate, barrier or connection failures.
pub fn run_timed(
    kind: Kind,
    plan: &Plan,
    seed: u64,
    seconds: Duration,
    setups: usize,
) -> Result<Outcome, RunError> {
    let (mut setup, mut launch, mut populate) = (Vec::new(), Vec::new(), Vec::new());
    let mut dep = None;
    let start = std::time::Instant::now();
    while setup.len() < setups.max(1)
        || (start.elapsed() < plan.setup_floor && setup.len() < SETUPS_MAX)
    {
        drop(dep.take());
        let d = during("set-up", deploy(kind, plan, seed, false))?;
        setup.push(d.launch_s + d.populate_s);
        launch.push(d.launch_s);
        populate.push(d.populate_s);
        dep = Some(d);
    }
    let mut dep = dep.expect("at least one set-up");
    let mut out = Outcome::default();
    let mut warm = Tally::default();
    let warm_s = warm_up(&mut dep, plan, &mut warm);
    out.absorb(&warm);

    let c0 = counters(&dep);
    let h0 = host_clock();
    let windows: Vec<Window> = (0..WINDOWS)
        .map(|_| {
            let mut t = Tally::default();
            let d = dep.workload.run_for(
                &mut dep.main,
                dep.shared.as_mut(),
                seconds / WINDOWS,
                &mut t,
            );
            (t, d)
        })
        .collect();
    let h1 = host_clock();
    let c1 = counters(&dep);
    let mut tally = Tally::default();
    for (t, _) in &windows {
        tally.merge(t);
    }
    out.absorb(&tally);
    let barrier_s = during("barrier", barrier(&mut dep.main, dep.shared.as_mut()))?;
    let mut rb = Tally::default();
    during("read-back", dep.read_back(&mut rb))?;
    out.absorb(&rb);

    let (failed, attempted) = (out.failed as f64, out.attempted as f64);
    let m = &mut out.metrics;
    m.push(
        "setup_s",
        median(&mut setup),
        "s",
        format!("median of {} launch+populate", setup.len()),
    );
    end_to_end(kind, &windows, m);
    m.ratio(
        "fail_ratio",
        failed,
        attempted,
        "ratio",
        "(errors + mismatches) / ops checked",
    );
    m.ratio(
        "space_amp",
        c1.alloc.live_bytes as f64,
        dep.payload_bytes as f64,
        "ratio",
        "live bytes / payload bytes",
    );
    m.push("setup.launch_s", median(&mut launch), "s", "median");
    m.push("setup.populate_s", median(&mut populate), "s", "median");
    m.push(
        "setup.warmup_s",
        warm_s,
        "s",
        "untimed, until the cache's resident set settled",
    );
    m.push(
        "proxy.barrier_ms",
        barrier_s * 1e3,
        "ms",
        "one barrier after the measured phase",
    );
    counter_layers(&c0, &c1, tally.ops, dep.payload_bytes, m);
    if kind == Kind::BatchMixed {
        batch_layers(&tally, m);
    }
    host_layers(h0, h1, m);
    Ok(out)
}

fn agg(a: &BTreeMap<String, Agg>, key: &str) -> Agg {
    a.get(key).copied().unwrap_or_default()
}

/// A traced run: an untraced phase and a traced phase of `seconds / 2`
/// each, on fresh clusters. End-to-end numbers of both phases give the
/// tracing overhead; the traced phase gives the per-layer metrics.
///
/// # Errors
///
/// Launch, populate, barrier or connection failures.
pub fn run_traced(
    kind: Kind,
    plan: &Plan,
    seed: u64,
    seconds: Duration,
) -> Result<Outcome, RunError> {
    let half = seconds / 2;
    let mut out = Outcome::default();

    // Untraced phase: the reference for the tracing overhead.
    let (untraced, untraced_elapsed) = {
        let mut dep = during("set-up", deploy(kind, plan, seed, false))?;
        let mut warm = Tally::default();
        warm_up(&mut dep, plan, &mut warm);
        let mut tally = Tally::default();
        let elapsed = dep
            .workload
            .run_for(&mut dep.main, dep.shared.as_mut(), half, &mut tally);
        during("barrier", barrier(&mut dep.main, dep.shared.as_mut()))?;
        let mut rb = Tally::default();
        during("read-back", dep.read_back(&mut rb))?;
        out.absorb(&warm);
        out.absorb(&tally);
        out.absorb(&rb);
        (tally, elapsed)
    };

    // Traced phase: telemetry on, spans around every op and client call.
    let mut dep = during("set-up", deploy(kind, plan, seed, true))?;
    let mut warm = Tally::default();
    let warm_s = warm_up(&mut dep, plan, &mut warm);
    out.absorb(&warm);
    let registry = Registry::global();
    let lag = registry.gauge("replica", "mirror_lag");
    registry.reset();
    let c0 = counters(&dep);
    let mut tally = Tally::default();
    let mut max_lag = 0i64;
    spans::enable();
    let (elapsed, barrier_s) = {
        let mut main = Traced(&mut dep.main);
        let mut shared = dep.shared.as_mut().map(Traced);
        let mut elapsed = Duration::ZERO;
        // Short slices so the mirror-lag gauge can be sampled for its max.
        while elapsed < half {
            let slice = (half - elapsed).min(Duration::from_millis(20));
            elapsed += dep
                .workload
                .run_for(&mut main, shared.as_mut(), slice, &mut tally);
            max_lag = max_lag.max(lag.get());
        }
        (
            elapsed,
            during("barrier", barrier(&mut main, shared.as_mut()))?,
        )
    };
    let spans = spans::take();
    let c1 = counters(&dep);
    let snap = registry.snapshot();
    out.absorb(&tally);
    let mut rb = Tally::default();
    during("read-back", dep.read_back(&mut rb))?;
    out.absorb(&rb);

    let a = spans::aggregate(&spans);
    let m = &mut out.metrics;
    let ops = tally.ops as f64;
    let kops = ops / 1e3;

    // Tracing overhead: traced phase against the untraced one.
    let mut reference = Metrics::default();
    end_to_end(kind, &[(untraced, untraced_elapsed)], &mut reference);
    let mut traced = Metrics::default();
    end_to_end(kind, &[(tally.clone(), elapsed)], &mut traced);
    for name in ["ops_per_s", "p50_us"] {
        let (u, t) = (
            reference.get(name).expect("recorded"),
            traced.get(name).expect("recorded"),
        );
        m.ratio(
            &format!("trace.overhead.{name}"),
            t.value - u.value,
            u.value,
            "ratio",
            &format!("(traced - untraced) / untraced; untraced {:.3}", u.value),
        );
    }

    let get = agg(&a, "kv.get");
    let put = agg(&a, "kv.put");
    m.push(
        "kv.get_us",
        get.mean_us(),
        "us",
        format!("{} kv.get spans", get.count),
    );
    m.push(
        "kv.get_self_us",
        get.self_us(),
        "us",
        "kv.get minus child pool calls",
    );
    m.push(
        "kv.put_us",
        put.mean_us(),
        "us",
        format!("{} kv.put spans", put.count),
    );
    m.push(
        "kv.put_self_us",
        put.self_us(),
        "us",
        "kv.put minus child pool calls",
    );
    m.ratio(
        "kv.pool_reads_per_get",
        get.children as f64,
        get.count as f64,
        "count",
        "pool calls / kv.get",
    );
    m.ratio(
        "kv.pool_ops_per_put",
        put.children as f64,
        put.count as f64,
        "count",
        "pool calls / kv.put",
    );

    for src in ["cache", "nvm", "writeback"] {
        let s = agg(&a, &format!("pool.read.{src}"));
        m.push(
            &format!("client.read_us.{src}"),
            s.mean_us(),
            "us",
            format!("{} value reads", s.count),
        );
    }
    let index = agg(&a, "pool.read.index.nvm").count
        + agg(&a, "pool.read.index.cache").count
        + agg(&a, "pool.read.index.writeback").count;
    let index_ns = agg(&a, "pool.read.index.nvm").total_ns
        + agg(&a, "pool.read.index.cache").total_ns
        + agg(&a, "pool.read.index.writeback").total_ns;
    m.ratio(
        "client.read_us.index",
        index_ns as f64 / 1e3,
        index as f64,
        "us",
        "us / 16 B index reads",
    );
    for path in ["staged", "direct"] {
        let s = agg(&a, &format!("pool.write.{path}"));
        m.push(
            &format!("client.write_us.{path}"),
            s.mean_us(),
            "us",
            format!("{} writes", s.count),
        );
    }
    let value_reads = agg(&a, "pool.read").count - index;
    m.ratio(
        "client.value_hit_ratio",
        agg(&a, "pool.read.cache").count as f64,
        value_reads as f64,
        "ratio",
        "cache-served value reads / value reads",
    );
    m.ratio(
        "client.index_hit_ratio",
        agg(&a, "pool.read.index.cache").count as f64,
        index as f64,
        "ratio",
        "cache-served index reads / index reads",
    );

    for tag in ["pipelined", "fallback"] {
        let s = agg(&a, &format!("batch.submit.{tag}"));
        m.push(
            &format!("batch.submit_us.{tag}"),
            s.mean_us(),
            "us",
            format!("{} submits", s.count),
        );
    }
    batch_layers(&tally, m);
    let shared = agg(&a, "shared.submit");
    m.push(
        "shared.submit_us",
        shared.mean_us(),
        "us",
        format!("{} submits", shared.count),
    );

    counter_layers(&c0, &c1, tally.ops, dep.payload_bytes, m);
    let hist_mean = |key: &str| snap.histogram(key).map_or(0.0, |h| h.mean_ns() as f64);
    let count = |key: &str| snap.counter(key).unwrap_or(0) as f64;
    m.push(
        "proxy.barrier_ms",
        barrier_s * 1e3,
        "ms",
        "one barrier after the measured phase",
    );
    m.push(
        "proxy.stage_ns",
        hist_mean("proxy.stage_ns"),
        "ns",
        "registry mean",
    );
    m.push(
        "proxy.drain_ns",
        hist_mean("proxy.drain_ns"),
        "ns",
        "registry mean",
    );
    for key in [
        "proxy.ring_full_waits",
        "proxy.staged_records",
        "proxy.drained_records",
    ] {
        m.push(key, count(key), "count", "registry");
    }
    m.push(
        "replica.mirror_lag",
        max_lag as f64,
        "records",
        "max sampled every 20 ms",
    );
    m.push(
        "replica.mirror_losses",
        count("replica.mirror_losses"),
        "count",
        "registry",
    );
    for (name, key) in [
        ("rdma.read_ops_per_kop", "rdma.read_ops"),
        ("rdma.doorbells_per_kop", "rdma.doorbells"),
        ("rdma.doorbells_saved_per_kop", "rdma.doorbells_saved"),
        ("server.rpc_requests_per_kop", "server.rpc_requests"),
        ("hotness.reports_per_kop", "hotness.reports"),
    ] {
        m.ratio(name, count(key), kops, "1/kop", &format!("{key} / kops"));
    }
    m.ratio(
        "rdma.batch_size",
        count("rdma.batched_ops"),
        count("rdma.doorbells"),
        "WRs",
        "rdma.batched_ops / rdma.doorbells",
    );
    m.push("setup.launch_s", dep.launch_s, "s", "traced phase");
    m.push("setup.populate_s", dep.populate_s, "s", "traced phase");
    m.push(
        "setup.warmup_s",
        warm_s,
        "s",
        "traced phase, untimed, until the cache's resident set settled",
    );
    m.ratio(
        "fail_ratio",
        out.failed as f64,
        out.attempted as f64,
        "ratio",
        "(errors + mismatches) / ops checked",
    );

    out.self_time = self_time_table(&a);
    out.registry = Some(snap);
    out.spans_tsv = spans::to_tsv(&spans);
    Ok(out)
}

/// Self time per layer: the benchmark's op spans (the KV store's logic or
/// batch building) and the client calls under them.
fn self_time_table(a: &BTreeMap<String, Agg>) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<28} {:>9} {:>11} {:>11} {:>11} {:>9}",
        "span", "count", "total_ms", "self_ms", "mean_us", "self_%"
    );
    for (key, g) in a {
        let _ = writeln!(
            s,
            "{:<28} {:>9} {:>11.2} {:>11.2} {:>11.3} {:>8.1}%",
            key,
            g.count,
            g.total_ns as f64 / 1e6,
            g.self_ns as f64 / 1e6,
            g.mean_us(),
            100.0 * g.self_ns as f64 / g.total_ns.max(1) as f64
        );
    }
    // Roll-up by layer: the benchmark's op spans are the layer above the
    // client (the KV store's logic, or building a batch); every `pool.*`
    // span is time inside the client.
    let _ = writeln!(s, "{:<28} {:>11} {:>8}", "layer", "self_ms", "share");
    let root_ns: u64 = ["kv.get", "kv.put", "batch.submit", "shared.submit"]
        .iter()
        .map(|op| agg(a, op).total_ns)
        .sum();
    for (layer, spans) in [
        ("workloads.kv", &["kv.get", "kv.put"][..]),
        ("batch", &["batch.submit"][..]),
        ("consistency", &["shared.submit"][..]),
        (
            "client",
            &[
                "pool.read",
                "pool.write",
                "pool.cas",
                "pool.alloc",
                "pool.submit",
            ][..],
        ),
    ] {
        let self_ns: u64 = spans.iter().map(|k| agg(a, k).self_ns).sum();
        if self_ns > 0 {
            let _ = writeln!(
                s,
                "{layer:<28} {:>11.2} {:>7.1}%",
                self_ns as f64 / 1e6,
                100.0 * self_ns as f64 / root_ns.max(1) as f64
            );
        }
    }
    for op in ["kv.get", "kv.put", "batch.submit", "shared.submit"] {
        let g = agg(a, op);
        if g.count > 0 {
            let _ = writeln!(
                s,
                "{op}: self {:.3} us + children {:.3} us = {:.3} us per op ({:.2}% accounted)",
                g.self_ns as f64 / g.count as f64 / 1e3,
                g.child_ns as f64 / g.count as f64 / 1e3,
                g.mean_us(),
                100.0 * (g.self_ns + g.child_ns) as f64 / g.total_ns.max(1) as f64
            );
        }
    }
    s
}
