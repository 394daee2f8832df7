//! The three workloads, their deployment, the verifying op loop and the
//! fresh-connection read-back.
//!
//! Every value written carries a `(key, version)` stamp in its first 16
//! bytes and a body derived from that stamp. The loop keeps the latest
//! version of every key and checks each read against it, so a lost,
//! stale or corrupted value counts as a failure.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use gengar_core::cluster::Cluster;
use gengar_core::config::{ClientConfig, Consistency};
use gengar_core::error::GengarError;
use gengar_core::{GengarClient, GlobalPtr};
use gengar_rdma::FabricConfig;
use gengar_telemetry::TelemetryConfig;
use gengar_workloads::zipf::{KeyChooser, ScrambledZipfian, Uniform};
use gengar_workloads::KvStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::conn::{Conn, Op};
use crate::spans;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 95 % get / 5 % put, scrambled zipf 0.99, over a store 2x the cache.
    KvReadZipf,
    /// 50 % get / 50 % put, uniform keys, replication on.
    KvUpdateUniform,
    /// Private 32-op batches with oversize objects, alternated with
    /// 8-op seqlock batches over shared objects.
    BatchMixed,
}

impl Kind {
    /// Every workload, in documentation order.
    pub const ALL: [Kind; 3] = [Kind::KvReadZipf, Kind::KvUpdateUniform, Kind::BatchMixed];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::KvReadZipf => "kv-read-zipf",
            Kind::KvUpdateUniform => "kv-update-uniform",
            Kind::BatchMixed => "batch-mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn is_kv(self) -> bool {
        self != Kind::BatchMixed
    }
}

/// Sizes and deployment shared by the workloads.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Memory servers.
    pub servers: usize,
    /// Fabric timing model.
    pub fabric: fn() -> FabricConfig,
    /// Device/fabric time scale (1.0 = modelled latencies, 0 = none).
    pub time_scale: f64,
    /// KV keys.
    pub kv_keys: u64,
    /// KV value bytes.
    pub value_size: usize,
    /// Private objects of `batch-mixed`.
    pub private_objects: u64,
    /// Every this-many-th private object is oversize.
    pub big_every: u64,
    /// Oversize object bytes (above the 64 KiB staging slot).
    pub big_size: usize,
    /// Other object bytes.
    pub small_size: usize,
    /// Shared seqlock objects of `batch-mixed`.
    pub shared_objects: u64,
    /// Ops per private batch.
    pub private_batch: usize,
    /// Ops per shared batch.
    pub shared_batch: usize,
    /// Shortest untimed op loop after set-up, so the cache's epochs settle.
    pub warmup: Duration,
    /// Warm-up slice after which the cache's resident set is checked.
    pub warmup_slice: Duration,
    /// Longest warm-up.
    pub warmup_max: Duration,
    /// A timed run keeps setting up, past its minimum count, until its
    /// set-ups have taken this long, so a fast set-up is sampled often
    /// enough for a steady median.
    pub setup_floor: Duration,
}

impl Plan {
    /// The benchmark's deployment: 2 servers on the 100 Gb/s InfiniBand
    /// model at time scale 1, a 64 MiB store (2x the total DRAM cache).
    pub fn standard() -> Plan {
        Plan {
            servers: 2,
            fabric: FabricConfig::infiniband_100g,
            time_scale: 1.0,
            kv_keys: 16_384,
            value_size: 4096,
            private_objects: 4096,
            big_every: 16,
            big_size: 128 << 10,
            small_size: 4096,
            shared_objects: 256,
            private_batch: 32,
            shared_batch: 8,
            warmup: Duration::from_millis(1500),
            warmup_slice: Duration::from_secs(1),
            warmup_max: Duration::from_secs(15),
            setup_floor: Duration::from_secs(3),
        }
    }

    /// A functional-test deployment: same shapes, few objects, no
    /// modelled latency.
    pub fn tiny() -> Plan {
        Plan {
            fabric: FabricConfig::instant,
            time_scale: 0.0,
            kv_keys: 512,
            private_objects: 128,
            shared_objects: 32,
            warmup: Duration::from_millis(50),
            warmup_slice: Duration::from_millis(50),
            warmup_max: Duration::from_millis(200),
            setup_floor: Duration::ZERO,
            ..Plan::standard()
        }
    }
}

/// Writes the stamped value of `(key, version)` into `buf`.
pub fn fill(buf: &mut [u8], key: u64, version: u64) {
    let base = mix(key ^ version.rotate_left(32));
    for (w, chunk) in buf.chunks_exact_mut(8).enumerate() {
        let word = match w {
            0 => key,
            1 => version,
            _ => base.wrapping_add((w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        };
        chunk.copy_from_slice(&word.to_le_bytes());
    }
}

/// Whether `buf` holds exactly the stamped value of `(key, version)`.
pub fn check(buf: &[u8], key: u64, version: u64) -> bool {
    let base = mix(key ^ version.rotate_left(32));
    buf.len().is_multiple_of(8)
        && buf.chunks_exact(8).enumerate().all(|(w, chunk)| {
            let want = match w {
                0 => key,
                1 => version,
                _ => base.wrapping_add((w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            };
            chunk == want.to_le_bytes()
        })
}

/// Describes a failed check: the stamp found against the one expected.
fn describe(buf: &[u8], key: u64, version: u64) -> String {
    let word = |w: usize| {
        buf.get(w * 8..w * 8 + 8)
            .map_or(0, |b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    };
    let (k, v) = (word(0), word(1));
    let body = if k == key && v == version {
        "stamp matches, body differs"
    } else if check(buf, k, v) {
        "intact value of another stamp"
    } else {
        "corrupt value"
    };
    format!("found (key {k:#x}, version {v}), want (key {key:#x}, version {version}): {body}")
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What one run of the op loop did.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// KV `get` latencies, ns.
    pub get_ns: Vec<u64>,
    /// KV `put` latencies, ns.
    pub put_ns: Vec<u64>,
    /// Private batch submit latencies, ns.
    pub batch_ns: Vec<u64>,
    /// Shared (seqlock) batch submit latencies, ns.
    pub shared_ns: Vec<u64>,
    /// Caller-visible ops completed (each batch element counts).
    pub ops: u64,
    /// Ops whose result was checked, read-back included.
    pub attempted: u64,
    /// Ops that returned an error.
    pub errors: u64,
    /// Reads that found nothing or the wrong bytes.
    pub mismatches: u64,
    /// What the first few failures were.
    pub failures: Vec<String>,
    /// Private submits holding an oversize element.
    pub fallback_submits: u64,
    /// Distinct servers summed over private submits.
    pub submit_servers: u64,
}

impl Tally {
    /// Errors plus verification mismatches.
    pub fn failed(&self) -> u64 {
        self.errors + self.mismatches
    }

    fn error(&mut self, what: impl FnOnce() -> String) {
        self.errors += 1;
        self.note(what);
    }

    fn mismatch(&mut self, what: impl FnOnce() -> String) {
        self.mismatches += 1;
        self.note(what);
    }

    fn note(&mut self, what: impl FnOnce() -> String) {
        if self.failures.len() < 8 {
            self.failures.push(what());
        }
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &Tally) {
        self.get_ns.extend_from_slice(&other.get_ns);
        self.put_ns.extend_from_slice(&other.put_ns);
        self.batch_ns.extend_from_slice(&other.batch_ns);
        self.shared_ns.extend_from_slice(&other.shared_ns);
        self.ops += other.ops;
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.mismatches += other.mismatches;
        self.failures.extend(
            other
                .failures
                .iter()
                .take(8 - self.failures.len().min(8))
                .cloned(),
        );
        self.fallback_submits += other.fallback_submits;
        self.submit_servers += other.submit_servers;
    }
}

enum Keys {
    Zipf(ScrambledZipfian),
    Uniform(Uniform),
}

impl Keys {
    fn next(&mut self, rng: &mut StdRng) -> usize {
        (match self {
            Keys::Zipf(z) => z.next_key(rng),
            Keys::Uniform(u) => u.next_key(rng),
        }) as usize
    }
}

struct KvModel {
    store: KvStore,
    keys: Vec<u64>,
    versions: Vec<u64>,
    chooser: Keys,
    get_share: f64,
    buf: Vec<u8>,
}

struct BatchModel {
    private: Vec<GlobalPtr>,
    private_ver: Vec<u64>,
    shared: Vec<GlobalPtr>,
    shared_ver: Vec<u64>,
    big_size: u64,
    private_batch: usize,
    shared_batch: usize,
    slots: Vec<Vec<u8>>,
    picks: Vec<(usize, bool)>,
}

enum Model {
    Kv(KvModel),
    Batch(BatchModel),
}

/// A workload's benchmark-side state: inputs drawn from the seed and the
/// latest version of every key.
pub struct Workload {
    rng: StdRng,
    model: Model,
}

/// A launched and populated deployment.
pub struct Deployment {
    /// Connection running the workload (the private one in `batch-mixed`).
    pub main: GengarClient,
    /// Seqlock connection of `batch-mixed`.
    pub shared: Option<GengarClient>,
    /// Benchmark-side state: the op stream and the latest versions.
    pub workload: Workload,
    /// Seconds to launch the cluster.
    pub launch_s: f64,
    /// Seconds to populate the store.
    pub populate_s: f64,
    /// User payload bytes stored.
    pub payload_bytes: u64,
    telemetry: TelemetryConfig,
    // Declared last so the clients above are dropped before their servers.
    /// The servers.
    pub cluster: Cluster,
}

fn client_config(telemetry: TelemetryConfig, consistency: Consistency) -> ClientConfig {
    ClientConfig {
        consistency,
        telemetry,
        ..ClientConfig::default()
    }
}

/// Launches the cluster for `kind` and populates it with version 1 of
/// every key. The seed fixes the op stream; key names are fixed.
///
/// # Errors
///
/// Launch, connection or populate failures.
pub fn deploy(
    kind: Kind,
    plan: &Plan,
    seed: u64,
    telemetry: bool,
) -> Result<Deployment, GengarError> {
    gengar_hybridmem::set_time_scale(plan.time_scale);
    gengar_bench::set_telemetry(telemetry);
    let tel = gengar_bench::telemetry_config();
    let mut config = gengar_bench::exp::base_config();
    config.replication.enabled = kind == Kind::KvUpdateUniform;
    let mut fabric = (plan.fabric)();
    fabric.telemetry = tel;

    let t0 = Instant::now();
    let cluster = Cluster::launch(plan.servers, config, fabric)?;
    let mut main = cluster.client(client_config(tel, Consistency::None))?;
    let mut shared = None;
    let launch_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let rng = StdRng::seed_from_u64(seed);
    let (model, payload_bytes) = if kind.is_kv() {
        let n = plan.kv_keys;
        let store = KvStore::create(&mut main, n, plan.value_size as u64)?;
        // Key names are fixed and the seed drives only the op stream: the
        // zipf ranking is fixed too, so every seed has the same hot keys at
        // the same index positions and runs stay comparable. The shift
        // keeps clear of the all-ones key the index cannot hold.
        let keys: Vec<u64> = (0..n).map(|i| mix(i) >> 1).collect();
        assert_eq!(
            keys.iter().collect::<HashSet<_>>().len(),
            keys.len(),
            "key names must be distinct"
        );
        let mut buf = vec![0u8; plan.value_size];
        for &key in &keys {
            fill(&mut buf, key, 1);
            store.put(&mut main, key, &buf)?;
        }
        let chooser = match kind {
            Kind::KvReadZipf => Keys::Zipf(ScrambledZipfian::new(n, 0.99)),
            _ => Keys::Uniform(Uniform::new(n)),
        };
        let model = KvModel {
            store,
            versions: vec![1; keys.len()],
            keys,
            chooser,
            get_share: if kind == Kind::KvReadZipf { 0.95 } else { 0.5 },
            buf,
        };
        (Model::Kv(model), n * plan.value_size as u64)
    } else {
        let mut seq = cluster.client(client_config(tel, Consistency::Seqlock))?;
        let servers = main.server_ids();
        let mut payload = 0;
        let mut private = Vec::new();
        for i in 0..plan.private_objects {
            let size = if i % plan.big_every == 0 {
                plan.big_size
            } else {
                plan.small_size
            };
            private.push(main.alloc(servers[i as usize % servers.len()], size as u64)?);
            payload += size as u64;
        }
        let mut shared_objs = Vec::new();
        for i in 0..plan.shared_objects {
            shared_objs
                .push(seq.alloc(servers[i as usize % servers.len()], plan.small_size as u64)?);
            payload += plan.small_size as u64;
        }
        populate(&mut main, &private, plan.private_batch, 0)?;
        populate(&mut seq, &shared_objs, plan.shared_batch, private.len())?;
        shared = Some(seq);
        let model = BatchModel {
            private_ver: vec![1; private.len()],
            private,
            shared_ver: vec![1; shared_objs.len()],
            shared: shared_objs,
            big_size: plan.big_size as u64,
            private_batch: plan.private_batch,
            shared_batch: plan.shared_batch,
            slots: vec![Vec::new(); plan.private_batch.max(plan.shared_batch)],
            picks: Vec::new(),
        };
        (Model::Batch(model), payload)
    };
    let populate_s = t1.elapsed().as_secs_f64();
    Ok(Deployment {
        main,
        shared,
        workload: Workload { rng, model },
        launch_s,
        populate_s,
        payload_bytes,
        telemetry: tel,
        cluster,
    })
}

/// Writes version 1 of every object, `chunk` objects per batch; object
/// `j` is stamped with key `id_base + j`.
fn populate(
    conn: &mut GengarClient,
    objs: &[GlobalPtr],
    chunk: usize,
    id_base: usize,
) -> Result<(), GengarError> {
    for (c, group) in objs.chunks(chunk).enumerate() {
        let bufs: Vec<Vec<u8>> = group
            .iter()
            .enumerate()
            .map(|(j, p)| {
                let mut b = vec![0u8; p.size as usize];
                fill(&mut b, (id_base + c * chunk + j) as u64, 1);
                b
            })
            .collect();
        let ops = group
            .iter()
            .zip(&bufs)
            .map(|(&ptr, data)| Op::Write { ptr, data })
            .collect();
        for r in conn.submit(ops)? {
            r?;
        }
    }
    Ok(())
}

impl Workload {
    /// One closed-loop step: a KV op, or one private plus one shared
    /// submit for `batch-mixed`.
    pub fn step<C: Conn>(&mut self, main: &mut C, shared: Option<&mut C>, tally: &mut Tally) {
        match &mut self.model {
            Model::Kv(m) => m.step(main, &mut self.rng, tally),
            Model::Batch(m) => {
                m.private_submit(main, &mut self.rng, tally);
                m.shared_submit(
                    shared.expect("batch-mixed has a shared connection"),
                    &mut self.rng,
                    tally,
                );
            }
        }
    }

    /// Runs [`Workload::step`] in a closed loop for `dur`; returns the
    /// measured wall time.
    pub fn run_for<C: Conn>(
        &mut self,
        main: &mut C,
        mut shared: Option<&mut C>,
        dur: Duration,
        tally: &mut Tally,
    ) -> Duration {
        let start = Instant::now();
        loop {
            self.step(main, shared.as_deref_mut(), tally);
            let elapsed = start.elapsed();
            if elapsed >= dur {
                return elapsed;
            }
        }
    }

    /// Reads every key back through `conn` and checks it against the
    /// latest version.
    pub fn read_back<C: Conn>(&self, conn: &mut C, tally: &mut Tally) {
        match &self.model {
            Model::Kv(m) => {
                let mut buf = vec![0u8; m.buf.len()];
                for (i, &key) in m.keys.iter().enumerate() {
                    tally.attempted += 1;
                    let ver = m.versions[i];
                    match m.store.get(conn, key, &mut buf) {
                        Ok(true) if check(&buf, key, ver) => {}
                        Ok(true) => tally
                            .mismatch(|| format!("read-back get: {}", describe(&buf, key, ver))),
                        Ok(false) => {
                            tally.mismatch(|| format!("read-back get: key {key:#x} not found"))
                        }
                        Err(e) => tally.error(|| format!("read-back get key {key:#x}: {e}")),
                    }
                }
            }
            Model::Batch(m) => {
                let private = m.private.iter().zip(&m.private_ver);
                let shared = m.shared.iter().zip(&m.shared_ver);
                // Shared objects are stamped with ids after the private ones.
                for (id, (ptr, &ver)) in private.chain(shared).enumerate() {
                    let mut buf = vec![0u8; ptr.size as usize];
                    tally.attempted += 1;
                    match conn.read(*ptr, 0, &mut buf) {
                        Ok(()) if check(&buf, id as u64, ver) => {}
                        Ok(()) => tally.mismatch(|| {
                            format!("read-back read: {}", describe(&buf, id as u64, ver))
                        }),
                        Err(e) => tally.error(|| format!("read-back read object {id}: {e}")),
                    }
                }
            }
        }
    }
}

impl KvModel {
    fn step<C: Conn>(&mut self, conn: &mut C, rng: &mut StdRng, tally: &mut Tally) {
        let i = self.chooser.next(rng);
        let key = self.keys[i];
        tally.attempted += 1;
        if rng.gen_bool(self.get_share) {
            let t = Instant::now();
            let r = {
                let _s = spans::span("kv.get");
                self.store.get(conn, key, &mut self.buf)
            };
            tally.get_ns.push(t.elapsed().as_nanos() as u64);
            let ver = self.versions[i];
            match r {
                Ok(true) if check(&self.buf, key, ver) => tally.ops += 1,
                Ok(true) => tally.mismatch(|| format!("get: {}", describe(&self.buf, key, ver))),
                Ok(false) => tally.mismatch(|| format!("get: key {key:#x} not found")),
                Err(e) => tally.error(|| format!("get key {key:#x}: {e}")),
            }
        } else {
            let version = self.versions[i] + 1;
            fill(&mut self.buf, key, version);
            let t = Instant::now();
            let r = {
                let _s = spans::span("kv.put");
                self.store.put(conn, key, &self.buf)
            };
            tally.put_ns.push(t.elapsed().as_nanos() as u64);
            // A failed put may or may not have landed; the model moves on
            // and the error alone already fails the run.
            self.versions[i] = version;
            match r {
                Ok(()) => tally.ops += 1,
                Err(e) => tally.error(|| format!("put key {key:#x}: {e}")),
            }
        }
    }
}

/// Draws `n` distinct indices below `len`, each a read with probability
/// `read_share`.
fn pick(picks: &mut Vec<(usize, bool)>, rng: &mut StdRng, len: usize, n: usize, read_share: f64) {
    picks.clear();
    while picks.len() < n {
        let i = rng.gen_range(0..len);
        if picks.iter().all(|&(j, _)| j != i) {
            picks.push((i, rng.gen_bool(read_share)));
        }
    }
}

impl BatchModel {
    fn private_submit<C: Conn>(&mut self, conn: &mut C, rng: &mut StdRng, tally: &mut Tally) {
        pick(
            &mut self.picks,
            rng,
            self.private.len(),
            self.private_batch,
            0.75,
        );
        let fallback = self
            .picks
            .iter()
            .any(|&(i, _)| self.private[i].size == self.big_size);
        let servers: HashSet<u8> = self
            .picks
            .iter()
            .map(|&(i, _)| self.private[i].addr.server())
            .collect();
        tally.fallback_submits += u64::from(fallback);
        tally.submit_servers += servers.len() as u64;
        let ns = submit(
            conn,
            &self.private,
            &mut self.private_ver,
            &self.picks,
            &mut self.slots,
            0,
            tally,
            if fallback { "fallback" } else { "pipelined" },
            "batch.submit",
        );
        tally.batch_ns.push(ns);
    }

    fn shared_submit<C: Conn>(&mut self, conn: &mut C, rng: &mut StdRng, tally: &mut Tally) {
        pick(
            &mut self.picks,
            rng,
            self.shared.len(),
            self.shared_batch,
            0.5,
        );
        let ns = submit(
            conn,
            &self.shared,
            &mut self.shared_ver,
            &self.picks,
            &mut self.slots,
            self.private.len(),
            tally,
            "",
            "shared.submit",
        );
        tally.shared_ns.push(ns);
    }
}

/// Submits one batch over `objs[picks]`, writes bumping the version, then
/// checks every read. Stamps use `id_base + index` as the key. Returns the
/// submit latency in ns.
#[allow(clippy::too_many_arguments)]
fn submit<C: Conn>(
    conn: &mut C,
    objs: &[GlobalPtr],
    versions: &mut [u64],
    picks: &[(usize, bool)],
    slots: &mut [Vec<u8>],
    id_base: usize,
    tally: &mut Tally,
    tag: &'static str,
    span: &'static str,
) -> u64 {
    for (slot, &(i, read)) in slots.iter_mut().zip(picks) {
        slot.resize(objs[i].size as usize, 0);
        if !read {
            versions[i] += 1;
            fill(slot, (id_base + i) as u64, versions[i]);
        }
    }
    let t = Instant::now();
    let result = {
        let s = spans::span(span);
        if !tag.is_empty() {
            s.tag(tag);
        }
        let ops = slots
            .iter_mut()
            .zip(picks)
            .map(|(slot, &(i, read))| {
                if read {
                    Op::Read {
                        ptr: objs[i],
                        buf: slot,
                    }
                } else {
                    Op::Write {
                        ptr: objs[i],
                        data: slot,
                    }
                }
            })
            .collect();
        conn.submit(ops)
    };
    let ns = t.elapsed().as_nanos() as u64;
    tally.attempted += picks.len() as u64;
    match result {
        Err(e) => {
            tally.errors += picks.len() as u64 - 1;
            tally.error(|| format!("{span}: {e}"));
        }
        Ok(res) => {
            for ((r, slot), &(i, read)) in res.iter().zip(slots.iter()).zip(picks) {
                let id = (id_base + i) as u64;
                match r {
                    Err(e) => tally.error(|| format!("{span} object {id}: {e}")),
                    Ok(()) if read && !check(slot, id, versions[i]) => tally
                        .mismatch(|| format!("{span} read: {}", describe(slot, id, versions[i]))),
                    Ok(()) => tally.ops += 1,
                }
            }
        }
    }
    ns
}

impl Deployment {
    /// Reads every key back through a fresh connection.
    ///
    /// # Errors
    ///
    /// Connection failures (read failures are tallied instead).
    pub fn read_back(&self, tally: &mut Tally) -> Result<(), GengarError> {
        let mut fresh = self
            .cluster
            .client(client_config(self.telemetry, Consistency::None))?;
        self.workload.read_back(&mut fresh, tally);
        Ok(())
    }
}
