//! The benchmark's own tests: every workload runs clean on a zero-latency
//! deployment, and the verification catches a single flipped byte.

use std::sync::Mutex;
use std::time::Duration;

use gengar_core::error::GengarError;
use gengar_core::{ClientStats, DshmPool, GengarClient, GlobalPtr};
use gengar_perfbench::conn::{Conn, Op};
use gengar_perfbench::workload::{deploy, Kind, Plan, Tally};
use gengar_perfbench::{run_timed, run_traced};

/// Deployments set process-wide state (time scale, telemetry switch,
/// registry), so the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn fail_ratio(out: &gengar_perfbench::Outcome) -> f64 {
    out.metrics
        .get("fail_ratio")
        .expect("fail_ratio recorded")
        .value
}

#[test]
fn every_workload_runs_clean_on_a_tiny_deployment() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for kind in Kind::ALL {
        let out =
            run_timed(kind, &Plan::tiny(), 7, Duration::from_millis(150), 2).expect("timed run");
        assert!(
            out.correct(),
            "{}: {} of {} failed",
            kind.name(),
            out.failed,
            out.attempted
        );
        assert_eq!(fail_ratio(&out), 0.0, "{}", kind.name());
        for name in gengar_perfbench::END_TO_END {
            let m = out
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert!(m.value > 0.0, "{}: {name} = {}", kind.name(), m.value);
        }
    }
}

/// The metric names of `BENCHMARK.json`'s `end_to_end` and `per_layer`
/// lists, in order.
fn declared(section: &str) -> Vec<String> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = json[start..].find(']').map_or(json.len(), |i| start + i);
    json[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_owned())
        .collect()
}

#[test]
fn result_lines_match_benchmark_json() {
    assert_eq!(declared("end_to_end"), gengar_perfbench::END_TO_END);
    assert_eq!(declared("per_layer"), gengar_perfbench::PER_LAYER);
}

#[test]
fn traced_run_accounts_for_every_op() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for kind in Kind::ALL {
        let out =
            run_traced(kind, &Plan::tiny(), 3, Duration::from_millis(300)).expect("traced run");
        assert!(
            out.correct(),
            "{}: {} of {} failed",
            kind.name(),
            out.failed,
            out.attempted
        );
        assert_eq!(fail_ratio(&out), 0.0);
        let op = if kind == Kind::BatchMixed {
            "batch.submit"
        } else {
            "kv.get"
        };
        assert!(
            out.self_time.contains(&format!("{op}: self")),
            "{}: no accounting line for {op}:\n{}",
            kind.name(),
            out.self_time
        );
        assert!(out.self_time.contains("(100.00% accounted)"));
        assert!(out.registry.is_some());
        assert!(!out.spans_tsv.is_empty());
        for name in gengar_perfbench::PER_LAYER {
            assert!(
                out.metrics.get(name).is_some(),
                "{}: {name} missing",
                kind.name()
            );
        }
    }
    // KV index probes are 16 B reads of 64 KiB segments: never worth a
    // cached read, so none is served from the cache.
    let out = run_traced(
        Kind::KvReadZipf,
        &Plan::tiny(),
        3,
        Duration::from_millis(300),
    )
    .expect("traced run");
    assert_eq!(
        out.metrics
            .get("client.index_hit_ratio")
            .expect("recorded")
            .value,
        0.0
    );
}

/// Flips one byte of the `nth` value read (scalar or batch element).
struct Corrupt<'a> {
    inner: &'a mut GengarClient,
    nth: u64,
    reads: u64,
}

impl Corrupt<'_> {
    fn maybe_flip(&mut self, buf: &mut [u8]) {
        if buf.len() > 16 {
            self.reads += 1;
            if self.reads == self.nth {
                buf[buf.len() / 2] ^= 0x01;
            }
        }
    }
}

impl DshmPool for Corrupt<'_> {
    fn alloc(&mut self, server: u8, size: u64) -> Result<GlobalPtr, GengarError> {
        self.inner.alloc(server, size)
    }

    fn free(&mut self, ptr: GlobalPtr) -> Result<(), GengarError> {
        self.inner.free(ptr)
    }

    fn read(&mut self, ptr: GlobalPtr, offset: u64, buf: &mut [u8]) -> Result<(), GengarError> {
        self.inner.read(ptr, offset, buf)?;
        self.maybe_flip(buf);
        Ok(())
    }

    fn write(&mut self, ptr: GlobalPtr, offset: u64, data: &[u8]) -> Result<(), GengarError> {
        self.inner.write(ptr, offset, data)
    }

    fn cas_u64(
        &mut self,
        ptr: GlobalPtr,
        offset: u64,
        expected: u64,
        new: u64,
    ) -> Result<u64, GengarError> {
        self.inner.cas_u64(ptr, offset, expected, new)
    }

    fn servers(&self) -> Vec<u8> {
        self.inner.server_ids()
    }
}

impl Conn for Corrupt<'_> {
    /// Runs the elements one by one so each read buffer can be tampered
    /// with after the client filled it (the workloads never put two ops
    /// on one object in a batch, so the order does not matter).
    fn submit(&mut self, ops: Vec<Op<'_>>) -> Result<Vec<Result<(), GengarError>>, GengarError> {
        Ok(ops
            .into_iter()
            .map(|op| match op {
                Op::Read { ptr, buf } => self.read(ptr, 0, buf),
                Op::Write { ptr, data } => self.write(ptr, 0, data),
            })
            .collect())
    }

    fn stats(&self) -> ClientStats {
        self.inner.stats()
    }
}

#[test]
fn one_flipped_byte_is_caught() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for kind in Kind::ALL {
        let mut dep = deploy(kind, &Plan::tiny(), 11, false).expect("deploy");
        let mut clean = Tally::default();
        dep.workload.run_for(
            &mut dep.main,
            dep.shared.as_mut(),
            Duration::from_millis(50),
            &mut clean,
        );
        assert_eq!(
            clean.failed(),
            0,
            "{}: the unmodified client must verify",
            kind.name()
        );

        let mut tally = Tally::default();
        let mut main = Corrupt {
            inner: &mut dep.main,
            nth: 5,
            reads: 0,
        };
        let mut shared = dep.shared.as_mut().map(|inner| Corrupt {
            inner,
            nth: 0,
            reads: 0,
        });
        dep.workload.run_for(
            &mut main,
            shared.as_mut(),
            Duration::from_millis(100),
            &mut tally,
        );
        assert!(main.reads >= 5, "{}: too few reads to corrupt", kind.name());
        assert_eq!(
            tally.mismatches,
            1,
            "{}: the flipped byte went unnoticed",
            kind.name()
        );
        assert_eq!(tally.errors, 0);
    }
}
