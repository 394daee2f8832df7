//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name, unit and base, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics when `--trace 0`, the per-layer
//! metrics when `--trace 1`. Exits 1 if any checked op failed and 2 on a
//! usage error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use gengar_perfbench::report::result_json;
use gengar_perfbench::workload::{Kind, Plan};
use gengar_perfbench::{run_timed, run_traced, END_TO_END, PER_LAYER, SETUPS};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value:?}; known: {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds must be 1..=600, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Where the traced run writes its spans: the cargo target directory the
/// benchmark was built into.
fn spans_path(kind: Kind) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    dir.join("perfbench")
        .join(format!("spans-{}.tsv", kind.name()))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let plan = Plan::standard();
    let seconds = Duration::from_secs(args.seconds);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_threads={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let outcome = if args.trace {
        run_traced(args.kind, &plan, args.seed, seconds)
    } else {
        run_timed(args.kind, &plan, args.seed, seconds, SETUPS)
    };
    let out = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    out.metrics.print();
    if args.trace {
        println!("self time per layer (traced phase):");
        print!("{}", out.self_time);
        if let Some(snap) = &out.registry {
            println!("registry snapshot (traced phase):");
            print!("{snap}");
        }
        let path = spans_path(args.kind);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, &out.spans_tsv));
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    }
    let names: &[&str] = if args.trace { PER_LAYER } else { &END_TO_END };
    println!(
        "{}",
        result_json(
            out.correct(),
            out.attempted,
            out.failed,
            &out.metrics,
            names
        )
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} checked ops failed",
            out.failed, out.attempted
        );
        for f in &out.failures {
            eprintln!("perfbench: failure: {f}");
        }
        ExitCode::FAILURE
    }
}
