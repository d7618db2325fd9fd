//! Real-clock benchmark of the diagnosis chain. One process runs one
//! workload once: untraced for the end-to-end metrics (`--trace 0`) or
//! traced for the per-layer metrics (`--trace 1`), with one idle-priority
//! spinner process per core beside it (`awake.rs`). See `README.md`.

mod awake;
mod inputs;
mod layers;
mod report;
mod schedule;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{Metrics, Outcome, END_TO_END, PER_LAYER};
use spans::Recorder;
use workloads::{clustered_closed, direct_study, served_open, slice_512, EndToEnd, NAMES};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 11,
        seconds: 25.0,
        trace: false,
        out_dir: PathBuf::from("target/benchmark"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {NAMES:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(args)
}

fn end_to_end(args: &Args) -> (Outcome, Metrics) {
    let EndToEnd {
        setup_s,
        latency,
        throughput,
        outcome,
    } = match args.workload.as_str() {
        "direct_study" => direct_study::end_to_end(args.seed, args.seconds),
        "slice_512" => slice_512::end_to_end(args.seed, args.seconds),
        "served_open" => served_open::end_to_end(args.seed, args.seconds),
        _ => clustered_closed::end_to_end(args.seed, args.seconds),
    };
    let mut m = Metrics::zeroed(END_TO_END);
    m.set_median("setup_s", &setup_s);
    let (calm, busy) = (stats::windows(&latency), stats::windows(&throughput));
    let (n, done) = (latency.len(), throughput.len());
    m.set_quiet("latency_p50_ms", calm.iter().map(|w| w.p50_ms), true, n);
    m.set_quiet("latency_p90_ms", calm.iter().map(|w| w.p90_ms), true, n);
    m.set_quiet(
        "throughput_per_s",
        busy.iter().map(|w| w.per_s),
        false,
        done,
    );
    m.set("peak_rss_mib", report::peak_rss_mib(), 1);
    if !stats::supported(n / calm.len().max(1), 90.0) {
        println!(
            "note latency_p90_ms has fewer than {} samples beyond it in a window",
            stats::MIN_BEYOND
        );
    }
    (outcome, m)
}

fn traced(args: &Args) -> (Outcome, Metrics) {
    let mut rec = Recorder::new(Instant::now(), 1 << 16);
    let mut m = Metrics::zeroed(PER_LAYER);
    let outcome = match args.workload.as_str() {
        "direct_study" => direct_study::traced(args.seed, args.seconds, &mut rec, &mut m),
        "slice_512" => slice_512::traced(args.seed, args.seconds, &mut rec, &mut m),
        "served_open" => served_open::traced(args.seed, args.seconds, &mut rec, &mut m),
        _ => clustered_closed::traced(args.seed, args.seconds, &mut rec, &mut m),
    };
    let path = args.out_dir.join(format!("trace_{}.jsonl", args.workload));
    match std::fs::create_dir_all(&args.out_dir).and_then(|()| rec.write_jsonl(&path)) {
        Ok(()) => println!("trace {} spans {}", rec.spans().len(), path.display()),
        Err(e) => eprintln!("trace not written to {}: {e}", path.display()),
    }
    (outcome, m)
}

/// Put glibc's allocator in the state a long-running process reaches:
/// freeing a mapped block raises the size below which blocks come from
/// the heap to that block's size (32 MiB at most), so one 31 MiB block,
/// never touched, fixes it for the pass. Left to the program's own
/// frees, heap-layout luck ended `direct_study` 7 MiB (a third) higher
/// on one seed in six, which no relative bound on `peak_rss_mib` holds.
fn settle_allocator() {
    drop(std::hint::black_box(vec![0u8; 31 << 20]));
}

fn main() -> ExitCode {
    let first: Vec<String> = std::env::args().skip(1).take(3).collect();
    if let [flag, core, pass] = first.as_slice() {
        if let (awake::FLAG, Ok(core), Ok(pass)) = (flag.as_str(), core.parse(), pass.parse()) {
            return awake::spin(core, pass);
        }
    }
    if std::env::args().nth(1).as_deref() == Some("--fingerprint") {
        let caps = cc19_hetero::HostCaps::detect();
        println!("host caps cores {} simd {:?}", caps.cores, caps.simd);
        println!("host cpu_mhz {:?}", cc19_hetero::host::detect_freq_mhz());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    settle_allocator();
    let _awake = awake::KeepAwake::start();
    println!(
        "run workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (outcome, metrics) = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    for check in &outcome.broken_checks {
        println!("broken {check}");
    }
    println!(
        "ops attempted {} completed {} failed {} refused {}",
        outcome.attempted, outcome.completed, outcome.failed, outcome.refused
    );
    print!("{}", metrics.lines());
    println!("{}", report::result_line(&outcome, &metrics));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
