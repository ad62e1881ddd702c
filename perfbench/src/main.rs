//! The repository benchmark.
//!
//! ```text
//! perfbench --workload cwsc_lattice --seed 1 --seconds 10 --trace 0 \
//!     --serve-bin .bench_build/release/scwsc_serve
//! ```
//!
//! Runs one workload, checks every answer, writes the run record (host
//! fingerprint, result, mismatches, spans) under `--out`, and prints the
//! result as the last line of standard output. Exit status: 0 when every
//! answer checked out, 1 when one did not (the result is still printed),
//! 2 when the run could not be set up (no result is printed).
//! `run.py` builds this binary and the server and passes the flags.

mod batch;
mod loadgen;
mod report;
mod serve;
mod spans;
mod stats;

use report::Report;
use scwsc_core::json::Json;
use scwsc_core::telemetry::alloc::CountingAlloc;
use scwsc_core::Threads;
use spans::Tracer;
use std::path::PathBuf;
use std::process::exit;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The seed kept out of tuning, for checking a claim on unseen input.
const HELD_OUT_SEED: u64 = 20_150_413;

const WORKLOADS: &[&str] = &["cwsc_lattice", "cmc_pool", "cube_setcover", "serve_mixed"];

struct Options {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve_bin: PathBuf,
    out: PathBuf,
    rustc: String,
    source: String,
}

fn bail(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        serve_bin: PathBuf::from(".bench_build/release/scwsc_serve"),
        out: PathBuf::from(".bench_out"),
        rustc: "unknown".into(),
        source: "unknown".into(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| bail(&format!("{flag} needs a value")));
        let number = |v: &str| -> u64 {
            v.parse()
                .unwrap_or_else(|_| bail(&format!("{flag}: {v:?} is not a number")))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = number(&value),
            "--seconds" => opts.seconds = number(&value),
            "--trace" => opts.trace = number(&value) != 0,
            "--serve-bin" => opts.serve_bin = PathBuf::from(value),
            "--out" => opts.out = PathBuf::from(value),
            "--rustc" => opts.rustc = value,
            "--source" => opts.source = value,
            _ => bail(&format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        bail(&format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    opts
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// CPU model, core count, resolved solver thread count, compiler and
/// source revision.
fn host_fingerprint(opts: &Options) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::Obj(vec![
        ("cpu".into(), Json::Str(cpu_model())),
        ("nproc".into(), Json::from_u64(nproc as u64)),
        (
            "threads".into(),
            Json::from_u64(Threads::from_env().get() as u64),
        ),
        ("rustc".into(), Json::Str(opts.rustc.clone())),
        ("source".into(), Json::Str(opts.source.clone())),
        ("held_out_seed".into(), Json::from_u64(HELD_OUT_SEED)),
    ])
}

fn main() {
    let opts = parse_args();
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        bail(&format!("cannot create {}: {e}", opts.out.display()));
    }
    let host = host_fingerprint(&opts);
    let mut tracer = Tracer::new(opts.trace);
    let mut report = Report::default();
    let kind = match opts.workload.as_str() {
        "cwsc_lattice" => Some(batch::Kind::CwscLattice),
        "cmc_pool" => Some(batch::Kind::CmcPool),
        "cube_setcover" => Some(batch::Kind::CubeSetcover),
        _ => None,
    };
    match kind {
        Some(kind) => batch::run(
            kind,
            opts.seed,
            opts.seconds,
            opts.trace,
            &mut tracer,
            &mut report,
        ),
        None => {
            let setup = serve::Setup {
                serve_bin: &opts.serve_bin,
                out: &opts.out,
                seed: opts.seed,
                seconds: opts.seconds,
                traced: opts.trace,
            };
            if let Err(e) = serve::run(&setup, &mut tracer, &mut report) {
                bail(&format!("serve_mixed: {e}"));
            }
        }
    }
    for m in &report.mismatches {
        eprintln!("perfbench: MISMATCH {m}");
    }

    let result = report.result_line(opts.trace);
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    );
    let record = Json::Obj(vec![
        ("workload".into(), Json::Str(opts.workload.clone())),
        ("seed".into(), Json::from_u64(opts.seed)),
        ("seconds".into(), Json::from_u64(opts.seconds)),
        ("host".into(), host.clone()),
        (
            "result".into(),
            Json::parse(&result).expect("result line is valid JSON"),
        ),
        (
            "mismatches".into(),
            Json::Arr(
                report
                    .mismatches
                    .iter()
                    .map(|m| Json::Str(m.clone()))
                    .collect(),
            ),
        ),
        ("profile".into(), Json::Str(report.profile.clone())),
    ]);
    let written = std::fs::write(opts.out.join(format!("{stem}.json")), record.to_pretty())
        .and_then(|()| {
            if opts.trace {
                std::fs::write(
                    opts.out.join(format!("{stem}-spans.jsonl")),
                    tracer.to_jsonl(),
                )
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        bail(&format!("cannot write the run record: {e}"));
    }
    println!("{}", Json::Obj(vec![("host".into(), host)]).to_compact());
    println!("{result}");
    if !report.correct() {
        exit(1);
    }
}
