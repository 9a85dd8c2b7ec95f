//! Answer-checked serving benchmark for the kNNTA stack.
//!
//! ```text
//! knnta-perfbench --workload <serve_hotspot|serve_mixed|live_ingest>
//!                 --seed <n> --seconds <s> --trace <0|1>
//!                 [--out-dir <dir>] [--meta <key>=<value>]...
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that measures each layer and writes its spans to
//! `<out-dir>/spans-<workload>-<seed>.json`. The last line of standard
//! output is the result object; the exit code is non-zero on any answer
//! mismatch. `perfbench/README.md` describes the workloads and metrics.

mod data;
mod layers;
mod live;
mod report;
mod serve;
mod spans;

use report::{json_str, Outcome};
use spans::Spans;
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: Option<PathBuf>,
    meta: Vec<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        out_dir: None,
        meta: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--out-dir" => args.out_dir = Some(PathBuf::from(value)),
            "--meta" => {
                let (k, v) = value.split_once('=').ok_or("--meta takes key=value")?;
                args.meta.push((k.to_string(), v.to_string()));
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0.0 {
        return Err("--seconds is required".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("knnta-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut meta = vec![
        ("workload".to_string(), args.workload.clone()),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("dataset".to_string(), "GS".to_string()),
        ("scale".to_string(), data::SCALE.to_string()),
        ("available_parallelism".to_string(), threads.to_string()),
    ];
    meta.extend(args.meta.iter().cloned());
    let header = meta
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect::<Vec<_>>()
        .join(", ");
    println!("provenance: {{{header}}}");

    let mut spans = Spans::new(Instant::now(), args.trace);
    let (seed, secs) = (args.seed, args.seconds);
    let outcome: Outcome = match (args.workload.as_str(), args.trace) {
        ("serve_hotspot", false) => serve::run(&serve::HOTSPOT, seed, secs),
        ("serve_hotspot", true) => serve::run_traced(&serve::HOTSPOT, seed, secs, &mut spans),
        ("serve_mixed", false) => serve::run(&serve::MIXED, seed, secs),
        ("serve_mixed", true) => serve::run_traced(&serve::MIXED, seed, secs, &mut spans),
        ("live_ingest", false) => live::run(seed, secs),
        ("live_ingest", true) => live::run_traced(seed, secs, &mut spans),
        (other, _) => {
            eprintln!("knnta-perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    if let (true, Some(dir)) = (args.trace, &args.out_dir) {
        let path = dir.join(format!("spans-{}-{}.json", args.workload, seed));
        match std::fs::create_dir_all(dir).and_then(|()| spans.write(&path, &header)) {
            Ok(()) => println!("spans: {} written to {}", spans.spans.len(), path.display()),
            Err(e) => eprintln!("knnta-perfbench: writing {}: {e}", path.display()),
        }
    }
    outcome.print(args.trace);
    if !outcome.correct() {
        std::process::exit(1);
    }
}
