//! `perfbench` — the end-to-end forward-pass benchmark.
//!
//! ```text
//! perfbench --workload <prefill|decode|long_context> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Packs seeded Llama2-7B-profile weights into a per-run archive, serves
//! them through `TinyTransformer::from_archive`, and runs a closed loop of
//! OwL-P forwards checked bit for bit against the exact engine. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` the
//! per-layer ledger from shadow forwards. The last stdout line is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md`.

mod archive;
mod e2e;
mod host;
mod ledger;
mod shadow;
mod stats;
mod traced;
mod workload;

use archive::{ScratchArchive, WORK_DIR};
use std::fmt::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::Workload;

/// Traced runs write their run record and spans here.
const OUT_DIR: &str = "perfbench/out";

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: pack the weights into this path and exit.
    pack_child: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <prefill|decode|long_context> --seed <n> --seconds <n> --trace <0|1>";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut pack_child) =
            (None, None, Some(10), Some(false), None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::from_name(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                "--pack-child" => pack_child = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.expect("defaulted"),
            trace: trace.expect("defaulted"),
            pack_child,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.pack_child {
        Some(path) => archive::pack_child(args.workload, args.seed, path).map(|()| None),
        None => run(&args).map(Some),
    };
    match result {
        Ok(line) => {
            if let Some(line) = line {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one benchmark run and returns the result line.
fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let record = host::run_record(w.name(), args.seed, args.trace, args.seconds);
    println!("# run-record {record}");
    // Dropped (and the file removed) when this function returns, on
    // success and on error alike.
    let archive = ScratchArchive::reserve(Path::new(WORK_DIR))
        .map_err(|e| format!("reserving an archive path: {e}"))?;
    let pack = archive::pack(w, args.seed, &archive)?;
    let inputs = workload::inputs(w, args.seed);
    let threads = owlp_par::thread_budget();
    let seconds = args.seconds as f64;

    let (metrics, attempted, failed) = if args.trace {
        let t = traced::run(w, archive.path(), &inputs, threads, seconds, pack)?;
        write_trace(args, &record, &t.ledger)?;
        (
            t.metrics,
            t.gate.attempted + t.shadow_forwards,
            t.gate.failed + t.shadow_failed,
        )
    } else {
        let e = e2e::run(w, archive.path(), &inputs, threads, seconds)?;
        println!(
            "# forwards: {} at {threads} threads, {} at 1 thread, {} cold starts",
            e.samples,
            e.samples_1t,
            e2e::COLD_STARTS
        );
        println!("# error_rate {} ratio", e.gate.error_rate());
        match e.forward_ms_p90 {
            Some(p90) => println!("# forward_ms_p90 {p90} ms"),
            None => println!("# forward_ms_p90 not reported: fewer than 10 samples beyond it"),
        }
        let m = |name: &str, value: f64, unit| Metric {
            name: name.to_string(),
            value,
            unit,
        };
        (
            vec![
                m("tokens_per_s", e.tokens_per_s, "tok/s"),
                m("tokens_per_s_1t", e.tokens_per_s_1t, "tok/s"),
                m("forward_ms_p50", e.forward_ms_p50, "ms"),
                m("setup_s", e.setup_s, "s"),
                m("peak_rss_mib", e.peak_rss_mib, "MiB"),
            ],
            e.gate.attempted,
            e.gate.failed,
        )
    };
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    result_line(failed == 0, attempted, failed, &metrics)
}

/// Writes the run record and every span of a traced run.
fn write_trace(args: &Args, record: &str, ledger: &ledger::Ledger) -> Result<(), String> {
    let path = Path::new(OUT_DIR).join(format!(
        "trace-{}-seed{}-{}.json",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| {
            std::fs::write(
                &path,
                format!(
                    "{{\"record\": {record},\n\"spans\": {}}}\n",
                    ledger.to_json()
                ),
            )
        })
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());
    Ok(())
}

/// The final JSON line.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            host::json_str(&m.name),
            m.value,
            host::json_str(m.unit)
        )
        .expect("writing to a String");
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse(&[
            "--workload",
            "decode",
            "--seed",
            "3",
            "--seconds",
            "5",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Decode, 3, 5, true)
        );
        assert!(parse(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(parse(&["--workload", "decode"]).is_err());
        assert!(parse(&["--workload", "decode", "--seed", "1", "--trace", "2"]).is_err());
        assert!(parse(&["--bogus", "1"]).is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let m = [Metric {
            name: "setup_s".into(),
            value: 0.8127,
            unit: "s",
        }];
        let line = result_line(true, 10, 0, &m).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        let nan = [Metric {
            name: "x".into(),
            value: f64::NAN,
            unit: "s",
        }];
        assert!(result_line(true, 1, 0, &nan).is_err());
    }
}
