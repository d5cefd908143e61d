//! `mvbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]`
//!
//! Prints the host fingerprint, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! untraced, the per-layer metrics traced. A traced run also prints the
//! per-span self-time table and writes its spans as Chrome trace-event JSON
//! under `.bench_out/`.

use mvbench::harness::{RunConfig, TRACE_FILE_OPS};
use mvbench::host::Fingerprint;
use mvbench::report::{result_line, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str = "usage: mvbench --workload <fleet-million|fleet-ingest> \
--seed <n> --seconds <s> --trace <0|1> [--quick]";

fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse(args: &[String]) -> Result<(String, RunConfig), String> {
    let workload = value(args, "--workload").ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = value(args, "--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value(args, "--seconds")
        .ok_or("missing --seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    let trace = match value(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let quick = args.iter().any(|a| a == "--quick");
    Ok((
        workload.to_string(),
        RunConfig {
            seed,
            seconds,
            trace,
            quick,
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("mvbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let fingerprint = Fingerprint::take();
    let res = mvbench::run_workload(&workload, &cfg).expect("workload validated above");
    for note in &res.notes {
        eprintln!("mvbench {workload}: {note}");
    }
    if let Some(t) = &res.tracer {
        eprintln!(
            "{:<28} {:>9} {:>12} {:>12} {:>12}",
            "span", "calls", "median_ms", "total_ms", "self_ms"
        );
        for (name, s) in t.self_times() {
            eprintln!(
                "{name:<28} {:>9} {:>12.4} {:>12.2} {:>12.2}",
                s.calls, s.median_ms, s.total_ms, s.self_ms
            );
        }
        let path = format!(".bench_out/{workload}-seed{}.trace.json", cfg.seed);
        match std::fs::create_dir_all(".bench_out")
            .and_then(|_| std::fs::write(&path, t.chrome_json(TRACE_FILE_OPS)))
        {
            Ok(()) => eprintln!("mvbench {workload}: spans written to {path}"),
            Err(e) => eprintln!("mvbench {workload}: could not write {path}: {e}"),
        }
    }
    println!("host {}", fingerprint.json());
    println!(
        "{}",
        result_line(res.correct, res.attempted, res.failed, &res.rows)
    );
    ExitCode::SUCCESS
}
