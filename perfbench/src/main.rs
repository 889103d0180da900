//! Host benchmark of the Soar/PSM-E reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <learn|serve-open|serve-tiered> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a run header, human-readable detail lines, and as its last line
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics, or with `--trace 1` the per-layer metrics).
//! Exits non-zero if any output differs from its solo reference. See
//! `perfbench/README.md` for the workloads and the metric map.

mod gen;
mod learn;
mod meter;
mod open;
mod report;
mod spans;
mod stats;
mod tiered;

use report::{Report, SELF_ROWS};
use std::process::ExitCode;

/// The workloads, in the order the benchmark declares them.
const WORKLOADS: [&str; 3] = ["learn", "serve-open", "serve-tiered"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string())
}

fn header(a: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"header\": {{\"git_rev\": \"{}\", \"nproc\": {nproc}, \"kind\": \"host\", \"workload\": \"{}\", \
         \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"units\": {{\"time\": \"ms unless the name says s or us\", \
         \"rates\": \"1/s\"}}}}}}",
        git_rev(),
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace)
    )
}

/// Self-time rows and `wall_ms` from the traced run's spans; the spans
/// themselves are written to `perfbench/out/`.
fn attribute(a: &Args, rep: &mut Report, spans: &[spans::Span]) {
    let st = spans::self_times(spans);
    let wall = spans::wall_ns(spans);
    for (span, metric) in SELF_ROWS {
        rep.set(metric, st.get(span).copied().unwrap_or(0) as f64 * 1e-6);
    }
    rep.set("wall_ms", wall as f64 * 1e-6);
    let named: u64 = SELF_ROWS.iter().filter_map(|(s, _)| st.get(s)).sum();
    let other: u64 = st.values().sum::<u64>() - named;
    rep.note(format!(
        "  self times: {:.3} ms named + {:.3} ms other spans = {:.3} ms of {:.3} ms wall",
        named as f64 * 1e-6,
        other as f64 * 1e-6,
        (named + other) as f64 * 1e-6,
        wall as f64 * 1e-6
    ));
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("spans-{}-{}.json", a.workload, a.seed));
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, spans::to_json(spans))) {
        Ok(()) => rep.note(format!(
            "  spans: {} written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => rep.note(format!("  spans: not written ({e})")),
    }
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", header(&a));
    let mut rep = Report::default();
    let spans = match a.workload.as_str() {
        "learn" => learn::run(a.seed, a.seconds, a.trace, &mut rep),
        "serve-open" => open::run(a.seed, a.seconds, a.trace, &mut rep),
        _ => tiered::run(a.seed, a.seconds, a.trace, &mut rep),
    };
    if a.trace {
        attribute(&a, &mut rep, &spans);
    }
    println!("workload {} seed {}:", a.workload, a.seed);
    for l in &rep.lines {
        println!("{l}");
    }
    for (name, unit) in Report::declared(a.trace) {
        println!(
            "  {name:<34} {:>16} {unit}",
            report::num(rep.values.get(name).copied().unwrap_or(0.0))
        );
    }
    println!("{}", rep.result_json(a.trace));
    if rep.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: outputs differ from their solo references");
        ExitCode::FAILURE
    }
}
