//! `qrs-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Timed run (`--trace 0`): set the workload's stack up several times
//! (`setup_s` is the median), drive it for `--seconds`, gate every answer,
//! and print the end-to-end metrics. Traced run (`--trace 1`): the phases
//! of `trace::run`, printing the per-layer metrics. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.

use qrs_perfbench::drive::{self, median};
use qrs_perfbench::gate::{check_window, Oracle};
use qrs_perfbench::gen::{Inputs, Workload};
use qrs_perfbench::stack::{Shape, Stack};
use qrs_perfbench::sys;
use qrs_perfbench::trace::{self, Outcome};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per timed run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ColdRemote,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or(bad("workload"))?),
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(bad("seconds"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn timed(inputs: &Inputs, seconds: f64) -> std::io::Result<Outcome> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut stack = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = stack.take() {
            Stack::shutdown(old);
        }
        let t0 = Instant::now();
        stack = Some(Stack::build(inputs, Shape::Wire, false)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let stack = stack.expect("at least one set-up");
    let w = drive::run(&stack, inputs, inputs.workload.clients(), seconds);
    let rss = sys::peak_rss_mb();
    stack.shutdown();
    let verdict = check_window(&mut Oracle::new(inputs), &w, &inputs.snapshots());
    if w.exhausted {
        eprintln!("warning: the clients ran out of script before the window closed");
    }
    let reqs = w.replies.len().max(1) as f64;
    let sum = w.summary(seconds, inputs.workload.sub_windows());
    let (attempted, failed) = (w.replies.len() as u64, w.replies.failed());
    let error_rate = failed as f64 / attempted.max(1) as f64;
    println!("# error_rate {error_rate} (failed {failed} of {attempted} attempted)");
    Ok(Outcome {
        metrics: vec![
            ("throughput_rps", sum.throughput, "1/s"),
            ("latency_p50_ms", sum.p50, "ms"),
            ("latency_p95_ms", sum.p95, "ms"),
            ("site_queries_per_req", w.site.0 as f64 / reqs, "count"),
            ("cost_units_per_req", w.site.1 as f64 / reqs, "count"),
            ("setup_s", median(setups), "s"),
            ("peak_rss_mb", rss, "MiB"),
        ],
        verdicts: vec![("timed", verdict)],
        attempted,
        failed,
    })
}

fn json_line(o: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: qrs-perfbench --workload <cold_remote|warm_replay|churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let guard = sys::drain();
    println!(
        "# guard: time_wait {} -> {}, ephemeral ports held {} -> {} (drained at {}), \
         port range {}-{}, waited {:.2} s",
        guard.time_wait_before,
        guard.time_wait_at_start,
        guard.ports_held_before,
        guard.ports_held_at_start,
        guard.drained_at(),
        guard.port_range.0,
        guard.port_range.1,
        guard.waited_s
    );
    let inputs = Inputs::generate(args.workload, args.seed, args.seconds);
    let outcome = if args.trace {
        trace::run(&inputs, args.seconds)
    } else {
        timed(&inputs, args.seconds)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut correct = true;
    for (phase, v) in &outcome.verdicts {
        println!(
            "# gate[{phase}]: {} replies checked, {} mismatches",
            v.checked, v.mismatches
        );
        for f in &v.failures {
            eprintln!("GATE FAILURE [{phase}]: {f}");
        }
        correct &= v.passed();
    }
    for (name, value, unit) in &outcome.metrics {
        println!("# {name:<34} {value:>16.6} {unit}");
        correct &= value.is_finite();
    }
    // A failed gate is reported through `correct`, not the exit code: the
    // run itself completed, and its figures stay on record.
    println!("{}", json_line(&outcome, correct));
    ExitCode::SUCCESS
}
