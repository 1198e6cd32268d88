//! `perfbench` — the repository's benchmark: batch repair, warm serving
//! and KB deltas, with end-to-end metrics and a per-layer split.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <uis_batch|nobel_serve|nobel_serve_delta> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The seed generates every input; the
//! program under test only ever sees the generated relations, KBs and
//! request bodies. With `--trace 0` the run reports the end-to-end
//! metrics; with `--trace 1` it reports the per-layer metrics, measured by
//! timing calls into each layer's public functions from outside the
//! program. `BENCHMARK.json` in the working directory names the metrics
//! of each mode and their units; a run that measures any other set fails. Human-readable detail goes to stderr; the last line of stdout
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! See `perfbench/README.md` for what each workload and metric means.

mod client;
mod layers;
mod serve;
mod stats;
mod uis;

use std::collections::BTreeMap;
use std::time::Duration;

/// Worker threads everywhere: the benchmark targets a 2-core machine and
/// never runs more than two load or repair threads at once.
pub const THREADS: usize = 2;

/// Set-up timings of one run: the whole set-up, and its KB build.
#[derive(Default)]
pub struct SetupTimes {
    pub setup_s: Vec<f64>,
    pub build_s: Vec<f64>,
}

impl SetupTimes {
    /// The fastest set-up of the run. On a shared machine a set-up of
    /// 10–70 ms runs either at full speed or up to 40% slower, depending on
    /// what other tenants do at that moment. The share of slow set-ups
    /// follows the machine's load from minute to minute, and the median
    /// follows that share; the fastest of many set-ups is the set-up's own
    /// cost and moves least.
    pub fn setup_s(&self) -> f64 {
        self.setup_s.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The fastest KB build of the run, for the same reason.
    pub fn build_s(&self) -> f64 {
        self.build_s.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Runs `setup` `runs` times, dropping each result before the next, and
/// returns the last one. It runs first, in a fresh process, as a user's
/// boot does: set-ups repeated after the measurement run on a heap the
/// passes have aged and take twice as long.
pub fn setup_burst<T>(runs: usize, mut setup: impl FnMut() -> T) -> T {
    let mut kept = None;
    for _ in 0..runs.max(1) {
        drop(kept.take());
        kept = Some(setup());
    }
    kept.expect("at least one set-up")
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    /// Operations attempted (passes or HTTP requests, warm-up included).
    pub attempted: u64,
    /// Operations that failed: non-2xx responses, I/O errors, and outputs
    /// that differ from their reference.
    pub failed: u64,
    /// Checks that are not per-operation (reference agreement between
    /// repairers, connection reuse); `false` marks the run incorrect.
    pub checks_ok: bool,
    /// Metric name → value: exactly the metrics `BENCHMARK.json` declares
    /// for the run's mode.
    pub metrics: BTreeMap<String, f64>,
}

fn usage(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload <uis_batch|nobel_serve|nobel_serve_delta> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> String {
        let at = args
            .iter()
            .position(|a| a == name)
            .unwrap_or_else(|| usage(&format!("missing {name}")));
        args.get(at + 1)
            .cloned()
            .unwrap_or_else(|| usage(&format!("{name} needs a value")))
    };
    let seed = value("--seed")
        .parse()
        .unwrap_or_else(|_| usage("--seed must be a whole number"));
    let seconds: u64 = value("--seconds")
        .parse()
        .unwrap_or_else(|_| usage("--seconds must be a whole number"));
    if seconds == 0 {
        usage("--seconds must be at least 1");
    }
    let trace = match value("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage("--trace must be 0 or 1"),
    };
    Args {
        workload: value("--workload"),
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    }
}

/// The metrics `BENCHMARK.json` (read from the working directory, the
/// repository root) declares for this mode, with their units: the
/// `end_to_end` list with `--trace 0`, `per_layer` with `--trace 1`.
fn declared_metrics(trace: bool) -> Vec<(String, String)> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .unwrap_or_else(|e| usage(&format!("cannot read BENCHMARK.json: {e}")));
    let doc = dr_obs::json::parse(&text)
        .unwrap_or_else(|e| usage(&format!("BENCHMARK.json does not parse: {e}")));
    let key = if trace { "per_layer" } else { "end_to_end" };
    let list = doc
        .get(key)
        .and_then(|v| v.as_array())
        .unwrap_or_else(|| usage(&format!("BENCHMARK.json has no {key} list")));
    list.iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(|v| v.as_str()).map(str::to_owned);
            field("name")
                .zip(field("unit"))
                .unwrap_or_else(|| usage(&format!("a {key} entry lacks a name or unit")))
        })
        .collect()
}

fn main() {
    let args = parse_args();
    let declared = declared_metrics(args.trace);
    let mut outcome = match args.workload.as_str() {
        "uis_batch" => uis::run(&args),
        "nobel_serve" => serve::run(&args, serve::Flavor::Image),
        "nobel_serve_delta" => serve::run(&args, serve::Flavor::Delta),
        other => usage(&format!("unknown workload {other:?}")),
    };

    let mut metrics = String::new();
    for (name, unit) in &declared {
        let value = outcome
            .metrics
            .remove(name)
            .unwrap_or_else(|| panic!("workload did not report metric {name}"));
        // Non-finite values are not JSON; a layer with no samples reads 0.
        let value = if value.is_finite() { value } else { 0.0 };
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        metrics.push_str(&format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let undeclared: Vec<&String> = outcome.metrics.keys().collect();
    assert!(
        undeclared.is_empty(),
        "metrics missing from BENCHMARK.json: {undeclared:?}"
    );
    let correct = outcome.checks_ok && outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
    );
}
