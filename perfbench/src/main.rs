//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <live_site|durable_restart|campaign|all> --seed N --seconds S --trace <0|1> [--smoke]
//! ```
//!
//! Each workload generates its inputs from `--seed`, drives the real
//! entry points with deployment defaults, checks the program's outputs
//! against a reference, and prints its end-to-end metrics with units
//! and sample counts. The last line of standard output is one JSON
//! result. `--trace 1` first runs the untraced workload in a child
//! process, then a traced run that spans every call into a layer's
//! public functions and attributes the workload's time to the layers.
//! See `README.md` beside this file.

mod campaign;
mod durable;
mod env;
mod live;
mod plane;
mod report;
mod stats;
mod trace;

use report::{find, result_json, self_table, Metric, Outcome, PER_LAYER, RESULT_E2E};
use std::process::{Command, ExitCode};
use trace::Tracer;

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["live_site", "durable_restart", "campaign"];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own tests.
    pub smoke: bool,
    /// On a traced run: the end-to-end metrics of the untraced run.
    pub untraced: Vec<Metric>,
    /// On a traced run: the per-layer metrics the untraced run printed.
    pub untraced_layers: Vec<Metric>,
}

impl Config {
    #[must_use]
    pub fn untraced_value(&self, name: &str) -> Option<f64> {
        find(&self.untraced, name).and_then(|m| m.value)
    }

    #[must_use]
    pub fn untraced_layer(&self, name: &str) -> Option<&Metric> {
        find(&self.untraced_layers, name)
    }

    fn args(&self, trace: bool) -> Vec<String> {
        let mut args = vec![
            "--workload".to_owned(),
            self.workload.clone(),
            "--seed".to_owned(),
            self.seed.to_string(),
            "--seconds".to_owned(),
            self.seconds.to_string(),
            "--trace".to_owned(),
            u8::from(trace).to_string(),
        ];
        if self.smoke {
            args.push("--smoke".to_owned());
        }
        args
    }
}

const USAGE: &str = "usage: perfbench --workload <live_site|durable_restart|campaign|all> \
                     --seed <n> --seconds <n> --trace <0|1> [--smoke]";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut config = Config {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        smoke: false,
        untraced: Vec::new(),
        untraced_layers: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let value = || {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => config.workload = value()?.clone(),
            "--seed" => config.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                config.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                config.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--smoke" => {
                config.smoke = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    if config.workload != "all" && !WORKLOADS.contains(&config.workload.as_str()) {
        return Err(format!("unknown workload {:?}", config.workload));
    }
    if config.seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(config)
}

fn run_workload(config: &Config, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    match (config.workload.as_str(), tracer) {
        ("live_site", None) => live::run(config),
        ("live_site", Some(tracer)) => live::run_traced(config, tracer),
        ("durable_restart", tracer) => durable::run(config, tracer),
        ("campaign", tracer) => campaign::run(config, tracer),
        (other, _) => Err(format!("unknown workload {other}")),
    }
}

/// Runs this binary again with `args`; returns its exit success and
/// standard output.
fn child(args: &[String]) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("spawning a child run: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    Ok((
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    ))
}

/// Parses the `<prefix> <name> = <value> <unit> n=<samples>` lines of a
/// run.
fn parse_metrics(stdout: &str, prefix: &str) -> Vec<Metric> {
    stdout
        .lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                [first, name, "=", value, unit, samples, ..] if *first == prefix => {
                    let unit = report::UNITS.iter().find(|u| *u == unit)?;
                    Some(Metric {
                        name: (*name).to_owned(),
                        value: value.parse().ok(),
                        unit,
                        samples: samples.strip_prefix("n=")?.parse().ok()?,
                        tail: None,
                    })
                }
                _ => None,
            }
        })
        .collect()
}

fn print_outcome(config: &Config, outcome: &Outcome, steal_share: f64) {
    println!(
        "env available_parallelism={} git_sha={} profile={} seed={} seconds={} trace={} gen.threads={} gen.connections={} host_steal_share={steal_share:.4}",
        env::available_parallelism(),
        env::git_sha(),
        env::profile(),
        config.seed,
        config.seconds,
        u8::from(config.trace),
        outcome.gen_threads,
        outcome.gen_connections,
    );
    println!("{}", outcome.late_metric().line("gen"));
    for (key, value) in &outcome.facts {
        println!("fact {key}={value}");
    }
    for gate in &outcome.gates {
        let verdict = if gate.pass { "PASS" } else { "FAIL" };
        println!("gate {} {verdict} {}", gate.name, gate.detail);
    }
    println!(
        "ops attempted={} failed={}",
        outcome.attempted, outcome.failed
    );
    for metric in &config.untraced {
        println!("{}", metric.line("e2e.untraced"));
    }
    let prefix = if config.trace { "e2e.traced" } else { "e2e" };
    for metric in &outcome.e2e {
        println!("{}", metric.line(prefix));
    }
    for metric in &outcome.layers {
        println!("{}", metric.line("layer"));
    }
    for line in self_table(&outcome.self_rows) {
        println!("{line}");
    }
}

/// The metrics of the JSON result line.
fn result_metrics(config: &Config, outcome: &Outcome) -> Vec<(String, f64, &'static str)> {
    let value = |metrics: &[Metric], name: &str| find(metrics, name).and_then(|m| m.value);
    if config.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let found = match name {
                    "gen.late_ms_p99" => outcome.late_metric().value,
                    "gen.threads" => Some(outcome.gen_threads as f64),
                    "gen.connections" => Some(outcome.gen_connections as f64),
                    _ => value(&outcome.layers, name),
                };
                (name.to_owned(), found.unwrap_or(0.0), unit)
            })
            .collect()
    } else {
        RESULT_E2E
            .iter()
            .map(|&(name, unit)| {
                (
                    name.to_owned(),
                    value(&outcome.e2e, name).unwrap_or(0.0),
                    unit,
                )
            })
            .collect()
    }
}

fn run_one(mut config: Config) -> ExitCode {
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        config.workload,
        config.seed,
        config.seconds,
        u8::from(config.trace)
    );
    let tracer = config.trace.then(Tracer::default);
    let ticks_before = env::machine_ticks();
    let mut untraced_ok = true;
    if config.trace {
        match child(&config.args(false)) {
            Ok((ok, stdout)) => {
                untraced_ok = ok;
                config.untraced = parse_metrics(&stdout, "e2e");
                config.untraced_layers = parse_metrics(&stdout, "layer");
            }
            Err(err) => {
                eprintln!("perfbench: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut outcome = match run_workload(&config, tracer.as_ref()) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("perfbench: {} failed: {err}", config.workload);
            return ExitCode::FAILURE;
        }
    };
    let names: Vec<&str> = outcome.e2e.iter().map(|m| m.name.as_str()).collect();
    outcome.gate(
        "metric_set",
        names == report::e2e_names(&config.workload)
            && outcome
                .e2e
                .iter()
                .chain(&outcome.layers)
                .all(|m| report::valid_name(&m.name)),
        "the workload reports exactly its end-to-end metrics, with well-formed names",
    );
    if let Some(tracer) = &tracer {
        outcome.gate(
            "untraced_run_passed",
            untraced_ok,
            "the untraced child run passed its own gates",
        );
        let spans = tracer.snapshot();
        outcome.self_rows = trace::attribute(&spans);
        let path = std::path::Path::new(env::WORK_DIR)
            .join(format!("trace-{}-seed{}.tsv", config.workload, config.seed));
        let written = std::fs::create_dir_all(env::WORK_DIR)
            .and_then(|()| std::fs::write(&path, trace::to_tsv(&spans)));
        match written {
            Ok(()) => outcome.fact(
                "trace.spans",
                format!("{} written to {}", spans.len(), path.display()),
            ),
            Err(err) => eprintln!("perfbench: writing {}: {err}", path.display()),
        }
        let rooted: u64 = outcome.self_rows.iter().map(|r| r.self_ns).sum();
        let unattributed: u64 = outcome
            .self_rows
            .iter()
            .filter(|r| r.layer == "unattributed")
            .map(|r| r.self_ns)
            .sum();
        outcome.layers.push(Metric::new(
            "trace.unattributed_share",
            "ratio",
            unattributed as f64 / rooted.max(1) as f64,
            spans.len(),
        ));
    }
    let ticks_after = env::machine_ticks();
    let steal_share = (ticks_after.0.saturating_sub(ticks_before.0)) as f64
        / (ticks_after.1.saturating_sub(ticks_before.1)).max(1) as f64;
    print_outcome(&config, &outcome, steal_share);
    let correct = outcome.correct();
    println!(
        "{}",
        result_json(
            correct,
            outcome.attempted,
            outcome.failed,
            &result_metrics(&config, &outcome)
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a process of its own so its memory and
/// CPU numbers are its alone; fails if any workload's gates fail.
fn run_all(config: &Config) -> ExitCode {
    let mut passed = 0;
    for workload in WORKLOADS {
        let one = Config {
            workload: workload.to_owned(),
            ..config.clone()
        };
        match child(&one.args(config.trace)) {
            Ok((ok, stdout)) => {
                print!("{stdout}");
                passed += usize::from(ok);
            }
            Err(err) => eprintln!("perfbench: {err}"),
        }
    }
    println!(
        "# all: {passed} of {} workloads passed their gates",
        WORKLOADS.len()
    );
    if passed == WORKLOADS.len() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if config.workload == "all" {
        run_all(&config)
    } else {
        run_one(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let config =
            parse_args(&args("--workload campaign --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(config.workload, "campaign");
        assert_eq!((config.seed, config.seconds, config.trace), (7, 12, true));
        assert_eq!(
            config.args(false),
            args("--workload campaign --seed 7 --seconds 12 --trace 0")
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload campaign --trace 2")).is_err());
        assert!(parse_args(&args("--workload campaign --seconds")).is_err());
    }

    #[test]
    fn e2e_lines_round_trip_through_the_parser() {
        let metrics = vec![
            Metric::new("setup_s", "s", 0.25, 20),
            Metric {
                value: None,
                ..Metric::new("visible_p99_ms", "ms", 0.0, 12)
            },
        ];
        let text: String = metrics.iter().map(|m| m.line("e2e") + "\n").collect();
        assert_eq!(parse_metrics(&text, "e2e"), metrics);
        assert!(parse_metrics(&text, "layer").is_empty());
    }
}
