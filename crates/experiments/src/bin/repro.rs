//! The reproduction harness: regenerates every table and figure of the
//! paper.
//!
//! ```text
//! repro [EXPERIMENT] [--trials N] [--seed S]
//! ```
//!
//! The experiments are those of
//! [`rfid_experiments::experiments::EXPERIMENTS`], and `repro --help`
//! names them. `all`, the default, runs every one.
//!
//! The process exits non-zero if any executed experiment's shape check is
//! violated, so `repro all` doubles as the reproduction's CI gate.

use rfid_experiments::experiments::{names, select, Context, Experiment};
use rfid_experiments::report::counters_line;
use rfid_experiments::Calibration;
use rfid_sim::TrialExecutor;
use std::io::{self, Write};
use std::process::ExitCode;

enum Command {
    Help,
    Run {
        experiments: Vec<&'static Experiment>,
        trials: Option<u64>,
        seed: u64,
    },
}

fn usage() -> String {
    format!(
        "usage: repro [EXPERIMENT] [--trials N] [--seed S]\n\
         \x20 EXPERIMENT  one of {}, or all (the default)\n\
         \x20 --trials N  trials for every experiment, in place of each one's own count\n\
         \x20             (by default the paper's repetitions)\n\
         \x20 --seed S    master seed (default 2007)\n",
        names().collect::<Vec<_>>().join(" ")
    )
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut which = "all".to_owned();
    let mut trials = None;
    let mut seed = 2007;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trials" => {
                let value = args.next().ok_or("--trials needs a value")?;
                let parsed: u64 = value.parse().map_err(|_| "invalid --trials value")?;
                if parsed == 0 {
                    return Err("--trials must be at least 1".to_owned());
                }
                trials = Some(parsed);
            }
            "--seed" => {
                let value = args.next().ok_or("--seed needs a value")?;
                seed = value.parse().map_err(|_| "invalid --seed value")?;
            }
            "--help" | "-h" => return Ok(Command::Help),
            name if !name.starts_with('-') => which = name.to_owned(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let experiments = select(&which).ok_or_else(|| {
        format!(
            "unknown experiment {which:?}; expected one of {} all",
            names().collect::<Vec<_>>().join(" ")
        )
    })?;
    Ok(Command::Run {
        experiments,
        trials,
        seed,
    })
}

/// The scorecard line: how many executed shape checks held, and the
/// label of each that did not.
fn summary(scorecard: &[(&str, bool)]) -> String {
    let holding = scorecard.iter().filter(|(_, holds)| *holds).count();
    let mut out = format!("shape checks: {holding}/{} HOLD", scorecard.len());
    for (label, holds) in scorecard {
        if !holds {
            out.push_str(&format!("\n  VIOLATED: {label}"));
        }
    }
    out
}

/// Runs `experiments` and prints their reports; returns whether every
/// shape check held.
fn run(
    out: &mut impl Write,
    experiments: &[&Experiment],
    trials: Option<u64>,
    seed: u64,
) -> io::Result<bool> {
    let cal = Calibration::default();
    cal.assert_plausible();
    let executor = TrialExecutor::new();
    writeln!(
        out,
        "calibration: {} [{} sim thread{}]\n",
        cal.describe(),
        executor.threads(),
        if executor.threads() == 1 { "" } else { "s" }
    )?;

    let mut context = Context::new(&cal, seed, &executor);
    let mut scorecard = Vec::new();
    rfid_sim::counters::reset();
    for experiment in experiments {
        let outcome = (experiment.run)(&mut context, trials.unwrap_or(experiment.paper_trials));
        scorecard.push((experiment.label, outcome.holds));
        writeln!(out, "{}", outcome.text)?;
    }
    writeln!(out, "{}", counters_line(&rfid_sim::counters::snapshot()))?;
    writeln!(out, "{}", summary(&scorecard))?;
    Ok(scorecard.iter().all(|(_, holds)| *holds))
}

fn main() -> ExitCode {
    // audit:allow(process-env, reason = "CLI argument parsing selects which experiment runs; seeds and trial counts stay explicit")
    let command = match parse_args(std::env::args().skip(1)) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let mut out = io::stdout().lock();
    let result = match command {
        Command::Help => out.write_all(usage().as_bytes()).map(|()| true),
        Command::Run {
            experiments,
            trials,
            seed,
        } => run(&mut out, &experiments, trials, seed),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(err) => {
            eprintln!("repro: cannot write the report: {err}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(args.iter().map(|&arg| arg.to_owned()))
    }

    #[test]
    fn usage_and_unknown_name_list_every_name() {
        assert!(matches!(parse(&["bogus", "--help"]), Ok(Command::Help)));
        assert!(
            matches!(parse(&[]), Ok(Command::Run { experiments, .. }) if experiments.len() == 15)
        );
        let usage = usage();
        let Err(unknown) = parse(&["fig5"]) else {
            panic!("fig5 is not an experiment name");
        };
        assert!(unknown.starts_with("unknown experiment \"fig5\"; expected one of "));
        for name in names().chain(["all"]) {
            let word = |text: &str| text.split([' ', '\n', ',']).any(|w| w == name);
            assert!(word(&usage), "usage omits {name}: {usage}");
            assert!(word(&unknown), "message omits {name}: {unknown}");
        }
    }
}
