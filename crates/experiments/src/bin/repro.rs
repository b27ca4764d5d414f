//! The reproduction harness: regenerates every table and figure of the
//! paper.
//!
//! ```text
//! repro [EXPERIMENT] [--trials N] [--seed S]
//!
//! EXPERIMENT: fig2 | fig4 | table1 | table2 | table3 | table4 | table5 |
//!             fig6 | fig7 | readers | readrate | spacing | tagdesign |
//!             ablation | sensitivity | speed | power | all (default)
//! --trials N  trials for every experiment, in place of each one's own count
//!             (by default the paper's repetitions)
//! --seed S    master seed (default 2007)
//! ```
//!
//! The process exits non-zero if any executed experiment's shape check is
//! violated, so `repro all` doubles as the reproduction's CI gate.

use rfid_experiments::experiments::{
    ablation, fig2, fig4, figs67, power, readers, readrate, sensitivity, spacing_advice, speed,
    table1, table2, table3, table45, tagdesign,
};
use rfid_experiments::report::counters_line;
use rfid_experiments::Calibration;
use rfid_sim::TrialExecutor;
use std::process::ExitCode;

struct Options {
    which: String,
    trials: Option<u64>,
    seed: u64,
}

fn parse_args() -> Result<Options, String> {
    let mut which = "all".to_owned();
    let mut trials = None;
    let mut seed = 2007;
    // audit:allow(process-env, reason = "CLI argument parsing selects which experiment runs; seeds and trial counts stay explicit")
    let mut args = std::env::args().skip(1);
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
            "--help" | "-h" => {
                return Err("usage: repro [EXPERIMENT] [--trials N] [--seed S]".to_owned())
            }
            name if !name.starts_with('-') => which = name.to_owned(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Options {
        which,
        trials,
        seed,
    })
}

/// Tracks executed experiments and their shape-check outcomes.
#[derive(Default)]
struct Scorecard {
    entries: Vec<(&'static str, bool)>,
}

impl Scorecard {
    fn record(&mut self, name: &'static str, holds: bool) {
        self.entries.push((name, holds));
    }

    fn all_hold(&self) -> bool {
        self.entries.iter().all(|(_, holds)| *holds)
    }

    fn summary(&self) -> String {
        let holding = self.entries.iter().filter(|(_, holds)| *holds).count();
        let mut out = format!("shape checks: {holding}/{} HOLD", self.entries.len());
        for (name, holds) in &self.entries {
            if !holds {
                out.push_str(&format!("\n  VIOLATED: {name}"));
            }
        }
        out
    }
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let cal = Calibration::default();
    cal.assert_plausible();
    let executor = TrialExecutor::new();
    println!(
        "calibration: {} [{} sim thread{}]\n",
        cal.describe(),
        executor.threads(),
        if executor.threads() == 1 { "" } else { "s" }
    );

    let run = |name: &str| options.which == name || options.which == "all";
    let trials = |paper_default: u64| options.trials.unwrap_or(paper_default);
    let seed = options.seed;
    let mut scorecard = Scorecard::default();
    rfid_sim::counters::reset();

    if run("fig2") {
        let result = fig2::run_with(&cal, trials(40), seed, &executor);
        scorecard.record("fig2", result.shape_holds());
        println!("{}", fig2::render(&result));
    }
    if run("fig4") {
        let result = fig4::run_with(&cal, trials(10), seed, &executor);
        scorecard.record("fig4", result.shape_holds());
        println!("{}", fig4::render(&result));
    }
    if run("table1") {
        let result = table1::run_with(&cal, trials(12), seed, &executor);
        scorecard.record("table1", result.shape_holds());
        println!("{}", table1::render(&result));
    }
    if run("table2") {
        let result = table2::run(&cal, trials(20), seed);
        scorecard.record("table2", result.shape_holds());
        println!("{}", table2::render(&result));
    }
    if run("table3") {
        let result = table3::run(&cal, trials(12), seed);
        scorecard.record("table3+fig5", result.shape_holds());
        println!("{}", table3::render(&result));
    }
    if run("table4") || run("table5") || run("fig6") || run("fig7") {
        let t45 = table45::run(&cal, trials(20), seed);
        if run("table4") || run("table5") {
            scorecard.record("table4+table5", t45.shape_holds());
            println!("{}", table45::render(&t45));
        }
        if run("fig6") || run("fig7") {
            let t2 = table2::run(&cal, trials(20), seed.wrapping_add(1));
            let fig6 = figs67::figure6_bars(&t2, &t45);
            scorecard.record("fig6+fig7", figs67::shape_holds(&fig6));
            println!("{}", figs67::render(&t2, &t45));
        }
    }
    if run("readers") {
        let result = readers::run_with(&cal, trials(12), seed, &executor);
        scorecard.record("readers", result.shape_holds());
        println!("{}", readers::render(&result));
    }
    if run("readrate") {
        let result = readrate::run(&cal, trials(10), seed);
        scorecard.record("readrate", result.shape_holds());
        println!("{}", readrate::render(&result));
    }
    if run("spacing") {
        let result = spacing_advice::run(&cal, trials(10), seed);
        scorecard.record("spacing", result.shape_holds());
        println!("{}", spacing_advice::render(&result));
    }
    if run("tagdesign") {
        let result = tagdesign::run(&cal, trials(12), seed);
        scorecard.record("tagdesign", result.shape_holds());
        println!("{}", tagdesign::render(&result));
    }
    if run("ablation") {
        let result = ablation::run(&cal, trials(8), seed);
        scorecard.record("ablation", result.shape_holds());
        println!("{}", ablation::render(&result));
    }
    if run("sensitivity") {
        let result = sensitivity::run(&cal, trials(8), seed);
        scorecard.record("sensitivity", result.shape_holds());
        println!("{}", sensitivity::render(&result));
    }
    if run("speed") {
        let result = speed::run_with(&cal, trials(12), seed, &executor);
        scorecard.record("speed", result.shape_holds());
        println!("{}", speed::render(&result));
    }
    if run("power") {
        let result = power::run_with(&cal, trials(20), seed, &executor);
        scorecard.record("power", result.shape_holds());
        println!("{}", power::render(&result));
    }

    if scorecard.entries.is_empty() {
        eprintln!(
            "unknown experiment {:?}; expected one of fig2 fig4 table1 table2 \
             table3 table4 table5 fig6 fig7 readers readrate spacing \
             tagdesign ablation sensitivity speed power all",
            options.which
        );
        return ExitCode::FAILURE;
    }

    println!("{}", counters_line(&rfid_sim::counters::snapshot()));
    println!("{}", scorecard.summary());
    if scorecard.all_hold() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
