//! One module per table/figure of the paper, and [`EXPERIMENTS`], the
//! list that names each of them once.

pub mod ablation;
pub mod fig2;
pub mod fig4;
pub mod figs67;
pub mod power;
pub mod readers;
pub mod readrate;
pub mod sensitivity;
pub mod spacing_advice;
pub mod speed;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table45;
pub mod tagdesign;

use crate::Calibration;
use fig4::Fig4Result;
use rfid_sim::TrialExecutor;
use table45::Table45Result;

/// One shape-checked result of the paper's evaluation, as `repro` runs
/// it.
#[derive(Debug)]
pub struct Experiment {
    /// The `repro` subcommands that select it.
    pub names: &'static [&'static str],
    /// Its line on `repro`'s scorecard.
    pub label: &'static str,
    /// Its trial count at the paper's repetitions.
    pub paper_trials: u64,
    /// Runs it at a trial count and renders its report.
    pub run: fn(&mut Context<'_>, u64) -> Outcome,
}

/// What running one experiment produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The rendered report, ending with its shape-check line.
    pub text: String,
    /// Whether the shape check held.
    pub holds: bool,
}

/// What the experiments of one invocation share: the calibration, the
/// master seed and the executor, and the two runs that two experiments
/// each report (Figure 4 with the spacing advice, and Tables 4/5 with
/// Figures 6/7), so each of those is simulated once.
#[derive(Debug)]
pub struct Context<'a> {
    cal: &'a Calibration,
    seed: u64,
    executor: &'a TrialExecutor,
    fig4: Option<Fig4Result>,
    table45: Option<Table45Result>,
}

impl<'a> Context<'a> {
    /// A context with no runs made yet.
    #[must_use]
    pub fn new(cal: &'a Calibration, seed: u64, executor: &'a TrialExecutor) -> Self {
        Self {
            cal,
            seed,
            executor,
            fig4: None,
            table45: None,
        }
    }

    fn fig4(&mut self, trials: u64) -> &Fig4Result {
        let kept = self.fig4.take().filter(|run| run.trials == trials);
        self.fig4
            .insert(kept.unwrap_or_else(|| fig4::run(self.cal, trials, self.seed, self.executor)))
    }

    fn table45(&mut self, trials: u64) -> &Table45Result {
        let kept = self.table45.take().filter(|run| run.trials == trials);
        self.table45.insert(
            kept.unwrap_or_else(|| table45::run(self.cal, trials, self.seed, self.executor)),
        )
    }

    /// Runs a runner that shares nothing with another experiment.
    fn report<R>(
        &self,
        trials: u64,
        run: fn(&Calibration, u64, u64, &TrialExecutor) -> R,
        render: fn(&R) -> String,
        holds: fn(&R) -> bool,
    ) -> Outcome {
        outcome(
            &run(self.cal, trials, self.seed, self.executor),
            render,
            holds,
        )
    }
}

fn outcome<R>(result: &R, render: fn(&R) -> String, holds: fn(&R) -> bool) -> Outcome {
    Outcome {
        text: render(result),
        holds: holds(result),
    }
}

/// Every experiment, in the order `repro all` prints them.
pub const EXPERIMENTS: [Experiment; 15] = [
    Experiment {
        names: &["fig2"],
        label: "fig2",
        paper_trials: 40,
        run: |cx, n| cx.report(n, fig2::run, fig2::render, |r| r.shape_holds()),
    },
    Experiment {
        names: &["fig4"],
        label: "fig4",
        paper_trials: 10,
        run: |cx, n| outcome(cx.fig4(n), fig4::render, |r| r.shape_holds()),
    },
    Experiment {
        names: &["table1"],
        label: "table1",
        paper_trials: 12,
        run: |cx, n| cx.report(n, table1::run, table1::render, |r| r.shape_holds()),
    },
    Experiment {
        names: &["table2"],
        label: "table2",
        paper_trials: 20,
        run: |cx, n| cx.report(n, table2::run, table2::render, |r| r.shape_holds()),
    },
    Experiment {
        names: &["table3"],
        label: "table3+fig5",
        paper_trials: 12,
        run: |cx, n| cx.report(n, table3::run, table3::render, |r| r.shape_holds()),
    },
    Experiment {
        names: &["table4", "table5"],
        label: "table4+table5",
        paper_trials: 20,
        run: |cx, n| outcome(cx.table45(n), table45::render, |r| r.shape_holds()),
    },
    Experiment {
        names: &["fig6", "fig7"],
        label: "fig6+fig7",
        paper_trials: 20,
        // The figures' one-subject baseline comes from a Table 2 run of
        // their own, one seed past the one Table 2 reports.
        run: |cx, n| {
            let table2 = table2::run(cx.cal, n, cx.seed.wrapping_add(1), cx.executor);
            let table45 = cx.table45(n);
            Outcome {
                text: figs67::render(&table2, table45),
                holds: figs67::shape_holds(&figs67::figure6_bars(&table2, table45)),
            }
        },
    },
    Experiment {
        names: &["readers"],
        label: "readers",
        paper_trials: 12,
        run: |cx, n| cx.report(n, readers::run, readers::render, |r| r.shape_holds()),
    },
    Experiment {
        names: &["readrate"],
        label: "readrate",
        paper_trials: 10,
        run: |cx, n| cx.report(n, readrate::run, readrate::render, |r| r.shape_holds()),
    },
    Experiment {
        names: &["spacing"],
        label: "spacing",
        paper_trials: 10,
        run: |cx, n| {
            let advice = spacing_advice::from_fig4(cx.fig4(n));
            outcome(&advice, spacing_advice::render, |a| a.shape_holds())
        },
    },
    Experiment {
        names: &["tagdesign"],
        label: "tagdesign",
        paper_trials: 12,
        run: |cx, n| cx.report(n, tagdesign::run, tagdesign::render, |r| r.shape_holds()),
    },
    Experiment {
        names: &["ablation"],
        label: "ablation",
        paper_trials: 8,
        run: |cx, n| cx.report(n, ablation::run, ablation::render, |r| r.shape_holds()),
    },
    Experiment {
        names: &["sensitivity"],
        label: "sensitivity",
        paper_trials: 8,
        run: |cx, n| {
            cx.report(n, sensitivity::run, sensitivity::render, |r| {
                r.shape_holds()
            })
        },
    },
    Experiment {
        names: &["speed"],
        label: "speed",
        paper_trials: 12,
        run: |cx, n| cx.report(n, speed::run, speed::render, |r| r.shape_holds()),
    },
    Experiment {
        names: &["power"],
        label: "power",
        paper_trials: 20,
        run: |cx, n| cx.report(n, power::run, power::render, |r| r.shape_holds()),
    },
];

/// Every name that selects an experiment, in list order.
pub fn names() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS
        .iter()
        .flat_map(|experiment| experiment.names.iter().copied())
}

/// The experiments `name` selects, in list order; `all` selects every
/// one. `None` if `name` is neither `all` nor one of [`names`].
#[must_use]
pub fn select(name: &str) -> Option<Vec<&'static Experiment>> {
    let selected: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|experiment| name == "all" || experiment.names.contains(&name))
        .collect();
    (!selected.is_empty()).then_some(selected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{OrientationCase, TAG_COUNT};
    use rfid_stats::StreamSummary;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = names().collect();
        let listed = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), listed);
        assert!(!names.contains(&"all"), "`all` selects every experiment");
    }

    #[test]
    fn paper_trial_counts_are_the_papers() {
        let listed: Vec<String> = EXPERIMENTS
            .iter()
            .flat_map(|e| {
                e.names
                    .iter()
                    .map(|name| format!("{name} {}", e.paper_trials))
            })
            .collect();
        assert_eq!(
            listed.join(", "),
            "fig2 40, fig4 10, table1 12, table2 20, table3 12, table4 20, table5 20, \
             fig6 20, fig7 20, readers 12, readrate 10, spacing 10, tagdesign 12, \
             ablation 8, sensitivity 8, speed 12, power 20"
        );
    }

    #[test]
    fn all_selects_every_scorecard_label() {
        let labels = |name| select(name).map(|e| e.iter().map(|e| e.label).collect::<Vec<_>>());
        assert_eq!(
            labels("all").map(|l| l.join(" ")).as_deref(),
            Some(
                "fig2 fig4 table1 table2 table3+fig5 table4+table5 fig6+fig7 readers \
                 readrate spacing tagdesign ablation sensitivity speed power"
            )
        );
        assert_eq!(labels("table5"), Some(vec!["table4+table5"]));
        assert_eq!(labels("fig5"), None);
    }

    fn entry(label: &str) -> &'static Experiment {
        EXPERIMENTS
            .iter()
            .find(|e| e.label == label)
            .expect("label is listed")
    }

    #[test]
    fn spacing_advice_reuses_the_contexts_figure4_run() {
        let cal = Calibration::default();
        let executor = TrialExecutor::serial();
        let mut cx = Context::new(&cal, 2007, &executor);
        // A hand-made Figure 4 run that read every tag at every spacing,
        // which one simulated pass per cell never does at 0.3 mm.
        let mut made = Fig4Result {
            cells: Vec::new(),
            trials: 1,
        };
        for orientation in OrientationCase::ALL {
            for spacing_m in fig4::SPACINGS_M {
                let mut tags_read = StreamSummary::new();
                tags_read.push(TAG_COUNT as f64);
                made.cells.push(fig4::Fig4Cell {
                    orientation,
                    spacing_m,
                    tags_read,
                });
            }
        }
        cx.fig4 = Some(made.clone());
        let outcome = (entry("spacing").run)(&mut cx, 1);
        let advice = spacing_advice::from_fig4(&made);
        assert_eq!(outcome.text, spacing_advice::render(&advice));
    }

    #[test]
    fn figures_6_and_7_rerun_table2_one_seed_on() {
        let cal = Calibration::default();
        let executor = TrialExecutor::serial();
        let seed = 2000;
        let mut cx = Context::new(&cal, seed, &executor);
        // A Table 4/5 run with no rows, so only Table 2 is simulated:
        // Figure 6 then draws its Table 2 baseline bar alone.
        let empty = || table45::HumanBase { spots: Vec::new() };
        let made = Table45Result {
            bases: [empty(), empty(), empty()],
            rows: Vec::new(),
            trials: 1,
        };
        cx.table45 = Some(made.clone());
        let outcome = (entry("fig6+fig7").run)(&mut cx, 1);
        let rerun = table2::run(&cal, 1, seed + 1, &executor);
        assert_eq!(outcome.text, figs67::render(&rerun, &made));
        let reported = table2::run(&cal, 1, seed, &executor);
        assert_ne!(
            outcome.text,
            figs67::render(&reported, &made),
            "the seed must tell the two Table 2 runs apart"
        );
    }
}
