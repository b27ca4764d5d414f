//! A smoke-size pass of every workload: each passes its correctness
//! gates, prints exactly its own end-to-end metrics with a unit and a
//! sample count, and ends with the JSON result line.

use std::process::Command;

/// The end-to-end metrics each workload must print, and no others.
const EXPECTED: [(&str, &[&str]); 3] = [
    (
        "live_site",
        &[
            "setup_s",
            "ingest_events_per_s",
            "visible_p50_ms",
            "visible_p99_ms",
            "location_of_p50_us",
            "location_of_p99_us",
            "peak_rss_mb",
        ],
    ),
    (
        "durable_restart",
        &[
            "setup_s",
            "ingest_events_per_s",
            "visible_p50_ms",
            "visible_p99_ms",
            "location_at_p50_us",
            "location_at_p99_us",
            "zone_history_p50_ms",
            "zone_history_p90_ms",
            "store_bytes_per_event",
            "peak_rss_mb",
        ],
    ),
    ("campaign", &["setup_s", "objects_per_s", "peak_rss_mb"]),
];

fn run(workload: &str, trace: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

#[test]
fn every_workload_emits_exactly_its_end_to_end_metrics() {
    for (workload, expected) in EXPECTED {
        let stdout = run(workload, "0");
        let mut names = Vec::new();
        for line in stdout.lines().filter(|l| l.starts_with("e2e ")) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert!(fields.len() >= 6, "{line}");
            let value: f64 = fields[3].parse().unwrap_or_else(|_| panic!("{line}"));
            assert!(value.is_finite() && value > 0.0, "{line}");
            assert!(fields[5].starts_with("n="), "{line}");
            names.push(fields[1]);
        }
        assert_eq!(names, expected, "{workload}");
        if workload == "live_site" {
            // Counted from the response lines the daemon wrote.
            let bytes = stdout
                .lines()
                .find_map(|l| l.strip_prefix("layer site_server.rpc_bytes_per_response = "))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok());
            assert!(bytes.is_some_and(|b| b > 0.0), "{stdout}");
        }
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        for key in ["setup_s", "peak_rss_mb"] {
            assert!(
                last.contains(&format!("\"{key}\": {{\"value\": ")),
                "{key} in {last}"
            );
        }
    }
}

#[test]
fn traced_run_prints_both_runs_and_a_self_time_table() {
    let stdout = run("campaign", "1");
    for (prefix, count) in [("e2e.untraced ", 3), ("e2e.traced ", 3)] {
        assert_eq!(
            stdout.lines().filter(|l| l.starts_with(prefix)).count(),
            count,
            "{prefix}"
        );
    }
    assert!(stdout
        .lines()
        .any(|l| l.starts_with("self campaign unattributed ")));
    assert!(stdout
        .lines()
        .any(|l| l.starts_with("layer sim.link_evals = ")));
    assert!(stdout
        .lines()
        .last()
        .unwrap()
        .contains("\"gen2.round_time_share\""));
}
