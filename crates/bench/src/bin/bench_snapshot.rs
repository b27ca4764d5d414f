//! Snapshot benchmark for what no other tool measures: the memoized
//! channel against its unmemoized reference, the two online operator
//! chains, and the fleet campaign. Writes one JSON document.
//!
//! ```text
//! bench_snapshot [OUT_PATH] [--smoke] [--fleet]
//! ```
//!
//! Every case is a row of `CASES`. Its `run` takes the `Sizes`, runs the
//! case's identity gate, then its timed repetitions (the fastest counts),
//! and returns named fields. A failed gate is an error exit and no file
//! is written, so every recorded number comes from a checked run.
//!
//! * `cases` — `moving_cart_pass`, the 12-box cart pass, where every tag
//!   moves, so only the round-scoped `(tag, t)` memo, the fading cache
//!   and allocation reuse can help; and `static_read_range`, the parked
//!   read-range scenario, where the `ScenarioCache` already hoisted the
//!   geometry, which guards the static path against the memo layers
//!   regressing it. Gate: the memoized trials equal the reference trials
//!   bit for bit.
//! * `streaming` — events/second through the reorder buffer into the
//!   sighting operator (`reads_to_sightings`), and through zone
//!   observation into the location tracker (`reads_to_zone_history`).
//!   Gate: each chain emits what its batch API emits
//!   (`SightingPipeline::process`; `LocationTracker::run_batch` over
//!   `Site::observations`, whose final tracker must equal the chain's).
//! * `fleet_campaign` — objects/second and the peak live accumulator
//!   bytes of a procedural [`CampaignSpec`]: `smoke`, `standard`, or the
//!   `fleet` preset (≥100k simulated objects) under `--fleet`. Gates: the
//!   first instance's streaming fold equals its batch fold, and a run
//!   halted halfway and resumed reaches the timed run's state digest.
//!
//! The daemon, the wire and the durable store are timed by `perfbench`
//! (`live_site`, `durable_restart`), the benchmark of record. `--smoke`
//! shrinks every case so CI runs the binary in seconds. All floats go
//! through [`rfid_bench::json_f64`], so the document parses back to the
//! exact measured bits.

use rfid_bench::json_f64;
use rfid_experiments::campaign::{
    run_campaign_checkpointed, run_instance, CampaignAccumulator, CampaignRunConfig, CampaignState,
};
use rfid_experiments::scenarios::{
    object_pass_scenario, read_range_scenario, BoxFace, ObjectPassConfig,
};
use rfid_experiments::Calibration;
use rfid_gen2::Epc96;
use rfid_sim::{
    run_scenario_reference, CampaignSpec, ReadEvent, Scenario, ScenarioCompiler, TrialExecutor,
};
use rfid_track::stream::{ObservationStream, Operator, ReorderBuffer, SightingStream};
use rfid_track::{LocationTracker, ObjectRegistry, SightingPipeline, Site};
use std::process::ExitCode;
use std::time::Instant;

/// A case's results by name; each value is already a JSON token.
type Fields = Vec<(&'static str, String)>;

/// One row of the snapshot: its JSON section, its name, and its run.
struct Case {
    section: &'static str,
    name: &'static str,
    run: fn(&Sizes) -> Result<Fields, String>,
}

/// Every case in output order; the cases of a section are adjacent.
const CASES: &[Case] = &[
    Case {
        section: "cases",
        name: "moving_cart_pass",
        run: moving_cart_pass,
    },
    Case {
        section: "cases",
        name: "static_read_range",
        run: static_read_range,
    },
    Case {
        section: "streaming",
        name: "reads_to_sightings",
        run: reads_to_sightings,
    },
    Case {
        section: "streaming",
        name: "reads_to_zone_history",
        run: reads_to_zone_history,
    },
    Case {
        section: "fleet_campaign",
        name: "fleet_campaign",
        run: fleet_campaign,
    },
];

/// How large each case runs.
struct Sizes {
    /// Trials per side of `moving_cart_pass`.
    moving_trials: u64,
    /// Trials per side of `static_read_range`.
    static_trials: u64,
    /// Reads in the streaming cases' synthetic stream.
    stream_events: usize,
    /// Timed repetitions of the memo and streaming cases; the fastest
    /// counts, which filters scheduler noise out of short runs.
    repeats: u32,
    /// The campaign preset `fleet_campaign` runs, by name.
    campaign: (&'static str, fn(u64) -> CampaignSpec),
}

impl Sizes {
    fn new(smoke: bool, fleet: bool) -> Self {
        Self {
            moving_trials: if smoke { 1 } else { 16 },
            static_trials: if smoke { 2 } else { 48 },
            stream_events: if smoke { 20_000 } else { 400_000 },
            repeats: if smoke { 1 } else { 5 },
            campaign: if fleet {
                ("fleet", CampaignSpec::fleet)
            } else if smoke {
                ("smoke", CampaignSpec::smoke)
            } else {
                ("standard", CampaignSpec::standard)
            },
        }
    }
}

/// Wall-clock seconds `work` takes.
fn seconds(work: impl FnOnce()) -> f64 {
    let start = Instant::now();
    work();
    start.elapsed().as_secs_f64()
}

fn moving_cart_pass(sizes: &Sizes) -> Result<Fields, String> {
    let config = ObjectPassConfig::single(BoxFace::Front);
    let scenario = object_pass_scenario(&Calibration::default(), &config).0;
    memo_case(&scenario, sizes.moving_trials, sizes.repeats)
}

fn static_read_range(sizes: &Sizes) -> Result<Fields, String> {
    let scenario = read_range_scenario(&Calibration::default(), 3.0);
    memo_case(&scenario, sizes.static_trials, sizes.repeats)
}

/// Times `trials` serial runs of the memoized path (as `run_scenario`
/// and the executor use it) against the unmemoized reference. Gate:
/// both produce the same outputs, bit for bit. The gate run's simulator
/// counters go to stderr.
fn memo_case(scenario: &Scenario, trials: u64, repeats: u32) -> Result<Fields, String> {
    let executor = TrialExecutor::serial();
    let memoized = || executor.run_scenario_trials(scenario, trials, 1);
    let reference = || {
        (0..trials)
            .map(|i| run_scenario_reference(scenario, 1 + i))
            .collect::<Vec<_>>()
    };
    rfid_sim::counters::reset();
    let gated = memoized();
    eprintln!("  memoized:   {}", rfid_sim::counters::snapshot());
    rfid_sim::counters::reset();
    if gated != reference() {
        return Err("the memoized trials differ from the reference trials".to_owned());
    }
    eprintln!("  unmemoized: {}", rfid_sim::counters::snapshot());
    // Interleave the sides so both see the same machine conditions.
    let (mut memoized_s, mut unmemoized_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..repeats {
        memoized_s = memoized_s.min(seconds(|| drop(memoized())));
        unmemoized_s = unmemoized_s.min(seconds(|| drop(reference())));
    }
    Ok(vec![
        ("trials", trials.to_string()),
        ("memoized_s", json_f64(memoized_s)),
        ("unmemoized_s", json_f64(unmemoized_s)),
        ("speedup", json_f64(unmemoized_s / memoized_s)),
    ])
}

/// Objects in the streaming cases, two tags each.
const OBJECTS: usize = 4;

/// Reads in one pass of an object through a portal.
const PASS_READS: usize = 750;

/// A synthetic read stream shaped like a busy two-portal corridor, a
/// read every millisecond. The objects pass in turn: one pass is
/// `PASS_READS` reads of one object at one portal, alternating its two
/// tags and the portal's two antennas. An object's passes alternate the
/// dock and aisle portals, and it is silent for the other objects'
/// passes (2.25 s, longer than the 0.5 s merge gap) in between, so each
/// pass is its own sighting and moves the object's zone once.
fn synthetic_reads(events: usize) -> Vec<ReadEvent> {
    (0..events)
        .map(|i| {
            let pass = i / PASS_READS;
            let tag = pass % OBJECTS * 2 + i % 2;
            ReadEvent {
                time_s: i as f64 * 1e-3,
                reader: pass / OBJECTS % 2,
                antenna: (i / 2) % 2,
                tag,
                epc: Epc96::from_u128(tag as u128 + 1),
            }
        })
        .collect()
}

fn streaming_world() -> (ObjectRegistry, Site) {
    let mut registry = ObjectRegistry::new();
    for object in 0..OBJECTS as u128 {
        let handle = registry.register(format!("case-{object}"));
        registry.attach_tag(handle, Epc96::from_u128(object * 2 + 1));
        registry.attach_tag(handle, Epc96::from_u128(object * 2 + 2));
    }
    let mut site = Site::new();
    let dock = site.add_zone("dock");
    let aisle = site.add_zone("aisle");
    site.assign_portal(0, 0, dock);
    site.assign_portal(0, 1, dock);
    site.assign_portal(1, 0, aisle);
    site.assign_portal(1, 1, aisle);
    (registry, site)
}

/// Feeds `reads` through `chain` with a watermark every 1,000 reads
/// (one polling window per second of stream time), handing each batch
/// of outputs to `emit`.
fn drive<Op>(chain: &mut Op, reads: &[ReadEvent], mut emit: impl FnMut(Vec<Op::Out>))
where
    Op: Operator<In = ReadEvent>,
{
    for (i, read) in reads.iter().enumerate() {
        emit(chain.push(*read));
        if i % 1000 == 999 {
            emit(chain.advance_watermark(read.time_s));
        }
    }
    emit(chain.finish());
}

/// Times `repeats` runs of a chain built fresh by `make` (the fastest
/// counts) after its gate passed with `outputs` outputs.
fn time_chain<Op, F>(reads: &[ReadEvent], repeats: u32, outputs: usize, make: F) -> Fields
where
    Op: Operator<In = ReadEvent>,
    F: Fn() -> Op,
{
    let mut elapsed_s = f64::INFINITY;
    for _ in 0..repeats {
        let mut chain = make();
        elapsed_s = elapsed_s.min(seconds(|| drive(&mut chain, reads, drop)));
    }
    vec![
        ("events", reads.len().to_string()),
        ("outputs", outputs.to_string()),
        ("elapsed_s", json_f64(elapsed_s)),
        ("events_per_sec", json_f64(reads.len() as f64 / elapsed_s)),
        ("matches_batch", "true".to_owned()),
    ]
}

fn reads_to_sightings(sizes: &Sizes) -> Result<Fields, String> {
    let reads = synthetic_reads(sizes.stream_events);
    let (registry, _) = streaming_world();
    let make = || ReorderBuffer::new().then(SightingStream::new(&registry, 0.5));
    let mut streamed = Vec::new();
    drive(&mut make(), &reads, |out| streamed.extend(out));
    if streamed != SightingPipeline::new(0.5).process(&registry, &reads) {
        return Err("the streamed sightings differ from SightingPipeline::process".to_owned());
    }
    Ok(time_chain(&reads, sizes.repeats, streamed.len(), make))
}

fn reads_to_zone_history(sizes: &Sizes) -> Result<Fields, String> {
    let reads = synthetic_reads(sizes.stream_events);
    let (registry, site) = streaming_world();
    let make = || {
        ReorderBuffer::new()
            .then(ObservationStream::new(&site, &registry))
            .then(LocationTracker::new(5.0))
    };
    let mut chain = make();
    let mut streamed = Vec::new();
    drive(&mut chain, &reads, |out| streamed.extend(out));
    let mut batch = LocationTracker::new(5.0);
    if streamed != batch.run_batch(site.observations(&registry, &reads)) {
        return Err("the streamed transitions differ from LocationTracker::run_batch".to_owned());
    }
    if *chain.second() != batch {
        return Err("the streamed tracker differs from the batch tracker".to_owned());
    }
    Ok(time_chain(&reads, sizes.repeats, streamed.len(), make))
}

/// Drives the campaign engine over a whole procedural spec and reports
/// objects/second and the peak live accumulator bytes (campaign state
/// is O(deployments), never per trial). The halted and resumed runs go
/// before the timed run, whose digest they must reach, so the gate
/// needs no third pass over the campaign.
fn fleet_campaign(sizes: &Sizes) -> Result<Fields, String> {
    let seed = 0xF1EE7;
    let (spec_name, preset) = sizes.campaign;
    let spec = preset(seed);
    let executor = TrialExecutor::new();

    let first = ScenarioCompiler::new(&spec)
        .next()
        .ok_or("the campaign spec compiled no instances")?;
    let mut batch = CampaignAccumulator::new();
    for output in executor.run_scenario_trials(&first.scenario, first.trials, first.base_seed) {
        batch.fold_trial(&output, first.tags);
    }
    if run_instance(&executor, &first) != batch {
        return Err(format!(
            "streaming fold diverged from the batch fold on {}",
            first.label
        ));
    }
    let resumed = halt_and_resume(&executor, &spec)?;

    let mut state = CampaignState::new(&spec);
    let mut peak_accumulator_bytes = state.state_bytes();
    let start = Instant::now();
    for instance in ScenarioCompiler::new(&spec) {
        let acc = run_instance(&executor, &instance);
        peak_accumulator_bytes =
            peak_accumulator_bytes.max(state.state_bytes() + acc.state_bytes());
        state.apply_instance(instance.deployment, &acc);
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    peak_accumulator_bytes = peak_accumulator_bytes.max(state.state_bytes());

    if resumed.digest() != state.digest() {
        return Err("kill+resume digest diverged from the uninterrupted run".to_owned());
    }
    if spec_name == "fleet" && state.total.objects < 100_000 {
        return Err(format!(
            "fleet campaign simulated only {} objects (< 100k)",
            state.total.objects
        ));
    }
    Ok(vec![
        ("spec", format!("\"{spec_name}\"")),
        ("seed", seed.to_string()),
        ("instances", state.instances_done.to_string()),
        ("trials", state.total.trials.to_string()),
        ("objects", state.total.objects.to_string()),
        ("elapsed_s", json_f64(elapsed_s)),
        (
            "objects_per_sec",
            json_f64(state.total.objects as f64 / elapsed_s),
        ),
        ("peak_accumulator_bytes", peak_accumulator_bytes.to_string()),
        ("streaming_matches_batch", "true".to_owned()),
        ("resume_digest_matches", "true".to_owned()),
        ("state_digest", format!("\"{:#018x}\"", state.digest())),
    ])
}

/// Runs `spec` checkpointed, halts it halfway, resumes it from the
/// checkpoint, and returns the resumed run's final state.
fn halt_and_resume(executor: &TrialExecutor, spec: &CampaignSpec) -> Result<CampaignState, String> {
    let path = std::env::temp_dir().join(format!("bench-campaign-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let half = spec.total_instances() / 2;
    let halt = CampaignRunConfig {
        halt_after: Some(half),
    };
    let resumed = (|| -> Result<_, String> {
        let halted = run_campaign_checkpointed(executor, spec, &path, halt)
            .map_err(|e| format!("halted run: {e}"))?;
        if halted.completed {
            return Err("the halt hook did not interrupt the run".to_owned());
        }
        run_campaign_checkpointed(executor, spec, &path, CampaignRunConfig::default())
            .map_err(|e| format!("resumed run: {e}"))
    })();
    let _ = std::fs::remove_file(&path);
    let resumed = resumed?;
    if !resumed.completed || resumed.resumed_from != half {
        return Err(format!(
            "resume picked up at instance {} of {} and completed={}",
            resumed.resumed_from,
            spec.total_instances(),
            resumed.completed
        ));
    }
    Ok(resumed.state)
}

/// Appends one case to the JSON document (opening its section's array
/// when the section changes) and prints the same fields as one line.
fn write_case(json: &mut String, open: &mut &'static str, case: &Case, fields: &Fields) {
    if case.section == *open {
        json.push_str(",\n");
    } else {
        if !open.is_empty() {
            json.push_str("\n  ]");
        }
        json.push_str(&format!(",\n  \"{}\": [\n", case.section));
        *open = case.section;
    }
    json.push_str(&format!("    {{\"name\": \"{}\"", case.name));
    for (key, value) in fields {
        json.push_str(&format!(", \"{key}\": {value}"));
    }
    json.push('}');
    let line: Vec<String> = fields.iter().map(|(k, v)| format!("{k} {v}")).collect();
    println!("{}: {}", case.name, line.join(", "));
}

fn main() -> ExitCode {
    let mut out_path = None;
    let mut smoke = false;
    let mut fleet = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--fleet" => fleet = true,
            other if out_path.is_none() => out_path = Some(other.to_string()),
            other => {
                eprintln!("bench_snapshot: unexpected argument: {other}");
                eprintln!("usage: bench_snapshot [OUT_PATH] [--smoke] [--fleet]");
                return ExitCode::FAILURE;
            }
        }
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_snapshot.json".to_string());
    let sizes = Sizes::new(smoke, fleet);

    let mut json = format!("{{\n  \"benchmark\": \"bench_snapshot\",\n  \"smoke\": {smoke}");
    let mut open = "";
    for case in CASES {
        eprintln!("{}/{}", case.section, case.name);
        match (case.run)(&sizes) {
            Ok(fields) => write_case(&mut json, &mut open, case, &fields),
            Err(e) => {
                eprintln!("bench_snapshot: {}: {e}", case.name);
                return ExitCode::FAILURE;
            }
        }
    }
    json.push_str("\n  ]\n}\n");
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("bench_snapshot: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{
        streaming_world, synthetic_reads, LocationTracker, Operator, SightingPipeline, Sizes,
        CASES, OBJECTS,
    };

    /// Runs one case at `--smoke` size; a failed gate fails the test.
    /// The fleet case's resume gate is proven by the experiments crate's
    /// `campaign_recovery` suite.
    fn passes_gate(name: &str) {
        let case = CASES.iter().find(|case| case.name == name);
        let case = case.unwrap_or_else(|| panic!("no case {name}"));
        if let Err(err) = (case.run)(&Sizes::new(true, false)) {
            panic!("{name}: {err}");
        }
    }

    #[test]
    fn moving_cart_pass_memo_equals_reference() {
        passes_gate("moving_cart_pass");
    }

    #[test]
    fn static_read_range_memo_equals_reference() {
        passes_gate("static_read_range");
    }

    #[test]
    fn reads_to_sightings_equals_batch() {
        passes_gate("reads_to_sightings");
    }

    #[test]
    fn reads_to_zone_history_equals_batch() {
        passes_gate("reads_to_zone_history");
    }

    #[test]
    fn the_streaming_feed_closes_sightings_and_mostly_confirms_zones() {
        let reads = synthetic_reads(Sizes::new(true, false).stream_events);
        let (registry, site) = streaming_world();
        let sightings = SightingPipeline::new(0.5).process(&registry, &reads);
        assert!(
            sightings.len() > OBJECTS,
            "{} sightings of {OBJECTS} objects",
            sightings.len()
        );
        let transitions = LocationTracker::new(5.0).run_batch(site.observations(&registry, &reads));
        assert!(
            transitions.len() < reads.len() / 10,
            "{} zone transitions in {} reads",
            transitions.len(),
            reads.len()
        );
    }
}
