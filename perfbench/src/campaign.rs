//! `campaign`: `run_campaign_checkpointed` over the four standard
//! deployment families, with a checkpoint after every instance.
//!
//! The spec is `CampaignSpec::standard(seed)` with each instance's trial
//! count cut to a quarter, so several whole campaigns fit in one run.
//! Set-up is timed on the path a checkpoint exists for: resuming a
//! campaign killed before its last instance. The traced run
//! rebuilds the checkpointed loop from its public parts
//! (`ScenarioCompiler`, `run_instance`, `CampaignState::apply_instance`,
//! `encode_vec` + write + `sync_data`) with a span around each, and
//! reads the channel and Gen-2 work from `rfid_sim::counters`.

use crate::env::{self, ScratchDir};
use crate::report::{Metric, Outcome};
use crate::stats::{aggregate_rate, median, unit_rates};
use crate::trace::{durations, Tracer};
use crate::Config;
use rfid_experiments::campaign::checkpoint::CHECKPOINT_MAGIC;
use rfid_experiments::campaign::{
    run_campaign, run_campaign_checkpointed, run_instance, CampaignRunConfig, CampaignState,
};
use rfid_sim::{counters, CampaignSpec, ScenarioCache, ScenarioCompiler, TrialExecutor};
use rfid_track::store::codec::crc32;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

fn spec(config: &Config) -> CampaignSpec {
    if config.smoke {
        return CampaignSpec::smoke(config.seed);
    }
    let mut spec = CampaignSpec::standard(config.seed);
    for deployment in &mut spec.deployments {
        deployment.trials_per_instance = deployment.trials_per_instance.div_ceil(4);
    }
    spec
}

fn repeats(config: &Config) -> (usize, usize) {
    if config.smoke {
        (2, 1)
    } else {
        // (set-ups after each campaign, whole measured campaigns): a
        // quarter-trial standard campaign takes about four seconds on
        // one core.
        (40, (config.seconds as usize / 6).max(1))
    }
}

fn facts(out: &mut Outcome, spec: &CampaignSpec, executor: &TrialExecutor) {
    out.fact("inputs.campaign_spec", format!("{:#018x}", spec.digest()));
    out.fact("inputs.instances", spec.total_instances());
    out.fact("inputs.trials", spec.total_trials());
    out.fact("executor.threads", executor.threads());
    out.gen_threads = 1;
    out.gen_connections = 0;
}

pub fn run(config: &Config, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let spec = spec(config);
    let executor = TrialExecutor::new();
    let mut out = Outcome::default();
    facts(&mut out, &spec, &executor);
    let scratch = ScratchDir::new("campaign").map_err(|e| e.to_string())?;
    let (setups, campaigns) = repeats(config);
    let reference = run_campaign(&executor, &spec).digest();
    let resume = scratch.path().join("resume.ckpt");

    let mut setup_s = Vec::new();
    // `(objects, seconds)` of each measured campaign.
    let mut campaigns_run = Vec::new();
    let mut digests_match = true;
    let cpu_before = env::cpu_seconds();
    if let Some(tracer) = tracer {
        let path = scratch.path().join("traced.ckpt");
        let traced = traced_campaign(&spec, &executor, &path, tracer)?;
        campaigns_run.push((traced.objects as f64, traced.wall_s));
        digests_match = traced.digest == reference;
        layers(&mut out, &traced, env::cpu_seconds() - cpu_before, tracer);
        cut_checkpoint(&path, &spec, &resume)?;
        for _ in 0..setups {
            setup_s.push(set_up(&executor, &spec, &resume)?);
        }
    } else {
        let mut objects = 0;
        for i in 0..campaigns {
            let path = scratch.path().join(format!("run-{i}.ckpt"));
            let began = Instant::now();
            let report =
                run_campaign_checkpointed(&executor, &spec, &path, CampaignRunConfig::default())
                    .map_err(|e| e.to_string())?;
            campaigns_run.push((
                report.state.total.objects as f64,
                began.elapsed().as_secs_f64(),
            ));
            objects += report.state.total.objects;
            digests_match &= report.completed && report.state.digest() == reference;
            if i == 0 {
                cut_checkpoint(&path, &spec, &resume)?;
            }
            std::fs::remove_file(&path).map_err(|e| e.to_string())?;
            // Set-ups are spread between the campaigns so their median
            // samples the whole run, not one moment of it.
            for _ in 0..setups {
                setup_s.push(set_up(&executor, &spec, &resume)?);
            }
        }
        out.layers.push(Metric::new(
            "process.cpu_us_per_event",
            "us",
            (env::cpu_seconds() - cpu_before) * 1e6 / objects.max(1) as f64,
            objects as usize,
        ));
    }
    let peak_rss_mb = env::peak_rss_mb();
    let resumed =
        run_campaign_checkpointed(&executor, &spec, &resume, CampaignRunConfig::default())
            .map_err(|e| e.to_string())?;
    let mut fresh = Vec::new();
    for i in 0..setups {
        let began = Instant::now();
        run_campaign_checkpointed(
            &executor,
            &spec,
            &scratch.path().join(format!("fresh-{i}.ckpt")),
            CampaignRunConfig {
                halt_after: Some(0),
            },
        )
        .map_err(|e| e.to_string())?;
        fresh.push(began.elapsed().as_secs_f64());
    }
    out.fact(
        "setup_fresh_s.median",
        format!("{:.6}", median(&fresh).unwrap_or(0.0)),
    );
    out.fact(
        "objects_per_s.each",
        format!("{:.1?}", unit_rates(&campaigns_run)),
    );
    out.e2e.push(Metric::new(
        "setup_s",
        "s",
        median(&setup_s).unwrap_or(0.0),
        setup_s.len(),
    ));
    out.e2e.push(Metric::new(
        "objects_per_s",
        "1/s",
        aggregate_rate(&campaigns_run),
        campaigns_run.len(),
    ));
    out.e2e
        .push(Metric::new("peak_rss_mb", "MiB", peak_rss_mb, 1));
    // Whole campaigns' instances, every set-up, and the final resume.
    out.attempted = spec.total_instances() * campaigns_run.len() as u64
        + (setup_s.len() + fresh.len()) as u64
        + 1;
    out.gate(
        "checkpointed_digest_equals_uninterrupted",
        digests_match,
        format!("every checkpointed run's state digest equals run_campaign's {reference:#018x}"),
    );
    let resumed_ok = resumed.completed && resumed.state.digest() == reference;
    out.gate(
        "resumed_digest_equals_uninterrupted",
        resumed_ok,
        "the set-up checkpoint, resumed to the end, ends in run_campaign's state",
    );
    out.failed += u64::from(!digests_match) * spec.total_instances() + u64::from(!resumed_ok);
    Ok(out)
}

/// Writes to `to` the checkpoint a campaign killed before its last
/// instance leaves behind: the magic and every frame but the last of
/// `full`, the checkpoint of the whole campaign.
fn cut_checkpoint(full: &Path, spec: &CampaignSpec, to: &Path) -> Result<(), String> {
    let bytes = std::fs::read(full).map_err(|e| e.to_string())?;
    let mut end = CHECKPOINT_MAGIC.len();
    for _ in 1..spec.total_instances() {
        // A frame is its payload length (u32 LE), CRC-32 (u32 LE), payload.
        let len = bytes
            .get(end..end + 4)
            .and_then(|b| b.try_into().ok())
            .map(u32::from_le_bytes)
            .ok_or("the checkpoint holds fewer frames than the campaign has instances")?;
        end += 8 + len as usize;
    }
    let prefix = bytes
        .get(..end)
        .ok_or("the checkpoint's last frame is torn")?;
    std::fs::write(to, prefix).map_err(|e| e.to_string())
}

/// One set-up: `run_campaign_checkpointed` opens the checkpoint of a
/// campaign killed before its last instance, recovers the state, and
/// compiles that instance, halting before its first trial. The file is
/// left as it was. Returns the call's wall time.
fn set_up(executor: &TrialExecutor, spec: &CampaignSpec, path: &Path) -> Result<f64, String> {
    let began = Instant::now();
    let report = run_campaign_checkpointed(
        executor,
        spec,
        path,
        CampaignRunConfig {
            halt_after: Some(0),
        },
    )
    .map_err(|e| e.to_string())?;
    let wall_s = began.elapsed().as_secs_f64();
    let last = spec.total_instances() - 1;
    if report.resumed_from != last || report.state.instances_done != last {
        return Err(format!(
            "a set-up resumed after {} instances, not {last}",
            report.resumed_from
        ));
    }
    Ok(wall_s)
}

struct Traced {
    /// The campaign loop's wall time, and the whole call's including the
    /// `sim.cache` probes.
    wall_s: f64,
    elapsed_s: f64,
    objects: u64,
    digest: u64,
    checkpoint_bytes: u64,
    accumulator_bytes_peak: usize,
    sim: counters::CountersSnapshot,
    /// Per family: each instance's trial wall time per trial, in ms.
    trial_ms: BTreeMap<String, Vec<f64>>,
}

/// `run_campaign_checkpointed`'s loop, rebuilt from its public parts
/// with a span around each call.
fn traced_campaign(
    spec: &CampaignSpec,
    executor: &TrialExecutor,
    path: &Path,
    tracer: &Tracer,
) -> Result<Traced, String> {
    let began = Instant::now();
    let root = tracer.open("campaign", None, 0);
    let mut file = tracer
        .span("experiments.checkpoint_open", Some(root), 0, || {
            let mut file = File::create(path)?;
            file.write_all(&CHECKPOINT_MAGIC)?;
            file.sync_data()?;
            Ok::<_, std::io::Error>(file)
        })
        .map_err(|e| e.to_string())?;
    let mut compiler = ScenarioCompiler::new(spec);
    let mut state = CampaignState::new(spec);
    let before = counters::snapshot();
    let mut traced = Traced {
        wall_s: 0.0,
        elapsed_s: 0.0,
        objects: 0,
        digest: 0,
        checkpoint_bytes: CHECKPOINT_MAGIC.len() as u64,
        accumulator_bytes_peak: state.state_bytes(),
        sim: before,
        trial_ms: BTreeMap::new(),
    };
    while let Some(instance) = tracer.span("sim.compile", Some(root), 0, || compiler.next()) {
        let start = counters::snapshot();
        let acc = tracer.span("experiments.run_instance", Some(root), 0, || {
            run_instance(executor, &instance)
        });
        let work = counters::snapshot().since(&start);
        traced
            .trial_ms
            .entry(spec.deployments[instance.deployment].name.clone())
            .or_default()
            .push(work.scenario_nanos as f64 / 1e6 / instance.trials.max(1) as f64);
        tracer.span("experiments.apply_instance", Some(root), 0, || {
            state.apply_instance(instance.deployment, &acc);
        });
        let written = tracer
            .span("experiments.checkpoint", Some(root), 0, || {
                let payload = state.encode_vec();
                let mut frame = Vec::with_capacity(8 + payload.len());
                frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                frame.extend_from_slice(&crc32(&payload).to_le_bytes());
                frame.extend_from_slice(&payload);
                file.write_all(&frame)?;
                file.sync_data()?;
                Ok::<_, std::io::Error>(frame.len() as u64)
            })
            .map_err(|e| e.to_string())?;
        traced.checkpoint_bytes += written;
        traced.accumulator_bytes_peak = traced.accumulator_bytes_peak.max(state.state_bytes());
        // Work only the benchmark does: the trial-scoped cache
        // `run_instance` builds, precomputed on its own to time it.
        tracer.span("sim.cache", Some(root), 0, || {
            std::hint::black_box(ScenarioCache::new(&instance.scenario));
        });
    }
    tracer.close(root);
    traced.elapsed_s = began.elapsed().as_secs_f64();
    traced.wall_s = traced.elapsed_s - durations(&tracer.snapshot(), "sim.cache").sum() / 1e9;
    traced.sim = counters::snapshot().since(&before);
    traced.objects = state.total.objects;
    traced.digest = state.digest();
    Ok(traced)
}

fn layers(out: &mut Outcome, traced: &Traced, cpu_s: f64, tracer: &Tracer) {
    let spans = tracer.snapshot();
    let durations = |name: &str| durations(&spans, name);
    let sim = &traced.sim;
    let ratio = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
    // Medians over the campaign's instances (a few dozen at most).
    let p50 = |name: &str, unit: &'static str, span: &str, scale: f64| {
        let samples = durations(span);
        let value = median(&samples.sorted()).map(|v| v / scale);
        Metric::maybe(name, unit, value, samples.len())
    };
    let compile = durations("sim.compile");
    let cache = durations("sim.cache");
    let layers = &mut out.layers;
    layers.push(Metric::new(
        "sim.compile_ms",
        "ms",
        compile.sum() / 1e6,
        compile.len(),
    ));
    layers.push(Metric::new(
        "sim.cache_ms",
        "ms",
        cache.sum() / 1e6,
        cache.len(),
    ));
    layers.push(Metric::count("sim.link_evals", sim.link_evals));
    layers.push(Metric::count("sim.link_memo_hits", sim.link_memo_hits));
    layers.push(Metric::new(
        "sim.memo_hit_ratio",
        "ratio",
        ratio(sim.link_memo_hits, sim.link_memo_hits + sim.link_evals),
        1,
    ));
    layers.push(Metric::count("sim.geometry_evals", sim.geometry_evals));
    layers.push(Metric::new(
        "sim.geometry_hit_ratio",
        "ratio",
        ratio(
            sim.geometry_cache_hits,
            sim.geometry_cache_hits + sim.geometry_evals,
        ),
        1,
    ));
    layers.push(Metric::new(
        "sim.ns_per_link_eval",
        "ns",
        ratio(sim.scenario_nanos, sim.link_evals),
        1,
    ));
    for (family, per_trial) in &traced.trial_ms {
        layers.push(Metric::new(
            &format!("sim.trial_ms_p50.{family}"),
            "ms",
            median(per_trial).unwrap_or(0.0),
            per_trial.len(),
        ));
    }
    layers.push(Metric::count("gen2.rounds", sim.rounds));
    layers.push(Metric::count("gen2.reads", sim.reads));
    layers.push(Metric::new(
        "gen2.reads_per_round",
        "count",
        ratio(sim.reads, sim.rounds),
        1,
    ));
    layers.push(Metric::new(
        "gen2.round_time_share",
        "ratio",
        ratio(sim.round_nanos, sim.scenario_nanos),
        1,
    ));
    layers.push(p50(
        "experiments.run_instance_s_p50",
        "s",
        "experiments.run_instance",
        1e9,
    ));
    layers.push(p50(
        "experiments.apply_instance_us_p50",
        "us",
        "experiments.apply_instance",
        1e3,
    ));
    layers.push(p50(
        "experiments.checkpoint_ms_p50",
        "ms",
        "experiments.checkpoint",
        1e6,
    ));
    layers.push(Metric::new(
        "experiments.checkpoint_bytes",
        "B",
        traced.checkpoint_bytes as f64,
        1,
    ));
    layers.push(Metric::new(
        "experiments.accumulator_bytes_peak",
        "B",
        traced.accumulator_bytes_peak as f64,
        1,
    ));
    layers.push(Metric::new(
        "experiments.cpu_per_wall",
        "ratio",
        cpu_s / traced.elapsed_s,
        1,
    ));
    layers.push(Metric::new(
        "process.cpu_us_per_event",
        "us",
        cpu_s * 1e6 / traced.objects.max(1) as f64,
        traced.objects as usize,
    ));
}
