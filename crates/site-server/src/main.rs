//! The `rfid-site-server` binary: the site tracking daemon, plus the
//! `--self-drive` demonstration mode CI uses as a smoke test.

use rfid_site_server::{self_drive, synthetic_world, ServerConfig, SiteServer};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;

struct Options {
    self_drive: bool,
    portals: usize,
    tags: usize,
    steps: usize,
    reader_port: u16,
    query_port: u16,
    token: String,
    staleness_s: f64,
    shards: usize,
    store_dir: Option<std::path::PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            self_drive: false,
            portals: 2,
            tags: 4,
            steps: 25,
            reader_port: 0,
            query_port: 0,
            token: "change-me".to_owned(),
            staleness_s: 3600.0,
            shards: 0,
            store_dir: None,
        }
    }
}

fn usage() -> String {
    [
        "usage: rfid-site-server [--self-drive] [options]",
        "",
        "modes:",
        "  --self-drive          boot a server, drive synthetic portals and",
        "                        queries against it, verify the final state",
        "                        matches a batch replay, exit",
        "  (default)             run the daemon until a `shutdown` RPC",
        "",
        "options:",
        "  --portals N           dock-door portals / merge lanes (default 2)",
        "  --tags N              registered tags (default 4)",
        "  --steps N             demo steps, --self-drive only (default 25)",
        "  --reader-port P       reader listener port (default 0 = ephemeral)",
        "  --query-port P        query listener port (default 0 = ephemeral)",
        "  --token T             query auth token (default: change-me)",
        "  --staleness S         tracker staleness horizon in seconds (> 0)",
        "  --shards K            parallel ingest application shards",
        "                        (default 0 = machine parallelism; any K",
        "                        produces the same state, bit for bit)",
        "  --store-dir PATH      durable zone-history store directory;",
        "                        prior contents are recovered and the",
        "                        tracker resumes from them before serving",
        "                        (daemon mode only; default: in-memory)",
    ]
    .join("\n")
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--self-drive" => options.self_drive = true,
            "--portals" => {
                options.portals = value("--portals")?
                    .parse()
                    .map_err(|e| format!("--portals: {e}"))?;
            }
            "--tags" => {
                options.tags = value("--tags")?
                    .parse()
                    .map_err(|e| format!("--tags: {e}"))?;
            }
            "--steps" => {
                options.steps = value("--steps")?
                    .parse()
                    .map_err(|e| format!("--steps: {e}"))?;
            }
            "--reader-port" => {
                options.reader_port = value("--reader-port")?
                    .parse()
                    .map_err(|e| format!("--reader-port: {e}"))?;
            }
            "--query-port" => {
                options.query_port = value("--query-port")?
                    .parse()
                    .map_err(|e| format!("--query-port: {e}"))?;
            }
            "--token" => options.token = value("--token")?.clone(),
            "--staleness" => {
                let staleness_s: f64 = value("--staleness")?
                    .parse()
                    .map_err(|e| format!("--staleness: {e}"))?;
                if staleness_s.is_nan() || staleness_s <= 0.0 {
                    return Err(format!(
                        "--staleness must be a positive number of seconds, not {staleness_s}\n\n{}",
                        usage()
                    ));
                }
                options.staleness_s = staleness_s;
            }
            "--shards" => {
                options.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
            }
            "--store-dir" => {
                options.store_dir = Some(std::path::PathBuf::from(value("--store-dir")?));
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other}\n\n{}", usage())),
        }
    }
    Ok(options)
}

fn run_self_drive(options: &Options) -> Result<(), String> {
    println!(
        "self-drive: {} portals x {} tags x {} steps over live TCP",
        options.portals, options.tags, options.steps
    );
    let report = self_drive(options.portals, options.tags, options.steps)?;
    println!(
        "site-server: {} portal sessions drained, {} events, {} transitions",
        report.portals, report.events, report.transitions
    );
    println!("counters: {}", report.counters);
    println!("final zone history matches batch replay");
    println!("graceful shutdown complete");
    Ok(())
}

fn run_daemon(options: &Options) -> Result<(), String> {
    let world = synthetic_world(options.portals, options.tags);
    let mut config = ServerConfig::new(&options.token);
    config.staleness_s = options.staleness_s;
    config.shards = options.shards;
    config.store_dir = options.store_dir.clone();
    if let Some(dir) = &config.store_dir {
        println!("durable store: {}", dir.display());
    }
    let server = SiteServer::new(&world.site, &world.registry, &world.adapters, config);
    let reader_listener = TcpListener::bind(("127.0.0.1", options.reader_port))
        .map_err(|e| format!("bind reader port: {e}"))?;
    let query_listener = TcpListener::bind(("127.0.0.1", options.query_port))
        .map_err(|e| format!("bind query port: {e}"))?;
    let reader_addr = reader_listener
        .local_addr()
        .map_err(|e| format!("reader addr: {e}"))?;
    let query_addr = query_listener
        .local_addr()
        .map_err(|e| format!("query addr: {e}"))?;
    println!("reader port: {reader_addr}");
    println!("query port: {query_addr}");
    println!(
        "serving {} portal lanes, {} registered tags; send a `shutdown` RPC to drain",
        options.portals, options.tags
    );
    let shutdown = AtomicBool::new(false);
    let report = server
        .run(&reader_listener, &query_listener, &shutdown)
        .map_err(|e| format!("server run failed: {e}"))?;
    println!("counters: {}", report.counters);
    println!("graceful shutdown complete");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let result = if options.self_drive {
        run_self_drive(&options)
    } else {
        run_daemon(&options)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("rfid-site-server: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Options, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse_args(&args)
    }

    #[test]
    fn a_non_positive_staleness_is_a_usage_error() {
        for bad in ["0", "-0", "-1.5", "NaN", "-inf"] {
            let err = match parse(&format!("--staleness {bad}")) {
                Ok(_) => panic!("--staleness {bad} must be refused"),
                Err(err) => err,
            };
            assert!(err.contains("must be a positive number"), "{err}");
            assert!(err.contains("usage:"), "{err}");
        }
        let options = parse("--staleness 2.5").expect("a positive staleness parses");
        assert!((options.staleness_s - 2.5).abs() < f64::EPSILON);
    }
}
