//! `exp_serve_load` — load generator for the repair service.
//!
//! Boots a `dr-serve` instance in-process on a free port, fires the same
//! stream of dirty-relation POSTs at it twice — once against cold value
//! caches, once warm — from `--clients` concurrent client threads, and
//! reports throughput and latency quantiles per phase straight from the
//! server's own `serve_repair_seconds{label=...}` histograms (so the
//! numbers printed are the numbers `/metrics` exports).
//!
//! ```text
//! exp_serve_load --clients 8 --requests 64 --rows 60 --kb-size 400
//! ```
//!
//! Flags: `--clients` (default 4), `--requests` per phase (default 32),
//! `--rows` per request (default 60), `--kb-size` (default 300),
//! `--error-rate` (default 0.10), `--seed` (default 7), `--cache-dir`
//! (default: none — warm-up comes from the in-memory shared caches).
//!
//! Exits nonzero if the per-response summaries and the server's metric
//! totals disagree — the load test doubles as an end-to-end check that
//! concurrent serving keeps the observability invariants.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dr_core::RegistryConfig;
use dr_datasets::NobelWorld;
use dr_obs::Obs;
use dr_relation::{inject, NoiseSpec};
use dr_serve::client;
use dr_serve::{build_state, KbSpec, ServeConfig, Server};

fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("exp_serve_load: bad value {v:?} for {name}");
                std::process::exit(2);
            })
        })
        .unwrap_or(default)
}

/// Pulls `"key":<int>` out of a summary NDJSON line.
fn summary_field(line: &str, key: &str) -> u64 {
    let pattern = format!("\"{key}\":");
    let Some(at) = line.find(&pattern) else {
        return 0;
    };
    line[at + pattern.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or(0)
}

struct PhaseResult {
    wall_seconds: f64,
    tuples: u64,
}

/// Fires `bodies` at the server from `clients` threads; returns wall time
/// and the tuple total summed from the per-response summary lines.
fn run_phase(
    addr: std::net::SocketAddr,
    label: &str,
    bodies: &[String],
    clients: usize,
) -> PhaseResult {
    let next = AtomicUsize::new(0);
    let tuples = std::sync::atomic::AtomicU64::new(0);
    let target = format!("/v1/repair/nobel?label={label}");
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(body) = bodies.get(i) else { break };
                let resp = client::request(addr, "POST", &target, "text/csv", body.as_bytes())
                    .unwrap_or_else(|e| {
                        eprintln!("exp_serve_load: request {i} failed: {e}");
                        std::process::exit(1);
                    });
                if resp.status != 200 {
                    eprintln!(
                        "exp_serve_load: request {i} got {}: {}",
                        resp.status,
                        resp.text()
                    );
                    std::process::exit(1);
                }
                let text = resp.text();
                let summary = text
                    .lines()
                    .rev()
                    .find(|l| l.contains("\"kind\":\"summary\""))
                    .unwrap_or_else(|| {
                        eprintln!("exp_serve_load: request {i} response has no summary line");
                        std::process::exit(1);
                    })
                    .to_owned();
                tuples.fetch_add(
                    summary_field(&summary, "completed")
                        + summary_field(&summary, "degraded")
                        + summary_field(&summary, "failed"),
                    Ordering::Relaxed,
                );
            });
        }
    });
    PhaseResult {
        wall_seconds: started.elapsed().as_secs_f64(),
        tuples: tuples.load(Ordering::Relaxed),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let clients: usize = flag(&args, "--clients", 4);
    let requests: usize = flag(&args, "--requests", 32);
    let rows: usize = flag(&args, "--rows", 60);
    let kb_size: usize = flag(&args, "--kb-size", 300);
    let error_rate: f64 = flag(&args, "--error-rate", 0.10);
    let seed: u64 = flag(&args, "--seed", 7);
    let cache_dir = args
        .iter()
        .position(|a| a == "--cache-dir")
        .and_then(|i| args.get(i + 1))
        .cloned();

    // The server's world and the request bodies come from the same seed,
    // so the uploaded tuples actually resolve against the served KB.
    eprintln!("exp_serve_load: generating {requests} request bodies ({rows} rows each)");
    let world = NobelWorld::generate(kb_size, seed);
    let clean = world.clean_relation();
    let name_attr = clean.schema().attr_expect("Name");
    let semantic = world.semantic_source();
    let bodies: Vec<String> = (0..requests)
        .map(|r| {
            let mut slice = dr_relation::Relation::new(Arc::clone(clean.schema()));
            for i in 0..rows {
                let src = clean.tuple((r * rows + i) % clean.len());
                slice.push(dr_relation::Tuple::new(src.cells().to_vec()));
            }
            let spec =
                NoiseSpec::new(error_rate, seed ^ (r as u64 + 1)).with_excluded(vec![name_attr]);
            let (dirty, _) = inject(&slice, &spec, &semantic);
            dr_relation::csv::serialize(&dirty)
        })
        .collect();

    let mut registry_config = RegistryConfig::default();
    if let Some(dir) = &cache_dir {
        registry_config = registry_config.with_cache_dir(dir);
    }
    let obs = Arc::new(Obs::new());
    let state = build_state(
        &[KbSpec::Nobel {
            size: kb_size,
            seed,
        }],
        registry_config,
        Arc::clone(&obs),
        ServeConfig::default(),
    )
    .unwrap_or_else(|e| {
        eprintln!("exp_serve_load: {e}");
        std::process::exit(2);
    });
    let server = Server::bind("127.0.0.1:0", state, clients.max(2)).unwrap_or_else(|e| {
        eprintln!("exp_serve_load: bind failed: {e}");
        std::process::exit(2);
    });
    let addr = server.addr();
    eprintln!("exp_serve_load: server on {addr}, {clients} clients x {requests} requests/phase");

    let cold = run_phase(addr, "cold", &bodies, clients);
    let warm = run_phase(addr, "warm", &bodies, clients);

    // Latency quantiles straight from the server's own histograms.
    let snapshot = obs.metrics().snapshot();
    let phase_stats = |phase: &str| {
        snapshot
            .histograms
            .iter()
            .find(|h| h.name == "serve_repair_seconds" && h.labels == format!("label=\"{phase}\""))
            .map(|h| (h.count, h.p50, h.p95, h.p99, h.sum_nanos))
            .unwrap_or((0, None, None, None, 0))
    };
    let secs = |nanos: Option<u64>| nanos.map(|n| n as f64 / 1e9).unwrap_or(f64::NAN);

    println!("phase  requests  req/s    p50(s)   p95(s)   p99(s)   mean(s)");
    let mut means = Vec::new();
    for (label, result) in [("cold", &cold), ("warm", &warm)] {
        let (count, p50, p95, p99, sum_nanos) = phase_stats(label);
        let mean = if count > 0 {
            sum_nanos as f64 / 1e9 / count as f64
        } else {
            f64::NAN
        };
        means.push(mean);
        println!(
            "{label:<6} {count:>8}  {:>6.1}  {:>7.4}  {:>7.4}  {:>7.4}  {:>7.4}",
            count as f64 / result.wall_seconds,
            secs(p50),
            secs(p95),
            secs(p99),
            mean,
        );
    }
    println!(
        "warm-speedup: {:.2}x (mean repair latency)",
        means[0] / means[1]
    );

    // Reconcile: what every response claimed must equal what the server
    // counted. A mismatch means concurrent requests corrupted the shared
    // observability path.
    let client_tuples = cold.tuples + warm.tuples;
    let metric_tuples = snapshot.counter_total("repair_tuples_total");
    let http_requests = snapshot.counter("serve_requests_total", "route=\"repair\",status=\"2xx\"");
    println!(
        "reconcile: client-summed tuples {client_tuples}, repair_tuples_total {metric_tuples}, \
         2xx repairs {http_requests:?}"
    );
    server.shutdown();
    if client_tuples != metric_tuples || http_requests != Some(2 * requests as u64) {
        eprintln!("exp_serve_load: FAIL: responses and /metrics disagree");
        std::process::exit(1);
    }
    println!("reconcile: ok");
}
