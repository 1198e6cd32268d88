//! End-to-end socket test: boot the real server on a free port and drive
//! it with the bundled HTTP client — covering the wire layer (request
//! parsing, chunked NDJSON framing, keep-alive timing) that the
//! handler-level tests skip.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dr_core::RegistryConfig;
use dr_obs::Obs;
use dr_serve::{build_state, client, KbSpec, ServeConfig, Server};

const HERSHKO_CSV: &str = "Name,DOB,Country,Prize,Institution,City\n\
    Avram Hershko,1937-12-31,Israel,Albert Lasker Award for Medicine,Israel Institute of Technology,Karcag\n";

fn boot() -> Server {
    let state = build_state(
        &[KbSpec::NobelMini],
        RegistryConfig::default(),
        Arc::new(Obs::new()),
        ServeConfig::default(),
    )
    .expect("state builds");
    Server::bind("127.0.0.1:0", state, 2).expect("bind port 0")
}

#[test]
fn serves_health_kbs_metrics_and_repairs_over_sockets() {
    let server = boot();
    let addr = server.addr();

    let health = client::get(addr, "/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert!(health.text().contains("\"status\":\"ok\""));

    let kbs = client::get(addr, "/kbs").expect("kbs");
    assert!(kbs.text().contains("\"name\":\"nobel-mini\""));

    let resp = client::request(
        addr,
        "POST",
        "/v1/repair/nobel-mini?label=socket",
        "text/csv",
        HERSHKO_CSV.as_bytes(),
    )
    .expect("repair request");
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(
        resp.header("transfer-encoding"),
        Some("chunked"),
        "repair responses stream"
    );
    let text = resp.text();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[0].contains("\"kind\":\"header\""), "{}", lines[0]);
    assert!(lines[1].contains("\"kind\":\"tuple\""), "{}", lines[1]);
    assert!(
        lines.last().unwrap().contains("\"kind\":\"summary\""),
        "{text}"
    );

    // The repair shows up in the exported metrics.
    let metrics = client::get(addr, "/metrics").expect("metrics");
    assert!(
        metrics.text().contains("repair_tuples_total"),
        "{}",
        metrics.text()
    );

    // Error paths keep the connection usable for the next client.
    let missing = client::get(addr, "/nope").expect("404 route");
    assert_eq!(missing.status, 404);
    let bad = client::request(
        addr,
        "POST",
        "/v1/repair/nobel-mini",
        "text/csv",
        b"A,B\n1,2\n",
    )
    .expect("schema mismatch");
    assert_eq!(bad.status, 400);

    server.shutdown();
    server.join();
}

/// Back-to-back repairs on one keep-alive connection must not wait on the
/// peer's delayed ACK. A response or request split into several small
/// writes with Nagle on costs each exchange about 40 ms (Linux's
/// delayed-ACK floor), so the median must stay under half of that.
#[test]
fn keep_alive_repairs_do_not_wait_for_delayed_acks() {
    let server = boot();
    let mut conn = client::Connection::connect(server.addr()).expect("connect");
    let mut latencies = Vec::new();
    for _ in 0..20 {
        let started = Instant::now();
        let resp = conn
            .request(
                "POST",
                "/v1/repair/nobel-mini",
                "text/csv",
                HERSHKO_CSV.as_bytes(),
            )
            .expect("keep-alive repair");
        latencies.push(started.elapsed());
        assert_eq!(resp.status, 200, "{}", resp.text());
    }
    latencies.sort();
    let median = latencies[latencies.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median {median:?} over {latencies:?}"
    );
    drop(conn);
    server.shutdown();
    server.join();
}
