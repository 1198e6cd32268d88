//! The background snapshot flusher (DESIGN.md §4a, level −1): repairs and
//! deltas mark it instead of writing `.drsnap` files themselves. A server
//! with a cache dir gets exactly one flusher thread, a server without one
//! gets none, a drain writes the last marked state and joins the thread,
//! and dropping the state joins it too.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dr_core::repair::snapshot::read_snapshot;
use dr_core::{RegistryConfig, SnapshotKey};
use dr_obs::Obs;
use dr_serve::{build_state, client, KbSpec, ServeConfig, Server, ServerState};

/// A one-row Hershko relation whose `City` cell is `city`.
fn hershko_csv(city: &str) -> String {
    format!(
        "Name,DOB,Country,Prize,Institution,City\n\
         Avram Hershko,1937-12-31,Israel,Albert Lasker Award for Medicine,Israel Institute of Technology,{city}\n"
    )
}

/// A fresh, empty cache dir unique to this test process and `tag`.
fn cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dr-serve-flush-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create cache dir");
    dir
}

fn state(cache_dir: Option<&Path>) -> ServerState {
    let mut registry = RegistryConfig::default();
    if let Some(dir) = cache_dir {
        registry = registry.with_cache_dir(dir);
    }
    build_state(
        &[KbSpec::NobelMini],
        registry,
        Arc::new(Obs::new()),
        ServeConfig::default(),
    )
    .expect("state builds")
}

fn repair(server: &Server, city: &str) {
    let resp = client::request(
        server.addr(),
        "POST",
        "/v1/repair/nobel-mini",
        "text/csv",
        hershko_csv(city).as_bytes(),
    )
    .expect("repair request");
    assert_eq!(resp.status, 200, "{}", resp.text());
}

/// File names in `dir` ending in `suffix`.
fn files_ending(dir: &Path, suffix: &str) -> Vec<String> {
    std::fs::read_dir(dir)
        .expect("cache dir")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(suffix))
        .collect()
}

/// `snapshot_saves_total` as `/metrics` renders it.
fn saves_total(server: &Server) -> u64 {
    let metrics = client::get(server.addr(), "/metrics").expect("metrics");
    metrics
        .text()
        .lines()
        .find_map(|line| line.strip_prefix("snapshot_saves_total "))
        .map(|v| v.trim().parse::<f64>().expect("numeric sample") as u64)
        .unwrap_or(0)
}

#[test]
fn a_repair_is_flushed_in_the_background() {
    let dir = cache_dir("repair");
    let server = Server::bind("127.0.0.1:0", state(Some(&dir)), 2).expect("bind");
    assert!(server.state().flusher.is_running());
    repair(&server, "Karcag");
    let deadline = Instant::now() + Duration::from_secs(10);
    while saves_total(&server) == 0 {
        assert!(Instant::now() < deadline, "no snapshot saved within 10 s");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(files_ending(&dir, ".drsnap").len(), 1);
    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drain_writes_the_last_marked_state_and_joins_the_flusher() {
    let dir = cache_dir("drain");
    let server = Server::bind("127.0.0.1:0", state(Some(&dir)), 2).expect("bind");
    // Each city is a new cell value, so each repair changes the cache.
    for city in ["Karcag", "Haifa", "Ithaca"] {
        repair(&server, city);
    }
    assert!(server.drain(Duration::from_secs(10)), "nothing in flight");
    let state = server.state();
    assert!(!state.flusher.is_running(), "drain joins the flusher");

    let entry = state.entry("nobel-mini").expect("served KB");
    let core = entry.core().expect("KB loaded");
    let live = state
        .registry
        .export_payload(core.kb.as_ref(), &entry.schema)
        .expect("live cache");
    assert!(!live.is_empty(), "the repairs filled the cache");
    let key = SnapshotKey::for_pair(core.kb.as_ref(), &entry.schema);
    let on_disk = read_snapshot(&dir, key).expect("drain wrote the snapshot");
    // Same entries; the order may differ, since cache hits reorder the
    // hottest-first export without counting as changes.
    assert_eq!(on_disk.len(), live.len());
    assert!(live.nodes.iter().all(|n| on_disk.nodes.contains(n)));
    assert!(live.edges.iter().all(|e| on_disk.edges.contains(e)));
    assert!(
        files_ending(&dir, ".tmp").is_empty(),
        "no temp file left behind"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_cache_dir_spawns_no_flusher() {
    let state = state(None);
    assert!(!state.flusher.is_running());
    state.flusher.mark(); // a no-op without a thread
    assert_eq!(
        Arc::strong_count(&state.registry),
        1,
        "no thread holds the registry"
    );
}

#[test]
fn dropping_the_state_joins_the_flusher() {
    let dir = cache_dir("drop");
    let state = state(Some(&dir));
    assert!(state.flusher.is_running());
    let registry = Arc::clone(&state.registry);
    // The state, the flusher thread and this test.
    assert_eq!(Arc::strong_count(&registry), 3);
    state.flusher.mark();
    drop(state);
    // The thread's handle on the registry is gone once it was joined.
    assert_eq!(Arc::strong_count(&registry), 1);
    std::fs::remove_dir_all(&dir).ok();
}
