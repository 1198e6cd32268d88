//! `nobel_serve` and `nobel_serve_delta`: an in-process `dr-serve` over
//! Nobel 2,000 laureates, driven by a closed loop of two keep-alive
//! connections posting 60-row CSV bodies.
//!
//! * `nobel_serve` boots the KB from a `.drkb` image (packed in set-up,
//!   opened via mmap), without `--cache-dir`. After a warm-up pass over
//!   every body the value cache answers every lookup: this is the read
//!   path of a warm service.
//! * `nobel_serve_delta` serves an in-memory KB with `--cache-dir`, and
//!   every 10th operation is a `POST /v1/kbs/nobel/delta` that alternately
//!   retracts and re-inserts the `worksAt` edges of 1% of the laureates,
//!   so the KB returns to its start every two deltas.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dr_core::{
    parallel_repair, CacheRegistry, IndexMemo, MatchContext, ParallelOptions, RegistryConfig,
};
use dr_datasets::{KbProfile, NobelWorld};
use dr_kb::{DeltaNode, FxHashSet, KbDelta, KnowledgeBase, LenientOptions, MappedKb, Node};
use dr_obs::Obs;
use dr_relation::{inject, NoiseSpec, Relation, Tuple};
use dr_serve::http::Request;
use dr_serve::{build_state, Body, ImageFamily, KbSpec, OwnedKb, ServeConfig, Server};

use crate::client::Conn;
use crate::layers::{distinct_probes, Split};
use crate::stats::{mean, median, peak_rss_mb, quantile, secs};
use crate::{setup_burst, Args, Outcome, SetupTimes, THREADS};

const LAUREATES: usize = 2_000;
const ROWS: usize = 60;
const BODIES: usize = 32;
/// Every `DELTA_EVERY`-th operation of `nobel_serve_delta` is a delta.
const DELTA_EVERY: u64 = 10;
/// Set-ups per run (each 10–20 ms); `setup_s` is the fastest.
const SETUPS: usize = 90;
const KB_NAME: &str = "nobel";
const REPAIR_PATH: &str = "/v1/repair/nobel";
const DELTA_PATH: &str = "/v1/kbs/nobel/delta";

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// `nobel_serve`: mmap image, no cache dir, no deltas.
    Image,
    /// `nobel_serve_delta`: in-memory KB, cache dir, deltas.
    Delta,
}

/// A scratch directory under the working directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let dir = PathBuf::from(".perfbench-scratch").join(format!("{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".perfbench-scratch");
    }
}

/// `BODIES` CSV bodies of `ROWS` consecutive laureates each, 10% noise
/// outside `Name`, one noise seed per body.
fn make_bodies(world: &NobelWorld, seed: u64) -> Vec<Vec<u8>> {
    let clean = world.clean_relation();
    let name = clean.schema().attr_expect("Name");
    let semantic = world.semantic_source();
    (0..BODIES)
        .map(|b| {
            let mut slice = Relation::new(Arc::clone(clean.schema()));
            for i in 0..ROWS {
                let src = clean.tuple((b * ROWS + i) % clean.len());
                slice.push(Tuple::new(src.cells().to_vec()));
            }
            let spec = NoiseSpec::new(0.10, seed ^ (b as u64 + 1)).with_excluded(vec![name]);
            dr_relation::csv::serialize(&inject(&slice, &spec, &semantic).0).into_bytes()
        })
        .collect()
}

/// The retract/insert pair over one `worksAt` edge of each of the first
/// 1% of laureates (in triple order) that have one.
fn delta_pair(kb: &KnowledgeBase) -> [KbDelta; 2] {
    let mut retract = KbDelta::new();
    let mut insert = KbDelta::new();
    let mut last = None;
    let mut taken = 0;
    for (s, p, o) in kb.triples() {
        if kb.pred_name(p) != "worksAt" || last == Some(s) {
            continue;
        }
        last = Some(s);
        let object = match o {
            Node::Instance(i) => DeltaNode::Instance(kb.instance_label(i).to_owned()),
            Node::Literal(l) => DeltaNode::Literal(kb.literal_value(l).to_owned()),
        };
        retract.retract(kb.instance_label(s), "worksAt", object.clone());
        insert.insert(kb.instance_label(s), "worksAt", object);
        taken += 1;
        if taken == LAUREATES / 100 {
            break;
        }
    }
    [retract, insert]
}

/// A repair response without its summary line, which carries timings.
/// Returns `None` unless the summary reports every row completed.
fn data_lines(body: &[u8]) -> Option<&[u8]> {
    let text = body.strip_suffix(b"\n")?;
    let cut = text.iter().rposition(|&b| b == b'\n')?;
    let summary = dr_obs::json::parse(std::str::from_utf8(&text[cut + 1..]).ok()?).ok()?;
    let count = |k: &str| summary.get(k).and_then(|v| v.as_u64());
    (summary.get("kind")?.as_str()? == "summary"
        && count("completed")? == ROWS as u64
        && count("degraded")? == 0
        && count("failed")? == 0)
        .then_some(&text[..=cut])
}

/// `"generation":<n>` of a delta response.
fn generation(body: &[u8]) -> Option<u64> {
    let doc = dr_obs::json::parse(std::str::from_utf8(body).ok()?).ok()?;
    doc.get("generation")?.as_u64()
}

/// Server counters, read before and after the load.
#[derive(Clone, Copy, Default)]
struct Counters {
    /// `serve_request_seconds{route="repair"}`: exact sum and count.
    handler_nanos: u64,
    handled: u64,
    reuse: u64,
    shed: u64,
    saves: u64,
    queue_wait_nanos: u64,
    queue_waits: u64,
    node_hits: u64,
    node_misses: u64,
    edge_hits: u64,
    edge_misses: u64,
    evictions: u64,
}

impl Counters {
    fn read(obs: &Obs, registry: &CacheRegistry) -> Counters {
        let snap = obs.metrics().snapshot();
        let histogram = |name: &str, labels: &str| {
            snap.histograms
                .iter()
                .find(|h| h.name == name && h.labels == labels)
                .map_or((0, 0), |h| (h.sum_nanos, h.count))
        };
        let wait = histogram("serve_queue_wait_seconds", "");
        let handler = histogram("serve_request_seconds", "route=\"repair\"");
        Counters {
            handler_nanos: handler.0,
            handled: handler.1,
            reuse: snap.counter_total("serve_keepalive_reuse_total"),
            shed: snap.counter_total("serve_shed_total"),
            saves: registry.stats().snapshot.saves,
            queue_wait_nanos: wait.0,
            queue_waits: wait.1,
            node_hits: snap.counter_total("value_cache_node_hits_total"),
            node_misses: snap.counter_total("value_cache_node_misses_total"),
            edge_hits: snap.counter_total("value_cache_edge_hits_total"),
            edge_misses: snap.counter_total("value_cache_edge_misses_total"),
            evictions: snap.counter_total("value_cache_evictions_total"),
        }
    }

    /// What the counters gained since `before`.
    fn since(&self, before: &Counters) -> Counters {
        Counters {
            handler_nanos: self.handler_nanos - before.handler_nanos,
            handled: self.handled - before.handled,
            reuse: self.reuse - before.reuse,
            shed: self.shed - before.shed,
            saves: self.saves - before.saves,
            queue_wait_nanos: self.queue_wait_nanos - before.queue_wait_nanos,
            queue_waits: self.queue_waits - before.queue_waits,
            node_hits: self.node_hits - before.node_hits,
            node_misses: self.node_misses - before.node_misses,
            edge_hits: self.edge_hits - before.edge_hits,
            edge_misses: self.edge_misses - before.edge_misses,
            evictions: self.evictions - before.evictions,
        }
    }
}

/// One timed operation of the load loop.
struct Sample {
    delta: bool,
    latency_s: f64,
}

/// What the load loop's client threads share.
struct Load<'a> {
    flavor: Flavor,
    bodies: &'a [Vec<u8>],
    /// Accepted responses per body: `[0]` for the start KB, `[1]` after
    /// the retract delta.
    refs: &'a [[Vec<u8>; 2]],
    deltas: &'a [Vec<u8>; 2],
    next_op: AtomicU64,
    /// Twice the deltas sent so far, plus one while a delta is in flight:
    /// a repair that reads the same even value before and after its
    /// request ran entirely on KB state `(epoch / 2) % 2`.
    delta_epoch: AtomicU64,
    /// The highest generation seen; held across a delta request so deltas
    /// alternate strictly.
    generation: Mutex<u64>,
    failed: AtomicU64,
}

impl Load<'_> {
    /// One closed-loop client: sends operations until `deadline`.
    fn client(&self, conn: &mut Conn, deadline: Instant) -> Vec<Sample> {
        let mut samples = Vec::new();
        while Instant::now() < deadline {
            let op = self.next_op.fetch_add(1, Ordering::Relaxed);
            let is_delta = self.flavor == Flavor::Delta && op % DELTA_EVERY == DELTA_EVERY - 1;
            let (latency, ok) = if is_delta {
                let mut last = self.generation.lock().expect("no client panicked");
                let epoch = self.delta_epoch.fetch_add(1, Ordering::SeqCst);
                let kind = ((epoch / 2) % 2) as usize;
                let sent = conn.send(
                    "POST",
                    DELTA_PATH,
                    "text/tab-separated-values",
                    &self.deltas[kind],
                );
                self.delta_epoch.fetch_add(1, Ordering::SeqCst);
                match sent {
                    Ok(reply) => {
                        let generation = generation(&reply.body).unwrap_or(0);
                        let ok = reply.status == 200 && generation > *last;
                        *last = (*last).max(generation);
                        (reply.latency, ok)
                    }
                    Err(_) => (Duration::ZERO, false),
                }
            } else {
                let b = (op % BODIES as u64) as usize;
                let before = self.delta_epoch.load(Ordering::SeqCst);
                let sent = conn.send("POST", REPAIR_PATH, "text/csv", &self.bodies[b]);
                let after = self.delta_epoch.load(Ordering::SeqCst);
                match sent {
                    Ok(reply) => {
                        // With no delta in flight at any point of the
                        // request, only the current state's reference
                        // passes; otherwise either state's does.
                        let accepted = if before == after && before.is_multiple_of(2) {
                            let state = ((before / 2) % 2) as usize;
                            &self.refs[b][state..=state]
                        } else {
                            &self.refs[b][..]
                        };
                        let ok = reply.status == 200
                            && data_lines(&reply.body)
                                .is_some_and(|got| accepted.iter().any(|r| r.as_slice() == got));
                        (reply.latency, ok)
                    }
                    Err(_) => (Duration::ZERO, false),
                }
            };
            if ok {
                samples.push(Sample {
                    delta: is_delta,
                    latency_s: secs(latency),
                });
            } else {
                self.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        samples
    }
}

/// Set-up: everything a fresh server needs before its first request.
/// Dropping it stops the server and waits for its threads.
struct Booted {
    server: Option<Server>,
    obs: Arc<Obs>,
    image: Option<PathBuf>,
    cache_dir: Option<PathBuf>,
}

impl Booted {
    fn server(&self) -> &Server {
        self.server.as_ref().expect("running until dropped")
    }
}

impl Drop for Booted {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
        if let Some(image) = &self.image {
            let _ = std::fs::remove_file(image);
        }
        if let Some(dir) = &self.cache_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Set-up: KB build, image pack (`nobel_serve`) and `build_state`, then a
/// bound server. Timings go to `times`.
fn boot(
    flavor: Flavor,
    world: &NobelWorld,
    seed: u64,
    dir: &Path,
    times: &mut SetupTimes,
) -> Booted {
    let i = times.setup_s.len();
    let build_started = Instant::now();
    let kb = world.kb(&KbProfile::yago());
    let build_s = secs(build_started.elapsed());
    // `build_state` builds the in-memory KB of `nobel_serve_delta` itself,
    // so there the build above only prices `kb.build_s`.
    let started = match flavor {
        Flavor::Image => build_started,
        Flavor::Delta => Instant::now(),
    };
    let obs = Arc::new(Obs::new());
    let config = ServeConfig {
        repair_threads: 1,
        ..ServeConfig::default()
    };
    let (spec, registry, image, cache_dir) = match flavor {
        Flavor::Image => {
            let path = dir.join(format!("nobel-{i}.drkb"));
            dr_kb::write_image(&path, &kb).expect("pack the KB image");
            drop(kb);
            let spec = KbSpec::Image {
                family: ImageFamily::Nobel,
                path: path.clone(),
            };
            (spec, RegistryConfig::default(), Some(path), None)
        }
        Flavor::Delta => {
            drop(kb);
            let cache = dir.join(format!("cache-{i}"));
            std::fs::create_dir_all(&cache).expect("create cache dir");
            let spec = KbSpec::Nobel {
                size: LAUREATES,
                seed,
            };
            let registry = RegistryConfig::default().with_cache_dir(&cache);
            (spec, registry, None, Some(cache))
        }
    };
    let state =
        build_state(&[spec], registry, Arc::clone(&obs), config).expect("build server state");
    times.setup_s.push(secs(started.elapsed()));
    times.build_s.push(build_s);
    let server = Server::bind("127.0.0.1:0", state, THREADS).expect("bind server");
    Booted {
        server: Some(server),
        obs,
        image,
        cache_dir,
    }
}

/// One warm-up request per body; `slot` records the responses as that
/// KB state's references.
fn warm_pass(
    conns: &mut [Conn; 2],
    bodies: &[Vec<u8>],
    refs: &mut [[Vec<u8>; 2]],
    slot: Option<usize>,
    attempted: &mut u64,
    failed: &mut u64,
) {
    for (b, body) in bodies.iter().enumerate() {
        *attempted += 1;
        match conns[b % 2].send("POST", REPAIR_PATH, "text/csv", body) {
            Ok(reply) if reply.status == 200 => match (data_lines(&reply.body), slot) {
                (Some(lines), Some(s)) => refs[b][s] = lines.to_vec(),
                (Some(_), None) => {}
                (None, _) => *failed += 1,
            },
            _ => *failed += 1,
        }
    }
}

pub fn run(args: &Args, flavor: Flavor) -> Outcome {
    let scratch = Scratch::new();
    let world = NobelWorld::generate(LAUREATES, args.seed);
    let bodies = make_bodies(&world, args.seed);

    let mut times = SetupTimes::default();
    let booted = setup_burst(SETUPS, || {
        boot(flavor, &world, args.seed, &scratch.0, &mut times)
    });
    let state = Arc::clone(booted.server().state());
    let addr = booted.server().addr();
    let entry = state.entry(KB_NAME).expect("served KB");
    let core = entry.core().expect("KB loaded");
    let deltas: [Vec<u8>; 2] = match &core.kb {
        OwnedKb::Mem(kb) => delta_pair(kb).map(|d| d.to_tsv().into_bytes()),
        OwnedKb::Mapped(_) => [Vec::new(), Vec::new()],
    };
    let start_hash = match &core.kb {
        OwnedKb::Mem(kb) => kb.content_hash(),
        OwnedKb::Mapped(_) => 0,
    };
    drop(core);

    // Warm-up over both connections: a pass warms the value cache, the
    // next records each body's reference response. The delta workload
    // also records the references after the retract delta, then
    // re-inserts and checks that the KB is back where it started.
    let mut conns = [Conn::new(addr), Conn::new(addr)];
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut checks_ok = true;
    let mut refs: Vec<[Vec<u8>; 2]> = vec![[Vec::new(), Vec::new()]; BODIES];
    warm_pass(
        &mut conns,
        &bodies,
        &mut refs,
        None,
        &mut attempted,
        &mut failed,
    );
    warm_pass(
        &mut conns,
        &bodies,
        &mut refs,
        Some(0),
        &mut attempted,
        &mut failed,
    );
    let mut last_generation = 0;
    if flavor == Flavor::Delta {
        for (kind, slot) in [(0, Some(1)), (1, None)] {
            attempted += 1;
            match conns[0].send(
                "POST",
                DELTA_PATH,
                "text/tab-separated-values",
                &deltas[kind],
            ) {
                Ok(reply) if reply.status == 200 => {
                    last_generation = generation(&reply.body).unwrap_or(0);
                }
                _ => failed += 1,
            }
            if slot.is_some() {
                warm_pass(
                    &mut conns,
                    &bodies,
                    &mut refs,
                    slot,
                    &mut attempted,
                    &mut failed,
                );
            }
        }
        let back = match &entry.core().expect("KB loaded").kb {
            OwnedKb::Mem(kb) => kb.content_hash(),
            OwnedKb::Mapped(_) => 0,
        };
        if back != start_hash {
            eprintln!("perfbench: retract + re-insert did not restore the KB content hash");
            checks_ok = false;
        }
    }
    let changed = match flavor {
        Flavor::Image => 0,
        Flavor::Delta => refs.iter().filter(|r| r[0] != r[1]).count(),
    };
    if flavor == Flavor::Delta && changed == 0 {
        eprintln!("perfbench: the delta changes no checked repair output");
        checks_ok = false;
    }
    let connections_before = conns.iter().map(|c| c.opened).sum::<u64>();
    let before = Counters::read(&booted.obs, &state.registry);

    // The measured closed loop: two client threads, one connection each.
    let load = Load {
        flavor,
        bodies: &bodies,
        refs: &refs,
        deltas: &deltas,
        next_op: AtomicU64::new(0),
        delta_epoch: AtomicU64::new(0),
        generation: Mutex::new(last_generation),
        failed: AtomicU64::new(0),
    };
    let start = Instant::now();
    let deadline = start + args.seconds;
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let load = &load;
                s.spawn(move || load.client(conn, deadline))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let load_s = secs(start.elapsed());
    let c = Counters::read(&booted.obs, &state.registry).since(&before);
    let load_failed = load.failed.load(Ordering::Relaxed);
    let load_ops = load.next_op.load(Ordering::Relaxed);
    attempted += load_ops;
    failed += load_failed;

    // Keep-alive proof: every request after a connection's first reused it.
    let connections = conns.iter().map(|c| c.opened).sum::<u64>() - connections_before;
    let reused = c.reuse;
    if reused + connections != load_ops {
        eprintln!(
            "perfbench: keep-alive reuse {reused} + connections {connections} != {load_ops} requests"
        );
        checks_ok = false;
    }

    let repair_s: Vec<f64> = samples
        .iter()
        .filter(|s| !s.delta)
        .map(|s| s.latency_s)
        .collect();
    let delta_s: Vec<f64> = samples
        .iter()
        .filter(|s| s.delta)
        .map(|s| s.latency_s)
        .collect();
    eprintln!(
        "perfbench: {} seed {}: {} bodies x {ROWS} rows ({changed} differ after the delta), \
         {} repairs + {} deltas in {load_s:.2}s over {connections} connections, \
         p50 {:.2} ms, p95 {:.2} ms, set-up {:.3}s",
        if flavor == Flavor::Image {
            "nobel_serve"
        } else {
            "nobel_serve_delta"
        },
        args.seed,
        BODIES,
        repair_s.len(),
        delta_s.len(),
        median(&repair_s) * 1e3,
        quantile(&repair_s, 0.95) * 1e3,
        times.setup_s(),
    );

    let peak_rss = peak_rss_mb();
    let replay_started = Instant::now();
    let replayed = args
        .trace
        .then(|| replay(flavor, &booted, &bodies, &deltas));
    let replay_s = secs(replay_started.elapsed());
    let live_entries = state.registry.stats().live_entries as f64;
    // Close the client side first: an acceptor blocked on an idle
    // keep-alive connection would otherwise hold shutdown for its timeout.
    drop(conns);
    drop(state);
    drop(booted);
    drop(scratch);

    let mut metrics = BTreeMap::new();
    if !args.trace {
        let ok_ratio = 1.0 - failed as f64 / attempted as f64;
        let rps = repair_s.len() as f64 / load_s;
        metrics.insert("setup_s".into(), times.setup_s());
        metrics.insert("peak_rss_mb".into(), peak_rss);
        metrics.insert("ok_ratio".into(), ok_ratio);
        metrics.insert("tuples_per_s".into(), rps * ROWS as f64);
        metrics.insert("repair_rps".into(), rps);
        metrics.insert("repair_p50_ms".into(), median(&repair_s) * 1e3);
        metrics.insert("repair_p95_ms".into(), quantile(&repair_s, 0.95) * 1e3);
    } else {
        let r = replayed.expect("traced runs replay");
        attempted += BODIES as u64;
        failed += r.failed;
        let per_request = |n: u64| n as f64 / repair_s.len().max(1) as f64;
        let lookups = c.node_hits + c.node_misses + c.edge_hits + c.edge_misses;
        let m = &mut metrics;
        for (name, value) in [
            ("kb.build_s", times.build_s()),
            ("kb.image_open_s", r.image_open_s),
            ("kb.delta_apply_s", r.delta_apply_s),
            ("simmatch.index_build_s", r.index_build_s),
            ("simmatch.candidates_per_probe", r.candidates_per_probe),
            ("relation.decode_s", r.decode_s),
            ("core.repair.prewarm_s", r.prewarm_s),
            ("core.repair.loop_s", r.loop_s),
            ("core.repair.unattributed_s", r.unattributed_s),
            ("core.repair.rules_applied", r.rules_applied),
            ("core.cache.node_hits", per_request(c.node_hits)),
            ("core.cache.node_misses", per_request(c.node_misses)),
            ("core.cache.edge_hits", per_request(c.edge_hits)),
            ("core.cache.edge_misses", per_request(c.edge_misses)),
            ("core.cache.evictions", per_request(c.evictions)),
            ("core.cache.entries", live_entries),
            (
                "core.cache.hit_ratio",
                (c.node_hits + c.edge_hits) as f64 / lookups.max(1) as f64,
            ),
            ("core.cache.sweep_s", r.sweep_s),
            ("core.cache.invalidated_entries", r.invalidated),
            ("core.snapshot.persist_s", r.persist_s),
            ("core.snapshot.bytes_per_persist", r.bytes_per_persist),
            ("core.snapshot.saves", per_request(c.saves)),
            ("serve.handle_s", r.handle_s),
            (
                "serve.queue_wait_s",
                c.queue_wait_nanos as f64 / 1e9 / c.queue_waits.max(1) as f64,
            ),
            ("serve.keepalive_reuse", c.reuse as f64),
            ("serve.shed", c.shed as f64),
            ("serve.delta_p50_ms", median(&delta_s) * 1e3),
            ("serve.delta_p90_ms", quantile(&delta_s, 0.90) * 1e3),
            // The load runs the same code traced or not; what tracing adds
            // is the replay after it.
            ("trace.overhead_ratio", (load_s + replay_s) / load_s),
        ] {
            m.insert(name.to_owned(), value);
        }

        // Program counters say how many probes and adjacency reads a warm
        // request makes; the replays price one of each.
        let probes = per_request(c.node_misses);
        let adjacency = per_request(c.edge_misses);
        let probe_s = probes * r.probe_unit_s;
        let adjacency_s = adjacency * r.read_unit_s;
        m.insert("simmatch.probes".into(), probes);
        m.insert("simmatch.probe_s".into(), probe_s);
        m.insert("kb.adjacency_reads".into(), adjacency);
        m.insert("kb.adjacency_s".into(), adjacency_s);

        // Transport is what the client waits beyond the live server's own
        // handler time for the same requests (`serve_request_seconds`);
        // the rest of the split comes from the in-process replay. The
        // residual is thus the gap between the live handler time and the
        // replay's `handle` less the repair call's unattributed time.
        let op = mean(&repair_s);
        let live_handler = c.handler_nanos as f64 / 1e9 / c.handled.max(1) as f64;
        let transport = op - live_handler;
        let decode = r.decode_s;
        let persist = r.persist_s;
        let repair_call = r.prewarm_s + r.loop_s + r.unattributed_s;
        let handler_residual = r.handle_s - decode - repair_call - persist;
        m.insert("serve.transport_s".into(), transport);
        m.insert("serve.handler_residual_s".into(), handler_residual);
        let mut split = Split::new(op);
        split.add("serve", transport + handler_residual);
        split.add("relation", decode);
        split.add("simmatch", probe_s);
        split.add("kb", adjacency_s);
        split.add(
            "core.repair",
            r.prewarm_s + r.loop_s - probe_s - adjacency_s,
        );
        split.add("core.snapshot", persist);
        split.report(
            if flavor == Flavor::Image {
                "nobel_serve"
            } else {
                "nobel_serve_delta"
            },
            &mut metrics,
        );
    }

    Outcome {
        attempted,
        failed,
        checks_ok,
        metrics,
    }
}

/// Per-call costs measured by calling each layer's public functions on
/// the live server state after the load (means per call).
#[derive(Default)]
struct Replay {
    decode_s: f64,
    handle_s: f64,
    prewarm_s: f64,
    loop_s: f64,
    unattributed_s: f64,
    rules_applied: f64,
    persist_s: f64,
    bytes_per_persist: f64,
    /// One `MatchContext::candidates` lookup.
    probe_unit_s: f64,
    candidates_per_probe: f64,
    /// One `kb_objects`/`kb_subjects` adjacency read.
    read_unit_s: f64,
    index_build_s: f64,
    image_open_s: f64,
    delta_apply_s: f64,
    sweep_s: f64,
    invalidated: f64,
    /// Replayed `handle` calls that did not answer 200 with NDJSON.
    failed: u64,
}

/// Replays take the median of this many repetitions where a call is
/// made once per run rather than once per body.
const REPEATS: usize = 3;

fn replay(flavor: Flavor, booted: &Booted, bodies: &[Vec<u8>], deltas: &[Vec<u8>; 2]) -> Replay {
    let state = booted.server().state();
    let entry = state.entry(KB_NAME).expect("served KB");
    let core = entry.core().expect("KB loaded");
    let lenient = LenientOptions::default();
    let opts = ParallelOptions {
        threads: state.config.repair_threads,
        ..ParallelOptions::default()
    };
    let mut r = Replay::default();
    let (mut decode, mut handle, mut prewarm, mut loop_s, mut unattributed) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut rules_applied, mut persist, mut bytes) = (vec![], vec![], vec![]);
    let mut out_pairs = FxHashSet::default();
    let mut in_pairs = FxHashSet::default();
    let mut relations = Vec::new();
    for body in bodies {
        let t0 = Instant::now();
        let parsed = dr_relation::csv::parse_lenient_bytes(entry.schema.name(), body, &lenient);
        decode.push(secs(t0.elapsed()));
        let mut relation = parsed.expect("generated bodies parse").0;
        relations.push(relation.clone());

        let request = Request {
            method: "POST".into(),
            path: REPAIR_PATH.to_owned(),
            query: String::new(),
            headers: vec![("content-type".into(), "text/csv".into())],
            body: body.clone(),
            http11: true,
        };
        let t0 = Instant::now();
        let response = dr_serve::handle(state, &request);
        handle.push(secs(t0.elapsed()));
        if response.status != 200 || !matches!(response.body, Body::Lines(_)) {
            r.failed += 1;
        }

        let ctx = core.context(Arc::clone(&state.registry), Arc::clone(&state.obs));
        let t0 = Instant::now();
        let report = parallel_repair(&ctx, &core.rules, &mut relation, &opts);
        let wall = secs(t0.elapsed());
        prewarm.push(secs(report.timing.prewarm));
        loop_s.push(secs(report.timing.repair));
        unattributed.push(wall - secs(report.timing.prewarm) - secs(report.timing.repair));
        rules_applied.push(report.total_applications() as f64);
        for fp in &report.footprints {
            out_pairs.extend(fp.out_pairs.iter().copied());
            in_pairs.extend(fp.in_pairs.iter().copied());
        }

        let t0 = Instant::now();
        state.registry.persist();
        persist.push(secs(t0.elapsed()));
        if let Some(dir) = &booted.cache_dir {
            bytes.push(newest_snapshot_bytes(dir));
        }
    }
    r.decode_s = mean(&decode);
    r.handle_s = mean(&handle);
    r.prewarm_s = mean(&prewarm);
    r.loop_s = mean(&loop_s);
    r.unattributed_s = mean(&unattributed);
    r.rules_applied = mean(&rules_applied);
    r.persist_s = mean(&persist);
    r.bytes_per_persist = if bytes.is_empty() { 0.0 } else { mean(&bytes) };

    let probes = distinct_probes(&core.rules, &relations);
    let ctx = core.context(Arc::clone(&state.registry), Arc::clone(&state.obs));
    let t0 = Instant::now();
    let mut found = 0usize;
    for (value, ty, sim) in &probes {
        found += black_box(ctx.candidates(*ty, *sim, value)).len();
    }
    r.probe_unit_s = secs(t0.elapsed()) / probes.len().max(1) as f64;
    r.candidates_per_probe = found as f64 / probes.len().max(1) as f64;
    let t0 = Instant::now();
    for &(s, rel) in &out_pairs {
        black_box(ctx.kb_objects(s, rel));
    }
    for &(o, rel) in &in_pairs {
        black_box(ctx.kb_subjects(o, rel));
    }
    r.read_unit_s = secs(t0.elapsed()) / (out_pairs.len() + in_pairs.len()).max(1) as f64;

    let mut builds = Vec::new();
    for _ in 0..REPEATS {
        let memo = IndexMemo::new();
        let fresh = MatchContext::with_memo(core.kb.as_ref(), &memo, None);
        let t0 = Instant::now();
        fresh.prewarm(&core.rules);
        builds.push(secs(t0.elapsed()));
    }
    r.index_build_s = median(&builds);

    if let Some(path) = &booted.image {
        let mut opens = Vec::new();
        for _ in 0..REPEATS {
            let t0 = Instant::now();
            let mapped = MappedKb::open(path).expect("reopen the packed image");
            opens.push(secs(t0.elapsed()));
            drop(mapped);
        }
        r.image_open_s = median(&opens);
    }

    if let (Flavor::Delta, OwnedKb::Mem(kb)) = (flavor, &core.kb) {
        let parsed: Vec<KbDelta> = deltas
            .iter()
            .map(|d| {
                KbDelta::parse_tsv(std::str::from_utf8(d).expect("TSV is UTF-8"))
                    .expect("delta parses")
            })
            .collect();
        // Of the two deltas, the one that changes the KB's current state.
        let (delta, next, fp) = parsed
            .iter()
            .find_map(|delta| {
                let mut next = (**kb).clone();
                let fp = next.apply_delta(delta).expect("edge deltas apply");
                (next.content_hash() != kb.content_hash()).then_some((delta, next, fp))
            })
            .expect("one of the two deltas changes the KB");
        let mut applies = Vec::new();
        for _ in 0..REPEATS {
            let t0 = Instant::now();
            let mut scratch = (**kb).clone();
            black_box(scratch.apply_delta(delta).expect("edge deltas apply"));
            applies.push(secs(t0.elapsed()));
        }
        r.delta_apply_s = median(&applies);

        // The sweep, on a scratch registry warmed by the same bodies.
        let mut sweeps = Vec::new();
        let mut swept = Vec::new();
        for _ in 0..REPEATS {
            let registry = Arc::new(CacheRegistry::new(RegistryConfig::default()));
            let ctx = MatchContext::with_registry(&**kb, Arc::clone(&registry));
            for relation in &relations {
                parallel_repair(&ctx, &core.rules, &mut relation.clone(), &opts);
            }
            let t0 = Instant::now();
            let n =
                registry.apply_delta(kb.generation(), next.generation(), next.content_hash(), &fp);
            sweeps.push(secs(t0.elapsed()));
            swept.push(n as f64);
        }
        r.sweep_s = median(&sweeps);
        r.invalidated = median(&swept);
    }
    r
}

/// Size of the most recently written `.drsnap` in `dir`.
fn newest_snapshot_bytes(dir: &Path) -> f64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "drsnap"))
        .filter_map(|e| {
            let meta = e.metadata().ok()?;
            Some((meta.modified().ok()?, meta.len()))
        })
        .max()
        .map_or(0.0, |(_, len)| len as f64)
}
