//! # dr-serve — repair-as-a-service
//!
//! A long-lived HTTP server over the repair pipeline (DESIGN.md §5): named
//! knowledge bases are loaded once at startup — match indexes prewarmed,
//! value caches created through the shared [`CacheRegistry`] so `.drsnap`
//! snapshots warm-load at boot — and every request then repairs an
//! uploaded relation against them, returning repaired tuples with per-cell
//! provenance as NDJSON.
//!
//! The build environment is fully offline (no tokio/hyper), so the wire
//! layer is a hand-rolled HTTP/1.1 subset over `std::net` with a
//! thread-per-connection accept pool. That is a deliberate fit, not a
//! compromise: each repair request fans out over the work-stealing
//! parallel repairer, so the connection thread is a coordinator that
//! spends its life blocked on compute, and a handful of them saturate the
//! machine.
//!
//! On top of the pipeline sits the survival layer (DESIGN.md §9):
//! admission control sheds excess repair load with `429 Retry-After`
//! instead of queueing it unboundedly ([`admission`]), connections are
//! keep-alive with idle timeouts and per-connection request caps, each
//! KB carries a health breaker that fails fast when repairs keep failing,
//! and [`Server::drain`] turns SIGTERM into a graceful exit: `/readyz`
//! goes 503, accepting stops, in-flight streams finish under a deadline,
//! and `.drsnap` snapshots are flushed. Between drains, one background
//! flusher ([`state::Flusher`]) writes changed caches to `--cache-dir`,
//! so no repair waits on the disk.
//!
//! Endpoints:
//!
//! | route                  | method | body                                |
//! |------------------------|--------|-------------------------------------|
//! | `/healthz`             | GET    | liveness + uptime                   |
//! | `/readyz`              | GET    | readiness (503 while draining)      |
//! | `/kbs`                 | GET    | served KBs, schemas, generations, health |
//! | `/metrics`             | GET    | live Prometheus text                |
//! | `/v1/repair/{kb}`      | POST   | CSV or JSON relation → NDJSON repair stream |
//! | `/v1/kbs/{kb}/delta`   | POST   | TSV KB delta → next generation (incremental cache invalidation) |
//! | `/v1/kbs/{kb}`         | DELETE | unload the KB (404 afterwards, memory released) |
//! | `/v1/traces`           | GET    | tail-sampled trace index (id, route, duration, why kept) |
//! | `/v1/traces/{id}`      | GET    | one retained trace's full span tree (feed to `dr_traceview`) |
//!
//! Repair requests are armed with a live span capture (DESIGN.md §11):
//! the root `request` span forks through [`MatchContext::fork`] into the
//! scheduler's per-row spans and down to per-rule checks, and tail
//! sampling keeps the capture only when it was forced (`?trace=1`), the
//! request errored or degraded, or it crossed the slow threshold. A
//! `traceparent` request header adopts the caller's trace id.
//!
//! [`CacheRegistry`]: dr_core::CacheRegistry
//! [`MatchContext::fork`]: dr_core::MatchContext::fork

#![warn(missing_docs)]
// Resilience hygiene (DESIGN.md §4c): library code must surface failures
// as typed errors, not panics.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod admission;
pub mod client;
pub mod handlers;
pub mod http;
pub mod state;

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::admission::AcceptBackoff;

pub use admission::{Admission, AdmissionConfig, AdmissionGate, Permit, ShedReason};
pub use handlers::{handle, Body, Response};
pub use state::{
    build_state, Breaker, DeltaApplyError, DeltaOutcome, Flusher, ImageFamily, KbCore, KbEntry,
    KbSpec, Lifecycle, OwnedKb, RequestTrace, ServeConfig, ServerState,
};

/// A bound, running server: a shared listener drained by a fixed pool of
/// acceptor threads, each serving one connection at a time end to end.
pub struct Server {
    state: Arc<ServerState>,
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (port 0 picks a free port) and starts `http_threads`
    /// acceptors (minimum 1).
    pub fn bind(
        addr: impl ToSocketAddrs,
        state: ServerState,
        http_threads: usize,
    ) -> std::io::Result<Server> {
        let listener = Arc::new(TcpListener::bind(addr)?);
        let addr = listener.local_addr()?;
        let state = Arc::new(state);
        let shutdown = Arc::new(AtomicBool::new(false));

        let mut workers = Vec::new();
        for i in 0..http_threads.max(1) {
            let listener = Arc::clone(&listener);
            let state = Arc::clone(&state);
            let shutdown = Arc::clone(&shutdown);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("dr-serve-http-{i}"))
                    .spawn(move || {
                        let mut backoff = AcceptBackoff::new();
                        while !shutdown.load(Ordering::Acquire) {
                            match listener.accept() {
                                Ok((stream, _peer)) => {
                                    backoff.on_success();
                                    serve_connection(&state, &shutdown, stream);
                                }
                                Err(_) if shutdown.load(Ordering::Acquire) => break,
                                Err(e) => {
                                    // Transient accept failures (EMFILE,
                                    // ECONNABORTED, ...) must not busy-spin
                                    // the acceptor: back off, and log once
                                    // per error streak.
                                    let (delay, log) = backoff.on_error();
                                    if log {
                                        eprintln!("dr-serve: accept error (backing off): {e}");
                                    }
                                    std::thread::sleep(delay);
                                }
                            }
                        }
                    })?,
            );
        }

        drop(listener); // each worker holds its own Arc
        Ok(Server {
            state,
            addr,
            shutdown,
            workers,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The shared state (for in-process inspection in tests and the load
    /// generator).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Blocks until every acceptor exits (i.e. until [`shutdown`]
    /// (Self::shutdown) is called from another thread, or never).
    pub fn join(mut self) {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// Asks the acceptors to stop and unblocks them with a self-connect.
    /// Idempotent; in-flight requests finish first.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        // `accept` has no timeout; poke each blocked acceptor awake.
        for _ in 0..self.workers.len() {
            let _ = TcpStream::connect(self.addr);
        }
    }

    /// Graceful drain (DESIGN.md §9): flips `/readyz` to 503 and refuses
    /// new repairs, stops accepting, waits up to `deadline` for in-flight
    /// requests to finish, stops the background flusher, then flushes
    /// `.drsnap` snapshots synchronously. Returns whether every in-flight
    /// request completed within the deadline.
    ///
    /// Keep-alive connections close after their current response (the
    /// connection loop checks the drain flag), so an idle connection never
    /// holds the drain hostage; a *streaming* response runs to completion
    /// because the client paid for those bytes.
    pub fn drain(&self, deadline: Duration) -> bool {
        self.state.lifecycle.begin_drain();
        self.shutdown();
        let started = Instant::now();
        while self.state.lifecycle.active() > 0 && started.elapsed() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let drained = self.state.lifecycle.active() == 0;
        // Flush snapshots even on a missed deadline: whatever finished is
        // worth keeping, and persist() publishes atomically. The flusher
        // stops first, so this is the only writer and nothing it marked
        // is left unwritten.
        self.state.flusher.stop();
        self.state.registry.persist();
        drained
    }
}

/// Serves one connection: a keep-alive loop of parse → handle → serialize,
/// until the client closes, asks to close, idles out, hits the
/// per-connection request cap, or the server starts draining.
fn serve_connection(state: &ServerState, shutdown: &AtomicBool, stream: TcpStream) {
    let metrics = state.obs.metrics();
    metrics.counter("serve_connections_total", &[]).inc();
    stream.set_write_timeout(Some(http::IO_TIMEOUT)).ok();
    // Responses leave in buffer-sized writes; with Nagle on, a write that
    // follows a partial segment waits for the client's delayed ACK.
    stream.set_nodelay(true).ok();
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut served = 0usize;

    loop {
        // First request: the client connected to talk, give it the full
        // header window. Later requests: an idle keep-alive connection
        // only ties up this acceptor, so time out sooner.
        let read_timeout = if served == 0 {
            state.config.header_timeout
        } else {
            state.config.idle_timeout
        };
        stream.set_read_timeout(Some(read_timeout)).ok();

        let request = match http::read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return, // probe, clean close, or idle timeout
            Err(e) => {
                let message = format!("{{\"error\":{:?}}}", e.message);
                let _ = send_response(&stream, &Response::json(e.status, message), false);
                return;
            }
        };
        served += 1;
        if served > 1 {
            metrics.counter("serve_keepalive_reuse_total", &[]).inc();
        }

        let _active = state.lifecycle.track();
        let response = handlers::handle(state, &request);
        let cap = state.config.max_requests_per_conn;
        let keep_alive = request.wants_keep_alive()
            && (cap == 0 || served < cap)
            && !state.lifecycle.is_draining()
            && !shutdown.load(Ordering::Acquire);
        if let Err(_e) = send_response(&stream, &response, keep_alive) {
            // A client hanging up mid-stream is its business; count it,
            // close, and this worker moves on to the next connection.
            metrics.counter("serve_client_disconnect_total", &[]).inc();
            return;
        }
        if !keep_alive {
            return;
        }
    }
}

/// Writes one response to `sink` through a buffered writer at its default
/// capacity, flushed once at the end: the socket sees one write per full
/// buffer rather than several per NDJSON line. The writer does not hold
/// the whole response — a client that hangs up mid-body still fails the
/// next buffer-sized write.
fn send_response(sink: impl Write, response: &Response, keep_alive: bool) -> std::io::Result<()> {
    let mut out = BufWriter::new(sink);
    match &response.body {
        Body::Full(bytes) => http::write_response(
            &mut out,
            response.status,
            response.content_type,
            bytes,
            keep_alive,
            &response.headers,
        )?,
        Body::Lines(lines) => {
            let mut chunked = http::ChunkedResponse::begin(
                &mut out,
                response.status,
                response.content_type,
                keep_alive,
                &response.headers,
            )?;
            for line in lines {
                chunked.line(line)?;
            }
            chunked.finish()?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records what reaches the socket: every byte, and how many `write`
    /// calls carried them.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn send(response: &Response, keep_alive: bool) -> CountingWriter {
        let mut sink = CountingWriter::default();
        send_response(&mut sink, response, keep_alive).expect("in-memory write");
        sink
    }

    fn lines(lines: Vec<String>) -> Response {
        Response {
            status: 200,
            content_type: "application/x-ndjson",
            headers: vec![("x-request-id", "7".to_owned())],
            body: Body::Lines(lines),
        }
    }

    #[test]
    fn chunked_lines_keep_their_wire_format() {
        let response = lines(vec!["{\"a\":1}".into(), "{\"kind\":\"summary\"}".into()]);
        let sent = send(&response, true);
        assert_eq!(
            String::from_utf8(sent.bytes).unwrap(),
            "HTTP/1.1 200 OK\r\n\
             content-type: application/x-ndjson\r\n\
             x-request-id: 7\r\n\
             connection: keep-alive\r\n\
             transfer-encoding: chunked\r\n\r\n\
             8\r\n{\"a\":1}\n\r\n\
             13\r\n{\"kind\":\"summary\"}\n\r\n\
             0\r\n\r\n"
        );
        assert_eq!(sent.writes, 1);
    }

    #[test]
    fn full_bodies_keep_their_wire_format() {
        let response = Response::json(404, "{\"error\":\"no\"}".into());
        let sent = send(&response, false);
        assert_eq!(
            String::from_utf8(sent.bytes).unwrap(),
            "HTTP/1.1 404 Not Found\r\n\
             content-type: application/json\r\n\
             connection: close\r\n\
             content-length: 14\r\n\r\n\
             {\"error\":\"no\"}"
        );
        assert_eq!(sent.writes, 1);
    }

    /// A 60-line reply reaches the socket in buffer-sized writes, not a
    /// few writes per line (which, with the client's delayed ACK, stall a
    /// keep-alive connection for ~40 ms), and its framing is unchanged.
    #[test]
    fn sixty_lines_leave_in_buffer_sized_writes() {
        let body: Vec<String> = (0..60)
            .map(|i| format!("{{\"row\":{i},\"pad\":\"{}\"}}", "x".repeat(300)))
            .collect();
        let sent = send(&lines(body.clone()), true);
        let mut framed = String::new();
        for line in &body {
            framed.push_str(&format!("{:x}\r\n{line}\n\r\n", line.len() + 1));
        }
        framed.push_str("0\r\n\r\n");
        let text = String::from_utf8(sent.bytes).unwrap();
        let (_head, chunks) = text.split_once("\r\n\r\n").expect("head ends");
        assert_eq!(chunks, framed);
        let max_writes = text.len().div_ceil(8 << 10) + 1;
        assert!(
            sent.writes <= max_writes,
            "{} writes for {} bytes (at most {max_writes})",
            sent.writes,
            text.len()
        );
    }
}
