//! The TCP front-end: a JSON-lines protocol over a non-blocking poll loop.
//!
//! The workspace is vendored/offline, so there is no async runtime; the
//! front-end is written in the *shape* of one instead — a single-threaded
//! reactor whose [`Server::poll_once`] makes one non-blocking pass over the
//! listener and every connection and reports whether it made progress.
//! One reactor thread ([`ServiceHandle`](crate::ServiceHandle)) polls this
//! port and, in fleet mode, the coordinator's worker port
//! ([`crate::coordinator::Coordinator::poll_once`]) in turn, sleeping 2ms
//! when neither made progress.  Swapping in a real runtime later means
//! driving the `poll_once`s from tasks (or replacing them with
//! per-connection futures); no protocol or core changes are needed.
//!
//! ## Protocol
//!
//! One JSON object per line in both directions (`\n`-terminated).
//! Requests carry an `op` field:
//!
//! | request | response |
//! |---|---|
//! | `{"op":"ping"}` | `{"ok":true,"pong":true}` |
//! | `{"op":"submit","spec":{…}}` | `{"ok":true,"job":"…"}` |
//! | `{"op":"status","job":"…"}` | `{"ok":true,"status":{…}}` |
//! | `{"op":"list"}` | `{"ok":true,"jobs":[{…}]}` |
//! | `{"op":"result","job":"…"}` | `{"ok":true,"done":bool,"result":{…}\|null}` |
//! | `{"op":"watch","job":"…"}` | `{"ok":true,"watching":"…"}`, then streamed events |
//! | `{"op":"cancel","job":"…"}` | `{"ok":true,"job":"…","state":"cancelled"\|"cancelling"}` |
//!
//! **Auth**: when the server runs with a token file
//! ([`ServiceConfig::token_file`](crate::ServiceConfig::token_file)),
//! every request except `ping` must carry a `"token"` field naming a
//! known token; unauthenticated (or unknown-token) requests are rejected
//! with an `unauthorized: …` error.  Submitted jobs are stamped with the
//! token's *tenant*, `list` returns only the caller's (and tenantless)
//! jobs, and every job-addressed op (`status`, `result`, `watch`,
//! `cancel`) answers `unknown job` for jobs owned by other tenants —
//! existence is not leaked across tenants.  Without a token file the
//! protocol is exactly as before (tokens are ignored).
//!
//! Errors come back as `{"ok":false,"error":"…"}`.  A `watch` subscription
//! streams the job's event log from the beginning (`{"event":"round"\|"cell"}`
//! lines) and ends with the `{"event":"done","result":{…}}` line (for a
//! cancelled job that line additionally carries `"cancelled":true`).
//! `submit` specs may carry a `"priority"` field — among queued jobs,
//! higher priorities start first.  A `cancel` of a queued job is
//! immediate (`"cancelled"`); a running job stops cooperatively at its
//! next wave boundary (`"cancelling"`, then the `done` event).
//!
//! **Backpressure**: when the queued work-unit count is at or above
//! [`ServiceConfig::queue_watermark`](crate::ServiceConfig::queue_watermark),
//! `submit` defers instead of accepting unbounded work — the error
//! response additionally carries `"retry_after_ms"`, `"queued_units"` and
//! `"watermark"`, and the client should retry after the hint
//! ([`Client::try_submit`](crate::Client::try_submit) surfaces this as a
//! typed variant).
//!
//! **Slow readers**: a connection's unsent output is bounded.  While more
//! than 256 KiB (`OUTBUF_WATERMARK`) wait for a client, the reactor stops
//! reading its requests and stops replaying its watch events; both
//! resume, where they left off, once the client drains the backlog.  A
//! watch is a cursor into the job's event log, so pausing it loses
//! nothing and a slow watcher is never disconnected.  A request line
//! longer than 1 MiB closes the connection.

use crate::core::{ServiceCore, SubmitRejection};
use crate::framing;
use crate::job::JobSpec;
use rvz_bench::json::{parse, Json};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

/// Unsent output above which a connection is paused: no new requests
/// are read and no watch events replayed until the client catches up.
/// A connection's output buffer therefore never exceeds this plus one
/// line.
const OUTBUF_WATERMARK: usize = 256 * 1024;

/// One client connection of the reactor.
struct Conn {
    stream: TcpStream,
    inbuf: framing::InBuf,
    outbuf: Vec<u8>,
    /// Active `watch` subscriptions: (job id, next event cursor).
    watches: Vec<(String, usize)>,
    closed: bool,
}

impl Conn {
    fn queue_line(&mut self, doc: &Json) {
        framing::queue_line(&mut self.outbuf, doc);
    }
}

/// The reactor state: listener + connections (see the module docs).
pub struct Server {
    core: Arc<ServiceCore>,
    listener: TcpListener,
    addr: SocketAddr,
    conns: Vec<Conn>,
}

impl Server {
    /// Bind the listener (non-blocking) on `listen`.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind(core: Arc<ServiceCore>, listen: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(Server { core, listener, addr, conns: Vec::new() })
    }

    /// The bound address (useful with an ephemeral `:0` port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// One non-blocking pass: accept, read, dispatch, stream watch events,
    /// flush.  Returns whether any I/O progress was made (callers sleep
    /// briefly when idle).
    pub fn poll_once(&mut self) -> bool {
        let mut progress = false;

        // Accept everything currently pending.
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_ok() {
                        self.conns.push(Conn {
                            stream,
                            inbuf: framing::InBuf::default(),
                            outbuf: Vec::new(),
                            watches: Vec::new(),
                            closed: false,
                        });
                        progress = true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }

        for conn in &mut self.conns {
            progress |= Self::service_conn(&self.core, conn);
        }
        self.conns.retain(|c| !c.closed);
        progress
    }

    /// Read, dispatch and write one connection; returns progress.  Every
    /// step that adds output first checks the [`OUTBUF_WATERMARK`].
    fn service_conn(core: &Arc<ServiceCore>, conn: &mut Conn) -> bool {
        let mut progress = false;
        if conn.outbuf.len() <= OUTBUF_WATERMARK {
            let (read, closed) = conn.inbuf.read_available(&mut conn.stream);
            conn.closed |= closed;
            progress = read;
        }

        // Dispatch complete lines.
        while conn.outbuf.len() <= OUTBUF_WATERMARK {
            match conn.inbuf.next_line() {
                Ok(Some(line)) => {
                    let response = dispatch(core, &line, &mut conn.watches);
                    conn.queue_line(&response);
                    progress = true;
                }
                Ok(None) => break,
                Err(e) => {
                    eprintln!("server: dropping a client ({e})");
                    conn.closed = true;
                    return true;
                }
            }
        }

        // Stream watch events (log replay by cursor); a watch ends with
        // its job's `done` event.
        let outbuf = &mut conn.outbuf;
        conn.watches.retain_mut(|(job, cursor)| {
            if outbuf.len() > OUTBUF_WATERMARK {
                return true;
            }
            for event in core.events_from(job, *cursor).unwrap_or_default() {
                if outbuf.len() > OUTBUF_WATERMARK {
                    break;
                }
                framing::queue_line(outbuf, &event);
                *cursor += 1;
                progress = true;
                if event.get("event").and_then(Json::as_str) == Some("done") {
                    return false;
                }
            }
            true
        });

        // Flush as much as the socket accepts.
        let (wrote, closed) = framing::flush(&mut conn.stream, &mut conn.outbuf);
        conn.closed |= closed;
        progress | wrote
    }
}

/// The caller's resolved identity: `Open` on servers without a token
/// file, `Tenant` after a successful token lookup.
enum Identity {
    /// No auth configured; every job is visible.
    Open,
    /// Authenticated as this tenant; sees own and tenantless jobs.
    Tenant(String),
}

impl Identity {
    /// Whether a job owned by `owner` is visible to this caller.
    fn sees(&self, owner: Option<&str>) -> bool {
        match (self, owner) {
            (Identity::Open, _) | (_, None) => true,
            (Identity::Tenant(tenant), Some(owner)) => tenant == owner,
        }
    }

    /// The tenant to stamp on submitted jobs.
    fn tenant(&self) -> Option<&str> {
        match self {
            Identity::Open => None,
            Identity::Tenant(tenant) => Some(tenant),
        }
    }
}

/// Resolve the request's identity against the core's token table.
/// `Err` carries the ready-to-send unauthorized response.
fn authenticate(core: &ServiceCore, request: &Json, op: &str) -> Result<Identity, Json> {
    let Some(tokens) = core.auth() else { return Ok(Identity::Open) };
    match request.get("token").and_then(Json::as_str) {
        Some(token) => match tokens.get(token) {
            Some(tenant) => Ok(Identity::Tenant(tenant.clone())),
            None => Err(error("unauthorized: unknown token".to_string())),
        },
        None if op == "ping" => Ok(Identity::Open),
        None => Err(error(format!(
            "unauthorized: `{op}` requires a `token` field on this server \
             (it runs with --token-file; pass --token to revizor-submit)"
        ))),
    }
}

/// Handle one request line; returns the response document (and may register
/// a watch subscription).
fn dispatch(core: &Arc<ServiceCore>, line: &str, watches: &mut Vec<(String, usize)>) -> Json {
    let request = match parse(line) {
        Ok(doc) => doc,
        Err(e) => return error(format!("malformed request: {e}")),
    };
    let op = match request.get("op").and_then(Json::as_str) {
        Some(op) => op,
        None => return error("request needs a string `op` field".to_string()),
    };
    let identity = match authenticate(core, &request, op) {
        Ok(identity) => identity,
        Err(response) => return response,
    };
    // A job-addressed op on another tenant's job answers exactly like a
    // nonexistent job, so job ids never leak across tenants.
    let visible = |job: &str| -> Result<(), Json> {
        match core.status(job) {
            Some(status) if identity.sees(status.tenant.as_deref()) => Ok(()),
            _ => Err(error(format!("unknown job `{job}`"))),
        }
    };
    match op {
        "ping" => Json::obj().field("ok", true).field("pong", true),
        "submit" => {
            let Some(spec) = request.get("spec") else {
                return error("submit needs a `spec` object".to_string());
            };
            let mut spec = match JobSpec::from_json(spec) {
                Ok(spec) => spec,
                Err(e) => return error(e),
            };
            // Ownership comes from the authenticated token, never from
            // the submitted document.
            spec.tenant = identity.tenant().map(str::to_string);
            match core.try_submit(spec) {
                Ok(job) => Json::obj().field("ok", true).field("job", job),
                Err(SubmitRejection::Invalid(e)) => error(e),
                Err(SubmitRejection::Backpressure(bp)) => {
                    let retry_ms = bp.retry_after.as_millis() as u64;
                    error(format!(
                        "backpressure: {} work units queued (watermark {}); retry in {retry_ms}ms",
                        bp.queued_units, bp.watermark
                    ))
                    .field("retry_after_ms", retry_ms)
                    .field("queued_units", bp.queued_units)
                    .field("watermark", bp.watermark)
                }
            }
        }
        "status" => match job_of(&request) {
            Err(e) => error(e),
            Ok(job) => match visible(job) {
                Err(response) => response,
                Ok(()) => match core.status(job) {
                    Some(status) => {
                        Json::obj().field("ok", true).field("status", status.to_json())
                    }
                    None => error(format!("unknown job `{job}`")),
                },
            },
        },
        "list" => Json::obj().field("ok", true).field(
            "jobs",
            Json::Arr(
                core.list()
                    .iter()
                    .filter(|s| identity.sees(s.tenant.as_deref()))
                    .map(|s| s.to_json())
                    .collect(),
            ),
        ),
        "result" => match job_of(&request) {
            Err(e) => error(e),
            Ok(job) => match visible(job) {
                Err(response) => response,
                Ok(()) => match core.result(job) {
                    None => error(format!("unknown job `{job}`")),
                    Some(None) => Json::obj()
                        .field("ok", true)
                        .field("done", false)
                        .field("result", Json::Null),
                    Some(Some(result)) => {
                        Json::obj().field("ok", true).field("done", true).field("result", result)
                    }
                },
            },
        },
        "watch" => match job_of(&request) {
            Err(e) => error(e),
            Ok(job) => {
                if let Err(response) = visible(job) {
                    return response;
                }
                watches.push((job.to_string(), 0));
                Json::obj().field("ok", true).field("watching", job)
            }
        },
        "cancel" => match job_of(&request) {
            Err(e) => error(e),
            Ok(job) => match visible(job) {
                Err(response) => response,
                // A queued job is already terminally cancelled; a running
                // one stops cooperatively at its next wave boundary.
                Ok(()) => match core.cancel(job) {
                    Ok(phase) => Json::obj().field("ok", true).field("job", job).field(
                        "state",
                        if phase == crate::spool::JobPhase::Cancelled {
                            "cancelled"
                        } else {
                            "cancelling"
                        },
                    ),
                    Err(e) => error(e),
                },
            },
        },
        op => error(format!("unknown op `{op}`")),
    }
}

fn job_of(request: &Json) -> Result<&str, String> {
    request
        .get("job")
        .and_then(Json::as_str)
        .ok_or_else(|| "request needs a string `job` field".to_string())
}

fn error(message: String) -> Json {
    Json::obj().field("ok", false).field("error", message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;
    use std::io::Write;
    use std::time::{Duration, Instant};

    /// A client that pipelines thousands of `watch` requests and never
    /// reads a byte: the reactor pauses it at the watermark instead of
    /// buffering, its job still finishes, and a second client is served
    /// meanwhile.
    #[test]
    fn a_watcher_that_never_reads_is_paused_at_the_watermark() {
        let core = ServiceCore::new(ServiceConfig::default()).expect("core starts");
        let worker = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || crate::worker::run_local(&core, "local-0"))
        };
        let mut server = Server::bind(Arc::clone(&core), "127.0.0.1:0").expect("binds");
        let addr = server.local_addr();
        let job = core
            .submit(JobSpec::new(3).with_budget(20).add_cell(1, "CT-SEQ"))
            .expect("job accepted");

        // Every `watch` replays the whole event log: far more output than
        // the kernel's socket buffers can absorb.
        let watch = Json::obj().field("op", "watch").field("job", job.as_str()).render();
        let requests = format!("{watch}\n").repeat(20_000);
        let watcher = TcpStream::connect(addr).expect("watcher connects");
        // Writes on a clone, so the watcher stays connected after the
        // last request went out.
        let mut writer = watcher.try_clone().expect("clone");
        let flooder = std::thread::spawn(move || {
            // Blocks while the reactor is paused; fails once it is dropped.
            let _ = writer.write_all(requests.as_bytes());
        });
        let other = {
            let job = job.clone();
            std::thread::spawn(move || {
                let mut client = crate::Client::connect(addr).expect("second client connects");
                loop {
                    if let Some(result) = client.result(&job).expect("second client served") {
                        return result;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };

        let deadline = Instant::now() + Duration::from_secs(120);
        let mut peak = 0;
        while !(other.is_finished() && peak > OUTBUF_WATERMARK) {
            assert!(Instant::now() < deadline, "reactor stalled (peak outbuf {peak} B)");
            server.poll_once();
            peak = server.conns.iter().map(|c| c.outbuf.len()).max().unwrap_or(0).max(peak);
        }
        let result = other.join().expect("second client thread");
        assert!(result.get("cells").is_some(), "the job finished: {}", result.render());
        // One line is at most the longest event (or a short response).
        let longest = core
            .events_from(&job, 0)
            .expect("job known")
            .iter()
            .map(|e| e.render().len() + 1)
            .max()
            .unwrap_or(0);
        assert!(
            peak <= OUTBUF_WATERMARK + longest.max(256),
            "outbuf peaked at {peak} B, over the {OUTBUF_WATERMARK} B watermark plus one line \
             ({longest} B)"
        );
        drop(server);
        let _ = flooder.join();
        drop(watcher);
        core.stop();
        let _ = worker.join();
    }
}
