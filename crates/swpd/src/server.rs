//! The daemon itself: accept loop, per-connection threads, dispatch,
//! and the drain protocol.
//!
//! # Connection model
//!
//! One thread accepts; each connection gets one thread of its own. The
//! first line decides the transport: `POST ` / `GET ` means HTTP/1.1
//! (one request per connection, `Connection: close`), anything else is
//! raw JSONL with pipelining.
//!
//! A JSONL connection's thread reads request lines and answers all it
//! can on the spot: pings, stats, session operations, bad requests and
//! admission refusals, and cache hits. A solve request is parsed, keyed
//! and looked up in the cache here (`worker::prepare`); only a miss is queued,
//! carrying its parsed problem to a worker. Whichever thread finishes a
//! reply writes it straight to the connection's socket, one whole line
//! per locked write, so replies stream out in completion order (clients
//! correlate by `id`) and a cache hit costs no thread hand-off beyond
//! the socket itself.
//!
//! Every line read is capped: a JSONL line at `MAX_BODY_BYTES` (1 MiB), an
//! HTTP request or header line at `MAX_HEAD_LINE_BYTES` (8 KiB). An over-long
//! line is refused with one `bad_request`, and the connection closes.
//! A client that stops reading its replies is cut off after
//! `WRITE_TIMEOUT` (10 s): the failed write marks the connection's sink dead
//! and shuts the socket down, and the reader stops dispatching the
//! requests it has already buffered, as on any disconnect.
//!
//! # Disconnect → cancellation
//!
//! Each connection owns one cancel token, shared by every solve it
//! starts, queued or session. EOF, a read error or a dead sink fires
//! it; in-flight solves for that connection stop at their next budget
//! check and classify as `cancelled`.
//!
//! # Drain
//!
//! `shutdown` (request or [`DaemonHandle::shutdown`]) latches
//! `draining`: admission starts refusing (`overloaded`), the acceptor
//! is unblocked by a connect-to-self and exits, workers run the queue
//! dry and return. A grace timer then latches `hard_drain` and fires
//! every in-flight token, bounding the drain by `drain_grace` even if a
//! solve would run for hours. Joining the handle flushes nothing extra:
//! the artifact was flushed per record all along (crash-only design).

use crate::proto::{Reply, ReplyStatus, Request};
use crate::session;
use crate::state::{DaemonConfig, Job, ReplySink, Shared};
use crate::worker::{prepare, worker_loop};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use swp_milp::CancelToken;

/// Largest HTTP request body, and longest JSONL request line, the
/// daemon reads. A `Content-Length` above it (or one that is not a
/// number) is refused before any allocation.
const MAX_BODY_BYTES: usize = 1 << 20;

/// Longest HTTP request line or header line the daemon reads.
const MAX_HEAD_LINE_BYTES: usize = 8 << 10;

/// Most header lines an HTTP request may carry.
const MAX_HEADER_LINES: usize = 100;

/// How long one reply write may block on a client that does not read
/// its replies before the daemon drops the connection.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a refused connection's further input is discarded before
/// the socket closes (see [`close_unread`]).
const CLOSE_LINGER: Duration = Duration::from_secs(1);

/// Factory for running daemons.
#[derive(Debug)]
pub struct Daemon;

/// A running daemon. Dropping the handle does *not* stop the daemon;
/// call [`shutdown`](DaemonHandle::shutdown) (or send a `shutdown`
/// request) and then [`wait`](DaemonHandle::wait).
#[derive(Debug)]
pub struct DaemonHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Binds, replays the artifact if resuming, and starts the worker
    /// pool and accept loop.
    ///
    /// # Errors
    ///
    /// Any I/O error binding the listener or opening the artifact.
    pub fn start(config: DaemonConfig) -> io::Result<DaemonHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(config)?);

        let workers = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("swpd-worker-{i}"))
                    .spawn(move || worker_loop(shared))
            })
            .collect::<io::Result<Vec<_>>>()?;

        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("swpd-acceptor".to_string())
                .spawn(move || accept_loop(&listener, &shared, addr))?
        };

        Ok(DaemonHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }
}

impl DaemonHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A local (not over-the-wire) telemetry snapshot.
    pub fn stats(&self) -> crate::stats::StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Begins a graceful drain, waits for it to complete, and returns
    /// the final counters.
    pub fn shutdown(mut self) -> crate::stats::StatsSnapshot {
        begin_drain(&self.shared, self.addr);
        self.join()
    }

    /// Waits for a drain begun elsewhere (e.g. a remote `shutdown`
    /// request) to complete, and returns the final counters.
    pub fn wait(mut self) -> crate::stats::StatsSnapshot {
        self.join()
    }

    fn join(&mut self) -> crate::stats::StatsSnapshot {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.stats.snapshot()
    }
}

/// Latches the drain flags (idempotently), wakes every sleeping worker,
/// unblocks the acceptor, and arms the hard-cancel grace timer.
pub(crate) fn begin_drain(shared: &Arc<Shared>, addr: SocketAddr) {
    if shared.draining.swap(true, Ordering::Relaxed) {
        return; // someone already started the drain
    }
    shared.stats.set_draining();
    shared.queue_cv.notify_all();
    // Unblock `accept()` — no signals available (and none wanted: the
    // protocol is the only control surface), so connect to ourselves.
    let _ = TcpStream::connect(addr);
    let shared = Arc::clone(shared);
    let _ = thread::Builder::new()
        .name("swpd-drain-grace".to_string())
        .spawn(move || {
            thread::sleep(shared.config.drain_grace);
            shared.hard_drain.store(true, Ordering::Relaxed);
            shared.cancel_all_inflight();
            shared.queue_cv.notify_all();
        });
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, addr: SocketAddr) {
    for conn in listener.incoming() {
        if shared.draining.load(Ordering::Relaxed) {
            return;
        }
        match conn {
            Ok(stream) => {
                let shared = Arc::clone(shared);
                let spawned = thread::Builder::new()
                    .name("swpd-conn".to_string())
                    .spawn(move || handle_conn(&shared, stream, addr));
                if let Err(e) = spawned {
                    eprintln!("swpd: failed to spawn connection thread: {e}");
                }
            }
            Err(e) => {
                eprintln!("swpd: accept failed: {e}");
                // A transient accept error must not spin-loop hot.
                thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// The outcome of reading one line under a byte cap.
#[derive(Debug, PartialEq, Eq)]
enum LineRead {
    /// End of stream or a read error: the client is gone.
    Eof,
    /// A line, without its newline (the stream's last line may lack one).
    Line,
    /// More than the cap arrived without a newline.
    TooLong,
}

/// Reads one line of at most `cap` bytes (newline excluded) into `buf`,
/// never buffering more than `cap + 1` bytes of it.
fn read_line_capped(reader: &mut impl BufRead, cap: usize, buf: &mut Vec<u8>) -> LineRead {
    buf.clear();
    match reader.take(cap as u64 + 1).read_until(b'\n', buf) {
        Ok(0) | Err(_) => LineRead::Eof,
        Ok(_) if buf.last() == Some(&b'\n') => {
            buf.pop();
            LineRead::Line
        }
        Ok(_) if buf.len() > cap => LineRead::TooLong,
        Ok(_) => LineRead::Line,
    }
}

fn handle_conn(shared: &Arc<Shared>, stream: TcpStream, addr: SocketAddr) {
    // Replies from different workers are separate small writes; Nagle
    // would hold each one back until the client acknowledged the last.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("swpd: connection clone failed: {e}");
            return;
        }
    };
    let mut reader = BufReader::new(reader_stream);
    let mut first = Vec::new();
    let read = read_line_capped(&mut reader, MAX_BODY_BYTES, &mut first);
    if read == LineRead::Eof {
        return; // immediate EOF (e.g. the drain's self-connect)
    }
    if first.starts_with(b"POST ") || first.starts_with(b"GET ") {
        handle_http(shared, stream, reader, &first, addr);
    } else {
        handle_jsonl(shared, stream, reader, first, read, addr);
    }
}

/// Raw JSONL: pipelined requests in, completion-ordered replies out.
fn handle_jsonl(
    shared: &Arc<Shared>,
    stream: TcpStream,
    mut reader: BufReader<TcpStream>,
    mut line: Vec<u8>,
    mut read: LineRead,
    addr: SocketAddr,
) {
    let sink = ReplySink::socket(stream);
    let cancel = CancelToken::new();
    // A dead sink means the client stopped reading: answering what is
    // still buffered would only write into a closed socket.
    while !sink.is_dead() {
        match read {
            LineRead::Eof => break, // client gone
            LineRead::TooLong => {
                shared.stats.count_request();
                let why = format!("request line exceeds the {MAX_BODY_BYTES}-byte limit");
                shared.finish(&sink, Reply::error("", ReplyStatus::BadRequest, why));
                close_unread(reader.get_ref());
                break;
            }
            LineRead::Line => match std::str::from_utf8(&line) {
                Ok(text) if text.trim().is_empty() => {}
                Ok(text) => dispatch(shared, text.trim(), &sink, &cancel, addr),
                Err(_) => dispatch_parsed(
                    shared,
                    Err("request line is not UTF-8".to_string()),
                    &sink,
                    &cancel,
                    addr,
                ),
            },
        }
        read = read_line_capped(&mut reader, MAX_BODY_BYTES, &mut line);
    }
    // Disconnect: cancel everything this connection still has in
    // flight.
    cancel.cancel();
}

/// Routes one request line. Solve requests that miss the cache are
/// enqueued (a worker sends their reply to `sink` later); everything
/// else is answered inline.
fn dispatch(
    shared: &Arc<Shared>,
    line: &str,
    sink: &ReplySink,
    cancel: &CancelToken,
    addr: SocketAddr,
) {
    dispatch_parsed(shared, Request::from_json_line(line), sink, cancel, addr);
}

/// Routes one already-parsed (or parse-failed) request. Split from
/// [`dispatch`] so the HTTP front door can inject the op and session
/// handle its path already names.
fn dispatch_parsed(
    shared: &Arc<Shared>,
    req: Result<Request, String>,
    sink: &ReplySink,
    cancel: &CancelToken,
    addr: SocketAddr,
) {
    shared.stats.count_request();
    let req = match req {
        Ok(r) => r,
        Err(why) => {
            shared.finish(sink, Reply::error("", ReplyStatus::BadRequest, why));
            return;
        }
    };
    match req {
        Request::Ping { id } => shared.finish(sink, Reply::status(id, ReplyStatus::Ok)),
        Request::Stats { id } => {
            // Classify this request *before* snapshotting so the
            // returned counters satisfy `requests == classified_total`
            // at idle (the snapshot must include itself).
            shared.stats.count_reply(ReplyStatus::Ok);
            let mut r = Reply::status(id, ReplyStatus::Ok);
            r.counters = Some(shared.stats.snapshot());
            sink.send(r);
        }
        Request::Shutdown { id } => {
            shared.finish(sink, Reply::status(id, ReplyStatus::Ok));
            begin_drain(shared, addr);
        }
        Request::SessionOpen { id, case } => {
            shared.finish(sink, session::open(shared, &id, &case));
        }
        Request::SessionEdit {
            id,
            session: handle,
            edit,
        } => {
            shared.finish(sink, session::edit(shared, &id, handle, &edit));
        }
        Request::SessionSolve {
            id,
            session: handle,
            ticks,
            timeout_ms,
        } => {
            // Runs inline on this thread (session ops are causally
            // ordered per client); it registers the connection's token
            // so a drain hard-stop still interrupts it.
            shared.finish(
                sink,
                session::solve(shared, &id, handle, ticks, timeout_ms, cancel),
            );
        }
        Request::SessionClose {
            id,
            session: handle,
        } => {
            shared.finish(sink, session::close(shared, &id, handle));
        }
        Request::Solve(solve) => {
            if solve.inject_panic && !shared.config.allow_fault_injection {
                shared.finish(
                    sink,
                    Reply::error(
                        solve.id,
                        ReplyStatus::BadRequest,
                        "fault injection is disabled on this daemon",
                    ),
                );
                return;
            }
            // A draining daemon refuses every solve, cache hits too.
            if let Some(refusal) = shared.draining_refusal(&solve.id) {
                shared.finish(sink, refusal);
                return;
            }
            let problem = match prepare(shared, &solve) {
                Ok(problem) => problem,
                Err(answer) => {
                    shared.finish(sink, *answer);
                    return;
                }
            };
            let job = Job {
                seq: shared.alloc_seq(),
                req: solve,
                problem,
                reply_to: sink.clone(),
                cancel: cancel.clone(),
            };
            if let Err(refusal) = shared.enqueue(job) {
                shared.finish(sink, refusal);
            }
        }
    }
}

/// Minimal HTTP/1.1 front door: one request per connection.
///
/// Routes: `POST /solve` (body = the JSON request object, `op`
/// optional), `POST /session`, `POST /session/{id}/edit`,
/// `POST /session/{id}/solve`, `POST /session/{id}/close`,
/// `POST /shutdown`, `GET /stats`, `GET /health`. Status
/// codes follow [`ReplyStatus::http_code`] — notably `429` for
/// `overloaded`, which is what off-the-shelf HTTP clients expect from
/// load shedding.
fn handle_http(
    shared: &Arc<Shared>,
    stream: TcpStream,
    mut reader: BufReader<TcpStream>,
    request_line: &[u8],
    addr: SocketAddr,
) {
    if request_line.len() > MAX_HEAD_LINE_BYTES {
        let why = format!("request line exceeds the {MAX_HEAD_LINE_BYTES}-byte limit");
        return refuse_http(shared, stream, why);
    }
    let request_line = String::from_utf8_lossy(request_line);
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");

    // Headers: only Content-Length matters to us.
    let mut content_length = 0usize;
    let mut line = Vec::new();
    let mut headers = 0usize;
    loop {
        match read_line_capped(&mut reader, MAX_HEAD_LINE_BYTES, &mut line) {
            LineRead::Eof => return,
            LineRead::TooLong => {
                let why = format!("header line exceeds the {MAX_HEAD_LINE_BYTES}-byte limit");
                return refuse_http(shared, stream, why);
            }
            LineRead::Line => {}
        }
        let line = String::from_utf8_lossy(&line);
        let line = line.trim();
        if line.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADER_LINES {
            let why = format!("more than {MAX_HEADER_LINES} header lines");
            return refuse_http(shared, stream, why);
        }
        if let Some(v) = line
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = v.parse().unwrap_or(usize::MAX);
        }
    }
    if content_length > MAX_BODY_BYTES {
        let why = format!("content-length exceeds the {MAX_BODY_BYTES}-byte body limit");
        return refuse_http(shared, stream, why);
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 && reader.read_exact(&mut body).is_err() {
        return;
    }
    let body = String::from_utf8_lossy(&body).into_owned();

    let reply = match (method, path) {
        ("GET", "/health") => {
            shared.stats.count_request();
            let mut r = Reply::status("health", ReplyStatus::Ok);
            shared.stats.count_reply(r.status);
            r.error = None;
            r
        }
        ("GET", "/stats") => {
            shared.stats.count_request();
            // Classified before snapshotting — see the JSONL stats path.
            shared.stats.count_reply(ReplyStatus::Ok);
            let mut r = Reply::status("stats", ReplyStatus::Ok);
            r.counters = Some(shared.stats.snapshot());
            r
        }
        ("POST", "/shutdown") => {
            shared.stats.count_request();
            let r = Reply::status("shutdown", ReplyStatus::Ok);
            shared.stats.count_reply(r.status);
            begin_drain(shared, addr);
            r
        }
        ("POST", "/solve") => {
            let (tx, rx) = channel::<Reply>();
            let cancel = CancelToken::new();
            dispatch(shared, &body, &ReplySink::Channel(tx), &cancel, addr);
            wait_for_reply(&rx, &stream, &cancel)
        }
        ("POST", p) if p == "/session" || p.starts_with("/session/") => {
            let (tx, rx) = channel::<Reply>();
            let cancel = CancelToken::new();
            let body = if body.trim().is_empty() {
                "{}".to_string()
            } else {
                body
            };
            let req = route_session(p, &body);
            dispatch_parsed(shared, req, &ReplySink::Channel(tx), &cancel, addr);
            wait_for_reply(&rx, &stream, &cancel)
        }
        _ => {
            shared.stats.count_request();
            let r = Reply::error(
                "",
                ReplyStatus::BadRequest,
                format!("no route {method} {path}"),
            );
            shared.stats.count_reply(r.status);
            r
        }
    };
    write_http_reply(&stream, &reply);
}

/// Counts and answers an HTTP request whose head or declared body is
/// over a limit, with one `bad_request`, and closes.
fn refuse_http(shared: &Shared, stream: TcpStream, why: String) {
    shared.stats.count_request();
    let r = Reply::error("", ReplyStatus::BadRequest, why);
    shared.stats.count_reply(r.status);
    write_http_reply(&stream, &r);
    close_unread(&stream);
}

/// Closes a connection refused while its client may still be sending.
/// Closing a socket with unread input resets it, and the reset can
/// destroy the refusal before the client reads it. So stop sending,
/// then discard input until the client closes or [`CLOSE_LINGER`]
/// passes.
fn close_unread(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(CLOSE_LINGER));
    let deadline = Instant::now() + CLOSE_LINGER;
    let mut scratch = [0u8; 4096];
    let mut input = stream;
    while Instant::now() < deadline {
        match input.read(&mut scratch) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

/// Writes `reply` as a one-shot HTTP/1.1 response.
fn write_http_reply(mut stream: &TcpStream, reply: &Reply) {
    let body = reply.to_json_line();
    let code = reply.status.http_code();
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        429 => "Too Many Requests",
        499 => "Client Closed Request",
        _ => "Internal Server Error",
    };
    let response = format!(
        "HTTP/1.1 {code} {reason}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}\n",
        body.len() + 1
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// Maps a `/session[/{id}/{action}]` path plus body to a parsed
/// request: `POST /session` opens, `POST /session/{id}/edit` edits,
/// `POST /session/{id}/solve` solves, `POST /session/{id}/close`
/// closes. The path supplies the op and session handle; the body
/// supplies the rest.
fn route_session(path: &str, body: &str) -> Result<Request, String> {
    if path == "/session" {
        return Request::from_json_line_with(body, "session_open", None);
    }
    let rest = path.trim_start_matches("/session/");
    let mut parts = rest.split('/');
    let handle: u64 = parts
        .next()
        .unwrap_or("")
        .parse()
        .map_err(|_| format!("bad session id in path `{path}`"))?;
    let op = match parts.next() {
        Some("edit") => "session_edit",
        Some("solve") => "session_solve",
        Some("close") => "session_close",
        _ => return Err(format!("no route POST {path}")),
    };
    Request::from_json_line_with(body, op, Some(handle))
}

/// Waits for the solve reply while watching the socket for a client
/// disconnect, which fires the request's cancel token. The solve always
/// replies (classification is total), so this loop always terminates.
fn wait_for_reply(rx: &Receiver<Reply>, stream: &TcpStream, cancel: &CancelToken) -> Reply {
    let mut probe = [0u8; 1];
    let mut watch = stream.try_clone().ok();
    if let Some(s) = &watch {
        let _ = s.set_read_timeout(Some(Duration::from_millis(50)));
    }
    loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(reply) => return reply,
            Err(RecvTimeoutError::Disconnected) => {
                // Refused at admission: dispatch already sent through tx
                // before dropping it — can't happen after Ok, but keep a
                // total answer.
                return Reply::error("", ReplyStatus::InternalError, "reply channel closed");
            }
            Err(RecvTimeoutError::Timeout) => {
                if let Some(s) = &mut watch {
                    match s.read(&mut probe) {
                        Ok(0) => {
                            // EOF: the client hung up mid-solve.
                            cancel.cancel();
                            watch = None; // stop probing; just await the reply
                        }
                        Ok(_) => {} // pipelined garbage; ignore
                        Err(e)
                            if e.kind() == io::ErrorKind::WouldBlock
                                || e.kind() == io::ErrorKind::TimedOut => {}
                        Err(_) => {
                            cancel.cancel();
                            watch = None;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(input: &[u8], cap: usize) -> Vec<(LineRead, Vec<u8>)> {
        let mut reader = input;
        let mut buf = Vec::new();
        let mut out = Vec::new();
        loop {
            let read = read_line_capped(&mut reader, cap, &mut buf);
            let stop = read != LineRead::Line;
            out.push((read, buf.clone()));
            if stop {
                return out;
            }
        }
    }

    #[test]
    fn capped_reads_split_lines_and_stop_one_byte_over_the_cap() {
        use LineRead::{Eof, Line, TooLong};
        // A line of exactly the cap fits, newline or not; the stream's
        // last line needs no newline.
        assert_eq!(
            lines(b"abcd\nab\nabcd", 4),
            vec![
                (Line, b"abcd".to_vec()),
                (Line, b"ab".to_vec()),
                (Line, b"abcd".to_vec()),
                (Eof, Vec::new()),
            ]
        );
        // One byte more is refused having buffered cap + 1 bytes only.
        assert_eq!(lines(b"abcde\n", 4), vec![(TooLong, b"abcde".to_vec())]);
        assert_eq!(lines(b"", 4), vec![(Eof, Vec::new())]);
    }
}
