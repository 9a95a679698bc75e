//! Unix-domain-socket transport: the `gmserved` accept loop and the
//! [`ServeClient`] helper.
//!
//! One thread per connection; each connection is a sequence of
//! length-prefixed request/response frames (see [`crate::protocol`]).
//! A `Shutdown` request is acknowledged on its own connection, then the
//! accept loop stops, the service drains its queues, and
//! [`serve_unix`] returns — the clean-shutdown path the CI smoke test
//! asserts.

use crate::json::Json;
use crate::protocol::{encode_frame, read_frame, read_frame_with, write_frame, Request, Response};
use crate::service::{ClosureService, SubmitOptions};
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Binds a Unix listener at `path`, replacing a stale socket file.
///
/// # Errors
///
/// Propagates bind failures.
pub fn bind_unix(path: &Path) -> io::Result<UnixListener> {
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    UnixListener::bind(path)
}

/// Serves `service` on `listener` until a client sends
/// `Request::Shutdown`. Returns after the service has drained and every
/// connection thread has been joined.
///
/// # Errors
///
/// Propagates accept-loop I/O failures (per-connection errors only end
/// that connection).
pub fn serve_unix(service: Arc<ClosureService>, listener: UnixListener) -> io::Result<()> {
    /// How often finished connection threads are reaped.
    const REAP_INTERVAL: Duration = Duration::from_millis(250);
    let closing = Arc::new(AtomicBool::new(false));
    listener.set_nonblocking(true)?;
    let mut conn_threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut last_reap = std::time::Instant::now();
    let mut fatal = None;
    while !closing.load(Ordering::Acquire) {
        // Reap finished connections on a periodic tick — a long-lived
        // daemon must not accumulate one dead JoinHandle per past
        // client, and the tick fires whether the iteration accepted a
        // connection or idled on `WouldBlock`, so the reap cadence is
        // independent of client traffic.
        if last_reap.elapsed() >= REAP_INTERVAL {
            conn_threads.retain(|t| !t.is_finished());
            last_reap = std::time::Instant::now();
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let service = service.clone();
                let closing = closing.clone();
                conn_threads.push(std::thread::spawn(move || {
                    let _ = handle_connection(&service, stream, &closing);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => {
                // A fatal accept failure still runs the full teardown
                // (unblock + join connections, drain the service) —
                // embedders must not be left with orphaned threads.
                closing.store(true, Ordering::Release);
                fatal = Some(e);
            }
        }
    }
    // Drain the service FIRST: a submission that raced the close may
    // sit in a queue no worker will run, and a connection thread may be
    // blocked in Wait on it — shutdown() cancels those and notifies, so
    // the connection joins below can complete.
    service.shutdown();
    for t in conn_threads {
        let _ = t.join();
    }
    match fatal {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn handle_connection(
    service: &ClosureService,
    mut stream: UnixStream,
    closing: &AtomicBool,
) -> io::Result<()> {
    // Reads poll with a short timeout so an *idle* open connection
    // notices a server shutdown instead of pinning the accept loop's
    // join forever.
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    // One frame buffer for the connection's lifetime: a request is read
    // into and parsed out of it, then the response is serialized into
    // and written from it, so steady traffic allocates no frame-sized
    // buffers here.
    let mut buf = Vec::new();
    while let Some(frame) = read_frame_interruptible(&mut stream, &mut buf, closing)? {
        let request = Request::from_json(&frame);
        // Injected abrupt disconnect: drop the connection between a
        // request and its response — the shape of a client that
        // vanished or a peer reset. Only this connection dies; the
        // accept loop and every other client are untouched.
        if gm_fault::fire("net.disconnect") {
            return Ok(());
        }
        let response = match request {
            Ok(request) => {
                let response = service.handle_request(&request);
                if matches!(request, Request::Shutdown) {
                    closing.store(true, Ordering::Release);
                }
                response
            }
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        };
        write_response_frame(&mut stream, &mut buf, &response)?;
        if matches!(response, Response::ShuttingDown) {
            break;
        }
    }
    Ok(())
}

/// Writes one response frame, honoring the `net.frame_truncate` fault:
/// when armed and fired, the length prefix and only half the payload
/// reach the client before the connection errors out — the torn-write
/// shape a crashed server leaves behind. The client's frame reader must
/// surface this as `UnexpectedEof`, never a hang or a desynced stream.
fn write_response_frame(
    stream: &mut UnixStream,
    buf: &mut Vec<u8>,
    response: &Response,
) -> io::Result<()> {
    if gm_fault::fire("net.frame_truncate") {
        use std::io::Write;
        encode_frame(buf, &response.to_json())?;
        stream.write_all(&buf[..4 + (buf.len() - 4) / 2])?;
        stream.flush()?;
        return Err(io::Error::new(
            io::ErrorKind::ConnectionAborted,
            "injected fault at net.frame_truncate",
        ));
    }
    write_frame(stream, buf, &response.to_json())
}

/// [`crate::protocol::read_frame`], but interruptible by the shutdown
/// flag: between frames (and only there) a set `closing` ends the
/// connection cleanly. Mid-frame timeouts keep the partial progress and
/// keep waiting, so the stream never desynchronizes.
fn read_frame_interruptible<'b>(
    stream: &mut UnixStream,
    buf: &'b mut Vec<u8>,
    closing: &AtomicBool,
) -> io::Result<Option<Json<'b>>> {
    read_frame_with(buf, |dst, at_boundary| {
        read_full_interruptible(stream, dst, closing, at_boundary)
    })
}

/// Fills `buf`, tolerating read timeouts. Returns `Ok(false)` for a
/// clean end — EOF, or shutdown observed — before the first byte when
/// `at_boundary`; partial progress always keeps waiting for the rest
/// (a shutdown mid-frame aborts with an error instead of desyncing).
fn read_full_interruptible(
    stream: &mut UnixStream,
    buf: &mut [u8],
    closing: &AtomicBool,
    at_boundary: bool,
) -> io::Result<bool> {
    use std::io::Read;
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                if at_boundary && filled == 0 {
                    return Ok(false);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if closing.load(Ordering::Acquire) {
                    if at_boundary && filled == 0 {
                        return Ok(false);
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "server shutting down mid-frame",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// A blocking client over one Unix-socket connection.
///
/// Thin sugar over the wire protocol: every method sends one request
/// frame and decodes one response frame, turning protocol-level
/// `Error` responses into `io::Error`s.
#[derive(Debug)]
pub struct ServeClient {
    stream: UnixStream,
    /// The connection's frame buffer, reused for every request and
    /// response (they never overlap on this blocking client).
    buf: Vec<u8>,
}

impl ServeClient {
    /// Connects to a `gmserved` socket.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(path: &Path) -> io::Result<Self> {
        Ok(ServeClient {
            stream: UnixStream::connect(path)?,
            buf: Vec::new(),
        })
    }

    /// Sends one request and reads one response.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a server-closed connection.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        write_frame(&mut self.stream, &mut self.buf, &request.to_json())?;
        let frame = read_frame(&mut self.stream, &mut self.buf)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        Response::from_json(&frame).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    fn expect<T>(
        &mut self,
        request: &Request,
        decode: impl FnOnce(Response) -> Option<T>,
    ) -> io::Result<T> {
        match self.request(request)? {
            Response::Error { message } => Err(io::Error::other(message)),
            // Load shedding is a typed refusal, not a protocol error:
            // `WouldBlock` tells callers the request is retryable once
            // the server's backlog drains.
            Response::Overloaded { queued, limit } => Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                format!("server overloaded ({queued} jobs queued, limit {limit}); retry later"),
            )),
            other => decode(other)
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unexpected response")),
        }
    }

    /// Submits a design; returns `(job id, design was cached)`.
    ///
    /// # Errors
    ///
    /// Propagates transport and server-side submission errors.
    pub fn submit(
        &mut self,
        name: &str,
        source: &str,
        config: &crate::protocol::WireConfig,
    ) -> io::Result<(u64, bool)> {
        self.submit_with(name, source, config, SubmitOptions::default())
    }

    /// [`ServeClient::submit`] with per-submission options: a per-job
    /// flight recorder (fetch the recording with [`ServeClient::trace`]
    /// once the job is terminal) and a per-job deadline (`None` = the
    /// server's default; `Some(0)` opts out of any deadline). A shed
    /// submission (the server's queue bound) surfaces as a `WouldBlock`
    /// error — retry once the backlog drains.
    ///
    /// # Errors
    ///
    /// Propagates transport and server-side submission errors.
    pub fn submit_with(
        &mut self,
        name: &str,
        source: &str,
        config: &crate::protocol::WireConfig,
        opts: SubmitOptions,
    ) -> io::Result<(u64, bool)> {
        self.expect(
            &Request::Submit {
                name: name.to_string(),
                source: source.to_string(),
                config: config.clone(),
                trace: opts.trace,
                deadline_ms: opts.deadline_ms,
            },
            |r| match r {
                Response::Submitted { job, cached } => Some((job, cached)),
                _ => None,
            },
        )
    }

    /// Fetches a terminal traced job's flight recording as Chrome
    /// trace-event JSON (load it in Perfetto or `chrome://tracing`).
    ///
    /// # Errors
    ///
    /// Unknown, non-terminal, or untraced jobs surface as errors
    /// carrying the server's message.
    pub fn trace(&mut self, job: u64) -> io::Result<String> {
        self.expect(&Request::Trace { job }, |r| match r {
            Response::Trace { trace, .. } => Some(trace),
            _ => None,
        })
    }

    /// Polls a job's status.
    ///
    /// # Errors
    ///
    /// Propagates transport errors; unknown jobs are server errors.
    pub fn status(&mut self, job: u64) -> io::Result<Response> {
        self.request(&Request::Status { job })
    }

    /// Fetches progress events from `from` on.
    ///
    /// # Errors
    ///
    /// Propagates transport and server errors.
    pub fn progress(
        &mut self,
        job: u64,
        from: u64,
    ) -> io::Result<(Vec<crate::protocol::ProgressEvent>, bool)> {
        self.expect(&Request::Progress { job, from }, |r| match r {
            Response::Progress {
                events, terminal, ..
            } => Some((events, terminal)),
            _ => None,
        })
    }

    /// Blocks until the job finishes; returns its summary.
    ///
    /// # Errors
    ///
    /// Failed or cancelled jobs surface as errors carrying the server's
    /// message.
    pub fn wait(&mut self, job: u64) -> io::Result<crate::protocol::ClosureSummary> {
        self.expect(&Request::Wait { job }, |r| match r {
            Response::Done { summary, .. } => Some(summary),
            _ => None,
        })
    }

    /// Requests cancellation.
    ///
    /// # Errors
    ///
    /// Propagates transport and server errors.
    pub fn cancel(&mut self, job: u64) -> io::Result<Response> {
        self.request(&Request::Cancel { job })
    }

    /// Fetches aggregate service counters.
    ///
    /// # Errors
    ///
    /// Propagates transport and server errors.
    pub fn stats(&mut self) -> io::Result<crate::protocol::ServeStats> {
        self.expect(&Request::Stats, |r| match r {
            Response::Stats { stats } => Some(*stats),
            _ => None,
        })
    }

    /// Fetches the counters rendered in the Prometheus text exposition
    /// format — the scrape endpoint for monitoring agents.
    ///
    /// # Errors
    ///
    /// Propagates transport and server errors.
    pub fn metrics(&mut self) -> io::Result<String> {
        self.expect(&Request::Metrics, |r| match r {
            Response::Metrics { text } => Some(text),
            _ => None,
        })
    }

    /// Asks the server to shut down; returns once acknowledged.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.expect(&Request::Shutdown, |r| match r {
            Response::ShuttingDown => Some(()),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ClosureSummary;
    use std::io::Write;
    use std::time::Instant;

    /// `Done` and `Trace` frames over a megabyte cross a socket pair —
    /// far more than the socket buffers, so every read is partial, and
    /// the writer stalls mid-frame past the reader's 200 ms timeout —
    /// through the connection loop's interruptible reader and the
    /// client's blocking one, reusing one buffer. The wall budget is
    /// generous for an unoptimized build yet orders of magnitude below
    /// what a parser quadratic in string length needs for one such
    /// frame.
    #[test]
    fn megabyte_frames_cross_a_socket_with_partial_reads() {
        let unit = "Segment { label: \"cex-7\", vectors: [[(SignalId(3), 1'h1)]] } \\ π\n";
        let big = unit.repeat((1 << 20) / unit.len() + 1);
        let done = Response::Done {
            job: 9,
            summary: ClosureSummary {
                converged: true,
                iterations: 6,
                assertions: vec!["req0 => X gnt0".into(); 1000],
                suite_cycles: 383,
                unknown_assumed: 0,
                outcome_debug: big.clone(),
            },
        };
        let trace = Response::Trace {
            job: 9,
            trace: format!("{{\"traceEvents\":[\"{big}\"]}}"),
        };
        let (mut tx, mut rx) = UnixStream::pair().unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let closing = AtomicBool::new(false);
        let start = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut buf = Vec::new();
                encode_frame(&mut buf, &done.to_json()).unwrap();
                assert!(buf.len() > 1 << 20);
                let (head, tail) = buf.split_at(buf.len() / 2);
                tx.write_all(head).unwrap();
                std::thread::sleep(Duration::from_millis(300));
                tx.write_all(tail).unwrap();
                write_frame(&mut tx, &mut buf, &trace.to_json()).unwrap();
                assert_eq!(buf.capacity(), 0, "an oversized frame's buffer is released");
            });
            let mut buf = Vec::new();
            let frame = read_frame_interruptible(&mut rx, &mut buf, &closing)
                .unwrap()
                .expect("a frame, not a clean end");
            assert_eq!(Response::from_json(&frame).unwrap(), done);
            rx.set_read_timeout(None).unwrap();
            let frame = read_frame(&mut rx, &mut buf).unwrap().unwrap();
            assert_eq!(Response::from_json(&frame).unwrap(), trace);
        });
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(10),
            "two 1 MiB frames took {elapsed:?}"
        );
        // A set shutdown flag ends an idle connection at the boundary.
        rx.set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        closing.store(true, Ordering::Release);
        let mut buf = Vec::with_capacity(2 << 20);
        assert!(read_frame_interruptible(&mut rx, &mut buf, &closing)
            .unwrap()
            .is_none());
        assert_eq!(buf.capacity(), 0, "an idle connection pins no big buffer");
    }
}
