//! A small blocking client for the `valign serve` protocol, used by
//! `valign submit` and by the service tests.
//!
//! Scorecard frames arrive in *completion* order, which under a
//! multi-worker daemon is a race. [`Client::submit`] therefore buffers
//! the stream until the closing `batch-done` frame and returns the
//! scorecards sorted by `job_id` — submission order — which is what
//! makes daemon output diffable against the `--local` batch path
//! byte-for-byte.
//!
//! A daemon that dies (or injects `disconnect` / `torn-frame` chaos)
//! mid-batch must not hang the client or vanish its partial results:
//! every connection runs under a read deadline ([`DEFAULT_DEADLINE`]),
//! and a stream that ends mid-batch surfaces as
//! [`ServeError::Disconnected`] carrying the scorecards that did arrive
//! — exactly what a resubmit against the recovered daemon will dedupe.

use super::protocol::{read_frame, setup_stream, write_frame, Json, SubmitRequest};
use std::fmt;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Default socket read/write deadline: generous enough for a full-matrix
/// batch on a cold store, finite so a wedged daemon cannot hang the
/// client forever.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(120);

/// Anything that can go wrong talking to the daemon.
#[derive(Debug)]
pub enum ServeError {
    /// The daemon vanished (or tore the stream) mid-batch, after
    /// accepting. `partial` holds every scorecard that made it across,
    /// sorted by `job_id` — a journaled daemon serves the rest on
    /// resubmit.
    Disconnected {
        /// Scorecard frames received before the stream died.
        partial: Vec<String>,
        /// What severed the stream.
        detail: String,
    },
    /// Everything else: connection refused, protocol violations, daemon
    /// error frames.
    Failed {
        /// Human-readable description.
        message: String,
    },
}

impl ServeError {
    /// The human-readable description, whichever variant.
    pub fn message(&self) -> String {
        match self {
            ServeError::Disconnected { partial, detail } => format!(
                "daemon disconnected mid-batch after {} scorecard(s): {detail}",
                partial.len()
            ),
            ServeError::Failed { message } => message.clone(),
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message())
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Failed {
            message: format!("i/o error: {e}"),
        }
    }
}

fn err(message: impl Into<String>) -> ServeError {
    ServeError::Failed {
        message: message.into(),
    }
}

/// How the daemon answered a submit.
#[derive(Debug)]
pub enum SubmitOutcome {
    /// The batch was admitted and ran to completion; `scorecards` holds
    /// one frame per job, sorted back into submission order.
    Accepted {
        /// Scorecard frames, ordered by `job_id`.
        scorecards: Vec<String>,
        /// The closing `batch-done` frame.
        batch_done: String,
    },
    /// The daemon refused the batch at admission.
    Rejected {
        /// `"queue-full"`, `"quota-exceeded"` or `"over-budget"`.
        reason: String,
        /// Present for load shedding (retry may succeed), absent for
        /// permanent rejections.
        retry_after_ms: Option<u64>,
    },
}

/// One connection to a daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a running daemon, with [`DEFAULT_DEADLINE`] on reads
    /// and writes and `TCP_NODELAY` set.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        setup_stream(&stream, Some(DEFAULT_DEADLINE))?;
        let read_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
        })
    }

    fn send(&mut self, frame: &str) -> Result<(), ServeError> {
        write_frame(&mut self.writer, frame)?;
        self.writer.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Json, ServeError> {
        match read_frame(&mut self.reader) {
            Ok(Some(text)) => {
                let json = Json::parse(&text)
                    .map_err(|e| err(format!("malformed frame from daemon: {e}")))?;
                if let Some(message) = json
                    .get("type")
                    .and_then(Json::as_str)
                    .filter(|t| *t == "error")
                    .and_then(|_| json.get("message"))
                    .and_then(Json::as_str)
                {
                    return Err(err(format!("daemon error: {message}")));
                }
                Ok(json)
            }
            Ok(None) => Err(err("daemon closed the connection")),
            Err(e) => Err(err(format!("broken frame from daemon: {e}"))),
        }
    }

    /// Submits a batch and blocks until it fully resolves: a rejection,
    /// every scorecard plus the `batch-done` frame, or — when the daemon
    /// dies mid-stream — [`ServeError::Disconnected`] with whatever
    /// scorecards arrived first.
    pub fn submit(&mut self, req: &SubmitRequest) -> Result<SubmitOutcome, ServeError> {
        self.send(&req.render())?;
        let first = self.recv()?;
        match first.get("type").and_then(Json::as_str) {
            Some("rejected") => {
                let reason = first
                    .get("reason")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified")
                    .to_string();
                let retry_after_ms = first.get("retry_after_ms").and_then(Json::as_u64);
                return Ok(SubmitOutcome::Rejected {
                    reason,
                    retry_after_ms,
                });
            }
            Some("accepted") => {}
            other => {
                return Err(err(format!(
                    "expected accepted/rejected, daemon sent {other:?}"
                )))
            }
        }
        let expected = first
            .get("jobs")
            .and_then(Json::as_u64)
            .ok_or_else(|| err("accepted frame missing the job count"))?
            as usize;
        // Completion order races across workers; collect (job_id, frame)
        // pairs and restore submission order before returning. Once the
        // batch is accepted, any stream failure is a *disconnection*:
        // the daemon made a durable promise, so report what arrived and
        // let the caller resubmit against the recovered daemon.
        let mut cards: Vec<(u64, String)> = Vec::with_capacity(expected);
        let disconnected = |cards: Vec<(u64, String)>, detail: String| {
            let mut partial = cards;
            partial.sort_by_key(|(job_id, _)| *job_id);
            ServeError::Disconnected {
                partial: partial.into_iter().map(|(_, frame)| frame).collect(),
                detail,
            }
        };
        loop {
            let frame = match read_frame(&mut self.reader) {
                Ok(Some(text)) => text,
                Ok(None) => {
                    return Err(disconnected(
                        cards,
                        "daemon closed the stream mid-batch".to_string(),
                    ))
                }
                Err(e) => return Err(disconnected(cards, format!("broken frame: {e}"))),
            };
            let json = Json::parse(&frame)
                .map_err(|e| err(format!("malformed frame from daemon: {e}")))?;
            match json.get("type").and_then(Json::as_str) {
                Some("scorecard") => {
                    let job_id = json
                        .get("job_id")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| err("scorecard frame missing job_id"))?;
                    cards.push((job_id, frame));
                }
                Some("batch-done") => {
                    if cards.len() != expected {
                        return Err(err(format!(
                            "batch-done after {} of {expected} scorecards",
                            cards.len()
                        )));
                    }
                    cards.sort_by_key(|(job_id, _)| *job_id);
                    return Ok(SubmitOutcome::Accepted {
                        scorecards: cards.into_iter().map(|(_, frame)| frame).collect(),
                        batch_done: frame,
                    });
                }
                other => return Err(err(format!("unexpected frame in batch stream: {other:?}"))),
            }
        }
    }

    /// Fetches the daemon's live `/stats` frame, verbatim.
    pub fn stats(&mut self) -> Result<String, ServeError> {
        self.send("{\"type\": \"stats\"}")?;
        match read_frame(&mut self.reader) {
            Ok(Some(text)) => Ok(text),
            Ok(None) => Err(err("daemon closed the connection")),
            Err(e) => Err(err(format!("broken frame from daemon: {e}"))),
        }
    }

    /// Asks the daemon to shut down gracefully (drain, then exit).
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        self.send("{\"type\": \"shutdown\"}")?;
        let reply = self.recv()?;
        match reply.get("type").and_then(Json::as_str) {
            Some("shutdown-ok") => Ok(()),
            other => Err(err(format!("expected shutdown-ok, daemon sent {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn both_ends_of_a_connection_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(listener.local_addr().unwrap()).unwrap();
        let (daemon_side, _) = listener.accept().unwrap();
        assert!(
            !daemon_side.nodelay().unwrap(),
            "sockets start with Nagle on"
        );
        setup_stream(&daemon_side, None).unwrap();
        assert!(daemon_side.nodelay().unwrap());
        assert!(client.writer.get_ref().nodelay().unwrap());
    }
}
