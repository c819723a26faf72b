//! A small blocking client for the daemon's wire protocol. One request
//! in flight at a time; push frames that arrive while waiting for a
//! response are buffered and drained with [`Client::drain_pushes`] /
//! [`Client::wait_push`].
//!
//! The client keeps the last response frame it decoded. A response whose
//! bytes after `{"id":N` equal that frame's (a re-read of a tenant that
//! has not moved) is not decoded again: it is a clone of that response with
//! the new id.

use crate::proto::{
    frame_into, split_id, Op, PushFrame, Request, RespBody, Response, ServerFrame, FRAME_BUF,
};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// What can go wrong talking to the daemon.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The daemon sent something unparseable or out of protocol.
    Protocol(String),
    /// The daemon parsed the request and said no.
    Rejected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Rejected(msg) => write!(f, "request rejected: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking connection to a running daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    pushes: VecDeque<PushFrame>,
    /// The request being sent (reused).
    out: String,
    /// The frame being read (reused). Between calls it holds the prefix of
    /// a frame a timed-out read left unfinished, or nothing.
    line: Vec<u8>,
    memo: ResponseMemo,
}

/// The last response frame decoded: its bytes after `{"id":N` and the
/// [`Response`] they decoded to.
#[derive(Default)]
struct ResponseMemo {
    tail: String,
    resp: Option<Response>,
}

impl ResponseMemo {
    /// Decodes a server frame, or clones the memoised response when the
    /// frame's bytes after the id are the memo's. A push frame neither hits
    /// nor replaces the memo.
    fn decode(&mut self, text: &str) -> Result<ServerFrame, String> {
        let split = split_id(text);
        if let (Some((id, tail)), Some(resp)) = (split, &self.resp) {
            if tail == self.tail {
                return Ok(ServerFrame::Response(Response { id, ..resp.clone() }));
            }
        }
        let frame = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if let (Some((_, tail)), ServerFrame::Response(resp)) = (split, &frame) {
            self.tail.clear();
            self.tail.push_str(tail);
            self.resp = Some(resp.clone());
        }
        Ok(frame)
    }
}

impl Client {
    /// Connects; does not handshake (send [`Op::Hello`] for that).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::with_capacity(FRAME_BUF, stream),
            writer,
            next_id: 1,
            pushes: VecDeque::new(),
            out: String::new(),
            line: Vec::with_capacity(FRAME_BUF),
            memo: ResponseMemo::default(),
        })
    }

    /// Sends one op and blocks for its response frame; push frames seen
    /// on the way are buffered.
    pub fn request(&mut self, op: Op) -> Result<Response, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        self.out.clear();
        frame_into(&Request { id, op }, &mut self.out);
        self.writer.write_all(self.out.as_bytes())?;
        loop {
            let resp = match self.read_frame(|text, memo| memo.decode(text))? {
                ServerFrame::Push(push) => {
                    self.pushes.push_back(push);
                    continue;
                }
                ServerFrame::Response(resp) => resp,
            };
            if resp.id != id {
                return Err(ClientError::Protocol(format!(
                    "response id {} does not match request id {id}",
                    resp.id
                )));
            }
            return Ok(resp);
        }
    }

    /// Like [`Client::request`] but unwraps the success body, turning a
    /// daemon rejection into [`ClientError::Rejected`].
    pub fn expect_ok(&mut self, op: Op) -> Result<RespBody, ClientError> {
        let resp = self.request(op)?;
        if !resp.ok {
            return Err(ClientError::Rejected(
                resp.error.unwrap_or_else(|| "unspecified".into()),
            ));
        }
        resp.body
            .ok_or_else(|| ClientError::Protocol("ok response with no body".into()))
    }

    /// Push frames buffered so far (does not read from the socket).
    pub fn drain_pushes(&mut self) -> Vec<PushFrame> {
        self.pushes.drain(..).collect()
    }

    /// Waits up to `timeout` for the next push frame (buffered or fresh
    /// off the socket). `Ok(None)` on timeout.
    pub fn wait_push(&mut self, timeout: Duration) -> Result<Option<PushFrame>, ClientError> {
        if let Some(p) = self.pushes.pop_front() {
            return Ok(Some(p));
        }
        self.reader.get_ref().set_read_timeout(Some(timeout))?;
        let result =
            self.read_frame(|text, _| serde_json::from_str(text).map_err(|e| e.to_string()));
        self.reader.get_ref().set_read_timeout(None)?;
        match result {
            Ok(push) => Ok(Some(push)),
            // A frame the timeout cut short stays in `line`; the next read
            // resumes it.
            Err(ClientError::Io(e))
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Reads the next non-blank line and decodes it, once, with `decode`.
    fn read_frame<T>(
        &mut self,
        mut decode: impl FnMut(&str, &mut ResponseMemo) -> Result<T, String>,
    ) -> Result<T, ClientError> {
        loop {
            let read = self.reader.read_until(b'\n', &mut self.line)?;
            if read == 0 && self.line.is_empty() {
                return Err(ClientError::Io(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                )));
            }
            let decoded = match std::str::from_utf8(&self.line).map(str::trim) {
                Ok("") => None,
                Ok(text) => Some(decode(text, &mut self.memo)),
                Err(e) => Some(Err(e.to_string())),
            };
            self.line.clear();
            if let Some(frame) = decoded {
                return frame
                    .map_err(|e| ClientError::Protocol(format!("bad frame from daemon: {e}")));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{frame, Push, TenantSpec};
    use crate::tenant::Tenant;
    use dls_scenario::JobSpec;
    use std::io::BufRead;

    /// The answer to a `Query` of a finished tenant with recorded events.
    fn report_response() -> Response {
        let spec = TenantSpec {
            record_events: true,
            ..TenantSpec::default()
        };
        let mut t = Tenant::new("memo", spec).unwrap();
        let jobs: Vec<JobSpec> = (0..3)
            .map(|i| JobSpec {
                arrival: 1.0 + 5.0 * i as f64,
                origin: i,
                size: 90.0,
                weight: 1.0,
            })
            .collect();
        t.submit(&jobs).unwrap();
        t.run_to_end().unwrap();
        let report = Box::new(t.query());
        Response::ok(
            0,
            RespBody::Report {
                tenant: "memo".into(),
                report,
            },
        )
    }

    fn with_id(resp: &Response, id: u64) -> String {
        frame(&Response { id, ..resp.clone() })
    }

    fn response(frame: ServerFrame) -> Response {
        match frame {
            ServerFrame::Response(r) => r,
            ServerFrame::Push(p) => panic!("expected a response, got {p:?}"),
        }
    }

    /// Marks the memoised response, so that an answer carrying the mark
    /// can only have come from the memo.
    fn mark(memo: &mut ResponseMemo) {
        memo.resp.as_mut().unwrap().error = Some("from the memo".into());
    }

    #[test]
    fn a_memo_hit_is_the_fresh_decode_of_the_new_frame() {
        let resp = report_response();
        let mut memo = ResponseMemo::default();
        let first = response(memo.decode(with_id(&resp, 1).trim()).unwrap());
        assert_eq!(frame(&first), with_id(&resp, 1));

        let second = with_id(&resp, 2);
        let hit = response(memo.decode(second.trim()).unwrap());
        let fresh: Response = serde_json::from_str(second.trim()).unwrap();
        assert_eq!(hit.id, 2);
        assert_eq!(frame(&hit), frame(&fresh));
        assert_eq!(frame(&hit), second);

        mark(&mut memo);
        let hit = response(memo.decode(with_id(&resp, 3).trim()).unwrap());
        assert_eq!((hit.id, hit.error.as_deref()), (3, Some("from the memo")));
        // Other bytes after the id are a miss, and replace the memo.
        let other = frame(&Response::err(4, "no"));
        let miss = response(memo.decode(other.trim()).unwrap());
        assert_eq!(frame(&miss), other);
        assert_eq!(frame(&response(memo.decode(other.trim()).unwrap())), other);
    }

    #[test]
    fn a_push_between_two_equal_responses_neither_hits_nor_evicts_the_memo() {
        let resp = report_response();
        let mut memo = ResponseMemo::default();
        memo.decode(with_id(&resp, 1).trim()).unwrap();
        mark(&mut memo);
        let push = frame(&PushFrame {
            push: Push::Delta {
                tenant: "memo".into(),
                epoch: 4,
                done: true,
                completed_jobs: 3,
                completed_work: 270.0,
                reschedules: 2,
                sim_events: 9,
            },
        });
        match memo.decode(push.trim()).unwrap() {
            ServerFrame::Push(p) => assert_eq!(frame(&p), push),
            ServerFrame::Response(r) => panic!("a push decoded as {r:?}"),
        }
        let hit = response(memo.decode(with_id(&resp, 2).trim()).unwrap());
        assert_eq!((hit.id, hit.error.as_deref()), (2, Some("from the memo")));
    }

    /// A stub daemon answers the second request with the first answer's
    /// bytes behind a wrong id: the memo hits, and the id check refuses it.
    #[test]
    fn a_memo_hit_with_the_wrong_id_is_a_protocol_error() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let resp = report_response();
        let answers = [with_id(&resp, 1), with_id(&resp, 7)];
        let stub = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            for answer in answers {
                let mut request = String::new();
                reader.read_line(&mut request).unwrap();
                writer.write_all(answer.as_bytes()).unwrap();
            }
        });
        let mut c = Client::connect(addr).unwrap();
        let query = || Op::Query {
            tenant: "memo".into(),
        };
        assert_eq!(c.request(query()).unwrap().id, 1);
        match c.request(query()) {
            Err(ClientError::Protocol(msg)) => {
                assert_eq!(msg, "response id 7 does not match request id 2")
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
        stub.join().unwrap();
    }
}
