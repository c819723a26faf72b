//! A small blocking client for the daemon's wire protocol. One request
//! in flight at a time; push frames that arrive while waiting for a
//! response are buffered and drained with [`Client::drain_pushes`] /
//! [`Client::wait_push`].

use crate::proto::{
    frame_into, Op, PushFrame, Request, RespBody, Response, ServerFrame, FRAME_BUF,
};
use serde::Deserialize;
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
            let resp = match self.read_frame()? {
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
        let result = self.read_frame();
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

    /// Reads the next non-blank line and decodes it, once, as a `T`.
    fn read_frame<T: Deserialize>(&mut self) -> Result<T, ClientError> {
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
                Ok(text) => Some(serde_json::from_str(text).map_err(|e| e.to_string())),
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
