//! Client for the serving protocol: in-process (direct calls into a
//! shared [`ServerCore`], no socket) or over TCP / Unix sockets.
//!
//! One client is one logical connection: requests are answered in
//! order. For concurrent load, open one client per thread — that is
//! what the benchmark harness and the integration tests do.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;

use crate::protocol::{
    write_request, CompactResult, ErrorCode, MutateResult, MutationOp, ProtocolError, QueryRequest,
    QueryResult, Request, Response, ResponseDecoder, STREAM_CHUNK,
};
use crate::server::ServerCore;
use crate::stats::StatsSnapshot;

/// A client-side failure: transport I/O, or a typed protocol error
/// returned by the server.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed mid-request.
    Io(std::io::Error),
    /// The server answered with a typed error (`queue-full`,
    /// `deadline-exceeded`, ...), or sent something undecodable.
    Protocol(ProtocolError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

enum Transport {
    Local(Arc<ServerCore>),
    Tcp(Wire<TcpStream>),
    Unix(Wire<UnixStream>),
}

/// One socket connection, its request buffer and its reply decoder,
/// reused from request to request.
struct Wire<S> {
    reader: BufReader<S>,
    writer: S,
    line: Vec<u8>,
    reply: ResponseDecoder,
}

impl<S: Read + Write> Wire<S> {
    fn new(reader: S, writer: S) -> Self {
        Wire {
            // A streamed reply arrives in writes of 64 KiB or more: one
            // `fill_buf` can take a whole one.
            reader: BufReader::with_capacity(STREAM_CHUNK, reader),
            writer,
            line: Vec::new(),
            reply: ResponseDecoder::new(),
        }
    }

    /// Sends the request as one buffer in one write (line and newline
    /// together, so the kernel never holds a trailing fragment back for
    /// an ACK) and reads one reply line. The reply decoder is handed the
    /// bytes as each `fill_buf` returns them, so the complete elements of
    /// a long `values` member are decoded while the rest of the line is
    /// still in flight (see [`ResponseDecoder`]).
    fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.line.clear();
        write_request(&mut self.line, request);
        self.line.push(b'\n');
        self.writer.write_all(&self.line)?;
        self.writer.flush()?;
        loop {
            let bytes = match self.reader.fill_buf() {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            };
            if bytes.is_empty() {
                break;
            }
            let (taken, whole) = self.reply.push_to_newline(bytes);
            self.reader.consume(taken);
            if whole {
                break;
            }
        }
        if self.reply.is_empty() {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        Ok(self.reply.finish()?)
    }
}

/// A reply of the wrong kind for the request that was sent.
fn unexpected(other: Response) -> ClientError {
    ClientError::Protocol(ProtocolError::new(
        ErrorCode::BadRequest,
        format!("unexpected response {other:?}"),
    ))
}

/// A protocol client over any supported transport.
pub struct Client {
    transport: Transport,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.transport {
            Transport::Local(_) => "local",
            Transport::Tcp(_) => "tcp",
            Transport::Unix(_) => "unix",
        };
        f.debug_struct("Client").field("transport", &kind).finish()
    }
}

impl Client {
    /// An in-process client: requests go straight through the core's
    /// admission queue with no serialization. Same semantics as the
    /// socket transports (including `queue-full` rejections).
    pub fn local(core: Arc<ServerCore>) -> Self {
        Client {
            transport: Transport::Local(core),
        }
    }

    /// Connects over TCP.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Client {
            transport: Transport::Tcp(Wire::new(writer.try_clone()?, writer)),
        })
    }

    /// Connects over a Unix-domain socket.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect_unix(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let writer = UnixStream::connect(path)?;
        Ok(Client {
            transport: Transport::Unix(Wire::new(writer.try_clone()?, writer)),
        })
    }

    /// Sends one request and waits for its response. Server-side typed
    /// errors come back as `Ok(Response::Error(..))` — use the
    /// convenience wrappers to fold them into [`ClientError`].
    ///
    /// # Errors
    ///
    /// Transport failures and undecodable responses.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        match &mut self.transport {
            Transport::Local(core) => Ok(core.submit(request.clone())),
            Transport::Tcp(wire) => wire.roundtrip(request),
            Transport::Unix(wire) => wire.roundtrip(request),
        }
    }

    /// Runs one query, folding typed rejections into the error.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] carries the server's typed rejection
    /// (`queue-full`, `deadline-exceeded`, ...).
    pub fn query(&mut self, query: QueryRequest) -> Result<QueryResult, ClientError> {
        match self.request(&Request::Query(query))? {
            Response::Query(result) => Ok(result),
            Response::Error(error) => Err(ClientError::Protocol(error)),
            other => Err(unexpected(other)),
        }
    }

    /// Applies one atomic mutation batch to a mutable graph, folding
    /// typed rejections (`immutable-graph`, `bad-request`, ...) into
    /// the error.
    ///
    /// # Errors
    ///
    /// See [`Client::query`].
    pub fn mutate(
        &mut self,
        graph: impl Into<String>,
        ops: Vec<MutationOp>,
    ) -> Result<MutateResult, ClientError> {
        match self.request(&Request::Mutate {
            graph: graph.into(),
            ops,
        })? {
            Response::Mutate(result) => Ok(result),
            Response::Error(error) => Err(ClientError::Protocol(error)),
            other => Err(unexpected(other)),
        }
    }

    /// Forces a synchronous compaction of a mutable graph.
    ///
    /// # Errors
    ///
    /// See [`Client::query`].
    pub fn compact(&mut self, graph: impl Into<String>) -> Result<CompactResult, ClientError> {
        match self.request(&Request::Compact {
            graph: graph.into(),
        })? {
            Response::Compact(result) => Ok(result),
            Response::Error(error) => Err(ClientError::Protocol(error)),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the server stats snapshot.
    ///
    /// # Errors
    ///
    /// See [`Client::query`].
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats(snapshot) => Ok(*snapshot),
            Response::Error(error) => Err(ClientError::Protocol(error)),
            other => Err(unexpected(other)),
        }
    }

    /// Liveness check.
    ///
    /// # Errors
    ///
    /// See [`Client::query`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            Response::Error(error) => Err(ClientError::Protocol(error)),
            other => Err(unexpected(other)),
        }
    }
}
