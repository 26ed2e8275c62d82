//! A blocking client for the wire protocol — used by `tpcds client`, the
//! networked throughput runner and the soak test.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use tpcds_obs::json::Json;
use tpcds_types::Value;

use crate::protocol;

/// Everything that can go wrong talking to a server.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write).
    Io(std::io::Error),
    /// The server answered `{"ok":false}` — e.g. a SQL error or an
    /// unretained pinned version.
    Remote(String),
    /// The server answered something the client cannot decode.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Remote(m) => write!(f, "server: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A decoded query response.
#[derive(Debug, Clone)]
pub struct RemoteResult {
    /// Snapshot version the query executed against.
    pub version: u64,
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows, decoded back to engine [`Value`]s.
    pub rows: Vec<Vec<Value>>,
    /// Server-side wall time (admission wait + execution).
    pub elapsed_us: u64,
    /// The identity the server logged the query under — the client's
    /// `query_id` when one was sent, else a server-minted `q-N`.
    pub query_id: Option<String>,
}

/// Per-query knobs mirrored onto the wire.
#[derive(Debug, Clone, Default)]
pub struct QueryOpts {
    /// Pin to an exact snapshot version instead of the freshest head.
    pub pin: Option<u64>,
    /// Executor: `"off"` (the row oracle) or `"auto"` (the default).
    pub mode: Option<&'static str>,
    /// Morsel worker count for this query.
    pub threads: Option<usize>,
    /// Client-assigned identity: shows up verbatim in the server's
    /// `server/query` span, `sys.queries` and `sys.query_log`. The
    /// server mints one (`q-N`) when absent.
    pub query_id: Option<String>,
}

/// One connection to a [`crate::Server`]; not thread-safe — open one per
/// stream, exactly like the benchmark's query streams do.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects; no handshake beyond TCP (use [`Client::ping`] to verify).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Bounds every subsequent server reply.
    pub fn set_timeout(&mut self, t: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(t)
    }

    fn roundtrip(&mut self, req: Json) -> Result<Json, ClientError> {
        protocol::write_frame(&mut self.stream, &req)?;
        let resp = protocol::read_frame(&mut self.stream)?
            .ok_or_else(|| ClientError::Protocol("server closed the connection".into()))?;
        match resp.get("ok") {
            Some(Json::Bool(true)) => Ok(resp),
            Some(Json::Bool(false)) => Err(ClientError::Remote(
                resp.get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified error")
                    .to_string(),
            )),
            _ => Err(ClientError::Protocol(format!("malformed response {resp}"))),
        }
    }

    fn version_of(resp: &Json) -> Result<u64, ClientError> {
        resp.get("version")
            .and_then(Json::as_i64)
            .map(|v| v as u64)
            .ok_or_else(|| ClientError::Protocol("response without version".into()))
    }

    /// Liveness probe; returns the head snapshot version.
    pub fn ping(&mut self) -> Result<u64, ClientError> {
        let resp = self.roundtrip(Json::Obj(vec![(
            "type".to_string(),
            Json::Str("ping".to_string()),
        )]))?;
        Self::version_of(&resp)
    }

    /// Runs `sql` against the freshest snapshot.
    pub fn query(&mut self, sql: &str) -> Result<RemoteResult, ClientError> {
        self.query_with(sql, &QueryOpts::default())
    }

    /// Runs `sql` pinned to snapshot `version` (fails if unretained).
    pub fn query_pinned(&mut self, sql: &str, version: u64) -> Result<RemoteResult, ClientError> {
        self.query_with(
            sql,
            &QueryOpts {
                pin: Some(version),
                ..QueryOpts::default()
            },
        )
    }

    /// Runs `sql` with explicit options.
    pub fn query_with(&mut self, sql: &str, opts: &QueryOpts) -> Result<RemoteResult, ClientError> {
        let mut fields = vec![
            ("type".to_string(), Json::Str("query".to_string())),
            ("sql".to_string(), Json::Str(sql.to_string())),
        ];
        if let Some(v) = opts.pin {
            fields.push(("pin".to_string(), Json::Int(v as i64)));
        }
        if let Some(m) = opts.mode {
            fields.push(("mode".to_string(), Json::Str(m.to_string())));
        }
        if let Some(t) = opts.threads {
            fields.push(("threads".to_string(), Json::Int(t as i64)));
        }
        if let Some(qid) = &opts.query_id {
            fields.push(("query_id".to_string(), Json::Str(qid.clone())));
        }
        let resp = self.roundtrip(Json::Obj(fields))?;
        let version = Self::version_of(&resp)?;
        let columns = resp
            .get("columns")
            .and_then(Json::as_arr)
            .ok_or_else(|| ClientError::Protocol("response without columns".into()))?
            .iter()
            .map(|c| {
                c.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| ClientError::Protocol(format!("bad column {c}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let rows = resp
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or_else(|| ClientError::Protocol("response without rows".into()))?
            .iter()
            .map(|r| protocol::decode_row(r).map_err(ClientError::Protocol))
            .collect::<Result<Vec<_>, _>>()?;
        let elapsed_us = resp.get("elapsed_us").and_then(Json::as_i64).unwrap_or(0) as u64;
        let query_id = resp
            .get("query_id")
            .and_then(Json::as_str)
            .map(str::to_string);
        Ok(RemoteResult {
            version,
            columns,
            rows,
            elapsed_us,
            query_id,
        })
    }

    /// Renders the server-side plan for `sql`.
    pub fn explain(&mut self, sql: &str) -> Result<String, ClientError> {
        let resp = self.roundtrip(Json::Obj(vec![
            ("type".to_string(), Json::Str("explain".to_string())),
            ("sql".to_string(), Json::Str(sql.to_string())),
        ]))?;
        resp.get("plan")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol("response without plan".into()))
    }

    /// Server counters: version, table/row counts, sessions, inflight.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.roundtrip(Json::Obj(vec![(
            "type".to_string(),
            Json::Str("stats".to_string()),
        )]))
    }

    /// Asks the server to stop; the connection closes after the ack.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.roundtrip(Json::Obj(vec![(
            "type".to_string(),
            Json::Str("shutdown".to_string()),
        )]))
        .map(|_| ())
    }
}
