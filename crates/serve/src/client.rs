//! A small blocking client for the newline-framed JSON protocol.
//!
//! Used by the integration suite and `subvt-loadgen`; it is also the
//! reference implementation for talking to the daemon from other
//! tooling. One request is in flight at a time per [`Client`]; open
//! several clients for concurrency.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use subvt_engine::json::{parse_json, Json};

/// One parsed response line.
#[derive(Debug, Clone)]
pub struct Response {
    /// Echoed request id.
    pub id: String,
    /// Success flag.
    pub ok: bool,
    /// `hit|coalesced|computed` for cacheable methods, `None`
    /// otherwise.
    pub cached: Option<String>,
    /// The raw `result` payload text, byte-identical to what the
    /// server rendered (sliced, not re-serialized).
    pub result: Option<String>,
    /// Error code on failure.
    pub error_code: Option<String>,
    /// Error message on failure.
    pub error_message: Option<String>,
    /// The whole response line.
    pub raw: String,
}

impl Response {
    fn parse(line: &str) -> Result<Response, String> {
        let raw = line.trim_end().to_owned();
        let json = parse_json(&raw)?;
        let ok = json
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or("response missing `ok`")?;
        let id = json
            .get("id")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_owned();
        let cached = json.get("cached").and_then(Json::as_str).map(str::to_owned);
        // `result` is always the final member (see proto docs), so the
        // payload can be recovered without a float-mangling re-render.
        let result = raw
            .find("\"result\":")
            .map(|idx| raw[idx + 9..raw.len() - 1].to_owned());
        let error_code = json
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .map(str::to_owned);
        let error_message = json
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .map(str::to_owned);
        Ok(Response {
            id,
            ok,
            cached,
            result,
            error_code,
            error_message,
            raw,
        })
    }

    /// The payload parsed as JSON (for structured inspection).
    ///
    /// # Errors
    ///
    /// The parser's message when there is no payload or it is invalid.
    pub fn result_json(&self) -> Result<Json, String> {
        parse_json(self.result.as_deref().ok_or("no result payload")?)
    }
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Propagates connect errors.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            next_id: 0,
        })
    }

    /// Retries [`Client::connect`] until the server answers a `ping`
    /// or the timeout elapses — the "wait until ready" helper for
    /// tests and CI.
    ///
    /// # Errors
    ///
    /// The last connect error once `timeout` is spent.
    pub fn connect_ready(
        addr: impl ToSocketAddrs + Copy,
        timeout: Duration,
    ) -> std::io::Result<Client> {
        let started = Instant::now();
        loop {
            match Client::connect(addr) {
                Ok(mut client) => match client.call("ping", "{}") {
                    Ok(r) if r.ok => return Ok(client),
                    _ => {}
                },
                Err(e) if started.elapsed() > timeout => return Err(e),
                Err(_) => {}
            }
            if started.elapsed() > timeout {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "server did not become ready in time",
                ));
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Sends one raw request line, returns the raw response line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; `UnexpectedEof` when the server closed.
    pub fn call_raw(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.trim_end().as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(response)
    }

    /// Calls `method` with a JSON `params` object, auto-assigning an
    /// id, and parses the response.
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` when the response line does not
    /// parse.
    pub fn call(&mut self, method: &str, params: &str) -> std::io::Result<Response> {
        self.call_traced(method, params, None)
    }

    /// Like [`Client::call`], but stamps a wire trace context
    /// (`trace_id`, parent span id) so the daemon's per-request span
    /// tree can be stitched under the caller's open span. Callers that
    /// propagate span ids should reserve a high id range first
    /// (`subvt_engine::trace::raise_id_floor(1 << 32)`), keeping them
    /// disjoint from the server's.
    ///
    /// # Errors
    ///
    /// Same as [`Client::call`].
    pub fn call_traced(
        &mut self,
        method: &str,
        params: &str,
        trace: Option<(&str, u64)>,
    ) -> std::io::Result<Response> {
        self.next_id += 1;
        let line = format!(
            "{{\"id\":\"c{}\",\"method\":{},\"params\":{params}{}}}",
            self.next_id,
            crate::proto::json_str(method),
            crate::proto::trace_fragment(trace),
        );
        let response = self.call_raw(&line)?;
        Response::parse(&response)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// Fetches an HTTP path (e.g. `/metrics`) from the server's shim and
/// returns the body.
///
/// # Errors
///
/// I/O errors, or `InvalidData` on a non-200 status.
pub fn http_get(addr: impl ToSocketAddrs, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: subvt\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "no HTTP header end")
    })?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("unexpected status: {}", head.lines().next().unwrap_or("")),
        ));
    }
    Ok(body.to_owned())
}
