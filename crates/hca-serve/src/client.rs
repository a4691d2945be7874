//! A small blocking client for the `hca serve` protocol — used by the
//! `bench_serve` load generator, the serve round-trip tests, and the CI
//! job. One connection, synchronous call/response.

use crate::protocol::{
    write_line, CompileSpec, CompileSummary, ItemResult, Request, Response, StatsReport,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::Path;

/// A connected protocol client.
pub struct Client {
    reader: BufReader<Box<dyn std::io::Read + Send>>,
    writer: Box<dyn Write + Send>,
    next_id: u64,
}

impl Client {
    /// Connect over TCP (`ip:port`), with Nagle's algorithm off: a request
    /// is one complete line and should leave at once.
    pub fn connect_tcp(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(Box::new(reader)),
            writer: Box::new(stream),
            next_id: 1,
        })
    }

    /// Connect over a Unix-domain socket.
    #[cfg(unix)]
    pub fn connect_unix(path: impl AsRef<Path>) -> std::io::Result<Client> {
        let stream = UnixStream::connect(path)?;
        let reader = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(Box::new(reader)),
            writer: Box::new(stream),
            next_id: 1,
        })
    }

    /// Send one request and block for its response. Checks the id echo.
    pub fn call(&mut self, mut req: Request) -> Result<Response, String> {
        req.id = self.next_id;
        self.next_id += 1;
        let line = serde_json::to_string(&req).map_err(|e| e.to_string())?;
        write_line(&mut self.writer, &line).map_err(|e| format!("send: {e}"))?;
        let mut resp_line = String::new();
        loop {
            match self.reader.read_line(&mut resp_line) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(_) if resp_line.trim().is_empty() => resp_line.clear(),
                Ok(_) => break,
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
        let resp: Response =
            serde_json::from_str(&resp_line).map_err(|e| format!("bad response: {e}"))?;
        if resp.id != req.id {
            return Err(format!("response id {} for request {}", resp.id, req.id));
        }
        Ok(resp)
    }

    /// `ping` — returns the round trip's error, if any.
    pub fn ping(&mut self) -> Result<(), String> {
        let resp = self.call(Request {
            op: "ping".into(),
            ..Request::default()
        })?;
        if resp.ok {
            Ok(())
        } else {
            Err(resp.error.unwrap_or_else(|| "ping failed".into()))
        }
    }

    /// `compile` one job, returning the served summary.
    pub fn compile(&mut self, job: CompileSpec) -> Result<CompileSummary, String> {
        let resp = self.call(Request {
            op: "compile".into(),
            job,
            ..Request::default()
        })?;
        if !resp.ok {
            return Err(resp.error.unwrap_or_else(|| "compile failed".into()));
        }
        resp.parse_result()
    }

    /// `compile_batch`: per-job outcomes in job order.
    pub fn compile_batch(&mut self, jobs: Vec<CompileSpec>) -> Result<Vec<ItemResult>, String> {
        let resp = self.call(Request {
            op: "compile_batch".into(),
            jobs,
            ..Request::default()
        })?;
        if !resp.ok {
            return Err(resp.error.unwrap_or_else(|| "batch failed".into()));
        }
        resp.parse_result()
    }

    /// `stats`: the daemon's cache and traffic counters.
    pub fn stats(&mut self) -> Result<StatsReport, String> {
        let resp = self.call(Request {
            op: "stats".into(),
            ..Request::default()
        })?;
        if !resp.ok {
            return Err(resp.error.unwrap_or_else(|| "stats failed".into()));
        }
        resp.parse_result()
    }

    /// `crash`: ask a worker to panic (diagnostic). Returns the error
    /// message the daemon reported — the daemon itself must survive.
    pub fn crash(&mut self) -> Result<String, String> {
        let resp = self.call(Request {
            op: "crash".into(),
            ..Request::default()
        })?;
        match resp.error {
            Some(e) if !resp.ok => Ok(e),
            _ => Err("crash op unexpectedly succeeded".into()),
        }
    }

    /// `shutdown`: stop the daemon (it snapshots its cache on the way out).
    pub fn shutdown(&mut self) -> Result<(), String> {
        let resp = self.call(Request {
            op: "shutdown".into(),
            ..Request::default()
        })?;
        if resp.ok {
            Ok(())
        } else {
            Err(resp.error.unwrap_or_else(|| "shutdown failed".into()))
        }
    }
}
