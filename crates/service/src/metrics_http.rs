//! A minimal hand-rolled HTTP/1.1 listener for metrics exposition — no
//! HTTP dependency, just enough protocol for `curl` and a Prometheus
//! scraper:
//!
//! - `GET /metrics` — Prometheus text exposition format 0.0.4;
//! - `GET /healthz` — a one-object JSON liveness summary;
//! - `GET /trace` — the span ring buffer as NDJSON.
//!
//! Each connection serves one request and closes (`Connection: close`),
//! which sidesteps keep-alive state entirely; scrapers reconnect per
//! scrape anyway. A request head over 8 KiB is answered `431` without
//! being read further; a connection past the listener's cap on live
//! connections is answered `503` without being read at all, and one that
//! sends nothing for the idle timeout is closed unanswered. The listener
//! thread never touches session state — it reads the lock-free registry
//! through a cloned [`Recorder`] handle, so scraping cannot perturb the
//! serve loop or the determinism contract.

use std::io::{BufRead as _, BufReader, Read, Write};

use ecosched_obs::Recorder;

use crate::accept::{spawn_accept_loop, timed_out, Bounds};
use crate::client::{Endpoint, Stream};
use crate::error::ServiceError;
use crate::obs::{health_json, Fact, ServiceObs};

/// Binds `listen` and spawns the scrape loop. Returns the endpoint
/// actually bound (TCP port 0 resolved to the assigned port).
///
/// # Errors
///
/// Bind failures.
pub fn spawn_metrics_listener(
    listen: &Endpoint,
    recorder: Recorder,
    obs: ServiceObs,
) -> Result<Endpoint, ServiceError> {
    listen_metrics(listen, Bounds::DEFAULT, recorder, obs)
}

/// [`spawn_metrics_listener`] held to `bounds`.
fn listen_metrics(
    listen: &Endpoint,
    bounds: Bounds,
    recorder: Recorder,
    obs: ServiceObs,
) -> Result<Endpoint, ServiceError> {
    let refused = obs.clone();
    let refuse = move |conn: &mut Stream| {
        refused.feed(Fact::ConnectionRefused);
        let body = "too many open connections\n";
        let text = response("503 Service Unavailable", "text/plain; charset=utf-8", body);
        let _ = conn.write_all(text.as_bytes());
        let _ = conn.flush();
    };
    spawn_accept_loop(listen, bounds, refuse, move |conn| {
        serve_one(conn, &recorder, &obs);
    })
}

/// One whole `Connection: close` response.
fn response(status: &str, content_type: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )
}

/// The longest request head (request line plus headers) read.
const MAX_REQUEST_HEAD: u64 = 8 * 1024;

/// Reads one request, writes one response, closes.
fn serve_one<S: Read + Write>(mut stream: S, recorder: &Recorder, obs: &ServiceObs) {
    let mut head = BufReader::new(&mut stream).take(MAX_REQUEST_HEAD);
    let failed = |e: std::io::Error| {
        if timed_out(&e) {
            obs.feed(Fact::IdleClose);
        }
    };
    let mut request_line = String::new();
    if let Err(e) = head.read_line(&mut request_line) {
        return failed(e);
    }
    // Drain headers up to the blank line; their content is irrelevant.
    let mut ended = false;
    while !ended {
        let mut header = String::new();
        match head.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) => ended = header == "\r\n" || header == "\n",
            // The cap can cut a line inside a UTF-8 character.
            Err(_) if head.limit() == 0 => break,
            Err(e) => return failed(e),
        }
    }
    let oversized = !ended && head.limit() == 0;
    drop(head);
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or(path);
    let (status, content_type, body) = if oversized {
        (
            "431 Request Header Fields Too Large",
            "text/plain; charset=utf-8",
            format!("request head longer than {MAX_REQUEST_HEAD} bytes\n"),
        )
    } else if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                recorder
                    .registry()
                    .map(|reg| reg.render_prometheus())
                    .unwrap_or_default(),
            ),
            "/healthz" => ("200 OK", "application/json", health_json(obs)),
            "/trace" => (
                "200 OK",
                "application/x-ndjson",
                recorder
                    .tracer()
                    .map(|t| t.dump_ndjson())
                    .unwrap_or_default(),
            ),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found\n".to_string(),
            ),
        }
    };
    let response = response(status, content_type, &body);
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::build_service_obs;
    use std::net::TcpStream;
    use std::time::Duration;

    fn get(endpoint: &Endpoint, path: &str) -> (String, String) {
        let Endpoint::Tcp(addr) = endpoint else {
            panic!("test uses TCP");
        };
        let mut stream = TcpStream::connect(addr.as_str()).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let mut body = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line == "\r\n" || line.is_empty() {
                break;
            }
        }
        std::io::Read::read_to_string(&mut reader, &mut body).unwrap();
        (status.trim().to_string(), body)
    }

    #[test]
    fn serves_metrics_health_and_404() {
        let bundle = build_service_obs(1);
        bundle.service.feed(Fact::Submission);
        bundle.service.feed(Fact::Accept);
        let endpoint = spawn_metrics_listener(
            &Endpoint::Tcp("127.0.0.1:0".into()),
            bundle.recorder.clone(),
            bundle.service.clone(),
        )
        .unwrap();

        let (status, body) = get(&endpoint, "/metrics");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("# TYPE ecosched_service_accepted_total counter"));
        assert!(body.contains("ecosched_service_accepted_total 1"));

        let (status, body) = get(&endpoint, "/healthz");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("\"accepted\":1"));

        let (status, _) = get(&endpoint, "/nope");
        assert_eq!(status, "HTTP/1.1 404 Not Found");
    }

    /// An in-memory connection: reads `input`, collects what is written.
    struct Loopback {
        input: std::io::Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Read for Loopback {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Loopback {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.write(buf)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn status_line(request: String) -> String {
        let bundle = build_service_obs(1);
        let mut conn = Loopback {
            input: std::io::Cursor::new(request.into_bytes()),
            output: Vec::new(),
        };
        serve_one(&mut conn, &bundle.recorder, &bundle.service);
        let response = String::from_utf8(conn.output).unwrap();
        response.lines().next().unwrap_or_default().to_string()
    }

    #[test]
    fn a_scrape_over_the_cap_is_answered_503() {
        let bundle = build_service_obs(1);
        let bounds = Bounds {
            max_live: 1,
            idle: Duration::from_secs(30),
        };
        let any_port = Endpoint::Tcp("127.0.0.1:0".into());
        let (recorder, obs) = (bundle.recorder.clone(), bundle.service.clone());
        let endpoint = listen_metrics(&any_port, bounds, recorder, obs).unwrap();
        let Endpoint::Tcp(addr) = &endpoint else {
            unreachable!("a TCP listen binds a TCP endpoint");
        };
        // A connection that never sends its request holds the one place.
        let _held = TcpStream::connect(addr.as_str()).unwrap();
        let (status, body) = get(&endpoint, "/metrics");
        assert_eq!(status, "HTTP/1.1 503 Service Unavailable");
        assert_eq!(body, "too many open connections\n");
        let reg = bundle.recorder.registry().expect("recorder on");
        let refused = reg
            .find_counter("ecosched_service_connections_refused_total", &[])
            .expect("registered");
        assert_eq!(reg.counter_value(refused), 1);
    }

    #[test]
    fn an_oversized_request_head_is_answered_431() {
        let filler = "a".repeat(MAX_REQUEST_HEAD as usize);
        let status = status_line(format!(
            "GET /metrics HTTP/1.1\r\nX-Filler: {filler}\r\n\r\n"
        ));
        assert_eq!(status, "HTTP/1.1 431 Request Header Fields Too Large");
        // A head that fits is served.
        let status = status_line("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".to_string());
        assert_eq!(status, "HTTP/1.1 200 OK");
    }
}
