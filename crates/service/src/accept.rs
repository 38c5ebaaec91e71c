//! The one accept loop behind both of the daemon's listeners — the
//! protocol socket and the metrics endpoint: bind, then one thread per
//! connection running the listener's handler, within two [`Bounds`]. A
//! connection over the cap on live connections gets no thread: the
//! listener's `refuse` answers it on the accept thread and it is closed
//! after a short linger. Every accepted stream has a read and write
//! timeout, so a client that goes quiet makes its handler's next read
//! fail, which ends the connection and frees its place.

use std::io::Read;
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::client::{Endpoint, Stream};
use crate::error::ServiceError;

type Accept = Box<dyn FnMut() -> std::io::Result<Stream> + Send>;

/// What one listener holds its connections to.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bounds {
    /// Connections served at once; the next one is refused.
    pub(crate) max_live: usize,
    /// How long a read or write on an accepted stream may wait.
    pub(crate) idle: Duration,
}

impl Bounds {
    /// The daemon's: four times the connections `ecosched-load` opens at
    /// most (64), and a minute of silence.
    pub(crate) const DEFAULT: Bounds = Bounds {
        max_live: 256,
        idle: Duration::from_secs(60),
    };
}

/// Whether a failed read or write ran into the stream's timeout.
pub(crate) fn timed_out(error: &std::io::Error) -> bool {
    use std::io::ErrorKind::{TimedOut, WouldBlock};
    matches!(error.kind(), WouldBlock | TimedOut)
}

/// How long a refused connection's request may take to arrive.
const LINGER: Duration = Duration::from_millis(50);

/// Closes a refused connection once its client has read the answer: the
/// write side first, then whatever the client sent is read and dropped
/// (up to 8 KiB, for [`LINGER`] at most). A TCP socket closed on unread
/// input resets the connection, and the reset can reach the client
/// before the answer does.
fn linger(mut stream: Stream) {
    if stream.shutdown_write().is_ok() && stream.set_timeouts(LINGER).is_ok() {
        let _ = std::io::copy(&mut (&mut stream).take(8 * 1024), &mut std::io::sink());
    }
}

/// One connection's place under the cap, given back when its thread ends
/// (a panicking handler included).
struct Live(Arc<AtomicUsize>);

impl Drop for Live {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Binds `listen` and spawns its accept loop, which runs `handler` on a
/// thread of its own for every connection while fewer than
/// `bounds.max_live` are served, and `refuse` on the accept thread for
/// every connection past that. Returns the endpoint actually bound (TCP
/// port 0 resolved to the assigned port).
pub(crate) fn spawn_accept_loop<R, H>(
    listen: &Endpoint,
    bounds: Bounds,
    refuse: R,
    handler: H,
) -> Result<Endpoint, ServiceError>
where
    R: Fn(&mut Stream) + Send + 'static,
    H: Fn(Stream) + Clone + Send + 'static,
{
    let (bound, accept) = match listen {
        Endpoint::Tcp(addr) => {
            let listener = TcpListener::bind(addr.as_str())?;
            let bound = Endpoint::Tcp(listener.local_addr()?.to_string());
            let accept: Accept = Box::new(move || Ok(Stream::Tcp(listener.accept()?.0)));
            (bound, accept)
        }
        Endpoint::Unix(path) => {
            // A stale socket file from a killed process blocks bind.
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            let accept: Accept = Box::new(move || Ok(Stream::Unix(listener.accept()?.0)));
            (listen.clone(), accept)
        }
    };
    let live = Arc::new(AtomicUsize::new(0));
    std::thread::spawn(move || {
        // A failed accept drops that one connection, not the loop.
        for mut stream in std::iter::repeat_with(accept).flatten() {
            if stream.set_timeouts(bounds.idle).is_err() {
                continue;
            }
            // A count that publishes nothing else, hence `Relaxed`. Only
            // this thread adds to it, so the cap is never passed.
            if live.load(Ordering::Relaxed) >= bounds.max_live {
                refuse(&mut stream);
                linger(stream);
                continue;
            }
            live.fetch_add(1, Ordering::Relaxed);
            let (handler, place) = (handler.clone(), Live(Arc::clone(&live)));
            std::thread::spawn(move || {
                let _place = place;
                handler(stream);
            });
        }
    });
    Ok(bound)
}
