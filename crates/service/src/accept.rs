//! The one accept loop behind both of the daemon's listeners — the
//! protocol socket and the metrics endpoint: bind, then one thread per
//! connection running the listener's handler.

use std::net::TcpListener;
use std::os::unix::net::UnixListener;

use crate::client::{Endpoint, Stream};
use crate::error::ServiceError;

type Accept = Box<dyn FnMut() -> std::io::Result<Stream> + Send>;

/// Binds `listen` and spawns its accept loop, which runs `handler` on a
/// thread of its own for every connection. Returns the endpoint actually
/// bound (TCP port 0 resolved to the assigned port).
pub(crate) fn spawn_accept_loop<H>(listen: &Endpoint, handler: H) -> Result<Endpoint, ServiceError>
where
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
    std::thread::spawn(move || {
        // A failed accept drops that one connection, not the loop.
        for stream in std::iter::repeat_with(accept).flatten() {
            let handler = handler.clone();
            std::thread::spawn(move || handler(stream));
        }
    });
    Ok(bound)
}
