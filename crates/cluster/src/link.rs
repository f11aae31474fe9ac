//! Links: how the router reaches a replica.
//!
//! Mirrors the service's transport split. [`LocalLink`] is in-process
//! but still round-trips every frame through the real codec, so the
//! deterministic simulations exercise the same bytes TCP would carry;
//! [`TcpLink`] speaks to a [`RepHost`], the small TCP front end that
//! serves a replica's replication port.

use crate::frame::RepFrame;
use crate::node::ShardNode;
use crate::ClusterError;
use hwm_service::{read_frame, write_frame};
use std::io;
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A channel to one replica. `Sync` is part of the contract: the
/// router's parallel fan-out calls followers from scoped threads, so a
/// link must tolerate being shared (both built-in links serialize
/// internally — [`LocalLink`] via the node's own lock, [`TcpLink`] via
/// its stream mutex).
pub trait NodeLink: Send + Sync {
    /// Sends one frame, blocking for the reply.
    ///
    /// # Errors
    ///
    /// [`ClusterError`] for codec or transport failures (a
    /// [`RepFrame::Error`] reply is *not* a link error — the caller
    /// decides what a refusal means).
    fn call(&self, frame: &RepFrame) -> Result<RepFrame, ClusterError>;
}

fn io_err(context: &str, e: io::Error) -> ClusterError {
    ClusterError::new(format!("{context}: {e}"))
}

/// In-process link: encodes the frame through the real codec, decodes
/// it back, dispatches, and round-trips the reply the same way.
pub struct LocalLink {
    node: Arc<ShardNode>,
}

impl LocalLink {
    /// A link bound to the given replica.
    pub fn new(node: Arc<ShardNode>) -> LocalLink {
        LocalLink { node }
    }
}

impl NodeLink for LocalLink {
    fn call(&self, frame: &RepFrame) -> Result<RepFrame, ClusterError> {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame.to_json()).map_err(|e| io_err("encode frame", e))?;
        let decoded = read_frame(&mut buf.as_slice())
            .map_err(|e| io_err("decode frame", e))?
            .ok_or_else(|| ClusterError::new("frame truncated"))?;
        let reply = self.node.handle_rep(&RepFrame::from_json(&decoded)?);
        let mut buf = Vec::new();
        write_frame(&mut buf, &reply.to_json()).map_err(|e| io_err("encode reply", e))?;
        let decoded = read_frame(&mut buf.as_slice())
            .map_err(|e| io_err("decode reply", e))?
            .ok_or_else(|| ClusterError::new("reply frame truncated"))?;
        RepFrame::from_json(&decoded)
    }
}

/// TCP link to a [`RepHost`]. One connection, requests serialized on an
/// internal mutex (the router already serializes dispatch, so this is
/// belt-and-braces, not a bottleneck).
pub struct TcpLink {
    stream: Mutex<TcpStream>,
}

impl TcpLink {
    /// Connects to a replica's replication port.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpLink> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpLink {
            stream: Mutex::new(stream),
        })
    }
}

impl NodeLink for TcpLink {
    fn call(&self, frame: &RepFrame) -> Result<RepFrame, ClusterError> {
        let mut stream = self.stream.lock().expect("link stream poisoned");
        write_frame(&mut *stream, &frame.to_json()).map_err(|e| io_err("send frame", e))?;
        match read_frame(&mut *stream).map_err(|e| io_err("read reply", e))? {
            Some(payload) => RepFrame::from_json(&payload),
            None => Err(ClusterError::new("replica closed the connection")),
        }
    }
}

/// How long the accept loop sleeps between polls of the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// A replica's replication port: accepts connections and answers
/// [`RepFrame`]s against one [`ShardNode`] (the same accept-loop shape
/// as the service's `TcpServer`).
pub struct RepHost {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
}

impl RepHost {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving the node.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn(addr: impl ToSocketAddrs, node: Arc<ShardNode>) -> io::Result<RepHost> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let conns = Arc::new(Mutex::new(Vec::new()));
        let conn_registry = Arc::clone(&conns);
        let accept_thread = std::thread::spawn(move || {
            let mut handlers: Vec<JoinHandle<()>> = Vec::new();
            while !flag.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let _ = stream.set_nodelay(true);
                        if let Ok(clone) = stream.try_clone() {
                            conn_registry
                                .lock()
                                .expect("connection registry poisoned")
                                .push(clone);
                        }
                        let node = Arc::clone(&node);
                        handlers.push(std::thread::spawn(move || {
                            serve_rep_connection(stream, &node);
                        }));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(_) => break,
                }
            }
            for h in handlers {
                let _ = h.join();
            }
        });
        Ok(RepHost {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
            conns,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Ok(conns) = self.conns.lock() {
            for stream in conns.iter() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RepHost {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Serves one replication connection until EOF or I/O error. A frame
/// that decodes as JSON but not as a [`RepFrame`] gets an error frame
/// back; the connection stays open.
fn serve_rep_connection(mut stream: TcpStream, node: &ShardNode) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) => return,
            Err(_) => return,
        };
        let reply = match RepFrame::from_json(&payload) {
            Ok(frame) => node.handle_rep(&frame),
            Err(e) => RepFrame::Error { message: e.message },
        };
        if write_frame(&mut stream, &reply.to_json()).is_err() {
            return;
        }
    }
}
