//! The measured window of each workload: a closed loop that starts
//! operations until the window ends, times each one, and checks its
//! output.

use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use asteria::serve::json::Json;
use asteria::serve::proto;
use asteria::vulnsearch::{
    FirmwareImage, FunctionQuery, IndexBuild, IndexBuilder, IndexCache, IndexError, SearchIndex,
};

use crate::inputs::{Batch, Fixture, Kind, Pick};
use crate::Window;

/// Runs the fixture's workload for `length` and reports what it did.
pub fn run(fx: &Fixture, length: Duration) -> Window {
    match &fx.kind {
        Kind::Offline {
            warm,
            firmware,
            batches,
        } => offline(fx, *warm, firmware, batches, length),
        Kind::Serve {
            server,
            clients,
            pick,
            expected,
        } => serve(fx, server.local_addr(), *clients, *pick, expected, length),
        Kind::Rank { expected } => rank(fx, expected, length),
    }
}

/// Bit-level equality of two indexes: order, names, ground truth,
/// encoding bits, and extraction reports.
fn same_index(a: &SearchIndex, b: &SearchIndex) -> bool {
    a.extraction == b.extraction
        && a.functions.len() == b.functions.len()
        && a.functions.iter().zip(&b.functions).all(|(x, y)| {
            x.image == y.image
                && x.binary == y.binary
                && x.name == y.name
                && x.ground_truth == y.ground_truth
                && x.encoding.name == y.encoding.name
                && x.encoding.callee_count == y.encoding.callee_count
                && x.encoding.vector.len() == y.encoding.vector.len()
                && x.encoding
                    .vector
                    .iter()
                    .zip(&y.encoding.vector)
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// One offline operation: index a batch of images, cold (fresh cache)
/// or warm (cache loaded from the batch's ASIX bytes).
fn index_batch(
    fx: &Fixture,
    warm: bool,
    firmware: &[FirmwareImage],
    batch: &Batch,
) -> Result<IndexBuild, IndexError> {
    let images = &firmware[batch.images.clone()];
    if warm {
        IndexCache::load(batch.asix.as_slice())
            .and_then(|cache| IndexBuilder::new(&fx.model).seed_cache(cache).build(images))
    } else {
        IndexBuilder::new(&fx.model).build(images)
    }
}

/// Whether a build of `batch` produced the reference index with the
/// cache accounting its mode implies (all hits warm, all misses cold).
fn build_ok(build: &IndexBuild, warm: bool, batch: &Batch) -> bool {
    let (hits, misses) = if warm {
        (batch.binaries, 0)
    } else {
        (0, batch.binaries)
    };
    build.stats.hits == hits
        && build.stats.misses == misses
        && build.stats.evicted == 0
        && same_index(&build.index, &batch.reference)
}

fn offline(
    fx: &Fixture,
    warm: bool,
    firmware: &[FirmwareImage],
    batches: &[Batch],
    length: Duration,
) -> Window {
    let mut window = Window::default();
    let t0 = Instant::now();
    while t0.elapsed() < length {
        let batch = &batches[window.attempted as usize % batches.len()];
        window.attempted += 1;
        let t = Instant::now();
        let build = black_box(index_batch(fx, warm, firmware, batch));
        window.latencies.push(t.elapsed().as_secs_f64());
        match build {
            Ok(build) if build_ok(&build, warm, batch) => window.items += build.index.len() as u64,
            _ => window.failed += 1,
        }
    }
    window.wall = t0.elapsed().as_secs_f64();
    window
}

/// Builds one request line (newline-terminated) for `query`.
pub fn request_line(id: u64, query: &FunctionQuery) -> String {
    let request = Json::Object(vec![
        ("id".into(), Json::Number(id as f64)),
        ("op".into(), Json::from("query")),
        ("function".into(), Json::from(query.function.as_str())),
        ("source".into(), Json::from(query.source.as_str())),
        ("arch".into(), Json::from(query.arch.name())),
        ("top_k".into(), Json::from(query.top_k)),
    ]);
    let mut line = request.render();
    line.push('\n');
    line
}

/// A client connection the server has already accepted.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Conn {
    /// Connects and waits for the reply to a `ping`, so no measured
    /// request pays for the server's accept loop.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut conn = Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            reply: String::new(),
        };
        conn.call("{\"id\":0,\"op\":\"ping\"}\n")?;
        Ok(conn)
    }

    /// Sends one request line and returns the reply line, without its
    /// newline.
    pub fn call(&mut self, line: &str) -> io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.reply.trim_end_matches('\n'))
    }
}

/// What every client of one serve window shares.
struct Load<'a> {
    clients: usize,
    pick: Pick,
    queries: &'a [FunctionQuery],
    /// The `result` payload each query's reply must carry.
    expected: &'a [Json],
    t0: Instant,
    length: Duration,
    /// Lockstep rounds: every client sends request `k` only after all
    /// clients have their reply to request `k - 1`.
    rounds: Option<Barrier>,
    /// Set when the window ends for every client at once (lockstep) or
    /// a connection fails.
    stop: AtomicBool,
}

impl Load<'_> {
    /// Whether the calling client sends another request. In lockstep the
    /// round's leader decides for all, between two barrier waits, so
    /// every client runs the same number of rounds.
    fn keep_going(&self) -> bool {
        match &self.rounds {
            Some(rounds) => {
                if rounds.wait().is_leader() && self.t0.elapsed() >= self.length {
                    self.stop.store(true, Ordering::SeqCst);
                }
                rounds.wait();
            }
            None if self.t0.elapsed() >= self.length => return false,
            None => {}
        }
        !self.stop.load(Ordering::SeqCst)
    }
}

/// Closed-loop client `c`: send, wait for the reply, check it, repeat
/// until the window ends. Also returns when its last reply arrived.
fn client(load: &Load<'_>, c: usize, mut conn: Conn) -> (Window, Instant) {
    let mut window = Window::default();
    let mut last = load.t0;
    let offset = match load.pick {
        Pick::Lockstep => 0,
        Pick::Spread => c * load.queries.len() / load.clients,
    };
    for k in 0u64.. {
        if !load.keep_going() {
            break;
        }
        let q = (offset + k as usize) % load.queries.len();
        let id = (c as u64) << 32 | k;
        let line = request_line(id, &load.queries[q]);
        window.attempted += 1;
        let t = Instant::now();
        let reply = conn.call(&line);
        last = Instant::now();
        window.latencies.push((last - t).as_secs_f64());
        let want = proto::ok_response(&Json::Number(id as f64), load.expected[q].clone());
        match reply {
            Ok(reply) if reply == want => window.items += 1,
            Ok(_) => window.failed += 1,
            Err(_) => {
                window.failed += 1;
                load.stop.store(true, Ordering::SeqCst);
            }
        }
    }
    (window, last)
}

fn serve(
    fx: &Fixture,
    addr: SocketAddr,
    clients: usize,
    pick: Pick,
    expected: &[Json],
    length: Duration,
) -> Window {
    let conns: io::Result<Vec<Conn>> = (0..clients).map(|_| Conn::open(addr)).collect();
    let Ok(conns) = conns else {
        return Window {
            attempted: 1,
            failed: 1,
            ..Window::default()
        };
    };
    let load = Load {
        clients,
        pick,
        queries: &fx.queries,
        expected,
        t0: Instant::now(),
        length,
        rounds: matches!(pick, Pick::Lockstep).then(|| Barrier::new(clients)),
        stop: AtomicBool::new(false),
    };
    let t0 = load.t0;
    let results: Vec<(Window, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, conn)| {
                let load = &load;
                s.spawn(move || client(load, c, conn))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = Window::default();
    for (w, last) in results {
        total.latencies.extend(w.latencies);
        total.items += w.items;
        total.attempted += w.attempted;
        total.failed += w.failed;
        total.wall = total.wall.max((last - t0).as_secs_f64());
    }
    total
}

fn rank(fx: &Fixture, expected: &[Vec<(usize, u64)>], length: Duration) -> Window {
    let total = fx.session.index().len();
    let mut window = Window::default();
    let t0 = Instant::now();
    while t0.elapsed() < length {
        let q = window.attempted as usize % fx.queries.len();
        window.attempted += 1;
        let t = Instant::now();
        let outcome = black_box(fx.session.query(&fx.queries[q]));
        window.latencies.push(t.elapsed().as_secs_f64());
        let ok = outcome.is_ok_and(|o| {
            o.total_ranked == total
                && o.hits.len() == expected[q].len()
                && o.hits
                    .iter()
                    .zip(&expected[q])
                    .all(|(h, &(f, bits))| h.function == f && h.score.to_bits() == bits)
        });
        if ok {
            window.items += 1;
        } else {
            window.failed += 1;
        }
    }
    window.wall = t0.elapsed().as_secs_f64();
    window
}
