//! The `asteria serve` TCP accept loop: a new connection is served at
//! once, not on the next poll tick, and a server that never saw a
//! connection still stops on a shutdown signal.
//!
//! The shutdown flag is process-wide, so the tests in this file run one
//! at a time and no other test shares their process.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use asteria::core::{AsteriaModel, ModelConfig};
use asteria::serve::{signal, ServeConfig, ServerHandle};
use asteria::vulnsearch::{
    build_firmware_corpus, vulnerability_library, FirmwareConfig, IndexBuilder, SearchSession,
};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn start() -> ServerHandle {
    let model = AsteriaModel::new(ModelConfig {
        hidden_dim: 8,
        embed_dim: 6,
        ..Default::default()
    });
    let firmware = build_firmware_corpus(
        &FirmwareConfig {
            images: 1,
            ..Default::default()
        },
        &vulnerability_library(),
    );
    let index = IndexBuilder::new(&model)
        .threads(1)
        .build(&firmware)
        .expect("in-memory build cannot fail")
        .index;
    let session = Arc::new(SearchSession::new(model, index).threads(1));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    asteria::serve::start_tcp(session, ServeConfig::default(), listener).expect("start")
}

#[test]
fn a_new_connections_first_ping_is_answered_at_once() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    signal::reset();
    let handle = start();
    let mut millis: Vec<f64> = (0..20)
        .map(|i| {
            let t0 = Instant::now();
            let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
            stream
                .write_all(format!("{{\"id\":{i},\"op\":\"ping\"}}\n").as_bytes())
                .expect("send ping");
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line).expect("pong");
            assert!(line.contains("\"pong\":true"), "{line}");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    millis.sort_by(f64::total_cmp);
    let median = millis[millis.len() / 2];
    assert!(
        median < 10.0,
        "median first ping {median:.2} ms: {millis:?}"
    );
    handle.shutdown();
}

#[test]
fn a_tcp_server_with_no_connections_stops_on_a_shutdown_signal() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    signal::reset();
    let handle = start();
    // Let the accept loop block before the signal arrives.
    std::thread::sleep(Duration::from_millis(50));
    signal::request_shutdown();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(handle.wait()));
    let stopped = rx.recv_timeout(Duration::from_secs(10));
    signal::reset();
    let stats = stopped.expect("the server stopped after the signal");
    assert_eq!(stats.total(), 0, "{stats:?}");
}
