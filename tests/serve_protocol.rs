//! The `asteria serve` wire protocol under load and under attack.
//!
//! Four contracts from the serving layer's design:
//!
//! 1. **Bit identity**: answers delivered over TCP to many concurrent
//!    clients are byte-identical to direct [`SearchSession`] calls, at
//!    every server thread count — the protocol layer may not perturb a
//!    single score bit.
//! 2. **Typed degradation**: malformed, oversized and past-deadline
//!    requests get typed error responses; a seeded protocol corruptor
//!    must never produce a panic or a wedged connection.
//! 3. **Backpressure**: a saturated queue answers `overloaded`
//!    immediately, and every request still gets exactly one response.
//! 4. **Graceful drain**: shutdown with requests in flight loses zero
//!    responses.
//! 5. **Panic isolation**: a batch that panics is answered with typed
//!    `internal` errors, and the server keeps answering.
//! 6. **Bounded nesting**: a query nested deeper than the parser's
//!    budget gets a typed `query` error instead of overflowing a thread
//!    stack, and the deepest accepted query is answered.
//! 7. **No batching delay**: each session worker runs its own batcher,
//!    so concurrent queries are answered in parallel, and a lone query
//!    is answered at once instead of waiting for a batch to fill.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use asteria::compiler::Arch;
use asteria::core::{AsteriaModel, ModelConfig};
use asteria::corrupt::Corruptor;
use asteria::serve::json::Json;
use asteria::serve::{proto, ServeConfig, ServerHandle};
use asteria::vulnsearch::{
    build_firmware_corpus, vulnerability_library, FirmwareConfig, FunctionQuery, IndexBuilder,
    SearchSession,
};

/// A small corpus/model: large enough for a 30+-function index, small
/// enough that a query encodes in milliseconds.
fn session(threads: usize) -> Arc<SearchSession> {
    let model = AsteriaModel::new(ModelConfig {
        hidden_dim: 8,
        embed_dim: 6,
        ..Default::default()
    });
    let firmware = build_firmware_corpus(
        &FirmwareConfig {
            images: 2,
            ..Default::default()
        },
        &vulnerability_library(),
    );
    let build = IndexBuilder::new(&model)
        .threads(1)
        .build(&firmware)
        .expect("in-memory build cannot fail");
    Arc::new(SearchSession::new(model, build.index).threads(threads))
}

fn start(session: Arc<SearchSession>, config: ServeConfig) -> ServerHandle {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    asteria::serve::start_tcp(session, config, listener).expect("start")
}

/// Distinct query functions so concurrent batches mix unique work with
/// in-batch duplicates.
fn query_sources() -> Vec<(&'static str, &'static str)> {
    vec![
        ("alpha", "int alpha(int a) { return a * 31 + 7; }"),
        (
            "beta",
            "int beta(int n) { int s = 0; for (int i = 0; i < n % 8; i++) { s = s + i * i; } return s; }",
        ),
        (
            "gamma",
            "int gamma(int x) { if (x > 10) { return x - 10; } return 0 - x; }",
        ),
        (
            "delta",
            "int delta(int a, int b) { return (a ^ b) + (a & b) * 2; }",
        ),
    ]
}

fn query_line(id: u64, function: &str, source: &str) -> String {
    format!("{{\"id\":{id},\"op\":\"query\",\"function\":\"{function}\",\"source\":\"{source}\"}}")
}

/// The response the server *must* produce for `query_line(id, …)`,
/// computed through a direct in-process session call and the same
/// renderer — the reference for byte-level comparison.
fn expected_response(session: &SearchSession, id: u64, function: &str, source: &str) -> String {
    let q = FunctionQuery::new("direct", source, function, Arch::X86);
    let outcome = session.query(&q).expect("direct query succeeds");
    proto::ok_response(
        &Json::from(id),
        proto::render_outcome(&outcome, session.index()),
    )
}

/// Extracts the numeric id from a response line (`{"id":N,…`).
fn response_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find([',', '}'])?;
    rest[..end].parse().ok()
}

#[test]
fn concurrent_tcp_clients_are_bit_identical_to_direct_session_calls() {
    const CLIENTS: u64 = 16;
    let sources = query_sources();
    let reference = session(1);
    // Expected wire bytes per (client, query) — identical across every
    // server thread count, or determinism is broken somewhere.
    let mut expected: HashMap<u64, String> = HashMap::new();
    for c in 0..CLIENTS {
        for (k, (function, source)) in sources.iter().enumerate() {
            let id = c * 100 + k as u64;
            expected.insert(id, expected_response(&reference, id, function, source));
        }
    }

    for server_threads in [1usize, 2, 8] {
        let handle = start(
            session(server_threads),
            ServeConfig {
                batch_size: 8,
                ..ServeConfig::default()
            },
        );
        let addr = handle.local_addr();
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let sources = sources.clone();
                std::thread::spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    let mut stream = stream;
                    for (k, (function, source)) in sources.iter().enumerate() {
                        let line = query_line(c * 100 + k as u64, function, source);
                        stream
                            .write_all(format!("{line}\n").as_bytes())
                            .expect("send");
                    }
                    let mut got = Vec::new();
                    for _ in 0..sources.len() {
                        let mut line = String::new();
                        reader.read_line(&mut line).expect("response");
                        got.push(line.trim_end().to_string());
                    }
                    got
                })
            })
            .collect();
        let mut responses: HashMap<u64, String> = HashMap::new();
        for w in workers {
            for line in w.join().expect("client thread") {
                let id = response_id(&line).expect("response carries its id");
                responses.insert(id, line);
            }
        }
        let stats = handle.shutdown();
        assert_eq!(responses.len(), expected.len(), "a response went missing");
        for (id, want) in &expected {
            assert_eq!(
                responses.get(id),
                Some(want),
                "response {id} diverged from the direct session call at \
                 {server_threads} server threads"
            );
        }
        assert_eq!(stats.ok, CLIENTS * sources.len() as u64);
        assert_eq!(stats.total(), stats.ok, "no error outcomes expected");
    }
}

#[test]
fn each_session_worker_answers_its_own_batch_in_parallel() {
    // Four workers, one query per batch, 100 ms of work per batch: four
    // concurrent clients are answered in one round of about 100 ms,
    // where one batcher would take four rounds (400 ms).
    const CLIENTS: usize = 4;
    let sources = query_sources();
    let reference = session(1);
    let handle = start(
        session(4),
        ServeConfig {
            batch_size: 1,
            process_delay_ms: 100,
            ..ServeConfig::default()
        },
    );
    let addr = handle.local_addr();
    let ready = Arc::new(Barrier::new(CLIENTS + 1));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let (function, source) = sources[c];
            let ready = Arc::clone(&ready);
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut stream = stream;
                ready.wait();
                stream
                    .write_all(format!("{}\n", query_line(c as u64, function, source)).as_bytes())
                    .expect("send");
                let mut line = String::new();
                reader.read_line(&mut line).expect("response");
                line.trim_end().to_string()
            })
        })
        .collect();
    ready.wait();
    let start = Instant::now();
    let lines: Vec<String> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    let elapsed = start.elapsed();
    for (c, line) in lines.iter().enumerate() {
        let (function, source) = sources[c];
        assert_eq!(
            line,
            &expected_response(&reference, c as u64, function, source)
        );
    }
    assert!(
        elapsed < Duration::from_millis(300),
        "{CLIENTS} concurrent queries took {elapsed:?}"
    );
    let stats = handle.shutdown();
    assert_eq!(stats.ok, CLIENTS as u64, "{stats:?}");
}

#[test]
fn a_lone_query_is_answered_without_waiting_for_its_batch_to_fill() {
    const QUERIES: u64 = 20;
    let handle = start(session(1), ServeConfig::default());
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    let (function, source) = query_sources()[0];
    let mut round_trips = Vec::new();
    for id in 0..QUERIES {
        let start = Instant::now();
        stream
            .write_all(format!("{}\n", query_line(id, function, source)).as_bytes())
            .expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("response");
        round_trips.push(start.elapsed());
        assert!(line.contains("\"ok\":true"), "{line}");
    }
    round_trips.sort_unstable();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(4),
        "median round trip {median:?}: {round_trips:?}"
    );
    let stats = handle.shutdown();
    assert_eq!(stats.ok, QUERIES, "{stats:?}");
}

#[test]
fn protocol_corruption_never_panics_or_wedges_the_connection() {
    const ROUNDS: u64 = 300;
    let handle = start(session(1), ServeConfig::default());
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    let (function, source) = query_sources()[0];
    let pristine = query_line(0, function, source);

    for seed in 0..ROUNDS {
        let mut c = Corruptor::new(0x5e7e ^ seed.wrapping_mul(0x9e37));
        let (_mutation, corrupted) = c.corrupt_line(&pristine);
        stream.write_all(&corrupted).expect("send corrupted");
        stream.write_all(b"\n").expect("send newline");
        // A ping with a unique id proves the server survived the
        // corrupted line and the stream still frames correctly. The
        // corrupted line itself yields zero or one response (blank
        // lines are ignored; everything else gets a typed reply).
        let ping_id = 1_000_000 + seed;
        stream
            .write_all(format!("{{\"id\":{ping_id},\"op\":\"ping\"}}\n").as_bytes())
            .expect("send ping");
        let mut saw_pong = false;
        for _ in 0..3 {
            let mut line = String::new();
            let n = reader.read_line(&mut line).expect("server stayed up");
            assert!(n > 0, "server closed the connection on seed {seed}");
            if response_id(&line) == Some(ping_id) {
                assert!(line.contains("\"pong\":true"), "seed {seed}: {line}");
                saw_pong = true;
                break;
            }
            // Otherwise it is the reply to the corrupted line: usually a
            // typed error, but a mutation inside the source string can
            // leave a valid (just different) query, so `ok:true` is
            // legitimate too. It must still be a well-formed response.
            assert!(
                line.starts_with("{\"id\":") && line.contains("\"ok\":"),
                "seed {seed}: unexpected response to corrupted line: {line}"
            );
        }
        assert!(saw_pong, "seed {seed}: pong never arrived");
    }

    // The connection still serves real queries after 300 corruptions.
    let reference = session(1);
    stream
        .write_all(format!("{}\n", query_line(42, function, source)).as_bytes())
        .expect("send real query");
    let mut line = String::new();
    loop {
        line.clear();
        reader.read_line(&mut line).expect("final response");
        if response_id(&line) == Some(42) {
            break;
        }
    }
    assert_eq!(
        line.trim_end(),
        expected_response(&reference, 42, function, source),
        "post-corruption query diverged"
    );
    let stats = handle.shutdown();
    assert!(
        stats.malformed > 0,
        "corruptor never produced malformed input"
    );
}

#[test]
fn oversized_and_past_deadline_requests_get_typed_errors() {
    let handle = start(
        session(1),
        ServeConfig {
            max_request_bytes: 256,
            ..ServeConfig::default()
        },
    );
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;

    // A line over the cap: typed `oversized`, stream keeps framing.
    let huge = format!(
        "{{\"id\":1,\"op\":\"query\",\"source\":\"{}\"}}",
        "x".repeat(512)
    );
    stream
        .write_all(format!("{huge}\n").as_bytes())
        .expect("send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("oversized reply");
    assert!(line.contains("\"kind\":\"oversized\""), "{line}");

    // deadline_ms:0 expires before any batch can run: deterministic
    // `deadline_exceeded`.
    let (function, source) = query_sources()[0];
    let late = format!(
        "{{\"id\":2,\"op\":\"query\",\"function\":\"{function}\",\"source\":\"{source}\",\
         \"deadline_ms\":0}}"
    );
    stream
        .write_all(format!("{late}\n").as_bytes())
        .expect("send");
    line.clear();
    reader.read_line(&mut line).expect("deadline reply");
    assert_eq!(response_id(&line), Some(2));
    assert!(line.contains("\"kind\":\"deadline_exceeded\""), "{line}");

    // And the connection still answers a well-formed request.
    stream
        .write_all(b"{\"id\":3,\"op\":\"ping\"}\n")
        .expect("send ping");
    line.clear();
    reader.read_line(&mut line).expect("pong");
    assert!(line.contains("\"pong\":true"), "{line}");

    let stats = handle.shutdown();
    assert_eq!(stats.oversized, 1);
    assert_eq!(stats.deadline_exceeded, 1);
}

#[test]
fn saturation_yields_typed_overloaded_and_exactly_one_response_per_request() {
    const SENT: u64 = 30;
    let handle = start(
        session(1),
        ServeConfig {
            batch_size: 1,
            queue_capacity: 2,
            process_delay_ms: 40,
            ..ServeConfig::default()
        },
    );
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    let (function, source) = query_sources()[1];
    for id in 0..SENT {
        stream
            .write_all(format!("{}\n", query_line(id, function, source)).as_bytes())
            .expect("send");
    }
    let mut outcomes: HashMap<u64, &'static str> = HashMap::new();
    for _ in 0..SENT {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .expect("every request is answered");
        let id = response_id(&line).expect("id");
        let outcome = if line.contains("\"ok\":true") {
            "ok"
        } else if line.contains("\"kind\":\"overloaded\"") {
            "overloaded"
        } else {
            panic!("unexpected response under saturation: {line}");
        };
        assert!(
            outcomes.insert(id, outcome).is_none(),
            "request {id} answered twice"
        );
    }
    let stats = handle.shutdown();
    assert_eq!(outcomes.len() as u64, SENT, "a request went unanswered");
    assert!(
        stats.overloaded > 0,
        "saturation never triggered backpressure"
    );
    assert_eq!(
        stats.ok + stats.overloaded,
        SENT,
        "outcome accounting diverged: {stats:?}"
    );
}

#[test]
fn shutdown_with_requests_in_flight_loses_zero_responses() {
    const SENT: u64 = 12;
    let handle = start(
        session(1),
        ServeConfig {
            batch_size: 4,
            process_delay_ms: 30,
            ..ServeConfig::default()
        },
    );
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    let (function, source) = query_sources()[2];
    for id in 0..SENT {
        stream
            .write_all(format!("{}\n", query_line(id, function, source)).as_bytes())
            .expect("send");
    }
    // Wait for the first response so requests are demonstrably in
    // flight, then shut down while the rest are still queued.
    let mut first = String::new();
    reader.read_line(&mut first).expect("first response");
    let collector = std::thread::spawn(move || {
        let mut lines = vec![first.trim_end().to_string()];
        loop {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => lines.push(line.trim_end().to_string()),
            }
        }
        lines
    });
    let stats = handle.shutdown();
    let lines = collector.join().expect("collector");
    assert_eq!(
        lines.len() as u64,
        SENT,
        "shutdown dropped responses: {lines:?}"
    );
    let mut ids: Vec<u64> = lines.iter().map(|l| response_id(l).expect("id")).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..SENT).collect::<Vec<_>>(), "an id went missing");
    for line in &lines {
        assert!(
            line.contains("\"ok\":true") || line.contains("\"kind\":\"shutting_down\""),
            "unexpected outcome during drain: {line}"
        );
    }
    assert_eq!(stats.ok + stats.shutting_down, SENT, "{stats:?}");
    assert!(stats.ok > 0, "nothing was served before the drain");
}

#[test]
fn a_panicking_batch_gets_typed_errors_and_the_server_keeps_answering() {
    // An index from the default model, served by a model whose
    // vocabulary covers only the first 8 node labels: every query tree
    // has a label past it, so the encoder's out-of-vocabulary assertion
    // panics inside every batch.
    let firmware = build_firmware_corpus(
        &FirmwareConfig {
            images: 2,
            ..Default::default()
        },
        &vulnerability_library(),
    );
    let index = IndexBuilder::new(&AsteriaModel::new(ModelConfig::default()))
        .threads(1)
        .build(&firmware)
        .expect("in-memory build cannot fail")
        .index;
    let small_vocab = Arc::new(AsteriaModel::new(ModelConfig {
        vocab: 8,
        ..Default::default()
    }));
    for server_threads in [1usize, 2, 8] {
        let session = SearchSession::new(Arc::clone(&small_vocab), index.clone());
        let handle = start(
            Arc::new(session.threads(server_threads)),
            ServeConfig::default(),
        );
        let stream = TcpStream::connect(handle.local_addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut stream = stream;
        let read = |reader: &mut BufReader<TcpStream>| {
            let mut line = String::new();
            reader.read_line(&mut line).expect("a response line");
            line
        };
        let sources = query_sources();
        let mut internal = 0;
        // A burst (batches of several queries), then a ping, then one
        // more query: every request is answered, none hangs.
        for (id, (function, source)) in sources.iter().enumerate() {
            stream
                .write_all(format!("{}\n", query_line(id as u64, function, source)).as_bytes())
                .expect("send");
        }
        let mut ids = Vec::new();
        for _ in &sources {
            let line = read(&mut reader);
            assert!(line.contains("\"kind\":\"internal\""), "{line}");
            ids.push(response_id(&line).expect("id"));
            internal += 1;
        }
        ids.sort_unstable();
        assert_eq!(ids, (0..sources.len() as u64).collect::<Vec<_>>());
        stream
            .write_all(b"{\"id\":100,\"op\":\"ping\"}\n")
            .expect("send ping");
        let line = read(&mut reader);
        assert!(line.contains("\"pong\":true"), "{line}");
        let (function, source) = sources[0];
        stream
            .write_all(format!("{}\n", query_line(101, function, source)).as_bytes())
            .expect("send");
        let line = read(&mut reader);
        assert_eq!(response_id(&line), Some(101), "{line}");
        assert!(line.contains("\"kind\":\"internal\""), "{line}");
        internal += 1;

        let stats = handle.shutdown();
        assert_eq!(
            stats.internal, internal,
            "{server_threads} threads: {stats:?}"
        );
        assert_eq!(
            stats.total(),
            internal,
            "{server_threads} threads: {stats:?}"
        );
    }
}

/// `return` of `a` wrapped in `n` parentheses.
fn parens(n: usize) -> String {
    format!(
        "int f(int a){{return {}a{};}}",
        "(".repeat(n),
        ")".repeat(n)
    )
}

/// `return a+a+…+a` with `n` operators.
fn chain(n: usize) -> String {
    format!("int f(int a){{return a{};}}", "+a".repeat(n))
}

/// `n` nested `if(a){…}` around `return a;`.
fn nested_ifs(n: usize) -> String {
    format!(
        "int f(int a){{{}return a;{}return 0;}}",
        "if(a){".repeat(n),
        "}".repeat(n)
    )
}

/// Sources that each overflowed a worker stack before the parser had a
/// nesting budget, and the deepest source of each shape it accepts. A
/// `return` statement and its expression take two levels, so each shape
/// has two levels fewer than the budget left.
fn nesting_cases() -> (Vec<String>, Vec<String>) {
    let room = asteria::lang::parser::MAX_NESTING_DEPTH - 2;
    let rejected = vec![
        parens(700),
        parens(100_000),
        chain(19_999),
        nested_ifs(3_000),
    ];
    let deepest = vec![parens(room), chain(room), nested_ifs(room)];
    for (accepted, over) in [
        (parens(room), parens(room + 1)),
        (chain(room), chain(room + 1)),
        (nested_ifs(room), nested_ifs(room + 1)),
    ] {
        assert!(asteria::lang::parse(&accepted).is_ok(), "{accepted}");
        let err = asteria::lang::parse(&over).expect_err("one level over the budget");
        assert!(err.message.contains("nests deeper"), "{err}");
    }
    (rejected, deepest)
}

#[test]
fn deeply_nested_queries_get_typed_replies_and_the_server_keeps_answering() {
    let (rejected, deepest) = nesting_cases();
    let direct = session(1);
    for source in &rejected {
        let q = FunctionQuery::new("deep", source.as_str(), "f", Arch::X86);
        let err = direct.query(&q).expect_err("over the nesting budget");
        assert!(err.to_string().contains("nests deeper"), "{err}");
    }
    for source in &deepest {
        // Answered or refused with a typed error, but never a crash.
        let _ = direct.query(&FunctionQuery::new("deep", source.as_str(), "f", Arch::X86));
    }

    for server_threads in [1usize, 2, 8] {
        let handle = start(session(server_threads), ServeConfig::default());
        let stream = TcpStream::connect(handle.local_addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut stream = stream;
        let mut id = 0;
        for source in rejected.iter().chain(&deepest) {
            id += 1;
            stream
                .write_all(format!("{}\n", query_line(id, "f", source)).as_bytes())
                .expect("send");
            let mut line = String::new();
            reader.read_line(&mut line).expect("a reply, not a crash");
            assert_eq!(response_id(&line), Some(id), "{line}");
            if id as usize <= rejected.len() {
                assert!(line.contains("\"kind\":\"query\""), "{line}");
                assert!(line.contains("nests deeper"), "{line}");
            } else {
                assert!(
                    line.contains("\"ok\":true") || line.contains("\"kind\":\"query\""),
                    "{line}"
                );
            }
            stream
                .write_all(b"{\"id\":0,\"op\":\"ping\"}\n")
                .expect("send ping");
            line.clear();
            reader.read_line(&mut line).expect("pong");
            assert!(line.contains("\"pong\":true"), "{line}");
        }
        let stats = handle.shutdown();
        assert_eq!(stats.internal, 0, "{stats:?}");
    }
}
