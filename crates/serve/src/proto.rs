//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response per line. Every request carries a
//! caller-chosen `id` (any JSON value) that the matching response echoes
//! verbatim — responses may arrive out of request order (batching and
//! control-op fast paths reorder them), so `id` is the correlation key.
//!
//! Requests:
//!
//! ```text
//! {"id":1,"op":"query","source":"int f(...)","function":"f","arch":"arm","top_k":10,"deadline_ms":500}
//! {"id":2,"op":"ping"}
//! {"id":3,"op":"stats"}
//! {"id":4,"op":"shutdown"}
//! ```
//!
//! Responses: `{"id":…,"ok":true,"result":{…}}` on success,
//! `{"id":…,"ok":false,"error":{"kind":"…","message":"…"}}` on failure,
//! with [`ErrorKind`] as the closed set of `kind` strings.

use asteria_compiler::Arch;
use asteria_vulnsearch::{FunctionQuery, QueryError, QueryOutcome, SearchIndex};

use crate::json::{self, Json};

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered inline.
    Ping,
    /// Server statistics; answered inline.
    Stats,
    /// Graceful shutdown: drain in-flight requests, then stop.
    Shutdown,
    /// A similarity query; enqueued for batching.
    Query(QueryRequest),
}

/// The query payload of a [`Request::Query`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The query itself (label = the request id's rendering).
    pub query: FunctionQuery,
    /// Relative deadline in milliseconds from arrival; `None` uses the
    /// server default. `Some(0)` is already expired on arrival.
    pub deadline_ms: Option<u64>,
}

/// Typed error kinds of the wire protocol — the closed set of `kind`
/// strings a client can match on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line was not a valid request (bad JSON, missing fields,
    /// unknown op or arch).
    Malformed,
    /// The line exceeded the server's `max_request_bytes`.
    Oversized,
    /// The bounded request queue was full — backpressure, retry later.
    Overloaded,
    /// The request's deadline passed before processing finished.
    DeadlineExceeded,
    /// The query failed to encode (parse/compile/resolve/extract).
    Query,
    /// The server is draining and no longer accepts new requests.
    ShuttingDown,
    /// Answering failed inside the server (a panic while the request's
    /// batch ran); the server itself keeps serving.
    Internal,
}

impl ErrorKind {
    /// The wire string for this kind.
    pub fn wire(self) -> &'static str {
        match self {
            ErrorKind::Malformed => "malformed",
            ErrorKind::Oversized => "oversized",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::Query => "query",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Internal => "internal",
        }
    }
}

/// Why a request line failed to parse as a [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParseFailure {
    /// The echoable request id, when one could be recovered from the
    /// broken line (`Json::Null` otherwise).
    pub id: Json,
    /// Human-readable reason.
    pub message: String,
}

/// Parses one request line.
///
/// # Errors
///
/// A [`ParseFailure`] carrying whatever `id` could still be recovered,
/// so the error response remains correlatable when only part of the
/// request was broken.
pub fn parse_request(line: &str) -> Result<(Json, Request), ParseFailure> {
    let fail_null = |message: String| ParseFailure {
        id: Json::Null,
        message,
    };
    let value = json::parse(line).map_err(|e| fail_null(e.to_string()))?;
    if !matches!(value, Json::Object(_)) {
        return Err(fail_null("request must be a JSON object".into()));
    }
    let id = value.get("id").cloned().unwrap_or(Json::Null);
    let fail = |message: &str| ParseFailure {
        id: id.clone(),
        message: message.into(),
    };
    let op = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| fail("missing or non-string \"op\""))?;
    let request = match op {
        "ping" => Request::Ping,
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        "query" => {
            let source = value
                .get("source")
                .and_then(Json::as_str)
                .ok_or_else(|| fail("query needs a string \"source\""))?;
            let function = value
                .get("function")
                .and_then(Json::as_str)
                .ok_or_else(|| fail("query needs a string \"function\""))?;
            let arch = match value.get("arch") {
                None => Arch::X86,
                Some(v) => {
                    let name = v
                        .as_str()
                        .ok_or_else(|| fail("\"arch\" must be a string"))?;
                    Arch::ALL
                        .into_iter()
                        .find(|a| a.name() == name)
                        .ok_or_else(|| fail("unknown \"arch\" (x86|x64|arm|ppc)"))?
                }
            };
            let top_k = match value.get("top_k") {
                None => asteria_vulnsearch::DEFAULT_TOP_K,
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| fail("\"top_k\" must be a non-negative integer"))?
                    as usize,
            };
            let deadline_ms = match value.get("deadline_ms") {
                None => None,
                Some(v) => Some(
                    v.as_u64()
                        .ok_or_else(|| fail("\"deadline_ms\" must be a non-negative integer"))?,
                ),
            };
            let query = FunctionQuery::new(id.render(), source, function, arch).top_k(top_k);
            Request::Query(QueryRequest { query, deadline_ms })
        }
        _ => return Err(fail("unknown \"op\" (query|ping|stats|shutdown)")),
    };
    Ok((id, request))
}

/// Renders a success response line (no trailing newline).
pub fn ok_response(id: &Json, result: Json) -> String {
    Json::Object(vec![
        ("id".into(), id.clone()),
        ("ok".into(), Json::Bool(true)),
        ("result".into(), result),
    ])
    .render()
}

/// Renders an error response line (no trailing newline).
pub fn error_response(id: &Json, kind: ErrorKind, message: &str) -> String {
    Json::Object(vec![
        ("id".into(), id.clone()),
        ("ok".into(), Json::Bool(false)),
        (
            "error".into(),
            Json::Object(vec![
                ("kind".into(), Json::from(kind.wire())),
                ("message".into(), Json::from(message)),
            ]),
        ),
    ])
    .render()
}

/// Renders a [`QueryOutcome`] as the `result` payload, resolving hit
/// indices against the index the session ranked (name + corpus position
/// travel with each score).
pub fn render_outcome(outcome: &QueryOutcome, index: &SearchIndex) -> Json {
    let hits: Vec<Json> = outcome
        .hits
        .iter()
        .map(|h| {
            let f = &index.functions[h.function];
            Json::Object(vec![
                ("function".into(), Json::from(f.name.as_str())),
                ("image".into(), Json::from(f.image)),
                ("binary".into(), Json::from(f.binary)),
                ("index".into(), Json::from(h.function)),
                ("score".into(), Json::Number(h.score)),
            ])
        })
        .collect();
    Json::Object(vec![
        ("hits".into(), Json::Array(hits)),
        ("total_ranked".into(), Json::from(outcome.total_ranked)),
    ])
}

/// Renders a [`QueryError`] as an error response line.
pub fn query_error_response(id: &Json, error: &QueryError) -> String {
    error_response(id, ErrorKind::Query, &error.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_query_request() {
        let (id, req) = parse_request(
            r#"{"id":7,"op":"query","source":"int f() { return 1; }","function":"f","arch":"arm","top_k":3,"deadline_ms":250}"#,
        )
        .expect("parses");
        assert_eq!(id, Json::Number(7.0));
        let Request::Query(q) = req else {
            panic!("expected query")
        };
        assert_eq!(q.query.function, "f");
        assert_eq!(q.query.arch, Arch::Arm);
        assert_eq!(q.query.top_k, 3);
        assert_eq!(q.deadline_ms, Some(250));
    }

    #[test]
    fn defaults_arch_and_top_k() {
        let (_, req) = parse_request(r#"{"id":"a","op":"query","source":"s","function":"f"}"#)
            .expect("parses");
        let Request::Query(q) = req else {
            panic!("expected query")
        };
        assert_eq!(q.query.arch, Arch::X86);
        assert_eq!(q.query.top_k, asteria_vulnsearch::DEFAULT_TOP_K);
        assert_eq!(q.deadline_ms, None);
    }

    #[test]
    fn control_ops_parse() {
        for (op, want) in [
            ("ping", Request::Ping),
            ("stats", Request::Stats),
            ("shutdown", Request::Shutdown),
        ] {
            let (_, req) = parse_request(&format!(r#"{{"id":1,"op":"{op}"}}"#)).expect("parses");
            assert_eq!(req, want);
        }
    }

    #[test]
    fn malformed_requests_keep_a_recoverable_id() {
        // Valid JSON, bad request: the id survives into the failure.
        let err = parse_request(r#"{"id":42,"op":"nope"}"#).expect_err("unknown op");
        assert_eq!(err.id, Json::Number(42.0));
        let err = parse_request(r#"{"id":42,"op":"query"}"#).expect_err("missing source");
        assert_eq!(err.id, Json::Number(42.0));
        // Broken JSON: no id to recover.
        let err = parse_request("not json at all").expect_err("bad json");
        assert_eq!(err.id, Json::Null);
    }

    #[test]
    fn responses_have_the_documented_shape() {
        let ok = ok_response(&Json::Number(1.0), Json::Object(vec![]));
        assert_eq!(ok, r#"{"id":1,"ok":true,"result":{}}"#);
        let err = error_response(&Json::Null, ErrorKind::Overloaded, "queue full");
        assert_eq!(
            err,
            r#"{"id":null,"ok":false,"error":{"kind":"overloaded","message":"queue full"}}"#
        );
    }
}
