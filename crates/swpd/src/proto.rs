//! The wire protocol: one flat JSON object per message.
//!
//! Both transports carry the same objects — as one newline-delimited
//! line per message in raw-TCP mode, or as an HTTP request/response body
//! in HTTP mode. The encoding is the harness's dependency-free flat-JSON
//! subset ([`swp_harness::json`]): scalars only, no nesting, which is
//! why the scheduling problem itself travels as *one string field*
//! (`case`) in the `swp-fuzz` regression-file format — a self-contained
//! textual machine + DDG that [`swp_fuzz::parse_regression`] already
//! knows how to read and validate.
//!
//! A request is `{"v":1,"op":...,"id":...}` plus op-specific fields; a
//! reply is `{"v":1,"id":...,"status":...}` plus whatever the status
//! warrants. Unknown request fields are ignored (forward compatibility);
//! a missing or mistyped required field is a `bad_request`, never a
//! dropped connection.

use crate::stats::StatsSnapshot;
use std::collections::BTreeMap;
use swp_core::Engine;
use swp_harness::json::{parse_object, JsonValue, ObjectWriter};
use swp_incr::EditOp;

/// Protocol schema version stamped into every message.
pub const PROTO_VERSION: u64 = 1;

/// How a request was answered. The daemon classifies **every** accepted
/// request as exactly one of these; the load generator's accounting
/// invariant (`requests == sum of per-status counters` at idle) depends
/// on the classification being total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplyStatus {
    /// Non-solve request (ping, stats, shutdown) acknowledged.
    Ok,
    /// Solved fresh, optimality proven; the result is now cached.
    Solved,
    /// Served from the fingerprint-keyed result cache.
    Cached,
    /// Every period in range was refuted exactly — provably no schedule
    /// (deterministic, so also cached).
    Unscheduled,
    /// The per-request budget (deadline, ticks, or the global admission
    /// pool) ran out; any `period` carried is best-effort, not proven.
    BudgetExhausted,
    /// Load-shed at admission: queue full, pool drained, or draining.
    /// Carries `retry_after_ms`.
    Overloaded,
    /// The client disconnected (or drain hard-cancelled) mid-solve.
    Cancelled,
    /// The solve panicked; the panic was caught and isolated.
    InternalPanic,
    /// Malformed request: bad JSON, unknown op, unparseable case text,
    /// or fault injection without the daemon opt-in.
    BadRequest,
    /// A structural solver failure that is neither a panic nor a budget
    /// trip (numerical failure, verification gap). Expected to be ~0.
    InternalError,
}

impl ReplyStatus {
    /// The wire label.
    pub fn as_str(self) -> &'static str {
        match self {
            ReplyStatus::Ok => "ok",
            ReplyStatus::Solved => "solved",
            ReplyStatus::Cached => "cached",
            ReplyStatus::Unscheduled => "unscheduled",
            ReplyStatus::BudgetExhausted => "budget_exhausted",
            ReplyStatus::Overloaded => "overloaded",
            ReplyStatus::Cancelled => "cancelled",
            ReplyStatus::InternalPanic => "internal_panic",
            ReplyStatus::BadRequest => "bad_request",
            ReplyStatus::InternalError => "internal_error",
        }
    }

    /// Parses a wire label.
    pub fn parse(s: &str) -> Option<ReplyStatus> {
        Some(match s {
            "ok" => ReplyStatus::Ok,
            "solved" => ReplyStatus::Solved,
            "cached" => ReplyStatus::Cached,
            "unscheduled" => ReplyStatus::Unscheduled,
            "budget_exhausted" => ReplyStatus::BudgetExhausted,
            "overloaded" => ReplyStatus::Overloaded,
            "cancelled" => ReplyStatus::Cancelled,
            "internal_panic" => ReplyStatus::InternalPanic,
            "bad_request" => ReplyStatus::BadRequest,
            "internal_error" => ReplyStatus::InternalError,
            _ => return None,
        })
    }

    /// The HTTP status code this maps to in HTTP mode.
    pub fn http_code(self) -> u32 {
        match self {
            ReplyStatus::Ok
            | ReplyStatus::Solved
            | ReplyStatus::Cached
            | ReplyStatus::Unscheduled
            | ReplyStatus::BudgetExhausted => 200,
            ReplyStatus::Overloaded => 429,
            ReplyStatus::BadRequest => 400,
            ReplyStatus::Cancelled => 499,
            ReplyStatus::InternalPanic | ReplyStatus::InternalError => 500,
        }
    }
}

/// A schedule request.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// Client-chosen correlation id, echoed verbatim in the reply.
    pub id: String,
    /// The problem, in the `swp-fuzz` regression-file format (machine
    /// block + ddg block).
    pub case: String,
    /// Client deadline; propagated into the solve budget (clamped to
    /// the daemon's `max_timeout_ms`).
    pub timeout_ms: Option<u64>,
    /// Deterministic tick cap for this solve.
    pub ticks: Option<u64>,
    /// Stop the period search at `T_lb + max_t` (default 8, as the
    /// corpus harness).
    pub max_t: Option<u32>,
    /// Let IMS certify feasible periods (default true).
    pub heuristic: Option<bool>,
    /// Exact engine (`"ilp"`, `"cp"`, or `"portfolio"`); default ILP.
    pub engine: Option<Engine>,
    /// Test-only: make the solve panic (requires the daemon to run with
    /// fault injection enabled; otherwise `bad_request`).
    pub inject_panic: bool,
}

impl SolveRequest {
    /// A minimal solve request for `case` with every knob at its default.
    pub fn new(id: impl Into<String>, case: impl Into<String>) -> SolveRequest {
        SolveRequest {
            id: id.into(),
            case: case.into(),
            timeout_ms: None,
            ticks: None,
            max_t: None,
            heuristic: None,
            engine: None,
            inject_panic: false,
        }
    }
}

/// A parsed request message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Solve a scheduling problem.
    Solve(SolveRequest),
    /// Liveness probe.
    Ping {
        /// Correlation id.
        id: String,
    },
    /// Telemetry snapshot.
    Stats {
        /// Correlation id.
        id: String,
    },
    /// Begin a graceful drain.
    Shutdown {
        /// Correlation id.
        id: String,
    },
    /// Open an incremental solve session for a case.
    SessionOpen {
        /// Correlation id.
        id: String,
        /// The problem, in the `swp-fuzz` regression-file format.
        case: String,
    },
    /// Apply one DDG edit to an open session.
    SessionEdit {
        /// Correlation id.
        id: String,
        /// Session handle from `session_open`.
        session: u64,
        /// The edit to apply.
        edit: EditOp,
    },
    /// Solve an open session's current instance (warm by default).
    SessionSolve {
        /// Correlation id.
        id: String,
        /// Session handle from `session_open`.
        session: u64,
        /// Deterministic tick cap for this solve.
        ticks: Option<u64>,
        /// Client deadline (clamped to the daemon's `max_timeout_ms`).
        timeout_ms: Option<u64>,
    },
    /// Close a session and free its slot.
    SessionClose {
        /// Correlation id.
        id: String,
        /// Session handle from `session_open`.
        session: u64,
    },
}

impl Request {
    /// The correlation id of any request variant.
    pub fn id(&self) -> &str {
        match self {
            Request::Solve(r) => &r.id,
            Request::Ping { id }
            | Request::Stats { id }
            | Request::Shutdown { id }
            | Request::SessionOpen { id, .. }
            | Request::SessionEdit { id, .. }
            | Request::SessionSolve { id, .. }
            | Request::SessionClose { id, .. } => id,
        }
    }

    /// Serializes the request as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut w = ObjectWriter::new();
        w.u64("v", PROTO_VERSION);
        match self {
            Request::Ping { id } => {
                w.str("op", "ping").str("id", id);
            }
            Request::Stats { id } => {
                w.str("op", "stats").str("id", id);
            }
            Request::Shutdown { id } => {
                w.str("op", "shutdown").str("id", id);
            }
            Request::SessionOpen { id, case } => {
                w.str("op", "session_open").str("id", id).str("case", case);
            }
            Request::SessionEdit { id, session, edit } => {
                w.str("op", "session_edit")
                    .str("id", id)
                    .u64("session", *session);
                match edit {
                    EditOp::AddNode {
                        name,
                        class,
                        latency,
                    } => {
                        w.str("edit", "add_node")
                            .str("name", name)
                            .u64("class", *class as u64)
                            .u64("latency", u64::from(*latency));
                    }
                    EditOp::RemoveNode { index } => {
                        w.str("edit", "remove_node").u64("index", *index as u64);
                    }
                    EditOp::AddEdge { src, dst, distance } => {
                        w.str("edit", "add_edge")
                            .u64("src", *src as u64)
                            .u64("dst", *dst as u64)
                            .u64("distance", u64::from(*distance));
                    }
                    EditOp::RemoveEdge { src, dst, distance } => {
                        w.str("edit", "remove_edge")
                            .u64("src", *src as u64)
                            .u64("dst", *dst as u64)
                            .u64("distance", u64::from(*distance));
                    }
                }
            }
            Request::SessionSolve {
                id,
                session,
                ticks,
                timeout_ms,
            } => {
                w.str("op", "session_solve")
                    .str("id", id)
                    .u64("session", *session);
                if let Some(t) = ticks {
                    w.u64("ticks", *t);
                }
                if let Some(ms) = timeout_ms {
                    w.u64("timeout_ms", *ms);
                }
            }
            Request::SessionClose { id, session } => {
                w.str("op", "session_close")
                    .str("id", id)
                    .u64("session", *session);
            }
            Request::Solve(r) => {
                w.str("op", "solve").str("id", &r.id).str("case", &r.case);
                if let Some(ms) = r.timeout_ms {
                    w.u64("timeout_ms", ms);
                }
                if let Some(t) = r.ticks {
                    w.u64("ticks", t);
                }
                if let Some(m) = r.max_t {
                    w.u64("max_t", u64::from(m));
                }
                if let Some(h) = r.heuristic {
                    w.bool("heuristic", h);
                }
                if let Some(e) = r.engine {
                    w.str("engine", e.name());
                }
                if r.inject_panic {
                    w.bool("panic", true);
                }
            }
        }
        w.finish()
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A description of what is malformed; the daemon downgrades this to
    /// a `bad_request` reply.
    pub fn from_json_line(line: &str) -> Result<Request, String> {
        Request::from_json_line_with(line, "solve", None)
    }

    /// Parses one request line with an HTTP-route-supplied default `op`
    /// and session handle (the body of `POST /session/{id}/edit` does
    /// not repeat what the path already says).
    ///
    /// # Errors
    ///
    /// A description of what is malformed.
    pub fn from_json_line_with(
        line: &str,
        default_op: &str,
        session: Option<u64>,
    ) -> Result<Request, String> {
        let m = parse_object(line)?;
        let id = opt_str(&m, "id").unwrap_or_default();
        // An HTTP body may omit `op`; the route decides the default.
        let op = opt_str(&m, "op").unwrap_or_else(|| default_op.to_string());
        let need_session = || {
            session
                .or_else(|| opt_u64(&m, "session"))
                .ok_or_else(|| format!("{op} request needs `session`"))
        };
        match op.as_str() {
            "ping" => Ok(Request::Ping { id }),
            "stats" => Ok(Request::Stats { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            "session_open" => {
                let case = opt_str(&m, "case").ok_or("session_open request needs `case`")?;
                Ok(Request::SessionOpen { id, case })
            }
            "session_edit" => {
                let session = need_session()?;
                let kind = opt_str(&m, "edit").ok_or("session_edit request needs `edit`")?;
                let need = |k: &str| {
                    opt_u64(&m, k).ok_or_else(|| format!("edit `{kind}` needs numeric `{k}`"))
                };
                let edit = match kind.as_str() {
                    "add_node" => EditOp::AddNode {
                        name: opt_str(&m, "name").unwrap_or_else(|| "added".to_string()),
                        class: need("class")? as usize,
                        latency: need("latency")? as u32,
                    },
                    "remove_node" => EditOp::RemoveNode {
                        index: need("index")? as usize,
                    },
                    "add_edge" => EditOp::AddEdge {
                        src: need("src")? as usize,
                        dst: need("dst")? as usize,
                        distance: need("distance")? as u32,
                    },
                    "remove_edge" => EditOp::RemoveEdge {
                        src: need("src")? as usize,
                        dst: need("dst")? as usize,
                        distance: need("distance")? as u32,
                    },
                    other => return Err(format!("unknown edit `{other}`")),
                };
                Ok(Request::SessionEdit { id, session, edit })
            }
            "session_solve" => Ok(Request::SessionSolve {
                id,
                session: need_session()?,
                ticks: opt_u64(&m, "ticks"),
                timeout_ms: opt_u64(&m, "timeout_ms"),
            }),
            "session_close" => Ok(Request::SessionClose {
                id,
                session: need_session()?,
            }),
            "solve" => {
                let case = opt_str(&m, "case").ok_or("solve request needs `case`")?;
                let engine = m.get("engine").and_then(JsonValue::as_str).map(|name| {
                    Engine::from_name(name).ok_or_else(|| format!("unknown engine `{name}`"))
                });
                Ok(Request::Solve(SolveRequest {
                    id,
                    case,
                    timeout_ms: opt_u64(&m, "timeout_ms"),
                    ticks: opt_u64(&m, "ticks"),
                    max_t: opt_u64(&m, "max_t").map(|v| v as u32),
                    heuristic: m.get("heuristic").and_then(JsonValue::as_bool),
                    engine: engine.transpose()?,
                    inject_panic: m.get("panic").and_then(JsonValue::as_bool).unwrap_or(false),
                }))
            }
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

/// A reply message. Fields beyond `id` and `status` are populated as the
/// status warrants; absent fields are omitted from the wire form.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Correlation id, echoed from the request (empty when the request
    /// was too malformed to carry one).
    pub id: String,
    /// The classification.
    pub status: ReplyStatus,
    /// Achieved initiation interval.
    pub period: Option<u32>,
    /// Lower bound `T_lb`.
    pub t_lb: Option<u32>,
    /// `period − T_lb`.
    pub slack: Option<u32>,
    /// Whether every smaller period was refuted exactly.
    pub proven: Option<bool>,
    /// Engine that produced the schedule (`"ilp"`, `"cp"` or `"heuristic"`).
    pub solved_by: Option<String>,
    /// Budget ticks the solve consumed.
    pub ticks: Option<u64>,
    /// On-thread solve time, microseconds.
    pub solve_us: Option<u64>,
    /// Session handle (`session_open` replies, echoed on session ops).
    pub session: Option<u64>,
    /// Live instruction count after a session op.
    pub nodes: Option<u64>,
    /// Live dependence-edge count after a session op.
    pub edges: Option<u64>,
    /// Nodes in the dependency cone the last edit invalidated.
    pub cone: Option<u64>,
    /// Backoff hint on `overloaded` replies.
    pub retry_after_ms: Option<u64>,
    /// Human-readable detail on error-ish statuses.
    pub error: Option<String>,
    /// Telemetry counters (stats replies only).
    pub counters: Option<StatsSnapshot>,
}

impl Reply {
    /// A bare reply with just a status.
    pub fn status(id: impl Into<String>, status: ReplyStatus) -> Reply {
        Reply {
            id: id.into(),
            status,
            period: None,
            t_lb: None,
            slack: None,
            proven: None,
            solved_by: None,
            ticks: None,
            solve_us: None,
            session: None,
            nodes: None,
            edges: None,
            cone: None,
            retry_after_ms: None,
            error: None,
            counters: None,
        }
    }

    /// A bare reply plus an error detail.
    pub fn error(id: impl Into<String>, status: ReplyStatus, why: impl Into<String>) -> Reply {
        let mut r = Reply::status(id, status);
        r.error = Some(why.into());
        r
    }

    /// Serializes the reply as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut w = ObjectWriter::new();
        w.u64("v", PROTO_VERSION)
            .str("id", &self.id)
            .str("status", self.status.as_str());
        if let Some(p) = self.period {
            w.u64("period", u64::from(p));
        }
        if let Some(t) = self.t_lb {
            w.u64("t_lb", u64::from(t));
        }
        if let Some(s) = self.slack {
            w.u64("slack", u64::from(s));
        }
        if let Some(p) = self.proven {
            w.bool("proven", p);
        }
        if let Some(e) = &self.solved_by {
            w.str("solved_by", e);
        }
        if let Some(t) = self.ticks {
            w.u64("ticks", t);
        }
        if let Some(t) = self.solve_us {
            w.u64("solve_us", t);
        }
        if let Some(s) = self.session {
            w.u64("session", s);
        }
        if let Some(n) = self.nodes {
            w.u64("nodes", n);
        }
        if let Some(n) = self.edges {
            w.u64("edges", n);
        }
        if let Some(c) = self.cone {
            w.u64("cone", c);
        }
        if let Some(r) = self.retry_after_ms {
            w.u64("retry_after_ms", r);
        }
        if let Some(e) = &self.error {
            w.str("error", e);
        }
        if let Some(c) = &self.counters {
            c.write_fields(&mut w);
        }
        w.finish()
    }

    /// Parses one reply line.
    ///
    /// # Errors
    ///
    /// A description of what is malformed.
    pub fn from_json_line(line: &str) -> Result<Reply, String> {
        let m = parse_object(line)?;
        let status_raw = opt_str(&m, "status").ok_or("reply needs `status`")?;
        let status = ReplyStatus::parse(&status_raw)
            .ok_or_else(|| format!("unknown status `{status_raw}`"))?;
        Ok(Reply {
            id: opt_str(&m, "id").unwrap_or_default(),
            status,
            period: opt_u64(&m, "period").map(|v| v as u32),
            t_lb: opt_u64(&m, "t_lb").map(|v| v as u32),
            slack: opt_u64(&m, "slack").map(|v| v as u32),
            proven: m.get("proven").and_then(JsonValue::as_bool),
            solved_by: opt_str(&m, "solved_by"),
            ticks: opt_u64(&m, "ticks"),
            solve_us: opt_u64(&m, "solve_us"),
            session: opt_u64(&m, "session"),
            nodes: opt_u64(&m, "nodes"),
            edges: opt_u64(&m, "edges"),
            cone: opt_u64(&m, "cone"),
            retry_after_ms: opt_u64(&m, "retry_after_ms"),
            error: opt_str(&m, "error"),
            counters: StatsSnapshot::from_fields(&m),
        })
    }
}

fn opt_str(m: &BTreeMap<String, JsonValue>, k: &str) -> Option<String> {
    m.get(k).and_then(JsonValue::as_str).map(str::to_string)
}

fn opt_u64(m: &BTreeMap<String, JsonValue>, k: &str) -> Option<u64> {
    m.get(k).and_then(JsonValue::as_u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_request_round_trips_with_embedded_case_text() {
        let case = "# swp-fuzz regression\nmachine m {\n    unit C0 count=1 latency=2 table[X./.X]\n}\nddg {\n    node n0 class=0 latency=2\n}\n";
        let req = Request::Solve(SolveRequest {
            id: "r-1".into(),
            case: case.into(),
            timeout_ms: Some(250),
            ticks: Some(100_000),
            max_t: Some(4),
            heuristic: Some(false),
            engine: Some(Engine::Portfolio),
            inject_panic: true,
        });
        let line = req.to_json_line();
        assert!(!line.contains('\n'), "newlines must be escaped: {line}");
        assert_eq!(Request::from_json_line(&line).expect("round trip"), req);
    }

    #[test]
    fn minimal_requests_round_trip() {
        for req in [
            Request::Ping { id: "p".into() },
            Request::Stats { id: String::new() },
            Request::Shutdown { id: "s".into() },
            Request::Solve(SolveRequest::new("r", "machine m {}")),
        ] {
            let line = req.to_json_line();
            assert_eq!(Request::from_json_line(&line).expect("round trip"), req);
        }
    }

    #[test]
    fn session_requests_round_trip() {
        let edits = [
            EditOp::AddNode {
                name: "n9".into(),
                class: 1,
                latency: 3,
            },
            EditOp::RemoveNode { index: 2 },
            EditOp::AddEdge {
                src: 0,
                dst: 4,
                distance: 1,
            },
            EditOp::RemoveEdge {
                src: 3,
                dst: 3,
                distance: 2,
            },
        ];
        let mut reqs = vec![
            Request::SessionOpen {
                id: "o".into(),
                case: "machine m {}\nddg {}".into(),
            },
            Request::SessionSolve {
                id: "s".into(),
                session: 7,
                ticks: Some(1000),
                timeout_ms: None,
            },
            Request::SessionClose {
                id: "c".into(),
                session: 7,
            },
        ];
        for edit in edits {
            reqs.push(Request::SessionEdit {
                id: "e".into(),
                session: 7,
                edit,
            });
        }
        for req in reqs {
            let line = req.to_json_line();
            assert_eq!(Request::from_json_line(&line).expect("round trip"), req);
        }
    }

    #[test]
    fn http_route_defaults_supply_op_and_session() {
        let parsed =
            Request::from_json_line_with(r#"{"id":"x"}"#, "session_solve", Some(3)).expect("parse");
        assert_eq!(
            parsed,
            Request::SessionSolve {
                id: "x".into(),
                session: 3,
                ticks: None,
                timeout_ms: None,
            }
        );
        assert!(
            Request::from_json_line(r#"{"op":"session_solve","id":"x"}"#)
                .unwrap_err()
                .contains("session")
        );
        assert!(Request::from_json_line(
            r#"{"op":"session_edit","id":"x","session":1,"edit":"warp"}"#
        )
        .unwrap_err()
        .contains("warp"));
    }

    #[test]
    fn session_replies_round_trip() {
        let mut r = Reply::status("sess", ReplyStatus::Ok);
        r.session = Some(4);
        r.nodes = Some(6);
        r.edges = Some(5);
        r.cone = Some(3);
        let back = Reply::from_json_line(&r.to_json_line()).expect("round trip");
        assert_eq!(back, r);
    }

    #[test]
    fn op_defaults_to_solve_for_http_bodies() {
        let parsed = Request::from_json_line(r#"{"id":"x","case":"text"}"#).expect("parse");
        match parsed {
            Request::Solve(r) => {
                assert_eq!(r.id, "x");
                assert_eq!(r.case, "text");
                assert!(!r.inject_panic);
            }
            other => panic!("expected solve, got {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_descriptive_errors() {
        assert!(Request::from_json_line("not json").is_err());
        assert!(Request::from_json_line(r#"{"op":"warp","id":"x"}"#)
            .unwrap_err()
            .contains("warp"));
        assert!(Request::from_json_line(r#"{"op":"solve","id":"x"}"#)
            .unwrap_err()
            .contains("case"));
        assert!(Request::from_json_line(
            r#"{"op":"solve","id":"x","case":"c","engine":"quantum"}"#
        )
        .unwrap_err()
        .contains("quantum"));
    }

    #[test]
    fn replies_round_trip_and_every_status_has_a_stable_label() {
        let all = [
            ReplyStatus::Ok,
            ReplyStatus::Solved,
            ReplyStatus::Cached,
            ReplyStatus::Unscheduled,
            ReplyStatus::BudgetExhausted,
            ReplyStatus::Overloaded,
            ReplyStatus::Cancelled,
            ReplyStatus::InternalPanic,
            ReplyStatus::BadRequest,
            ReplyStatus::InternalError,
        ];
        for status in all {
            assert_eq!(ReplyStatus::parse(status.as_str()), Some(status));
            let mut r = Reply::status("id-9", status);
            r.period = Some(7);
            r.retry_after_ms = Some(12);
            r.error = Some("why".into());
            let back = Reply::from_json_line(&r.to_json_line()).expect("round trip");
            assert_eq!(back, r);
        }
        assert_eq!(ReplyStatus::parse("nope"), None);
    }

    #[test]
    fn http_codes_map_sanely() {
        assert_eq!(ReplyStatus::Solved.http_code(), 200);
        assert_eq!(ReplyStatus::Overloaded.http_code(), 429);
        assert_eq!(ReplyStatus::BadRequest.http_code(), 400);
        assert_eq!(ReplyStatus::InternalPanic.http_code(), 500);
    }
}
