//! The cr-server wire protocol: length-prefixed, versioned JSON frames.
//!
//! Framing is deliberately tiny (DESIGN.md §13): every message is a
//! 4-byte big-endian length followed by exactly that many bytes of JSON
//! — one [`Request`] per client frame, one [`Response`] per server
//! frame. The first exchange on a connection must be
//! [`Request::Hello`] / [`Response::HelloAck`]; the server rejects a
//! client whose `protocol_version` it does not speak with
//! [`ErrorCode::VersionMismatch`] before any other traffic, so protocol
//! evolution is a handshake problem, not a mid-stream one.
//!
//! Requests carry a [`RequestClass`] (read / write / admin) that the
//! admission controller schedules on. Read requests are served from a
//! pinned catalog snapshot ([`courserank::CourseRank::read_view`]) and
//! never block on writers; the typed [`Response::Overloaded`] is the
//! shed signal — clients back off instead of timing out.

use std::io::{self, Read, Write};

use serde::{Deserialize, Serialize};

/// Protocol revision spoken by this build. Bumped on any wire change.
/// v2: `Recommend` gained an optional `basis` field.
/// v3: `Hello` carries a `principal` (student/faculty/staff/…); queries
/// are disclosure-checked against it before execution and denied with
/// [`ErrorCode::PolicyDenied`].
pub const PROTOCOL_VERSION: u32 = 3;

/// Upper bound on a single frame body; anything larger is a protocol
/// error (protects the server from a bad length prefix).
pub const MAX_FRAME_LEN: u32 = 8 * 1024 * 1024;

/// Scheduling class of a request — what the admission controller
/// budgets. `Read`s run against a pinned snapshot, `Write`s against the
/// live catalog (WAL-ordered), `Admin` covers checkpoint/metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RequestClass {
    Read,
    Write,
    Admin,
}

impl RequestClass {
    pub const ALL: [RequestClass; 3] =
        [RequestClass::Read, RequestClass::Write, RequestClass::Admin];

    pub fn name(self) -> &'static str {
        match self {
            RequestClass::Read => "read",
            RequestClass::Write => "write",
            RequestClass::Admin => "admin",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            RequestClass::Read => 0,
            RequestClass::Write => 1,
            RequestClass::Admin => 2,
        }
    }
}

/// A client request. The handshake (`Hello`) must come first; every
/// other variant may repeat for the life of the session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Session open: version negotiation + client identification. The
    /// `principal` ("anonymous" / "student" / "student:444" / "faculty" /
    /// "staff" / "admin") is the clearance every subsequent query is
    /// disclosure-checked against; an unparseable principal is rejected
    /// at handshake with [`ErrorCode::BadRequest`]. Required as of v3 —
    /// the strict version gate turns away older clients before the
    /// missing field could matter.
    Hello {
        protocol_version: u32,
        client: String,
        principal: String,
    },
    /// Liveness check (read class, bypasses the catalog entirely).
    Ping,
    /// CourseCloud search, optionally refined by a clicked cloud term.
    Search {
        query: String,
        refine: Option<String>,
        limit: u32,
    },
    /// The rendered course-descriptor page (Figure 1, left).
    CoursePage { course: i64 },
    /// FlexRecs course recommendations for a student. `basis` picks the
    /// similarity basis (`None`/`"ratings"` default, `"taken"`,
    /// `"grades"`) — a protocol-2 addition; the handshake version gate
    /// rejects older clients before it can matter mid-stream.
    Recommend {
        student: i64,
        limit: u32,
        basis: Option<String>,
    },
    /// The planner report for a student's saved plan.
    PlanReport { student: i64 },
    /// Row counts of `tables`, read *in the given order* against one
    /// snapshot, with the pinned version of each. The hazardous-order
    /// consistency probe: under MVCC the counts always come from one
    /// atomic cut, whatever the order.
    Counts { tables: Vec<String> },
    /// One read-only SQL statement, executed against the pinned
    /// snapshot. A SELECT must clear the session's disclosure check
    /// ([`ErrorCode::PolicyDenied`]); a mutating statement fails with
    /// [`ErrorCode::ReadOnly`]; a text of several statements, or one
    /// that does not parse, is a [`ErrorCode::BadRequest`].
    SqlRead { query: String },
    /// Post a comment (server allocates the comment id).
    AddComment {
        student: i64,
        course: i64,
        year: i64,
        term: String,
        text: String,
        rating: f64,
    },
    /// Helpfulness vote on a comment.
    Vote {
        comment: i64,
        voter: i64,
        helpful: bool,
    },
    /// Add a planned/taken enrollment.
    Enroll {
        student: i64,
        course: i64,
        year: i64,
        term: String,
        planned: bool,
    },
    /// Snapshot + WAL rotation on a durable instance.
    Checkpoint,
    /// Process-wide metrics snapshot as JSON.
    Metrics,
    /// Orderly session close.
    Goodbye,
}

impl Request {
    /// The scheduling class this request is admitted under.
    pub fn class(&self) -> RequestClass {
        match self {
            Request::Hello { .. }
            | Request::Ping
            | Request::Search { .. }
            | Request::CoursePage { .. }
            | Request::Recommend { .. }
            | Request::PlanReport { .. }
            | Request::Counts { .. }
            | Request::SqlRead { .. }
            | Request::Goodbye => RequestClass::Read,
            Request::AddComment { .. } | Request::Vote { .. } | Request::Enroll { .. } => {
                RequestClass::Write
            }
            Request::Checkpoint | Request::Metrics => RequestClass::Admin,
        }
    }

    /// Short name for telemetry rows and trace spans.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Hello { .. } => "hello",
            Request::Ping => "ping",
            Request::Search { .. } => "search",
            Request::CoursePage { .. } => "course_page",
            Request::Recommend { .. } => "recommend",
            Request::PlanReport { .. } => "plan_report",
            Request::Counts { .. } => "counts",
            Request::SqlRead { .. } => "sql_read",
            Request::AddComment { .. } => "add_comment",
            Request::Vote { .. } => "vote",
            Request::Enroll { .. } => "enroll",
            Request::Checkpoint => "checkpoint",
            Request::Metrics => "metrics",
            Request::Goodbye => "goodbye",
        }
    }
}

/// Typed error categories — stable across protocol revisions so clients
/// can branch without string matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// Malformed or out-of-order request (e.g. no handshake).
    BadRequest,
    /// Handshake `protocol_version` unsupported.
    VersionMismatch,
    /// A mutation reached a snapshot (read-only) catalog.
    ReadOnly,
    /// Referenced entity does not exist.
    NotFound,
    /// The information-flow check rejected the query for this session's
    /// principal (P-codes from `cr_relation::plan::flow`).
    PolicyDenied,
    /// Anything else the engine reported.
    Internal,
}

/// A search hit on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HitDto {
    pub course: i64,
    pub title: String,
    pub dep: String,
    pub score: f64,
    pub snippet: Option<String>,
}

/// A data-cloud term on the wire (Figure 3's tag cloud).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CloudTermDto {
    pub term: String,
    pub display: String,
    pub score: f64,
}

/// A course recommendation on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecDto {
    pub course: i64,
    pub title: String,
    pub score: f64,
}

/// A server response. Exactly one per request frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Handshake accepted; `session` identifies this connection in
    /// `cr_stat_sessions`.
    HelloAck {
        protocol_version: u32,
        server: String,
        session: u64,
    },
    Pong,
    SearchResults {
        hits: Vec<HitDto>,
        total: u64,
        cloud: Vec<CloudTermDto>,
    },
    Page {
        text: String,
    },
    Recommendations {
        recs: Vec<RecDto>,
    },
    PlanSummary {
        quarters: u64,
        conflicts: u64,
        prereq_violations: u64,
        total_units: i64,
    },
    /// Counts + pinned versions, parallel to the requested table order.
    CountsResult {
        counts: Vec<i64>,
        versions: Vec<u64>,
    },
    Rows {
        columns: Vec<String>,
        rows: Vec<Vec<cr_relation::Value>>,
    },
    CommentAdded {
        id: i64,
    },
    /// Generic write acknowledgement.
    Written,
    Checkpointed {
        seq: Option<u64>,
    },
    MetricsJson {
        json: String,
    },
    /// Admission control shed this request — back off and retry. Not an
    /// [`Response::Error`]: overload is expected behavior, not failure.
    Overloaded {
        class: RequestClass,
        in_flight: u64,
        queued: u64,
    },
    Error {
        code: ErrorCode,
        message: String,
    },
    Bye,
}

/// Map an engine error to a wire error.
pub fn error_response(e: &cr_relation::RelError) -> Response {
    let message = e.to_string();
    let code = match e {
        cr_relation::RelError::UnknownTable(_) => ErrorCode::NotFound,
        cr_relation::RelError::Invalid(m) if m.contains("read-only") => ErrorCode::ReadOnly,
        _ => ErrorCode::Internal,
    };
    Response::Error { code, message }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

fn to_io(e: serde_json::Error) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Write one length-prefixed JSON frame.
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, msg: &T) -> io::Result<()> {
    let body = serde_json::to_string(msg).map_err(to_io)?;
    let len = u32::try_from(body.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame too large"))?;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame too large",
        ));
    }
    w.write_all(&len.to_be_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// Read one length-prefixed JSON frame. `Ok(None)` means the peer
/// closed the connection cleanly between frames.
pub fn read_frame<R: Read, T: Deserialize>(r: &mut R) -> io::Result<Option<T>> {
    let mut len_buf = [0u8; 4];
    match r.read(&mut len_buf) {
        Ok(0) => return Ok(None), // clean EOF at a frame boundary
        Ok(n) => r.read_exact(&mut len_buf[n..])?,
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds limit {MAX_FRAME_LEN}"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let text = String::from_utf8(body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    serde_json::from_str(&text).map(Some).map_err(to_io)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        let reqs = vec![
            Request::Hello {
                protocol_version: PROTOCOL_VERSION,
                client: "test".into(),
                principal: "student:444".into(),
            },
            Request::Search {
                query: "compilers".into(),
                refine: Some("parsing".into()),
                limit: 10,
            },
            Request::Counts {
                tables: vec!["Comments".into(), "CommentVotes".into()],
            },
            Request::Goodbye,
        ];
        for r in &reqs {
            write_frame(&mut buf, r).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        let mut out = Vec::new();
        while let Some(r) = read_frame::<_, Request>(&mut cursor).unwrap() {
            out.push(r);
        }
        assert_eq!(out, reqs);
    }

    #[test]
    fn hello_requires_principal_in_v3() {
        // A pre-v3 Hello frame (no principal) no longer parses; the
        // handshake's version gate would have rejected the client anyway.
        let json = r#"{"Hello":{"protocol_version":3,"client":"old"}}"#;
        assert!(serde_json::from_str::<Request>(json).is_err());
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            Response::HelloAck {
                protocol_version: 1,
                server: "cr-server".into(),
                session: 7,
            },
            Response::CountsResult {
                counts: vec![3, 5],
                versions: vec![10, 12],
            },
            Response::Overloaded {
                class: RequestClass::Read,
                in_flight: 8,
                queued: 32,
            },
            Response::Error {
                code: ErrorCode::ReadOnly,
                message: "catalog snapshot is read-only".into(),
            },
        ];
        for r in &resps {
            let mut buf = Vec::new();
            write_frame(&mut buf, r).unwrap();
            let back: Response = read_frame(&mut std::io::Cursor::new(buf)).unwrap().unwrap();
            assert_eq!(&back, r);
        }
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        let err = read_frame::<_, Request>(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn classes_cover_every_request() {
        assert_eq!(Request::Ping.class(), RequestClass::Read);
        assert_eq!(
            Request::Vote {
                comment: 1,
                voter: 2,
                helpful: true
            }
            .class(),
            RequestClass::Write
        );
        assert_eq!(Request::Checkpoint.class(), RequestClass::Admin);
        for c in RequestClass::ALL {
            assert!(c.index() < 3);
        }
    }

    /// A pre-authentication frame nested a million levels deep is a
    /// decode error on a session thread's 2 MiB stack, not an abort; the
    /// deepest protocol message still decodes.
    #[test]
    fn json_depth_bound_rejects_a_deep_frame_before_the_handshake() {
        let decode = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let depth = 1_000_000;
                let body = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
                let mut buf = (body.len() as u32).to_be_bytes().to_vec();
                buf.extend_from_slice(body.as_bytes());
                let err = read_frame::<_, Request>(&mut std::io::Cursor::new(buf)).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                assert!(err.to_string().contains("nested too deep"), "{err}");

                let rows = Response::Rows {
                    columns: vec!["CourseID".into()],
                    rows: vec![vec![cr_relation::Value::Int(1)]],
                };
                let mut buf = Vec::new();
                write_frame(&mut buf, &rows).unwrap();
                let back: Response = read_frame(&mut std::io::Cursor::new(buf)).unwrap().unwrap();
                assert_eq!(back, rows);
            })
            .unwrap();
        decode.join().unwrap();
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_hang() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Ping).unwrap();
        buf.truncate(buf.len() - 2);
        let err = read_frame::<_, Request>(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
