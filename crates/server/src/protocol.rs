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

/// Write one length-prefixed JSON frame in a single `write_all`: one
/// send on the pipe, one segment on TCP for a frame that fits in one.
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
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(body.as_bytes());
    w.write_all(&frame)?;
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
    use std::time::{Duration, Instant};

    use cr_relation::Value;

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

    #[test]
    fn a_body_cut_inside_a_character_is_invalid_data() {
        let mut buf = 2u32.to_be_bytes().to_vec();
        buf.extend_from_slice(&"\"é".as_bytes()[..2]);
        let err = read_frame::<_, Request>(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// One request of each variant, every string field set to `text`.
    fn every_request(text: &str) -> Vec<Request> {
        let s = || text.to_owned();
        vec![
            Request::Hello {
                protocol_version: PROTOCOL_VERSION,
                client: s(),
                principal: s(),
            },
            Request::Ping,
            Request::Search {
                query: s(),
                refine: Some(s()),
                limit: 10,
            },
            Request::CoursePage { course: 42 },
            Request::Recommend {
                student: 444,
                limit: 5,
                basis: Some(s()),
            },
            Request::PlanReport { student: 444 },
            Request::Counts {
                tables: vec![s(), s()],
            },
            Request::SqlRead { query: s() },
            Request::AddComment {
                student: 444,
                course: 42,
                year: 2008,
                term: s(),
                text: s(),
                rating: 4.5,
            },
            Request::Vote {
                comment: 7,
                voter: 444,
                helpful: true,
            },
            Request::Enroll {
                student: 444,
                course: 42,
                year: 2009,
                term: s(),
                planned: false,
            },
            Request::Checkpoint,
            Request::Metrics,
            Request::Goodbye,
        ]
    }

    /// One response of each variant, every string field set to `text`.
    fn every_response(text: &str) -> Vec<Response> {
        let s = || text.to_owned();
        vec![
            Response::HelloAck {
                protocol_version: PROTOCOL_VERSION,
                server: s(),
                session: 7,
            },
            Response::Pong,
            Response::SearchResults {
                hits: vec![HitDto {
                    course: 42,
                    title: s(),
                    dep: s(),
                    score: 0.8125,
                    snippet: Some(s()),
                }],
                total: 1,
                cloud: vec![CloudTermDto {
                    term: s(),
                    display: s(),
                    score: 1e-7,
                }],
            },
            Response::Page { text: s() },
            Response::Recommendations {
                recs: vec![RecDto {
                    course: 42,
                    title: s(),
                    score: -2.0,
                }],
            },
            Response::PlanSummary {
                quarters: 4,
                conflicts: 0,
                prereq_violations: 1,
                total_units: 45,
            },
            Response::CountsResult {
                counts: vec![3, 5],
                versions: vec![10, 12],
            },
            Response::Rows {
                columns: vec![s()],
                rows: vec![vec![
                    Value::Null,
                    Value::Bool(false),
                    Value::Int(-1),
                    Value::Float(3.25),
                    Value::Text(s()),
                    Value::Date(14000),
                    Value::Set(vec![Value::Int(1), Value::Int(2)].into()),
                    Value::Ratings(vec![(Value::Int(1), 4.0)].into()),
                ]],
            },
            Response::CommentAdded { id: 9 },
            Response::Written,
            Response::Checkpointed { seq: Some(3) },
            Response::MetricsJson { json: s() },
            Response::Overloaded {
                class: RequestClass::Write,
                in_flight: 8,
                queued: 32,
            },
            Response::Error {
                code: ErrorCode::PolicyDenied,
                message: s(),
            },
            Response::Bye,
        ]
    }

    /// Exercises every escape the printer emits and raw multi-byte UTF-8.
    const TEXT: &str = "Ω \"q\"\\\n\t\r\u{1}/";

    fn frame<T: Serialize>(msg: &T) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, msg).unwrap();
        buf
    }

    /// Each request variant's frame as protocol v3 writes it: the length
    /// prefix, then the JSON body.
    #[rustfmt::skip]
    const REQUEST_FRAMES: [(u32, &str); 14] = [
        (105, r#"{"Hello":{"protocol_version":3,"client":"Ω \"q\"\\\n\t\r\u0001/","principal":"Ω \"q\"\\\n\t\r\u0001/"}}"#),
        (6, r#""Ping""#),
        (92, r#"{"Search":{"query":"Ω \"q\"\\\n\t\r\u0001/","refine":"Ω \"q\"\\\n\t\r\u0001/","limit":10}}"#),
        (28, r#"{"CoursePage":{"course":42}}"#),
        (73, r#"{"Recommend":{"student":444,"limit":5,"basis":"Ω \"q\"\\\n\t\r\u0001/"}}"#),
        (30, r#"{"PlanReport":{"student":444}}"#),
        (75, r#"{"Counts":{"tables":["Ω \"q\"\\\n\t\r\u0001/","Ω \"q\"\\\n\t\r\u0001/"]}}"#),
        (47, r#"{"SqlRead":{"query":"Ω \"q\"\\\n\t\r\u0001/"}}"#),
        (133, r#"{"AddComment":{"student":444,"course":42,"year":2008,"term":"Ω \"q\"\\\n\t\r\u0001/","text":"Ω \"q\"\\\n\t\r\u0001/","rating":4.5}}"#),
        (49, r#"{"Vote":{"comment":7,"voter":444,"helpful":true}}"#),
        (99, r#"{"Enroll":{"student":444,"course":42,"year":2009,"term":"Ω \"q\"\\\n\t\r\u0001/","planned":false}}"#),
        (12, r#""Checkpoint""#),
        (9, r#""Metrics""#),
        (9, r#""Goodbye""#),
    ];

    /// Each response variant's frame as protocol v3 writes it.
    #[rustfmt::skip]
    const RESPONSE_FRAMES: [(u32, &str); 15] = [
        (82, r#"{"HelloAck":{"protocol_version":3,"server":"Ω \"q\"\\\n\t\r\u0001/","session":7}}"#),
        (6, r#""Pong""#),
        (263, r#"{"SearchResults":{"hits":[{"course":42,"title":"Ω \"q\"\\\n\t\r\u0001/","dep":"Ω \"q\"\\\n\t\r\u0001/","score":0.8125,"snippet":"Ω \"q\"\\\n\t\r\u0001/"}],"total":1,"cloud":[{"term":"Ω \"q\"\\\n\t\r\u0001/","display":"Ω \"q\"\\\n\t\r\u0001/","score":1e-7}]}}"#),
        (43, r#"{"Page":{"text":"Ω \"q\"\\\n\t\r\u0001/"}}"#),
        (91, r#"{"Recommendations":{"recs":[{"course":42,"title":"Ω \"q\"\\\n\t\r\u0001/","score":-2.0}]}}"#),
        (83, r#"{"PlanSummary":{"quarters":4,"conflicts":0,"prereq_violations":1,"total_units":45}}"#),
        (52, r#"{"CountsResult":{"counts":[3,5],"versions":[10,12]}}"#),
        (217, r#"{"Rows":{"columns":["Ω \"q\"\\\n\t\r\u0001/"],"rows":[["Null",{"Bool":false},{"Int":-1},{"Float":3.25},{"Text":"Ω \"q\"\\\n\t\r\u0001/"},{"Date":14000},{"Set":[{"Int":1},{"Int":2}]},{"Ratings":[[{"Int":1},4.0]]}]]}}"#),
        (25, r#"{"CommentAdded":{"id":9}}"#),
        (9, r#""Written""#),
        (26, r#"{"Checkpointed":{"seq":3}}"#),
        (50, r#"{"MetricsJson":{"json":"Ω \"q\"\\\n\t\r\u0001/"}}"#),
        (58, r#"{"Overloaded":{"class":"Write","in_flight":8,"queued":32}}"#),
        (69, r#"{"Error":{"code":"PolicyDenied","message":"Ω \"q\"\\\n\t\r\u0001/"}}"#),
        (5, r#""Bye""#),
    ];

    fn assert_golden<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(
        msgs: Vec<T>,
        golden: &[(u32, &str)],
    ) {
        assert_eq!(msgs.len(), golden.len());
        for (msg, (len, body)) in msgs.iter().zip(golden) {
            let f = frame(msg);
            assert_eq!(f[..4], len.to_be_bytes(), "{msg:?}");
            assert_eq!(std::str::from_utf8(&f[4..]).unwrap(), *body, "{msg:?}");
            let back: T = read_frame(&mut f.as_slice()).unwrap().unwrap();
            assert_eq!(&back, msg);
        }
    }

    /// Protocol v3 on the wire, byte for byte: the frames were taken from
    /// the two-write encoder, and a client built before the one-write
    /// encoder reads the same bytes.
    #[test]
    fn frames_of_every_variant_match_the_v3_goldens() {
        assert_golden(every_request(TEXT), &REQUEST_FRAMES);
        assert_golden(every_response(TEXT), &RESPONSE_FRAMES);
    }

    /// Counts the `write` calls made on it; takes every byte offered.
    struct Writes(Vec<usize>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        for req in every_request(TEXT) {
            let mut w = Writes(Vec::new());
            write_frame(&mut w, &req).unwrap();
            assert_eq!(w.0, [frame(&req).len()], "{req:?}");
        }
    }

    /// A ~4 MiB `Hello` whose `client` is one string decodes before the
    /// handshake in one pass over the frame: a decoder that rescanned the
    /// rest of the frame per character would hold the session thread for
    /// minutes.
    #[test]
    fn hello_time_bound_a_4_mib_client_decodes_in_linear_time() {
        let hello = Request::Hello {
            protocol_version: PROTOCOL_VERSION,
            client: "crbench é 😀 \"x\"\n".repeat((4 << 20) / 20),
            principal: "student".into(),
        };
        let f = frame(&hello);
        let start = Instant::now();
        let back: Request = read_frame(&mut f.as_slice()).unwrap().unwrap();
        let took = start.elapsed();
        assert_eq!(back, hello);
        assert!(
            took < Duration::from_secs(5),
            "{} bytes took {took:?}",
            f.len()
        );
    }

    /// SplitMix64: a seeded stream, so a failing case replays from its
    /// printed seed.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n`.
    fn below(state: &mut u64, n: usize) -> usize {
        (next(state) % n as u64) as usize
    }

    /// Seeded mutations of valid frames of every request variant (bytes
    /// flipped, the body cut short, a stretch of it duplicated; the length
    /// prefix kept or refitted to the body) decode to a request or an
    /// error, never a panic, within 50 ms plus 1 µs per byte. One frame
    /// in eight carries strings of a quarter of a million characters, where
    /// a decoder quadratic in a string's length overruns that bound.
    #[test]
    fn mutated_frames_time_bound_decode_without_panic() {
        const PIECES: [&str; 7] = ["a", "Ω", "😀", "\"", "\\", "\n", " "];
        for seed in 0..300u64 {
            let rng = &mut { seed };
            let chars = if below(rng, 8) == 0 {
                1 << 18
            } else {
                below(rng, 64)
            };
            let text: String = (0..chars)
                .map(|_| PIECES[below(rng, PIECES.len())])
                .collect();
            let mut reqs = every_request(&text);
            let req = reqs.swap_remove(below(rng, reqs.len()));
            let mut body = frame(&req).split_off(4);
            let len = body.len() as u32;
            match below(rng, 3) {
                0 => {
                    for _ in 0..=below(rng, 4) {
                        let i = below(rng, body.len());
                        body[i] ^= 1 << below(rng, 8);
                    }
                }
                1 => body.truncate(below(rng, body.len())),
                _ => {
                    let i = below(rng, body.len());
                    let j = i + below(rng, body.len() - i + 1);
                    let dup = body[i..j].to_vec();
                    body.splice(j..j, dup);
                }
            }
            let len = if below(rng, 2) == 0 {
                len
            } else {
                body.len() as u32
            };
            let mut f = len.to_be_bytes().to_vec();
            f.extend_from_slice(&body);

            let start = Instant::now();
            let decoded = std::panic::catch_unwind(|| read_frame::<_, Request>(&mut f.as_slice()));
            let took = start.elapsed();
            assert!(decoded.is_ok(), "seed {seed}: decoding panicked");
            let bound = Duration::from_millis(50) + Duration::from_micros(f.len() as u64);
            assert!(took < bound, "seed {seed}: {} bytes took {took:?}", f.len());
        }
    }
}
