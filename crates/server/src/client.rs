//! A minimal blocking client over any `Read + Write` transport.
//!
//! Handles the handshake and framing; typed helpers cover the common
//! calls. One request in flight at a time per client (the protocol is
//! strictly request/response) — open more connections for parallelism,
//! which is exactly what the load harness does.

use std::io::{self, Read, Write};
use std::net::TcpStream;

use crate::protocol::{read_frame, write_frame, ErrorCode, Request, Response, PROTOCOL_VERSION};

/// A connected, handshaken session.
pub struct Client<C: Read + Write> {
    conn: C,
    session: u64,
}

fn proto_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl<C: Read + Write> Client<C> {
    /// Perform the handshake over an established transport as `staff`
    /// (full clearance — the pre-v3 behavior). Use
    /// [`Client::handshake_as`] to open a principal-scoped session.
    pub fn handshake(conn: C, client_name: &str) -> io::Result<Self> {
        Self::handshake_as(conn, client_name, "staff")
    }

    /// Handshake with an explicit principal (`"student:444"`,
    /// `"faculty"`, …); every query on the session is disclosure-checked
    /// against it.
    pub fn handshake_as(mut conn: C, client_name: &str, principal: &str) -> io::Result<Self> {
        write_frame(
            &mut conn,
            &Request::Hello {
                protocol_version: PROTOCOL_VERSION,
                client: client_name.to_owned(),
                principal: principal.to_owned(),
            },
        )?;
        match read_frame::<_, Response>(&mut conn)? {
            Some(Response::HelloAck { session, .. }) => Ok(Client { conn, session }),
            Some(Response::Error { code, message }) => Err(proto_err(format!(
                "handshake rejected ({code:?}): {message}"
            ))),
            Some(other) => Err(proto_err(format!("unexpected handshake reply: {other:?}"))),
            None => Err(proto_err("server closed during handshake")),
        }
    }

    /// The server-assigned session id (the `cr_stat_sessions` key).
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Send one request, wait for its response.
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        write_frame(&mut self.conn, req)?;
        read_frame::<_, Response>(&mut self.conn)?
            .ok_or_else(|| proto_err("server closed mid-request"))
    }

    pub fn ping(&mut self) -> io::Result<Response> {
        self.call(&Request::Ping)
    }

    pub fn search(&mut self, query: &str, limit: u32) -> io::Result<Response> {
        self.call(&Request::Search {
            query: query.to_owned(),
            refine: None,
            limit,
        })
    }

    pub fn course_page(&mut self, course: i64) -> io::Result<Response> {
        self.call(&Request::CoursePage { course })
    }

    pub fn recommend(&mut self, student: i64, limit: u32) -> io::Result<Response> {
        self.call(&Request::Recommend {
            student,
            limit,
            basis: None,
        })
    }

    /// Recommendations over an explicit similarity basis
    /// (`"ratings"` / `"taken"` / `"grades"`).
    pub fn recommend_with_basis(
        &mut self,
        student: i64,
        limit: u32,
        basis: &str,
    ) -> io::Result<Response> {
        self.call(&Request::Recommend {
            student,
            limit,
            basis: Some(basis.to_owned()),
        })
    }

    pub fn counts(&mut self, tables: &[&str]) -> io::Result<Response> {
        self.call(&Request::Counts {
            tables: tables.iter().map(|t| (*t).to_owned()).collect(),
        })
    }

    pub fn sql(&mut self, query: &str) -> io::Result<Response> {
        self.call(&Request::SqlRead {
            query: query.to_owned(),
        })
    }

    pub fn add_comment(
        &mut self,
        student: i64,
        course: i64,
        year: i64,
        term: &str,
        text: &str,
        rating: f64,
    ) -> io::Result<Response> {
        self.call(&Request::AddComment {
            student,
            course,
            year,
            term: term.to_owned(),
            text: text.to_owned(),
            rating,
        })
    }

    pub fn vote(&mut self, comment: i64, voter: i64, helpful: bool) -> io::Result<Response> {
        self.call(&Request::Vote {
            comment,
            voter,
            helpful,
        })
    }

    /// Orderly close: send Goodbye, wait for Bye.
    pub fn goodbye(mut self) -> io::Result<()> {
        match self.call(&Request::Goodbye)? {
            Response::Bye => Ok(()),
            other => Err(proto_err(format!("expected Bye, got {other:?}"))),
        }
    }
}

impl Client<TcpStream> {
    /// Connect and handshake over TCP.
    pub fn connect(addr: &str, client_name: &str) -> io::Result<Self> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        Self::handshake(s, client_name)
    }
}

/// Branch helper: the flow analysis denied this query for the session's
/// principal.
pub fn is_policy_denied(resp: &Response) -> bool {
    matches!(
        resp,
        Response::Error {
            code: ErrorCode::PolicyDenied,
            ..
        }
    )
}

/// Branch helper: a read-only violation (mutation through a snapshot).
pub fn is_read_only_error(resp: &Response) -> bool {
    matches!(
        resp,
        Response::Error {
            code: ErrorCode::ReadOnly,
            ..
        }
    )
}
