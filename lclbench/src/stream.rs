//! The stream phase: a fresh server; one connection sends the
//! `solve_stream` legs in order.

use crate::inputs::Leg;
use crate::oracle;
use crate::report::Tally;
use crate::server::Conn;
use crate::server::Serve;
use crate::trace::Tracer;
use lcl_paths::problem::json::JsonValue;
use lcl_paths::problem::{RequestEnvelope, ResponseEnvelope};
use std::path::Path;
use std::time::Instant;

/// The server's `--max-chunk-bytes`: 240 labels per chunk, so a 2,000-node
/// leg arrives in 9 chunks (~0.1 s each) and the periodic leg in 417
/// (~2 ms each), and `stream.chunk_ms.p50` times chunks of that size. With
/// the default 256 KiB every leg but the periodic one is a single chunk.
pub const CHUNK_BYTES: usize = 2_048;

/// What one pass measured.
pub struct Pass {
    /// Per leg, in leg order: client seconds from sending the request to
    /// receiving its last reply line, whatever the leg's outcome (a
    /// failure counts in `failed`, not in the time).
    pub wall_s: Vec<f64>,
    pub stats: JsonValue,
    pub tally: Tally,
}

/// Client wall microseconds per streamed node over the legs of `kind`.
pub fn us_per_node(pass: &Pass, legs: &[Leg], kind: &str) -> f64 {
    let (wall, nodes) = legs
        .iter()
        .zip(&pass.wall_s)
        .filter(|(leg, _)| leg.leg == kind)
        .fold((0.0, 0), |(wall, nodes), (leg, s)| {
            (wall + s, nodes + leg.instance.length)
        });
    wall * 1e6 / nodes as f64
}

pub fn pass(bin: &Path, legs: &[Leg], tracer: Option<&Tracer>) -> Result<(Pass, Serve), String> {
    let chunk_bytes = CHUNK_BYTES.to_string();
    let serve = Serve::start(bin, &["--max-chunk-bytes", &chunk_bytes])?;
    let mut conn = Conn::connect(serve.addr)?;
    let mut wall_s = Vec::new();
    let mut tally = Tally::default();
    for (i, leg) in legs.iter().enumerate() {
        let id = i as i64 + 1;
        let payload = JsonValue::object([
            ("problem", leg.problem.to_spec().to_json()),
            ("instance", leg.instance.to_json()),
        ]);
        let frame = RequestEnvelope::new(id, "solve_stream", payload).to_json_string();
        let span = tracer.map(|t| t.open("rpc.solve_stream", None, id as u64));
        let started = Instant::now();
        // Only read lines while timed: parsing 100,000 labels would cost
        // the client about as much as the periodic leg costs the server.
        conn.send(&frame)?;
        let mut lines = Vec::new();
        loop {
            let line = conn.recv()?;
            let last = line.contains("\"done\":true") || line.contains("\"ok\":false");
            lines.push(line);
            if last {
                break;
            }
        }
        wall_s.push(started.elapsed().as_secs_f64());
        if let (Some(t), Some(span)) = (tracer, span) {
            t.close(span);
        }
        let outcome = labels(&lines, id)
            .and_then(|outputs| oracle::check_stream(&leg.problem, &leg.instance, &outputs));
        tally.record(&leg.name, &outcome);
    }
    eprintln!(
        "[stream] leg walls (ms): {}",
        legs.iter()
            .zip(&wall_s)
            .map(|(leg, s)| format!("{} {:.0}", leg.name, s * 1e3))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let stats = serve.stats()?;
    Ok((
        Pass {
            wall_s,
            stats,
            tally,
        },
        serve,
    ))
}

/// The labels of a `solve_stream` reply, checked as the protocol promises:
/// every frame echoes the request id, chunks arrive with `seq` from 0 and
/// contiguous `offset`s, and the terminal frame counts every label.
fn labels(lines: &[String], id: i64) -> Result<Vec<u16>, String> {
    let mut outputs = Vec::new();
    for (seq, line) in lines.iter().enumerate() {
        let response =
            ResponseEnvelope::from_json_str(line).map_err(|e| format!("bad frame: {e}"))?;
        if response.id != Some(id) {
            return Err(format!("frame id {:?} does not echo {id}", response.id));
        }
        let payload = response.result.map_err(|e| e.to_string())?;
        let int = |field: &str| payload.get(field).and_then(|v| v.as_int().ok());
        if int("seq") != Some(seq as i64) {
            return Err(format!("frame {seq} carries seq {:?}", int("seq")));
        }
        if payload.get("done").is_some() {
            return if int("nodes") == Some(outputs.len() as i64) {
                Ok(outputs)
            } else {
                Err(format!(
                    "{:?} nodes summarized, {} delivered",
                    int("nodes"),
                    outputs.len()
                ))
            };
        }
        if int("offset") != Some(outputs.len() as i64) {
            return Err(format!("chunk {seq} is not contiguous"));
        }
        let chunk = payload.get("outputs").ok_or("chunk without outputs")?;
        for label in chunk.as_array().map_err(|e| e.to_string())? {
            let label = label.as_int().ok().and_then(|v| u16::try_from(v).ok());
            outputs.push(label.ok_or("invalid output label")?);
        }
    }
    Err("stream ended without a terminal frame".to_string())
}
