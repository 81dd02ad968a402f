//! Framing differential: one byte script, served by the epoll reactor and
//! by stdio, must come back as byte-identical reply streams. Over TCP the
//! script goes out in seeded random 1–64-byte writes, each flushed, so
//! every frame — a 1 MiB one included — reaches the reactor split across
//! many ragged reads; stdio reads it through a 64-byte buffer over the same
//! kind of ragged source.

use lcl_paths::problem::json::JsonValue;
use lcl_paths::problem::{RequestEnvelope, ResponseEnvelope};
use lcl_paths::problem::{StreamInputs, StreamInstanceSpec, Topology};
use lcl_paths::{problems, Engine};
use lcl_server::{serve_stdio, Counter, Server, Service, MAX_FRAME_BYTES};
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Bytes of the oversized line: past the bound by more than any one read.
const OVERSIZED: usize = MAX_FRAME_BYTES + 4099;

fn service() -> Arc<Service> {
    let service = Arc::new(
        Service::new(Engine::builder().parallelism(2).cache_shards(2).build())
            .with_max_chunk_bytes(1024),
    );
    // Warm the verdict so the script's first classify is a splice-lane hit.
    assert!(service.handle_line(&classify(0, 3)).is_ok());
    service
}

fn classify(id: i64, colors: usize) -> String {
    let payload = JsonValue::object([("problem", problems::coloring(colors).to_spec().to_json())]);
    RequestEnvelope::new(id, "classify", payload).to_json_string()
}

fn solve_stream(id: i64, length: u64) -> String {
    let instance = StreamInstanceSpec {
        topology: Topology::Cycle,
        length,
        inputs: StreamInputs::Uniform { label: 0 },
    };
    let payload = JsonValue::object([
        ("problem", problems::coloring(3).to_spec().to_json()),
        ("instance", instance.to_json()),
    ]);
    RequestEnvelope::new(id, "solve_stream", payload).to_json_string()
}

/// The script, and the ids its replies carry in order (`None` for frames
/// no id can be recovered from; `solve_stream` chunks repeat their id).
fn script() -> (Vec<u8>, Vec<Option<i64>>) {
    let mut bytes = Vec::new();
    let mut line = |text: &[u8]| {
        bytes.extend_from_slice(text);
        bytes.push(b'\n');
    };
    // A spliced classify hit, then blank lines that must get no reply.
    line(classify(1, 3).as_bytes());
    line(b"");
    line(b"   ");
    line(b"\r");
    line(b"\t ");
    // Invalid UTF-8, inside a recognizable envelope and as pure garbage.
    line(b"{\"v\":1,\"id\":2,\"kind\":\"clas\xffsify\"}");
    line(b"\xff\xfe\xfd");
    // A frame of exactly the bound is served, not rejected.
    let exact = classify(3, 3);
    let pad = " ".repeat(MAX_FRAME_BYTES - exact.len());
    line(format!("{pad}{exact}").as_bytes());
    // One byte-run far past the bound: rejected, the stream continues.
    line(&vec![b'x'; OVERSIZED]);
    // A streamed labeling with two frames pipelined right behind it.
    line(solve_stream(4, 300).as_bytes());
    line(classify(5, 4).as_bytes());
    let generate = JsonValue::object([("seed", JsonValue::Int(11))]);
    line(
        RequestEnvelope::new(6, "generate", generate)
            .to_json_string()
            .as_bytes(),
    );
    // A final line without its newline is still a frame.
    bytes.extend_from_slice(classify(7, 3).as_bytes());
    let ids = [
        Some(1),
        Some(2),
        None,
        Some(3),
        None,
        Some(4),
        Some(5),
        Some(6),
        Some(7),
    ];
    (bytes, ids.to_vec())
}

/// A deterministic xorshift stream of chunk lengths in `1..=64`.
struct Chunks(u64);

impl Chunks {
    fn next_len(&mut self) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        1 + (self.0 % 64) as usize
    }
}

/// A reader that hands out its bytes in seeded ragged pieces.
struct Ragged<'a> {
    bytes: &'a [u8],
    chunks: Chunks,
}

impl Read for Ragged<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunks.next_len().min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

fn over_tcp(script: &[u8], seed: u64) -> (Vec<u8>, Arc<Service>) {
    let service = service();
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0")
        .expect("bind")
        .start()
        .expect("start");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    let mut reader = stream.try_clone().expect("clone");
    let replies = std::thread::spawn(move || {
        let mut out = Vec::new();
        reader.read_to_end(&mut out).expect("read replies");
        out
    });
    let mut chunks = Chunks(seed);
    let mut rest = script;
    while !rest.is_empty() {
        let n = chunks.next_len().min(rest.len());
        stream.write_all(&rest[..n]).expect("write");
        stream.flush().expect("flush");
        rest = &rest[n..];
    }
    // End of stream: the unterminated last line becomes a frame, then the
    // server closes the connection once every reply is written.
    stream.shutdown(Shutdown::Write).expect("half-close");
    let out = replies.join().expect("reader thread");
    handle.shutdown();
    (out, service)
}

fn over_stdio(script: &[u8], seed: u64) -> (Vec<u8>, Arc<Service>) {
    let service = service();
    let input = BufReader::with_capacity(
        64,
        Ragged {
            bytes: script,
            chunks: Chunks(seed),
        },
    );
    let mut out = Vec::new();
    serve_stdio(&service, input, &mut out).expect("stdio session");
    (out, service)
}

#[test]
fn every_front_end_frames_one_script_identically() {
    let (script, ids) = script();
    let (reference, service) = over_stdio(&script, 0x9E37_79B9_7F4A_7C15);
    assert!(
        service.metrics().get(Counter::SplicedFrames) >= 1,
        "a splice hit was served"
    );

    // The reference stream itself: one reply per non-blank frame, in order.
    let text = std::str::from_utf8(&reference).expect("replies are UTF-8");
    let replies: Vec<ResponseEnvelope> = text
        .lines()
        .map(|line| ResponseEnvelope::from_json_str(line).expect("reply parses"))
        .collect();
    let mut got: Vec<Option<i64>> = replies.iter().map(|r| r.id).collect();
    let chunks = got.iter().filter(|&&id| id == Some(4)).count() - 1;
    assert!(chunks >= 2, "300 labels at 1 KiB chunks stream in pieces");
    got.dedup_by(|a, b| *a == Some(4) && a == b);
    assert_eq!(got, ids);
    let oversized = replies[4].result.as_ref().expect_err("rejected");
    assert_eq!(oversized.category, "protocol");
    assert!(
        oversized
            .message
            .contains(&format!("({OVERSIZED} bytes discarded)")),
        "{}",
        oversized.message
    );
    assert!(replies[3].is_ok(), "a frame of exactly the bound is served");
    for reply in &replies[5 + chunks..] {
        assert!(reply.is_ok(), "{reply:?}");
    }

    for (round, seed) in [1u64, 0xDEAD_BEEF].into_iter().enumerate() {
        let (tcp, service) = over_tcp(&script, seed);
        assert!(
            tcp == reference,
            "[round {round}] reply stream differs from stdio:\n{}\n---\n{}",
            String::from_utf8_lossy(&tcp),
            text
        );
        assert!(
            service.metrics().get(Counter::SplicedFrames) >= 1,
            "[round {round}]"
        );
    }
}
