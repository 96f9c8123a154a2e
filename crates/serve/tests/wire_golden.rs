//! Golden wire bytes: one fixed instance of every request and response
//! kind, pinned as hex captured from a known-good build.
//!
//! The conformance suite encodes and decodes with the same crate, so a
//! layout change made symmetrically on both sides passes it. These
//! literals do not move with the code: a frame that changes by one byte
//! fails here.
//!
//! * Requests are built with the public encoders.
//! * Responses the server writes itself (CdsResult, GraphOpened,
//!   MutateResult, TileResult, GraphClosed, Pong, Error, SubscribeAck)
//!   come out of [`handle_payload`] on tiny fixed inputs. The pushed and
//!   stats frames come from their public encoders.
//! * Every literal is decoded back and its fields checked.
//! * Every decoder is strict: each strict prefix of a golden body is
//!   `Truncated`, and the body plus one byte is `Trailing`. Ping, Pong and
//!   GraphClosed are the exceptions; their bodies are ignored.

use std::time::Instant;

use pacds_core::{CdsConfig, Policy};
use pacds_serve::protocol::{
    decode_cds_result, decode_close_graph, decode_error, decode_flip_event, decode_graph_opened,
    decode_mutate, decode_mutate_result, decode_query_tile, decode_stats_delta,
    decode_stats_request, decode_stats_result, decode_subscribe, decode_subscribe_ack,
    decode_tile_result, encode_close_graph, encode_compute_cds, encode_flip_event, encode_mutate,
    encode_open_graph, encode_ping, encode_query_tile, encode_stats_delta, encode_stats_request,
    encode_stats_result, encode_subscribe, ComputeCdsRequest, DecodeError, ErrorCode,
    GenComputeRequest, OpenGraphRequest, StatsDelta, StatsFormat, WireEvent, FLAG_NO_CACHE,
    LEN_PREFIX, SUB_FLIPS, SUB_STATS,
};
use pacds_serve::{handle_payload, ServeState, WorkerScratch};

const COMPUTE_CDS: &str = concat!(
    "4c000000010101fa000000040001010104000000030000000000000001000000",
    "0300000001000000020000000000000005000000000000000000000000000000",
    "09000000000000000700000000000000",
);
const GEN_COMPUTE: &str = concat!(
    "3100000001020128000000020000004d000000efbeadde000000000000000000",
    "003940000000000000594001012a00000000000000",
);
const STATS: &str = "03000000010302";
const PING: &str = "020000000104";
const OPEN_GRAPH: &str = concat!(
    "6f00000001050700666c6565742d610400000009000000000000000000394000",
    "0000000000000000000000000000000000000000005940000000000000594002",
    "000000000000000000f03f00000000000000400000000000000c400000000000",
    "00114007000000000000001300000000000000",
);
const MUTATE: &str = concat!(
    "4f00000001060700666c6565742d610400000000000000000000f83f00000000",
    "000004c04d000000000000000104000000000000000000d03f000000000000e8",
    "3f020900000003020000000d00000000000000",
);
const CLOSE_GRAPH: &str = "0b00000001070700666c6565742d62";
const QUERY_TILE: &str = "0f00000001080700666c6565742d620c000000";
const SUBSCRIBE: &str = "10000000010903fa0000000700666c6565742d61";

const CDS_RESULT: &str = "190000000181000a00000008000000080000000800000001000000fe01";
const STATS_RESULT: &str = concat!(
    "450000000183020000000800726571756573747311000000000000000a006361",
    "6368655f68697473090000000000000015000000232048454c50207061636473",
    "206e6f7468696e670a",
);
const PONG: &str = "020000000184";
const GRAPH_OPENED: &str = "0e0000000185010000000600000004000000";
const MUTATE_RESULT: &str = concat!(
    "2200000001860100000001000000010000000100000001000000000000000300",
    "000006000000",
);
const GRAPH_CLOSED: &str = "020000000187";
const TILE_RESULT: &str = concat!(
    "2800000001880000000006000000000000000001000000070200000007030000",
    "000704000000000500000000",
);
const SUBSCRIBE_ACK: &str = "0f000000018900000000000000000164000000";
const STATS_DELTA: &str = concat!(
    "52000000018a030000000000000090d003000000000078000000000000007600",
    "0000000000000040000000000000000008000000000007000000000000000c00",
    "00000000000004000000000000000100000000000000",
);
const FLIP_EVENT: &str = concat!(
    "2f000000018b0700666c6565742d6109000000000000000f00000000000000e6",
    "00000003000000000000000300000007000000",
);
const ERROR: &str = "15000000017f090e0000006772617068206e6f74206f70656e";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// Asserts `frame` equals the golden hex and returns the golden body (the
/// bytes after the length prefix, version and kind).
fn pinned(name: &str, frame: &[u8], golden: &str) -> Vec<u8> {
    assert_eq!(hex(frame), golden, "{name}: frame bytes moved");
    let bytes = unhex(golden);
    let len = u32::from_le_bytes(bytes[..LEN_PREFIX].try_into().unwrap()) as usize;
    assert_eq!(len, bytes.len() - LEN_PREFIX, "{name}: length prefix");
    bytes[LEN_PREFIX + 2..].to_vec()
}

const EVENTS: [WireEvent; 4] = [
    WireEvent::Add {
        x: 1.5,
        y: -2.5,
        energy: 77,
    },
    WireEvent::Move {
        node: 4,
        x: 0.25,
        y: 0.75,
    },
    WireEvent::Kill { node: 9 },
    WireEvent::Drain {
        node: 2,
        remaining: 13,
    },
];

fn gen_request() -> GenComputeRequest {
    GenComputeRequest {
        flags: FLAG_NO_CACHE,
        deadline_ms: 40,
        cfg: CdsConfig::policy(Policy::Degree),
        n: 77,
        seed: 0xDEAD_BEEF,
        radius: 25.0,
        side: 100.0,
        connected: true,
        energy_seed: Some(42),
    }
}

fn stats_delta() -> StatsDelta {
    StatsDelta {
        seq: 3,
        dt_us: 250_000,
        requests: 120,
        samples: 118,
        p50_ns: 16_384,
        p99_ns: 524_288,
        gateway_flips: 7,
        tiles_resolved: 12,
        refreshes: 4,
        push_dropped: 1,
    }
}

/// `s` as whichever text slice (`&str` or `&[u8]`) the encoder takes.
fn text<T: ?Sized>(s: &'static str) -> &'static T
where
    str: AsRef<T>,
{
    s.as_ref()
}

/// A strict decoder under test, reduced to its verdict.
type Decode = fn(&[u8]) -> Result<(), DecodeError>;

/// Pins every request frame and checks its decoded fields; returns each
/// golden body with its decoder for the strictness sweep.
fn requests() -> Vec<(&'static str, Vec<u8>, Decode)> {
    let mut out = Vec::new();
    let mut f = Vec::new();

    let cfg = CdsConfig::sequential(Policy::EnergyDegree);
    encode_compute_cds(
        &mut f,
        FLAG_NO_CACHE,
        250,
        &cfg,
        4,
        &[(0, 1), (3, 1), (2, 0)],
        Some(&[5, 0, 9, 7]),
    );
    let body = pinned("ComputeCds", &f, COMPUTE_CDS);
    let req = ComputeCdsRequest::decode(&body).unwrap();
    assert_eq!(
        (req.flags, req.deadline_ms, req.cfg, req.n, req.m),
        (FLAG_NO_CACHE, 250, cfg, 4, 3)
    );
    assert_eq!(req.edges().collect::<Vec<_>>(), [(0, 1), (3, 1), (2, 0)]);
    assert_eq!(req.energies().unwrap().collect::<Vec<_>>(), [5, 0, 9, 7]);
    out.push((
        "ComputeCds",
        body,
        (|b| ComputeCdsRequest::decode(b).map(drop)) as Decode,
    ));

    gen_request().encode(&mut f);
    let body = pinned("GenCompute", &f, GEN_COMPUTE);
    assert_eq!(GenComputeRequest::decode(&body).unwrap(), gen_request());
    out.push(("GenCompute", body, |b| {
        GenComputeRequest::decode(b).map(drop)
    }));

    encode_stats_request(&mut f, StatsFormat::Prometheus);
    let body = pinned("Stats", &f, STATS);
    assert_eq!(
        decode_stats_request(&body).unwrap(),
        StatsFormat::Prometheus
    );
    out.push(("Stats", body, |b| decode_stats_request(b).map(drop)));

    encode_ping(&mut f);
    pinned("Ping", &f, PING);

    let og_cfg = CdsConfig::policy(Policy::EnergyDegree);
    let points = [(1.0, 2.0), (3.5, 4.25)];
    encode_open_graph(
        &mut f,
        "fleet-a",
        &og_cfg,
        9,
        25.0,
        (0.0, 0.0, 100.0, 100.0),
        &points,
        &[7, 19],
    );
    let body = pinned("OpenGraph", &f, OPEN_GRAPH);
    let req = OpenGraphRequest::decode(&body).unwrap();
    assert_eq!(
        (req.name, req.cfg, req.shards, req.radius, req.n),
        ("fleet-a", og_cfg, 9, 25.0, 2)
    );
    assert_eq!(req.bounds, (0.0, 0.0, 100.0, 100.0));
    assert_eq!(req.points().collect::<Vec<_>>(), points);
    assert_eq!(req.energies().collect::<Vec<_>>(), [7, 19]);
    out.push(("OpenGraph", body, |b| OpenGraphRequest::decode(b).map(drop)));

    encode_mutate(&mut f, "fleet-a", &EVENTS);
    let body = pinned("Mutate", &f, MUTATE);
    let (name, events) = decode_mutate(&body).unwrap();
    assert_eq!((name, events.as_slice()), ("fleet-a", &EVENTS[..]));
    out.push(("Mutate", body, |b| decode_mutate(b).map(drop)));

    encode_close_graph(&mut f, "fleet-b");
    let body = pinned("CloseGraph", &f, CLOSE_GRAPH);
    assert_eq!(decode_close_graph(&body).unwrap(), "fleet-b");
    out.push(("CloseGraph", body, |b| decode_close_graph(b).map(drop)));

    encode_query_tile(&mut f, "fleet-b", 12);
    let body = pinned("QueryTile", &f, QUERY_TILE);
    assert_eq!(decode_query_tile(&body).unwrap(), ("fleet-b", 12));
    out.push(("QueryTile", body, |b| decode_query_tile(b).map(drop)));

    encode_subscribe(&mut f, SUB_STATS | SUB_FLIPS, 250, Some("fleet-a"));
    let body = pinned("Subscribe", &f, SUBSCRIBE);
    let req = decode_subscribe(&body).unwrap();
    assert_eq!(
        (req.flags, req.interval_ms, req.graph),
        (SUB_STATS | SUB_FLIPS, 250, Some("fleet-a"))
    );
    out.push(("Subscribe", body, |b| decode_subscribe(b).map(drop)));

    out
}

/// Drives one request frame through the handler and returns the reply.
fn reply(state: &ServeState, scratch: &mut WorkerScratch, frame: &[u8]) -> Vec<u8> {
    let mut resp = Vec::new();
    handle_payload(
        state,
        scratch,
        &frame[LEN_PREFIX..],
        &mut resp,
        Instant::now(),
    );
    resp
}

/// Pins every response frame and checks its decoded fields; returns each
/// golden body with its decoder for the strictness sweep.
fn responses() -> Vec<(&'static str, Vec<u8>, Decode)> {
    let mut out = Vec::new();
    let state = ServeState::new(1 << 20);
    let mut scratch = WorkerScratch::new();
    let mut f = Vec::new();

    // A 10-host path: two mask bytes, gateways 1..=8.
    let path: Vec<(u32, u32)> = (0..9).map(|v| (v, v + 1)).collect();
    encode_compute_cds(
        &mut f,
        0,
        0,
        &CdsConfig::policy(Policy::Id),
        10,
        &path,
        None,
    );
    let body = pinned("CdsResult", &reply(&state, &mut scratch, &f), CDS_RESULT);
    let r = decode_cds_result(&body).unwrap();
    assert!(!r.cache_hit);
    assert_eq!(
        (r.marked, r.after_rule1, r.gateways, r.rounds),
        (8, 8, 8, 1)
    );
    assert_eq!(
        r.mask,
        (0..10).map(|v| (1..9).contains(&v)).collect::<Vec<_>>()
    );
    out.push((
        "CdsResult",
        body,
        (|b| decode_cds_result(b).map(drop)) as Decode,
    ));

    encode_stats_result(
        &mut f,
        &[("requests", 17u64), ("cache_hits", 9)],
        text("# HELP pacds nothing\n"),
    );
    let body = pinned("StatsResult", &f, STATS_RESULT);
    let s = decode_stats_result(&body).unwrap();
    assert_eq!(
        (s.counter("requests"), s.counter("cache_hits")),
        (Some(17), Some(9))
    );
    assert_eq!(s.counters.len(), 2);
    assert_eq!(s.text, "# HELP pacds nothing\n");
    out.push(("StatsResult", body, |b| decode_stats_result(b).map(drop)));

    encode_ping(&mut f);
    pinned("Pong", &reply(&state, &mut scratch, &f), PONG);

    // Six hosts 20 apart on a line, one tile.
    let points: Vec<(f64, f64)> = (0..6).map(|i| (10.0 + 20.0 * i as f64, 50.0)).collect();
    let cfg = CdsConfig::policy(Policy::Degree);
    encode_open_graph(
        &mut f,
        "g",
        &cfg,
        1,
        25.0,
        (0.0, 0.0, 120.0, 100.0),
        &points,
        &[10; 6],
    );
    let body = pinned(
        "GraphOpened",
        &reply(&state, &mut scratch, &f),
        GRAPH_OPENED,
    );
    let g = decode_graph_opened(&body).unwrap();
    assert_eq!((g.tiles, g.n, g.gateways), (1, 6, 4));
    out.push(("GraphOpened", body, |b| decode_graph_opened(b).map(drop)));

    encode_mutate(&mut f, "g", &[WireEvent::Kill { node: 5 }]);
    let body = pinned(
        "MutateResult",
        &reply(&state, &mut scratch, &f),
        MUTATE_RESULT,
    );
    let m = decode_mutate_result(&body).unwrap();
    assert_eq!(
        (m.applied, m.dirty_tiles, m.resolved_tiles, m.total_tiles),
        (1, 1, 1, 1)
    );
    assert_eq!((m.gateway_flips, m.gateways, m.n), (1, 3, 6));
    out.push(("MutateResult", body, |b| decode_mutate_result(b).map(drop)));

    encode_query_tile(&mut f, "g", 0);
    let body = pinned("TileResult", &reply(&state, &mut scratch, &f), TILE_RESULT);
    let t = decode_tile_result(&body).unwrap();
    assert_eq!(t.tile, 0);
    assert_eq!(t.entries, [(0, 0), (1, 7), (2, 7), (3, 7), (4, 0), (5, 0)]);
    out.push(("TileResult", body, |b| decode_tile_result(b).map(drop)));

    encode_close_graph(&mut f, "g");
    pinned(
        "GraphClosed",
        &reply(&state, &mut scratch, &f),
        GRAPH_CLOSED,
    );

    encode_subscribe(&mut f, SUB_STATS, 100, None);
    let body = pinned(
        "SubscribeAck",
        &reply(&state, &mut scratch, &f),
        SUBSCRIBE_ACK,
    );
    let ack = decode_subscribe_ack(&body).unwrap();
    assert_eq!((ack.flags, ack.interval_ms), (SUB_STATS, 100));
    out.push(("SubscribeAck", body, |b| decode_subscribe_ack(b).map(drop)));

    encode_stats_delta(&mut f, &stats_delta());
    let body = pinned("StatsDelta", &f, STATS_DELTA);
    assert_eq!(decode_stats_delta(&body).unwrap(), stats_delta());
    out.push(("StatsDelta", body, |b| decode_stats_delta(b).map(drop)));

    encode_flip_event(&mut f, "fleet-a", 9, 15, 230, &[0, 3, 7]);
    let body = pinned("FlipEvent", &f, FLIP_EVENT);
    let ev = decode_flip_event(&body).unwrap();
    assert_eq!(
        (
            ev.name.as_str(),
            ev.refresh_seq,
            ev.gateway_flips,
            ev.gateways
        ),
        ("fleet-a", 9, 15, 230)
    );
    assert_eq!(ev.tiles, [0, 3, 7]);
    out.push(("FlipEvent", body, |b| decode_flip_event(b).map(drop)));

    // The graph was closed above.
    encode_query_tile(&mut f, "g", 0);
    let body = pinned("Error", &reply(&state, &mut scratch, &f), ERROR);
    let e = decode_error(&body).unwrap();
    assert_eq!(
        (e.code, e.message.as_str()),
        (ErrorCode::UnknownGraph, "graph not open")
    );
    out.push(("Error", body, |b| decode_error(b).map(drop)));

    out
}

#[test]
fn request_frames_match_their_golden_bytes() {
    requests();
}

#[test]
fn response_frames_match_their_golden_bytes() {
    responses();
}

#[test]
fn every_decoder_is_strict() {
    for (name, body, decode) in requests().into_iter().chain(responses()) {
        decode(&body).unwrap_or_else(|e| panic!("{name}: golden body fails: {e}"));
        for cut in 0..body.len() {
            assert_eq!(
                decode(&body[..cut]),
                Err(DecodeError::Truncated),
                "{name}: cut={cut}"
            );
        }
        let mut longer = body.clone();
        longer.push(0);
        assert_eq!(
            decode(&longer),
            Err(DecodeError::Trailing),
            "{name}: one extra byte"
        );
    }
}
