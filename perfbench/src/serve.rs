//! `serve_mix`: an in-process query daemon with default options over the
//! paper-scale snapshot, booted from a store, under a closed loop of two
//! connections that each wait for their reply before sending again.
//!
//! The mix ([`SHARES`]): `Importance` uniform over the catalog and
//! `Completeness` from a hot pool of sets (cache hits once warm),
//! `Completeness` on fresh sets (misses), session operations (never
//! cached), `Ping`, and a few `Suggest` on fresh sets. Hits are answered
//! on the reactor thread, misses and sessions in workers, and suggest
//! loads the workers, so the cache, the wire and compute each move a
//! different request kind. The loop is closed because the daemon runs one
//! job per connection at a time: an open loop over two connections would
//! mostly measure the client's own queue behind a suggest.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use apistudy_catalog::{Api, Catalog};
use apistudy_core::{
    greedy_suggestions, snapshot_fingerprint, Client, CompletenessEngine, Metrics, MetricsIndex,
    Request, Response, RetryPolicy, ServeOptions, ServeStats, Server, Snapshot, Study,
};

use crate::report::{print_tail, Report};
use crate::stats::{closed_loop_qps, median, Tally};
use crate::study::{finish_trace, open_study, run_study, trace_store_read, STUDY_PACKAGES};
use crate::trace::Trace;
use crate::{secs, splitmix, Opts};

/// Concurrent connections: the reference box's core count.
const CONNECTIONS: usize = 2;
/// Hot completeness sets shared by both connections.
const HOT_SETS: usize = 64;
/// Requests per block; `run_s` is the median time a connection takes to
/// complete one block.
const BLOCK: usize = 1000;
/// Per-request deadline on the client side.
const CLIENT_DEADLINE: Duration = Duration::from_secs(10);

/// Request kinds of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Ping`.
    Ping,
    /// `Importance` of one syscall.
    Importance,
    /// `Completeness` of a hot-pool set.
    CompletenessHot,
    /// `Completeness` of a fresh set.
    CompletenessFresh,
    /// `SessionOpen`, `SessionProbe`, `SessionAdd` or `SessionRemove`.
    Session,
    /// `Suggest` with limit 3 on a fresh set.
    Suggest,
}

impl Kind {
    fn wire_metric(self) -> &'static str {
        match self {
            Kind::Ping => "serve.wire_us.ping",
            Kind::Importance => "serve.wire_us.importance",
            Kind::CompletenessHot => "serve.wire_us.completeness_hot",
            Kind::CompletenessFresh => "serve.wire_us.completeness_fresh",
            Kind::Session => "serve.wire_us.session",
            Kind::Suggest => "serve.wire_us.suggest",
        }
    }

    /// Whether the daemon computes this kind on every request (so wire
    /// time is the round trip minus the direct compute) rather than
    /// answering it from its cache or without compute.
    fn computed(self) -> bool {
        matches!(
            self,
            Kind::CompletenessFresh | Kind::Session | Kind::Suggest
        )
    }
}

/// The seeded request generator shared by both connections.
struct Mix {
    syscalls: Vec<u32>,
    hot: Vec<Vec<u32>>,
}

impl Mix {
    fn new(seed: u64) -> Self {
        let syscalls: Vec<u32> = Catalog::linux_3_19()
            .syscalls
            .iter()
            .map(|d| d.number)
            .collect();
        let mut rng = seed;
        let mut mix = Self {
            syscalls,
            hot: Vec::new(),
        };
        mix.hot = (0..HOT_SETS).map(|_| mix.fresh_set(&mut rng)).collect();
        mix
    }

    /// A set supporting each catalog syscall with probability 0.6.
    fn fresh_set(&self, rng: &mut u64) -> Vec<u32> {
        self.syscalls
            .iter()
            .copied()
            .filter(|_| splitmix(rng) % 10 < 6)
            .collect()
    }

    fn syscall(&self, rng: &mut u64) -> u32 {
        self.syscalls[(splitmix(rng) % self.syscalls.len() as u64) as usize]
    }
}

/// Each kind's share of every block of [`BLOCK`] requests. Fresh sets
/// support each catalog syscall with probability 0.6; a connection opens
/// its session before its first block.
const SHARES: [(Kind, usize); 6] = [
    (Kind::Importance, 450),
    (Kind::CompletenessHot, 150),
    (Kind::CompletenessFresh, 150),
    (Kind::Session, 200),
    (Kind::Ping, 45),
    (Kind::Suggest, 5),
];

/// One connection's seeded request stream. Every block of [`BLOCK`]
/// requests holds each kind's exact share in shuffled order, so runs
/// differ in order and inputs but not in how much of each kind they send.
struct Stream<'m> {
    mix: &'m Mix,
    rng: u64,
    deck: Vec<Kind>,
}

impl<'m> Stream<'m> {
    fn new(mix: &'m Mix, rng: u64) -> Self {
        Self {
            mix,
            rng,
            deck: Vec::with_capacity(BLOCK),
        }
    }

    /// The next request of a connection whose session is (or is not yet)
    /// open.
    fn next(&mut self, session_open: bool) -> (Kind, Request) {
        let (mix, rng) = (self.mix, &mut self.rng);
        if !session_open {
            return (
                Kind::Session,
                Request::SessionOpen {
                    supported: mix.fresh_set(rng),
                },
            );
        }
        if self.deck.is_empty() {
            for (kind, n) in SHARES {
                self.deck.extend(std::iter::repeat_n(kind, n));
            }
            for i in (1..self.deck.len()).rev() {
                self.deck.swap(i, (splitmix(rng) % (i as u64 + 1)) as usize);
            }
        }
        let kind = self.deck.pop().expect("the deck was just refilled");
        let req = match kind {
            Kind::Importance => Request::Importance {
                nr: mix.syscall(rng),
            },
            Kind::CompletenessHot => {
                let set = &mix.hot[(splitmix(rng) % HOT_SETS as u64) as usize];
                Request::Completeness {
                    supported: set.clone(),
                }
            }
            Kind::CompletenessFresh => Request::Completeness {
                supported: mix.fresh_set(rng),
            },
            Kind::Session => {
                let nr = mix.syscall(rng);
                match splitmix(rng) % 3 {
                    0 => Request::SessionProbe { nr },
                    1 => Request::SessionAdd { nr },
                    _ => Request::SessionRemove { nr },
                }
            }
            Kind::Ping => Request::Ping,
            Kind::Suggest => Request::Suggest {
                supported: mix.fresh_set(rng),
                limit: 3,
            },
        };
        (kind, req)
    }
}

/// One request as the client saw it.
struct Entry {
    kind: Kind,
    req: Request,
    reply: Result<Response, String>,
    start: Instant,
    end: Instant,
}

/// Whether a reply is a success: it arrived, it is not a classified error
/// (busy, deadline, draining, ...), and its encoding is bit-identical to
/// the direct library call's.
pub fn reply_ok(reply: &Result<Response, String>, expected: &Response) -> bool {
    match reply {
        Ok(Response::Err { .. }) | Err(_) => false,
        Ok(r) => r.encode() == expected.encode(),
    }
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr, RetryPolicy::default(), CLIENT_DEADLINE).map_err(|e| e.to_string())
}

/// Runs one connection's closed loop until `deadline`, after the barrier.
fn conn_loop(addr: SocketAddr, mix: &Mix, rng: u64, barrier: &Barrier, seconds: f64) -> Vec<Entry> {
    let mut log = Vec::new();
    let mut client = connect(addr);
    barrier.wait();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut stream = Stream::new(mix, rng);
    let mut session_open = false;
    while Instant::now() < deadline {
        let (kind, req) = stream.next(session_open);
        let start = Instant::now();
        let reply = match client.as_mut() {
            Ok(c) => c.call(&req).map_err(|e| e.to_string()),
            Err(e) => Err(e.clone()),
        };
        let end = Instant::now();
        if reply.is_err() {
            // The connection and its session are gone: reconnect and
            // reopen, so one failure is counted once.
            client = connect(addr);
            session_open = false;
        } else if matches!(req, Request::SessionOpen { .. }) {
            session_open = true;
        }
        log.push(Entry {
            kind,
            req,
            reply,
            start,
            end,
        });
    }
    log
}

/// Runs the closed loop for `seconds` over every connection.
fn run_mix(addr: SocketAddr, mix: &Mix, seed: u64, seconds: f64) -> Vec<Vec<Entry>> {
    let barrier = Barrier::new(CONNECTIONS);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let mut st = seed ^ (c as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407);
                let rng = splitmix(&mut st);
                let barrier = &barrier;
                s.spawn(move || conn_loop(addr, mix, rng, barrier, seconds))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Direct library answers, and how long each took.
struct Verified {
    tally: Tally,
    /// (kind, direct compute seconds) per request computed; a repeated
    /// pure request is looked up instead.
    compute: Vec<(Kind, f64)>,
}

/// Replays one connection's requests against the direct library calls
/// (a scratch engine mirrors the connection's session) and checks every
/// reply bit for bit.
fn verify_log(
    log: &[Entry],
    data: &apistudy_core::StudyData,
    index: &Arc<MetricsIndex>,
    pong: &Response,
) -> Verified {
    let m = Metrics::with_index(data, Arc::clone(index));
    let mut engine: Option<CompletenessEngine<'_, '_>> = None;
    // Pure answers depend on the request alone; repeats are looked up.
    let mut pure: HashMap<Vec<u8>, Response> = HashMap::new();
    let mut out = Verified {
        tally: Tally::default(),
        compute: Vec::with_capacity(log.len()),
    };
    for e in log {
        let t = Instant::now();
        let key = matches!(
            e.req,
            Request::Importance { .. } | Request::Completeness { .. } | Request::Suggest { .. }
        )
        .then(|| e.req.encode());
        let memo = key.as_ref().and_then(|k| pure.get(k)).cloned();
        let computed = memo.is_none();
        let expected = if let Some(r) = memo {
            r
        } else {
            match &e.req {
                Request::Ping => pong.clone(),
                Request::Importance { nr } => {
                    let api = Api::Syscall(*nr);
                    Response::Importance {
                        importance_bits: m.importance(api).to_bits(),
                        unweighted_bits: m.unweighted_importance(api).to_bits(),
                    }
                }
                Request::Completeness { supported } => {
                    let set: HashSet<u32> = supported.iter().copied().collect();
                    Response::Completeness {
                        bits: m.syscall_completeness(&set).to_bits(),
                    }
                }
                Request::Suggest { supported, limit } => {
                    let set: HashSet<u32> = supported.iter().copied().collect();
                    let picks = greedy_suggestions(&m, &set, *limit as usize);
                    Response::Suggest {
                        picks: picks.into_iter().map(|(nr, g)| (nr, g.to_bits())).collect(),
                    }
                }
                Request::SessionOpen { supported } => {
                    let set: HashSet<u32> = supported.iter().copied().collect();
                    let eng = engine.insert(CompletenessEngine::for_syscalls(&m, &set));
                    Response::Session {
                        delta_bits: 0f64.to_bits(),
                        completeness_bits: eng.completeness().to_bits(),
                    }
                }
                Request::SessionAdd { nr }
                | Request::SessionRemove { nr }
                | Request::SessionProbe { nr } => match engine.as_mut() {
                    Some(eng) => {
                        let api = Api::Syscall(*nr);
                        let delta = match e.req {
                            Request::SessionAdd { .. } => eng.add_api(api),
                            Request::SessionRemove { .. } => eng.remove_api(api),
                            _ => eng.probe_gain(api),
                        };
                        Response::Session {
                            delta_bits: delta.to_bits(),
                            completeness_bits: eng.completeness().to_bits(),
                        }
                    }
                    None => Response::err(apistudy_core::ErrorCode::BadRequest, "no session"),
                },
                other => Response::err(
                    apistudy_core::ErrorCode::BadRequest,
                    format!("not in the mix: {other:?}"),
                ),
            }
        };
        let compute_s = secs(t);
        if let (Some(k), true) = (key, computed) {
            pure.insert(k, expected.clone());
        }
        // A failed reply ends the server-side session; the client reopens.
        if e.reply.is_err() {
            engine = None;
        }
        let ok = reply_ok(&e.reply, &expected);
        if !ok {
            eprintln!(
                "serve_mix: {:?} got {:?}, expected {expected:?}",
                e.req_summary(),
                e.reply
            );
        }
        out.tally.record(ok);
        if computed && !matches!(e.req, Request::SessionOpen { .. }) {
            out.compute.push((e.kind, compute_s));
        }
    }
    out
}

impl Entry {
    fn req_summary(&self) -> String {
        match &self.req {
            Request::Completeness { supported } | Request::Suggest { supported, .. } => {
                format!("{:?} over {} syscalls", self.kind, supported.len())
            }
            other => format!("{other:?}"),
        }
    }
}

/// Loads the stored study and starts the daemon on it; ready once a
/// `Ping` is answered.
fn boot(opts: &Opts, store: &std::path::Path, trace: Option<&mut Trace>) -> Result<Server, String> {
    let start = |study: Study| {
        Server::start(study, None, ServeOptions::default())
            .map_err(|e| format!("server start: {e}"))
    };
    let server = match trace {
        None => start(open_study(STUDY_PACKAGES, opts.corpus_seed, store, true)?)?,
        Some(t) => {
            let study = t.span("serve.load", |_| {
                open_study(STUDY_PACKAGES, opts.corpus_seed, store, true)
            })?;
            let snap = t.span("serve.seal", |_| Snapshot::seal(study, 0));
            t.span("serve.start", |_| start(snap.study))?
        }
    };
    let mut c = connect(server.addr())?;
    match c.call(&Request::Ping) {
        Ok(Response::Pong { .. }) => Ok(server),
        other => Err(format!("server not ready: {other:?}")),
    }
}

/// Fills the daemon's cache with every `Importance` and hot-pool reply,
/// as a long-running daemon's would be. Part of set-up.
fn warm(addr: SocketAddr, mix: &Mix) -> Result<Vec<Entry>, String> {
    let mut c = connect(addr)?;
    let mut log = Vec::new();
    let reqs = mix
        .syscalls
        .iter()
        .map(|&nr| (Kind::Importance, Request::Importance { nr }))
        .chain(mix.hot.iter().map(|s| {
            (
                Kind::CompletenessHot,
                Request::Completeness {
                    supported: s.clone(),
                },
            )
        }));
    for (kind, req) in reqs {
        let start = Instant::now();
        let reply = c.call(&req).map_err(|e| e.to_string());
        log.push(Entry {
            kind,
            req,
            reply,
            start,
            end: Instant::now(),
        });
    }
    Ok(log)
}

fn stats_delta(a: ServeStats, b: ServeStats) -> ServeStats {
    ServeStats {
        cache_hits: b.cache_hits - a.cache_hits,
        cache_misses: b.cache_misses - a.cache_misses,
        rejected_busy: b.rejected_busy - a.rejected_busy,
        io_errors: b.io_errors - a.io_errors,
        deadline_closed: b.deadline_closed - a.deadline_closed,
        ..ServeStats::default()
    }
}

/// The workload: set-up builds the store in a child process, then boots
/// and warms the daemon; the closed loop runs for the requested time;
/// after shutdown every reply is checked against direct library calls on
/// a reference copy of the study.
pub fn serve_mix(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let store = opts.dir.join("serve.apsf");
    let built = crate::setup_stores(opts, STUDY_PACKAGES, &store, 1)?;
    let mix = Mix::new(opts.mix_seed);

    let t = Instant::now();
    let server = boot(opts, &store, None)?;
    let boot_s = secs(t);
    let t = Instant::now();
    let mut warm_logs = vec![warm(server.addr(), &mix)?];
    let warm_s = secs(t);
    let setup_s = built.setup_s + boot_s + warm_s;
    println!("set-up: boot {boot_s:.3} s, warm {warm_s:.3} s");

    let mut trace = Trace::default();
    let mut traced_boot_s = 0.0;
    let server = if opts.trace {
        // The traced run boots a second daemon with the boot's stages in
        // spans; the untraced boot above is its baseline.
        server.shutdown();
        server.wait();
        let t = Instant::now();
        let s = boot(opts, &store, Some(&mut trace))?;
        traced_boot_s = secs(t);
        warm_logs.push(warm(s.addr(), &mix)?);
        s
    } else {
        server
    };

    let before = server.stats();
    let mix_start = Instant::now();
    let logs = run_mix(server.addr(), &mix, opts.mix_seed, opts.seconds);
    let after = server.stats();
    server.shutdown();
    server.wait();
    let delta = stats_delta(before, after);

    // End-to-end figures over the timed window.
    let entries = || logs.iter().flatten();
    let lat_ms: Vec<f64> = entries()
        .map(|e| (e.end - e.start).as_secs_f64() * 1e3)
        .collect();
    let suggest_ms: Vec<f64> = entries()
        .filter(|e| e.kind == Kind::Suggest)
        .map(|e| (e.end - e.start).as_secs_f64() * 1e3)
        .collect();
    let blocks: Vec<f64> = logs
        .iter()
        .flat_map(|l| {
            l[1.min(l.len())..]
                .chunks_exact(BLOCK)
                .map(|c| (c[BLOCK - 1].end - c[0].start).as_secs_f64())
                .collect::<Vec<_>>()
        })
        .collect();

    // Every reply, warm-up included, against the direct library calls.
    let verify_start = Instant::now();
    let (reference, digest) = run_study(STUDY_PACKAGES, opts.corpus_seed, &store, true)?;
    if digest != built.digest {
        eprintln!(
            "serve_mix: reference study digest {digest:#018x} != set-up {:#018x}",
            built.digest
        );
    }
    report.tally.record(digest == built.digest);
    let index = Arc::new(MetricsIndex::build(reference.data()));
    let pong = Response::Pong {
        fingerprint: snapshot_fingerprint(&reference),
        generation: 0,
        packages: reference.data().packages.len() as u32,
    };
    let verified: Vec<Verified> = std::thread::scope(|s| {
        let handles: Vec<_> = logs
            .iter()
            .chain(&warm_logs)
            .map(|log| {
                let (data, index, pong) = (reference.data(), &index, &pong);
                s.spawn(move || verify_log(log, data, index, pong))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verify thread panicked"))
            .collect()
    });
    for v in &verified {
        report.tally.merge(v.tally);
    }
    println!(
        "checked {} replies against direct calls in {:.2} s; {} requests in the window, {} suggests",
        report.tally.attempted,
        secs(verify_start),
        lat_ms.len(),
        suggest_ms.len()
    );

    let run_s = median(&blocks).unwrap_or(f64::NAN);
    if !opts.trace {
        report.set("setup_s", setup_s);
        report.set("run_s", run_s);
        let completed = entries().map(|e| {
            let ok = matches!(&e.reply, Ok(r) if !matches!(r, Response::Err { .. }));
            (e.start, e.end, ok)
        });
        report.set("qps", closed_loop_qps(completed));
        report.set("p50_ms", median(&lat_ms).unwrap_or(f64::NAN));
        report.set("suggest_p50_ms", median(&suggest_ms).unwrap_or(f64::NAN));
        print_tail(&lat_ms);
        return Ok(());
    }

    // Traced run: layer figures from the boot spans, the daemon's counters,
    // the round trips and the direct compute times measured above.
    println!("traced run");
    let compute: Vec<(Kind, f64)> = verified[..logs.len()]
        .iter()
        .flat_map(|v| v.compute.iter().copied())
        .collect();
    let compute_of = |k: Kind| {
        median(
            &compute
                .iter()
                .filter(|c| c.0 == k)
                .map(|c| c.1)
                .collect::<Vec<_>>(),
        )
    };
    let first = entries().map(|e| e.start).min().unwrap_or(mix_start);
    let last = entries().map(|e| e.end).max().unwrap_or(mix_start);
    let mix_span = trace.push("serve.mix", first, last, None);
    for e in entries() {
        trace.push(e.kind.wire_metric(), e.start, e.end, Some(mix_span));
    }
    for (k, _) in SHARES {
        let rtt: Vec<f64> = entries()
            .filter(|e| e.kind == k)
            .map(|e| (e.end - e.start).as_secs_f64())
            .collect();
        let direct = if k.computed() {
            compute_of(k).unwrap_or(0.0)
        } else {
            0.0
        };
        report.set(
            k.wire_metric(),
            (median(&rtt).unwrap_or(0.0) - direct) * 1e6,
        );
    }
    report.set(
        "metrics.importance_us",
        compute_of(Kind::Importance).unwrap_or(0.0) * 1e6,
    );
    let completeness: Vec<f64> = compute
        .iter()
        .filter(|c| matches!(c.0, Kind::CompletenessHot | Kind::CompletenessFresh))
        .map(|c| c.1)
        .collect();
    report.set(
        "metrics.completeness_us",
        median(&completeness).unwrap_or(0.0) * 1e6,
    );
    report.set(
        "planner.suggest_ms",
        compute_of(Kind::Suggest).unwrap_or(0.0) * 1e3,
    );
    report.set(
        "engine.session_us",
        compute_of(Kind::Session).unwrap_or(0.0) * 1e6,
    );
    report.set("serve.cache_hits", delta.cache_hits as f64);
    report.set("serve.cache_misses", delta.cache_misses as f64);
    let pure = (delta.cache_hits + delta.cache_misses).max(1);
    report.set(
        "serve.cache_hit_ratio",
        delta.cache_hits as f64 / pure as f64,
    );
    report.set("serve.rejected_busy", delta.rejected_busy as f64);
    report.set("serve.io_errors", delta.io_errors as f64);
    report.set("serve.deadline_closed", delta.deadline_closed as f64);
    proto_costs(&logs, report);
    // The boot's study load, rebuilt from public calls.
    trace_store_read(
        opts,
        &mut trace,
        report,
        "serve.boot_layers",
        &store,
        built.digest,
    );
    report.set("serve.seal_s", trace.total("serve.seal").as_secs_f64());
    report.set("trace.overhead_s", traced_boot_s - boot_s);
    finish_trace(opts, &trace)
}

/// Mean cost of `Request::encode` and `Response::decode` over the mix's
/// own requests and replies, each timed over the whole set at once
/// because one call is close to the clock's resolution.
fn proto_costs(logs: &[Vec<Entry>], report: &mut Report) {
    let reqs: Vec<&Request> = logs.iter().flatten().map(|e| &e.req).collect();
    let payloads: Vec<Vec<u8>> = logs
        .iter()
        .flatten()
        .filter_map(|e| e.reply.as_ref().ok().map(Response::encode))
        .collect();
    let t = Instant::now();
    let bytes: usize = reqs
        .iter()
        .map(|r| std::hint::black_box(r.encode()).len())
        .sum();
    report.set("proto.encode_us", secs(t) * 1e6 / reqs.len().max(1) as f64);
    let t = Instant::now();
    let decoded = payloads
        .iter()
        .filter(|p| Response::decode(std::hint::black_box(p)).is_some())
        .count();
    report.set(
        "proto.decode_us",
        secs(t) * 1e6 / payloads.len().max(1) as f64,
    );
    println!(
        "  encoded {} requests ({bytes} bytes), decoded {decoded} replies",
        reqs.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use apistudy_core::ErrorCode;

    #[test]
    fn refused_errored_and_mismatched_replies_are_failures() {
        let want = Response::Completeness {
            bits: 0.5f64.to_bits(),
        };
        let mut tally = Tally::default();
        let replies = [
            Ok(want.clone()),
            Ok(Response::err(ErrorCode::Busy, "admission cap")),
            Ok(Response::err(ErrorCode::Deadline, "too slow")),
            Ok(Response::Completeness {
                bits: 0.5000001f64.to_bits(),
            }),
            Err("connection reset".to_owned()),
        ];
        for r in &replies {
            tally.record(reply_ok(r, &want));
        }
        assert_eq!(
            tally,
            Tally {
                attempted: 5,
                failed: 4
            }
        );
        assert_eq!(tally.error_rate(), 0.8);
    }

    #[test]
    fn the_mix_is_seeded_and_opens_the_session_first() {
        let mix = Mix::new(7);
        assert_eq!(mix.hot.len(), HOT_SETS);
        let draw = |seed: u64| {
            let mut stream = Stream::new(&mix, seed);
            let mut open = false;
            (0..=2 * BLOCK)
                .map(|_| {
                    let (k, r) = stream.next(open);
                    open = true;
                    (k, r)
                })
                .collect::<Vec<_>>()
        };
        let a = draw(1);
        assert_eq!(a, draw(1));
        assert_ne!(a, draw(2));
        assert!(matches!(a[0].1, Request::SessionOpen { .. }));
        // After the opening request, each block holds the exact shares.
        for block in a[1..].chunks_exact(BLOCK) {
            for (kind, n) in SHARES {
                assert_eq!(
                    block.iter().filter(|(k, _)| *k == kind).count(),
                    n,
                    "{kind:?}"
                );
            }
        }
        let Request::Completeness { supported } = &a
            .iter()
            .find(|(k, _)| *k == Kind::CompletenessFresh)
            .unwrap()
            .1
        else {
            panic!("fresh completeness request expected");
        };
        let frac = supported.len() as f64 / mix.syscalls.len() as f64;
        assert!((0.5..0.7).contains(&frac), "fresh set supports {frac}");
    }
}
