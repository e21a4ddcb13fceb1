//! The load generator: open- and closed-loop phases over a fixed
//! number of persistent connections, each on its own thread.
//!
//! Open loop: every request has a *due* time fixed in advance; a
//! generator thread sleeps until it is due, sends it, and waits for the
//! answer, and its latency runs from the due time — so a stall also
//! charges the wait it imposes on the requests queued behind it. How
//! late each send left is recorded too (`gen.late_*`). Closed loop: each
//! connection sends its next request as soon as the previous one is
//! answered. A phase may run in slices, joined with [`Phase::absorb`].
//!
//! Every OK answer is checked on the spot: the deterministic `"result"`
//! object must be byte-identical to the first answer seen for the same
//! spec, and the allocation must use exactly the requested budgets.

use crate::affinity::Split;
use crate::json::Json;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use uic_serve::{Client, Response};
use uic_util::UicRng;

/// Per-connection socket deadline during load.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One distinct request of a workload's mix.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The request line sent to the server.
    pub text: String,
    /// The budgets it asks for (checked against `budgets_used`).
    pub budgets: Vec<u32>,
    /// Whether it is a write (a request that may grow or rebuild arenas)
    /// rather than a read of already-warm state.
    pub write: bool,
}

/// One answered (or failed) request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the spec list.
    pub spec: u32,
    /// When it was due (open loop) or sent (closed loop), ns since the
    /// phase start.
    pub due_ns: u64,
    /// When it was sent, ns since the phase start.
    pub sent_ns: u64,
    /// When its answer arrived, ns since the phase start.
    pub done_ns: u64,
    /// How it ended.
    pub outcome: Outcome,
    /// The envelope's `elapsed_us` (server-side handling time).
    pub server_us: u64,
}

impl Sample {
    /// Latency from the due time, in ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e6
    }

    /// How late the send left, in µs.
    pub fn late_us(&self) -> f64 {
        (self.sent_ns - self.due_ns) as f64 / 1e3
    }
}

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// OK answer that passed the output checks.
    Ok,
    /// `overloaded` refusal at admission.
    Refused,
    /// Error frame or transport failure.
    Failed,
    /// OK answer whose bytes or budgets were wrong.
    Wrong,
}

/// The first `"result"` bytes seen per spec, plus every check failure.
#[derive(Debug, Default, Clone)]
pub struct ResultBook {
    first: HashMap<u32, String>,
    /// Human-readable descriptions of failed output checks.
    pub problems: Vec<String>,
}

impl ResultBook {
    /// Checks one OK payload for spec `spec`; returns false when it is
    /// wrong.
    pub fn check(&mut self, spec: u32, specs: &[Spec], payload: &str) -> bool {
        let Some(result) = result_of(payload) else {
            self.problem(format!(
                "malformed envelope for `{}`",
                specs[spec as usize].text
            ));
            return false;
        };
        match self.first.get(&spec) {
            Some(seen) if seen == result => true,
            Some(_) => {
                self.problem(format!(
                    "answers for `{}` differ within a run",
                    specs[spec as usize].text
                ));
                false
            }
            None => {
                let ok = check_budgets(result, &specs[spec as usize].budgets)
                    .map_err(|e| self.problem(format!("`{}`: {e}", specs[spec as usize].text)))
                    .is_ok();
                self.first.insert(spec, result.to_string());
                ok
            }
        }
    }

    /// Folds another book in, comparing answers both saw.
    pub fn merge(&mut self, other: ResultBook, specs: &[Spec]) {
        self.problems.extend(other.problems);
        for (spec, result) in other.first {
            match self.first.get(&spec) {
                Some(seen) if *seen != result => self.problems.push(format!(
                    "answers for `{}` differ within a run",
                    specs[spec as usize].text
                )),
                Some(_) => {}
                None => {
                    self.first.insert(spec, result);
                }
            }
        }
    }

    /// The `"result"` bytes recorded for `spec`, if any answer arrived.
    pub fn result(&self, spec: u32) -> Option<&str> {
        self.first.get(&spec).map(String::as_str)
    }

    fn problem(&mut self, p: String) {
        // One line per distinct problem keeps a broken run readable.
        if self.problems.len() < 32 && !self.problems.contains(&p) {
            self.problems.push(p);
        }
    }
}

/// The `"result"` object of an OK envelope `{"result":…,"server":…}`.
pub fn result_of(payload: &str) -> Option<&str> {
    let rest = payload.strip_prefix("{\"result\":")?;
    let end = rest.find(",\"server\":")?;
    Some(&rest[..end])
}

/// Checks that a result's `budgets_used` equals the requested budgets.
pub fn check_budgets(result: &str, budgets: &[u32]) -> Result<(), String> {
    let v = Json::parse(result)?;
    let used: Vec<f64> = v
        .get("budgets_used")
        .and_then(Json::as_array)
        .ok_or("no budgets_used")?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    let want: Vec<f64> = budgets.iter().map(|&b| b as f64).collect();
    if used == want {
        Ok(())
    } else {
        Err(format!("budgets_used {used:?} != requested {want:?}"))
    }
}

/// The integer `"key":N` in a payload (the envelope's field order is
/// fixed, so no full parse is needed on the hot path).
fn field_u64(payload: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    payload
        .rfind(&needle)
        .map(|at| {
            payload[at + needle.len()..]
                .bytes()
                .take_while(u8::is_ascii_digit)
                .fold(0u64, |acc, d| acc * 10 + u64::from(d - b'0'))
        })
        .unwrap_or(0)
}

/// What one load phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Every request, in no particular order.
    pub samples: Vec<Sample>,
    /// Output checks over the phase's answers.
    pub book: ResultBook,
    /// Wall time from the phase start to its last answer, summed over
    /// its slices.
    pub elapsed: Duration,
}

impl Phase {
    /// Requests that ended `outcome`.
    pub fn count(&self, outcome: Outcome) -> u64 {
        self.samples.iter().filter(|s| s.outcome == outcome).count() as u64
    }

    /// Answers per second over the phase.
    pub fn throughput(&self) -> f64 {
        self.count(Outcome::Ok) as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Appends a later slice of the same phase: its requests, with their
    /// times moved `offset_ns` later, its answers and its wall time.
    pub fn absorb(&mut self, slice: Phase, offset_ns: u64, specs: &[Spec]) {
        self.samples
            .extend(slice.samples.into_iter().map(|s| Sample {
                due_ns: s.due_ns + offset_ns,
                sent_ns: s.sent_ns + offset_ns,
                done_ns: s.done_ns + offset_ns,
                ..s
            }));
        self.book.merge(slice.book, specs);
        self.elapsed += slice.elapsed;
    }
}

/// One closed-loop connection's request stream: its seeded generator and
/// the index of its next request, kept across the slices of a phase so
/// that the mix continues where the previous slice stopped.
pub struct Stream {
    rng: UicRng,
    next: u64,
}

impl Stream {
    /// Stream `c` of a phase seeded with `seed`.
    pub fn new(seed: u64, c: u64) -> Stream {
        Stream {
            rng: UicRng::new_stream(seed, c),
            next: 0,
        }
    }
}

/// Lowers this thread's timer slack to 1 ns so `sleep` wakes when asked.
/// The default 50 µs slack would otherwise add up to 50 µs of send
/// lateness to every open-loop request — a third of a warm query's
/// latency.
fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        use std::os::raw::{c_int, c_ulong};
        const PR_SET_TIMERSLACK: c_int = 29;
        extern "C" {
            fn prctl(option: c_int, ...) -> c_int;
        }
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
        // changes only the calling thread's timer slack; it touches no
        // memory of this process.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
        }
    }
}

/// A connection that reconnects after a transport failure.
struct Conn<'a> {
    addr: &'a str,
    client: Option<Client>,
}

impl<'a> Conn<'a> {
    /// Connects and answers one `ping`, so the connection is admitted
    /// and bound to a worker before any timed request — the server's
    /// accept loop polls, and a first connect can wait a poll interval.
    fn open(addr: &'a str) -> Result<Conn<'a>, String> {
        let mut conn = Conn { addr, client: None };
        match conn.send("ping")? {
            Response::Ok(_) => Ok(conn),
            Response::Err(p) => Err(format!("ping answered {p}")),
        }
    }

    fn send(&mut self, text: &str) -> Result<Response, String> {
        if self.client.is_none() {
            self.client = Some(
                Client::connect_timeout(self.addr, IO_TIMEOUT)
                    .map_err(|e| format!("connect: {e}"))?,
            );
        }
        let out = self
            .client
            .as_mut()
            .expect("connected above")
            .request(text)
            .map_err(|e| e.to_string());
        if !matches!(out, Ok(Response::Ok(_))) {
            // Refusals and failures close the connection server-side.
            self.client = None;
        }
        out
    }
}

/// Sends `text` and classifies the answer into a sample.
fn exchange(
    conn: &mut Conn<'_>,
    specs: &[Spec],
    spec: u32,
    t0: Instant,
    due_ns: u64,
    book: &mut ResultBook,
) -> Sample {
    let sent_ns = t0.elapsed().as_nanos() as u64;
    let answer = conn.send(&specs[spec as usize].text);
    let done_ns = t0.elapsed().as_nanos() as u64;
    let mut sample = Sample {
        spec,
        due_ns,
        sent_ns,
        done_ns,
        outcome: Outcome::Failed,
        server_us: 0,
    };
    match answer {
        Ok(Response::Ok(p)) => {
            sample.server_us = field_u64(&p, "elapsed_us");
            sample.outcome = if book.check(spec, specs, &p) {
                Outcome::Ok
            } else {
                Outcome::Wrong
            };
        }
        Ok(r) if r.is_overloaded() => sample.outcome = Outcome::Refused,
        Ok(r) => book.problem(format!(
            "`{}` answered {}",
            specs[spec as usize].text,
            r.payload()
        )),
        Err(e) => book.problem(format!("`{}`: {e}", specs[spec as usize].text)),
    }
    sample
}

/// The request mix of a workload: the spec of request `i` of a stream,
/// drawn with that stream's seeded generator.
pub type Mix = Box<dyn Fn(u64, &mut UicRng) -> u32 + Sync>;

/// Where a phase sends its requests, and from which CPUs.
#[derive(Clone, Copy)]
pub struct Target<'a> {
    /// The server's `host:port`.
    pub addr: &'a str,
    /// The workload's distinct requests.
    pub specs: &'a [Spec],
    /// Connections, one generator thread each.
    pub conns: usize,
    /// The generator's CPUs, when the harness separates them from the
    /// server's.
    pub split: Option<&'a Split>,
}

impl Target<'_> {
    fn open(&self) -> Result<Vec<Conn<'_>>, String> {
        (0..self.conns).map(|_| Conn::open(self.addr)).collect()
    }

    fn start_thread(&self) {
        if let Some(split) = self.split {
            split.pin_generator();
        }
    }
}

/// Runs `schedule` — `(due ns after the phase start, spec)` in due
/// order — open-loop; request `i` goes to connection `i % conns`.
pub fn open_loop(target: Target<'_>, schedule: &[(u64, u32)]) -> Result<Phase, String> {
    let opened = target.open()?;
    let (specs, conns) = (target.specs, target.conns);
    let t0 = Instant::now() + Duration::from_millis(5);
    let results: Vec<(Vec<Sample>, ResultBook)> = std::thread::scope(|scope| {
        let handles: Vec<_> = opened
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                scope.spawn(move || {
                    target.start_thread();
                    tighten_timer_slack();
                    let mut book = ResultBook::default();
                    let mut out = Vec::new();
                    for &(due_ns, spec) in schedule.iter().skip(c).step_by(conns) {
                        let due = t0 + Duration::from_nanos(due_ns);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        out.push(exchange(&mut conn, specs, spec, t0, due_ns, &mut book));
                    }
                    (out, book)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    Ok(collect(results, specs))
}

/// Runs every connection back-to-back for `duration`, connection `c`
/// drawing its requests from `mix` with `streams[c]`.
pub fn closed_loop(
    target: Target<'_>,
    mix: &(dyn Fn(u64, &mut UicRng) -> u32 + Sync),
    streams: &mut [Stream],
    duration: Duration,
) -> Result<Phase, String> {
    let opened = target.open()?;
    let specs = target.specs;
    let t0 = Instant::now();
    let results: Vec<(Vec<Sample>, ResultBook)> = std::thread::scope(|scope| {
        let handles: Vec<_> = opened
            .into_iter()
            .zip(streams.iter_mut())
            .map(|(mut conn, stream)| {
                scope.spawn(move || {
                    target.start_thread();
                    let mut book = ResultBook::default();
                    let mut out = Vec::new();
                    while t0.elapsed() < duration {
                        let spec = mix(stream.next, &mut stream.rng);
                        stream.next += 1;
                        let due_ns = t0.elapsed().as_nanos() as u64;
                        out.push(exchange(&mut conn, specs, spec, t0, due_ns, &mut book));
                    }
                    (out, book)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    Ok(collect(results, specs))
}

fn collect(results: Vec<(Vec<Sample>, ResultBook)>, specs: &[Spec]) -> Phase {
    let mut phase = Phase::default();
    for (samples, book) in results {
        phase.samples.extend(samples);
        phase.book.merge(book, specs);
    }
    let last = phase.samples.iter().map(|s| s.done_ns).max().unwrap_or(0);
    let first = phase.samples.iter().map(|s| s.due_ns).min().unwrap_or(0);
    phase.elapsed = Duration::from_nanos(last.saturating_sub(first));
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_fields_and_result_bytes_are_extracted() {
        let p = r#"{"result":{"algorithm":"warm-grd","budgets_used":[3,2]},"server":{"elapsed_us":41,"selection_us":4,"topup_us":0,"scoring_us":0,"rr_topup":0,"arena_sets":512}}"#;
        assert_eq!(
            result_of(p),
            Some(r#"{"algorithm":"warm-grd","budgets_used":[3,2]}"#)
        );
        assert_eq!(field_u64(p, "elapsed_us"), 41);
        assert_eq!(field_u64(p, "arena_sets"), 512);
        assert!(check_budgets(result_of(p).unwrap(), &[3, 2]).is_ok());
        assert!(check_budgets(result_of(p).unwrap(), &[3, 3]).is_err());
    }

    #[test]
    fn the_book_flags_differing_answers() {
        let specs = vec![Spec {
            text: "warm-grd budgets=1".into(),
            budgets: vec![1],
            write: false,
        }];
        let a = r#"{"result":{"budgets_used":[1],"x":1},"server":{}}"#;
        let b = r#"{"result":{"budgets_used":[1],"x":2},"server":{}}"#;
        let mut book = ResultBook::default();
        assert!(book.check(0, &specs, a));
        assert!(book.check(0, &specs, a));
        assert!(!book.check(0, &specs, b));
        let mut other = ResultBook::default();
        other.check(0, &specs, b);
        let mut merged = ResultBook::default();
        merged.check(0, &specs, a);
        merged.merge(other, &specs);
        assert!(!merged.problems.is_empty());
    }
}
