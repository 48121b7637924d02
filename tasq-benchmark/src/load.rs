//! Load generation: the seeded traffic mix, the closed-loop and open-loop
//! drivers for the in-process server and for the wire, and the tally of
//! what came back.

use crate::stats::{SeededRng, Zipf};
use crate::sut::{
    self, parse_response_frame, write_request_frame, FrameResponse, FrameResponseParse, Job,
    NetServer, ScoreResponse, ScoringServer, ScoringService, ServedVia, ServerStatsSnapshot,
    SutError, Ticket,
};
use crate::trace::{Recorder, SpanId};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Every how many requests an answer is kept for the oracle comparison.
pub const ORACLE_EVERY: u64 = 64;

// ---------------------------------------------------------------------
// Traffic.
// ---------------------------------------------------------------------

/// A seeded request stream: ad-hoc requests (a plan shape from the pool
/// under a never-sent `Job::seed`, hence a never-seen signature) mixed
/// with Zipf-popular resubmissions of recurring plans.
pub struct Mix {
    adhoc_pool: Vec<Job>,
    recurring: Vec<Job>,
    popularity: Option<Zipf>,
    adhoc_share: f64,
    rng: SeededRng,
    issued: u64,
    seed: u64,
}

impl Mix {
    /// All requests ad-hoc over `pool`.
    pub fn adhoc(pool: Vec<Job>, seed: u64) -> Self {
        Self::mixed(pool, Vec::new(), 1.0, seed)
    }

    /// `adhoc_share` of requests ad-hoc over `pool`, the rest
    /// Zipf(1.0)-distributed over `recurring`.
    pub fn mixed(pool: Vec<Job>, recurring: Vec<Job>, adhoc_share: f64, seed: u64) -> Self {
        let popularity = (!recurring.is_empty()).then(|| Zipf::new(recurring.len(), 1.0));
        Self {
            adhoc_pool: pool,
            recurring,
            popularity,
            adhoc_share,
            rng: SeededRng::new(seed, 1),
            issued: 0,
            seed,
        }
    }

    /// The next request; its `id` is its position in the stream.
    pub fn next_job(&mut self) -> Job {
        let id = self.issued;
        self.issued += 1;
        let adhoc = match &self.popularity {
            Some(_) => self.rng.next_f64() < self.adhoc_share,
            None => true,
        };
        let mut job = match (&self.popularity, adhoc) {
            (Some(zipf), false) => self.recurring[zipf.sample(&mut self.rng)].clone(),
            _ => {
                let mut job = self.adhoc_pool[self.rng.below(self.adhoc_pool.len())].clone();
                // A fresh execution seed makes a signature no request has
                // carried before, with the plan shape unchanged.
                job.seed = SeededRng::new(self.seed, 0x5eed_0000 + id).next_u64();
                job
            }
        };
        job.id = id;
        job
    }

    /// A request that repeats `job` exactly (same signature), under a
    /// new id.
    pub fn resubmit(&mut self, job: &Job) -> Job {
        let mut again = job.clone();
        again.id = self.issued;
        self.issued += 1;
        again
    }
}

// ---------------------------------------------------------------------
// Tally.
// ---------------------------------------------------------------------

/// What happened to the requests of a run.
#[derive(Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests refused, lost, timed out, failed in transport, or shed
    /// to the analytic tier.
    pub failed: u64,
    /// Answers that broke an invariant: a grant above the request, a
    /// response out of order on its connection, or (after
    /// [`Tally::verify`]) a mismatch with the oracle.
    pub wrong: u64,
    /// Answers compared with the oracle so far.
    pub verified: u64,
    samples: Vec<(Job, ScoreResponse)>,
}

impl Tally {
    /// Whether request number `id` is one whose answer is kept.
    pub fn samples(id: u64) -> bool {
        id.is_multiple_of(ORACLE_EVERY)
    }

    fn answered(
        &mut self,
        requested_tokens: u32,
        response: ScoreResponse,
        shed: bool,
        sample: Option<Job>,
    ) {
        if shed {
            // Answered by the analytic tier: degraded, and not comparable
            // with the model's answer.
            self.failed += 1;
            return;
        }
        if sut::granted_tokens(&response).is_some_and(|tokens| tokens > requested_tokens.max(1)) {
            self.wrong += 1;
        }
        if let Some(job) = sample {
            self.samples.push((job, response));
        }
    }

    /// Fold another tally (the collector thread's) into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.verified += other.verified;
        self.samples.extend(other.samples);
    }

    /// Compare every kept answer, bit for bit apart from the job id, with
    /// a direct score of the same job. A shed answer comes from another
    /// tier and is already counted as failed, so only served-by-model and
    /// cached answers can match.
    pub fn verify(&mut self, oracle: &ScoringService) {
        for (job, response) in self.samples.drain(..) {
            self.verified += 1;
            if !sut::same_answer(&oracle.score(&job), &response) {
                self.wrong += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Phases.
// ---------------------------------------------------------------------

/// When a closed-loop phase stops issuing requests.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this long.
    Elapsed(Duration),
    /// After this many requests.
    Requests(u64),
}

impl Until {
    /// Whether a phase that began at `start` and has issued `issued`
    /// requests should issue another.
    fn more(self, start: Instant, issued: u64) -> bool {
        match self {
            Until::Elapsed(limit) => start.elapsed() < limit,
            Until::Requests(n) => issued < n,
        }
    }
}

/// Result of a closed-loop phase.
#[derive(Debug, Clone, Copy)]
pub struct Burst {
    /// Requests answered OK.
    pub ok: u64,
    /// Wall time from the first submit to the last answer.
    pub wall: Duration,
}

impl Burst {
    /// Answered-OK requests per second.
    pub fn rate(&self) -> f64 {
        self.ok as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Result of an open-loop window.
#[derive(Debug, Default)]
pub struct Window {
    /// Intended send instant to observed completion, per answered request.
    pub latency_ns: Vec<u64>,
    /// How late after its intended instant each request was sent.
    pub late_ns: Vec<u64>,
}

impl Window {
    /// The latencies in microseconds.
    pub fn latency_us(&self) -> Vec<f64> {
        self.latency_ns.iter().map(|&ns| ns as f64 / 1e3).collect()
    }

    /// The generator's lateness in microseconds.
    pub fn late_us(&self) -> Vec<f64> {
        self.late_ns.iter().map(|&ns| ns as f64 / 1e3).collect()
    }
}

/// A way to put requests to the server and get answers back.
pub trait Driver {
    /// Closed loop from this thread with at most `depth` requests
    /// outstanding. When `hop_ns` is given, each request's
    /// send-to-answer time is appended to it.
    fn closed_loop(
        &mut self,
        mix: &mut Mix,
        depth: usize,
        until: Until,
        tally: &mut Tally,
        recorder: &mut Recorder,
        hop_ns: Option<&mut Vec<u64>>,
    ) -> Result<Burst, SutError>;

    /// Open loop: request `i` is due `schedule_ns[i]` after the call, is
    /// sent then or as soon after as the generator can, and is timed
    /// from when it was due.
    fn open_loop(
        &mut self,
        mix: &mut Mix,
        schedule_ns: &[u64],
        tally: &mut Tally,
    ) -> Result<Window, SutError>;

    /// The server itself, where the driver shares a process with it and
    /// holds it directly.
    fn server(&self) -> Option<&ScoringServer> {
        None
    }

    /// Stop the server and return its final statistics.
    fn finish(self: Box<Self>) -> ServerStatsSnapshot;
}

/// Wait for `due`: sleep while it is far, then yield the processor in a
/// loop. Yielding (not spinning) leaves the core to the server's threads
/// whenever they have work.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let ahead = due - now;
        if ahead > Duration::from_micros(150) {
            std::thread::sleep(ahead - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Pace an open loop: for each scheduled offset, `prepare` the request
/// ahead of time, wait until it is due, and `send` it with its due
/// instant. Returns how late each send began. A generator that falls
/// behind sends the backlog at once and the lateness shows here; timing
/// each request from its due instant carries the same delay into its
/// latency, so a stall of the generator is never hidden.
fn pace<T>(
    schedule_ns: &[u64],
    mut prepare: impl FnMut() -> T,
    mut send: impl FnMut(Instant, T),
) -> Vec<u64> {
    let mut late_ns = Vec::with_capacity(schedule_ns.len());
    let start = Instant::now();
    for &offset in schedule_ns {
        let due = start + Duration::from_nanos(offset);
        let request = prepare();
        wait_until(due);
        late_ns.push(due.elapsed().as_nanos() as u64);
        send(due, request);
    }
    late_ns
}

// ---------------------------------------------------------------------
// In-process driver.
// ---------------------------------------------------------------------

enum ToCollector {
    Request {
        ticket: Ticket,
        due: Instant,
        requested_tokens: u32,
        sample: Option<Job>,
    },
    EndWindow,
}

/// Drives a [`ScoringServer`] through `submit` / `Ticket::outcome`.
pub struct InProcess {
    server: ScoringServer,
    to_collector: mpsc::Sender<ToCollector>,
    from_collector: mpsc::Receiver<(Vec<u64>, Tally)>,
    collector: std::thread::JoinHandle<()>,
}

impl InProcess {
    /// Wrap a started server. The open loop needs a second thread: the
    /// generator must keep to its schedule while tickets are waited on.
    pub fn new(server: ScoringServer) -> Self {
        let (to_collector, requests) = mpsc::channel();
        let (reports, from_collector) = mpsc::channel();
        let collector = std::thread::spawn(move || collect(&requests, &reports));
        Self {
            server,
            to_collector,
            from_collector,
            collector,
        }
    }
}

/// The collector thread: waits on tickets in submission order and stamps
/// each completion.
fn collect(requests: &mpsc::Receiver<ToCollector>, reports: &mpsc::Sender<(Vec<u64>, Tally)>) {
    let mut latency_ns = Vec::new();
    let mut tally = Tally::default();
    for message in requests {
        match message {
            ToCollector::Request {
                ticket,
                due,
                requested_tokens,
                sample,
            } => match ticket.outcome() {
                Ok(served) => {
                    latency_ns.push(due.elapsed().as_nanos() as u64);
                    tally.answered(
                        requested_tokens,
                        served.response,
                        served.via == ServedVia::Shed,
                        sample,
                    );
                }
                Err(_) => tally.failed += 1,
            },
            ToCollector::EndWindow => {
                let report = (std::mem::take(&mut latency_ns), std::mem::take(&mut tally));
                if reports.send(report).is_err() {
                    return;
                }
            }
        }
    }
}

impl Driver for InProcess {
    fn closed_loop(
        &mut self,
        mix: &mut Mix,
        depth: usize,
        until: Until,
        tally: &mut Tally,
        recorder: &mut Recorder,
        mut hop_ns: Option<&mut Vec<u64>>,
    ) -> Result<Burst, SutError> {
        struct Outstanding {
            ticket: Ticket,
            sent: Instant,
            requested_tokens: u32,
            sample: Option<Job>,
            span: SpanId,
        }
        let mut window: VecDeque<Outstanding> = VecDeque::with_capacity(depth);
        let mut ok = 0u64;
        let mut settle = |o: Outstanding, tally: &mut Tally, recorder: &mut Recorder| {
            let wait = recorder.open("serve.ticket_outcome", o.span, 0);
            let outcome = o.ticket.outcome();
            recorder.close(wait);
            recorder.close(o.span);
            if let Some(hops) = hop_ns.as_deref_mut() {
                hops.push(o.sent.elapsed().as_nanos() as u64);
            }
            match outcome {
                Ok(served) => {
                    ok += 1;
                    tally.answered(
                        o.requested_tokens,
                        served.response,
                        served.via == ServedVia::Shed,
                        o.sample,
                    );
                }
                Err(_) => tally.failed += 1,
            }
        };
        let start = Instant::now();
        let mut issued = 0u64;
        while until.more(start, issued) {
            if window.len() >= depth {
                if let Some(oldest) = window.pop_front() {
                    settle(oldest, tally, recorder);
                }
            }
            let job = mix.next_job();
            let id = job.id;
            let requested_tokens = job.requested_tokens;
            let sample = Tally::samples(id).then(|| job.clone());
            tally.attempted += 1;
            issued += 1;
            let span = recorder.open("request", 0, id);
            let submit = recorder.open("serve.submit", span, id);
            let sent = Instant::now();
            let submitted = self.server.submit(job);
            recorder.close(submit);
            match submitted {
                Ok(ticket) => window.push_back(Outstanding {
                    ticket,
                    sent,
                    requested_tokens,
                    sample,
                    span,
                }),
                Err(_) => {
                    recorder.close(span);
                    tally.failed += 1;
                }
            }
        }
        for outstanding in window {
            settle(outstanding, tally, recorder);
        }
        Ok(Burst {
            ok,
            wall: start.elapsed(),
        })
    }

    fn open_loop(
        &mut self,
        mix: &mut Mix,
        schedule_ns: &[u64],
        tally: &mut Tally,
    ) -> Result<Window, SutError> {
        let mut sent = Ok(());
        let late_ns = pace(
            schedule_ns,
            || {
                let job = mix.next_job();
                let sample = Tally::samples(job.id).then(|| job.clone());
                (job, sample)
            },
            |due, (job, sample)| {
                let requested_tokens = job.requested_tokens;
                tally.attempted += 1;
                match self.server.submit(job) {
                    Ok(ticket) => {
                        let request = ToCollector::Request {
                            ticket,
                            due,
                            requested_tokens,
                            sample,
                        };
                        if self.to_collector.send(request).is_err() {
                            sent = Err("collector thread is gone");
                        }
                    }
                    Err(_) => tally.failed += 1,
                }
            },
        );
        sent?;
        self.to_collector
            .send(ToCollector::EndWindow)
            .map_err(|_| "collector thread is gone")?;
        let (latency_ns, collected) = self
            .from_collector
            .recv()
            .map_err(|_| "collector thread is gone")?;
        tally.merge(collected);
        Ok(Window {
            latency_ns,
            late_ns,
        })
    }

    fn server(&self) -> Option<&ScoringServer> {
        Some(&self.server)
    }

    fn finish(self: Box<Self>) -> ServerStatsSnapshot {
        drop(self.to_collector);
        if self.collector.join().is_err() {
            eprintln!("tasq-benchmark: collector thread panicked");
        }
        self.server.drain()
    }
}

// ---------------------------------------------------------------------
// Wire driver.
// ---------------------------------------------------------------------

/// Loopback connections of the wire driver, and requests outstanding on
/// each in the closed loop (the in-process loop keeps 64 outstanding
/// from one thread; 2 x 16 is what one non-blocking thread sustains
/// without the sockets' buffers becoming the queue).
pub const WIRE_CONNECTIONS: usize = 2;
/// Closed-loop depth per connection.
pub const WIRE_DEPTH: usize = 16;

struct Pending {
    id: u64,
    sent: Instant,
    requested_tokens: u32,
    sample: Option<Job>,
    span: SpanId,
}

struct Connection {
    stream: TcpStream,
    outgoing: Vec<u8>,
    written: usize,
    incoming: Vec<u8>,
    parsed: usize,
    pending: VecDeque<Pending>,
}

/// What the wire driver hands each completed request to.
struct Completed<'a> {
    tally: &'a mut Tally,
    recorder: &'a mut Recorder,
    elapsed_ns: Option<&'a mut Vec<u64>>,
    ok: u64,
}

impl Connection {
    fn open(address: &str) -> Result<Self, SutError> {
        let mut stream = TcpStream::connect(address)?;
        stream.set_nodelay(true)?;
        stream.write_all(&[sut::BINARY_PREAMBLE])?;
        stream.set_nonblocking(true)?;
        Ok(Self {
            stream,
            outgoing: Vec::new(),
            written: 0,
            incoming: Vec::new(),
            parsed: 0,
            pending: VecDeque::new(),
        })
    }

    fn enqueue(
        &mut self,
        job: Job,
        sent: Instant,
        recorder: &mut Recorder,
    ) -> Result<(), SutError> {
        let span = recorder.open("request", 0, job.id);
        let encode = recorder.open("core.codec.encode+net.frame.write", span, job.id);
        let payload = sut::encode_job(&job)?;
        write_request_frame(&mut self.outgoing, &payload);
        recorder.close(encode);
        self.pending.push_back(Pending {
            id: job.id,
            sent,
            requested_tokens: job.requested_tokens,
            sample: Tally::samples(job.id).then_some(job),
            span,
        });
        Ok(())
    }

    /// Write what is queued, read what has arrived, settle every complete
    /// response. Returns whether any byte moved.
    fn pump(&mut self, done: &mut Completed<'_>) -> Result<bool, SutError> {
        let mut progress = false;
        while self.written < self.outgoing.len() {
            match self.stream.write(&self.outgoing[self.written..]) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    self.written += n;
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        if self.written == self.outgoing.len() {
            self.outgoing.clear();
            self.written = 0;
        }
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    self.incoming.extend_from_slice(&chunk[..n]);
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        loop {
            match parse_response_frame(&self.incoming, self.parsed) {
                FrameResponseParse::NeedMore => break,
                FrameResponseParse::Malformed(why) => {
                    return Err(format!("malformed response frame: {why}").into())
                }
                FrameResponseParse::Complete(response, used) => {
                    self.parsed += used;
                    let pending = self
                        .pending
                        .pop_front()
                        .ok_or("response without a request")?;
                    done.recorder.close(pending.span);
                    if let Some(elapsed) = done.elapsed_ns.as_deref_mut() {
                        elapsed.push(pending.sent.elapsed().as_nanos() as u64);
                    }
                    match response {
                        FrameResponse::Ok(score) => {
                            done.ok += 1;
                            // Responses must come back in request order on
                            // a connection; ids tell.
                            if score.job_id != pending.id {
                                done.tally.wrong += 1;
                            }
                            let shed = sut::from_analytic_tier(&score);
                            done.tally.answered(
                                pending.requested_tokens,
                                score,
                                shed,
                                pending.sample,
                            );
                        }
                        FrameResponse::Error(_) => done.tally.failed += 1,
                    }
                }
            }
        }
        if self.parsed == self.incoming.len() {
            self.incoming.clear();
            self.parsed = 0;
        }
        Ok(progress)
    }
}

/// Drives a [`NetServer`] over loopback with binary framing, from one
/// non-blocking thread.
pub struct Wire {
    net: NetServer,
    connections: Vec<Connection>,
    next_connection: usize,
}

impl Wire {
    /// Connect to a bound front-end.
    pub fn new(net: NetServer) -> Result<Self, SutError> {
        let address = net.local_addr().to_string();
        let connections = (0..WIRE_CONNECTIONS)
            .map(|_| Connection::open(&address))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            net,
            connections,
            next_connection: 0,
        })
    }

    /// `host:port` of the front-end.
    pub fn address(&self) -> String {
        self.net.local_addr().to_string()
    }

    fn pump_all(&mut self, done: &mut Completed<'_>) -> Result<bool, SutError> {
        let mut progress = false;
        for connection in &mut self.connections {
            progress |= connection.pump(done)?;
        }
        Ok(progress)
    }

    fn outstanding(&self) -> usize {
        self.connections.iter().map(|c| c.pending.len()).sum()
    }
}

impl Driver for Wire {
    fn closed_loop(
        &mut self,
        mix: &mut Mix,
        depth: usize,
        until: Until,
        tally: &mut Tally,
        recorder: &mut Recorder,
        hop_ns: Option<&mut Vec<u64>>,
    ) -> Result<Burst, SutError> {
        // `depth` is the total across connections, at least one each.
        let per_connection = (depth / self.connections.len()).max(1);
        let active = depth.min(self.connections.len());
        let mut done = Completed {
            tally,
            recorder,
            elapsed_ns: hop_ns,
            ok: 0,
        };
        let start = Instant::now();
        let mut issued = 0u64;
        loop {
            if until.more(start, issued) {
                for connection in self.connections.iter_mut().take(active) {
                    while connection.pending.len() < per_connection && until.more(start, issued) {
                        done.tally.attempted += 1;
                        issued += 1;
                        connection.enqueue(mix.next_job(), Instant::now(), done.recorder)?;
                    }
                }
            } else if self.outstanding() == 0 {
                break;
            }
            if !self.pump_all(&mut done)? {
                std::thread::yield_now();
            }
        }
        Ok(Burst {
            ok: done.ok,
            wall: start.elapsed(),
        })
    }

    fn open_loop(
        &mut self,
        mix: &mut Mix,
        schedule_ns: &[u64],
        tally: &mut Tally,
    ) -> Result<Window, SutError> {
        let mut window = Window::default();
        let mut recorder = Recorder::new(false);
        let mut done = Completed {
            tally,
            recorder: &mut recorder,
            elapsed_ns: Some(&mut window.latency_ns),
            ok: 0,
        };
        let start = Instant::now();
        let mut next = 0;
        loop {
            while next < schedule_ns.len() {
                let due = start + Duration::from_nanos(schedule_ns[next]);
                let now = Instant::now();
                if now < due {
                    break;
                }
                window.late_ns.push((now - due).as_nanos() as u64);
                done.tally.attempted += 1;
                let connection = self.next_connection;
                self.next_connection = (connection + 1) % self.connections.len();
                // Timed from when it was due, not from when it was sent.
                self.connections[connection].enqueue(mix.next_job(), due, done.recorder)?;
                next += 1;
            }
            if next == schedule_ns.len() && self.outstanding() == 0 {
                break;
            }
            if !self.pump_all(&mut done)? {
                std::thread::yield_now();
            }
        }
        Ok(window)
    }

    fn finish(self: Box<Self>) -> ServerStatsSnapshot {
        drop(self.connections);
        sut::shutdown_net(self.net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::quantile;

    #[test]
    fn a_generator_stall_shows_in_latency_and_in_lateness() {
        // Ten requests 2 ms apart; the generator stalls 50 ms while
        // sending the third. The requests due during the stall are sent
        // late, and because each is timed from its due instant, their
        // latency carries the delay although the "server" (1 ms of
        // service here) never slowed.
        let schedule: Vec<u64> = (0..10).map(|i| i * 2_000_000).collect();
        let mut latency_ns = Vec::new();
        let mut sends = 0;
        let late_ns = pace(
            &schedule,
            || (),
            |due, ()| {
                sends += 1;
                if sends == 3 {
                    std::thread::sleep(Duration::from_millis(50));
                }
                std::thread::sleep(Duration::from_millis(1));
                latency_ns.push(due.elapsed().as_nanos() as u64);
            },
        );
        let as_f64 = |v: &[u64]| v.iter().map(|&x| x as f64).collect::<Vec<_>>();
        assert!(late_ns[..3].iter().all(|&l| l < 20_000_000), "{late_ns:?}");
        assert!(
            late_ns[3] >= 45_000_000,
            "request due during the stall: {late_ns:?}"
        );
        assert!(
            quantile(&as_f64(&late_ns), 0.99) >= 40_000_000.0,
            "gen.late p99 hides the stall"
        );
        assert!(latency_ns[3] >= 46_000_000, "{latency_ns:?}");
        // Had latency been taken from the actual send it would read ~1 ms.
        assert!(
            quantile(&as_f64(&latency_ns), 0.5) >= 20_000_000.0,
            "{latency_ns:?}"
        );
    }

    #[test]
    fn wait_until_does_not_return_early() {
        let due = Instant::now() + Duration::from_millis(3);
        wait_until(due);
        assert!(Instant::now() >= due);
    }

    #[test]
    fn mix_issues_never_seen_seeds_and_repeats_for_a_seed() {
        let pool = sut::generate_jobs(8, 1);
        let recurring = sut::generate_jobs(32, 2);
        let mut a = Mix::mixed(pool.clone(), recurring.clone(), 0.5, 9);
        let mut b = Mix::mixed(pool, recurring, 0.5, 9);
        let mut keys = std::collections::BTreeMap::new();
        for _ in 0..400 {
            let job = a.next_job();
            assert_eq!(sut::cache_key(&job), sut::cache_key(&b.next_job()));
            *keys.entry(sut::cache_key(&job)).or_insert(0u32) += 1;
        }
        let repeated: u32 = keys.values().filter(|&&n| n > 1).sum();
        let single = keys.values().filter(|&&n| n == 1).count();
        // About half the stream is ad-hoc and each such signature occurs
        // once; the recurring half lands on at most 32 signatures.
        assert!(
            single >= 150 && repeated >= 150,
            "{single} single, {repeated} repeated"
        );
    }
}
