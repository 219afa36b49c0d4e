//! The `swpd-mixed` workload: an in-process daemon (two workers, memory
//! cache) under closed-loop traffic from two client threads.
//!
//! The mix is 60% hot requests (a pool presolved during set-up, so the
//! daemon answers from its cache), 30% cold requests (loops never sent
//! before, drawn on demand from the corpus generator), and 10% session
//! traffic (an edit followed by a warm `session_solve`). It is the only
//! workload that crosses the protocol, the regression-text parser, the
//! cache, the worker queue and the incremental sessions.

use crate::golden::Golden;
use crate::metrics::{self, Report, SetupTimer};
use crate::solve::{check_schedule, Case, Outcome, Spec};
use crate::trace::Tracer;
use crate::RunOpts;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::RwLock;
use std::time::{Duration, Instant};
use swp_core::{Engine, RateOptimalScheduler, SchedulerConfig};
use swp_fuzz::{parse_regression, write_regression, FuzzCase};
use swp_incr::EditOp;
use swp_loops::fingerprint::{ddg_fingerprint, machine_fingerprint};
use swp_loops::suite::{generate, SuiteConfig};
use swp_machine::Machine;
use swp_milp::Budget;
use swp_swpd::{
    Daemon, DaemonConfig, DaemonHandle, Reply, ReplyStatus, Request, SolveRequest, SwpdClient,
};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Operations per second of `--seconds`, both clients together. A run
/// sends a fixed number of them, sized so that seeds 1–10 fill about the
/// measuring time at the baseline on a loaded host (8 000–15 000
/// operations per second); each client's sequence of operations is then
/// fixed by the seed, and so are the quality metrics.
const OPS_PER_SECOND: f64 = 8_000.0;
/// Stretches of a run whose latency percentiles are reported by their
/// median (see `metrics::set_latency`).
const LATENCY_BLOCKS: usize = 10;
/// Hot pool size, and the corpus prefix it is drawn from.
const HOT: usize = 256;
const HOT_CANDIDATES: usize = 2 * HOT;
/// Incremental sessions each client keeps open and edits in turn.
const SESSIONS_PER_CLIENT: usize = 4;
const WARM_UP: usize = 64;
/// Tick cap sent with every solve request.
const TICKS: u64 = 2_000;
/// Tick cap of the presolve that fills the cache with the hot pool: loops
/// the daemon cannot prove this cheaply are left out of the pool.
const PRESOLVE_TICKS: u64 = 200;
/// Cold loops per client compared with an in-process solve (and covered
/// by the golden file and the traced replay).
const CHECKED_COLD: usize = 512;
/// Seed offset of the cold loops, so they never overlap the hot corpus.
const COLD_SALT: u64 = 0xC01D;

/// What the daemon's worker path runs for a solve request with this
/// workload's fields (default engine and oracle, `max_t` 8).
const SPEC: Spec = Spec {
    heuristic: true,
    engine: Engine::Ilp,
    ticks: TICKS,
    max_t_above_lb: 8,
};

/// A problem plus its wire text.
#[derive(Clone)]
struct Input {
    case: Case,
    text: String,
}

/// One open session: the toggled edge and the expected answer with the
/// edge absent (`[0]`) and present (`[1]`).
struct SessionPlan {
    handle: u64,
    name: String,
    add: EditOp,
    remove: EditOp,
    expect: [Outcome; 2],
}

/// The timed part of the set-up: the hot corpus and a started daemon.
struct Started {
    daemon: DaemonHandle,
    candidates: Vec<Input>,
}

struct Setup {
    daemon: DaemonHandle,
    hot: Vec<(Input, Outcome)>,
    sessions: Vec<SessionPlan>,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    /// Index into the hot pool.
    Hot(usize),
    /// Client and sequence number of a cold loop ([`cold_input`]).
    Cold(usize, usize),
    /// Session index, and whether the edit adds the toggled edge.
    Session(usize, bool),
}

/// A client's persistent JSONL connection, one request in flight at a
/// time. (`SwpdClient` opens a connection per call; a closed-loop client
/// that keeps its connection measures the daemon, not TCP set-up.)
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    fn call(&mut self, req: &Request) -> io::Result<Reply> {
        let mut line = req.to_json_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        line.clear();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Reply::from_json_line(line.trim())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// One closed-loop operation: its kind, the replies (or the transport
/// error), and when it ran.
struct Sample {
    kind: Kind,
    start: Instant,
    end: Instant,
    replies: Result<Vec<Reply>, String>,
}

fn as_input(name: String, machine: &Machine, ddg: swp_ddg::Ddg) -> Input {
    let fuzz = FuzzCase {
        index: 0,
        name: name.clone(),
        guaranteed: false,
        machine: machine.clone(),
        ddg,
        max_live: None,
    };
    let text = write_regression(&fuzz, None);
    Input {
        case: Case {
            name,
            machine: fuzz.machine,
            ddg: fuzz.ddg,
            max_live: None,
        },
        text,
    }
}

fn corpus(seed: u64, n: usize, prefix: &str) -> Vec<Input> {
    let machine = Machine::example_pldi95();
    generate(&SuiteConfig {
        seed,
        num_loops: n,
        ..SuiteConfig::pldi95_default()
    })
    .into_iter()
    .map(|l| as_input(format!("{prefix}/{}", l.name), &machine, l.ddg))
    .collect()
}

fn solve_request(id: String, input: &Input) -> SolveRequest {
    let mut req = SolveRequest::new(id, input.text.clone());
    req.ticks = Some(TICKS);
    req
}

/// The outcome a reply reports.
fn reply_outcome(r: &Reply) -> Outcome {
    Outcome {
        t_lb: r.t_lb.unwrap_or(0),
        period: r.period,
        // An `unscheduled` reply is an exact refutation of the window.
        proven: r.status == ReplyStatus::Unscheduled || r.proven == Some(true),
    }
}

/// The in-process answer to a cold or hot request: the same driver
/// configuration and tick cap the daemon's worker path uses. Returns the
/// outcome, the driver's time in microseconds, and the schedule checks.
fn solve_in_process(input: &Input) -> (Outcome, f64, Result<(), String>) {
    let (took, result) = SPEC.solve(&SPEC.scheduler(&input.case), &input.case.ddg);
    let us = took.as_secs_f64() * 1e6;
    let checked = match &result {
        Ok(r) => check_schedule(&input.case, &r.schedule),
        Err(_) => Ok(()),
    };
    match Outcome::of(&result) {
        Ok(o) => (o, us, checked),
        Err(e) => (
            Outcome {
                t_lb: 0,
                period: None,
                proven: false,
            },
            us,
            Err(format!("{}: reference solve: {e}", input.case.name)),
        ),
    }
}

/// Session solves run under the daemon's session configuration.
fn session_outcome(case: &Case) -> Option<Outcome> {
    let scheduler = RateOptimalScheduler::new(
        case.machine.clone(),
        SchedulerConfig {
            time_limit_per_t: None,
            ..SchedulerConfig::default()
        },
    );
    let budget = Budget::with_tick_limit(TICKS);
    let o = Outcome::of(&scheduler.schedule_with(&case.ddg, &budget)).ok()?;
    (o.proven && o.period.is_some()).then_some(o)
}

/// The timed set-up: input generation and daemon start.
fn start(opts: &RunOpts) -> Started {
    let candidates = corpus(opts.seed, HOT_CANDIDATES, "hot");
    let daemon = Daemon::start(DaemonConfig {
        workers: WORKERS,
        // A run starts and stops about forty daemons to time set-up, and
        // each stop leaves a thread sleeping out the grace; none has
        // requests in flight when it stops.
        drain_grace: Duration::from_millis(10),
        ..DaemonConfig::default()
    })
    .expect("bind a loopback port for the daemon");
    Started { daemon, candidates }
}

/// The untimed rest of the set-up, whose cost depends on which loops the
/// seed generates: presolving the hot pool, opening the sessions, and the
/// warm-up requests.
fn prepare(started: Started, opts: &RunOpts, report: &mut Report) -> Setup {
    let Started { daemon, candidates } = started;
    let mut client = SwpdClient::new(daemon.addr().to_string(), opts.seed);

    // Hot pool: the first loops of the hot corpus the daemon proves (and
    // therefore caches) within the presolve cap. The cache key ignores
    // budgets, so the pool's requests hit it whatever cap they carry.
    let hot_size = if opts.smoke { 8 } else { HOT };
    let mut hot = Vec::new();
    for input in &candidates {
        if hot.len() == hot_size {
            break;
        }
        let mut presolve = solve_request(input.case.name.clone(), input);
        presolve.ticks = Some(PRESOLVE_TICKS);
        match client.solve(&presolve) {
            Ok(r) if r.status == ReplyStatus::Solved => {
                let (want, _, checked) = solve_in_process(input);
                if let Err(e) = checked {
                    report.fail(e);
                }
                if reply_outcome(&r) != want {
                    report.fail(format!(
                        "{}: presolve {r:?}, reference {want:?}",
                        input.case.name
                    ));
                }
                hot.push((input.clone(), want));
            }
            Ok(_) => {}
            Err(e) => report.fail(format!("presolve transport: {e}")),
        }
    }

    // Sessions, on hot-corpus loops whose base and edited forms both solve
    // to a proven answer. The edit adds a carried dependence from the last
    // operation back to the first.
    let mut sessions = Vec::new();
    for input in &candidates {
        if sessions.len() == CLIENTS * SESSIONS_PER_CLIENT {
            break;
        }
        let n = input.case.ddg.num_nodes();
        let (add, remove) = (
            EditOp::AddEdge {
                src: n - 1,
                dst: 0,
                distance: 2,
            },
            EditOp::RemoveEdge {
                src: n - 1,
                dst: 0,
                distance: 2,
            },
        );
        let mut edited = input.case.clone();
        let ids: Vec<_> = edited.ddg.nodes().map(|(id, _)| id).collect();
        if edited.ddg.add_edge(ids[n - 1], ids[0], 2).is_err() {
            continue;
        }
        let (Some(base), Some(with_edge)) =
            (session_outcome(&input.case), session_outcome(&edited))
        else {
            continue;
        };
        match client.session_open(&input.case.name, &input.text) {
            Ok(r) if r.status == ReplyStatus::Ok && r.session.is_some() => {
                sessions.push(SessionPlan {
                    handle: r.session.expect("checked above"),
                    name: format!("session/{}", sessions.len()),
                    add,
                    remove,
                    expect: [base, with_edge],
                });
            }
            Ok(r) => report.fail(format!("session_open: {r:?}")),
            Err(e) => report.fail(format!("session_open transport: {e}")),
        }
    }
    if hot.is_empty() || sessions.len() < CLIENTS * SESSIONS_PER_CLIENT {
        report.fail("set-up found too few proven hot loops");
    }

    for i in 0..WARM_UP.min(if opts.smoke { 8 } else { WARM_UP }) {
        if let Some((input, _)) = hot.get(i % hot.len().max(1)) {
            let _ = client.solve(&solve_request(format!("warm-{i}"), input));
        }
    }
    Setup {
        daemon,
        hot,
        sessions,
    }
}

/// Cold loop `k` of client `c`: an independent draw from the corpus
/// generator, made on demand so the clients never run out.
fn cold_input(seed: u64, c: usize, k: usize) -> Input {
    let seed = (seed ^ COLD_SALT)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(((c as u64) << 32) | k as u64);
    let l = generate(&SuiteConfig {
        seed,
        num_loops: 1,
        ..SuiteConfig::pldi95_default()
    })
    .pop()
    .expect("one loop");
    as_input(
        format!("cold/c{c}/{k:06}"),
        &Machine::example_pldi95(),
        l.ddg,
    )
}

/// The messages one operation sends (the same for a given kind, up to
/// the correlation id).
fn requests(kind: Kind, setup: &Setup, seed: u64, id: String) -> Vec<Request> {
    match kind {
        Kind::Hot(i) => vec![Request::Solve(solve_request(id, &setup.hot[i].0))],
        Kind::Cold(c, k) => vec![Request::Solve(solve_request(id, &cold_input(seed, c, k)))],
        Kind::Session(s, add) => {
            let plan = &setup.sessions[s];
            vec![
                Request::SessionEdit {
                    id: format!("edit-{id}"),
                    session: plan.handle,
                    edit: if add { &plan.add } else { &plan.remove }.clone(),
                },
                Request::SessionSolve {
                    id: format!("solve-{id}"),
                    session: plan.handle,
                    ticks: None,
                    timeout_ms: None,
                },
            ]
        }
    }
}

/// One client's closed loop of `ops` operations (fewer past `guard`),
/// each holding `pause` shared, calling `between` after each.
fn client_loop(
    c: usize,
    setup: &Setup,
    opts: &RunOpts,
    ops: usize,
    guard: Instant,
    pause: &RwLock<()>,
    between: &mut (dyn FnMut() + Send),
) -> io::Result<Vec<Sample>> {
    let mut conn = Conn::open(setup.daemon.addr())?;
    let mut rng = SmallRng::seed_from_u64(opts.seed.rotate_left(17) ^ c as u64);
    let mut samples = Vec::with_capacity(ops);
    let mut next_cold = 0;
    // This client's sessions, edited in turn; whether each has the edge.
    let mut next_session = 0;
    let mut edited = [false; SESSIONS_PER_CLIENT];
    loop {
        if samples.len() == ops || Instant::now() >= guard {
            return Ok(samples);
        }
        let kind = match rng.gen_range(0..10u32) {
            0..=5 => Kind::Hot(rng.gen_range(0..setup.hot.len())),
            6..=8 => {
                next_cold += 1;
                Kind::Cold(c, next_cold - 1)
            }
            _ => {
                next_session = (next_session + 1) % SESSIONS_PER_CLIENT;
                let k = next_session;
                edited[k] = !edited[k];
                Kind::Session(c * SESSIONS_PER_CLIENT + k, edited[k])
            }
        };
        let requests = requests(kind, setup, opts.seed, format!("c{c}-{}", samples.len()));
        let in_flight = pause.read().unwrap_or_else(|e| e.into_inner());
        let start = Instant::now();
        let replies = requests
            .iter()
            .map(|r| conn.call(r))
            .collect::<io::Result<Vec<Reply>>>()
            .map_err(|e| e.to_string());
        let end = Instant::now();
        drop(in_flight);
        samples.push(Sample {
            kind,
            start,
            end,
            replies,
        });
        between();
    }
}

/// What a run's operations add up to.
#[derive(Default)]
struct Totals {
    /// Distinct problems answered (each hot loop, cold loop and session
    /// state once), and how many of those answers were proven.
    problems: HashSet<Kind>,
    proven: usize,
    period_sum: u64,
    lb_sum: u64,
    roundtrip_us: f64,
    server_us: f64,
    session_us: f64,
    solves: u64,
    cached: u64,
    session_solves: u64,
    replays: u64,
    ims_hint_hits: u64,
    /// The compared cold loops: in-process outcome and driver time.
    cold: BTreeMap<(usize, usize), (Outcome, f64)>,
}

/// Runs the workload: the set-ups, the closed-loop traffic, the checks,
/// and the traced boundaries and replay when asked.
pub fn run(opts: &RunOpts, golden: Option<&Golden>) -> Report {
    let mut report = Report::default();
    let mut totals = Totals::default();
    let mut tracer = Tracer::new(Instant::now());
    let (mut setup_timer, started) = SetupTimer::start(opts, || start(opts));
    let setup = prepare(started, opts, &mut report);
    let mut stats = SwpdClient::new(setup.daemon.addr().to_string(), 0);
    let before = stats.stats();
    let ops = if opts.smoke {
        crate::solve::SMOKE_INPUTS / CLIENTS
    } else {
        (OPS_PER_SECOND * opts.seconds.as_secs_f64() / CLIENTS as f64).round() as usize
    };
    // A guard against a pathologically slow change: the operation count is
    // sized to fill `--seconds`, and a run stops early past three times
    // that.
    let guard = Instant::now() + opts.seconds * 3;
    // The first client also times the set-ups spread over the run. Each
    // client holds `pause` shared during an operation, and a set-up holds
    // it exclusively, so that set-ups are timed with no traffic in flight,
    // as the first one is: otherwise `setup_s` would move with the
    // daemon's load.
    let pause = RwLock::new(());
    let mut sample_setup = || {
        if setup_timer.due() {
            let quiet = pause.write().unwrap_or_else(|e| e.into_inner());
            let discarded = setup_timer.sample();
            drop(quiet);
            if let Some(s) = discarded {
                s.daemon.shutdown();
            }
        }
    };
    let mut nothing = || {};
    let betweens: [&mut (dyn FnMut() + Send); CLIENTS] = [&mut sample_setup, &mut nothing];
    let per_client: Vec<io::Result<Vec<Sample>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = betweens
            .into_iter()
            .enumerate()
            .map(|(c, between)| {
                let (setup, pause) = (&setup, &pause);
                scope.spawn(move || client_loop(c, setup, opts, ops, guard, pause, between))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    report.set("setup_s", setup_timer.median());
    let per_client: Vec<Vec<Sample>> = per_client
        .into_iter()
        .map(|client| {
            client.unwrap_or_else(|e| {
                report.fail(format!("client connection: {e}"));
                Vec::new()
            })
        })
        .collect();
    // Latency blocks: the k-th tenth of every client's operations, which
    // ran at about the same time.
    let blocks = (0..LATENCY_BLOCKS)
        .map(|k| {
            per_client
                .iter()
                .flat_map(|s| &s[k * s.len() / LATENCY_BLOCKS..(k + 1) * s.len() / LATENCY_BLOCKS])
                .map(|s| (s.end - s.start).as_secs_f64() * 1e6)
                .collect()
        })
        .collect();
    metrics::set_latency(&mut report, blocks);
    let samples: Vec<Sample> = per_client.into_iter().flatten().collect();
    check(&mut report, &mut totals, opts, golden, &setup, &samples);
    if opts.trace {
        time_boundaries(&mut tracer, &mut totals, opts, &setup, &samples);
        match (before, stats.stats()) {
            (Ok(b), Ok(a)) => {
                totals.session_solves = a.session_solves - b.session_solves;
                totals.replays = a.reuse_replays - b.reuse_replays;
                totals.ims_hint_hits = a.reuse_ims_hint_hits - b.reuse_ims_hint_hits;
            }
            _ => report.fail("stats request failed"),
        }
    }
    setup.daemon.shutdown();
    report.attempted = samples.len() as u64;
    report.set(
        "proven_share",
        totals.proven as f64 / totals.problems.len().max(1) as f64,
    );
    report.set(
        "ii_over_lb",
        totals.period_sum as f64 / totals.lb_sum.max(1) as f64,
    );
    eprintln!(
        "swp-benchmark: swpd-mixed: {} operations, {} cold loops compared in process",
        samples.len(),
        totals.cold.len()
    );
    let slack: u32 = totals
        .cold
        .values()
        .filter_map(|(o, _)| o.period.map(|p| p - o.t_lb))
        .sum();
    report.set("core.ii_slack_sum", f64::from(slack));
    if opts.trace {
        trace(&mut report, &mut tracer, &totals, opts, samples.len());
    }
    report
}

/// Checks the replies and adds them to the totals. Every reply
/// must carry an accepted status and the right lower bound, with any
/// period inside the search window. The first `CHECKED_COLD` cold loops
/// of each client are also compared with an in-process solve under the
/// same configuration (decisions are tick-capped, hence deterministic),
/// whose schedule goes through the checker and the simulator, since
/// replies carry no schedule.
fn check(
    report: &mut Report,
    totals: &mut Totals,
    opts: &RunOpts,
    golden: Option<&Golden>,
    setup: &Setup,
    samples: &[Sample],
) {
    for s in samples {
        let replies = match &s.replies {
            Ok(r) => r,
            Err(e) => {
                report.fail(format!("transport: {e}"));
                continue;
            }
        };
        let last = replies.last().expect("at least one reply");
        let got = reply_outcome(last);
        let (name, want, ok_status) = match s.kind {
            Kind::Hot(i) => {
                let (input, want) = &setup.hot[i];
                (
                    input.case.name.clone(),
                    Some(*want),
                    last.status == ReplyStatus::Cached,
                )
            }
            Kind::Cold(c, k) => {
                let input = cold_input(opts.seed, c, k);
                let (ddg, machine) = (&input.case.ddg, &input.case.machine);
                let t_lb = ddg
                    .t_dep()
                    .zip(machine.t_res(ddg).ok())
                    .map(|(d, r)| d.max(r));
                let in_window = got
                    .period
                    .is_none_or(|p| p >= got.t_lb && p <= got.t_lb + SPEC.max_t_above_lb);
                let want = (k < CHECKED_COLD).then(|| {
                    totals
                        .cold
                        .entry((c, k))
                        .or_insert_with(|| {
                            let (o, us, checked) = solve_in_process(&input);
                            if let Err(e) = checked {
                                report.fail(e);
                            }
                            (o, us)
                        })
                        .0
                });
                let ok = t_lb == Some(got.t_lb)
                    && in_window
                    && matches!(
                        last.status,
                        ReplyStatus::Solved
                            | ReplyStatus::Cached
                            | ReplyStatus::BudgetExhausted
                            | ReplyStatus::Unscheduled
                    );
                (input.case.name, want, ok)
            }
            Kind::Session(s, add) => {
                let plan = &setup.sessions[s];
                let ok = replies[0].status == ReplyStatus::Ok && last.status == ReplyStatus::Solved;
                (plan.name.clone(), Some(plan.expect[usize::from(add)]), ok)
            }
        };
        if !ok_status || want.is_some_and(|w| w != got) {
            report.fail(format!("{name}: reply {last:?}, expected {want:?}"));
        }
        if let Some(g) = golden {
            if let Err(e) = g.check(&name, &got) {
                report.fail(e);
            }
        }
        // Quality counts each problem once: the hot pool's few loops are
        // asked for thousands of times, and would otherwise make the
        // quality metrics depend on which loops a seed puts in the pool.
        if totals.problems.insert(s.kind) {
            totals.proven += usize::from(got.proven && got.period.is_some());
            if let Some(p) = got.period {
                totals.period_sum += u64::from(p);
                totals.lb_sum += u64::from(got.t_lb);
            }
        }
    }
}

/// Records the operations as spans, and times the text boundaries on
/// their own messages: protocol parsing of every request and reply, then
/// the regression-text parser and the cache fingerprints on every solve
/// request's case.
fn time_boundaries(
    tracer: &mut Tracer,
    totals: &mut Totals,
    opts: &RunOpts,
    setup: &Setup,
    samples: &[Sample],
) {
    for (i, s) in samples.iter().enumerate() {
        let us = (s.end - s.start).as_secs_f64() * 1e6;
        tracer.record("swpd.roundtrip", i, s.start, s.end);
        totals.roundtrip_us += us;
        let Ok(replies) = &s.replies else { continue };
        match s.kind {
            Kind::Session(..) => totals.session_us += us,
            _ if replies[0].status == ReplyStatus::Cached => totals.cached += 1,
            _ => totals.server_us += replies[0].solve_us.unwrap_or(0) as f64,
        }
        let sent = requests(s.kind, setup, opts.seed, format!("op-{i}"));
        let texts: Vec<(String, String)> = sent
            .iter()
            .zip(replies)
            .map(|(q, r)| (q.to_json_line(), r.to_json_line()))
            .collect();
        tracer.time("swpd.proto", i, || {
            for (q, r) in &texts {
                std::hint::black_box(
                    (Request::from_json_line(q), Reply::from_json_line(r))
                        .0
                        .is_ok(),
                );
            }
        });
        if let Some(Request::Solve(req)) = sent.first() {
            totals.solves += 1;
            let parsed = tracer.time("swpd.case_parse", i, || {
                parse_regression(&req.id, &req.case)
            });
            if let Ok(p) = parsed {
                tracer.time("harness.fingerprint", i, || {
                    std::hint::black_box((
                        ddg_fingerprint(&p.case.ddg),
                        machine_fingerprint(&p.case.machine),
                    ))
                });
            }
        }
    }
}

/// The per-layer metrics: the daemon boundaries as shares of the clients'
/// round-trip time, and the solver layers replayed over the compared cold
/// loops against their in-process driver time. Replayed loops are
/// numbered from `first_input`, after the operations.
fn trace(
    report: &mut Report,
    tracer: &mut Tracer,
    totals: &Totals,
    opts: &RunOpts,
    first_input: usize,
) {
    let oracle_before = swp_automata::stats::snapshot();
    let mut agree = 0usize;
    for (i, (&(c, k), (want, _))) in totals.cold.iter().enumerate() {
        let input = cold_input(opts.seed, c, k);
        let replayed = crate::trace::replay(tracer, first_input + i, &input.case, &SPEC);
        agree += usize::from(replayed == Some(*want));
    }
    crate::trace::set_oracle_counts(report, &oracle_before);
    let share = |us: f64| us / totals.roundtrip_us.max(f64::MIN_POSITIVE);
    report.set("swpd.server_solve.share", share(totals.server_us));
    report.set("swpd.proto.share", share(tracer.total_us("swpd.proto")));
    report.set(
        "swpd.case_parse.share",
        share(tracer.total_us("swpd.case_parse")),
    );
    report.set(
        "harness.fingerprint.share",
        share(tracer.total_us("harness.fingerprint")),
    );
    report.set(
        "harness.cache.hit_ratio",
        totals.cached as f64 / totals.solves.max(1) as f64,
    );
    report.set("incr.session.share", share(totals.session_us));
    report.set(
        "incr.replay_share",
        totals.replays as f64 / totals.session_solves.max(1) as f64,
    );
    report.set("incr.reuse.ims_hint_hits", totals.ims_hint_hits as f64);
    let driver_us = totals.cold.values().map(|(_, us)| us).sum();
    tracer.fill(
        report,
        driver_us,
        agree as f64 / totals.cold.len().max(1) as f64,
    );
    opts.write_spans("swpd-mixed", tracer);
}

/// Reference rows for `seed`: the hot candidates and the compared cold
/// loops of every client.
pub fn reference_rows(seed: u64) -> Vec<(String, Outcome)> {
    let (ilp, cp) = crate::solve::reference_specs(SPEC.max_t_above_lb);
    let cold = (0..CLIENTS).flat_map(|c| (0..CHECKED_COLD).map(move |k| cold_input(seed, c, k)));
    corpus(seed, HOT_CANDIDATES, "hot")
        .into_iter()
        .chain(cold)
        .map(|input| {
            let outcome = crate::solve::reference(&input.case, &ilp, &cp);
            (input.case.name, outcome)
        })
        .collect()
}
