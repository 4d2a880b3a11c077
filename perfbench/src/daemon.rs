//! The `daemon` workload: `nproc` closed-loop clients on an in-process
//! `dsed` [`Server`] over its unix socket (closed loop, because `dsec
//! --daemon` clients wait for each reply).
//!
//! Mix: 9 in 10 requests are warm `run` requests (2 threads) over a fixed
//! seeded Profile-scale input set, one per program, taken round robin by
//! each client; every tenth is a `compile` request, also round robin, on
//! fresh seeded inputs. Those miss from profile to verify, write new artifacts
//! beside the cache reads and can push out older ones. Warm runs last
//! 1–7 ms, so VM build and teardown, the server queue and the artifact
//! cache lookups dominate here.
//!
//! The traced run alternates, per client, a request over the socket and a
//! replay of the next request through the public calls the server makes:
//! warm runs as cached pipeline lookups (`core`) plus `Vm::new`/`run`/drop
//! (`runtime`); compiles as one [`Server::handle`] call (`server`). Every
//! other replay keeps no spans, so `trace_overhead` compares like with
//! like, and the socket requests keep the server's queue and cache
//! counters live.

use crate::check::{self, Outputs};
use crate::compile::set_trace_overhead;
use crate::metrics::Results;
use crate::suite::{self, Prepared, THREADS};
use crate::trace::{Tracer, ROOT};
use crate::{
    ms, nproc, set_percentiles, set_program_percentiles, span_metrics, stats, Opts, Tally,
};
use dse_core::{OptLevel, Pipeline, Trace};
use dse_runtime::VmConfig;
use dse_server::{Cmd, Request, Response, Server, ServerConfig};
use dse_telemetry::{Json, ServerStats};
use dse_workloads::Scale;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Every this many requests of a client, one is a compile. A fixed share
/// and a round-robin program choice keep the mix the same in every run.
const COMPILE_EVERY: u64 = 10;

/// A running in-process daemon.
struct Daemon {
    server: Arc<Server>,
    path: PathBuf,
    thread: JoinHandle<std::io::Result<ServerStats>>,
}

impl Daemon {
    /// Starts a daemon with `nproc` request workers on a socket at `path`
    /// and waits until it accepts connections.
    fn start(path: &Path) -> Result<Daemon, String> {
        let server = Arc::new(Server::new(&ServerConfig {
            workers: nproc(),
            ..ServerConfig::default()
        }));
        let path_str = path.to_str().ok_or("socket path is not UTF-8")?.to_string();
        let s = Arc::clone(&server);
        let thread = std::thread::spawn(move || s.serve_socket(&path_str));
        let deadline = Instant::now() + Duration::from_secs(10);
        while UnixStream::connect(path).is_err() {
            if thread.is_finished() || Instant::now() > deadline {
                return Err(format!("dsed did not listen on {}", path.display()));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(Daemon {
            server,
            path: path.to_path_buf(),
            thread,
        })
    }

    /// Sends `shutdown` and waits for the daemon to exit.
    fn stop(self) -> Result<(), String> {
        let mut c = Client::connect(&self.path)?;
        c.call(&Request::new("shutdown", Cmd::Shutdown))?;
        drop(c);
        self.thread
            .join()
            .map_err(|_| "dsed panicked".to_string())?
            .map(|_| ())
            .map_err(|e| format!("dsed: {e}"))
    }
}

/// One client connection (requests answered in order).
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect(path: &Path) -> Result<Client, String> {
        let writer = UnixStream::connect(path).map_err(|e| format!("connect: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { reader, writer })
    }

    /// One round trip.
    fn call(&mut self, req: &Request) -> Result<Response, String> {
        writeln!(self.writer, "{}", req.to_json()).map_err(|e| format!("send: {e}"))?;
        self.writer.flush().map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("receive: {e}"))?;
        let j = Json::parse(line.trim()).map_err(|e| format!("response: {e}"))?;
        Response::from_json(&j)
    }
}

/// What a request asks for.
#[derive(Clone)]
enum Kind {
    /// Warm run of program `k` on its fixed input set.
    Run(usize),
    /// Compile of program `k` on fresh inputs.
    Compile(usize, Vec<i64>),
}

fn request(id: String, suite: &[Prepared], kind: &Kind) -> Request {
    let (cmd, k, inputs) = match kind {
        Kind::Run(k) => (Cmd::Run, *k, suite[*k].inputs.clone()),
        Kind::Compile(k, inputs) => (Cmd::Compile, *k, inputs.clone()),
    };
    let mut req = Request::new(id, cmd);
    req.source = Some(suite[k].w.source.to_string());
    req.threads = THREADS;
    req.opt = OptLevel::Full;
    req.inputs = inputs;
    req
}

/// Checks a response: a run's outputs on every channel against the serial
/// reference of the same inputs; a compile's success.
fn check_response(
    resp: &Response,
    kind: &Kind,
    want: &[Outputs],
    suite: &[Prepared],
) -> Result<(), String> {
    let k = match kind {
        Kind::Run(k) | Kind::Compile(k, _) => *k,
    };
    let name = suite[k].w.name;
    if !resp.ok {
        return Err(format!(
            "{name}: dsed error: {}",
            resp.error.as_deref().unwrap_or("(none)")
        ));
    }
    match kind {
        Kind::Run(_) => check::compare(&want[k], &Outputs::from_response(resp))
            .map_err(|e| format!("{name} via dsed: {e}")),
        Kind::Compile(..) => Ok(()),
    }
}

/// A replayed warm run: the server's cached pipeline lookups, then a VM
/// build, run and drop.
fn replay_run(t: &mut Tracer, req: u64, server: &Server, p: &Prepared) -> Result<Outputs, String> {
    let (par, _) = t.leaf("cache_lookup", "core", req, || {
        let pipeline = Pipeline::new(server.store());
        let mut trace = Trace::new();
        let cfg = VmConfig {
            inputs_int: p.inputs.clone(),
            ..Default::default()
        };
        let art = pipeline
            .analyze(p.w.source, &cfg, &mut trace)
            .map_err(|e| e.to_string())?;
        let par = pipeline
            .transform(&art, OptLevel::Full, THREADS, false, &mut trace)
            .map_err(|e| e.to_string())?;
        let report = dse_verify::check_cached(server.store(), &art.analysis, &par, &mut trace);
        if report.should_fail(false) {
            return Err(report.render_text());
        }
        Ok(par)
    });
    let par = par.map_err(|e| format!("{}: {e}", p.w.name))?;
    let (out, _, _) = suite::run_program(t, req, &par.transformed.parallel, THREADS, &p.inputs)?;
    Ok(out)
}

/// What one client measured.
#[derive(Default)]
struct ClientLog {
    latency: Vec<f64>,
    /// Compile round trips per program.
    compile: Vec<Vec<f64>>,
    rounds: Vec<f64>,
    run_socket: Vec<f64>,
    run_traced: Vec<f64>,
    run_replayed: Vec<f64>,
    tally: Tally,
}

impl ClientLog {
    fn new(programs: usize) -> ClientLog {
        ClientLog {
            compile: vec![Vec::new(); programs],
            ..ClientLog::default()
        }
    }
}

/// One closed-loop client until `deadline`.
fn client(
    o: &Opts,
    id: usize,
    daemon: &Daemon,
    suite: &[Prepared],
    want: &[Outputs],
    deadline: Instant,
    t: &mut Tracer,
) -> Result<ClientLog, String> {
    let mut log = ClientLog::new(suite.len());
    let mut conn = Client::connect(&daemon.path)?;
    let n = suite.len();
    let mut next_run = (id * n / nproc().max(1)) % n;
    let mut next_compile = next_run;
    let mut runs_in_round = 0;
    let mut round_start = Instant::now();
    let mut quiet = Tracer::new(false, Instant::now());
    let mut j: u64 = 0;
    while Instant::now() < deadline {
        let kind = if j % COMPILE_EVERY == COMPILE_EVERY - 1 {
            let k = next_compile;
            next_compile = (next_compile + 1) % n;
            let index = ((id as u64 + 1) << 32) + j;
            Kind::Compile(
                k,
                crate::inputs::seeded(&suite[k].w, Scale::Profile, o.seed, index),
            )
        } else {
            let k = next_run;
            next_run = (next_run + 1) % n;
            Kind::Run(k)
        };
        let rid = ((id as u64) << 40) + j;
        // Traced run: socket, traced replay, socket, untraced replay.
        let replay = o.trace && j % 2 == 1;
        let traced = replay && j % 4 == 1;
        let req = request(format!("c{id}-{j}"), suite, &kind);
        let t0 = Instant::now();
        let result = if replay {
            let t = if traced { &mut *t } else { &mut quiet };
            t.begin(rid);
            let r = match &kind {
                Kind::Run(k) => replay_run(t, rid, &daemon.server, &suite[*k]).and_then(|got| {
                    check::compare(&want[*k], &got)
                        .map_err(|e| format!("{}: {e}", suite[*k].w.name))
                }),
                Kind::Compile(..) => {
                    let (resp, _) = t.leaf("handle", "server", rid, || daemon.server.handle(&req));
                    check_response(&resp, &kind, want, suite)
                }
            };
            t.end();
            r
        } else {
            conn.call(&req)
                .and_then(|resp| check_response(&resp, &kind, want, suite))
        };
        let took = ms(t0.elapsed());
        log.tally.record(result);
        log.latency.push(took);
        match kind {
            Kind::Compile(k, _) => log.compile[k].push(took),
            Kind::Run(_) if traced => log.run_traced.push(took),
            Kind::Run(_) if replay => log.run_replayed.push(took),
            Kind::Run(_) => {
                log.run_socket.push(took);
                runs_in_round += 1;
                if runs_in_round == n {
                    log.rounds.push(round_start.elapsed().as_secs_f64());
                    round_start = Instant::now();
                    runs_in_round = 0;
                }
            }
        }
        j += 1;
    }
    Ok(log)
}

/// Starts a daemon and warms its cache with one run request per program.
fn start_warm(path: &Path, suite: &[Prepared], want: &[Outputs]) -> Result<Daemon, String> {
    let daemon = Daemon::start(path)?;
    let mut c = Client::connect(path)?;
    for k in 0..suite.len() {
        let kind = Kind::Run(k);
        let resp = c.call(&request(format!("warm-{k}"), suite, &kind))?;
        check_response(&resp, &kind, want, suite)?;
    }
    Ok(daemon)
}

/// Runs the workload.
///
/// # Errors
///
/// A failing set-up.
pub fn run(o: &Opts, r: &mut Results, tally: &mut Tally) -> Result<(), String> {
    // The benchmark's own references: each program compiled cold and run
    // serially on its fixed input set.
    let (suite, _) = suite::prepare(o.seed)?;
    let mut quiet = Tracer::new(false, Instant::now());
    let want = suite
        .iter()
        .map(|p| suite::reference(&mut quiet, 0, p, &p.inputs).map(|(o, _, _)| o))
        .collect::<Result<Vec<_>, _>>()?;

    std::fs::create_dir_all(&o.out_dir).map_err(|e| format!("{}: {e}", o.out_dir.display()))?;
    let path = o.out_dir.join(format!("dsed-{}.sock", std::process::id()));
    // Set-up: start dsed and warm its cache. The daemon of an earlier
    // set-up is stopped before the next one's clock starts.
    let mut times = Vec::new();
    let mut daemon = None;
    for _ in 0..crate::SETUPS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d)?;
        }
        let t0 = Instant::now();
        daemon = Some(start_warm(&path, &suite, &want)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("SETUPS > 0");
    let setup_s = stats::median(&times);
    r.set("setup_s", setup_s, crate::SETUPS);

    let clients = nproc();
    let epoch = Instant::now();
    let start = Instant::now();
    let deadline = start + o.seconds;
    let logs: Vec<Result<(ClientLog, Tracer), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                let (daemon, suite, want) = (&daemon, &suite, &want);
                s.spawn(move || {
                    let mut t = Tracer::new(o.trace, epoch);
                    client(o, id, daemon, suite, want, deadline, &mut t).map(|l| (l, t))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let server_stats = daemon.server.stats();
    daemon.stop()?;

    let mut all = ClientLog::new(suite.len());
    let mut spans = Tracer::new(true, epoch);
    for log in logs {
        let (log, t) = log?;
        all.latency.extend(log.latency);
        for (mine, theirs) in all.compile.iter_mut().zip(log.compile) {
            mine.extend(theirs);
        }
        all.rounds.extend(log.rounds);
        all.run_socket.extend(log.run_socket);
        all.run_traced.extend(log.run_traced);
        all.run_replayed.extend(log.run_replayed);
        tally.merge(log.tally);
        spans.absorb(t);
    }

    suite::check_golden_profile(&suite, tally);

    if o.trace {
        let ops = spans.spans().iter().filter(|s| s.layer == ROOT).count();
        span_metrics(r, spans.spans(), ops);
        // The socket hop, protocol and queue of a run request lie outside
        // every span: the round trip minus the untraced replay of the
        // same requests, charged per run request.
        let runs = all.run_socket.len() + all.run_traced.len() + all.run_replayed.len();
        let gap = (stats::median(&all.run_socket) - stats::median(&all.run_replayed)).max(0.0);
        let share = runs as f64 / all.latency.len().max(1) as f64;
        if let Some(u) = r.get("unattributed_ms") {
            r.set("unattributed_ms", u.value + gap * share, u.samples);
        }
        let hits = server_stats.total_hits();
        let lookups = hits + server_stats.total_misses();
        r.set(
            "core.cache_hit_ratio",
            hits as f64 / lookups.max(1) as f64,
            lookups as usize,
        );
        let dedups: u64 = server_stats.phases.iter().map(|p| p.dedups).sum();
        let evictions: u64 = server_stats.phases.iter().map(|p| p.evictions).sum();
        r.set("core.cache_dedups", dedups as f64, 1);
        r.set("core.cache_evictions", evictions as f64, 1);
        let queue = &server_stats.latency.queue;
        r.set(
            "server.queue_ms.p50",
            queue.percentile(0.5) as f64 / 1e6,
            queue.count() as usize,
        );
        r.set(
            "server.queue_peak",
            server_stats.taskpool.queued_peak as f64,
            1,
        );
        set_trace_overhead(r, &[all.run_traced], &[all.run_replayed]);
        crate::write_spans(o, spans.spans())?;
    } else {
        set_program_percentiles(r, "compile_ms.p50", "compile_ms.p90", &all.compile);
        set_percentiles(r, "latency_ms.p50", "latency_ms.p90", &all.latency);
        r.set(
            "req_per_s",
            all.latency.len() as f64 / elapsed,
            all.latency.len(),
        );
        r.set("suite_s.p50", stats::median(&all.rounds), all.rounds.len());
        let (speedup, overhead) = suite::code_metrics(&suite, 5, tally);
        r.set("speedup_2t", speedup, suite.len());
        r.set("seq_overhead_instr", overhead, suite.len());
    }
    Ok(())
}
