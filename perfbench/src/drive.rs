//! The untraced runs: daemon set-up, warm-up and the timed closed loop.
//!
//! Both workloads talk to an in-process [`Daemon`] over loopback TCP,
//! one connection per client, each with one job outstanding.

use crate::plan::{Job, Plan};
use crate::replay::Route;
use cyclecover_io::json::request_from_json;
use cyclecover_service::{
    CertCache, Daemon, DaemonConfig, DaemonStats, ServiceConfig, SolveService,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is the median of their fastest quarter.
pub(crate) const SETUP_REPS: usize = 31;

/// One loopback connection to the daemon.
pub(crate) struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: std::net::SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Sends `line` and returns the answer document (a solution or a
    /// reject); `Err` only when no document came back.
    pub(crate) fn call(&mut self, line: &str) -> Result<String, String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer
            .write_all(&bytes)
            .map_err(|e| format!("write: {e}"))?;
        self.read_line()
    }
}

const STATS_LINE: &str = r#"{"format": "cyclecover-control", "version": 1, "op": "stats"}"#;
const SHUTDOWN_LINE: &str = r#"{"format": "cyclecover-control", "version": 1, "op": "shutdown"}"#;

/// A running daemon and its client connections.
pub(crate) struct DaemonHost {
    handle: JoinHandle<DaemonStats>,
    /// One connection per closed-loop client.
    pub(crate) conns: Vec<Conn>,
}

impl DaemonHost {
    /// Binds the daemon with the default configuration (the loaded
    /// certificate cache for `serve_small`), connects the workload's
    /// clients and answers the set-up probe; the elapsed time is one
    /// `setup_s` sample.
    pub(crate) fn start(
        plan: &Plan,
        certs: Option<&CertFile>,
    ) -> Result<(DaemonHost, f64), String> {
        if let Some(certs) = certs {
            certs.reset()?;
        }
        let t0 = Instant::now();
        let loopback = "127.0.0.1:0".parse().expect("loopback address");
        let mut daemon =
            Daemon::bind(loopback, DaemonConfig::default()).map_err(|e| format!("bind: {e}"))?;
        if let Some(certs) = certs {
            let text =
                std::fs::read_to_string(&certs.path).map_err(|e| format!("cert cache: {e}"))?;
            daemon.set_cert_cache(CertCache::from_json(&text)?, Some(certs.path.clone()));
        }
        let addr = daemon
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        let handle = std::thread::spawn(move || daemon.run());
        let conns = (0..plan.workload.clients())
            .map(|_| Conn::connect(addr))
            .collect::<Result<_, _>>()?;
        let mut host = DaemonHost { handle, conns };
        let answer = host.conns[0].call(&plan.setup_probe.line)?;
        let setup = t0.elapsed().as_secs_f64();
        let job = request_from_json(&plan.setup_probe.line)?;
        crate::oracle::check(&job, plan.setup_probe.expect, &answer)
            .map_err(|e| format!("set-up probe: {e}"))?;
        Ok((host, setup))
    }

    /// The daemon's counters, from a `stats` control document.
    pub(crate) fn stats(&mut self) -> Result<DaemonStats, String> {
        DaemonStats::from_json(&self.conns[0].call(STATS_LINE)?)
    }

    /// Drains the daemon gracefully and waits for its threads.
    pub(crate) fn stop(mut self) -> Result<(), String> {
        let mut doc = self.conns[0].call(SHUTDOWN_LINE)?;
        while !doc.contains("cyclecover-daemon-stats") {
            doc = self.conns[0].read_line()?;
        }
        self.handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?;
        Ok(())
    }
}

/// The certificate-cache file `serve_small` persists to, and the
/// content every set-up starts from.
pub struct CertFile {
    /// Where the daemon loads and rewrites the cache.
    pub path: PathBuf,
    /// The cache document before any run touched it.
    pub pristine: String,
}

impl CertFile {
    /// Certifies `plan.preload` through a service with a certificate
    /// cache and writes the grown cache to `dir`.
    pub fn prepare(plan: &Plan, dir: &Path) -> Result<CertFile, String> {
        let mut service = SolveService::new(ServiceConfig::default());
        service.set_cert_cache(CertCache::new());
        for (i, job) in plan.preload.iter().enumerate() {
            let mut parsed = request_from_json(&job.line)?;
            parsed.id = format!("p{i}");
            service.submit(parsed)?;
        }
        service.drain();
        let (entries, _, _) = service.cert_cache_stats().expect("cache installed");
        if entries != plan.preload.len() {
            return Err(format!(
                "preloaded {entries} of {} certificates",
                plan.preload.len()
            ));
        }
        let pristine = service.cert_cache_json().expect("cache installed");
        let file = CertFile {
            path: dir.join("certs.json"),
            pristine,
        };
        file.reset()?;
        Ok(file)
    }

    /// Restores the pristine cache file.
    pub(crate) fn reset(&self) -> Result<(), String> {
        std::fs::write(&self.path, &self.pristine).map_err(|e| format!("cert cache: {e}"))
    }
}

/// One answered (or failed) job of a closed loop.
pub(crate) struct Sample {
    /// Index of the job in the loop's job list.
    pub index: usize,
    /// Client-observed time from sending the line to reading the answer.
    pub latency: Duration,
    /// When the answer arrived, from the start of the loop.
    pub done: Duration,
    /// Whether a document (a solution or a reject) came back.
    pub answered: bool,
    /// The oracle's verdict on the answer.
    pub verdict: Verdict,
    /// How long the oracle took (after `done`, before the next send).
    pub checked_in: Duration,
}

/// What the oracle made of one answer.
pub(crate) struct Verdict {
    /// Why the answer is wrong or missing; `None` when it checked out.
    pub failure: Option<String>,
    /// Kernel route and nodes, when the answer ran a kernel.
    pub route: Option<(Route, u64)>,
}

/// A slice boundary of a closed loop: time since its start and the
/// process CPU seconds at that moment.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Mark {
    /// Time since the loop started.
    pub at: Duration,
    /// Process CPU seconds (user + system).
    pub cpu_s: f64,
}

/// What one closed loop produced.
pub(crate) struct Window {
    /// Every job sent, in completion order per client.
    pub samples: Vec<Sample>,
    /// Slice boundaries: every deck end for a single client, about one
    /// second apart for several.
    pub marks: Vec<Mark>,
    /// Wall time from the first send to the last answer.
    pub wall: Duration,
    /// Whether the stream ran out before the time was up.
    pub exhausted: bool,
}

/// Jobs a timed loop sends at least, however long they take, so that
/// p90 always has ten samples above it.
const MIN_JOBS: usize = 100;

/// Slice length for loops with several clients.
const SLICE: Duration = Duration::from_secs(1);

/// Longest client think time between an answer and the next send.
const MAX_THINK: Duration = Duration::from_millis(1);

/// Runs `jobs` through `clients` in a closed loop for `seconds`, and for
/// at least `MIN_JOBS` jobs (all of them with `seconds = None`). A
/// single client stops only at a deck boundary, so every run answers
/// whole decks. Each client hands every answer to `judge` (the oracle)
/// as it arrives and keeps only the verdict, so the process's memory
/// does not grow with the answers read and `peak_rss_mb` is the
/// daemon's. The first client marks slice boundaries (deck ends for
/// a single client, `SLICE` for several) with the process CPU time,
/// so rates can be reported as medians over slices.
///
/// Each client waits a uniform, `seed`ed 0–`MAX_THINK` before each
/// send, so sends do not lock to the phase of the daemon's
/// 1 ms event-loop tick (a client that sends the instant it reads an
/// answer always lands at the same point of the tick, which splits the
/// latencies into tick-sized modes).
pub(crate) fn closed_loop(
    clients: &mut [Conn],
    jobs: &[Job],
    deck_len: usize,
    seconds: Option<f64>,
    seed: u64,
    judge: &(dyn Fn(usize, Result<String, String>) -> Verdict + Sync),
) -> Window {
    let next = AtomicUsize::new(0);
    let single = clients.len() == 1;
    let t0 = Instant::now();
    let start = Mark {
        at: Duration::ZERO,
        cpu_s: crate::procfs::cpu_seconds(),
    };
    let deadline = seconds.map(|s| t0 + Duration::from_secs_f64(s));
    let per_client: Vec<(Vec<Sample>, Vec<Mark>, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let next = &next;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ c as u64);
                    let mut samples = Vec::new();
                    let mut marks = Vec::new();
                    let mut next_mark = SLICE;
                    let exhausted = loop {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        if index >= jobs.len() {
                            break seconds.is_some();
                        }
                        let late =
                            deadline.is_some_and(|d| Instant::now() >= d) && index >= MIN_JOBS;
                        if late && (!single || index.is_multiple_of(deck_len)) {
                            break false;
                        }
                        let max = MAX_THINK.as_micros() as u64;
                        std::thread::sleep(Duration::from_micros(rng.gen_range(0..=max)));
                        let sent = Instant::now();
                        let answer = client.call(&jobs[index].line);
                        let latency = sent.elapsed();
                        let done = t0.elapsed();
                        let answered = answer.is_ok();
                        let verdict = judge(index, answer);
                        samples.push(Sample {
                            index,
                            latency,
                            done,
                            answered,
                            verdict,
                            checked_in: t0.elapsed() - done,
                        });
                        let boundary = if single {
                            index % deck_len == deck_len - 1
                        } else {
                            c == 0 && done >= next_mark
                        };
                        if boundary {
                            next_mark = done + SLICE;
                            marks.push(Mark {
                                at: done,
                                cpu_s: crate::procfs::cpu_seconds(),
                            });
                        }
                    };
                    (samples, marks, exhausted)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed();
    let exhausted = per_client.iter().any(|(_, _, e)| *e);
    let mut marks = vec![start];
    let mut samples = Vec::new();
    for (s, m, _) in per_client {
        samples.extend(s);
        marks.extend(m);
    }
    Window {
        samples,
        marks,
        wall,
        exhausted,
    }
}
