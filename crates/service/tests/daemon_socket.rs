//! End-to-end daemon exercise over a real loopback socket: streaming
//! requests in, classified documents out, predictive admission, warm
//! cache generations, and the graceful drain — all through the same
//! byte path the CLI front ends use.

use cyclecover_service::{CalibrationRow, CertCache, CostModel, Daemon, DaemonConfig, DaemonStats};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn row(n: u32, nodes: u64, wall_ms: f64) -> CalibrationRow {
    CalibrationRow {
        n,
        objective: "find_optimal".to_string(),
        symmetry: "root".to_string(),
        memo: true,
        nodes,
        wall_ms,
    }
}

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read line");
    assert!(line.ends_with('\n'), "daemon lines are newline-terminated");
    line.trim_end().to_string()
}

#[test]
fn daemon_round_trips_streams_predicts_and_drains() {
    let mut daemon = Daemon::bind("127.0.0.1:0".parse().unwrap(), DaemonConfig::default())
        .expect("bind loopback");
    // A deliberately lopsided model: n = 6 is cheap and exactly known,
    // n = 10 is exactly known to be hopeless — so a tight deadline on
    // n = 10 must be refused at admission, regardless of what the
    // committed calibration table says this week.
    daemon.set_cost_model(Some(CostModel::new(vec![
        row(6, 100, 0.05),
        row(10, u64::MAX / 2, 1e9),
    ])));
    let addr = daemon.local_addr().expect("local addr");
    let server = std::thread::spawn(move || daemon.run());

    // --- Connection 1: stream four lines, half-close, collect answers.
    let (mut w1, mut r1) = connect(addr);
    w1.write_all(
        concat!(
            r#"{"format": "cyclecover-request", "version": 1, "id": "a", "n": 6}"#,
            "\n",
            r#"{"format": "cyclecover-request", "version": 1, "id": "b", "n": 6}"#,
            "\n",
            "this is not json\n",
            r#"{"format": "cyclecover-request", "version": 1, "id": "doomed", "n": 10, "deadline_ms": 1}"#,
            "\n",
        )
        .as_bytes(),
    )
    .expect("write jobs");
    // Half-close: the daemon must keep the connection alive until the
    // in-flight jobs are answered, then close it.
    w1.shutdown(Shutdown::Write).expect("half-close");

    let mut docs = Vec::new();
    loop {
        let mut line = String::new();
        if r1.read_line(&mut line).expect("read") == 0 {
            break; // daemon reaped the drained connection
        }
        docs.push(line.trim_end().to_string());
    }
    assert_eq!(docs.len(), 4, "four lines in, four documents out: {docs:?}");

    let rejects: Vec<&String> = docs
        .iter()
        .filter(|d| d.contains("\"format\": \"cyclecover-reject\""))
        .collect();
    let solutions: Vec<&String> = docs
        .iter()
        .filter(|d| d.contains("\"format\": \"cyclecover-solution\""))
        .collect();
    assert_eq!(rejects.len(), 2);
    assert_eq!(solutions.len(), 2);
    assert!(
        rejects.iter().any(|d| d.contains("\"reason\": \"parse\"")),
        "the malformed line is refused with a parse reject: {rejects:?}"
    );
    let predicted = rejects
        .iter()
        .find(|d| d.contains("\"reason\": \"predicted_unmeetable\""))
        .expect("the hopeless deadline is refused at admission");
    assert!(predicted.contains("\"id\": \"doomed\""));
    assert!(
        predicted.contains("\"predicted_nodes\":"),
        "the refusal carries its evidence: {predicted}"
    );
    for id in ["\"id\": \"a\"", "\"id\": \"b\""] {
        assert!(
            solutions.iter().any(|d| d.contains(id)),
            "each admitted job is answered exactly once: {solutions:?}"
        );
    }
    assert!(
        solutions.iter().all(|d| d.contains("\"predicted_nodes\":")),
        "answers for exactly-calibrated shapes audit the prediction: {solutions:?}"
    );

    // --- Connection 2: warm generation, live stats, graceful drain.
    let (mut w2, mut r2) = connect(addr);
    writeln!(
        w2,
        r#"{{"format": "cyclecover-request", "version": 1, "id": "c", "n": 6}}"#
    )
    .expect("write warm job");
    let warm = read_line(&mut r2);
    assert!(warm.contains("\"format\": \"cyclecover-solution\""));
    assert!(warm.contains("\"id\": \"c\""));

    writeln!(w2, r#"{{"format": "cyclecover-control", "version": 1, "op": "stats"}}"#)
        .expect("write stats control");
    let live = read_line(&mut r2);
    let live_stats = DaemonStats::from_json(&live).expect("live stats parse");
    assert_eq!(live_stats.jobs_received, 3);
    assert_eq!(live_stats.rejected_parse, 1);
    assert_eq!(live_stats.rejected_predicted, 1);

    writeln!(w2, r#"{{"format": "cyclecover-control", "version": 1, "op": "shutdown"}}"#)
        .expect("write shutdown control");
    let last = read_line(&mut r2);
    let final_doc = DaemonStats::from_json(&last).expect("final stats parse");
    let mut eof = String::new();
    assert_eq!(r2.read_line(&mut eof).expect("post-drain read"), 0);

    let stats = server.join().expect("daemon thread");
    assert_eq!(stats.connections_accepted, 2);
    assert_eq!(stats.jobs_received, 3, "a, b, and c were admitted");
    assert_eq!(stats.jobs_answered, 3);
    assert_eq!(stats.unstarted, 0, "nothing was abandoned by the drain");
    assert_eq!(stats.rejected_parse, 1);
    assert_eq!(stats.rejected_predicted, 1);
    assert!(stats.generations >= 2, "two separate micro-batch generations");
    assert!(
        stats.warm_universe_hits >= 1,
        "connection 2 reused the universe built for connection 1: {stats:?}"
    );
    assert_eq!(final_doc.jobs_answered, stats.jobs_answered);
    assert_eq!(final_doc.rejected_predicted, stats.rejected_predicted);
}

#[test]
fn cert_cache_serves_repeats_and_persists_across_generations() {
    let save = std::env::temp_dir().join("cyclecover_daemon_cert_cache_test.json");
    let _ = std::fs::remove_file(&save);
    let mut daemon = Daemon::bind("127.0.0.1:0".parse().unwrap(), DaemonConfig::default())
        .expect("bind loopback");
    daemon.set_cert_cache(CertCache::new(), Some(save.clone()));
    let addr = daemon.local_addr().expect("local addr");
    let server = std::thread::spawn(move || daemon.run());

    let (mut w, mut r) = connect(addr);
    writeln!(
        w,
        r#"{{"format": "cyclecover-request", "version": 1, "id": "first", "n": 6}}"#
    )
    .expect("write cold job");
    // Waiting for the answer ends the dispatch generation, so the next
    // job arrives in a new one — against the now-warm certificate cache.
    let cold = read_line(&mut r);
    assert!(cold.contains("\"id\": \"first\""));
    assert!(cold.contains("\"cached\": false"), "cold answer ran the kernel: {cold}");

    writeln!(
        w,
        r#"{{"format": "cyclecover-request", "version": 1, "id": "again", "n": 6}}"#
    )
    .expect("write warm job");
    let warm = read_line(&mut r);
    assert!(warm.contains("\"id\": \"again\""));
    assert!(
        warm.contains("\"cached\": true"),
        "the repeat must answer from the certificate cache: {warm}"
    );
    assert!(
        warm.contains("\"nodes\": 0"),
        "a cached answer burns zero kernel nodes: {warm}"
    );

    writeln!(w, r#"{{"format": "cyclecover-control", "version": 1, "op": "shutdown"}}"#)
        .expect("write shutdown control");
    let last = read_line(&mut r);
    let final_stats = DaemonStats::from_json(&last).expect("final stats parse");
    assert_eq!(final_stats.cert_cache_hits, 1);
    assert_eq!(final_stats.cert_cache_entries, 1);

    let stats = server.join().expect("daemon thread");
    assert_eq!(stats.cert_cache_hits, 1);

    // The cache survived to disk and re-loads with the entry intact.
    let doc = std::fs::read_to_string(&save).expect("cache file written");
    let reloaded = CertCache::from_json(&doc).expect("persisted cache loads");
    assert_eq!(reloaded.len(), 1);
    assert_eq!(reloaded.rejected_on_load(), 0);
    let _ = std::fs::remove_file(&save);
}

/// Binds a daemon on an ephemeral loopback port and serves it on its
/// own thread; the receiver yields the final counters when `run`
/// returns.
fn serve(
    config: DaemonConfig,
    setup: impl FnOnce(&mut Daemon),
) -> (std::net::SocketAddr, mpsc::Receiver<DaemonStats>) {
    let mut daemon =
        Daemon::bind("127.0.0.1:0".parse().unwrap(), config).expect("bind loopback");
    setup(&mut daemon);
    let addr = daemon.local_addr().expect("local addr");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(daemon.run());
    });
    (addr, rx)
}

fn request(id: &str, n: u32) -> String {
    format!(r#"{{"format": "cyclecover-request", "version": 1, "id": "{id}", "n": {n}}}"#)
}

const STATS: &str = r#"{"format": "cyclecover-control", "version": 1, "op": "stats"}"#;
const SHUTDOWN: &str = r#"{"format": "cyclecover-control", "version": 1, "op": "shutdown"}"#;

/// Every line until the daemon closes the connection.
fn read_to_eof(reader: &mut BufReader<TcpStream>) -> Vec<String> {
    reader
        .lines()
        .map(|line| line.expect("read until EOF"))
        .collect()
}

/// Sends `shutdown` on a fresh connection and returns the final stats
/// document's counters.
fn shut_down(addr: std::net::SocketAddr) -> DaemonStats {
    let (mut w, mut r) = connect(addr);
    writeln!(w, "{SHUTDOWN}").expect("write shutdown control");
    DaemonStats::from_json(&read_line(&mut r)).expect("final stats parse")
}

#[test]
fn cert_cache_file_is_written_only_when_the_cache_grew() {
    let save = std::env::temp_dir().join(format!(
        "cyclecover_daemon_cert_growth_{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&save);
    let (addr, done) = serve(DaemonConfig::default(), |d| {
        d.set_cert_cache(CertCache::new(), Some(save.clone()))
    });
    let (mut w, mut r) = connect(addr);
    let mut ask = |id: &str, n: u32| {
        writeln!(w, "{}", request(id, n)).expect("write job");
        read_line(&mut r)
    };
    // The cache is written before a generation's answers are sent, so
    // by the time an answer is read, its generation's write has happened.
    assert!(ask("cold", 6).contains("\"cached\": false"));
    let doc = std::fs::read_to_string(&save).expect("the cold job recorded a certificate");
    assert_eq!(CertCache::from_json(&doc).unwrap().len(), 1);

    std::fs::remove_file(&save).expect("remove cache file");
    assert!(ask("hit", 6).contains("\"cached\": true"));
    assert!(
        !save.exists(),
        "a generation that only read the cache must not rewrite it"
    );

    assert!(ask("new-key", 7).contains("\"cached\": false"));
    let doc = std::fs::read_to_string(&save).expect("a new certificate rewrites the file");
    assert_eq!(CertCache::from_json(&doc).unwrap().len(), 2);

    assert_eq!(shut_down(addr).cert_cache_entries, 2);
    done.recv_timeout(Duration::from_secs(20))
        .expect("daemon returns");
    let _ = std::fs::remove_file(&save);
}

#[test]
fn drain_answers_a_half_closed_requester_and_closes_an_idle_peer() {
    let (addr, done) = serve(DaemonConfig::default(), |_| {});
    // B connects first and never sends a byte.
    let (_idle_w, mut idle_r) = connect(addr);
    // A asks for stats and the drain in one write, then half-closes: its
    // reader must not read the half-close and close A before the final
    // stats document is sent.
    let (mut w, mut r) = connect(addr);
    w.write_all(format!("{STATS}\n{SHUTDOWN}\n").as_bytes())
        .expect("write controls");
    w.shutdown(Shutdown::Write).expect("half-close");
    let started = Instant::now();

    let docs = read_to_eof(&mut r);
    assert_eq!(
        docs.len(),
        2,
        "live stats, then final stats, then EOF: {docs:?}"
    );
    let live = DaemonStats::from_json(&docs[0]).expect("live stats parse");
    assert_eq!(live.connections_accepted, 2, "B was accepted before A");
    DaemonStats::from_json(&docs[1]).expect("final stats parse");
    assert!(
        read_to_eof(&mut idle_r).is_empty(),
        "the idle peer sees EOF and nothing else"
    );
    let stats = done
        .recv_timeout(Duration::from_secs(20))
        .expect("daemon returns");
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "the idle peer must not hold the drain for its grace window: {:?}",
        started.elapsed()
    );
    assert_eq!(stats.connections_accepted, 2);
    assert_eq!(stats.connections_closed, 2);
}

#[test]
fn queue_depth_one_stalls_reading_and_answers_every_line_once() {
    let config = DaemonConfig {
        queue_depth: 1,
        ..DaemonConfig::default()
    };
    let (addr, done) = serve(config, |_| {});
    // Two instant rejects in one chunk fill the depth-1 outbox while the
    // rest of the chunk is unread: a deterministic stall.
    let ids = ["q1", "q2", "q3", "q4", "q5"];
    let mut payload = String::from("{broken one\n{broken two\n");
    for id in ids {
        payload.push_str(&request(id, 10));
        payload.push('\n');
    }
    let (mut w, mut r) = connect(addr);
    w.write_all(payload.as_bytes()).expect("write squeeze");
    w.shutdown(Shutdown::Write).expect("half-close");
    let docs = read_to_eof(&mut r);
    assert_eq!(
        docs.len(),
        7,
        "seven lines in, seven documents out: {docs:?}"
    );
    let parse = docs
        .iter()
        .filter(|d| d.contains("\"reason\": \"parse\""))
        .count();
    assert_eq!(parse, 2, "{docs:?}");
    for id in ids {
        let terminal: Vec<&String> = docs
            .iter()
            .filter(|d| d.contains(&format!("\"id\": \"{id}\"")))
            .collect();
        assert_eq!(
            terminal.len(),
            1,
            "{id}: exactly one terminal document: {docs:?}"
        );
        assert!(
            terminal[0].contains("\"format\": \"cyclecover-solution\"")
                || terminal[0].contains("\"reason\": \"overload\""),
            "{id}: a solution or an overload reject: {}",
            terminal[0]
        );
    }

    let final_stats = shut_down(addr);
    assert!(final_stats.stalls >= 1, "{final_stats:?}");
    let stats = done
        .recv_timeout(Duration::from_secs(20))
        .expect("daemon returns");
    assert_eq!(stats.rejected_parse, 2);
    assert_eq!(stats.jobs_received + stats.rejected_overload, 5);
    assert_eq!(stats.jobs_answered, stats.jobs_received);
}

#[test]
fn connection_limit_refuses_with_one_overload_reject_then_eof() {
    let config = DaemonConfig {
        max_conns: 1,
        ..DaemonConfig::default()
    };
    let (addr, done) = serve(config, |_| {});
    // The first connection is registered once it has been answered.
    let (mut w, mut r) = connect(addr);
    writeln!(w, "{STATS}").expect("write stats control");
    DaemonStats::from_json(&read_line(&mut r)).expect("live stats parse");

    let (_refused_w, mut refused_r) = connect(addr);
    let docs = read_to_eof(&mut refused_r);
    assert_eq!(docs.len(), 1, "one reject, then EOF: {docs:?}");
    assert!(docs[0].contains("\"format\": \"cyclecover-reject\""));
    assert!(docs[0].contains("\"reason\": \"overload\""));

    writeln!(w, "{SHUTDOWN}").expect("write shutdown control");
    let final_stats = DaemonStats::from_json(&read_line(&mut r)).expect("final stats parse");
    assert_eq!(final_stats.connections_refused, 1);
    assert_eq!(final_stats.connections_accepted, 1);
    let stats = done
        .recv_timeout(Duration::from_secs(20))
        .expect("daemon returns");
    assert_eq!(stats.connections_refused, 1);
}
