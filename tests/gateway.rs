//! Integration tests for the scale-out front door: a real gateway + shard
//! topology over TCP, covering byte-identity with direct library calls,
//! single-flight dedup, mixed unique/duplicate interleaving, and graceful
//! degradation when a shard dies mid-traffic.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use hetsched::core::algorithms;
use hetsched::dag::io::DagSpec;
use hetsched::platform::SystemSpec;
use hetsched::workloads::gauss::gaussian_elimination;
use hetsched_gateway::{GatewayConfig, GatewayServer, LocalShards};
use hetsched_serve::ServeConfig;

const SYSTEM_JSON: &str = r#"{"processors": {"kind": "speeds", "speeds": [2.0, 1.0, 1.5]},
    "network": {"topology": "fully_connected", "startup": 0.5, "bandwidth": 1.0}}"#;

fn shard_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 16,
        instance_cache_capacity: 16,
        default_deadline_ms: 10_000,
    }
}

/// A running gateway + N in-process shards, plus the handle to join.
struct Topology {
    shards: LocalShards,
    gateway: std::thread::JoinHandle<std::io::Result<()>>,
    addr: std::net::SocketAddr,
}

fn spawn_topology(shard_count: usize) -> Topology {
    let shards = LocalShards::spawn(shard_count, &shard_config()).unwrap();
    let config = GatewayConfig {
        backends: shards.addrs(),
        ..Default::default()
    };
    let server = GatewayServer::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap();
    let gateway = std::thread::spawn(move || server.run());
    Topology {
        shards,
        gateway,
        addr,
    }
}

impl Topology {
    /// Shut down via the wire (propagates to the shards) and join.
    fn shutdown(mut self) {
        let mut c = Client::connect(self.addr);
        let bye = c.roundtrip(r#"{"op":"shutdown"}"#);
        assert_eq!(bye["status"].as_str(), Some("shutting_down"), "{bye:?}");
        self.gateway.join().unwrap().unwrap();
        self.shards.shutdown_all();
    }
}

/// DagSpec JSON for a deterministic Gaussian-elimination workload.
fn dag_json(m: usize) -> serde_json::Value {
    let mut rng = StdRng::seed_from_u64(11);
    let dag = gaussian_elimination(m, 1.0, &mut rng);
    serde_json::to_value(DagSpec::from_dag(&dag)).unwrap()
}

fn schedule_request(m: usize, algorithm: &str, options: &str) -> String {
    format!(
        "{{\"op\":\"schedule\",\"dag\":{},\"system\":{},\"algorithm\":\"{algorithm}\",\"options\":{options}}}",
        serde_json::to_string(&dag_json(m)).unwrap(),
        SYSTEM_JSON.replace('\n', ""),
    )
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// Send one line, return the raw reply line (trimmed).
    fn roundtrip_raw(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        assert!(!reply.is_empty(), "connection closed without a reply");
        reply.trim().to_string()
    }

    fn roundtrip(&mut self, line: &str) -> serde_json::Value {
        let raw = self.roundtrip_raw(line);
        serde_json::from_str(&raw).unwrap_or_else(|e| panic!("bad reply `{raw}`: {e}"))
    }
}

/// Sum one counter across the `shards` array of a gateway stats reply.
fn shard_sum(stats: &serde_json::Value, key: &str) -> u64 {
    stats["shards"]
        .as_array()
        .unwrap()
        .iter()
        .map(|s| s[key].as_u64().unwrap_or(0))
        .sum()
}

/// A fingerprint-routed request through the gateway produces exactly the
/// schedule a direct library call does — and the gateway handshake
/// identifies itself distinctly from a shard.
#[test]
fn gateway_replies_match_direct_library_call() {
    let topo = spawn_topology(2);
    let mut client = Client::connect(topo.addr);

    let hello = client.roundtrip(r#"{"op":"hello"}"#);
    assert_eq!(
        hello["hello"]["service"].as_str(),
        Some("hetsched-gateway"),
        "{hello:?}"
    );

    // Ground truth, straight from the library.
    let dag_spec: DagSpec = serde_json::from_value(dag_json(6)).unwrap();
    let dag = dag_spec.build().unwrap();
    let sys_spec: SystemSpec = serde_json::from_str(SYSTEM_JSON).unwrap();
    let sys = sys_spec.build(&dag).unwrap();
    let direct = algorithms::by_name("HEFT").unwrap().schedule(&dag, &sys);
    let direct_value = serde_json::to_value(&direct).unwrap();

    let reply = client.roundtrip(&schedule_request(6, "HEFT", "{}"));
    assert_eq!(reply["status"].as_str(), Some("ok"), "{reply:?}");
    assert_eq!(
        reply["schedule"]["schedule"], direct_value,
        "gateway schedule differs from direct library call"
    );

    // A repeat rides the home shard's memo: same payload, cached.
    let again = client.roundtrip(&schedule_request(6, "HEFT", "{}"));
    assert_eq!(again["schedule"]["cached"].as_bool(), Some(true));
    assert_eq!(again["schedule"]["schedule"], direct_value);

    topo.shutdown();
}

/// K concurrent identical requests: exactly one backend schedule (summed
/// across shard stats), K byte-identical reply lines, and K-1 dedup hits.
#[test]
fn single_flight_coalesces_identical_requests() {
    const K: usize = 6;
    let topo = spawn_topology(2);

    // The sleep holds the leader's flight open long enough that every
    // barrier-released follower joins it instead of racing past.
    let line = schedule_request(6, "HEFT", "{\"debug_sleep_ms\":800}");
    let barrier = Arc::new(Barrier::new(K));
    let replies: Vec<String> = (0..K)
        .map(|_| {
            let line = line.clone();
            let barrier = barrier.clone();
            let addr = topo.addr;
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                barrier.wait();
                c.roundtrip_raw(&line)
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();

    for reply in &replies {
        assert_eq!(
            reply, &replies[0],
            "follower reply is not byte-identical to the leader's"
        );
        assert!(reply.starts_with("{\"status\":\"ok\""), "{reply}");
    }

    let stats = Client::connect(topo.addr).roundtrip(r#"{"op":"stats"}"#);
    assert_eq!(shard_sum(&stats, "computed"), 1, "{stats:?}");
    assert_eq!(
        stats["gateway"]["dedup_hits"].as_u64(),
        Some((K - 1) as u64),
        "{stats:?}"
    );
    assert_eq!(stats["gateway"]["forwarded"].as_u64(), Some(1));

    topo.shutdown();
}

/// Duplicates interleaved with unique traffic: the duplicates coalesce,
/// the uniques each compute, and nobody gets the wrong payload.
#[test]
fn mixed_unique_and_duplicate_interleaving() {
    const DUPES: usize = 3;
    const UNIQUES: usize = 3;
    let topo = spawn_topology(2);

    let hot = schedule_request(6, "HEFT", "{\"debug_sleep_ms\":600}");
    let barrier = Arc::new(Barrier::new(DUPES + UNIQUES));
    let mut handles = Vec::new();
    for _ in 0..DUPES {
        let line = hot.clone();
        let barrier = barrier.clone();
        let addr = topo.addr;
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr);
            barrier.wait();
            ("hot", c.roundtrip_raw(&line))
        }));
    }
    for i in 0..UNIQUES {
        // distinct matrix sizes: distinct fingerprints, independent routing
        let line = schedule_request(4 + i, "HEFT", "{\"debug_sleep_ms\":100}");
        let barrier = barrier.clone();
        let addr = topo.addr;
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr);
            barrier.wait();
            ("unique", c.roundtrip_raw(&line))
        }));
    }
    let replies: Vec<(&str, String)> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let hot_replies: Vec<&String> = replies
        .iter()
        .filter(|(kind, _)| *kind == "hot")
        .map(|(_, r)| r)
        .collect();
    for (kind, reply) in &replies {
        assert!(reply.starts_with("{\"status\":\"ok\""), "{kind}: {reply}");
    }
    for r in &hot_replies {
        assert_eq!(*r, hot_replies[0], "duplicate replies must coalesce");
    }

    let stats = Client::connect(topo.addr).roundtrip(r#"{"op":"stats"}"#);
    // one compute for the hot flight, one per unique problem
    assert_eq!(
        shard_sum(&stats, "computed"),
        (1 + UNIQUES) as u64,
        "{stats:?}"
    );
    assert_eq!(
        stats["gateway"]["dedup_hits"].as_u64(),
        Some((DUPES - 1) as u64),
        "{stats:?}"
    );

    topo.shutdown();
}

/// A `schedule_many` batch through the gateway: entries come back in
/// request order, each byte-identical to a direct library call, the
/// fan-out splits by each instance's home shard, and a repeat batch is
/// answered entirely from the shard memos.
#[test]
fn schedule_many_fans_out_by_home_shard_and_keeps_order() {
    let topo = spawn_topology(2);
    let mut client = Client::connect(topo.addr);

    let sizes = [4usize, 5, 6, 7];
    let instances: Vec<String> = sizes
        .iter()
        .map(|&m| {
            format!(
                "{{\"dag\":{},\"system\":{}}}",
                serde_json::to_string(&dag_json(m)).unwrap(),
                SYSTEM_JSON.replace('\n', ""),
            )
        })
        .collect();
    let line = format!(
        "{{\"op\":\"schedule_many\",\"instances\":[{}],\"algorithm\":\"HEFT\"}}",
        instances.join(","),
    );

    let reply = client.roundtrip(&line);
    assert_eq!(reply["status"].as_str(), Some("ok"), "{reply:?}");
    let body = &reply["many"];
    let entries = body["entries"].as_array().unwrap();
    assert_eq!(entries.len(), sizes.len());
    assert_eq!(body["cached"].as_u64(), Some(0));
    assert_eq!(body["computed"].as_u64(), Some(sizes.len() as u64));
    let sys_spec: SystemSpec = serde_json::from_str(SYSTEM_JSON).unwrap();
    for (entry, &m) in entries.iter().zip(&sizes) {
        let dag_spec: DagSpec = serde_json::from_value(dag_json(m)).unwrap();
        let dag = dag_spec.build().unwrap();
        let sys = sys_spec.build(&dag).unwrap();
        let direct = algorithms::by_name("HEFT").unwrap().schedule(&dag, &sys);
        assert_eq!(
            entry["schedule"],
            serde_json::to_value(&direct).unwrap(),
            "batch entry for m={m} differs from direct library call"
        );
        assert_eq!(entry["cached"].as_bool(), Some(false));
    }

    // The batch split across both shards (4 distinct fingerprints over 2
    // shards virtually never all land on one) and seeded their memos:
    // the identical batch answers cached, and so does a standalone
    // request for any member.
    let again = client.roundtrip(&line);
    assert_eq!(again["many"]["cached"].as_u64(), Some(sizes.len() as u64));
    assert_eq!(again["many"]["computed"].as_u64(), Some(0));
    let again_entries = again["many"]["entries"].as_array().unwrap();
    for (a, b) in again_entries.iter().zip(entries) {
        // identical payloads; only the `cached` flag flips
        assert_eq!(a["schedule"], b["schedule"]);
        assert_eq!(a["cached"].as_bool(), Some(true));
    }
    let single = client.roundtrip(&schedule_request(5, "HEFT", "{}"));
    assert_eq!(
        single["schedule"]["cached"].as_bool(),
        Some(true),
        "{single:?}"
    );

    let stats = client.roundtrip(r#"{"op":"stats"}"#);
    assert_eq!(shard_sum(&stats, "computed"), sizes.len() as u64);

    topo.shutdown();
}

/// Kill one shard mid-traffic: every subsequent request gets a structured
/// reply within its deadline (reroute or shed — never a hang), and tail
/// traffic still succeeds.
#[test]
fn shard_failure_degrades_gracefully() {
    const DEADLINE_MS: u64 = 2_000;
    let mut topo = spawn_topology(2);
    let mut client = Client::connect(topo.addr);

    // Warm up: both shards reachable, traffic flows.
    let warm = client.roundtrip(&schedule_request(6, "HEFT", "{}"));
    assert_eq!(warm["status"].as_str(), Some("ok"), "{warm:?}");

    topo.shards.kill(0);

    // A spread of distinct problems: with fingerprint homing, some home to
    // the dead shard and must fail over. Every reply must be structured
    // and arrive within the deadline; none may hang the client.
    let mut ok = 0;
    for m in 4..12 {
        let line = schedule_request(m, "HEFT", &format!("{{\"deadline_ms\":{DEADLINE_MS}}}"));
        let started = Instant::now();
        let reply = client.roundtrip(&line);
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(DEADLINE_MS + 1_000),
            "reply took {elapsed:?}, past the {DEADLINE_MS}ms deadline"
        );
        let status = reply["status"].as_str().expect("reply carries a status");
        assert!(
            matches!(status, "ok" | "shed" | "timeout" | "error"),
            "unstructured degradation: {reply:?}"
        );
        if status == "ok" {
            ok += 1;
        }
    }
    assert!(ok > 0, "no request succeeded after losing one shard");

    // Tail traffic: the survivor serves everything homed anywhere.
    let tail = client.roundtrip(&schedule_request(6, "HEFT", "{}"));
    assert_eq!(tail["status"].as_str(), Some("ok"), "{tail:?}");

    let stats = client.roundtrip(r#"{"op":"stats"}"#);
    let rerouted = stats["gateway"]["reroutes"].as_u64().unwrap_or(0);
    let shed = stats["gateway"]["sheds"].as_u64().unwrap_or(0);
    assert!(
        rerouted + shed > 0,
        "losing a shard left no trace in the gateway counters: {stats:?}"
    );

    topo.shutdown();
}

/// Both tiers parse a `patch` parent key with one parser: exactly 16
/// ASCII hex digits. A malformed key — a sign prefix included — gets the
/// same `unknown_parent` message whether the client talks to a shard or
/// to the gateway.
#[test]
fn malformed_parent_keys_get_the_same_answer_on_both_tiers() {
    let shard = hetsched_serve::Service::start(shard_config());
    let router = hetsched_gateway::Router::new(GatewayConfig {
        backends: vec!["127.0.0.1:1".to_string()],
        ..Default::default()
    })
    .unwrap();
    for parent in ["+123456789abcdef", "nope", "abc", "0123456789abcdef0"] {
        let line = format!(
            r#"{{"op":"patch","parent":"{parent}","algorithm":"HEFT","deltas":[{{"kind":"task_weight","task":0,"weight":2.0}}]}}"#
        );
        let message = |reply: &str| {
            let v: serde_json::Value = serde_json::from_str(reply).unwrap();
            assert_eq!(v["status"].as_str(), Some("error"), "{reply}");
            v["message"].as_str().unwrap().to_string()
        };
        let served = message(&shard.handle_line(&line).to_line());
        let routed = message(&router.handle_line(&line, Instant::now()));
        assert!(served.starts_with("unknown_parent"), "{served}");
        assert_eq!(served, routed, "parent `{parent}`");
    }
    shard.shutdown();
}

/// Pipelined lines on one connection are all answered, in request order:
/// the connection's backlog is bounded by TCP flow control, not by a
/// pending-depth shed.
#[test]
fn pipelined_lines_on_one_connection_are_answered_in_order() {
    let topo = spawn_topology(2);
    let mut client = Client::connect(topo.addr);
    let sys_spec: SystemSpec = serde_json::from_str(SYSTEM_JSON).unwrap();
    let requests: Vec<(usize, &str)> = (3..13)
        .flat_map(|m| ["HEFT", "CPOP", "PEFT", "ILS-H"].map(|alg| (m, alg)))
        .collect();
    assert_eq!(requests.len(), 40);

    let batch: String = requests
        .iter()
        .map(|&(m, alg)| schedule_request(m, alg, "{}") + "\n")
        .collect();
    client.writer.write_all(batch.as_bytes()).unwrap();

    for (i, &(m, alg)) in requests.iter().enumerate() {
        let mut raw = String::new();
        client.reader.read_line(&mut raw).unwrap();
        let reply: serde_json::Value = serde_json::from_str(raw.trim()).unwrap();
        assert_eq!(reply["status"].as_str(), Some("ok"), "line {i}: {reply:?}");
        let dag_spec: DagSpec = serde_json::from_value(dag_json(m)).unwrap();
        let dag = dag_spec.build().unwrap();
        let sys = sys_spec.build(&dag).unwrap();
        let direct = algorithms::by_name(alg).unwrap().schedule(&dag, &sys);
        assert_eq!(
            reply["schedule"]["schedule"],
            serde_json::to_value(&direct).unwrap(),
            "line {i} ({alg}, m={m}) answered out of order"
        );
    }

    topo.shutdown();
}
