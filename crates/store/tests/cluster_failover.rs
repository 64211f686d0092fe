//! Chaos test for the sharded store cluster: three real `sickle-serve`
//! processes, each holding its ring partition of one dataset (R = 2), one
//! of them rigged with a `die@conn:request` fault that kills the whole
//! process mid-epoch. The cluster client must
//!
//! 1. stream an epoch whose every batch is **bit-identical** to the
//!    single-store reference assembly (no duplicated, missing, or
//!    reordered samples across the failover), and
//! 2. leave a merged Chrome trace showing ≥ 3 process tracks, the
//!    cross-process client → server span links, and the `cluster.failover`
//!    hop where the dead member's keys re-routed to a replica.
//!
//! The dead process must exit with the die fault's code and must *not*
//! flush a trace — a node loss is abrupt, and the test proves the cluster
//! needs nothing from the dying side.
//!
//! When `SICKLE_CLUSTER_TRACE_OUT` names a directory, the merged trace is
//! copied there (the CI `cluster` job uploads it as an artifact).

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sickle_field::SampleSet;
use sickle_obs::export::{merge_chrome_traces, validate_chrome_trace};
use sickle_store::batching::{local_batch, BatchSpec};
use sickle_store::client::ClientConfig;
use sickle_store::cluster::{partition_output, ClusterClient, ClusterConfig, ClusterMember};
use sickle_store::manifest::ShardKey;
use sickle_store::ring::HashRing;
use sickle_store::store::{set_key, ShardStore, StoreConfig};
use sickle_store::testutil::small_output;

const MEMBERS: [&str; 3] = ["store-0", "store-1", "store-2"];
const VICTIM: usize = 1;
const REPLICATION: usize = 2;
/// Exit code `FaultAction::Die` uses in the serve data plane.
const DIE_EXIT_CODE: i32 = 86;

fn temp_root() -> PathBuf {
    std::env::temp_dir().join(format!("sickle_cluster_failover_{}", std::process::id()))
}

/// Reads the spawned server's stderr until it announces its ephemeral
/// port, then hands the reader to a drain thread.
fn await_listen_addr(reader: &mut BufReader<std::process::ChildStderr>) -> String {
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read server stderr");
        assert!(n > 0, "server exited before announcing its address");
        if let Some(rest) = line.trim_end().rsplit_once("listening on ") {
            return rest.1.to_string();
        }
    }
}

struct Server {
    child: Child,
    addr: String,
    drain: std::thread::JoinHandle<()>,
}

fn spawn_member(
    root: &Path,
    name: &str,
    port: u16,
    trace: Option<&PathBuf>,
    fault: Option<&str>,
) -> Server {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sickle-serve"));
    cmd.args([
        "--root",
        root.join(name).to_str().expect("utf8 member root"),
        "--port",
        &port.to_string(),
        "--threads",
        "2",
        "--allow-shutdown",
        "--max-seconds",
        "120",
    ])
    .stdout(Stdio::null())
    .stderr(Stdio::piped());
    if let Some(trace) = trace {
        cmd.env("SICKLE_TRACE", trace);
    }
    if let Some(plan) = fault {
        cmd.env("SICKLE_FAULT_PLAN", plan);
    }
    let mut child = cmd.spawn().expect("spawn sickle-serve member");
    let mut reader = BufReader::new(child.stderr.take().expect("piped stderr"));
    let addr = await_listen_addr(&mut reader);
    let drain = std::thread::spawn(move || for _ in reader.lines() {});
    Server { child, addr, drain }
}

fn wait_with_deadline(child: &mut Child, what: &str) -> std::process::ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("{what} did not exit within 30s");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn assert_bit_identical(a: &sickle_store::Batch, b: &sickle_store::Batch, what: &str) {
    assert_eq!(a.shape, b.shape, "{what}: shape");
    assert_eq!(a.inputs.len(), b.inputs.len(), "{what}: input length");
    for (i, (x, y)) in a.inputs.iter().zip(&b.inputs).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: input {i}");
    }
    assert_eq!(a.targets.len(), b.targets.len(), "{what}: target length");
    for (i, (x, y)) in a.targets.iter().zip(&b.targets).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: target {i}");
    }
}

#[test]
fn epoch_is_bit_identical_across_a_mid_epoch_process_death() {
    let root = temp_root();
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create test root");

    // One dataset, partitioned across three members by the shared ring.
    let out = small_output(2, 8, 256);
    let ring = HashRing::new(&MEMBERS);
    for name in MEMBERS {
        let part = partition_output(&out, &ring, name, REPLICATION);
        ShardStore::ingest(&root.join(name), &part, StoreConfig::default())
            .unwrap_or_else(|e| panic!("ingest partition {name}: {e}"));
    }
    // The in-memory reference in canonical key order: what one server
    // holding the whole store would batch from.
    let mut keyed: Vec<(ShardKey, Arc<SampleSet>)> = out
        .sets
        .iter()
        .flatten()
        .enumerate()
        .map(|(pos, s)| (set_key(s, pos), Arc::new(s.clone())))
        .collect();
    keyed.sort_by_key(|(k, _)| *k);
    let reference: Vec<Arc<SampleSet>> = keyed.into_iter().map(|(_, s)| s).collect();

    // The victim's connection 0 serves the manifest as request 0, then
    // tensor fan-outs; die@0:2 kills the process on its second tensor
    // request — mid-epoch, with batches already delivered.
    let mut servers: Vec<Server> = MEMBERS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let trace = root.join(format!("trace_{name}.json"));
            let fault = (i == VICTIM).then_some("die@0:2");
            spawn_member(&root, name, 0, Some(&trace), fault)
        })
        .collect();
    let members: Vec<ClusterMember> = MEMBERS
        .iter()
        .zip(&servers)
        .map(|(name, s)| ClusterMember::new(*name, s.addr.clone()))
        .collect();

    let spec = BatchSpec {
        seed: 42,
        batch_size: 4,
        tokens: 16,
    };
    let _ = sickle_obs::drain();
    sickle_obs::set_enabled(true);
    let (batches, down) = {
        let _epoch = sickle_obs::span!("client.epoch");
        let mut cluster = ClusterClient::connect(
            &members,
            ClusterConfig {
                replication: REPLICATION,
                client: ClientConfig {
                    retries: 2,
                    backoff: Duration::from_millis(5),
                    backoff_cap: Duration::from_millis(100),
                    seed: 11,
                    timeout: Duration::from_secs(5),
                    ..ClientConfig::default()
                },
                // This test pins the mark-down itself; pick a window far
                // past the epoch so the victim cannot expire into a
                // re-probe candidate before `down_members` is read.
                reprobe_base: Duration::from_secs(60),
                reprobe_cap: Duration::from_secs(120),
            },
        )
        .expect("connect cluster");
        assert_eq!(cluster.n(), 2 * 8, "union of partitions covers the store");
        let batches = cluster.epoch(spec).expect("epoch across a member death");
        let down: Vec<String> = cluster
            .down_members()
            .into_iter()
            .map(str::to_string)
            .collect();
        // Survivors stop cleanly (and flush their traces).
        for (name, result) in cluster.shutdown_all() {
            result.unwrap_or_else(|e| panic!("shutdown {name}: {e}"));
        }
        (batches, down)
    };
    sickle_obs::set_enabled(false);

    assert_eq!(
        down,
        vec![MEMBERS[VICTIM].to_string()],
        "exactly the killed member is marked down"
    );

    // Bit-identity per batch — which also proves zero duplicated and zero
    // missing samples, since the reference epoch is a permutation of all
    // 16 keys.
    assert_eq!(batches.len(), 4);
    let mut rows = 0;
    for (i, batch) in batches.iter().enumerate() {
        let expected = local_batch(&reference, spec, i).expect("reference batch");
        assert_bit_identical(batch, &expected, &format!("batch {i}"));
        rows += batch.shape.batch;
    }
    assert_eq!(rows, 2 * 8, "every sample served exactly once");

    // Process post-mortem: the victim died with the fault's exit code and
    // never flushed a trace; the survivors exited zero.
    for (i, server) in servers.iter_mut().enumerate() {
        let status = wait_with_deadline(&mut server.child, MEMBERS[i]);
        if i == VICTIM {
            assert_eq!(
                status.code(),
                Some(DIE_EXIT_CODE),
                "victim exited {status}, wanted the die fault's code"
            );
            assert!(
                !root.join(format!("trace_{}.json", MEMBERS[i])).exists(),
                "a killed process must not have flushed a trace"
            );
        } else {
            assert!(status.success(), "{} exited {status}", MEMBERS[i]);
        }
    }
    for server in servers.drain(..) {
        server.drain.join().expect("stderr drain");
    }

    // Merged trace: client + two survivors, cross-process links intact,
    // and the failover hop recorded.
    let client_text = sickle_obs::export::to_chrome_trace(&sickle_obs::drain());
    let mut texts = vec![client_text];
    for (i, name) in MEMBERS.iter().enumerate() {
        if i != VICTIM {
            texts.push(
                std::fs::read_to_string(root.join(format!("trace_{name}.json")))
                    .unwrap_or_else(|e| panic!("survivor {name} trace: {e}")),
            );
        }
    }
    let merged = merge_chrome_traces(&texts).expect("merge traces");
    let stats = validate_chrome_trace(&merged).expect("merged trace validates");
    assert!(
        stats.pids >= 3,
        "expected client + 2 survivor tracks, got {}",
        stats.pids
    );
    assert!(
        stats.cross_process_links >= 1,
        "no server span parented under a client span"
    );
    assert!(
        merged.contains("cluster.failover"),
        "merged trace does not show the failover hop"
    );
    if let Ok(dir) = std::env::var("SICKLE_CLUSTER_TRACE_OUT") {
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create SICKLE_CLUSTER_TRACE_OUT");
        std::fs::write(dir.join("failover_merged_trace.json"), &merged)
            .expect("write merged failover trace");
    }

    std::fs::remove_dir_all(&root).ok();
}

/// Kill-then-restart: after a member dies mid-epoch and is failed over
/// away from, restarting the process on the same address must bring it
/// back into rotation via the expired mark-down's re-probe — no client
/// restart, no reconfiguration. Every epoch before, during, and after the
/// bounce stays bit-identical to the single-store reference.
#[test]
fn restarted_member_rejoins_after_mark_down_expiry() {
    let root = temp_root().with_file_name(format!("sickle_cluster_rejoin_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create test root");

    let out = small_output(2, 8, 256);
    let ring = HashRing::new(&MEMBERS);
    for name in MEMBERS {
        let part = partition_output(&out, &ring, name, REPLICATION);
        ShardStore::ingest(&root.join(name), &part, StoreConfig::default())
            .unwrap_or_else(|e| panic!("ingest partition {name}: {e}"));
    }
    let mut keyed: Vec<(ShardKey, Arc<SampleSet>)> = out
        .sets
        .iter()
        .flatten()
        .enumerate()
        .map(|(pos, s)| (set_key(s, pos), Arc::new(s.clone())))
        .collect();
    keyed.sort_by_key(|(k, _)| *k);
    let reference: Vec<Arc<SampleSet>> = keyed.into_iter().map(|(_, s)| s).collect();

    let mut servers: Vec<Server> = MEMBERS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let fault = (i == VICTIM).then_some("die@0:2");
            spawn_member(&root, name, 0, None, fault)
        })
        .collect();
    let members: Vec<ClusterMember> = MEMBERS
        .iter()
        .zip(&servers)
        .map(|(name, s)| ClusterMember::new(*name, s.addr.clone()))
        .collect();

    let spec = BatchSpec {
        seed: 7,
        batch_size: 4,
        tokens: 16,
    };
    let mut cluster = ClusterClient::connect(
        &members,
        ClusterConfig {
            replication: REPLICATION,
            client: ClientConfig {
                retries: 2,
                backoff: Duration::from_millis(5),
                backoff_cap: Duration::from_millis(100),
                seed: 23,
                timeout: Duration::from_secs(5),
                ..ClientConfig::default()
            },
            // Fast expiry so the bounce-and-rejoin fits a test budget.
            reprobe_base: Duration::from_millis(50),
            reprobe_cap: Duration::from_millis(250),
        },
    )
    .expect("connect cluster");

    let check_epoch = |cluster: &mut ClusterClient, what: &str| {
        let batches = cluster
            .epoch(spec)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        for (i, batch) in batches.iter().enumerate() {
            let expected = local_batch(&reference, spec, i).expect("reference batch");
            assert_bit_identical(batch, &expected, &format!("{what} batch {i}"));
        }
    };

    // Epoch 1 rides through the injected death.
    check_epoch(&mut cluster, "epoch across the death");
    assert_eq!(
        cluster.down_members(),
        vec![MEMBERS[VICTIM]],
        "the killed member is marked down"
    );
    let status = wait_with_deadline(&mut servers[VICTIM].child, MEMBERS[VICTIM]);
    assert_eq!(status.code(), Some(DIE_EXIT_CODE), "victim died by fault");

    // Restart the victim on its old address (same name, same partition,
    // no fault). The client is not told: the re-probe must find it.
    let old_port: u16 = servers[VICTIM]
        .addr
        .rsplit_once(':')
        .expect("host:port")
        .1
        .parse()
        .expect("port number");
    let revived = spawn_member(&root, MEMBERS[VICTIM], old_port, None, None);
    assert_eq!(
        revived.addr, servers[VICTIM].addr,
        "restart must rebind the old address"
    );

    // Epochs stay correct while the mark-down expires and the member is
    // probed back in; eventually no member is down.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut round = 0usize;
    loop {
        round += 1;
        check_epoch(&mut cluster, &format!("post-restart epoch {round}"));
        if cluster.down_members().is_empty() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "victim never rejoined: down={:?} after {round} epochs",
            cluster.down_members()
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // One more full epoch with the whole fleet live.
    check_epoch(&mut cluster, "epoch after rejoin");
    assert!(cluster.down_members().is_empty());

    for (name, result) in cluster.shutdown_all() {
        result.unwrap_or_else(|e| panic!("shutdown {name}: {e}"));
    }
    let old_victim = servers.remove(VICTIM);
    old_victim.drain.join().expect("victim stderr drain");
    for mut server in servers {
        let status = wait_with_deadline(&mut server.child, "survivor");
        assert!(status.success(), "survivor exited {status}");
        server.drain.join().expect("stderr drain");
    }
    let mut revived = revived;
    let status = wait_with_deadline(&mut revived.child, "revived member");
    assert!(status.success(), "revived member exited {status}");
    revived.drain.join().expect("revived stderr drain");

    std::fs::remove_dir_all(&root).ok();
}
