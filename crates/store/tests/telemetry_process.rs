//! Two-process telemetry: spawns the real `sickle-serve` binary with
//! `SICKLE_TRACE` set, streams traced batches into it from this process,
//! then merges the two Chrome traces and checks that the server's
//! per-request spans are parented under the client spans that issued
//! them — i.e. one GetBatch descends client → socket → server across two
//! distinct pids in a single Perfetto-loadable file.
//!
//! When `SICKLE_TELEMETRY_OUT` names a directory, the client, server, and
//! merged traces are copied there (the CI telemetry job uploads them as
//! artifacts and re-validates the merged file with
//! `trace_validate --require-cross-process`).

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use sickle_obs::export::{merge_chrome_traces, validate_chrome_trace};
use sickle_store::batching::{num_batches, BatchSpec};
use sickle_store::client::{ClientConfig, StoreClient};
use sickle_store::store::{ShardStore, StoreConfig};
use sickle_store::testutil::small_output;

fn temp_root() -> PathBuf {
    std::env::temp_dir().join(format!("sickle_telemetry_{}", std::process::id()))
}

/// Reads the spawned server's stderr until it announces its ephemeral
/// port, then hands the reader to a drain thread (the pipe must keep
/// flowing or a chatty server would block on a full buffer).
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

fn export_artifacts(dir: &Path, client: &str, server: &str, merged: &str) {
    std::fs::create_dir_all(dir).expect("create SICKLE_TELEMETRY_OUT");
    std::fs::write(dir.join("client_trace.json"), client).expect("write client trace");
    std::fs::write(dir.join("server_trace.json"), server).expect("write server trace");
    std::fs::write(dir.join("merged_trace.json"), merged).expect("write merged trace");
}

#[test]
fn merged_trace_links_client_and_server_processes() {
    let root = temp_root();
    let _ = std::fs::remove_dir_all(&root);
    let store_dir = root.join("store");
    let out = small_output(2, 4, 256);
    let store = ShardStore::ingest(&store_dir, &out, StoreConfig::default()).expect("ingest");
    let shards = store.manifest().len();
    drop(store);

    let server_trace = root.join("server_trace.json");
    let mut child = Command::new(env!("CARGO_BIN_EXE_sickle-serve"))
        .args([
            "--root",
            store_dir.to_str().expect("utf8 store dir"),
            "--port",
            "0",
            "--threads",
            "2",
            "--allow-shutdown",
            "--max-seconds",
            "60",
        ])
        .env("SICKLE_TRACE", &server_trace)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sickle-serve");

    let mut reader = BufReader::new(child.stderr.take().expect("piped stderr"));
    let addr = await_listen_addr(&mut reader);
    let drain = std::thread::spawn(move || for _ in reader.lines() {});

    // Traced client workload: one epoch of batches, each after the first
    // read ahead as `RemoteDataset` does, a Stats poll, then a clean
    // Shutdown so the server flushes its trace on exit.
    let _ = sickle_obs::drain();
    sickle_obs::set_enabled(true);
    {
        let _epoch = sickle_obs::span!("client.epoch");
        let mut client = StoreClient::new(
            &addr,
            ClientConfig {
                timeout: Duration::from_secs(10),
                ..ClientConfig::default()
            },
        );
        let spec = BatchSpec {
            seed: 7,
            batch_size: 4,
            tokens: 16,
        };
        let batches = num_batches(shards, spec.batch_size);
        for i in 0..batches {
            client.batch(spec, i).expect("traced batch");
            if i + 1 < batches {
                client.send_batch(spec, i + 1).expect("traced read-ahead");
            }
        }
        let snap = client.stats().expect("stats over the wire");
        assert!(snap.requests_total > 0, "server counted our requests");
        let final_snap = client.shutdown_server().expect("shutdown");
        assert!(final_snap.requests_total >= snap.requests_total);
    }
    sickle_obs::set_enabled(false);

    // The server blocks on its stop latch, so it exits as soon as the
    // Shutdown lands, not at its 60 s deadline.
    let deadline = Instant::now() + Duration::from_secs(2);
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("sickle-serve did not exit within 2s of Shutdown");
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(status.success(), "sickle-serve exited with {status}");
    drain.join().expect("stderr drain thread");

    let client_text = sickle_obs::export::to_chrome_trace(&sickle_obs::drain());
    let server_text = std::fs::read_to_string(&server_trace).expect("server trace written");
    let merged =
        merge_chrome_traces(&[server_text.clone(), client_text.clone()]).expect("merge traces");
    let stats = validate_chrome_trace(&merged).expect("merged trace validates");

    assert!(
        stats.pids >= 2,
        "expected two process tracks, got {}",
        stats.pids
    );
    assert!(
        stats.cross_process_links >= 1,
        "no server span parented under a client span"
    );
    assert!(
        stats.max_depth >= 3,
        "expected client.epoch → client.request → serve.request chain, depth {}",
        stats.max_depth
    );

    if let Ok(dir) = std::env::var("SICKLE_TELEMETRY_OUT") {
        export_artifacts(Path::new(&dir), &client_text, &server_text, &merged);
    }
    std::fs::remove_dir_all(&root).ok();
}
