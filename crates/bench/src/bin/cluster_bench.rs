//! Sharded-cluster simulation (`results/cluster.txt`).
//!
//! Routes the serving workload through a consistent-hash cluster router
//! fronting replicated shards, kills one shard leader at a seeded tick,
//! and prints the deterministic oracle-comparison report: routing
//! distribution, failover timeline and the match verdicts. The report
//! is a pure function of `(--seed, topology, workload shape)`:
//! byte-identical for any `--jobs` value, so CI diffs it across thread
//! counts and pins it in `results/cluster.txt`.
//!
//! Flags (beyond the uniform `--seed/--jobs/--profile/--trace-out`):
//! `--shards N` (default 3), `--replicas N` followers per shard
//! (default 2), `--vnodes N` (default 64), `--clients N`,
//! `--per-client N`, `--crashes N` (default 1), `--tcp` to carry the
//! replication frames over real sockets, `--smoke` for the small CI
//! workload, `--traces-out PATH` to dump the router's span ring as
//! JSONL (one assembled span tree per routed request — the input
//! format of `hwm_traces`; byte-identical for any `--jobs` and either
//! transport). Exits 1 if the recovered cluster diverges from the
//! single-node oracle, 2 on bad flags.

use hwm_bench::cluster::{run_cluster_sim, ClusterSimConfig};

fn main() {
    let run = hwm_bench::run::BenchRun::start("cluster_bench");
    let parse = |flag: &str, default: usize| -> usize {
        match hwm_bench::arg_value(flag) {
            None => default,
            Some(s) => s.parse().unwrap_or_else(|_| {
                eprintln!("cluster_bench: {flag} wants a number, got {s:?}");
                std::process::exit(2);
            }),
        }
    };
    let smoke = hwm_bench::flag_present("--smoke");
    let defaults = ClusterSimConfig::new(run.seed());
    let config = ClusterSimConfig {
        shards: parse("--shards", defaults.shards),
        replicas: parse("--replicas", defaults.replicas),
        vnodes: parse("--vnodes", defaults.vnodes),
        clients: parse("--clients", if smoke { 6 } else { defaults.clients }),
        per_client: parse("--per-client", if smoke { 4 } else { defaults.per_client }),
        crashes: parse("--crashes", defaults.crashes),
        jobs: run.jobs(),
        tcp: hwm_bench::flag_present("--tcp"),
        ..defaults
    };
    let traces_out = hwm_bench::arg_value("--traces-out");
    match run_cluster_sim(&config) {
        Ok(outcome) => {
            if let Some(path) = &traces_out {
                let write = || -> std::io::Result<()> {
                    if let Some(parent) = std::path::Path::new(path)
                        .parent()
                        .filter(|p| !p.as_os_str().is_empty())
                    {
                        std::fs::create_dir_all(parent)?;
                    }
                    std::fs::write(path, &outcome.trace_jsonl)
                };
                if let Err(e) = write() {
                    eprintln!("warning: could not write traces to {path}: {e}");
                }
            }
            print!("{}", outcome.report());
            if outcome.matches() {
                // The greppable CI assertion: the recovered fleet's
                // summed counters equal the fault-free oracle's.
                println!("counters sum matches single-node oracle");
            }
            run.finish();
            if !outcome.matches() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("cluster_bench failed: {e}");
            std::process::exit(1);
        }
    }
}
