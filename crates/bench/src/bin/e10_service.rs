//! Prints the E10 table (persistent verification service across thread
//! and shard counts, with cert-cache hit rate and the overload scenario)
//! and drops the run's perf artifacts under `target/bench/`.
use utp_bench::experiments::e10_service as e10;

fn main() {
    let report = e10::run(256, 1024, &[1, 2, 4, 8], &[1, 2, 4]);
    println!("{}", e10::render(&report));
    utp_bench::emit_artifacts(&e10::artifacts(
        &report,
        "jobs=256 key_bits=1024 threads=1,2,4,8 shards=1,2,4",
    ));
}
