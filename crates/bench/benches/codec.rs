//! Microbenchmarks of the log codec: binary encode/decode and LZSS
//! compress/decompress throughput on a realistic browser log.

use bench::timing::Samples;

use idna_replay::codec::{compress, decode_log, decompress, encode_log};
use idna_replay::recorder::record;
use tvm::scheduler::RunConfig;
use workloads::browser::{browser_program, BrowserConfig};

fn report_bytes(name: &str, m: &Samples, bytes: usize) {
    let mib_per_sec = m.per_second(bytes as u64) / (1024.0 * 1024.0);
    println!("codec/{name:<10} {}  {mib_per_sec:.1} MiB/s", m.describe());
}

fn main() {
    let cfg = BrowserConfig { fetchers: 4, parsers: 3, jobs: 16, work: 48 };
    let program = browser_program(&cfg);
    let recording = record(&program, &RunConfig::chunked(3, 1, 8).with_max_steps(10_000_000));
    let encoded = encode_log(&recording.log);
    let compressed = compress(&encoded);

    let m = Samples::take(|| encode_log(&recording.log));
    report_bytes("encode", &m, encoded.len());
    let m = Samples::take(|| decode_log(&encoded).expect("decode"));
    report_bytes("decode", &m, encoded.len());
    let m = Samples::take(|| compress(&encoded));
    report_bytes("compress", &m, encoded.len());
    let m = Samples::take(|| decompress(&compressed).expect("decompress"));
    report_bytes("decompress", &m, encoded.len());
}
