//! Validation of the delay bound of **Eq. 18.1**: every message on an
//! admitted RT channel must be delivered within `d_i + T_latency`.
//!
//! The experiment establishes channels over the simulated network (full
//! request/response handshake on the wire), drives periodic traffic on each
//! and compares the measured worst-case end-to-end delay per channel against
//! the analytical bound.
//!
//! Usage: `cargo run -p rt-bench --bin delay_validation`

use rt_bench::experiments::delay_validation;
use rt_bench::report::Table;
use rt_core::DpsKind;

fn main() {
    let mut results = Vec::new();
    println!("Delay-bound validation (Eq. 18.1): worst measured latency vs d_i + T_latency\n");
    let mut table = Table::new(&[
        "DPS",
        "channels",
        "frames",
        "misses",
        "worst latency (us)",
        "bound (us)",
        "within bound",
    ]);
    for (dps, channels) in [
        (DpsKind::Symmetric, 40u64),
        (DpsKind::Asymmetric, 40),
        (DpsKind::Asymmetric, 100),
    ] {
        let r = delay_validation(channels, 20, dps);
        table.row_strings(vec![
            r.dps.clone(),
            format!("{}/{}", r.channels_established, r.channels_requested),
            r.frames_delivered.to_string(),
            r.deadline_misses.to_string(),
            format!("{:.1}", r.worst_latency_ns as f64 / 1000.0),
            format!("{:.1}", r.bound_ns as f64 / 1000.0),
            r.all_within_bound.to_string(),
        ]);
        results.push(r);
    }
    table.print();

    let all_ok = results.iter().all(|r| r.all_within_bound);
    println!();
    println!(
        "All admitted channels met the Eq. 18.1 bound: {}",
        if all_ok { "YES" } else { "NO" }
    );
}
