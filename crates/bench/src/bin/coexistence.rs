//! Ablation C: coexistence of real-time channels with best-effort traffic.
//!
//! The paper's architecture serves best-effort (TCP) traffic from a FCFS
//! queue that is strictly lower priority than the deadline-sorted RT queue.
//! This experiment sweeps the offered best-effort load on a link shared with
//! admitted RT channels and shows that RT deadline misses stay at zero while
//! best-effort throughput degrades gracefully (drops appear once its queue
//! overflows).
//!
//! Usage: `cargo run -p rt-bench --bin coexistence`

use rt_bench::report::Table;

fn main() {
    println!("Ablation C — RT guarantees vs offered best-effort load on a shared link\n");
    let mut results = Vec::new();
    let mut table = Table::new(&[
        "BE load (fraction of link)",
        "RT frames",
        "RT misses",
        "RT worst latency (us)",
        "BE delivered",
        "BE dropped",
    ]);
    for load in [0.0, 0.25, 0.5, 0.75, 0.9, 1.1] {
        let r = rt_bench::experiments::coexistence_run(load, 3, 10);
        table.row_strings(vec![
            format!("{load:.2}"),
            r.rt_delivered.to_string(),
            r.rt_misses.to_string(),
            format!("{:.1}", r.rt_worst_latency_ns as f64 / 1000.0),
            r.be_delivered.to_string(),
            r.be_dropped.to_string(),
        ]);
        results.push(r);
    }
    table.print();
    println!();
    let rt_ok = results.iter().all(|r| r.rt_misses == 0);
    println!(
        "RT deadline misses across all load levels: {}",
        if rt_ok {
            "none (guarantees hold)"
        } else {
            "PRESENT (guarantee violated)"
        }
    );
}
