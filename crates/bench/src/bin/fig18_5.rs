//! Reproduction of **Figure 18.5**: number of accepted channels vs. number
//! of requested channels, SDPS vs. ADPS.
//!
//! Workload (as in the paper): 10 master nodes, 50 slave nodes, every
//! requested channel has the same parameters `C_i = 3`, `P_i = 100`,
//! `d_i = 40`; requests go master → slave.
//!
//! Usage: `cargo run -p rt-bench --bin fig18_5`

use rt_bench::experiments::admission_sweep;
use rt_bench::report::Table;

fn main() {
    // The figure's x axis: 20 to 200 requested channels.
    let points: Vec<u64> = (1..=10).map(|k| k * 20).collect();
    let rows = admission_sweep(&points);

    println!(
        "Figure 18.5 — accepted vs requested channels (C=3, P=100, D=40; 10 masters, 50 slaves)\n"
    );
    let mut table = Table::new(&["requested", "SDPS accepted", "ADPS accepted", "ADPS/SDPS"]);
    for row in &rows {
        let ratio = if row.sdps_accepted == 0 {
            0.0
        } else {
            row.adps_accepted as f64 / row.sdps_accepted as f64
        };
        table.row_strings(vec![
            row.requested.to_string(),
            row.sdps_accepted.to_string(),
            row.adps_accepted.to_string(),
            format!("{ratio:.2}"),
        ]);
    }
    table.print();

    let sdps_max = rows.iter().map(|r| r.sdps_accepted).max().unwrap_or(0);
    let adps_max = rows.iter().map(|r| r.adps_accepted).max().unwrap_or(0);
    println!();
    println!("SDPS saturates at {sdps_max} accepted channels (paper: ~60).");
    println!("ADPS saturates at {adps_max} accepted channels (paper: ~110-120).");
}
