//! Micro-bench: event throughput of the discrete-event simulator,
//! end-to-end cost of the channel-establishment handshake over the wire,
//! and — the regression thermometer for the frame path — heap allocations
//! per forwarded frame on the 1024-node torus.
//!
//! The allocation count comes from a counting `#[global_allocator]` that
//! wraps [`System`]: the simulator crates themselves `forbid(unsafe_code)`,
//! so the instrumentation lives here in the bench binary, outside the code
//! under test.  The count is deterministic for a deterministic simulation
//! (same workload → same `Vec` growth → same number), so `bench_diff` can
//! gate on it far more tightly than on any wall-clock number.
//!
//! Always dumps its rows as `BENCH_simulator.json` at the workspace root
//! (override with `BENCH_SIMULATOR_JSON`) so CI archives the trajectory the
//! same way it archives `BENCH_fabric.json`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rt_bench::report::{json_object, write_artifact, Table, ToJson};
use rt_bench::MicroBench;
use rt_core::{DpsKind, RtChannelSpec, RtNetwork};
use rt_frames::rt_data::{DeadlineStamp, RtDataFrame};
use rt_netsim::{SimConfig, Simulator};
use rt_traffic::{FabricScenario, ScenarioFrameSource};
use rt_types::{ChannelId, Duration, MacAddr, NodeId, SimTime};

/// A [`System`] wrapper that counts every allocation the process makes.
/// Frees are not counted: the gated metric is allocation *pressure* per
/// frame, and every path that allocates also frees.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure delegation to `System`; the counter is a relaxed atomic add
// with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn rt_eth(from: u32, to: u32, deadline_ns: u64) -> rt_frames::EthernetFrame {
    RtDataFrame {
        eth_src: MacAddr::for_node(NodeId::new(from)),
        eth_dst: MacAddr::for_node(NodeId::new(to)),
        stamp: DeadlineStamp::new(deadline_ns, ChannelId::new(1)).unwrap(),
        src_port: 1,
        dst_port: 2,
        payload: vec![0u8; 1000],
    }
    .into_ethernet()
    .unwrap()
}

/// Injection spacing and window size of the allocation measurement: the
/// spacing keeps the torus in steady state (frames drain while later ones
/// inject), the window bounds how many frames are in flight at once.
const SPACING: Duration = Duration::from_micros(20);
const WINDOW: Duration = Duration::from_millis(5);
const WINDOW_FRAMES: u64 = WINDOW.as_nanos() / SPACING.as_nanos();

/// Serves pre-generated injections window by window, so the counted region
/// contains the simulator's own allocations (plus one batch `Vec` per
/// window), not the cost of *generating* 100k frames.
struct PrebuiltSource {
    items: std::iter::Peekable<std::vec::IntoIter<rt_netsim::FrameInjection>>,
}

impl rt_netsim::TrafficSource for PrebuiltSource {
    fn next_batch(&mut self, horizon: SimTime) -> Vec<rt_netsim::FrameInjection> {
        // Pre-sized so the window batches themselves don't show up in the
        // allocation count being measured.
        let mut batch = Vec::with_capacity(WINDOW_FRAMES as usize + 1);
        while self.items.peek().is_some_and(|f| f.at < horizon) {
            batch.push(self.items.next().expect("peeked an item"));
        }
        batch
    }

    fn is_exhausted(&self) -> bool {
        self.items.len() == 0
    }
}

/// One allocation measurement: allocations inside the windowed
/// `run_with_source` loop on the 1024-node torus, everything else (fabric
/// build, frame generation) outside the counted window.
///
/// Windowed injection keeps the run in its steady state: the only
/// per-frame allocation is materialising the `Delivery` at the receiver
/// (the clone of the injected frame's payload); everything else is the
/// amortised growth of the frame table and the calendar.
struct AllocRow {
    name: &'static str,
    frames: u64,
    allocs: u64,
    allocs_per_frame: f64,
}

impl ToJson for AllocRow {
    fn to_json(&self) -> String {
        json_object(&[
            ("name", self.name.to_json()),
            ("frames", self.frames.to_json()),
            ("allocs", self.allocs.to_json()),
            ("allocs_per_frame", self.allocs_per_frame.to_json()),
        ])
    }
}

/// Measure allocations per forwarded frame.
fn measure_allocs() -> AllocRow {
    const FRAMES: u64 = 100_000;
    let scenario = FabricScenario::torus(8, 8, 8, 8);
    let topology = scenario.topology();
    let batch = ScenarioFrameSource::new(scenario, FRAMES, SPACING)
        .payload_len(64)
        .drain_all();
    let mut sim = Simulator::with_topology(SimConfig::default(), topology)
        .expect("the torus fabric is valid");
    let mut source = PrebuiltSource {
        items: batch.into_iter().peekable(),
    };
    let before = ALLOCS.load(Ordering::Relaxed);
    sim.run_with_source(&mut source, WINDOW)
        .expect("bench injections are valid");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        sim.poll_deliveries().len() as u64,
        FRAMES,
        "every injected frame must be delivered"
    );
    AllocRow {
        name: "torus_8x8_1024_hot_path",
        frames: FRAMES,
        allocs,
        allocs_per_frame: allocs as f64 / FRAMES as f64,
    }
}

/// A pre-encoded JSON row, so timing rows and allocation rows can share one
/// artifact array.
struct RawJson(String);

impl ToJson for RawJson {
    fn to_json(&self) -> String {
        self.0.clone()
    }
}

fn main() {
    let mut harness = MicroBench::new();

    for frames in [100u64, 1000] {
        harness.bench(&format!("forward_{frames}_rt_frames_8_nodes"), || {
            let mut sim = Simulator::new(SimConfig::default(), (0..8).map(NodeId::new));
            for k in 0..frames {
                let src = (k % 8) as u32;
                let dst = ((k + 1) % 8) as u32;
                sim.inject(
                    NodeId::new(src),
                    rt_eth(src, dst, 1_000_000_000),
                    SimTime::from_micros(k),
                )
                .unwrap();
            }
            sim.run_to_idle();
            sim.events_processed()
        });
    }

    harness.bench("channel_establishment_handshake", || {
        let mut net = RtNetwork::builder()
            .star(8)
            .dps(DpsKind::Asymmetric)
            .build()
            .expect("a star always builds");
        net.establish_channel(
            NodeId::new(0),
            NodeId::new(1),
            RtChannelSpec::paper_default(),
        )
        .unwrap()
    });
    harness.finish("simulator");

    println!("\nallocations per forwarded frame (1024-node torus, 100k frames)");
    let alloc_row = measure_allocs();
    let mut table = Table::new(&["measurement", "allocs", "allocs/frame"]);
    table.row_strings(vec![
        alloc_row.name.to_string(),
        alloc_row.allocs.to_string(),
        format!("{:.2}", alloc_row.allocs_per_frame),
    ]);
    table.print();

    let artifact: Vec<RawJson> = harness
        .results()
        .iter()
        .map(|r| RawJson(r.to_json()))
        .chain([RawJson(alloc_row.to_json())])
        .collect();
    write_artifact("BENCH_SIMULATOR_JSON", "BENCH_simulator.json", &artifact);
}
