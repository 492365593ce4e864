//! Runs the overload-policy grid and the replica-failover experiment and
//! writes `BENCH_fault.json`.
fn main() {
    let quick = circnn_bench::quick_mode();
    println!("CirCNN reproduction — overload policies and replica failover (quick = {quick})\n");
    let (points, failover) = circnn_bench::fault::run(quick);
    circnn_bench::fault::print(&points, &failover);
    let json = circnn_bench::fault::to_json(&points, &failover);
    let path = "BENCH_fault.json";
    std::fs::write(path, json).expect("writing trajectory file");
    println!("\nwrote {path}");
}
