//! Front-end connection sweep binary; writes `BENCH_wire.json`.

fn main() {
    let quick = circnn_bench::quick_mode();
    println!("CirCNN reproduction — front-end connection sweep (quick = {quick})\n");
    let sweep = circnn_bench::wire::run_sweep(quick);
    circnn_bench::wire::print_sweep(&sweep);
    let json = circnn_bench::wire::to_json(&sweep);
    std::fs::write("BENCH_wire.json", json).expect("writing BENCH_wire.json");
    println!("\nwrote BENCH_wire.json ({} sweep points)", sweep.len());
}
