//! # circnn-bench
//!
//! Experiment runners regenerating **every table and figure** of the
//! paper's evaluation, plus the ablations DESIGN.md calls out, plus the two
//! serving experiments that are not steady state. Each module matches one
//! artifact and each has a binary wrapper in `src/bin`:
//!
//! | Module / binary | Paper artifact |
//! |---|---|
//! | [`fig7`] / `fig7` | Fig. 7(a,b,c): compression ratios and accuracy |
//! | [`fig13`] / `fig13` | Fig. 13: FPGA GOPS & GOPS/W comparison |
//! | [`fig14`] / `fig14` | Fig. 14: throughput/energy vs IBM TrueNorth |
//! | [`fig15`] / `fig15` | Fig. 15: ASIC comparison incl. near-threshold |
//! | [`sec53`] / `sec53` | §5.3: embedded-processor measurements |
//! | [`alg3`] / `alg3` | Algorithm 3 design-space example (§4.3) |
//! | [`train_speedup`] / `train_speedup` | §3.4: 5–9× DBN training gain |
//! | [`ablations`] / `ablations` | design-choice ablations |
//! | [`wire`] / `wire` | front-end connection sweep, 16 → 4096 connections (`BENCH_wire.json`) |
//! | [`fault`] / `fault` | overload policies under offered load + replica failover (`BENCH_fault.json`) |
//!
//! Steady-state performance — engine ns/sample, serving throughput and
//! latency, the layer ladder — is measured by the repo benchmark in
//! `benchmark/` (`bash benchmark/run.sh`, contract in `BENCHMARK.json`),
//! not here: this crate holds no second copy of those measurements.
//!
//! Experiments honor the `CIRCNN_QUICK=1` environment variable to shrink
//! training workloads (used by the integration tests); the binaries default
//! to the full configuration.

#![forbid(unsafe_code)]

pub mod ablations;
pub mod fault;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig7;
pub mod sec53;
pub mod table;
pub mod train_speedup;
pub mod wire;

/// Algorithm-3 experiment (design-space optimization).
pub mod alg3;

/// Returns `true` when the quick (CI-sized) configuration is requested.
pub fn quick_mode() -> bool {
    std::env::var("CIRCNN_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}
