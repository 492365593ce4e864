//! The names this benchmark defines: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the repo
//! root carries the same tables for the driver; the `matches_benchmark_json`
//! test keeps the two from drifting apart.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` is `new` worse (≤ 0 when it is no worse).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - base) / base,
            Better::Higher => (base - new) / base,
        }
    }
}

/// One end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// One per-layer metric, with the end-to-end metric it is predicted to
/// move (prose; the README holds the full interaction table).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Declared for `BENCHMARK.json` (the drift test reads it); a run does
    /// not judge per-layer metrics, so nothing else does.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

pub const FC_WIRE_CLOSED: &str = "fc-wire-closed";
pub const FC_WIRE_INTERACTIVE: &str = "fc-wire-interactive";
pub const LENET_WIRE_OPEN: &str = "lenet-wire-open";
pub const ENGINE_OFFLINE: &str = "engine-offline";
/// Not a workload of its own (see README, "Deviations"): the name of the
/// shape the traced run's shard section and rung 3 drive.
pub const SHARD_2X_CLOSED: &str = "shard-2x-closed";

/// `(name, why)` — the reasons are one line each; the README expands them.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        FC_WIRE_CLOSED,
        "FC 512x512 k16 over loopback, closed loop, 1 connection x 64 in flight (two full batches): compute is small, so wire framing, the event loop and serve batch formation do the work",
    ),
    (
        FC_WIRE_INTERACTIVE,
        "same server, 1 connection x 1 in flight: a lone request pays max_wait, the B=1 engine path and one loopback round trip, so batching delay shows as lost p50",
    ),
    (
        LENET_WIRE_OPEN,
        "LeNet-5 (circulant) over loopback, open loop, Poisson arrivals at a fixed rate, latency from due time: nn and core dominate, wire is a small share, queueing is real",
    ),
    (
        ENGINE_OFFLINE,
        "no sockets, no scheduler: a fixed FC/conv/RNN job list through the batch engine on f32 and on the i16 twins, plus lone B=1 calls; fft and core do all the work",
    ),
];

pub const SETUP_S: &str = "setup_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";
pub const THROUGHPUT_RPS: &str = "throughput_rps";
pub const LATENCY_P50_US: &str = "latency_p50_us";
pub const LATENCY_P99_US: &str = "latency_p99_us";
pub const THROUGHPUT_SPS_F32: &str = "throughput_sps_f32";
pub const THROUGHPUT_SPS_Q16: &str = "throughput_sps_q16";

/// Bounds are calibrated on the reference box (see README, "Bounds").
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: THROUGHPUT_RPS,
        unit: "req/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: LATENCY_P50_US,
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: LATENCY_P99_US,
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: THROUGHPUT_SPS_F32,
        unit: "samples/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: THROUGHPUT_SPS_Q16,
        unit: "samples/s",
        better: Better::Higher,
        bound: 0.25,
    },
];

/// The 12 LeNet layers as `nn.layer_us.*` names them: position and
/// `Layer::name()`, lower-cased. The traced run asserts the network still
/// has exactly these layers.
pub const LENET_LAYERS: [&str; 12] = [
    "00-conv2d",
    "01-relu",
    "02-maxpool2d",
    "03-circulantconv2d",
    "04-relu",
    "05-maxpool2d",
    "06-flatten",
    "07-circulantlinear",
    "08-relu",
    "09-circulantlinear",
    "10-relu",
    "11-linear",
];

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric, grouped by layer (= crate). All come from the
/// traced run.
pub const PER_LAYER: &[PerLayer] = &[
    // fft: one real-input plane dispatch (32 lanes) at the job shapes.
    lower("fft.fwd_real_ns_per_plane.k16", "ns"),
    lower("fft.fwd_real_ns_per_plane.k128", "ns"),
    lower("fft.inv_real_ns_per_plane.k16", "ns"),
    lower("fft.inv_real_ns_per_plane.k128", "ns"),
    lower("fft.planes_per_sample", "count"),
    lower("fft.share_of_core", "share"),
    // core: per-job timing of the engine-offline job kinds.
    lower("core.fc_ns_per_sample.b1", "ns"),
    lower("core.fc_ns_per_sample.b8", "ns"),
    lower("core.fc_ns_per_sample.b32", "ns"),
    lower("core.fc_default_threads_ns_per_sample.b32", "ns"),
    lower("core.single_sample_matvec_ns", "ns"),
    lower("core.fc_large_ns_per_sample.b32", "ns"),
    lower("core.conv_ns_per_sample.b32", "ns"),
    lower("core.rnn_ns_per_step.b1", "ns"),
    lower("core.rnn_ns_per_step.b8", "ns"),
    lower("core.q16_fc_ns_per_sample.b32", "ns"),
    lower("core.q16_fc_large_ns_per_sample.b32", "ns"),
    lower("core.q16_conv_ns_per_sample.b32", "ns"),
    lower("core.q16_rnn_ns_per_step.b8", "ns"),
    lower("core.flops_per_sample", "flop"),
    lower("core.bytes_per_sample", "B"),
    // nn: LeNet whole-network and per-layer inference.
    lower("nn.infer_us.b1", "us"),
    lower("nn.infer_us.b8", "us"),
    lower("nn.infer_us.b32", "us"),
    lower("nn.layer_us.00-conv2d", "us"),
    lower("nn.layer_us.01-relu", "us"),
    lower("nn.layer_us.02-maxpool2d", "us"),
    lower("nn.layer_us.03-circulantconv2d", "us"),
    lower("nn.layer_us.04-relu", "us"),
    lower("nn.layer_us.05-maxpool2d", "us"),
    lower("nn.layer_us.06-flatten", "us"),
    lower("nn.layer_us.07-circulantlinear", "us"),
    lower("nn.layer_us.08-relu", "us"),
    lower("nn.layer_us.09-circulantlinear", "us"),
    lower("nn.layer_us.10-relu", "us"),
    lower("nn.layer_us.11-linear", "us"),
    // ladder: the rung p50s the self times are differences of.
    lower("ladder.direct_us", "us"),
    lower("ladder.wire_p50_us", "us"),
    // serve: the workload's traffic submitted straight to the tenant.
    higher("serve.inproc_rps", "req/s"),
    lower("serve.inproc_p50_us", "us"),
    lower("serve.self_us", "us"),
    higher("serve.mean_occupancy", "count"),
    higher("serve.full_flush_share", "share"),
    lower("serve.timeout_flush_share", "share"),
    lower("serve.mean_infer_us", "us"),
    lower("serve.queue_wait_us", "us"),
    lower("serve.expired", "count"),
    lower("serve.shed", "count"),
    lower("serve.rejected", "count"),
    lower("serve.panics", "count"),
    // wire: codec calls, round trips, the generator's own send/recv.
    lower("wire.encode_request_ns", "ns"),
    lower("wire.decode_request_ns", "ns"),
    lower("wire.encode_reply_ns", "ns"),
    lower("wire.decode_reply_ns", "ns"),
    lower("wire.bytes_per_request", "B"),
    lower("wire.bytes_per_reply", "B"),
    lower("wire.ping_rtt_us", "us"),
    lower("wire.connect_us", "us"),
    lower("wire.client_send_us", "us"),
    lower("wire.client_recv_us", "us"),
    lower("wire.self_us", "us"),
    // shard: three call depths into the 2-shard deployment.
    lower("shard.single_node_p50_us", "us"),
    lower("shard.direct_leg_p50_us", "us"),
    lower("shard.router_inproc_p50_us", "us"),
    lower("shard.routed_p50_us", "us"),
    lower("shard.self_us", "us"),
    lower("shard.front_us", "us"),
    lower("shard.legs_per_request", "count"),
    // loadgen / trace: validity of the run itself.
    higher("loadgen.offered_rps", "req/s"),
    higher("loadgen.achieved_rps", "req/s"),
    lower("loadgen.lateness_p99_us", "us"),
    lower("loadgen.p99_us.r1000", "us"),
    lower("loadgen.p99_us.r2000", "us"),
    lower("loadgen.p99_us.r3000", "us"),
    higher("loadgen.slo_rate_rps", "req/s"),
    lower("trace.overhead_share", "share"),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(PER_LAYER.len() <= 128);
        for layer in LENET_LAYERS {
            let name = format!("nn.layer_us.{layer}");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    /// `BENCHMARK.json` is what the driver reads; it must say what this
    /// file says. Skipped where the file is absent (a bare copy of this
    /// directory).
    #[test]
    fn matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<Value> {
            match doc.get(key) {
                Some(Value::Arr(items)) => items.clone(),
                other => panic!("{key}: expected an array, got {other:?}"),
            }
        };
        let text_of = |v: &Value, key: &str| -> String {
            match v.get(key) {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("{key}: expected a string, got {other:?}"),
            }
        };

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (v, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(text_of(v, "name"), name);
            assert_eq!(text_of(v, "why"), why);
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (v, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(text_of(v, "name"), m.name);
            assert_eq!(text_of(v, "unit"), m.unit);
            assert_eq!(text_of(v, "better"), m.better.as_str());
            assert_eq!(v.get("bound").and_then(Value::as_f64), Some(m.bound));
            assert!(m.bound <= 0.25);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (v, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text_of(v, "name"), m.name);
            assert_eq!(text_of(v, "unit"), m.unit);
            assert_eq!(text_of(v, "better"), m.better.as_str());
        }
    }
}
