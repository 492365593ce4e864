//! Fault injection + quick-mode smoke runs of every experiment harness
//! (the binaries exercised as library calls so `cargo test` covers them).

use circnn::models::robustness::{accuracy_under_faults, inject_bit_flips};
use circnn::models::zoo::Benchmark;
use circnn::nn::trainer::{evaluate_accuracy, train_classifier, TrainConfig};
use circnn::nn::Adam;
use circnn::tensor::init::seeded_rng;

#[test]
fn few_bit_flips_degrade_gracefully_many_destroy() {
    let full = Benchmark::Mnist.dataset(280, 1);
    let (train, test) = full.split_at(200);
    let mut rng = seeded_rng(3);
    let mut net = Benchmark::Mnist.build_circulant(&mut rng);
    let mut opt = Adam::new(0.002);
    let cfg = TrainConfig {
        epochs: 5,
        batch_size: 16,
        ..Default::default()
    };
    let _ = train_classifier(&mut net, &mut opt, &train.images, &train.labels, &cfg);
    let clean = evaluate_accuracy(&mut net, &test.images, &test.labels);
    assert!(clean > 0.5, "model failed to train: {clean}");
    // A handful of flips: accuracy holds up.
    let mut light = {
        let mut rng2 = seeded_rng(3);
        let mut fresh = Benchmark::Mnist.build_circulant(&mut rng2);
        let mut opt2 = Adam::new(0.002);
        let _ = train_classifier(&mut fresh, &mut opt2, &train.images, &train.labels, &cfg);
        fresh
    };
    inject_bit_flips(&mut light, 3, &mut seeded_rng(5));
    let light_acc = evaluate_accuracy(&mut light, &test.images, &test.labels);
    assert!(
        light_acc > clean - 0.3,
        "3 flips collapsed accuracy: {clean} -> {light_acc}"
    );
}

#[test]
fn fault_curve_is_monotone_in_expectation_at_the_extremes() {
    // Untrained models: the curve utility itself must be well-formed.
    let ds = Benchmark::Mnist.dataset(30, 9);
    let mut rng = seeded_rng(11);
    let pts = accuracy_under_faults(
        |r| Benchmark::Mnist.build_circulant(r),
        &ds,
        &[0, 2, 2000],
        &mut rng,
    );
    assert_eq!(pts.len(), 3);
    assert!(pts.iter().all(|p| (0.0..=1.0).contains(&p.accuracy)));
}

#[test]
fn quick_mode_experiment_suite_runs() {
    // Exercises fig13/14/15 + alg3 end to end (cheap, simulation-only).
    let f13 = circnn_bench::fig13::run();
    assert!(f13.ours.equiv_gops_per_w > 100.0);
    let f14 = circnn_bench::fig14::run();
    assert_eq!(f14.len(), 3);
    let f15 = circnn_bench::fig15::run();
    assert!(f15.asic_improvement() > 1.0);
    let alg3 = circnn_bench::alg3::example();
    assert!((alg3.p_perf_gain - 0.538).abs() < 0.02);
}

#[test]
fn quick_mode_fault_experiments_run() {
    let (points, failover) = circnn_bench::fault::run(true);
    // Three policies × three overload levels, every offered request
    // accounted for.
    assert_eq!(points.len(), 9);
    for p in &points {
        assert_eq!(p.completed + p.shed + p.rejected, 240, "{p:?}");
    }
    // The failover run panics unless every routed reply is bitwise the
    // in-process `matmat`. The first request after the kill must not wait
    // out a timeout (the router's connect bound is 2 s), and the cluster
    // must keep serving afterwards.
    assert!(failover.steady_p50_us > 0.0, "{failover:?}");
    assert!(
        failover.first_after_kill_us > 0.0 && failover.first_after_kill_us < 2e6,
        "{failover:?}"
    );
    assert!(
        failover.recovered_p50_us > 0.0 && failover.recovered_p50_us.is_finite(),
        "{failover:?}"
    );
}

#[test]
fn connection_sweep_point_runs_with_connect_outside_the_window() {
    let p = circnn_bench::wire::measure_sweep(16, 8);
    // One latency sample per request, all of them answered.
    assert_eq!(p.replies, 16 * 8, "{p:?}");
    assert!(p.connect_s > 0.0 && p.connect_s.is_finite(), "{p:?}");
    assert!(p.event_rps > 0.0 && p.event_p99_us > 0.0, "{p:?}");
}
