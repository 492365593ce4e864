//! Heap allocations per layer on LeNet-5's serving path.
//!
//! A counting global allocator wraps `System`. After warm-up (the scratch
//! buffers sized), each layer of `lenet5_circulant` is driven through
//! `infer_batch` on its own, as `Sequential::infer` drives it, and its
//! allocations are counted. What a layer allocates per call must not grow
//! with the batch: its output tensor (data + shape) is all it needs, which
//! is what a `Relu` allocates.
//!
//! This file holds exactly one test: the counter is process-global, and a
//! sibling test running concurrently would pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use circnn_models::lenet5_circulant;
use circnn_nn::{InferScratch, Layer, Sequential};
use circnn_tensor::{init, Tensor};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    /// Counting is gated per thread, so the test harness's own threads do
    /// not race into the measurement; `const` init keeps the TLS access
    /// itself allocation-free.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// `(layer name, allocations)` for one warm serving pass at `batch`.
fn per_layer_allocations(net: &Sequential, batch: usize) -> Vec<(&'static str, usize)> {
    let mut rng = init::seeded_rng(batch as u64);
    let mut x = init::uniform(&mut rng, &[batch, 1, 28, 28], -1.0, 1.0);
    // Like a digit: a third of the pixels exactly zero.
    for v in x.data_mut().iter_mut().step_by(3) {
        *v = 0.0;
    }
    let mut scratch = InferScratch::new();
    for _ in 0..2 {
        let _ = net.infer(&x, &mut scratch);
    }
    scratch.rewind();
    let mut counts = Vec::new();
    let mut act: Tensor = x;
    for layer in net.iter() {
        COUNTING.with(|c| c.set(true));
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let y = layer.infer_batch(&act, &mut scratch);
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        COUNTING.with(|c| c.set(false));
        counts.push((layer.name(), after - before));
        act = y;
    }
    counts
}

#[test]
fn lenet_serving_allocations_do_not_grow_with_the_batch() {
    let mut net = lenet5_circulant(&mut init::seeded_rng(5));
    net.set_training(false);
    let one = per_layer_allocations(&net, 1);
    let eight = per_layer_allocations(&net, 8);
    assert_eq!(eight, one, "per-layer allocations at B = 8 vs B = 1");
    let of = |name: &str| {
        one.iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("LeNet has a {name}"))
            .1
    };
    assert_eq!(of("Conv2d"), of("ReLU"), "per layer at B = 1: {one:?}");
}
