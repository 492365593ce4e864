//! A workload's seeded input pool with its precomputed reference outputs.
//! The program under test sees only the inputs; every reply is compared
//! bit for bit with the reference computed here, in set-up, by direct
//! batch-1 calls into the model.

use circnn_wire::Request;

use crate::rng::SplitMix64;

/// Input vectors per workload; a workload whose requests carry `rows`
/// samples has `POOL_VECTORS / rows` requests.
pub const POOL_VECTORS: usize = 256;

/// A direct call into a model: `(x, batch, out)` with row-major slabs.
pub type DirectFn<'a> = dyn FnMut(&[f32], usize, &mut [f32]) + 'a;

pub struct Pool {
    /// Samples per request: 1 travels as `Infer`, more as `InferBatch`.
    pub rows: usize,
    pub input_len: usize,
    pub output_len: usize,
    /// `rows * input_len` values each.
    pub inputs: Vec<Vec<f32>>,
    /// `rows * output_len` values each.
    pub references: Vec<Vec<f32>>,
    /// The inputs as ready-to-encode wire requests.
    pub requests: Vec<Request>,
}

impl Pool {
    /// Draws `vectors / rows` requests of `rows` samples from `seed` and
    /// computes each sample's reference alone (batch 1) through `direct`.
    pub fn build(
        seed: u64,
        model: &str,
        input_len: usize,
        output_len: usize,
        rows: usize,
        vectors: usize,
        direct: &mut DirectFn<'_>,
    ) -> Pool {
        let mut rng = SplitMix64::stream(seed, 0x1_4907);
        let inputs: Vec<Vec<f32>> = (0..vectors / rows)
            .map(|_| rng.vector(rows * input_len))
            .collect();
        let references = inputs
            .iter()
            .map(|x| {
                let mut y = vec![0.0f32; rows * output_len];
                for r in 0..rows {
                    direct(
                        &x[r * input_len..(r + 1) * input_len],
                        1,
                        &mut y[r * output_len..(r + 1) * output_len],
                    );
                }
                y
            })
            .collect();
        let requests = inputs
            .iter()
            .map(|x| {
                if rows == 1 {
                    Request::Infer {
                        model: model.to_string(),
                        deadline_micros: 0,
                        input: x.clone(),
                    }
                } else {
                    Request::InferBatch {
                        model: model.to_string(),
                        deadline_micros: 0,
                        batch: rows as u32,
                        input: x.clone(),
                    }
                }
            })
            .collect();
        Pool {
            rows,
            input_len,
            output_len,
            inputs,
            references,
            requests,
        }
    }

    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Bitwise comparison with the reference of entry `pick`.
    pub fn matches(&self, pick: usize, output: &[f32]) -> bool {
        let reference = &self.references[pick];
        output.len() == reference.len()
            && output
                .iter()
                .zip(reference)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Self-test of the checker (`--flip-reference`): flips the lowest
    /// mantissa bit of one value in each reference, so every verified
    /// reply must fail and the run must exit non-zero.
    pub fn flip_references(&mut self) {
        for reference in &mut self.references {
            reference[0] = f32::from_bits(reference[0].to_bits() ^ 1);
        }
    }
}
