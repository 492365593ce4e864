//! §3.3 empirically: block-circulant networks are universal approximators,
//! with error falling as the width grows — at a fraction of the dense
//! parameter count.
//!
//! ```text
//! cargo run --example universal_approx --release
//! ```

use circnn::tensor::init::seeded_rng;
use circnn_bench::approx::{circulant_regressor, dense_regressor, train_and_eval};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("target: fixed smooth function on [0,1]^8; held-out MSE vs hidden width\n");
    println!(
        "{:>6}  {:>16}  {:>14}  {:>16}  {:>14}",
        "width", "circulant MSE", "circ params", "dense MSE", "dense params"
    );
    for width in [8usize, 16, 32, 64, 128] {
        let k = width.min(8);
        let mut rng = seeded_rng(9);
        let mut circ = circulant_regressor(&mut rng, width, k)?;
        let rc = train_and_eval(&mut circ, width, 30, 9);
        let mut rng = seeded_rng(9);
        let mut dense = dense_regressor(&mut rng, width);
        let rd = train_and_eval(&mut dense, width, 30, 9);
        println!(
            "{width:>6}  {:>16.5}  {:>14}  {:>16.5}  {:>14}",
            rc.test_mse, rc.params, rd.test_mse, rd.params
        );
    }
    println!("\nerror falls with width for both; the circulant net needs ~k x fewer parameters");
    Ok(())
}
