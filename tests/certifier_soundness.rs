//! Property test for the translation validator: on random quantized
//! graphs from the shared generator, a certified lowering must actually
//! be bit-identical — the baked float graph and the integer engine agree
//! exactly on every probe, serially and under a multi-worker pool, for
//! both the unfused and the fused lowering.
//!
//! This closes the loop on `tqt_verify::translate`: the certifier claims
//! "int engine ≡ exact rational fake-quant reference", and the f32
//! emulation equals that reference by the pow2-exactness lemmas, so
//! *certified ⇒ float/int bit-identity* is the observable consequence a
//! certifier bug would break. A divergence here with a clean certificate
//! means the validator is unsound — the worst class of verifier bug.

mod common;

use common::{build, net_gen, NetSpec};
use tqt_fixedpoint::{fuse_with_chains, lower_with_provenance};
use tqt_graph::{quantize_graph, QuantizeOptions, WeightBits};
use tqt_rt::check::Config;
use tqt_rt::{check, pool, prop_assert};
use tqt_tensor::init;
use tqt_verify::{analyze, certify, checked_optimize, verify, Stage};

const DIMS: [usize; 4] = [2, 2, 8, 8];

#[test]
fn certified_random_graphs_are_bit_identical() {
    check!(Config::cases(12), net_gen(), |spec: &NetSpec| {
        let mut g = build(spec);
        let r = checked_optimize(&mut g, &DIMS);
        prop_assert!(r.is_clean(), "transform invariants:\n{r}");

        quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(WeightBits::Int8));
        let mut rng = init::rng(spec.seed + 3);
        let calib = init::normal([4, 2, 8, 8], 0.0, 1.0, &mut rng);
        g.calibrate(&calib);
        let r = verify(&g, &DIMS, Stage::Calibrated);
        prop_assert!(r.is_clean(), "calibrated stage:\n{r}");

        // Certify the unfused lowering...
        let (ig, prov) =
            lower_with_provenance(&mut g).map_err(|e| format!("lowering refused: {e}"))?;
        let proven = analyze(&ig, &DIMS);
        prop_assert!(proven.proven(), "interval analysis:\n{}", proven.report);
        let cert = certify(&ig, &prov, &proven, &DIMS);
        prop_assert!(cert.is_clean(), "translation validation:\n{cert}");

        // ...and the fused one, against the fusion-re-keyed provenance.
        let (fig, chains) = fuse_with_chains(ig.clone());
        let mut fprov = prov.clone();
        fprov.record_fusion(&chains);
        let fproven = analyze(&fig, &DIMS);
        prop_assert!(fproven.proven(), "fused interval analysis:\n{}", fproven.report);
        let fcert = certify(&fig, &fprov, &fproven, &DIMS);
        prop_assert!(fcert.is_clean(), "fused translation validation:\n{fcert}");

        // Certified ⇒ bit-identical: the f32 emulation and the integer
        // engine must agree exactly, on nominal and saturating inputs,
        // serially and with more workers than a CI core has.
        for sigma in [1.0f32, 4.0] {
            let x = init::normal(DIMS.to_vec(), 0.0, sigma, &mut rng);
            let yf = g.infer(&x);
            for threads in [1usize, 4] {
                pool::set_threads(threads);
                let yi = ig.run(&x).dequantize();
                prop_assert!(
                    yf == yi,
                    "certified but float != int (sigma {sigma}, {threads} thread(s))"
                );
                let yif = fig.run(&x).dequantize();
                prop_assert!(
                    yf == yif,
                    "certified but float != fused int (sigma {sigma}, {threads} thread(s))"
                );
            }
            pool::set_threads(0);
        }
        Ok(())
    });
}
