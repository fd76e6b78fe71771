//! The lowered graph's shape rule (`IntOp::output_shape`) against the
//! float graph's (`Op::output_shape`): on every zoo model and on random
//! nets, at 4-, 8- and 16-bit weights, unfused and fused, integer shape
//! inference must be clean and give every node the dims of the float node
//! it came from. Lowering copies names one to one; a fused node has the
//! dims of the last member of its chain. The float rule is itself tied to
//! the reference interpreter's real outputs (`infer_shapes_matches_forward`
//! in `tqt-models`), so this closes the chain from the integer planner's
//! slot sizes to values the reference actually produces.

mod common;

use common::{build, net_gen, NetSpec};
use std::collections::HashMap;
use tqt_fixedpoint::{fuse_with_chains, lower};
use tqt_graph::{quantize_graph, transforms, Graph, QuantizeOptions, WeightBits};
use tqt_models::{ModelKind, INPUT_DIMS};
use tqt_rt::check;
use tqt_rt::check::Config;
use tqt_tensor::init;
use tqt_verify::infer_int_shapes;

/// Quantizes `g` at `bits`, calibrates it on two random images of
/// `image_dims`, lowers it, and checks the integer shapes of the
/// unfused and the fused lowering against the float shapes at batch 1
/// and 4. Returns the first disagreement.
fn check_lowered_shapes(
    mut g: Graph,
    image_dims: &[usize],
    bits: WeightBits,
    seed: u64,
) -> Result<(), String> {
    quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(bits));
    let mut calib_dims = image_dims.to_vec();
    calib_dims[0] = 2;
    let mut rng = init::rng(seed);
    g.calibrate(&init::normal(calib_dims, 0.0, 1.0, &mut rng));
    let ig = lower(&mut g);
    let (fg, chains) = fuse_with_chains(ig.clone());
    let last_member: HashMap<&str, &str> = chains
        .iter()
        .filter_map(|c| Some((c.fused_name.as_str(), c.members.last()?.as_str())))
        .collect();
    for batch in [1usize, 4] {
        let mut dims = image_dims.to_vec();
        dims[0] = batch;
        let float: HashMap<&str, Vec<usize>> = g
            .iter()
            .map(|(_, node)| node.name.as_str())
            .zip(g.infer_shapes(&dims))
            .collect();
        for (graph, what) in [(&ig, "unfused"), (&fg, "fused")] {
            let sr = infer_int_shapes(graph, &dims);
            if !sr.report.is_clean() {
                return Err(format!("{what} lowering at {dims:?}:\n{}", sr.report));
            }
            for (node, dims_int) in graph.nodes().iter().zip(&sr.shapes) {
                let name = node.name.as_str();
                let origin = last_member.get(name).copied().unwrap_or(name);
                let Some(dims_float) = float.get(origin) else {
                    return Err(format!("{what} node `{name}` has no float node `{origin}`"));
                };
                if dims_int != dims_float {
                    return Err(format!(
                        "{what} node `{name}` at batch {batch}: integer rule {dims_int:?}, \
                         float rule for `{origin}` {dims_float:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

#[test]
fn lowered_shapes_match_float_shapes_across_the_zoo() {
    for (i, &kind) in ModelKind::all().iter().enumerate() {
        for &bits in WeightBits::all() {
            let seed = 90 + i as u64;
            let mut g = kind.build(seed);
            transforms::optimize(&mut g, &INPUT_DIMS);
            if let Err(e) = check_lowered_shapes(g, &INPUT_DIMS, bits, seed + 300) {
                panic!("{} ({bits:?} weights): {e}", kind.name());
            }
        }
    }
}

#[test]
fn lowered_shapes_match_float_shapes_on_random_nets() {
    check!(Config::cases(12), net_gen(), |spec: &NetSpec| {
        for &bits in WeightBits::all() {
            let mut g = build(spec);
            transforms::optimize(&mut g, &[1, 2, 8, 8]);
            check_lowered_shapes(g, &[1, 2, 8, 8], bits, spec.seed + 5)
                .map_err(|e| format!("{bits:?} weights: {e}"))?;
        }
        Ok(())
    });
}
