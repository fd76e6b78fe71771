//! Cross-IR grid agreement: the grid the float grid typer infers for each
//! float node equals the format the integer executor plan gives the
//! unfused lowered node of the same name, zoo-wide at every weight
//! bit-width. Both fold one grid rule (`tqt_fixedpoint::float_grid` on the
//! float side is stated with the plan's own format rules), so a
//! disagreement means the two IRs see different fixed-point grids on one
//! edge.

use tqt_fixedpoint::lower_with_provenance;
use tqt_graph::{quantize_graph, transforms, QuantizeOptions, WeightBits};
use tqt_models::ModelKind;
use tqt_tensor::init;
use tqt_verify::{infer_float_grids, Grid};

#[test]
fn float_grids_match_int_plan_formats_across_the_zoo() {
    for &model in ModelKind::all() {
        let dims = model.input_dims();
        for &wb in WeightBits::all() {
            let mut g = model.build(3);
            transforms::optimize(&mut g, &dims);
            quantize_graph(&mut g, QuantizeOptions::retrain_wt_th(wb));
            let mut rng = init::rng(4);
            let mut calib_dims = dims;
            calib_dims[0] = 4;
            g.calibrate(&init::normal(calib_dims, 0.0, 1.0, &mut rng));

            let float = infer_float_grids(&g, &dims);
            assert!(
                float.typed(),
                "{} w{}: {}",
                model.name(),
                wb.bits(),
                float.report
            );
            // Lowering bakes the float graph (weight quantizers removed),
            // so the float grids are inferred first.
            let (ig, _) = lower_with_provenance(&mut g).expect("a calibrated zoo model lowers");
            let plan = ig.plan(&dims);

            let mut checked = 0;
            for (id, node) in ig.nodes().iter().enumerate() {
                let Some(fid) = g.find(&node.name) else {
                    continue;
                };
                let Some(grid) = float.grids[fid] else {
                    continue; // the float input: no grid on the float side
                };
                assert_eq!(
                    grid,
                    Grid::from_format(plan.format(id)),
                    "{} w{}: node `{}`",
                    model.name(),
                    wb.bits(),
                    node.name
                );
                checked += 1;
            }
            assert_eq!(
                checked,
                ig.nodes().len() - 1,
                "{} w{}",
                model.name(),
                wb.bits()
            );
        }
    }
}
