//! The model zoo through the reference interpreter: every model
//! backpropagates, and the symbolic shape rule (`Graph::infer_shapes`)
//! gives exactly the dims of every node output the interpreter's layers
//! compute for themselves — a check independent of the planned executor,
//! which sizes its slots from that same shape rule.

use tqt_models::{ModelKind, INPUT_DIMS};
use tqt_reference::{Interpreter, Mode};
use tqt_tensor::init;

#[test]
fn all_models_backprop() {
    let mut rng = init::rng(91);
    let x = init::normal([2, 3, 32, 32], 0.0, 1.0, &mut rng);
    for kind in ModelKind::all() {
        let mut g = kind.build(2);
        let mut interp = Interpreter::new();
        let y = interp.forward(&mut g, &x, Mode::Train);
        g.zero_grads();
        interp.backward(&mut g, &y);
        // At least one weight gradient must be non-zero.
        let any_grad = g
            .params_mut()
            .iter()
            .any(|p| p.grad.data().iter().any(|&v| v != 0.0));
        assert!(any_grad, "{kind} produced no gradients");
    }
}

/// The symbolic shape rule against the reference interpreter: for
/// every zoo model at batch 1 and 8, `Graph::infer_shapes` must give
/// exactly the dims of every node output a training-mode forward
/// retains.
#[test]
fn infer_shapes_matches_forward() {
    let mut rng = init::rng(93);
    for kind in ModelKind::all() {
        let mut g = kind.build(4);
        let mut interp = Interpreter::new();
        for batch in [1, 8] {
            let mut dims = INPUT_DIMS;
            dims[0] = batch;
            let shapes = g.infer_shapes(&dims);
            let x = init::normal(dims.to_vec(), 0.0, 1.0, &mut rng);
            interp.forward(&mut g, &x, Mode::Train);
            assert_eq!(shapes.len(), g.len(), "{kind}: one shape per node");
            for (id, act) in interp.activations().iter().enumerate() {
                assert_eq!(
                    shapes[id],
                    act.dims(),
                    "{kind} batch {batch}: node `{}`",
                    g.node(id).name
                );
            }
        }
    }
}
