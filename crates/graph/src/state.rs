//! Weight checkpointing: serialize a graph's parameters (including
//! batch-norm moving statistics and quantizer thresholds) to JSON and back.
//! Used to cache the FP32 "model zoo" between experiments, playing the role
//! of the paper's TF-Slim pre-trained checkpoints.

use crate::ir::{Graph, Op};
use std::collections::BTreeMap;
use std::path::Path;
use tqt_rt::Json;
use tqt_tensor::Tensor;

/// A serializable snapshot of every stateful tensor in a graph.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StateDict {
    /// Name → (shape, flat data). A `BTreeMap` keeps the file diff-stable.
    pub tensors: BTreeMap<String, (Vec<usize>, Vec<f32>)>,
}

impl StateDict {
    /// Number of stored tensors.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// The JSON representation: `{"tensors": {name: [[shape], [data]]}}`.
    /// f32 values round-trip exactly (they are widened to f64 and printed
    /// with shortest-roundtrip formatting).
    pub fn to_json(&self) -> Json {
        let mut tensors = BTreeMap::new();
        for (name, (shape, data)) in &self.tensors {
            let entry = vec![
                Json::from(shape.iter().map(|&d| Json::from(d)).collect::<Vec<_>>()),
                Json::from(data.iter().map(|&v| Json::from(v)).collect::<Vec<_>>()),
            ];
            tensors.insert(name.clone(), Json::from(entry));
        }
        let mut root = BTreeMap::new();
        root.insert("tensors".to_string(), Json::Obj(tensors));
        Json::Obj(root)
    }

    /// Parses the representation produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a descriptive error if the value does not have the expected
    /// shape.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let tensors = json
            .get("tensors")
            .and_then(Json::as_obj)
            .ok_or("state dict missing \"tensors\" object")?;
        let mut sd = StateDict::default();
        for (name, entry) in tensors {
            let pair = entry
                .as_arr()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| format!("tensor {name}: expected [shape, data] pair"))?;
            let shape: Vec<usize> = pair[0]
                .as_arr()
                .ok_or_else(|| format!("tensor {name}: shape is not an array"))?
                .iter()
                .map(|d| {
                    d.as_f64()
                        .map(|d| d as usize)
                        .ok_or_else(|| format!("tensor {name}: non-numeric shape entry"))
                })
                .collect::<Result<_, _>>()?;
            let data: Vec<f32> = pair[1]
                .as_arr()
                .ok_or_else(|| format!("tensor {name}: data is not an array"))?
                .iter()
                .map(|v| {
                    v.as_f64()
                        .map(|v| v as f32)
                        .ok_or_else(|| format!("tensor {name}: non-numeric data entry"))
                })
                .collect::<Result<_, _>>()?;
            let numel: usize = shape.iter().product();
            if numel != data.len() {
                return Err(format!(
                    "tensor {name}: shape {shape:?} does not match {} values",
                    data.len()
                ));
            }
            sd.tensors.insert(name.clone(), (shape, data));
        }
        Ok(sd)
    }

    /// Writes the snapshot as JSON.
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_string())
    }

    /// Reads a snapshot from JSON.
    ///
    /// # Errors
    ///
    /// Returns any I/O or parse error.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        let json = Json::parse(&text)
            .map_err(|e| std::io::Error::other(format!("{path:?}: {e}")))?;
        StateDict::from_json(&json).map_err(std::io::Error::other)
    }
}

impl Graph {
    /// Captures all parameters, batch-norm moving statistics, and
    /// calibrated thresholds.
    pub fn state_dict(&mut self) -> StateDict {
        let mut sd = StateDict::default();
        for p in self.params_mut() {
            sd.tensors.insert(
                p.name.clone(),
                (p.value.dims().to_vec(), p.value.data().to_vec()),
            );
        }
        for (_, node) in self.iter() {
            if let Op::BatchNorm(bn) = &node.op {
                let (mean, var) = bn.running_stats();
                sd.tensors.insert(
                    format!("{}/running_mean", node.name),
                    (mean.dims().to_vec(), mean.data().to_vec()),
                );
                sd.tensors.insert(
                    format!("{}/running_var", node.name),
                    (var.dims().to_vec(), var.data().to_vec()),
                );
            }
        }
        sd
    }

    /// Restores a snapshot produced by [`state_dict`](Self::state_dict) on
    /// a structurally identical graph.
    ///
    /// # Panics
    ///
    /// Panics if a parameter is missing from the snapshot or has a
    /// different shape — loading into the wrong architecture is a bug, not
    /// a recoverable condition.
    pub fn load_state_dict(&mut self, sd: &StateDict) {
        for p in self.params_mut() {
            let (dims, data) = sd
                .tensors
                .get(&p.name)
                .unwrap_or_else(|| panic!("state dict missing parameter {}", p.name));
            assert_eq!(
                dims,
                &p.value.dims().to_vec(),
                "shape mismatch for {}",
                p.name
            );
            p.value = Tensor::from_vec(dims.clone(), data.clone());
            if p.kind == tqt_nn::ParamKind::Threshold {
                // A checkpointed threshold is by definition calibrated.
            }
        }
        // Mark any loaded thresholds calibrated.
        for t in self.thresholds_mut() {
            if sd.tensors.contains_key(&t.param.name) {
                t.calibrated = true;
            }
        }
        let names: Vec<String> = self.iter().map(|(_, n)| n.name.clone()).collect();
        for name in names {
            let id = self.find(&name).unwrap(); // tqt:allow(unwrap): name taken from this graph's own node list
            if let Op::BatchNorm(bn) = &mut self.node_mut(id).op {
                let mean_key = format!("{name}/running_mean");
                let var_key = format!("{name}/running_var");
                if let (Some((md, m)), Some((vd, v))) =
                    (sd.tensors.get(&mean_key), sd.tensors.get(&var_key))
                {
                    bn.set_running_stats(
                        Tensor::from_vec(md.clone(), m.clone()),
                        Tensor::from_vec(vd.clone(), v.clone()),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fexec::build_arena;
    use crate::{FloatExecutor, FloatPlan};
    use tqt_nn::{BatchNorm, Conv2d};
    use tqt_tensor::conv::Conv2dGeom;
    use tqt_tensor::init;

    fn net(seed: u64) -> Graph {
        let mut rng = init::rng(seed);
        let mut g = Graph::new();
        let x = g.add_input("input");
        let c = g.add(
            "conv",
            Op::Conv(Conv2d::new("conv", 1, 2, Conv2dGeom::same(3), &mut rng)),
            &[x],
        );
        let b = g.add("bn", Op::BatchNorm(BatchNorm::new("bn", 2, 0.9, 1e-5)), &[c]);
        g.set_output(b);
        g
    }

    #[test]
    fn roundtrip_restores_outputs() {
        let mut rng = init::rng(80);
        let mut g1 = net(80);
        // Train a bit so running stats are non-trivial.
        let arena = build_arena(&mut g1);
        let mut ex = FloatExecutor::new(FloatPlan::new(&mut g1, &[4, 1, 5, 5]), &g1);
        for _ in 0..5 {
            let x = init::normal([4, 1, 5, 5], 1.0, 2.0, &mut rng);
            ex.forward(&mut g1, &arena, &x);
        }
        let sd = g1.state_dict();
        let mut g2 = net(81); // different seed => different weights
        let x = init::normal([2, 1, 5, 5], 0.0, 1.0, &mut rng);
        assert!(g1.infer(&x).max_abs_diff(&g2.infer(&x)) > 1e-4);
        g2.load_state_dict(&sd);
        let y1 = g1.infer(&x);
        let y2 = g2.infer(&x);
        y1.assert_close(&y2, 0.0);
    }

    #[test]
    fn json_file_roundtrip() {
        let mut g = net(82);
        let sd = g.state_dict();
        let dir = std::env::temp_dir().join("tqt_state_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        sd.save(&path).unwrap();
        let sd2 = StateDict::load(&path).unwrap();
        assert_eq!(sd, sd2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "missing parameter")]
    fn load_rejects_wrong_architecture() {
        let mut g = net(83);
        let sd = StateDict::default();
        g.load_state_dict(&sd);
    }

    #[test]
    fn thresholds_roundtrip_as_calibrated() {
        use crate::ir::{ThresholdMode, ThresholdState};
        use tqt_quant::calib::ThresholdInit;
        use tqt_quant::QuantSpec;
        let mut g = net(84);
        let tid = g.add_threshold(ThresholdState::new(
            "t",
            QuantSpec::INT8,
            ThresholdInit::Max,
            ThresholdMode::Trained,
        ));
        g.thresholds_mut()[tid].set_log2_t(1.25);
        let sd = g.state_dict();
        let mut g2 = net(85);
        let tid2 = g2.add_threshold(ThresholdState::new(
            "t",
            QuantSpec::INT8,
            ThresholdInit::Max,
            ThresholdMode::Trained,
        ));
        g2.load_state_dict(&sd);
        assert!(g2.thresholds()[tid2].calibrated);
        assert_eq!(g2.thresholds()[tid2].log2_t(), 1.25);
    }
}
