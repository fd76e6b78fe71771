//! Integer tensors with power-of-2 scale metadata (Q-format).

use tqt_quant::{round_half_even, QuantSpec};
use tqt_tensor::{Shape, Tensor};

/// The fixed-point format of an integer tensor: `real = int * 2^-frac`,
/// with values representable in `bits` (signed or unsigned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QFormat {
    /// Fractional length `f` (scale = `2^-f`; may be negative).
    pub frac: i32,
    /// Logical bit-width of the container.
    pub bits: u32,
    /// Signedness.
    pub signed: bool,
}

impl QFormat {
    /// Creates a format.
    pub fn new(frac: i32, bits: u32, signed: bool) -> Self {
        QFormat { frac, bits, signed }
    }

    /// The format implied by a quantizer spec and log-threshold.
    pub fn from_spec(spec: QuantSpec, log2_t: f32) -> Self {
        QFormat {
            frac: spec.fractional_length(log2_t),
            bits: spec.bits(),
            signed: spec.signed(),
        }
    }

    /// Scale factor `2^-frac`.
    pub fn scale(&self) -> f32 {
        2.0f32.powi(-self.frac)
    }

    /// Smallest representable integer value (`bits >= 64` means the full
    /// `i64` range — the "wide accumulator" format).
    pub fn qmin(&self) -> i64 {
        if !self.signed {
            0
        } else if self.bits >= 64 {
            i64::MIN
        } else {
            -(1i64 << (self.bits - 1))
        }
    }

    /// The float-to-integer element rule of this format: a function
    /// mapping `v` to `round_half_even(v / scale)` clamped to
    /// `[qmin, qmax]` (eq. 4), with the scale and limits computed once.
    /// The engine's input quantizer, [`QTensor::quantize`] and the
    /// translation validator all call it. The flag reports a saturated
    /// element: one that clamped, or a NaN (which becomes 0), so a NaN
    /// pixel shows in the counters instead of passing silently.
    pub fn quantizer(self) -> impl Fn(f32) -> (i64, bool) + Copy + Send + Sync {
        let s = self.scale();
        let (qmin, qmax) = (self.qmin(), self.qmax());
        move |v| {
            let q = round_half_even(v / s);
            let raw = q as i64;
            let c = raw.clamp(qmin, qmax);
            (c, c != raw || q.is_nan())
        }
    }

    /// Largest representable integer value.
    pub fn qmax(&self) -> i64 {
        if self.bits >= 64 || (!self.signed && self.bits >= 63) {
            i64::MAX
        } else if self.signed {
            (1i64 << (self.bits - 1)) - 1
        } else {
            (1i64 << self.bits) - 1
        }
    }
}

/// A dense integer tensor with its Q-format. Values are stored as `i64`
/// regardless of the logical width (this is a *reference* engine — the
/// optimized narrow kernels live in [`crate::kernels`]), and every
/// constructor checks the declared width is respected.
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    shape: Shape,
    data: Vec<i64>,
    /// The fixed-point format of the stored values.
    pub format: QFormat,
}

impl QTensor {
    /// Wraps raw integers in a format.
    ///
    /// # Panics
    ///
    /// Panics if the data length mismatches the shape or any value
    /// overflows the declared width.
    pub fn from_ints(shape: impl Into<Shape>, data: Vec<i64>, format: QFormat) -> Self {
        let shape = shape.into();
        assert_eq!(shape.numel(), data.len(), "shape/data mismatch");
        for &v in &data {
            assert!(
                v >= format.qmin() && v <= format.qmax(),
                "value {v} overflows {format:?}"
            );
        }
        QTensor {
            shape,
            data,
            format,
        }
    }

    /// Quantizes a float tensor into this format with round-half-to-even
    /// and saturation ([`QFormat::quantizer`]) — the same forward rule as
    /// the float emulation (eq. 4), so the two agree bit-exactly.
    pub fn quantize(t: &Tensor, format: QFormat) -> Self {
        let quantize = format.quantizer();
        let data = t.data().iter().map(|&v| quantize(v).0).collect();
        QTensor {
            shape: t.shape().clone(),
            data,
            format,
        }
    }

    /// De-quantizes back to floats (`int * scale`).
    pub fn dequantize(&self) -> Tensor {
        let s = self.format.scale();
        Tensor::from_vec(
            self.shape.clone(),
            self.data.iter().map(|&v| v as f32 * s).collect(),
        )
    }

    /// The shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Raw integer data.
    pub fn data(&self) -> &[i64] {
        &self.data
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_from_spec_matches_scale() {
        let spec = QuantSpec::INT8;
        let f = QFormat::from_spec(spec, 0.0);
        assert_eq!(f.frac, 7);
        assert_eq!(f.scale(), spec.scale_for_log2_t(0.0));
        assert_eq!(f.qmin(), -128);
        assert_eq!(f.qmax(), 127);
    }

    #[test]
    fn quantize_dequantize_roundtrip_on_grid() {
        let f = QFormat::new(4, 8, true);
        let t = Tensor::from_slice(&[0.5, -0.25, 1.0]);
        let q = QTensor::quantize(&t, f);
        assert_eq!(q.data(), &[8, -4, 16]);
        q.dequantize().assert_close(&t, 0.0);
    }

    #[test]
    fn quantize_matches_float_emulation() {
        use tqt_quant::tqt::quantize as fq;
        let spec = QuantSpec::INT8;
        let log2_t = 0.7;
        let mut rng = tqt_tensor::init::rng(5);
        let t = tqt_tensor::init::normal([512], 0.0, 1.0, &mut rng);
        let float_emu = fq(&t, log2_t, spec);
        let q = QTensor::quantize(&t, QFormat::from_spec(spec, log2_t));
        q.dequantize().assert_close(&float_emu, 0.0);
    }

    #[test]
    fn saturation() {
        let f = QFormat::new(0, 8, true);
        let q = QTensor::quantize(&Tensor::from_slice(&[1000.0, -1000.0]), f);
        assert_eq!(q.data(), &[127, -128]);
    }

    #[test]
    fn unsigned_clamps_at_zero() {
        let f = QFormat::new(0, 8, false);
        let q = QTensor::quantize(&Tensor::from_slice(&[-3.0, 300.0]), f);
        assert_eq!(q.data(), &[0, 255]);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn from_ints_checks_width() {
        QTensor::from_ints([1], vec![200], QFormat::new(0, 8, true));
    }
}
