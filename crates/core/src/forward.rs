//! The network forward pass of the models' sampling loops, at either
//! precision. The `f32` tier runs the same loop as `f64` and converts only
//! here: the input is rounded once into a reused [`Matrix32`] and the output
//! widened back, so noise draws, state updates and decoding stay in `f64`.

use nn::{Matrix, Matrix32, Mlp, Mlp32};

/// The precision a sampling loop runs its network forward passes in.
#[derive(Clone, Copy)]
pub(crate) enum Precision {
    /// The fitted `f64` network; the byte-identity contracts hold here.
    F64,
    /// The network down-converted once to `f32`.
    F32,
}

/// A fitted network plus the buffers one sampling call reuses across its
/// forward passes (`f32`: input, output and scratch).
pub(crate) enum Forward<'a> {
    F64(&'a Mlp, Matrix),
    F32(Mlp32, [Matrix32; 3]),
}

impl<'a> Forward<'a> {
    /// Prepare `net` for forward passes at `precision`.
    pub(crate) fn new(net: &'a Mlp, precision: Precision) -> Self {
        match precision {
            Precision::F64 => Forward::F64(net, Matrix::default()),
            Precision::F32 => Forward::F32(net.to_f32(), Default::default()),
        }
    }

    /// Run the network on `input`, writing its output into `out`.
    pub(crate) fn infer_into(&mut self, input: &Matrix, out: &mut Matrix) {
        match self {
            Forward::F64(net, scratch) => net.infer_into(input, out, scratch),
            Forward::F32(net, [input32, out32, scratch]) => {
                input32.copy_from_f64(input);
                net.infer_into(input32, out32, scratch);
                out32.to_f64_into(out);
            }
        }
    }
}
