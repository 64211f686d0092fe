//! Parameter storage with gradient and Adam-moment slots.
//!
//! Parameters outlive any single tape: layers allocate them once at
//! construction and reference them by [`ParamId`]; each forward pass binds
//! them into the tape as leaves, and [`crate::Tape::accumulate_grads`] flows
//! gradients back here for the optimizer.

use rand::rngs::StdRng;
use rand::Rng;

/// Opaque handle to a parameter tensor in a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

/// One parameter tensor plus training state.
#[derive(Clone, Debug)]
pub struct Param {
    /// Current values (row-major `shape.0 x shape.1`).
    pub data: Vec<f32>,
    /// Accumulated gradient.
    pub grad: Vec<f32>,
    /// Adam first moment.
    pub m: Vec<f32>,
    /// Adam second moment.
    pub v: Vec<f32>,
    /// `(rows, cols)`.
    pub shape: (usize, usize),
}

/// All parameters of a model.
#[derive(Clone, Debug, Default)]
pub struct ParamStore {
    params: Vec<Param>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ParamStore { params: Vec::new() }
    }

    /// Allocates a parameter with explicit initial values.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn alloc(&mut self, data: Vec<f32>, shape: (usize, usize)) -> ParamId {
        assert_eq!(data.len(), shape.0 * shape.1, "parameter shape mismatch");
        let n = data.len();
        self.params.push(Param {
            data,
            grad: vec![0.0; n],
            m: vec![0.0; n],
            v: vec![0.0; n],
            shape,
        });
        ParamId(self.params.len() - 1)
    }

    /// Allocates a zero-initialized parameter (e.g. biases).
    pub fn zeros(&mut self, shape: (usize, usize)) -> ParamId {
        self.alloc(vec![0.0; shape.0 * shape.1], shape)
    }

    /// Allocates a Xavier/Glorot-uniform parameter:
    /// `U(-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out)))`.
    pub fn xavier(&mut self, shape: (usize, usize), rng: &mut StdRng) -> ParamId {
        let (fan_in, fan_out) = (shape.0 as f64, shape.1 as f64);
        let bound = (6.0 / (fan_in + fan_out)).sqrt();
        let data = (0..shape.0 * shape.1)
            .map(|_| ((rng.gen::<f64>() * 2.0 - 1.0) * bound) as f32)
            .collect();
        self.alloc(data, shape)
    }

    /// Number of parameter tensors.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True if no parameters are allocated.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total scalar parameter count (the `p` of the paper's Eq. 3).
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.data.len()).sum()
    }

    /// Immutable access.
    pub fn get(&self, id: ParamId) -> &Param {
        &self.params[id.0]
    }

    /// Mutable access.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Param {
        &mut self.params[id.0]
    }

    /// Iterates over all parameters mutably (optimizer use).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Param> {
        self.params.iter_mut()
    }

    /// Iterates immutably.
    pub fn iter(&self) -> impl Iterator<Item = &Param> {
        self.params.iter()
    }

    /// Clears all gradients.
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.iter_mut().for_each(|g| *g = 0.0);
        }
    }

    /// Flattens all gradients into one vector, in parameter order.
    pub fn flat_grads(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_scalars());
        for p in &self.params {
            out.extend_from_slice(&p.grad);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn alloc_and_count() {
        let mut s = ParamStore::new();
        let a = s.zeros((2, 3));
        let mut rng = StdRng::seed_from_u64(1);
        let b = s.xavier((3, 4), &mut rng);
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_scalars(), 6 + 12);
        assert_eq!(s.get(a).shape, (2, 3));
        assert!(s.get(b).data.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn xavier_respects_bound() {
        let mut s = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let id = s.xavier((100, 100), &mut rng);
        let bound = (6.0f64 / 200.0).sqrt() as f32;
        assert!(s.get(id).data.iter().all(|&v| v.abs() <= bound));
        // Should roughly fill the range.
        let max = s.get(id).data.iter().cloned().fold(0.0f32, f32::max);
        assert!(max > 0.8 * bound);
    }

    #[test]
    fn flat_grads_roundtrip() {
        let mut s = ParamStore::new();
        s.zeros((2, 2));
        s.zeros((1, 3));
        for (i, g) in s.iter_mut().flat_map(|p| p.grad.iter_mut()).enumerate() {
            *g = i as f32;
        }
        let flat: Vec<f32> = (0..7).map(|i| i as f32).collect();
        assert_eq!(s.flat_grads(), flat);
        s.zero_grads();
        assert!(s.flat_grads().iter().all(|&g| g == 0.0));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn rejects_bad_alloc() {
        let mut s = ParamStore::new();
        let _ = s.alloc(vec![0.0; 5], (2, 3));
    }
}
