//! Gradient-descent optimizers: AdaGrad (the paper's choice for Asteria)
//! and Adam (the Gemini baseline's).

use crate::params::ParamStore;
use crate::tensor::Tensor;

/// A first-order optimizer that consumes accumulated gradients from a
/// [`ParamStore`] and updates the parameter values in place.
///
/// Implementations do **not** clear gradients; call
/// [`ParamStore::zero_grads`] after each step.
pub trait Optimizer {
    /// Applies one update using the gradients currently in `store`.
    fn step(&mut self, store: &mut ParamStore);

    /// The configured learning rate.
    fn learning_rate(&self) -> f32;
}

/// AdaGrad, the optimizer the paper uses for Tree-LSTM training (§IV-A):
/// `G ← G + g²;  w ← w − lr · g / (√G + ε)`.
#[derive(Debug)]
pub struct AdaGrad {
    lr: f32,
    eps: f32,
    accum: Vec<Tensor>,
}

impl AdaGrad {
    /// Creates an AdaGrad optimizer with accumulator ε of `1e-8`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        AdaGrad {
            lr,
            eps: 1e-8,
            accum: Vec::new(),
        }
    }

    fn ensure_state(&mut self, store: &ParamStore) {
        if self.accum.len() != store.len() {
            self.accum = store
                .ids()
                .map(|id| {
                    let (r, c) = store.value(id).shape();
                    Tensor::zeros(r, c)
                })
                .collect();
        }
    }
}

impl Optimizer for AdaGrad {
    fn step(&mut self, store: &mut ParamStore) {
        self.ensure_state(store);
        for (i, id) in store.ids().collect::<Vec<_>>().into_iter().enumerate() {
            let g = store.grad(id).clone();
            let acc = &mut self.accum[i];
            for (a, gi) in acc.as_mut_slice().iter_mut().zip(g.as_slice()) {
                *a += gi * gi;
            }
            let value = store.value_mut(id);
            for ((w, gi), a) in value
                .as_mut_slice()
                .iter_mut()
                .zip(g.as_slice())
                .zip(acc.as_slice())
            {
                *w -= self.lr * gi / (a.sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

/// Adam with the standard default moment coefficients (β₁=0.9, β₂=0.999).
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    fn ensure_state(&mut self, store: &ParamStore) {
        if self.m.len() != store.len() {
            let zeros = |store: &ParamStore| {
                store
                    .ids()
                    .map(|id| {
                        let (r, c) = store.value(id).shape();
                        Tensor::zeros(r, c)
                    })
                    .collect::<Vec<_>>()
            };
            self.m = zeros(store);
            self.v = zeros(store);
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore) {
        self.ensure_state(store);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t);
        let bc2 = 1.0 - self.beta2.powi(self.t);
        for (i, id) in store.ids().collect::<Vec<_>>().into_iter().enumerate() {
            let g = store.grad(id).clone();
            let (m, v) = (&mut self.m[i], &mut self.v[i]);
            for ((mi, vi), gi) in m
                .as_mut_slice()
                .iter_mut()
                .zip(v.as_mut_slice())
                .zip(g.as_slice())
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
            }
            let value = store.value_mut(id);
            for ((w, mi), vi) in value
                .as_mut_slice()
                .iter_mut()
                .zip(m.as_slice())
                .zip(v.as_slice())
            {
                let mhat = mi / bc1;
                let vhat = vi / bc2;
                *w -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// Minimizes (w − 3)² with each optimizer and checks convergence.
    fn converges(opt: &mut dyn Optimizer, iters: usize) -> f32 {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::scalar(0.0));
        for _ in 0..iters {
            store.zero_grads();
            let mut g = Graph::new();
            let wn = g.param(&store, w);
            let loss = g.mse_loss(wn, Tensor::scalar(3.0));
            g.backward(loss, &mut store);
            opt.step(&mut store);
        }
        store.value(w).item()
    }

    #[test]
    fn adagrad_converges_on_quadratic() {
        let w = converges(&mut AdaGrad::new(0.5), 800);
        assert!((w - 3.0).abs() < 0.05, "w={w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let w = converges(&mut Adam::new(0.05), 600);
        assert!((w - 3.0).abs() < 1e-2, "w={w}");
    }

    #[test]
    fn adagrad_step_shrinks_over_time() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::scalar(0.0));
        let mut opt = AdaGrad::new(1.0);
        let mut deltas = Vec::new();
        for _ in 0..3 {
            store.zero_grads();
            store.grad_mut(w).add_assign(&Tensor::scalar(1.0));
            let before = store.value(w).item();
            opt.step(&mut store);
            deltas.push((store.value(w).item() - before).abs());
        }
        assert!(deltas[0] > deltas[1] && deltas[1] > deltas[2], "{deltas:?}");
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_nonpositive_lr() {
        let _ = AdaGrad::new(0.0);
    }
}
