//! A kernel crate with no communicator: a class-block pass whose `block`
//! method calls a private helper that happens to be named `gather`.
//! Never compiled — parsed by the corpus tests only.

pub struct Sums {
    pub total: f64,
}

impl Sums {
    pub fn block(&mut self, cols: &[f64]) {
        self.total += gather(cols);
    }
}

fn gather(cols: &[f64]) -> f64 {
    cols.iter().sum()
}
