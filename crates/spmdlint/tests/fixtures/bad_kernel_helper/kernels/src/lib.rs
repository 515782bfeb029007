//! The same kernel crate, but its manifest lists `mpsim`: a class-block
//! pass whose `block` calls a helper named `gather` joins the chains of
//! the same-named simulator functions, as any crate that can reach a
//! communicator does.
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
