//! Indexed max-heap over variable activities (the VSIDS order).

use crate::lit::Var;

/// A binary max-heap of variables keyed by an external activity array,
/// with O(log n) insert/remove and O(1) membership queries.
#[derive(Debug, Default)]
pub struct VarOrder {
    heap: Vec<Var>,
    /// Position of each variable in `heap`, or `usize::MAX` if absent.
    pos: Vec<usize>,
}

/// Field by field, so [`Clone::clone_from`] refills the target's
/// allocations instead of replacing them.
impl Clone for VarOrder {
    fn clone(&self) -> Self {
        VarOrder {
            heap: self.heap.clone(),
            pos: self.pos.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let VarOrder { heap, pos } = source;
        self.heap.clone_from(heap);
        self.pos.clone_from(pos);
    }
}

const ABSENT: usize = usize::MAX;

impl VarOrder {
    /// Creates an empty order.
    pub fn new() -> Self {
        VarOrder::default()
    }

    /// Grows internal tables to cover `n` variables.
    pub fn grow(&mut self, n: usize) {
        if self.pos.len() < n {
            self.pos.resize(n, ABSENT);
        }
    }

    /// Approximate resident size, by capacity.
    pub fn approx_bytes(&self) -> usize {
        self.heap.capacity() * std::mem::size_of::<Var>()
            + self.pos.capacity() * std::mem::size_of::<usize>()
    }

    /// Whether `v` is currently queued.
    pub fn contains(&self, v: Var) -> bool {
        self.pos.get(v.index()).is_some_and(|&p| p != ABSENT)
    }

    /// Empties the heap, in time linear in what it held.
    pub fn clear(&mut self) {
        for v in self.heap.drain(..) {
            self.pos[v.index()] = ABSENT;
        }
    }

    /// Inserts `v` if absent.
    pub fn insert(&mut self, v: Var, activity: &[f64]) {
        self.grow(v.index() + 1);
        if self.contains(v) {
            return;
        }
        self.heap.push(v);
        self.pos[v.index()] = self.heap.len() - 1;
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Removes and returns the variable with the highest activity.
    pub fn pop(&mut self, activity: &[f64]) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.pos[top.index()] = ABSENT;
        let last = self.heap.pop().unwrap();
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last.index()] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Restores heap order around `v` after its activity increased.
    pub fn bumped(&mut self, v: Var, activity: &[f64]) {
        if let Some(&p) = self.pos.get(v.index()) {
            if p != ABSENT {
                self.sift_up(p, activity);
            }
        }
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i].index()] > act[self.heap[parent].index()] {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l].index()] > act[self.heap[best].index()] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r].index()] > act[self.heap[best].index()] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].index()] = a;
        self.pos[self.heap[b].index()] = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_activity_order() {
        let act = vec![1.0, 5.0, 3.0, 4.0, 2.0];
        let mut h = VarOrder::new();
        for i in 0..5 {
            h.insert(Var::from_index(i), &act);
        }
        let order: Vec<usize> = std::iter::from_fn(|| h.pop(&act))
            .map(|v| v.index())
            .collect();
        assert_eq!(order, vec![1, 3, 2, 4, 0]);
    }

    #[test]
    fn reinsert_and_membership() {
        let act = vec![1.0, 2.0];
        let mut h = VarOrder::new();
        let v0 = Var::from_index(0);
        h.insert(v0, &act);
        assert!(h.contains(v0));
        h.insert(v0, &act); // idempotent
        assert_eq!(h.pop(&act), Some(v0));
        assert!(!h.contains(v0));
        assert_eq!(h.pop(&act), None);
    }

    #[test]
    fn clear_forgets_every_member() {
        let act = vec![1.0, 2.0, 3.0];
        let mut h = VarOrder::new();
        for i in 0..3 {
            h.insert(Var::from_index(i), &act);
        }
        h.clear();
        assert!((0..3).all(|i| !h.contains(Var::from_index(i))));
        assert_eq!(h.pop(&act), None);
        h.insert(Var::from_index(1), &act);
        assert_eq!(h.pop(&act), Some(Var::from_index(1)));
    }

    #[test]
    fn bump_reorders() {
        let mut act = vec![1.0, 2.0, 3.0];
        let mut h = VarOrder::new();
        for i in 0..3 {
            h.insert(Var::from_index(i), &act);
        }
        act[0] = 10.0;
        h.bumped(Var::from_index(0), &act);
        assert_eq!(h.pop(&act), Some(Var::from_index(0)));
    }
}
