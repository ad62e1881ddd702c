//! Shared mutable state for greedy cover algorithms.
//!
//! Both CMC (Fig. 1) and CWSC (Fig. 2) maintain, for every remaining
//! candidate set `s`, its marginal benefit `|MBen(s, S)|` — the number of
//! elements of `s` not yet covered by the partial solution `S` — and update
//! all of them after each selection (Fig. 1 lines 24–27, Fig. 2 lines
//! 12–15). [`CoverState`] implements those updates with an element→sets
//! incidence list so a selection costs `O(Σ_{e newly covered} |{s ∋ e}|)`
//! instead of a full rescan, which is observationally identical to the
//! pseudocode (same marginal benefits after every step, same drops of
//! zero-benefit sets).

use crate::bitset::BitSet;
use crate::cost::Cost;
use crate::set_system::{SetId, SetSystem};
use std::cmp::Ordering;

/// A candidate in a greedy arg-max: a set id with its *current* marginal
/// benefit and its cost. The free comparators below define the canonical
/// selection order of [`CoverState`]'s scans; the optimized pattern
/// solvers mirror it so they select what the set-system solvers would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Set id (ties break toward the lower id).
    pub id: SetId,
    /// Current marginal benefit `|MBen(s, S)|`.
    pub mben: usize,
    /// `Cost(s)`.
    pub cost: Cost,
}

/// Canonical benefit comparison: marginal benefit desc, cost asc, id asc.
/// Returns `Greater` when `a` should be preferred over `b`.
pub fn benefit_order(a: Candidate, b: Candidate) -> Ordering {
    a.mben
        .cmp(&b.mben)
        .then_with(|| b.cost.cmp(&a.cost))
        .then_with(|| b.id.cmp(&a.id))
}

/// Canonical gain comparison: gain desc, benefit desc, cost asc, id asc.
/// Returns `Greater` when `a` should be preferred over `b`.
///
/// Gains are compared by cross-multiplication (`m_a·c_b` vs `m_b·c_a`),
/// which is exact for integer benefits and avoids `0/0` and `x/0` pitfalls
/// of floating division.
pub fn gain_order(a: Candidate, b: Candidate) -> Ordering {
    let (ma, mb) = (a.mben as f64, b.mben as f64);
    (ma * b.cost.value())
        .total_cmp(&(mb * a.cost.value()))
        .then_with(|| benefit_order(a, b))
}

/// Inserts `cand` into `top`, kept best-first under `order` and capped at
/// `cap` entries. Because the canonical comparators are *total* orders
/// (id is the final tie-break), the resulting list is the unique sorted
/// top-`cap` prefix of whatever candidate set was pushed — independent of
/// push order, so audit runner-up lists do not depend on scan order.
pub fn push_top(
    top: &mut Vec<Candidate>,
    cand: Candidate,
    cap: usize,
    order: impl Fn(Candidate, Candidate) -> Ordering,
) {
    if cap == 0 {
        return;
    }
    let pos = top
        .iter()
        .position(|&b| order(cand, b) == Ordering::Greater)
        .unwrap_or(top.len());
    if pos >= cap {
        return;
    }
    top.insert(pos, cand);
    top.truncate(cap);
}

/// Mutable greedy state: covered elements plus exact marginal benefits.
pub struct CoverState<'a> {
    system: &'a SetSystem,
    covered: BitSet,
    covered_count: usize,
    mben: Vec<usize>,
    active: Vec<bool>,
    /// element id -> ids of sets containing it
    incidence: Vec<Vec<SetId>>,
}

impl<'a> CoverState<'a> {
    /// Initializes state with nothing covered; every set active with
    /// `|MBen(s, ∅)| = |Ben(s)|`.
    pub fn new(system: &'a SetSystem) -> Self {
        let n = system.num_elements();
        let mut incidence: Vec<Vec<SetId>> = vec![Vec::new(); n];
        let mut mben = Vec::with_capacity(system.num_sets());
        for (id, set) in system.iter() {
            mben.push(set.benefit());
            for &e in set.members() {
                incidence[e as usize].push(id);
            }
        }
        CoverState {
            system,
            covered: BitSet::new(n),
            covered_count: 0,
            mben,
            active: vec![true; system.num_sets()],
            incidence,
        }
    }

    /// The underlying set system.
    #[inline]
    pub fn system(&self) -> &'a SetSystem {
        self.system
    }

    /// Current `|MBen(s, S)|`.
    #[inline]
    pub fn marginal_benefit(&self, id: SetId) -> usize {
        self.mben[id as usize]
    }

    /// Current marginal gain `|MBen(s, S)| / Cost(s)`.
    ///
    /// Zero-cost sets have infinite gain when they still cover something;
    /// callers must use [`CoverState::gain_order`] for comparisons instead of comparing
    /// raw `f64`s.
    #[inline]
    pub fn marginal_gain(&self, id: SetId) -> f64 {
        let c = self.system.cost(id).value();
        if c == 0.0 {
            if self.mben[id as usize] > 0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            self.mben[id as usize] as f64 / c
        }
    }

    /// Whether the set is still a candidate (not selected, not dropped).
    #[inline]
    pub fn is_active(&self, id: SetId) -> bool {
        self.active[id as usize]
    }

    /// Removes a set from the candidate pool without selecting it.
    #[inline]
    pub fn deactivate(&mut self, id: SetId) {
        self.active[id as usize] = false;
    }

    /// Number of covered elements `|⋃ Ben(s)|`.
    #[inline]
    pub fn covered_count(&self) -> usize {
        self.covered_count
    }

    /// Whether a particular element is covered.
    #[inline]
    pub fn is_covered(&self, element: usize) -> bool {
        self.covered.contains(element)
    }

    /// Read-only view of the covered-element bitset.
    #[inline]
    pub fn covered(&self) -> &BitSet {
        &self.covered
    }

    /// Ids of still-active candidate sets.
    pub fn active_sets(&self) -> impl Iterator<Item = SetId> + '_ {
        self.active
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| i as SetId)
    }

    /// Selects `id` into the solution: marks its elements covered, updates
    /// every remaining set's marginal benefit, deactivates `id`, and
    /// returns how many new elements were covered.
    ///
    /// Sets whose marginal benefit drops to zero are deactivated, matching
    /// Fig. 1 lines 26–27 / Fig. 2 lines 14–15.
    pub fn select(&mut self, id: SetId) -> usize {
        debug_assert!(self.active[id as usize], "selecting an inactive set");
        self.active[id as usize] = false;
        let mut newly = 0usize;
        // Split borrows: we mutate covered/mben while reading the system.
        // `insert_hot`: member ids were validated against the universe by
        // the SetSystem builder, so the release-mode range assert in
        // `BitSet::insert` is pure overhead here (debug builds still check).
        for &e in self.system.members(id) {
            let e = e as usize;
            if self.covered.insert_hot(e) {
                newly += 1;
                for &s in &self.incidence[e] {
                    let m = &mut self.mben[s as usize];
                    *m -= 1;
                    if *m == 0 {
                        self.active[s as usize] = false;
                    }
                }
            }
        }
        self.covered_count += newly;
        newly
    }

    /// Argmax of marginal benefit over active sets satisfying `filter`,
    /// with canonical tie-breaking (higher benefit, then lower cost, then
    /// lower id). Returns `None` when no active set passes the filter or
    /// all passing sets have zero marginal benefit.
    pub fn argmax_benefit(&self, mut filter: impl FnMut(SetId) -> bool) -> Option<SetId> {
        let mut best: Option<SetId> = None;
        for id in 0..self.mben.len() as SetId {
            if !self.active[id as usize] || self.mben[id as usize] == 0 || !filter(id) {
                continue;
            }
            best = Some(match best {
                None => id,
                Some(b) => {
                    if self.benefit_order(id, b) == std::cmp::Ordering::Greater {
                        id
                    } else {
                        b
                    }
                }
            });
        }
        best
    }

    /// Argmax of marginal gain over active sets satisfying `filter`, with
    /// canonical tie-breaking (higher gain, then higher benefit, then lower
    /// cost, then lower id).
    pub fn argmax_gain(&self, mut filter: impl FnMut(SetId) -> bool) -> Option<SetId> {
        let mut best: Option<SetId> = None;
        for id in 0..self.mben.len() as SetId {
            if !self.active[id as usize] || self.mben[id as usize] == 0 || !filter(id) {
                continue;
            }
            best = Some(match best {
                None => id,
                Some(b) => {
                    if self.gain_order(id, b) == std::cmp::Ordering::Greater {
                        id
                    } else {
                        b
                    }
                }
            });
        }
        best
    }

    /// The best `cap` active candidates by marginal benefit (canonical
    /// order, best first). `top_benefit(cap, f)[0]` is exactly
    /// [`argmax_benefit`](CoverState::argmax_benefit)`(f)` — the extra
    /// entries are the audit ledger's runners-up.
    pub fn top_benefit(&self, cap: usize, mut filter: impl FnMut(SetId) -> bool) -> Vec<Candidate> {
        let mut top = Vec::with_capacity(cap);
        for id in 0..self.mben.len() as SetId {
            if !self.active[id as usize] || self.mben[id as usize] == 0 || !filter(id) {
                continue;
            }
            push_top(&mut top, self.candidate(id), cap, benefit_order);
        }
        top
    }

    /// The best `cap` active candidates by marginal gain (canonical order,
    /// best first); `top_gain(cap, f)[0]` equals
    /// [`argmax_gain`](CoverState::argmax_gain)`(f)`.
    pub fn top_gain(&self, cap: usize, mut filter: impl FnMut(SetId) -> bool) -> Vec<Candidate> {
        let mut top = Vec::with_capacity(cap);
        for id in 0..self.mben.len() as SetId {
            if !self.active[id as usize] || self.mben[id as usize] == 0 || !filter(id) {
                continue;
            }
            push_top(&mut top, self.candidate(id), cap, gain_order);
        }
        top
    }

    /// The elements `id` would newly cover if selected now — the elements
    /// the audit ledger prices when the set wins a round. Call *before*
    /// [`select`](CoverState::select); the list's length equals `select`'s
    /// return value.
    pub fn newly_elements(&self, id: SetId) -> Vec<u32> {
        // `contains_hot`: builder-validated ids, see `select`.
        self.system
            .members(id)
            .iter()
            .copied()
            .filter(|&e| !self.covered.contains_hot(e as usize))
            .collect()
    }

    /// This set as a [`Candidate`] under the current marginal benefits.
    #[inline]
    pub fn candidate(&self, id: SetId) -> Candidate {
        Candidate {
            id,
            mben: self.mben[id as usize],
            cost: self.system.cost(id),
        }
    }

    /// Canonical benefit comparison: marginal benefit desc, cost asc, id asc.
    /// Returns `Greater` when `a` should be preferred over `b`.
    pub fn benefit_order(&self, a: SetId, b: SetId) -> Ordering {
        benefit_order(self.candidate(a), self.candidate(b))
    }

    /// Canonical gain comparison: gain desc, benefit desc, cost asc, id asc.
    /// Returns `Greater` when `a` should be preferred over `b` (see the
    /// free [`gain_order`] for the cross-multiplication rationale).
    pub fn gain_order(&self, a: SetId, b: SetId) -> Ordering {
        gain_order(self.candidate(a), self.candidate(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_system::SetSystem;

    fn system() -> SetSystem {
        let mut b = SetSystem::builder(6);
        b.add_set([0, 1, 2], 3.0) // set 0
            .add_set([2, 3], 1.0) // set 1
            .add_set([3, 4, 5], 6.0) // set 2
            .add_set([5], 0.0); // set 3: zero cost
        b.build().unwrap()
    }

    #[test]
    fn initial_state() {
        let sys = system();
        let st = CoverState::new(&sys);
        assert_eq!(st.covered_count(), 0);
        assert_eq!(st.marginal_benefit(0), 3);
        assert_eq!(st.marginal_benefit(1), 2);
        assert!(st.is_active(0));
        assert_eq!(st.active_sets().count(), 4);
    }

    #[test]
    fn select_updates_marginals() {
        let sys = system();
        let mut st = CoverState::new(&sys);
        let newly = st.select(0);
        assert_eq!(newly, 3);
        assert_eq!(st.covered_count(), 3);
        assert!(!st.is_active(0));
        assert_eq!(st.marginal_benefit(1), 1); // lost element 2
        assert_eq!(st.marginal_benefit(2), 3);
        assert!(st.is_covered(2));
        assert!(!st.is_covered(3));
    }

    #[test]
    fn zero_marginal_sets_get_dropped() {
        let sys = system();
        let mut st = CoverState::new(&sys);
        st.select(2); // covers 3,4,5 -> set 3 {5} drops to zero
        assert_eq!(st.marginal_benefit(3), 0);
        assert!(!st.is_active(3));
        assert_eq!(st.marginal_benefit(1), 1);
    }

    #[test]
    fn overlapping_selection_counts_only_new() {
        let sys = system();
        let mut st = CoverState::new(&sys);
        st.select(1); // covers 2,3
        let newly = st.select(0); // 0,1 new; 2 already covered
        assert_eq!(newly, 2);
        assert_eq!(st.covered_count(), 4);
    }

    #[test]
    fn argmax_benefit_prefers_cheaper_on_tie() {
        let mut b = SetSystem::builder(4);
        b.add_set([0, 1], 5.0).add_set([2, 3], 2.0);
        let sys = b.build().unwrap();
        let st = CoverState::new(&sys);
        assert_eq!(st.argmax_benefit(|_| true), Some(1));
    }

    #[test]
    fn argmax_benefit_prefers_lower_id_on_full_tie() {
        let mut b = SetSystem::builder(4);
        b.add_set([0, 1], 2.0).add_set([2, 3], 2.0);
        let sys = b.build().unwrap();
        let st = CoverState::new(&sys);
        assert_eq!(st.argmax_benefit(|_| true), Some(0));
    }

    #[test]
    fn argmax_respects_filter_and_activity() {
        let sys = system();
        let mut st = CoverState::new(&sys);
        assert_eq!(st.argmax_benefit(|id| id != 0), Some(2));
        st.deactivate(2);
        assert_eq!(st.argmax_benefit(|id| id != 0), Some(1));
    }

    #[test]
    fn argmax_gain_zero_cost_wins() {
        let sys = system();
        let st = CoverState::new(&sys);
        // set 3 has zero cost and nonzero benefit -> infinite gain
        assert_eq!(st.argmax_gain(|_| true), Some(3));
        assert_eq!(st.marginal_gain(3), f64::INFINITY);
    }

    #[test]
    fn argmax_gain_cross_multiplication() {
        let mut b = SetSystem::builder(10);
        // gains: 3/2 = 1.5 vs 5/4 = 1.25
        b.add_set([0, 1, 2], 2.0).add_set([3, 4, 5, 6, 7], 4.0);
        let sys = b.build().unwrap();
        let st = CoverState::new(&sys);
        assert_eq!(st.argmax_gain(|_| true), Some(0));
    }

    #[test]
    fn argmax_none_when_everything_covered() {
        let sys = system();
        let mut st = CoverState::new(&sys);
        st.select(0);
        st.select(2);
        // remaining set 1's elements {2,3} are all covered
        assert_eq!(st.argmax_benefit(|_| true), None);
        assert_eq!(st.argmax_gain(|_| true), None);
        assert_eq!(st.covered_count(), 6);
    }

    #[test]
    fn top_scans_agree_with_argmax_and_sort_canonically() {
        let sys = system();
        let mut st = CoverState::new(&sys);
        loop {
            let top_b = st.top_benefit(4, |_| true);
            assert_eq!(top_b.first().map(|c| c.id), st.argmax_benefit(|_| true));
            for w in top_b.windows(2) {
                assert_eq!(benefit_order(w[0], w[1]), Ordering::Greater);
            }
            let top_g = st.top_gain(4, |_| true);
            assert_eq!(top_g.first().map(|c| c.id), st.argmax_gain(|_| true));
            for w in top_g.windows(2) {
                assert_eq!(gain_order(w[0], w[1]), Ordering::Greater);
            }
            let Some(&win) = top_g.first() else { break };
            let newly = st.newly_elements(win.id);
            assert_eq!(newly.len(), win.mben, "recount equals fresh mben");
            assert_eq!(st.select(win.id), newly.len());
        }
        assert!(st.top_gain(4, |_| true).is_empty());
    }

    #[test]
    fn top_scans_respect_cap_and_filter() {
        let sys = system();
        let st = CoverState::new(&sys);
        assert_eq!(st.top_benefit(1, |_| true).len(), 1);
        assert_eq!(st.top_benefit(0, |_| true).len(), 0);
        let filtered = st.top_gain(4, |id| id != 3);
        assert!(filtered.iter().all(|c| c.id != 3));
    }

    /// Exhaustive permutation sweep: pushing equal-gain-ratio candidates
    /// in every possible order yields the identical top list, so the audit
    /// ledger's runner-up lists (and the margins/tie-break keys derived
    /// from them) cannot depend on candidate iteration order.
    #[test]
    fn push_top_is_permutation_invariant_on_equal_ratios() {
        fn permutations(mut items: Vec<Candidate>, k: usize, out: &mut Vec<Vec<Candidate>>) {
            if k <= 1 {
                out.push(items);
                return;
            }
            for i in 0..k {
                permutations(items.clone(), k - 1, out);
                if k.is_multiple_of(2) {
                    items.swap(i, k - 1);
                } else {
                    items.swap(0, k - 1);
                }
            }
        }
        let cand = |id: SetId, mben: usize, cost: f64| Candidate {
            id,
            mben,
            cost: Cost::new(cost).unwrap(),
        };
        // All five candidates share gain ratio 1.0; two pairs also tie on
        // benefit, exercising the cost and id tie-break levels.
        let cands = vec![
            cand(4, 2, 2.0),
            cand(1, 2, 2.0),
            cand(3, 4, 4.0),
            cand(0, 4, 4.0),
            cand(2, 1, 1.0),
        ];
        for &order in &[
            gain_order as fn(Candidate, Candidate) -> Ordering,
            benefit_order,
        ] {
            let mut reference = cands.clone();
            reference.sort_by(|&a, &b| order(b, a));
            reference.truncate(4);
            let mut perms = Vec::new();
            permutations(cands.clone(), cands.len(), &mut perms);
            assert_eq!(perms.len(), 120, "5! orderings");
            for perm in perms {
                let mut top = Vec::new();
                for c in perm {
                    push_top(&mut top, c, 4, order);
                }
                assert_eq!(top, reference, "order-independent top list");
            }
        }
    }

    #[test]
    fn push_top_merges_chunked_lists_like_one_scan() {
        // Folding per-chunk top lists through push_top reproduces the
        // single-scan list.
        let cand = |id: SetId, mben: usize, cost: f64| Candidate {
            id,
            mben,
            cost: Cost::new(cost).unwrap(),
        };
        let all = vec![
            cand(0, 3, 1.0),
            cand(1, 3, 1.0),
            cand(2, 7, 9.0),
            cand(3, 1, 4.0),
            cand(4, 6, 2.0),
            cand(5, 3, 1.0),
        ];
        let mut whole = Vec::new();
        for &c in &all {
            push_top(&mut whole, c, 4, gain_order);
        }
        for split in 1..all.len() {
            let (lo, hi) = all.split_at(split);
            let mut a = Vec::new();
            for &c in lo {
                push_top(&mut a, c, 4, gain_order);
            }
            let mut b = Vec::new();
            for &c in hi {
                push_top(&mut b, c, 4, gain_order);
            }
            for c in b {
                push_top(&mut a, c, 4, gain_order);
            }
            assert_eq!(a, whole, "split at {split}");
        }
    }

    #[test]
    fn gain_tiebreak_prefers_bigger_benefit() {
        let mut b = SetSystem::builder(10);
        // equal gain 1.0: benefit 2/cost 2 vs benefit 4/cost 4
        b.add_set([0, 1], 2.0).add_set([2, 3, 4, 5], 4.0);
        let sys = b.build().unwrap();
        let st = CoverState::new(&sys);
        assert_eq!(st.argmax_gain(|_| true), Some(1));
    }
}
