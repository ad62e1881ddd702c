//! Optimized Cheap Max Coverage for patterned sets — Figure 4.
//!
//! The general CMC (Fig. 1) scans every set per budget guess. The
//! optimized version walks the lattice top-down instead: the candidate set
//! `C` starts with the all-wildcards pattern; the globally largest
//! marginal-benefit candidate is popped, and is either *selected* (if its
//! cost level under the current budget `B` still has quota, lines 21–29)
//! or *visited* (line 31) — and only visited patterns have their children
//! expanded, each child entering `C` once all of its parents have been
//! visited (lines 32–35). Children of selected patterns never need
//! expansion: their benefit sets are already fully covered.
//!
//! Unlike optimized CWSC, this is *not* step-identical to Fig. 1 — the
//! paper's Fig. 4 picks the global benefit argmax across levels rather
//! than exhausting levels in order (see DESIGN.md §3) — but it carries the
//! same Theorem 4/5 guarantees, which is what the tests check.
//!
//! Implementation note: Fig. 4 recomputes `Cost(m)` and `Ben(m)` afresh on
//! every budget guess. Benefit sets and costs do not depend on the budget,
//! so this implementation materializes each pattern once and reuses it
//! across guesses — the walk, selections, and the per-guess "patterns
//! considered" count (Fig. 6's metric) are exactly those of the
//! pseudocode, only the redundant recomputation is gone.

use crate::fxhash::FxHashMap;
use crate::pattern::Pattern;
use crate::pattern_solution::PatternSolution;
use crate::space::{LatticeSpace, PatternSpace};
use crate::table::RowId;
use scwsc_core::algorithms::cmc::{CmcParams, Levels};
use scwsc_core::engine::{
    classic_result, contain_panics, Certificate, Deadline, DegradeReason, Degraded, EngineError,
    Retry, SolveOutcome,
};
use scwsc_core::parallel::prune_from_env;
use scwsc_core::telemetry::{
    audit, pack_k_target, Observer, PhaseSpan, PruneReason, TraceId, PHASE_GUESS, PHASE_TOTAL,
};
use scwsc_core::{BitSet, SolveError, ThreadPool};
use std::collections::BinaryHeap;

/// Maximum heap-entry staleness (in selections) served by the epoch-delta
/// refresh; older entries fall back to a full blocked recount. Each delta
/// round costs one `O(n/64)` intersection, so past a few rounds the full
/// difference count is cheaper.
const DELTA_MAX_ROUNDS: usize = 4;

/// Runs the optimized CMC (Fig. 4) over a pattern space.
///
/// Parameters mirror [`scwsc_core::algorithms::cmc()`]: the schedule bounds
/// the solution size (`5k` classic, `(1+ε)k` for the ε-schedule) and the
/// coverage target is `(1−1/e)·ŝ·n` unless `params.discount_coverage` is
/// unset.
///
/// Each pattern examination (Fig. 4 lines 12 and 35), the Figure 6 metric,
/// is reported to `obs` as a `benefit_computed` event; budget guesses
/// arrive as `guess_started` events. Passing `&mut Stats` keeps the legacy
/// counters. Events go straight to `obs`, unbuffered.
pub fn opt_cmc<O: Observer + ?Sized>(
    space: &PatternSpace<'_>,
    params: &CmcParams,
    obs: &mut O,
) -> Result<PatternSolution, SolveError> {
    opt_cmc_in(space, params, obs)
}

/// The Figure 4 algorithm over any [`LatticeSpace`] — the flat pattern
/// cube or the hierarchy-enriched lattice of
/// [`crate::hierarchy::HierarchicalSpace`].
pub fn opt_cmc_in<S: LatticeSpace, O: Observer + ?Sized>(
    space: &S,
    params: &CmcParams,
    obs: &mut O,
) -> Result<PatternSolution, SolveError> {
    classic_result(solve(space, params, &Deadline::unbounded(), false, obs))
}

/// [`opt_cmc`] with a thread-pool argument, kept for callers that thread
/// one through. The solve runs on the calling thread; `pool` is unused —
/// the heap pop order *is* the algorithm, so the lattice walk is serial
/// (DESIGN.md §11).
pub fn opt_cmc_on<O: Observer + ?Sized>(
    space: &PatternSpace<'_>,
    params: &CmcParams,
    _pool: &ThreadPool,
    obs: &mut O,
) -> Result<PatternSolution, SolveError> {
    opt_cmc(space, params, obs)
}

/// [`opt_cmc`] under a [`Deadline`]: the resilience-engine entry point
/// (DESIGN.md §12). See [`opt_cmc_in_within`].
pub fn opt_cmc_within<O: Observer + ?Sized>(
    space: &PatternSpace<'_>,
    params: &CmcParams,
    deadline: &Deadline,
    obs: &mut O,
) -> Result<SolveOutcome<PatternSolution>, EngineError> {
    opt_cmc_in_within(space, params, deadline, obs)
}

/// [`opt_cmc_in`] under a [`Deadline`], over any [`LatticeSpace`].
///
/// One work tick is consumed per heap pop. On expiry the patterns
/// selected so far in the in-flight budget guess return as
/// [`SolveOutcome::Degraded`] with a [`Certificate`] (including which
/// level quotas were exhausted) that
/// [`verify_certificate_in`](crate::pattern_solution::verify_certificate_in)
/// re-checks.
///
/// Panic isolation: each budget guess runs under [`contain_panics`] — a
/// panicked guess is retried once (counted by the `guesses_retried`
/// telemetry event; safe because the lattice cache is append-only and
/// budget-independent) and a second panic surfaces as
/// [`EngineError::Panicked`].
pub fn opt_cmc_in_within<S: LatticeSpace, O: Observer + ?Sized>(
    space: &S,
    params: &CmcParams,
    deadline: &Deadline,
    obs: &mut O,
) -> Result<SolveOutcome<PatternSolution>, EngineError> {
    solve(space, params, deadline, true, obs)
}

/// The one optimized-CMC core behind every entry point: the classic ones
/// pass a private unbounded deadline and `contain == false` (events stream
/// straight into `obs`, panics propagate); the `*_within` ones pass the
/// caller's deadline and contain each guess.
fn solve<S: LatticeSpace, O: Observer + ?Sized>(
    space: &S,
    params: &CmcParams,
    deadline: &Deadline,
    contain: bool,
    obs: &mut O,
) -> Result<SolveOutcome<PatternSolution>, EngineError> {
    if params.k == 0 {
        return Err(SolveError::ZeroSizeBound.into());
    }
    assert!(
        params.budget_growth > 0.0,
        "budget growth factor b must be positive"
    );
    let n = space.num_rows();
    let target = params.coverage_target(n);
    if target == 0 {
        return Ok(SolveOutcome::Complete(PatternSolution {
            patterns: Vec::new(),
            covered: 0,
            total_cost: 0.0,
        }));
    }
    obs.trace_started(
        TraceId::mint("opt_cmc", n as u64, pack_k_target(params.k, target)),
        "opt_cmc",
    );
    let span = PhaseSpan::enter(obs, PHASE_TOTAL);
    let result = guess_loop(space, params, target, deadline, contain, obs);
    span.exit(obs);
    result
}

/// The budget-doubling loop (Fig. 4 lines 01–07 and 36–37).
fn guess_loop<S: LatticeSpace, O: Observer + ?Sized>(
    space: &S,
    params: &CmcParams,
    target: usize,
    deadline: &Deadline,
    contain: bool,
    obs: &mut O,
) -> Result<SolveOutcome<PatternSolution>, EngineError> {
    // Line 01: "B = cost of the k cheapest patterns". Knowing the true k
    // cheapest patterns would itself require enumeration, so we seed with
    // the sum of the k smallest single-record weights — a lower bound for
    // monotone cost functions, costing at most O(log_{1+b}) extra guesses
    // (DESIGN.md §3).
    let mut measures: Vec<f64> = space.table().measures().to_vec();
    measures.sort_unstable_by(f64::total_cmp);
    let seed: f64 = measures.iter().take(params.k).sum();
    let total_weight: f64 = measures.iter().sum();
    let mut budget = if seed > 0.0 {
        seed
    } else {
        measures.iter().copied().find(|&m| m > 0.0).unwrap_or(1.0)
    };

    let mut lattice = Lattice::new(space);
    let mut queue = BucketQueue::new();
    let mut guess_index = 0u64;

    loop {
        guess_index += 1;
        let found = if contain {
            // A retry reuses the lattice: its cache is append-only and
            // budget-independent, so a half-extended cache only means
            // fewer first-materialization events on the rerun.
            contain_panics(Retry::Once, obs, |log| {
                run_guess(
                    &mut lattice,
                    &mut queue,
                    params,
                    budget,
                    target,
                    deadline,
                    guess_index,
                    log,
                )
            })?
        } else {
            run_guess(
                &mut lattice,
                &mut queue,
                params,
                budget,
                target,
                deadline,
                guess_index,
                obs,
            )
        };
        match found {
            GuessResult::Found(solution) => return Ok(SolveOutcome::Complete(solution)),
            GuessResult::Expired {
                partial,
                quotas_exhausted,
                reason,
            } => {
                obs.degrade_decided(reason.as_str(), partial.covered as u64, target as u64);
                let certificate = Certificate {
                    sets_used: partial.size(),
                    covered: partial.covered,
                    target,
                    total_cost: partial.total_cost,
                    quotas_exhausted,
                    ticks: deadline.ticks(),
                    reason,
                };
                return Ok(SolveOutcome::Degraded(Degraded {
                    partial,
                    certificate,
                }));
            }
            GuessResult::NotFound => {}
        }
        // Line 37: stop once even a budget admitting every pattern failed.
        // The all-wildcards pattern is the most expensive one under any
        // lattice-monotone cost function, and a budget above the total
        // weight is a universal upper bound otherwise.
        if budget > lattice.root_cost() && budget > total_weight {
            return Err(SolveError::BudgetExhausted.into());
        }
        budget *= 1.0 + params.budget_growth; // line 36
    }
}

/// Pattern materializations shared across budget guesses: benefit sets,
/// costs, and child links do not depend on the budget or on coverage.
struct Lattice<'a, S: LatticeSpace> {
    space: &'a S,
    patterns: Vec<Pattern>,
    /// All row lists back to back; `rows[id]` spans into this arena.
    /// A pattern's row list is written once at materialization and never
    /// resized, so one backing allocation replaces a `Vec` per pattern —
    /// the dominant allocator traffic of the lattice build (and of its
    /// drop).
    row_arena: Vec<RowId>,
    /// `(offset, len)` of each pattern's row list in `row_arena`.
    rows: Vec<(u32, u32)>,
    /// Row bitmask per pattern, for blocked-popcount recounts. Lazy:
    /// only the (few) patterns the pruned refresh actually kernels over
    /// — popped stale entries with long row lists — pay the `O(num_rows)`
    /// bits; most materialized patterns are scored once from their row
    /// list and never need one.
    masks: Vec<Option<BitSet>>,
    costs: Vec<f64>,
    /// Number of parents (= specificity): used for the pending-parents
    /// gating that implements line 33 without per-check hashing.
    num_parents: Vec<u8>,
    /// Child-id lists back to back, same once-written story as rows.
    child_arena: Vec<u32>,
    /// children[id] = Some((offset, len)) into `child_arena` once expanded.
    children: Vec<Option<(u32, u32)>>,
    by_pattern: Dedup,
    /// Expansion scratch: the walk reads the parent's rows while new
    /// children extend `row_arena` (which may reallocate), so the
    /// parent's span is copied out here first. Reused across expansions.
    parent_scratch: Vec<RowId>,
    /// Expansion scratch for the child-id list under construction.
    kids_scratch: Vec<u32>,
}

/// Pattern-to-id dedup map. When the space's value domain packs into a
/// `u64` ([`LatticeSpace::packed_key_bits`]), keys are single integers
/// — one `u64` hash per child visit instead of hashing a boxed
/// option-slice, on the hottest lookup of the lattice build.
enum Dedup {
    Packed {
        /// `shifts[attr]` = bit offset of that attribute's field in the
        /// key, so a child key is `parent_key | (value + 1) << shift` —
        /// one OR on the hottest lookup of the lattice build.
        shifts: Vec<u32>,
        map: FxHashMap<u64, u32>,
    },
    General(FxHashMap<Pattern, u32>),
}

impl Dedup {
    fn new<S: LatticeSpace>(space: &S) -> Dedup {
        match space.packed_key_bits() {
            Some(bits) => {
                // Field of attr `i` sits above the fields of all later
                // attributes (the fold order `key() `used before).
                let mut shifts = vec![0u32; bits.len()];
                let mut acc = 0;
                for i in (0..bits.len()).rev() {
                    shifts[i] = acc;
                    acc += bits[i];
                }
                Dedup::Packed {
                    shifts,
                    map: FxHashMap::default(),
                }
            }
            None => Dedup::General(FxHashMap::default()),
        }
    }

    fn key(shifts: &[u32], pattern: &Pattern) -> u64 {
        shifts
            .iter()
            .zip(pattern.values())
            .map(|(&shift, v)| v.map_or(0, |x| (x as u64 + 1) << shift))
            .fold(0, |key, field| key | field)
    }

    /// The packed key of `pattern`, when packed keys are in use.
    /// Computed once per expansion; children derive theirs from it.
    fn full_key(&self, pattern: &Pattern) -> Option<u64> {
        match self {
            Dedup::Packed { shifts, .. } => Some(Self::key(shifts, pattern)),
            Dedup::General(_) => None,
        }
    }

    fn insert(&mut self, pattern: &Pattern, id: u32) {
        match self {
            Dedup::Packed { shifts, map } => {
                map.insert(Self::key(shifts, pattern), id);
            }
            Dedup::General(map) => {
                map.insert(pattern.clone(), id);
            }
        }
    }

    /// Lookup of the child reached from `parent_key` by setting `attr`
    /// to `value`; `child` backs the non-packed fallback.
    fn get_child(
        &self,
        parent_key: Option<u64>,
        attr: usize,
        value: u32,
        child: &Pattern,
    ) -> Option<u32> {
        match self {
            Dedup::Packed { shifts, map } => {
                let key = parent_key.expect("packed dedup always has a parent key")
                    | ((value as u64 + 1) << shifts[attr]);
                map.get(&key).copied()
            }
            Dedup::General(map) => map.get(child).copied(),
        }
    }

    fn insert_child(
        &mut self,
        parent_key: Option<u64>,
        attr: usize,
        value: u32,
        child: &Pattern,
        id: u32,
    ) {
        match self {
            Dedup::Packed { shifts, map } => {
                let key = parent_key.expect("packed dedup always has a parent key")
                    | ((value as u64 + 1) << shifts[attr]);
                map.insert(key, id);
            }
            Dedup::General(map) => {
                map.insert(child.clone(), id);
            }
        }
    }
}

impl<'a, S: LatticeSpace> Lattice<'a, S> {
    fn new(space: &'a S) -> Self {
        let root = space.root();
        let root_rows = space.root_rows();
        let root_cost = space.cost(&root_rows);
        let mut by_pattern = Dedup::new(space);
        by_pattern.insert(&root, 0u32);
        Lattice {
            space,
            num_parents: vec![0],
            patterns: vec![root],
            rows: vec![(0, root_rows.len() as u32)],
            row_arena: root_rows,
            masks: vec![None],
            costs: vec![root_cost],
            child_arena: Vec::new(),
            children: vec![None],
            by_pattern,
            parent_scratch: Vec::new(),
            kids_scratch: Vec::new(),
        }
    }

    /// The row list of pattern `id`.
    #[inline]
    fn rows_of(&self, id: u32) -> &[RowId] {
        let (off, len) = self.rows[id as usize];
        &self.row_arena[off as usize..off as usize + len as usize]
    }

    /// The cached child ids of pattern `id`, if expanded.
    #[inline]
    fn children_of(&self, id: u32) -> Option<&[u32]> {
        self.children[id as usize]
            .map(|(off, len)| &self.child_arena[off as usize..off as usize + len as usize])
    }

    fn mask_of(n: usize, rows: &[RowId]) -> BitSet {
        let mut mask = BitSet::new(n);
        for &r in rows {
            mask.insert(r as usize);
        }
        mask
    }

    /// Row lists shorter than this recount faster through the postings
    /// loop: the blocked kernel always touches ~`num_rows / 64` words,
    /// so it only wins once the list holds a couple of rows per word.
    fn kernel_min_rows(&self) -> usize {
        self.space.num_rows().div_ceil(32)
    }

    /// The row mask of `id`, materialized on first use.
    fn mask(&mut self, id: u32) -> &BitSet {
        if self.masks[id as usize].is_none() {
            let mask = Self::mask_of(self.space.num_rows(), self.rows_of(id));
            self.masks[id as usize] = Some(mask);
        }
        self.masks[id as usize].as_ref().expect("just filled")
    }

    fn root_cost(&self) -> f64 {
        self.costs[0]
    }

    /// Materializes `id`'s non-empty children on first use. After this
    /// returns, `children[id]` is `Some`; callers borrow the cached id
    /// slice directly instead of cloning it per visit (every guess
    /// re-walks the lattice, so the clone was a per-pop allocation).
    ///
    /// Children are visited through [`LatticeSpace::for_each_child`], so
    /// pattern and row storage is allocated only for children seen for
    /// the first time — in a diamond lattice most children are already
    /// cached under another parent.
    fn ensure_children(&mut self, id: u32) {
        if self.children[id as usize].is_some() {
            return;
        }
        let space = self.space;
        // Copy the parent's pattern and rows out for the walk: the child
        // pushes below may reallocate the backing storage.
        let parent = self.patterns[id as usize].clone();
        let mut parent_rows = std::mem::take(&mut self.parent_scratch);
        parent_rows.clear();
        parent_rows.extend_from_slice(self.rows_of(id));
        let parent_key = self.by_pattern.full_key(&parent);
        let mut kids = std::mem::take(&mut self.kids_scratch);
        kids.clear();
        space.for_each_child(
            &parent,
            &parent_rows,
            &mut |attr, value, child, child_rows| {
                let child_id = match self.by_pattern.get_child(parent_key, attr, value, child) {
                    Some(cid) => cid,
                    None => {
                        let cid = self.patterns.len() as u32;
                        self.by_pattern
                            .insert_child(parent_key, attr, value, child, cid);
                        self.num_parents.push(space.num_parents(child) as u8);
                        self.patterns.push(child.clone());
                        self.costs.push(space.cost(child_rows));
                        self.masks.push(None);
                        let off = u32::try_from(self.row_arena.len()).expect("row arena fits u32");
                        self.row_arena.extend_from_slice(child_rows);
                        self.rows.push((off, child_rows.len() as u32));
                        self.children.push(None);
                        cid
                    }
                };
                kids.push(child_id);
            },
        );
        let off = u32::try_from(self.child_arena.len()).expect("child arena fits u32");
        self.child_arena.extend_from_slice(&kids);
        self.children[id as usize] = Some((off, kids.len() as u32));
        self.kids_scratch = kids;
        self.parent_scratch = parent_rows;
    }
}

/// Counts rows of `rows` not yet in `covered`.
fn recount(rows: &[RowId], covered: &BitSet) -> usize {
    rows.iter()
        .filter(|&&r| !covered.contains(r as usize))
        .count()
}

/// How one budget guess (Fig. 4 lines 08–35) ended.
enum GuessResult {
    Found(PatternSolution),
    NotFound,
    Expired {
        partial: PatternSolution,
        quotas_exhausted: Vec<usize>,
        reason: DegradeReason,
    },
}

/// One budget guess, bracketed by its `guess_started` event and
/// `"guess"` span. Spans stay at guess granularity: the body's unit of
/// work is a single heap pop, far too hot to bracket with clock reads.
#[allow(clippy::too_many_arguments)]
fn run_guess<S: LatticeSpace, O: Observer + ?Sized>(
    lattice: &mut Lattice<'_, S>,
    heap: &mut BucketQueue,
    params: &CmcParams,
    budget: f64,
    target: usize,
    deadline: &Deadline,
    guess_index: u64,
    obs: &mut O,
) -> GuessResult {
    obs.guess_started(Some(budget));
    let guess_span = PhaseSpan::enter(obs, PHASE_GUESS);
    deadline.fault_guess(guess_index);
    let found = walk(lattice, heap, params, budget, target, deadline, obs);
    guess_span.exit(obs);
    found
}

/// The lattice walk of one budget guess (Fig. 4 lines 08–35). Consumes one
/// `deadline` work tick per heap pop; under an unbounded deadline (the
/// classic path) the checkpoint can never fail.
fn walk<S: LatticeSpace, O: Observer + ?Sized>(
    lattice: &mut Lattice<'_, S>,
    heap: &mut BucketQueue,
    params: &CmcParams,
    budget: f64,
    target: usize,
    deadline: &Deadline,
    obs: &mut O,
) -> GuessResult {
    let n = lattice.space.num_rows();
    let levels = Levels::build(params.schedule, budget, params.k);
    // Report the complete level schedule up front: even if the guess ends
    // early, observers see every (level, quota) pair Fig. 4 line 05 built.
    for level in 0..levels.len() {
        obs.level_entered(level, levels.quota(level));
    }
    let mut counts = vec![0usize; levels.len()]; // lines 15-16
    let mut selected_total = 0usize;
    let max_selections = levels.max_selections();

    let mut covered = BitSet::new(n);
    // Pruned-refresh state: each selection appends the newly covered rows
    // as a mask, so a heap entry computed `epoch - entry.epoch` selections
    // ago refreshes by subtracting exact per-selection intersection counts
    // (the newly sets are disjoint) instead of recounting from scratch.
    let prune = prune_from_env();
    let mut epoch = 0usize;
    let mut newly_masks: Vec<BitSet> = Vec::new();
    // Per-guess per-pattern state, keyed by lattice id (lazily grown).
    let len = lattice.patterns.len();
    let mut in_c = vec![false; len];
    let mut visited = vec![false; len];
    let mut selected = vec![false; len];
    // pending[id] = parents of id not yet visited this guess; line 33's
    // "all parents of m are in V" is exactly pending[id] == 0, reached by
    // decrementing when each parent is visited (no hashing per check).
    let mut pending: Vec<u8> = lattice.num_parents[..len].to_vec();

    // Lines 11-13: C = {all-wildcards}.
    in_c[0] = true;
    obs.benefit_computed(1);

    // Max-queue on (mben, cheaper first, older first), with lazy
    // revalidation: marginal benefits only decrease, so a stale entry is
    // an upper bound and the first fresh pop is the true argmax (line 18).
    // Reset up front so a previous guess that returned early (or
    // panicked under fault injection) cannot leak entries into this one.
    heap.reset(lattice.rows_of(0).len());
    heap.push(HeapEntry {
        mben: lattice.rows_of(0).len(),
        cost_bits: lattice.costs[0].to_bits(),
        id: 0,
        epoch: 0,
    });

    let mut solution = PatternSolution {
        patterns: Vec::new(),
        covered: 0,
        total_cost: 0.0,
    };
    let mut rem = target; // line 14
                          // Expansion scratch, reused across pops: thousands of patterns are
                          // visited per guess, and a fresh Vec per visit is pure allocator
                          // traffic.
    let mut eligible: Vec<u32> = Vec::new();

    while let Some(entry) = heap.pop() {
        if let Err(reason) = deadline.checkpoint() {
            let quotas_exhausted = (0..levels.len())
                .filter(|&l| counts[l] == levels.quota(l))
                .collect();
            return GuessResult::Expired {
                partial: solution,
                quotas_exhausted,
                reason,
            };
        }
        // line 17's ΣΣ guard: once every level quota is full no further
        // selection can happen.
        if selected_total >= max_selections {
            break;
        }
        let id = entry.id as usize;
        if !in_c[id] {
            obs.heap_stale_pop();
            continue; // stale duplicate of a removed candidate
        }
        let current = if !prune {
            recount(lattice.rows_of(entry.id), &covered)
        } else if entry.epoch == epoch {
            // Coverage only grows at selections, so an entry pushed this
            // epoch is provably current — skip the recount outright.
            obs.scan_pruned(1);
            entry.mben
        } else if lattice.rows_of(entry.id).len() < lattice.kernel_min_rows() {
            // Short row list: the postings recount beats every
            // mask-based path, and no mask is ever materialized.
            obs.bound_refreshed(1);
            recount(lattice.rows_of(entry.id), &covered)
        } else if epoch - entry.epoch <= DELTA_MAX_ROUNDS {
            // Exact delta: the per-selection newly sets are disjoint, so
            // the entry's stale count minus its overlap with each newer
            // selection is the fresh count — no full recount needed.
            let stale = entry.mben;
            let mask = lattice.mask(entry.id);
            let overlap: usize = newly_masks[entry.epoch..epoch]
                .iter()
                .map(|nm| mask.intersection_count(nm))
                .sum();
            obs.scan_pruned(1);
            stale - overlap
        } else {
            obs.bound_refreshed(1);
            lattice.mask(entry.id).difference_count(&covered)
        };
        debug_assert_eq!(
            current,
            recount(lattice.rows_of(entry.id), &covered),
            "pruned refresh is exact"
        );
        if current == 0 {
            in_c[id] = false; // lines 28-29 analogue
            obs.candidate_pruned(PruneReason::Exhausted);
            continue;
        }
        if current != entry.mben {
            obs.heap_stale_pop();
            heap.push(HeapEntry {
                mben: current,
                cost_bits: entry.cost_bits,
                id: entry.id,
                epoch,
            });
            continue;
        }

        // Line 19: q leaves C.
        in_c[id] = false;
        let q_cost = lattice.costs[id];
        let level = levels.level_of(q_cost); // line 20

        let selectable = level.is_some_and(|l| counts[l] < levels.quota(l));
        if selectable {
            // Audit the pick before mutating: runners-up are the next heap
            // entries still in C. Their stored scores may be stale upper
            // bounds (lazy revalidation), i.e. optimistic — the ledger
            // notes the heap's view, which is deterministic because the
            // heap order is total and the pop/re-push cycle below restores
            // the heap exactly.
            let mut popped: Vec<HeapEntry> = Vec::with_capacity(audit::RUNNERS_UP);
            while popped.len() < audit::RUNNERS_UP {
                let Some(e) = heap.pop() else { break };
                popped.push(e);
            }
            let runners: Vec<audit::AuditCandidate> = popped
                .iter()
                .filter(|e| in_c[e.id as usize])
                .map(|e| audit::AuditCandidate {
                    id: e.id as u64,
                    benefit: e.mben as u64,
                    weight: lattice.costs[e.id as usize],
                })
                .collect();
            for e in popped {
                heap.push(e);
            }
            let winner = audit::AuditCandidate {
                id: entry.id as u64,
                benefit: current as u64,
                weight: q_cost,
            };
            obs.round_decided(audit::ORDER_BENEFIT, &winner, &runners);
            let newly: Vec<u32> = lattice
                .rows_of(entry.id)
                .iter()
                .copied()
                .filter(|&r| !covered.contains(r as usize))
                .collect();
            debug_assert_eq!(newly.len(), current, "fresh recount priced exactly");
            obs.price_charged(entry.id as u64, &newly, q_cost);

            // Lines 21-25: select q.
            let l = level.expect("selectable implies a level");
            counts[l] += 1;
            selected_total += 1;
            selected[id] = true;
            solution.patterns.push(lattice.patterns[id].clone());
            solution.total_cost += q_cost;
            obs.set_selected(entry.id as u64, current as u64, q_cost);
            for &r in lattice.rows_of(entry.id) {
                covered.insert(r as usize);
            }
            if prune {
                let mut nm = BitSet::new(n);
                for &r in &newly {
                    nm.insert(r as usize);
                }
                newly_masks.push(nm);
                epoch += 1;
            }
            solution.covered = covered.count_ones();
            rem = rem.saturating_sub(current);
            if rem == 0 {
                return GuessResult::Found(solution);
            }
            // Lines 26-29 happen lazily at pop time via the recount above.
        } else {
            // Lines 30-35: visit q and expand its children.
            visited[id] = true;
            if lattice.children_of(entry.id).is_none() {
                // First materialization: children_with_rows partitions q's
                // row list once per wildcard attribute.
                let wildcards = lattice.patterns[id]
                    .values()
                    .iter()
                    .filter(|v| v.is_none())
                    .count();
                obs.posting_scanned((lattice.rows_of(entry.id).len() * wildcards) as u64);
            }
            lattice.ensure_children(entry.id);
            eligible.clear();
            for &child_id in lattice
                .children_of(entry.id)
                .expect("ensure_children just ran")
            {
                let cid = child_id as usize;
                if pending.len() <= cid {
                    // Newly materialized: extend per-guess state.
                    in_c.resize(cid + 1, false);
                    visited.resize(cid + 1, false);
                    selected.resize(cid + 1, false);
                    let from = pending.len();
                    pending.extend_from_slice(&lattice.num_parents[from..=cid]);
                }
                if in_c[cid] || visited[cid] || selected[cid] {
                    continue;
                }
                // Line 33: "all parents of m are in V" — the decrement
                // for this visit of q; zero pending means every parent
                // has been visited.
                pending[cid] = pending[cid].saturating_sub(1);
                if pending[cid] != 0 {
                    continue;
                }
                eligible.push(child_id);
            }
            // Line 35: compute Cost(m) and MBen(m) for each eligible
            // child — the cost served from the lattice cache.
            for &child_id in &eligible {
                let child_mben = recount(lattice.rows_of(child_id), &covered);
                let cid = child_id as usize;
                // One "considered" event per guess, matching what Fig. 4
                // would compute.
                obs.benefit_computed(1);
                if child_mben == 0 {
                    // Never enters C, so its descendants stay gated behind
                    // an unvisited parent: the whole subtree is skipped.
                    obs.subtree_pruned(PruneReason::Exhausted);
                    continue; // would be dropped by lines 28-29 immediately
                }
                in_c[cid] = true;
                heap.push(HeapEntry {
                    mben: child_mben,
                    cost_bits: lattice.costs[cid].to_bits(),
                    id: child_id,
                    epoch,
                });
            }
        }
    }
    GuessResult::NotFound
}

/// Deterministic bucket priority queue over [`HeapEntry`], keyed by the
/// integer marginal benefit (bounded by `n`). Pop order is exactly the
/// binary heap's total order — (mben desc, cost asc, id asc): within
/// one guess a pattern enters the candidate set once and every re-push
/// carries a strictly smaller benefit, so two live entries for one id
/// never share a bucket and the `(cost, id)` min-heaps per bucket
/// complete the order. Both queue ends are near-O(1): the max cursor
/// only descends (the root starts at bucket `n`, re-pushes and child
/// pushes never exceed the popping bucket), and the per-bucket heaps
/// stay tiny compared to one global heap over every candidate. Reused
/// across guesses so bucket capacity amortizes.
struct BucketQueue {
    /// buckets[mben] = min-heap of `(cost_bits, id, epoch)`.
    buckets: Vec<BinaryHeap<std::cmp::Reverse<(u64, u32, usize)>>>,
    /// Highest possibly non-empty bucket.
    max: usize,
    len: usize,
}

impl BucketQueue {
    fn new() -> BucketQueue {
        BucketQueue {
            buckets: Vec::new(),
            max: 0,
            len: 0,
        }
    }

    /// Empties the queue and guarantees buckets `0..=max_mben` exist.
    fn reset(&mut self, max_mben: usize) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        if self.buckets.len() <= max_mben {
            self.buckets.resize_with(max_mben + 1, BinaryHeap::new);
        }
        self.max = 0;
        self.len = 0;
    }

    fn push(&mut self, entry: HeapEntry) {
        self.max = self.max.max(entry.mben);
        self.len += 1;
        self.buckets[entry.mben].push(std::cmp::Reverse((entry.cost_bits, entry.id, entry.epoch)));
    }

    fn pop(&mut self) -> Option<HeapEntry> {
        if self.len == 0 {
            return None;
        }
        while self.buckets[self.max].is_empty() {
            self.max -= 1;
        }
        let std::cmp::Reverse((cost_bits, id, epoch)) = self.buckets[self.max]
            .pop()
            .expect("bucket at the max cursor is non-empty");
        self.len -= 1;
        Some(HeapEntry {
            mben: self.max,
            cost_bits,
            id,
            epoch,
        })
    }
}

/// Heap entry: candidate keyed by (mben desc, cost asc, id asc).
///
/// Ids are assigned in first-materialization order, which is itself
/// deterministic (children are expanded in (attribute, value) order), so
/// runs are reproducible.
struct HeapEntry {
    mben: usize,
    /// `f64::to_bits` of a non-negative cost orders like the number.
    cost_bits: u64,
    id: u32,
    /// Selection count when `mben` was computed. NOT part of the ordering
    /// — it only lets the pruned refresh subtract the exact per-selection
    /// coverage deltas instead of recounting from scratch.
    epoch: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.mben
            .cmp(&other.mben)
            .then_with(|| other.cost_bits.cmp(&self.cost_bits))
            .then_with(|| other.id.cmp(&self.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_fn::CostFn;
    use crate::enumerate::enumerate_all;
    use crate::table::Table;
    use scwsc_core::algorithms::{cmc, CMC_COVERAGE_DISCOUNT};
    use scwsc_core::{coverage_target, Stats};

    fn entities() -> Table {
        let mut b = Table::builder(&["Type", "Location"], "Cost");
        for (t, l, c) in [
            ("A", "West", 10.0),
            ("A", "Northeast", 32.0),
            ("B", "South", 2.0),
            ("A", "North", 4.0),
            ("B", "East", 7.0),
            ("A", "Northwest", 20.0),
            ("B", "West", 4.0),
            ("B", "Southwest", 24.0),
            ("A", "Southwest", 4.0),
            ("B", "Northwest", 4.0),
            ("A", "North", 3.0),
            ("B", "Northeast", 3.0),
            ("B", "South", 1.0),
            ("B", "North", 20.0),
            ("A", "East", 3.0),
            ("A", "South", 96.0),
        ] {
            b.push_row(&[t, l], c).unwrap();
        }
        b.build()
    }

    #[test]
    fn meets_coverage_and_size_bounds() {
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Max);
        for (k, s) in [(2usize, 9.0 / 16.0), (3, 0.5), (2, 1.0), (5, 0.8)] {
            let params = CmcParams::classic(k, s, 1.0);
            let sol = opt_cmc(&sp, &params, &mut Stats::new()).unwrap();
            let target = coverage_target(16, s * CMC_COVERAGE_DISCOUNT);
            assert!(
                sol.covered >= target,
                "k={k} s={s}: {} < {target}",
                sol.covered
            );
            assert!(sol.size() <= 5 * k, "k={k}: {} sets", sol.size());
            sol.verify(&sp);
        }
    }

    #[test]
    fn epsilon_variant_bounds_size() {
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Max);
        for &eps in &[0.5, 1.0, 2.0] {
            let params = CmcParams::epsilon(4, 0.9, 1.0, eps);
            let sol = opt_cmc(&sp, &params, &mut Stats::new()).unwrap();
            let bound = ((1.0 + eps) * 4.0).floor() as usize;
            assert!(sol.size() <= bound.max(4), "eps={eps}: {}", sol.size());
        }
    }

    /// The Figure 6 effect needs a data set big enough for pruning to
    /// matter; the 16-record example is too small (the walkthrough itself
    /// touches most of Table II's patterns).
    #[test]
    fn considers_fewer_patterns_than_unoptimized_at_scale() {
        let t = crate::test_util::skewed_table(600, 4, 7);
        let sp = PatternSpace::new(&t, CostFn::Max);
        let mut opt_stats = Stats::new();
        let params = CmcParams::classic(10, 0.3, 1.0);
        let sol = opt_cmc(&sp, &params, &mut opt_stats).unwrap();
        sol.verify(&sp);
        let m = enumerate_all(&t, CostFn::Max);
        let mut unopt_stats = Stats::new();
        let _ = cmc(&m.system, &params, &mut unopt_stats).unwrap();
        assert!(
            opt_stats.considered < unopt_stats.considered,
            "optimized {} >= unoptimized {}",
            opt_stats.considered,
            unopt_stats.considered
        );
    }

    #[test]
    fn cost_within_theorem4_factor_of_unoptimized() {
        // Both satisfy Theorem 4, so both costs are within
        // (1+b)(2⌈log k⌉+1) of optimal; sanity-check they're in the same
        // ballpark rather than equal (different traversal orders).
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Max);
        let params = CmcParams::classic(2, 9.0 / 16.0, 1.0);
        let opt = opt_cmc(&sp, &params, &mut Stats::new()).unwrap();
        let m = enumerate_all(&t, CostFn::Max);
        let unopt = cmc(&m.system, &params, &mut Stats::new()).unwrap();
        let bound = 2.0 * (2.0 * (2f64).log2().ceil() + 1.0);
        assert!(opt.total_cost <= bound * unopt.solution.total_cost().value() + 1e-9);
        assert!(unopt.solution.total_cost().value() <= bound * opt.total_cost + 1e-9);
    }

    #[test]
    fn zero_k_rejected_and_zero_target_empty() {
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Max);
        assert_eq!(
            opt_cmc(&sp, &CmcParams::classic(0, 0.5, 1.0), &mut Stats::new()),
            Err(SolveError::ZeroSizeBound)
        );
        let sol = opt_cmc(&sp, &CmcParams::classic(2, 0.0, 1.0), &mut Stats::new()).unwrap();
        assert_eq!(sol.size(), 0);
    }

    #[test]
    fn budget_guesses_increase_with_tight_instances() {
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Max);
        let mut stats = Stats::new();
        let params = CmcParams::classic(2, 1.0, 1.0);
        let _ = opt_cmc(&sp, &params, &mut stats).unwrap();
        assert!(stats.budget_guesses >= 2, "seed budget is tiny by design");
    }

    #[test]
    fn works_with_mean_cost_function() {
        // Mean is not lattice-monotone; the exhaustion bound still holds
        // because budgets also grow past the total weight.
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Mean);
        let params = CmcParams::classic(3, 0.6, 1.0);
        let sol = opt_cmc(&sp, &params, &mut Stats::new()).unwrap();
        assert!(sol.covered >= coverage_target(16, 0.6 * CMC_COVERAGE_DISCOUNT));
        sol.verify(&sp);
    }

    #[test]
    fn deterministic_across_runs() {
        let t = crate::test_util::skewed_table(300, 3, 5);
        let sp = PatternSpace::new(&t, CostFn::Max);
        let params = CmcParams::classic(5, 0.4, 1.0);
        let a = opt_cmc(&sp, &params, &mut Stats::new()).unwrap();
        let b = opt_cmc(&sp, &params, &mut Stats::new()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn pool_argument_does_not_change_the_run() {
        use scwsc_core::{MetricsRecorder, Threads};
        let t = crate::test_util::skewed_table(600, 4, 7);
        let sp = PatternSpace::new(&t, CostFn::Max);
        let params = CmcParams::classic(8, 0.4, 1.0);
        let mut sm = MetricsRecorder::new();
        let serial = opt_cmc(&sp, &params, &mut sm).unwrap();
        for threads in [2, 4] {
            let pool = ThreadPool::new(Threads::new(threads));
            let mut pm = MetricsRecorder::new();
            let par = opt_cmc_on(&sp, &params, &pool, &mut pm).unwrap();
            assert_eq!(par, serial, "threads={threads}");
            assert_eq!(pm.guesses, sm.guesses, "threads={threads}");
            assert_eq!(pm.selections, sm.selections, "threads={threads}");
            assert_eq!(
                pm.benefits_computed, sm.benefits_computed,
                "threads={threads}"
            );
            assert_eq!(pm.subtrees_pruned, sm.subtrees_pruned, "threads={threads}");
            assert_eq!(pm.heap_stale_pops, sm.heap_stale_pops, "threads={threads}");
            assert_eq!(
                pm.marginal_benefit_hist, sm.marginal_benefit_hist,
                "threads={threads}"
            );
        }
    }

    mod within {
        use super::*;
        use crate::pattern_solution::verify_certificate_in;
        use scwsc_core::engine::{Deadline, DegradeReason, SolveOutcome};
        use scwsc_core::MetricsRecorder;

        #[test]
        fn unbounded_deadline_matches_plain_opt_cmc() {
            let t = entities();
            let sp = PatternSpace::new(&t, CostFn::Max);
            let params = CmcParams::classic(2, 9.0 / 16.0, 1.0);
            let plain = opt_cmc(&sp, &params, &mut Stats::new()).unwrap();
            let out = opt_cmc_within(
                &sp,
                &params,
                &Deadline::unbounded(),
                &mut MetricsRecorder::new(),
            )
            .unwrap();
            assert_eq!(out.expect_complete("unbounded"), plain);
        }

        #[test]
        fn tick_budget_degrades_deterministically() {
            let t = entities();
            let sp = PatternSpace::new(&t, CostFn::Max);
            let params = CmcParams::classic(2, 1.0, 1.0);
            for budget in [0u64, 3, 10, 25] {
                let run = || {
                    let deadline = Deadline::unbounded().with_tick_budget(budget);
                    let out = opt_cmc_within(&sp, &params, &deadline, &mut MetricsRecorder::new())
                        .unwrap();
                    (out, deadline.ticks())
                };
                let serial = run();
                assert_eq!(serial, run(), "budget {budget}");
                if let SolveOutcome::Degraded(d) = serial.0 {
                    assert_eq!(d.certificate.reason, DegradeReason::TickBudget);
                    let check = verify_certificate_in(&sp, &d.partial, &d.certificate);
                    assert!(check.is_valid(), "budget {budget}: {check:?}");
                }
            }
        }

        #[test]
        fn zero_tick_budget_degrades_empty() {
            let t = entities();
            let sp = PatternSpace::new(&t, CostFn::Max);
            let params = CmcParams::classic(3, 0.8, 1.0);
            let deadline = Deadline::unbounded().with_tick_budget(0);
            let out = opt_cmc_within(&sp, &params, &deadline, &mut MetricsRecorder::new()).unwrap();
            let SolveOutcome::Degraded(d) = out else {
                panic!("zero ticks must degrade");
            };
            assert_eq!(d.partial.size(), 0);
            assert!(verify_certificate_in(&sp, &d.partial, &d.certificate).is_valid());
        }
    }

    #[cfg(feature = "fault-inject")]
    mod within_faults {
        use super::*;
        use crate::pattern_solution::verify_certificate_in;
        use scwsc_core::engine::{Deadline, EngineError, FaultPlan, SolveOutcome};
        use scwsc_core::MetricsRecorder;

        #[test]
        fn one_shot_guess_panic_is_retried_to_completion() {
            let t = entities();
            let sp = PatternSpace::new(&t, CostFn::Max);
            let params = CmcParams::classic(2, 9.0 / 16.0, 1.0);
            let clean = opt_cmc(&sp, &params, &mut Stats::new()).unwrap();
            let deadline =
                Deadline::unbounded().with_fault_plan(FaultPlan::new().panic_guess_once(1));
            let mut m = MetricsRecorder::new();
            let out = opt_cmc_within(&sp, &params, &deadline, &mut m).unwrap();
            assert_eq!(out.expect_complete("retry completes"), clean);
            assert_eq!(m.guesses_retried, 1);
        }

        #[test]
        fn persistent_guess_fault_is_a_structured_error() {
            let t = entities();
            let sp = PatternSpace::new(&t, CostFn::Max);
            let params = CmcParams::classic(2, 0.5, 1.0);
            let deadline = Deadline::unbounded().with_fault_plan(FaultPlan::new().fail_guess(1));
            let err =
                opt_cmc_within(&sp, &params, &deadline, &mut MetricsRecorder::new()).unwrap_err();
            assert!(matches!(err, EngineError::Panicked(_)));
        }

        #[test]
        fn panic_at_tick_degrades_cleanly() {
            // cancel_at_tick (not panic) exercises the cancel path end to end.
            let t = entities();
            let sp = PatternSpace::new(&t, CostFn::Max);
            let params = CmcParams::classic(2, 1.0, 1.0);
            let deadline =
                Deadline::unbounded().with_fault_plan(FaultPlan::new().cancel_at_tick(4));
            let out = opt_cmc_within(&sp, &params, &deadline, &mut MetricsRecorder::new()).unwrap();
            let SolveOutcome::Degraded(d) = out else {
                panic!("cancel at tick 4 must degrade");
            };
            assert!(verify_certificate_in(&sp, &d.partial, &d.certificate).is_valid());
        }
    }
}
