//! The batch workloads: a fixed query list solved in repeated passes.
//!
//! * `cwsc_lattice` — `opt_cwsc` (Fig. 3) on a 100k-row table,
//!   `k ∈ {5,10,20} × ŝ ∈ {0.3,0.5}`, Max cost. Serial: the workload that
//!   bypasses the parallel layer.
//! * `cmc_pool` — `opt_cmc_on` (Fig. 4) on a 25k-row table at the default
//!   thread count, `k ∈ {5,10,20}`, `ŝ = 0.3`.
//! * `cube_setcover` — set-up materializes the full pattern cube of a
//!   20k-row table; the passes run core `cwsc_on` and `cmc_on` over it at
//!   the default thread count, `k ∈ {5,10,20}`, `ŝ = 0.3`.
//!
//! Set-up is repeated and its median reported. Each pass times only the
//! public solve calls; answers are verified after the timed window.

use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{median, quantile, ratio};
use scwsc_core::algorithms::cmc::{cmc_on, CmcParams, Levels};
use scwsc_core::algorithms::cwsc::cwsc_on;
use scwsc_core::telemetry::alloc;
use scwsc_core::{
    coverage_target, verify, Fanout, MetricsRecorder, NoopObserver, Observer, Requirements,
    Solution, SolveError, SpanNode, SpanProfiler, ThreadPool, Threads,
};
use scwsc_data::lbl::LblConfig;
use scwsc_data::uniform_noise;
use scwsc_patterns::{
    enumerate_all, opt_cmc_on, opt_cwsc, CostFn, InvertedIndex, MaterializedPatterns,
    PatternSolution, PatternSpace, Table,
};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Relative weight noise δ drawn per seed (the paper's Section VI-B
/// δ-uniform perturbation) over the fixed LBL-like trace structure.
pub const DELTA: f64 = 0.01;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest timed passes per measurement, however long they take.
const MIN_PASSES: usize = 3;

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CwscLattice,
    CmcPool,
    CubeSetcover,
}

impl Kind {
    fn rows(self) -> usize {
        match self {
            Kind::CwscLattice => 100_000,
            Kind::CmcPool => 25_000,
            Kind::CubeSetcover => 20_000,
        }
    }

    fn calls(self) -> Vec<Call> {
        let ks = [5, 10, 20];
        match self {
            Kind::CwscLattice => ks
                .iter()
                .flat_map(|&k| [0.3, 0.5].map(|s| Call::OptCwsc(k, s)))
                .collect(),
            Kind::CmcPool => ks.iter().map(|&k| Call::OptCmc(k, 0.3)).collect(),
            Kind::CubeSetcover => ks
                .iter()
                .flat_map(|&k| [Call::CoreCwsc(k, 0.3), Call::CoreCmc(k, 0.3)])
                .collect(),
        }
    }

    /// Whether the workload's solves take a thread pool.
    fn pooled(self) -> bool {
        self != Kind::CwscLattice
    }
}

/// One entry of a workload's query list: `(k, ŝ)` for one public solver.
#[derive(Debug, Clone, Copy)]
enum Call {
    OptCwsc(usize, f64),
    OptCmc(usize, f64),
    CoreCwsc(usize, f64),
    CoreCmc(usize, f64),
}

impl Call {
    fn layer(self) -> &'static str {
        match self {
            Call::OptCwsc(..) => "opt_cwsc",
            Call::OptCmc(..) => "opt_cmc",
            Call::CoreCwsc(..) => "cwsc",
            Call::CoreCmc(..) => "cmc",
        }
    }
}

/// The paper's Fig. 1/4 parameters with growth factor `b = 1`.
fn cmc_params(k: usize, s: f64) -> CmcParams {
    CmcParams::classic(k, s, 1.0)
}

/// A solver's answer, in the form its verifier takes.
enum Answer {
    Patterns(PatternSolution),
    Sets(Solution),
}

/// The loaded instance: table, inverted index and (for the cube
/// workload) every materialized pattern.
struct Instance {
    table: Table,
    index: Arc<InvertedIndex>,
    cube: Option<MaterializedPatterns>,
}

impl Instance {
    fn space(&self) -> PatternSpace<'_> {
        PatternSpace::with_index(&self.table, Arc::clone(&self.index), CostFn::Max)
    }
}

/// Set-up timings of one load.
#[derive(Default)]
struct SetupTimes {
    generate: f64,
    index: f64,
    enumerate: f64,
}

/// The seeded table: the fixed LBL-like trace structure of `rows`
/// records (generator defaults) with δ-uniform weight noise drawn from
/// `seed`.
pub fn seeded_table(rows: usize, seed: u64) -> Table {
    uniform_noise(&LblConfig::scaled(rows).generate(), DELTA, seed)
}

fn load(kind: Kind, seed: u64, tracer: &mut Tracer) -> (Instance, SetupTimes) {
    let mut times = SetupTimes::default();
    let setup = tracer.open("setup", 0, None);
    let t = Instant::now();
    let span = tracer.open("lbl.generate", 0, setup);
    let table = seeded_table(kind.rows(), seed);
    tracer.close(span);
    times.generate = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let span = tracer.open("index.build", 0, setup);
    let index = Arc::new(InvertedIndex::build(&table));
    tracer.close(span);
    times.index = t.elapsed().as_secs_f64();
    let cube = (kind == Kind::CubeSetcover).then(|| {
        let t = Instant::now();
        let span = tracer.open("enumerate", 0, setup);
        let cube = enumerate_all(&table, CostFn::Max);
        tracer.close(span);
        times.enumerate = t.elapsed().as_secs_f64();
        cube
    });
    tracer.close(setup);
    (Instance { table, index, cube }, times)
}

fn solve(
    inst: &Instance,
    space: &PatternSpace<'_>,
    call: Call,
    pool: &ThreadPool,
    obs: &mut dyn Observer,
) -> Result<Answer, SolveError> {
    let system = || &inst.cube.as_ref().expect("cube workload").system;
    Ok(match call {
        Call::OptCwsc(k, s) => Answer::Patterns(opt_cwsc(space, k, s, obs)?),
        Call::OptCmc(k, s) => Answer::Patterns(opt_cmc_on(space, &cmc_params(k, s), pool, obs)?),
        Call::CoreCwsc(k, s) => Answer::Sets(cwsc_on(system(), k, s, pool, obs)?),
        Call::CoreCmc(k, s) => {
            Answer::Sets(cmc_on(system(), &cmc_params(k, s), pool, obs)?.solution)
        }
    })
}

/// Independently re-verifies an answer: size within the bound (`k` for
/// CWSC, the level schedule's bound for CMC), coverage at least the
/// target, recomputed cost equal to the reported one. Returns the
/// verified cost.
fn check(
    inst: &Instance,
    space: &PatternSpace<'_>,
    call: Call,
    answer: &Answer,
) -> Result<f64, String> {
    let n = inst.table.num_rows();
    let (max_sets, min_covered) = match call {
        Call::OptCwsc(k, s) | Call::CoreCwsc(k, s) => (k, coverage_target(n, s)),
        Call::OptCmc(k, s) | Call::CoreCmc(k, s) => {
            let params = cmc_params(k, s);
            let bound = Levels::build(params.schedule, 1.0, k).max_selections();
            (bound, params.coverage_target(n))
        }
    };
    match answer {
        Answer::Patterns(sol) => {
            let (covered, cost) = catch_unwind(AssertUnwindSafe(|| sol.verify(space)))
                .map_err(|_| format!("{call:?}: cached totals disagree with the table"))?;
            if sol.size() > max_sets {
                return Err(format!(
                    "{call:?}: {} patterns > bound {max_sets}",
                    sol.size()
                ));
            }
            if covered < min_covered {
                return Err(format!("{call:?}: covers {covered} < target {min_covered}"));
            }
            Ok(cost)
        }
        Answer::Sets(sol) => {
            let system = &inst.cube.as_ref().expect("cube workload").system;
            let v = verify(
                system,
                sol,
                Requirements {
                    max_sets,
                    min_covered,
                },
            );
            if !v.is_valid() {
                return Err(format!("{call:?}: verification failed: {v:?}"));
            }
            Ok(v.total_cost.value())
        }
    }
}

/// Telemetry gathered by traced passes.
#[derive(Default)]
struct Traced {
    /// Metrics per layer name (`opt_cwsc`, `opt_cmc`, `cwsc`, `cmc`).
    metrics: Vec<(&'static str, MetricsRecorder)>,
    profile: SpanProfiler,
    allocs: u64,
    alloc_bytes: u64,
}

impl Traced {
    fn layer(&mut self, name: &'static str) -> &mut MetricsRecorder {
        if let Some(i) = self.metrics.iter().position(|(n, _)| *n == name) {
            return &mut self.metrics[i].1;
        }
        self.metrics.push((name, MetricsRecorder::new()));
        &mut self.metrics.last_mut().expect("just pushed").1
    }

    fn all(&self) -> MetricsRecorder {
        let mut all = MetricsRecorder::new();
        for (_, m) in &self.metrics {
            all.merge(m);
        }
        all
    }
}

/// One timed pass over the query list.
struct Pass {
    /// Pass number within the run; query `i` of pass `no` has span id
    /// `no * calls + i`.
    no: u64,
    secs: f64,
    call_secs: Vec<f64>,
    answers: Vec<Result<Answer, SolveError>>,
}

struct Runner<'a> {
    inst: &'a Instance,
    space: PatternSpace<'a>,
    calls: Vec<Call>,
    passes_run: u64,
}

impl Runner<'_> {
    fn pass(
        &mut self,
        pool: &ThreadPool,
        tracer: &mut Tracer,
        mut traced: Option<&mut Traced>,
    ) -> Pass {
        let pass_no = self.passes_run;
        self.passes_run += 1;
        let pass_span = tracer.open("pass", pass_no, None);
        let mut out = Pass {
            no: pass_no,
            secs: 0.0,
            call_secs: Vec::with_capacity(self.calls.len()),
            answers: Vec::with_capacity(self.calls.len()),
        };
        for (i, &call) in self.calls.iter().enumerate() {
            let id = pass_no * self.calls.len() as u64 + i as u64;
            let query_span = tracer.open("query", id, pass_span);
            let (answer, secs) = match traced.as_deref_mut() {
                None => {
                    let t = Instant::now();
                    let answer = solve(self.inst, &self.space, call, pool, &mut NoopObserver);
                    let end = Instant::now();
                    tracer.record(call.layer(), id, query_span, t, end);
                    (black_box(answer), (end - t).as_secs_f64())
                }
                Some(tr) => {
                    let mut metrics = MetricsRecorder::new();
                    let mut profile = SpanProfiler::new();
                    let before = alloc::snapshot();
                    let t = Instant::now();
                    let answer = {
                        let mut obs = Fanout::new();
                        obs.attach(&mut metrics).attach(&mut profile);
                        solve(self.inst, &self.space, call, pool, &mut obs)
                    };
                    let end = Instant::now();
                    let delta = alloc::snapshot().delta(&before);
                    tracer.record(call.layer(), id, query_span, t, end);
                    tr.layer(call.layer()).merge(&metrics);
                    tr.profile.merge(&profile);
                    tr.allocs += delta.allocs;
                    tr.alloc_bytes += delta.bytes_allocated;
                    (black_box(answer), (end - t).as_secs_f64())
                }
            };
            tracer.close(query_span);
            out.secs += secs;
            out.call_secs.push(secs);
            out.answers.push(answer);
        }
        tracer.close(pass_span);
        out
    }

    /// Passes until `budget` has elapsed, and at least [`MIN_PASSES`].
    fn passes(
        &mut self,
        pool: &ThreadPool,
        budget: Duration,
        tracer: &mut Tracer,
        mut traced: Option<&mut Traced>,
    ) -> Vec<Pass> {
        let started = Instant::now();
        let mut passes = Vec::new();
        while passes.len() < MIN_PASSES || started.elapsed() < budget {
            passes.push(self.pass(pool, tracer, traced.as_deref_mut()));
        }
        passes
    }

    /// Verifies every answer of `passes` (outside the timed window).
    /// Returns the verified per-call costs of the first pass; later
    /// passes and `reference` (when given) must match them exactly.
    fn verify(
        &self,
        passes: &[Pass],
        reference: Option<&[f64]>,
        tracer: &mut Tracer,
        report: &mut Report,
    ) -> Vec<f64> {
        let mut first: Vec<f64> = Vec::new();
        for pass in passes {
            for (i, (&call, answer)) in self.calls.iter().zip(&pass.answers).enumerate() {
                report.attempted += 1;
                let id = pass.no * self.calls.len() as u64 + i as u64;
                let span = tracer.open("verify", id, None);
                let checked = match answer {
                    Ok(a) => check(self.inst, &self.space, call, a),
                    Err(e) => Err(format!("{call:?}: solve error: {e}")),
                };
                tracer.close(span);
                match checked {
                    Ok(cost) if first.len() < self.calls.len() => first.push(cost),
                    Ok(cost) if cost == first[i] => {}
                    Ok(cost) => report.mismatch(format!(
                        "{call:?}: cost {cost} differs between passes ({})",
                        first[i]
                    )),
                    Err(e) => {
                        report.mismatch(e);
                        if first.len() < self.calls.len() {
                            first.push(f64::NAN);
                        }
                    }
                }
            }
        }
        if let Some(reference) = reference {
            for ((call, got), want) in self.calls.iter().zip(&first).zip(reference) {
                if got != want {
                    report.mismatch(format!("{call:?}: cost {got} != Threads(1) cost {want}"));
                }
            }
        }
        first
    }
}

/// Sum of `self` time over every node named `name` in a span tree.
fn self_secs(node: &SpanNode, name: &str) -> f64 {
    let own = if node.name == name {
        node.self_secs()
    } else {
        0.0
    };
    own + node
        .children
        .iter()
        .map(|c| self_secs(c, name))
        .sum::<f64>()
}

fn median_secs(passes: &[Pass]) -> f64 {
    median(&passes.iter().map(|p| p.secs).collect::<Vec<_>>())
}

/// Mean seconds per call of `layer` over `passes`.
fn per_call_secs(passes: &[Pass], calls: &[Call], layer: &str) -> f64 {
    let secs: Vec<f64> = passes
        .iter()
        .flat_map(|p| {
            p.call_secs
                .iter()
                .zip(calls)
                .filter(|(_, c)| c.layer() == layer)
                .map(|(s, _)| *s)
        })
        .collect();
    ratio(secs.iter().sum(), secs.len() as f64)
}

/// Runs one batch workload and fills `report`.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: u64,
    traced: bool,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    alloc::reset_peak();
    let mut setups = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous load first so peaks do not stack.
        drop(loaded.take());
        let t = Instant::now();
        let (inst, times) = load(kind, seed, tracer);
        setups.push((t.elapsed().as_secs_f64(), times));
        loaded = Some(inst);
    }
    let inst = loaded.expect("at least one set-up");
    let pool = ThreadPool::new(if kind.pooled() {
        Threads::from_env()
    } else {
        Threads::serial()
    });
    let serial = ThreadPool::new(Threads::serial());
    let mut runner = Runner {
        inst: &inst,
        space: inst.space(),
        calls: kind.calls(),
        passes_run: 0,
    };
    let budget = Duration::from_secs(seconds);

    let setup_s = median(&setups.iter().map(|s| s.0).collect::<Vec<_>>());
    let set_median =
        |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(|s| f(&s.1)).collect::<Vec<_>>());
    if !traced {
        let passes = runner.passes(&pool, budget, tracer, None);
        let peak = alloc::snapshot().peak_live_bytes;
        let reference = (kind == Kind::CmcPool).then(|| {
            let serial_pass = runner.pass(&serial, tracer, None);
            runner.verify(std::slice::from_ref(&serial_pass), None, tracer, report)
        });
        let costs = runner.verify(&passes, reference.as_deref(), tracer, report);
        let solve_s = median_secs(&passes);
        // Each query's median call time over the passes; the latency
        // percentiles run over the query list.
        let latencies: Vec<f64> = (0..runner.calls.len())
            .map(|i| {
                median(
                    &passes
                        .iter()
                        .map(|p| p.call_secs[i] * 1e3)
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let ok = ratio(
            (report.attempted - report.failed) as f64,
            report.attempted as f64,
        );
        report.set("setup_s", setup_s);
        report.set("solve_s", solve_s);
        report.set("cost_total", costs.iter().sum());
        report.set("peak_mem_mb", peak as f64 / 1e6);
        report.set("ok_share", ok);
        report.set("latency_p50_ms", quantile(&latencies, 0.5));
        report.set("latency_p90_ms", quantile(&latencies, 0.9));
        report.set("max_rate_rps", runner.calls.len() as f64 / solve_s);
        report.set("complete_share", ok);
        return;
    }

    report.set("lbl.generate_s", set_median(|t| t.generate));
    report.set("index.build_s", set_median(|t| t.index));
    if let Some(cube) = &inst.cube {
        report.set("enumerate.s", set_median(|t| t.enumerate));
        report.set("enumerate.sets", cube.num_patterns() as f64);
    }
    let half = budget / 2;
    let plain = runner.passes(&pool, half, tracer, None);
    let mut tr = Traced::default();
    let traced_passes = runner.passes(&pool, half, tracer, Some(&mut tr));
    runner.verify(&plain, None, tracer, report);
    runner.verify(&traced_passes, None, tracer, report);
    let n = traced_passes.len() as f64;
    let tree = tr.profile.tree();
    report.set(
        "telemetry.trace_overhead",
        median_secs(&traced_passes) / median_secs(&plain),
    );
    let all = tr.all();
    match kind {
        Kind::CwscLattice => {
            let m = tr.layer("opt_cwsc").clone();
            let calls = n * runner.calls.len() as f64;
            report.set(
                "opt_cwsc.solve_s",
                per_call_secs(&traced_passes, &runner.calls, "opt_cwsc"),
            );
            report.set("opt_cwsc.expand_self_s", self_secs(&tree, "expand") / calls);
            report.set(
                "opt_cwsc.patterns_considered",
                m.benefits_computed as f64 / n,
            );
            report.set("opt_cwsc.postings_scanned", m.postings_scanned as f64 / n);
            report.set(
                "opt_cwsc.subtrees_pruned",
                m.subtrees_pruned_total() as f64 / n,
            );
            report.set("opt_cwsc.allocs", tr.allocs as f64 / n);
            report.set("opt_cwsc.alloc_mb", tr.alloc_bytes as f64 / 1e6 / n);
        }
        Kind::CmcPool => {
            let m = tr.layer("opt_cmc").clone();
            let calls = n * runner.calls.len() as f64;
            report.set(
                "opt_cmc.solve_s",
                per_call_secs(&traced_passes, &runner.calls, "opt_cmc"),
            );
            report.set("opt_cmc.guess_self_s", self_secs(&tree, "guess") / calls);
            report.set("opt_cmc.guesses", m.guesses as f64 / n);
            report.set("opt_cmc.heap_stale_pops", m.heap_stale_pops as f64 / n);
            report.set(
                "opt_cmc.patterns_considered",
                m.benefits_computed as f64 / n,
            );
            report.set("opt_cmc.allocs", tr.allocs as f64 / n);
        }
        Kind::CubeSetcover => {
            let m = tr.layer("cmc").clone();
            report.set(
                "cmc.solve_s",
                per_call_secs(&traced_passes, &runner.calls, "cmc"),
            );
            report.set(
                "cwsc.solve_s",
                per_call_secs(&traced_passes, &runner.calls, "cwsc"),
            );
            report.set("cmc.guesses", m.guesses as f64 / n);
            report.set("cmc.selections", m.selections as f64 / n);
            report.set("cmc.heap_stale_pops", m.heap_stale_pops as f64 / n);
            report.set(
                "scan.candidates_pruned",
                all.scan_candidates_pruned as f64 / n,
            );
            report.set(
                "scan.bounds_refreshed",
                all.scan_bounds_refreshed as f64 / n,
            );
            report.set(
                "scan.sketch_inconclusive",
                all.scan_sketch_inconclusive as f64 / n,
            );
            report.set(
                "scan.prune_ratio",
                ratio(
                    all.scan_candidates_pruned as f64,
                    (all.scan_candidates_pruned + all.benefits_computed) as f64,
                ),
            );
        }
    }
    if kind.pooled() {
        let serial_passes = runner.passes(&serial, half, tracer, None);
        runner.verify(&serial_passes, None, tracer, report);
        let serial_s = median_secs(&serial_passes);
        report.set("parallel.serial_solve_s", serial_s);
        report.set("parallel.speedup", serial_s / median_secs(&plain));
        report.set(
            "parallel.useful_guess_ratio",
            ratio(
                all.guesses_committed as f64,
                (all.guesses_committed + all.guesses_wasted) as f64,
            ),
        );
    }
    report.profile = tr.profile.render();
}
