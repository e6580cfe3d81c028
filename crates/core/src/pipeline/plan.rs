//! The plan stage: cut placement and reusable execution structure.
//!
//! A [`CutPlan`] captures everything about a pipeline run that depends
//! only on the circuit's *cut structure* — the cut placement, the
//! fragment decomposition, the enumerated tomography variants with their
//! extraction plans ([`cutkit::FragmentEvalPlan`]), and the recombination
//! scatter plans — and nothing that depends on execution parameters
//! (seed, shot budget, thread count).
//!
//! That split is what makes parameterized sweeps cheap: CAFQA/VQE-style
//! workloads and fragment tomography re-run the **same cut structure**
//! with different seeds and shot budgets, so [`SuperSim::plan`] runs the
//! cutter once and an [`Executor`] replays the plan for every point
//! instead of re-cutting per call.
//!
//! [`SuperSim::plan`]: crate::SuperSim::plan
//! [`Executor`]: crate::Executor

use cutkit::{
    cut_circuit, CutCircuit, CutError, CutPoint, CutStrategy, Fragment, FragmentEvalPlan,
};
use qcir::text::ParseCircuitError;
use qcir::{Circuit, IndexPlan};
use std::fmt;
use std::time::{Duration, Instant};

/// A reusable execution plan: cut placement + fragment structure +
/// variant enumeration + recombination scatter plans, built once by
/// [`SuperSim::plan`](crate::SuperSim::plan) and executed many times by
/// an [`Executor`](crate::Executor).
#[derive(Clone, Debug)]
pub struct CutPlan {
    pub(crate) cut: CutCircuit,
    /// Per-fragment evaluation plans (variants + extraction tables).
    pub(crate) eval_plans: Vec<FragmentEvalPlan>,
    /// Per-fragment circuit-output scatter plans for joint reconstruction
    /// and strong simulation.
    pub(crate) output_plans: Vec<IndexPlan>,
    pub(crate) num_variants: usize,
    pub(crate) clifford_fragments: usize,
    /// Wall time of the cutting + planning stage (reported once per run
    /// via [`RunReport::cut_time`](crate::RunReport::cut_time); sweeps
    /// amortize it over every point).
    pub(crate) cut_time: Duration,
    /// Structural fingerprint of the source circuit
    /// ([`Circuit::fingerprint`]) — carried into batch diagnostics so a
    /// failing job identifies its circuit without holding it.
    pub(crate) fingerprint: u64,
    /// The source circuit and strategy the plan was built from — what
    /// [`CutPlan::to_text`] snapshots so a loaded plan can be rebuilt
    /// deterministically.
    pub(crate) source: Circuit,
    pub(crate) strategy: CutStrategy,
}

/// The resource footprint of executing a [`CutPlan`] once, derived purely
/// from the plan structure — the quantities admission control budgets
/// against before a job is enqueued.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PlanCost {
    /// Number of cuts `k`.
    pub num_cuts: usize,
    /// Total tomography variants evaluated across all fragments.
    pub num_variants: usize,
    /// Estimated size of the `4^k` recombination assignment sweep. This
    /// is an **upper bound**, not a prediction: the sparse contraction
    /// prunes identically-zero Pauli assignments entirely outside this
    /// estimate (for stabilizer-heavy circuits the realized visit count
    /// can be orders of magnitude lower), and an error budget discounts
    /// it only by the uniform-weight model of
    /// [`PlanCost::with_error_budget`]. Compare against the realized
    /// [`RunReport::visited_assignments`](crate::RunReport::visited_assignments)
    /// — the post-truncation count — when judging like with like.
    pub sweep_assignments: u64,
    /// Admission proxy for the evaluation memory of one job, which runs
    /// on one worker: `Σ_f variants_f × 4^{cuts_f} × 8` bytes, however
    /// many workers the batch has. It is not the live footprint: an
    /// accumulator holds one `4^{cuts_f}`-slot row per distinct outcome
    /// of its fragment, so what evaluation holds scales with the
    /// fragments' supports, which the plan does not know.
    pub accumulator_bytes: u64,
}

impl PlanCost {
    /// Discounts [`PlanCost::sweep_assignments`] by a recombination error
    /// budget, under a uniform-weight model: a budget of `b` on a
    /// unit-mass sweep can truncate up to a `b` fraction of the
    /// assignments, so the estimate scales by `1 − min(b, 1)` (never
    /// below one assignment for a nonempty sweep). A zero budget returns
    /// the cost unchanged. Admission control applies this before judging
    /// a job, so budgeted jobs are not rejected on the exact sweep size.
    pub fn with_error_budget(self, budget: f64) -> PlanCost {
        if budget <= 0.0 || !budget.is_finite() {
            return self;
        }
        let scaled = (self.sweep_assignments as f64 * (1.0 - budget.min(1.0))).ceil() as u64;
        PlanCost {
            sweep_assignments: scaled.max(1),
            ..self
        }
    }
}

impl CutPlan {
    /// Cuts `circuit` with `strategy` and precomputes the reusable
    /// execution structure.
    ///
    /// # Errors
    ///
    /// Returns [`CutError`] when a manual cut point does not lie on its
    /// wire or the plan has more cuts than the recombination accepts.
    pub fn build(circuit: &Circuit, strategy: CutStrategy) -> Result<CutPlan, CutError> {
        let t0 = Instant::now();
        let cut = cut_circuit(circuit, strategy.clone())?;
        let eval_plans: Vec<FragmentEvalPlan> =
            cut.fragments.iter().map(FragmentEvalPlan::new).collect();
        let output_plans: Vec<IndexPlan> = cut
            .fragments
            .iter()
            .map(|f| {
                let globals: Vec<usize> = f.circuit_outputs.iter().map(|&(_, g)| g).collect();
                IndexPlan::new(&globals, cut.original_qubits)
            })
            .collect();
        let num_variants = eval_plans.iter().map(FragmentEvalPlan::num_variants).sum();
        let clifford_fragments = cut.fragments.iter().filter(|f| f.is_clifford).count();
        Ok(CutPlan {
            cut,
            eval_plans,
            output_plans,
            num_variants,
            clifford_fragments,
            cut_time: t0.elapsed(),
            fingerprint: circuit.fingerprint(),
            source: circuit.clone(),
            strategy,
        })
    }

    /// Structural fingerprint of the source circuit
    /// ([`Circuit::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The resource footprint of one execution of this plan — what
    /// admission control budgets against (see
    /// [`AdmissionPolicy`](crate::AdmissionPolicy)).
    pub fn cost(&self) -> PlanCost {
        let k = self.cut.num_cuts as u32;
        // 4^k, saturating: k is already capped far below 32 by the cut
        // budget, but admission must not overflow on adversarial plans.
        let sweep_assignments = 1u64.checked_shl(2 * k).unwrap_or(u64::MAX);
        let accumulator_bytes = self
            .eval_plans
            .iter()
            .map(|p| (p.num_variants() as u64).saturating_mul(p.dim() as u64))
            .fold(0u64, u64::saturating_add)
            .saturating_mul(8);
        PlanCost {
            num_cuts: self.cut.num_cuts,
            num_variants: self.num_variants,
            sweep_assignments,
            accumulator_bytes,
        }
    }

    /// The fragments of the cut circuit, in deterministic discovery order.
    pub fn fragments(&self) -> &[Fragment] {
        &self.cut.fragments
    }

    /// Number of fragments.
    pub fn num_fragments(&self) -> usize {
        self.cut.fragments.len()
    }

    /// Number of Clifford fragments (stabilizer-simulable).
    pub fn clifford_fragments(&self) -> usize {
        self.clifford_fragments
    }

    /// Number of cuts (`k` in the `4^k` reconstruction bound).
    pub fn num_cuts(&self) -> usize {
        self.cut.num_cuts
    }

    /// Total fragment variants one execution of this plan runs.
    pub fn num_variants(&self) -> usize {
        self.num_variants
    }

    /// Width of the original circuit.
    pub fn original_qubits(&self) -> usize {
        self.cut.original_qubits
    }

    /// Wall time the cutter + planner took to build this plan.
    pub fn cut_time(&self) -> Duration {
        self.cut_time
    }

    /// The source circuit this plan was built from.
    pub fn source(&self) -> &Circuit {
        &self.source
    }

    /// The cut strategy this plan was built with.
    pub fn strategy(&self) -> &CutStrategy {
        &self.strategy
    }

    /// Serializes the plan to a text snapshot: a version header, the cut
    /// strategy, and the source circuit in the [`qcir::text`] format.
    ///
    /// The snapshot stores the plan's *inputs*, not its derived tables:
    /// planning is deterministic, so [`CutPlan::from_text`] rebuilds the
    /// identical plan (same fragments, variants, and scatter plans), and
    /// executing a loaded plan is **bit-identical** to executing the
    /// original. This keeps snapshots small, diffable, and immune to
    /// internal-representation drift across versions of the planner.
    pub fn to_text(&self) -> String {
        let mut out = String::from("supersim-plan v1\n");
        out.push_str(&strategy_line(&self.strategy));
        out.push('\n');
        out.push_str(&qcir::text::to_text(&self.source));
        out
    }

    /// Loads a plan from a [`CutPlan::to_text`] snapshot by parsing the
    /// strategy and circuit and rebuilding deterministically.
    ///
    /// # Errors
    ///
    /// Returns [`PlanLoadError`] when the header or strategy line is
    /// malformed, the circuit text fails to parse, or the strategy cannot
    /// cut the circuit (possible only if the snapshot was edited).
    pub fn from_text(src: &str) -> Result<CutPlan, PlanLoadError> {
        let mut lines = src.lines();
        let header = lines.next().unwrap_or("");
        if header.trim() != "supersim-plan v1" {
            return Err(PlanLoadError::Format {
                line: 1,
                message: format!("expected header `supersim-plan v1`, got `{header}`"),
            });
        }
        let strategy = parse_strategy_line(lines.next().unwrap_or(""))?;
        let rest: String = lines.collect::<Vec<_>>().join("\n");
        let circuit = qcir::text::from_text(&rest).map_err(PlanLoadError::Circuit)?;
        CutPlan::build(&circuit, strategy).map_err(PlanLoadError::Cut)
    }
}

/// Renders a [`CutStrategy`] for the plan snapshot (`strategy none`,
/// `strategy isolate <max_cuts>`, or `strategy manual <q>:<after_op>...`).
fn strategy_line(strategy: &CutStrategy) -> String {
    match strategy {
        CutStrategy::None => "strategy none".to_string(),
        CutStrategy::IsolateNonClifford { max_cuts } => format!("strategy isolate {max_cuts}"),
        CutStrategy::Manual(points) => {
            let mut out = String::from("strategy manual");
            for p in points {
                out.push_str(&format!(" {}:{}", p.qubit, p.after_op));
            }
            out
        }
    }
}

fn parse_strategy_line(line: &str) -> Result<CutStrategy, PlanLoadError> {
    let err = |message: String| PlanLoadError::Format { line: 2, message };
    let mut tokens = line.split_whitespace();
    if tokens.next() != Some("strategy") {
        return Err(err(format!("expected `strategy ...`, got `{line}`")));
    }
    match tokens.next() {
        Some("none") => Ok(CutStrategy::None),
        Some("isolate") => {
            let max_cuts = tokens
                .next()
                .ok_or_else(|| err("`strategy isolate` needs a max-cuts bound".into()))?
                .parse::<usize>()
                .map_err(|e| err(format!("bad max-cuts bound: {e}")))?;
            Ok(CutStrategy::IsolateNonClifford { max_cuts })
        }
        Some("manual") => {
            let mut points = Vec::new();
            for tok in tokens {
                let (q, op) = tok
                    .split_once(':')
                    .ok_or_else(|| err(format!("bad cut point `{tok}` (want `qubit:after_op`)")))?;
                points.push(CutPoint {
                    qubit: q
                        .parse()
                        .map_err(|e| err(format!("bad cut-point qubit `{q}`: {e}")))?,
                    after_op: op
                        .parse()
                        .map_err(|e| err(format!("bad cut-point op index `{op}`: {e}")))?,
                });
            }
            Ok(CutStrategy::Manual(points))
        }
        other => Err(err(format!("unknown strategy `{other:?}`"))),
    }
}

/// Error from [`CutPlan::from_text`].
#[derive(Debug)]
pub enum PlanLoadError {
    /// The snapshot's header or strategy line is malformed.
    Format {
        /// 1-based line number of the offending line.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The embedded circuit text failed to parse.
    Circuit(ParseCircuitError),
    /// The strategy cannot cut the circuit: a manual cut point off its
    /// wire, or more cuts than the recombination accepts (possible only
    /// when a snapshot is edited to a different circuit or strategy).
    Cut(CutError),
}

impl fmt::Display for PlanLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanLoadError::Format { line, message } => {
                write!(f, "plan snapshot line {line}: {message}")
            }
            PlanLoadError::Circuit(e) => write!(f, "plan snapshot circuit: {e}"),
            PlanLoadError::Cut(e) => write!(f, "plan snapshot rebuild: {e}"),
        }
    }
}

impl std::error::Error for PlanLoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanLoadError::Format { .. } => None,
            PlanLoadError::Circuit(e) => Some(e),
            PlanLoadError::Cut(e) => Some(e),
        }
    }
}
