//! Cut placement and circuit fragmentation.
//!
//! The SuperSim cutter (paper §V-A) parses a near-Clifford circuit,
//! identifies the non-Clifford operations, and places wire cuts that
//! isolate them: every wire edge between a Clifford operation and a
//! non-Clifford operation is cut. Fragments are the connected components of
//! the operation graph under the remaining (uncut) wire edges, so Clifford
//! gates coalesce into large stabilizer-simulable fragments while each
//! non-Clifford island becomes a small exactly-simulable fragment.
//!
//! A merge pass can trade cuts for fragment size (the Fig. 2 caption's
//! "cut a non-Clifford gate from the middle" trade-off) to respect the
//! `4^k` reconstruction budget.

use crate::recombine::MAX_CONTRACTION_CUTS;
use qcir::Circuit;
use std::collections::HashMap;

/// A manually specified cut position: the wire of `qubit` is cut between
/// the operation at index `after_op` (which must act on that qubit) and
/// the next operation on the same wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct CutPoint {
    /// The wire to cut.
    pub qubit: usize,
    /// Index (into `circuit.ops()`) of the operation immediately upstream
    /// of the cut.
    pub after_op: usize,
}

/// How the cutter chooses cut locations.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum CutStrategy {
    /// No cutting: the whole circuit is one fragment.
    None,
    /// Cut every wire edge between Clifford and non-Clifford operations,
    /// then greedily merge fragments until at most `max_cuts` cuts remain.
    IsolateNonClifford {
        /// Upper bound on the number of cuts (reconstruction is `O(4^k)`).
        max_cuts: usize,
    },
    /// Cut exactly at the given positions (the general Peng-et-al. style
    /// cutting, independent of gate classes). Fragments are the connected
    /// components under the remaining wire edges.
    Manual(Vec<CutPoint>),
}

impl Default for CutStrategy {
    fn default() -> Self {
        CutStrategy::IsolateNonClifford { max_cuts: 10 }
    }
}

/// One fragment of a cut circuit: a standalone circuit over local qubits
/// plus the bookkeeping that classifies each local wire end (paper §V-B).
#[derive(Clone, Debug)]
pub struct Fragment {
    /// The fragment's own circuit over `num_local_qubits` wires.
    pub circuit: Circuit,
    /// Local qubits that are inputs of the original circuit (start in
    /// `|0⟩`; no extra operations needed).
    pub circuit_inputs: Vec<usize>,
    /// `(local qubit, cut id)` pairs: wire ends entering this fragment from
    /// a cut (downstream side — needs prepared states).
    pub quantum_inputs: Vec<(usize, usize)>,
    /// `(local qubit, original qubit)` pairs: outputs of the original
    /// circuit (measured in the computational basis).
    pub circuit_outputs: Vec<(usize, usize)>,
    /// `(local qubit, cut id)` pairs: wire ends leaving this fragment into
    /// a cut (upstream side — needs basis rotations before measurement).
    pub quantum_outputs: Vec<(usize, usize)>,
    /// Whether every operation in the fragment is Clifford (eligible for
    /// stabilizer simulation).
    pub is_clifford: bool,
}

impl Fragment {
    /// Number of local qubit wires.
    pub fn num_local_qubits(&self) -> usize {
        self.circuit.num_qubits()
    }

    /// Number of incident cuts (quantum inputs + quantum outputs).
    pub fn num_cut_ends(&self) -> usize {
        self.quantum_inputs.len() + self.quantum_outputs.len()
    }

    /// Number of fragment variants required for tomography:
    /// `4^inputs · 3^outputs`.
    pub fn num_variants(&self) -> usize {
        4usize.pow(self.quantum_inputs.len() as u32) * 3usize.pow(self.quantum_outputs.len() as u32)
    }
}

/// A circuit decomposed into fragments connected by cuts.
#[derive(Clone, Debug)]
pub struct CutCircuit {
    /// The fragments, in deterministic discovery order.
    pub fragments: Vec<Fragment>,
    /// Total number of cuts (each cut joins exactly one quantum output to
    /// one quantum input, possibly of the same fragment).
    pub num_cuts: usize,
    /// Width of the original circuit.
    pub original_qubits: usize,
}

impl CutCircuit {
    /// Sanity-checks the decomposition invariants; used by tests and
    /// debug assertions.
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn validate(&self) {
        let mut outs = vec![0usize; self.num_cuts];
        let mut ins = vec![0usize; self.num_cuts];
        let mut globals = Vec::new();
        for f in &self.fragments {
            for &(_, c) in &f.quantum_outputs {
                outs[c] += 1;
            }
            for &(_, c) in &f.quantum_inputs {
                ins[c] += 1;
            }
            for &(_, g) in &f.circuit_outputs {
                globals.push(g);
            }
            // Every local qubit appears exactly once as an input kind and
            // once as an output kind.
            let mut starts = vec![0; f.num_local_qubits()];
            let mut ends = vec![0; f.num_local_qubits()];
            for &q in &f.circuit_inputs {
                starts[q] += 1;
            }
            for &(q, _) in &f.quantum_inputs {
                starts[q] += 1;
            }
            for &(q, _) in &f.circuit_outputs {
                ends[q] += 1;
            }
            for &(q, _) in &f.quantum_outputs {
                ends[q] += 1;
            }
            assert!(starts.iter().all(|&c| c == 1), "each wire needs one start");
            assert!(ends.iter().all(|&c| c == 1), "each wire needs one end");
        }
        assert!(
            outs.iter().all(|&c| c == 1),
            "each cut needs one upstream end"
        );
        assert!(
            ins.iter().all(|&c| c == 1),
            "each cut needs one downstream end"
        );
        globals.sort_unstable();
        assert_eq!(
            globals,
            (0..self.original_qubits).collect::<Vec<_>>(),
            "every original qubit must be measured exactly once"
        );
    }
}

/// Error returned when a circuit cannot be cut as requested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CutError {
    /// A [`CutStrategy::Manual`] point names a qubit outside the circuit
    /// or an operation that does not act on that qubit.
    InvalidCutPoint(CutPoint),
    /// The plan has more cuts than the `4^k` contraction accepts
    /// ([`MAX_CONTRACTION_CUTS`]); no run of it could recombine.
    TooManyCuts {
        /// Cuts the strategy placed.
        cuts: usize,
        /// The contraction's limit.
        max: usize,
    },
}

impl std::fmt::Display for CutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CutError::InvalidCutPoint(p) => write!(
                f,
                "cut point {}:{} does not lie on a wire: operation {} does not act on qubit {}",
                p.qubit, p.after_op, p.after_op, p.qubit
            ),
            CutError::TooManyCuts { cuts, max } => write!(
                f,
                "{cuts} cuts exceed the {max} the 4^k recombination accepts; \
                 lower the cut budget"
            ),
        }
    }
}

impl std::error::Error for CutError {}

/// Simple union-find over operation indices.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, i: usize) -> usize {
        // Iterative find with full path compression (wire-order unions can
        // create long parent chains on deep circuits).
        let mut root = i;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = i;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

/// Cuts a circuit according to `strategy`.
///
/// [`CutStrategy::IsolateNonClifford`] meets every budget: merging
/// fragments can take any circuit down to zero cuts.
///
/// # Errors
///
/// Returns [`CutError::InvalidCutPoint`] when a [`CutStrategy::Manual`]
/// point names a qubit outside the circuit or an operation that does not
/// act on that qubit, and [`CutError::TooManyCuts`] when the cut circuit
/// has more than [`MAX_CONTRACTION_CUTS`] cuts (a manual plan with that
/// many points, or an isolation budget above the limit that the circuit's
/// non-Clifford gates use up).
pub fn cut_circuit(circuit: &Circuit, strategy: CutStrategy) -> Result<CutCircuit, CutError> {
    let cut = match strategy {
        CutStrategy::None => single_fragment(circuit),
        CutStrategy::IsolateNonClifford { max_cuts } => isolate(circuit, max_cuts),
        CutStrategy::Manual(points) => manual(circuit, &points)?,
    };
    if cut.num_cuts > MAX_CONTRACTION_CUTS {
        return Err(CutError::TooManyCuts {
            cuts: cut.num_cuts,
            max: MAX_CONTRACTION_CUTS,
        });
    }
    Ok(cut)
}

/// Cuts exactly at the requested positions.
fn manual(circuit: &Circuit, points: &[CutPoint]) -> Result<CutCircuit, CutError> {
    let ops = circuit.ops();
    let n = circuit.num_qubits();
    let mut wires: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, op) in ops.iter().enumerate() {
        for q in &op.qubits {
            wires[q.index()].push(i);
        }
    }
    if let Some(&p) = points
        .iter()
        .find(|p| wires.get(p.qubit).is_none_or(|w| !w.contains(&p.after_op)))
    {
        return Err(CutError::InvalidCutPoint(p));
    }
    if ops.is_empty() {
        return Ok(single_fragment(circuit));
    }
    let cut_set: std::collections::HashSet<(usize, usize)> =
        points.iter().map(|p| (p.qubit, p.after_op)).collect();
    let mut uf = UnionFind::new(ops.len());
    for (q, wire) in wires.iter().enumerate() {
        for pair in wire.windows(2) {
            if !cut_set.contains(&(q, pair[0])) {
                uf.union(pair[0], pair[1]);
            }
        }
    }
    Ok(build_fragments(circuit, &wires, &mut uf))
}

/// Wraps the whole circuit as one fragment with no cuts.
fn single_fragment(circuit: &Circuit) -> CutCircuit {
    let n = circuit.num_qubits();
    let fragment = Fragment {
        circuit: circuit.clone(),
        circuit_inputs: (0..n).collect(),
        quantum_inputs: Vec::new(),
        circuit_outputs: (0..n).map(|q| (q, q)).collect(),
        quantum_outputs: Vec::new(),
        is_clifford: circuit.is_clifford(),
    };
    CutCircuit {
        fragments: vec![fragment],
        num_cuts: 0,
        original_qubits: n,
    }
}

fn isolate(circuit: &Circuit, max_cuts: usize) -> CutCircuit {
    let ops = circuit.ops();
    let n = circuit.num_qubits();
    if ops.is_empty() {
        return single_fragment(circuit);
    }

    // Wires: op indices per qubit in program order.
    let mut wires: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, op) in ops.iter().enumerate() {
        for q in &op.qubits {
            wires[q.index()].push(i);
        }
    }

    // Initial components: union consecutive same-class ops on each wire.
    let class: Vec<bool> = ops.iter().map(|op| op.is_clifford()).collect();
    let mut uf = UnionFind::new(ops.len());
    for wire in &wires {
        for pair in wire.windows(2) {
            if class[pair[0]] == class[pair[1]] {
                uf.union(pair[0], pair[1]);
            }
        }
    }

    // Merge components until the number of crossing wire edges fits the
    // budget. Each crossing edge is one cut.
    loop {
        let cuts = count_cuts(&wires, &mut uf);
        if cuts <= max_cuts {
            break;
        }
        // Merge the component pair with the most crossing edges (removes
        // the most cuts per merge). Deterministic tie-break by root ids.
        let mut pair_counts: HashMap<(usize, usize), usize> = HashMap::new();
        for wire in &wires {
            for pair in wire.windows(2) {
                let (a, b) = (uf.find(pair[0]), uf.find(pair[1]));
                if a != b {
                    let key = (a.min(b), a.max(b));
                    *pair_counts.entry(key).or_insert(0) += 1;
                }
            }
        }
        let Some((&(a, b), _)) = pair_counts
            .iter()
            .max_by_key(|(&(a, b), &c)| (c, std::cmp::Reverse((a, b))))
        else {
            // No crossing edges left but cuts > max_cuts: impossible.
            break;
        };
        uf.union(a, b);
    }

    build_fragments(circuit, &wires, &mut uf)
}

fn count_cuts(wires: &[Vec<usize>], uf: &mut UnionFind) -> usize {
    let mut cuts = 0;
    for wire in wires {
        for pair in wire.windows(2) {
            if uf.find(pair[0]) != uf.find(pair[1]) {
                cuts += 1;
            }
        }
    }
    cuts
}

/// The per-wire story of one fragment-local qubit.
struct Segment {
    component: usize,
    start_cut: Option<usize>, // None = circuit input
    end_cut: Option<usize>,   // None = circuit output
    global_qubit: usize,
}

fn build_fragments(circuit: &Circuit, wires: &[Vec<usize>], uf: &mut UnionFind) -> CutCircuit {
    let ops = circuit.ops();
    let n = circuit.num_qubits();

    // Deterministic component numbering by first op index.
    let mut comp_of_root: HashMap<usize, usize> = HashMap::new();
    let mut comp_class: Vec<bool> = Vec::new(); // is_clifford per component
    for i in 0..ops.len() {
        let root = uf.find(i);
        let next = comp_of_root.len();
        let comp = *comp_of_root.entry(root).or_insert(next);
        if comp == comp_class.len() {
            comp_class.push(true);
        }
        comp_class[comp] &= ops[i].is_clifford();
    }
    let idle_exists = wires.iter().any(|w| w.is_empty());
    let idle_comp = comp_of_root.len(); // component for idle wires, if any
    let num_components = comp_of_root.len() + usize::from(idle_exists);
    if idle_exists {
        comp_class.push(true);
    }

    // Build segments wire by wire, assigning cut ids at boundaries.
    let mut segments: Vec<Segment> = Vec::new();
    let mut cut_counter = 0usize;
    // seg_of_op[op][qubit] lookup via map keyed by (op, qubit).
    let mut seg_of: HashMap<(usize, usize), usize> = HashMap::new();
    for q in 0..n {
        if wires[q].is_empty() {
            segments.push(Segment {
                component: idle_comp,
                start_cut: None,
                end_cut: None,
                global_qubit: q,
            });
            continue;
        }
        let mut current: Vec<usize> = vec![wires[q][0]];
        let mut start_cut = None;
        for pair in wires[q].windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if uf.find(a) == uf.find(b) {
                current.push(b);
            } else {
                let cut = cut_counter;
                cut_counter += 1;
                let comp = comp_of_root[&uf.find(a)];
                let idx = segments.len();
                for &o in &current {
                    seg_of.insert((o, q), idx);
                }
                segments.push(Segment {
                    component: comp,
                    start_cut,
                    end_cut: Some(cut),
                    global_qubit: q,
                });
                start_cut = Some(cut);
                current = vec![b];
            }
        }
        let comp = comp_of_root[&uf.find(*current.last().unwrap())];
        let idx = segments.len();
        for &o in &current {
            seg_of.insert((o, q), idx);
        }
        segments.push(Segment {
            component: comp,
            start_cut,
            end_cut: None,
            global_qubit: q,
        });
    }

    // Assign local qubit numbers per component, in segment discovery order.
    let mut local_of_segment: Vec<usize> = vec![usize::MAX; segments.len()];
    let mut local_count: Vec<usize> = vec![0; num_components];
    for (s, seg) in segments.iter().enumerate() {
        local_of_segment[s] = local_count[seg.component];
        local_count[seg.component] += 1;
    }

    // Assemble fragment circuits in original op order.
    let mut frag_circuits: Vec<Circuit> = local_count.iter().map(|&c| Circuit::new(c)).collect();
    for (i, op) in ops.iter().enumerate() {
        let comp = comp_of_root[&uf.find(i)];
        let mut local_op = op.clone();
        for qb in &mut local_op.qubits {
            let seg = seg_of[&(i, qb.index())];
            *qb = qcir::Qubit(local_of_segment[seg]);
        }
        frag_circuits[comp].push(local_op);
    }

    // Fragment metadata from segments.
    let mut fragments: Vec<Fragment> = frag_circuits
        .into_iter()
        .enumerate()
        .map(|(comp, circuit)| Fragment {
            circuit,
            circuit_inputs: Vec::new(),
            quantum_inputs: Vec::new(),
            circuit_outputs: Vec::new(),
            quantum_outputs: Vec::new(),
            is_clifford: comp_class[comp],
        })
        .collect();
    for (s, seg) in segments.iter().enumerate() {
        let local = local_of_segment[s];
        let frag = &mut fragments[seg.component];
        match seg.start_cut {
            None => frag.circuit_inputs.push(local),
            Some(c) => frag.quantum_inputs.push((local, c)),
        }
        match seg.end_cut {
            None => frag.circuit_outputs.push((local, seg.global_qubit)),
            Some(c) => frag.quantum_outputs.push((local, c)),
        }
    }

    let cut = CutCircuit {
        fragments,
        num_cuts: cut_counter,
        original_qubits: n,
    };
    debug_assert!({
        cut.validate();
        true
    });
    cut
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clifford_circuit_is_one_fragment_no_cuts() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).s(2);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        cut.validate();
        assert_eq!(cut.num_cuts, 0);
        assert_eq!(cut.fragments.len(), 1);
        assert!(cut.fragments[0].is_clifford);
        assert_eq!(cut.fragments[0].circuit.len(), 4);
    }

    #[test]
    fn single_t_between_cliffords_cuts_twice() {
        // H q0; T q0; H q0 — the T must be isolated by two cuts on wire 0.
        let mut c = Circuit::new(1);
        c.h(0).t(0).h(0);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        cut.validate();
        assert_eq!(cut.num_cuts, 2);
        assert_eq!(cut.fragments.len(), 3);
        let t_frag = cut
            .fragments
            .iter()
            .find(|f| !f.is_clifford)
            .expect("need a non-Clifford fragment");
        assert_eq!(t_frag.circuit.len(), 1);
        assert_eq!(t_frag.quantum_inputs.len(), 1);
        assert_eq!(t_frag.quantum_outputs.len(), 1);
        assert_eq!(t_frag.num_variants(), 12);
    }

    #[test]
    fn terminal_t_costs_one_cut() {
        let mut c = Circuit::new(1);
        c.h(0).t(0);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        cut.validate();
        assert_eq!(cut.num_cuts, 1);
        assert_eq!(cut.fragments.len(), 2);
        // Cut count obeys the paper's bound: ≤ 2 × (#non-Clifford gates).
        assert!(cut.num_cuts <= 2 * c.non_clifford_count());
    }

    #[test]
    fn clifford_regions_reconnect_around_t() {
        // Wire 0 goes C - T - C, but the two C's also touch wire 1, so they
        // are the *same* fragment and the fragment graph has a 2-cut loop
        // to the T fragment.
        let mut c = Circuit::new(2);
        c.cx(0, 1).t(0).cx(0, 1);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        cut.validate();
        assert_eq!(cut.num_cuts, 2);
        assert_eq!(cut.fragments.len(), 2);
        let cliff = cut.fragments.iter().find(|f| f.is_clifford).unwrap();
        // The Clifford fragment has 3 local wires: q1 plus two segments of q0.
        assert_eq!(cliff.num_local_qubits(), 3);
        assert_eq!(cliff.quantum_outputs.len(), 1);
        assert_eq!(cliff.quantum_inputs.len(), 1);
        assert_eq!(cliff.circuit_outputs.len(), 2);
    }

    #[test]
    fn idle_wires_become_a_clifford_fragment() {
        let mut c = Circuit::new(4);
        c.h(0).t(0); // qubits 1..3 idle
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        cut.validate();
        let idle = cut
            .fragments
            .iter()
            .find(|f| f.circuit.is_empty() && !f.circuit_outputs.is_empty())
            .expect("idle fragment");
        assert_eq!(idle.circuit_outputs.len(), 3);
        assert!(idle.is_clifford);
    }

    #[test]
    fn merge_pass_respects_budget() {
        // Alternating H/T on one wire needs many cuts; with a budget of 2
        // fragments must merge (possibly into one uncut circuit).
        let mut c = Circuit::new(1);
        for _ in 0..6 {
            c.h(0).t(0);
        }
        let cut = cut_circuit(&c, CutStrategy::IsolateNonClifford { max_cuts: 2 }).unwrap();
        cut.validate();
        assert!(cut.num_cuts <= 2);
        // All ops preserved across fragments.
        let total_ops: usize = cut.fragments.iter().map(|f| f.circuit.len()).sum();
        assert_eq!(total_ops, c.len());
    }

    #[test]
    fn strategy_none_never_cuts() {
        let mut c = Circuit::new(2);
        c.h(0).t(0).cx(0, 1);
        let cut = cut_circuit(&c, CutStrategy::None).unwrap();
        cut.validate();
        assert_eq!(cut.num_cuts, 0);
        assert_eq!(cut.fragments.len(), 1);
        assert!(!cut.fragments[0].is_clifford);
    }

    #[test]
    fn two_qubit_gate_keeps_wires_together() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).cx(0, 1).t(1).h(1);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        cut.validate();
        // T on wire 1 between CX and H: two cuts around it.
        assert_eq!(cut.num_cuts, 2);
        let total_ops: usize = cut.fragments.iter().map(|f| f.circuit.len()).sum();
        assert_eq!(total_ops, 5);
    }

    #[test]
    fn adjacent_non_cliffords_share_a_fragment() {
        let mut c = Circuit::new(1);
        c.h(0).t(0).t(0).h(0);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        cut.validate();
        assert_eq!(cut.num_cuts, 2, "T·T block isolated by two cuts");
        let non = cut.fragments.iter().find(|f| !f.is_clifford).unwrap();
        assert_eq!(non.circuit.len(), 2);
    }

    #[test]
    fn manual_cut_at_explicit_position() {
        // Cut the Bell pair between H and CX on wire 0, regardless of
        // gate classes.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let cut = cut_circuit(
            &c,
            CutStrategy::Manual(vec![CutPoint {
                qubit: 0,
                after_op: 0,
            }]),
        )
        .unwrap();
        cut.validate();
        assert_eq!(cut.num_cuts, 1);
        assert_eq!(cut.fragments.len(), 2);
        // Upstream fragment: just the H, one quantum output, no circuit
        // outputs on wire 0.
        let up = cut
            .fragments
            .iter()
            .find(|f| f.quantum_outputs.len() == 1)
            .unwrap();
        assert_eq!(up.circuit.len(), 1);
    }

    #[test]
    fn manual_cuts_can_split_clifford_circuits() {
        // The generic Peng-style use case: cut a wide Clifford circuit in
        // half even though no non-Clifford gate forces it.
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
        let cut = cut_circuit(
            &c,
            CutStrategy::Manual(vec![CutPoint {
                qubit: 2,
                after_op: 2,
            }]),
        )
        .unwrap();
        cut.validate();
        assert_eq!(cut.num_cuts, 1);
        assert_eq!(cut.fragments.len(), 2);
        assert!(cut.fragments.iter().all(|f| f.is_clifford));
    }

    #[test]
    fn manual_cut_off_wire_is_an_error() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        for (qubit, after_op, circuit) in [
            (1, 0, &c),               // op 0 (H) does not touch qubit 1
            (2, 1, &c),               // no qubit 2
            (0, 2, &c),               // no op 2
            (0, 0, &Circuit::new(1)), // no op at all
        ] {
            let point = CutPoint { qubit, after_op };
            assert_eq!(
                cut_circuit(circuit, CutStrategy::Manual(vec![point])).unwrap_err(),
                CutError::InvalidCutPoint(point)
            );
        }
    }

    /// A zero budget merges everything that shares a wire: the ladder
    /// comes back as one uncut fragment, not as an error.
    #[test]
    fn zero_cut_budget_merges_down_to_no_cuts() {
        let c = workloads::t_ladder(3, 20).circuit;
        let cut = cut_circuit(&c, CutStrategy::IsolateNonClifford { max_cuts: 0 }).unwrap();
        cut.validate();
        assert_eq!(cut.num_cuts, 0);
        assert_eq!(cut.fragments.len(), 1);
    }

    #[test]
    fn empty_circuit() {
        let c = Circuit::new(3);
        let cut = cut_circuit(&c, CutStrategy::default()).unwrap();
        cut.validate();
        assert_eq!(cut.fragments.len(), 1);
        assert_eq!(cut.num_cuts, 0);
    }
}
