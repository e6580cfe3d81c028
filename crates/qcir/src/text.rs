//! A plain-text circuit format for dumping and loading benchmarks.
//!
//! One operation per line, lowercase gate name followed by qubit indices;
//! parameterized gates carry their parameter in parentheses; noise
//! channels are prefixed with `!`. Comments start with `#`.
//!
//! ```text
//! qubits 3
//! h 0
//! cx 0 1
//! rz(1.5707963) 1
//! t 2
//! !depolarize1(0.01) 0
//! ```

use crate::{Circuit, Gate, NoiseChannel, OpKind, Operation, Qubit};
use std::fmt::Write as _;

/// Error from parsing the text circuit format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCircuitError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseCircuitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseCircuitError {}

/// Serializes a circuit to the text format.
pub fn to_text(circuit: &Circuit) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "qubits {}", circuit.num_qubits());
    for op in circuit.ops() {
        let name = match &op.kind {
            OpKind::Gate(g) => gate_token(*g),
            OpKind::Noise(c) => noise_token(*c),
        };
        let qs: Vec<String> = op.qubits.iter().map(|q| q.index().to_string()).collect();
        let _ = writeln!(out, "{name} {}", qs.join(" "));
    }
    out
}

fn gate_token(g: Gate) -> String {
    match g {
        Gate::I => "i".into(),
        Gate::X => "x".into(),
        Gate::Y => "y".into(),
        Gate::Z => "z".into(),
        Gate::H => "h".into(),
        Gate::S => "s".into(),
        Gate::Sdg => "sdg".into(),
        Gate::SqrtX => "sx".into(),
        Gate::SqrtXdg => "sxdg".into(),
        Gate::SqrtY => "sy".into(),
        Gate::SqrtYdg => "sydg".into(),
        Gate::T => "t".into(),
        Gate::Tdg => "tdg".into(),
        Gate::Rz(a) => format!("rz({a:.17})"),
        Gate::Rx(a) => format!("rx({a:.17})"),
        Gate::Ry(a) => format!("ry({a:.17})"),
        Gate::ZPow(a) => format!("zpow({a:.17})"),
        Gate::Cx => "cx".into(),
        Gate::Cy => "cy".into(),
        Gate::Cz => "cz".into(),
        Gate::Swap => "swap".into(),
    }
}

fn noise_token(c: NoiseChannel) -> String {
    match c {
        NoiseChannel::BitFlip(p) => format!("!bitflip({p:.17})"),
        NoiseChannel::PhaseFlip(p) => format!("!phaseflip({p:.17})"),
        NoiseChannel::YFlip(p) => format!("!yflip({p:.17})"),
        NoiseChannel::Depolarize1(p) => format!("!depolarize1({p:.17})"),
        NoiseChannel::Depolarize2(p) => format!("!depolarize2({p:.17})"),
    }
}

/// Parses a circuit from the text format.
///
/// # Errors
///
/// Returns [`ParseCircuitError`] on malformed input (unknown gate, bad
/// parameter, missing, out-of-range or repeated qubits, missing header).
pub fn from_text(src: &str) -> Result<Circuit, ParseCircuitError> {
    let err = |line: usize, message: &str| ParseCircuitError {
        line,
        message: message.to_string(),
    };
    let mut circuit: Option<Circuit> = None;
    for (i, raw) in src.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let head = parts.next().expect("non-empty line");
        if head == "qubits" {
            let n: usize = parts
                .next()
                .ok_or_else(|| err(line_no, "missing qubit count"))?
                .parse()
                .map_err(|_| err(line_no, "invalid qubit count"))?;
            circuit = Some(Circuit::new(n));
            continue;
        }
        let c = circuit
            .as_mut()
            .ok_or_else(|| err(line_no, "missing 'qubits N' header"))?;
        let qubits: Vec<usize> = parts
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|_| err(line_no, "invalid qubit index"))?;
        for (k, &q) in qubits.iter().enumerate() {
            if q >= c.num_qubits() {
                return Err(err(line_no, &format!("qubit {q} out of range")));
            }
            if qubits[..k].contains(&q) {
                return Err(err(line_no, &format!("duplicate qubit operand {q}")));
            }
        }
        let (name, param) = split_param(head, line_no)?;
        let op = build_op(name, param, &qubits, line_no)?;
        if op.qubits.len() != qubits.len() {
            return Err(err(line_no, "wrong number of qubits"));
        }
        c.push(op);
    }
    circuit.ok_or_else(|| err(1, "missing 'qubits N' header"))
}

/// Splits `name(1.23)` into `("name", Some(1.23))`.
fn split_param(token: &str, line: usize) -> Result<(&str, Option<f64>), ParseCircuitError> {
    match token.find('(') {
        None => Ok((token, None)),
        Some(open) => {
            let close = token.rfind(')').ok_or_else(|| ParseCircuitError {
                line,
                message: "unclosed parameter".into(),
            })?;
            let value: f64 = token[open + 1..close]
                .parse()
                .map_err(|_| ParseCircuitError {
                    line,
                    message: "invalid parameter".into(),
                })?;
            Ok((&token[..open], Some(value)))
        }
    }
}

fn build_op(
    name: &str,
    param: Option<f64>,
    qubits: &[usize],
    line: usize,
) -> Result<Operation, ParseCircuitError> {
    let qs: Vec<Qubit> = qubits.iter().map(|&q| Qubit(q)).collect();
    let fail = |message: &str| ParseCircuitError {
        line,
        message: message.to_string(),
    };
    let need_param = || param.ok_or_else(|| fail("missing parameter"));
    let no_param = |g: Gate| {
        if param.is_some() {
            Err(fail("unexpected parameter"))
        } else {
            Ok(g)
        }
    };
    if let Some(noise_name) = name.strip_prefix('!') {
        let p = need_param()?;
        let channel = match noise_name {
            "bitflip" => NoiseChannel::BitFlip(p),
            "phaseflip" => NoiseChannel::PhaseFlip(p),
            "yflip" => NoiseChannel::YFlip(p),
            "depolarize1" => NoiseChannel::Depolarize1(p),
            "depolarize2" => NoiseChannel::Depolarize2(p),
            other => return Err(fail(&format!("unknown noise channel '{other}'"))),
        };
        if qs.len() != channel.arity() {
            return Err(fail("wrong number of qubits for channel"));
        }
        return Ok(Operation::noise(channel, qs));
    }
    let gate = match name {
        "i" => no_param(Gate::I)?,
        "x" => no_param(Gate::X)?,
        "y" => no_param(Gate::Y)?,
        "z" => no_param(Gate::Z)?,
        "h" => no_param(Gate::H)?,
        "s" => no_param(Gate::S)?,
        "sdg" => no_param(Gate::Sdg)?,
        "sx" => no_param(Gate::SqrtX)?,
        "sxdg" => no_param(Gate::SqrtXdg)?,
        "sy" => no_param(Gate::SqrtY)?,
        "sydg" => no_param(Gate::SqrtYdg)?,
        "t" => no_param(Gate::T)?,
        "tdg" => no_param(Gate::Tdg)?,
        "rz" => Gate::Rz(need_param()?),
        "rx" => Gate::Rx(need_param()?),
        "ry" => Gate::Ry(need_param()?),
        "zpow" => Gate::ZPow(need_param()?),
        "cx" => no_param(Gate::Cx)?,
        "cy" => no_param(Gate::Cy)?,
        "cz" => no_param(Gate::Cz)?,
        "swap" => no_param(Gate::Swap)?,
        other => return Err(fail(&format!("unknown gate '{other}'"))),
    };
    if qs.len() != gate.arity() {
        return Err(fail("wrong number of qubits for gate"));
    }
    Ok(Operation::gate(gate, qs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_gates() {
        let mut c = Circuit::new(3);
        c.h(0)
            .x(1)
            .y(2)
            .z(0)
            .s(1)
            .sdg(2)
            .t(0)
            .tdg(1)
            .rz(2, 0.7)
            .rx(0, -1.2)
            .ry(1, 2.5)
            .zpow(2, 0.31)
            .cx(0, 1)
            .cy(1, 2)
            .cz(2, 0)
            .swap(0, 2);
        c.add_gate(Gate::SqrtX, &[0]);
        c.add_gate(Gate::SqrtXdg, &[1]);
        c.add_gate(Gate::SqrtY, &[2]);
        c.add_gate(Gate::SqrtYdg, &[0]);
        c.add_gate(Gate::I, &[1]);
        c.add_noise(NoiseChannel::BitFlip(0.125), &[0]);
        c.add_noise(NoiseChannel::Depolarize2(0.0625), &[1, 2]);
        let text = to_text(&c);
        let back = from_text(&text).unwrap();
        assert_eq!(back, c, "text roundtrip changed the circuit:\n{text}");
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let src = "# a bell pair\nqubits 2\n\nh 0  # hadamard\ncx 0 1\n";
        let c = from_text(src).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.num_qubits(), 2);
        assert!(c.is_clifford());
    }

    #[test]
    fn parameter_precision_survives() {
        let mut c = Circuit::new(1);
        c.rz(0, std::f64::consts::PI / 7.0);
        let back = from_text(&to_text(&c)).unwrap();
        match back.ops()[0].as_gate().unwrap() {
            Gate::Rz(a) => assert_eq!(a, std::f64::consts::PI / 7.0, "bit-exact roundtrip"),
            g => panic!("wrong gate {g:?}"),
        }
    }

    #[test]
    fn errors_are_located() {
        assert_eq!(from_text("h 0").unwrap_err().line, 1);
        let e = from_text("qubits 2\nfrobnicate 0").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("frobnicate"));
        let e = from_text("qubits 2\nh 5").unwrap_err();
        assert!(e.message.contains("out of range"));
        let e = from_text("qubits 2\nrz 0").unwrap_err();
        assert!(e.message.contains("missing parameter"));
        let e = from_text("qubits 2\ncx 0").unwrap_err();
        assert!(e.message.contains("wrong number"));
        let e = from_text("qubits 2\n!bitflip(2) 0 1").unwrap_err();
        assert!(e.message.contains("wrong number"));
        for src in [
            "qubits 2\nh 0\ncx 0 0\n",
            "qubits 2\nh 1\n!depolarize2(0.1) 1 1",
        ] {
            let e = from_text(src).unwrap_err();
            assert_eq!(e.line, 3);
            assert!(e.message.contains("duplicate qubit operand"), "{e}");
        }
    }

    #[test]
    fn rejects_unclosed_or_bad_params() {
        assert!(from_text("qubits 1\nrz(1.0 0").is_err());
        assert!(from_text("qubits 1\nrz(abc) 0").is_err());
        assert!(from_text("qubits 1\nh(0.5) 0").is_err());
    }
}
