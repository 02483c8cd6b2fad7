//! Structural Verilog import.
//!
//! Parses the gate-level subset that [`crate::export::to_verilog`] emits
//! (and that hand-written structural netlists commonly use): `module`
//! headers, `input`/`output`/`wire` declarations, continuous assignments
//! with `~ & ^ |` and the ternary mux, and `endmodule`. Together with
//! the exporter this gives the toolchain a netlist round-trip: circuits
//! can leave for other tools and come back for re-architecting.

use crate::gate::NodeId;
use crate::netlist::Netlist;
use pd_anf::VarPool;
use std::collections::HashMap;
use std::fmt;

/// Error produced by [`from_verilog`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseVerilogError {
    /// 1-based line of the offending construct.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseVerilogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseVerilogError {}

fn err(line: usize, message: impl Into<String>) -> ParseVerilogError {
    ParseVerilogError {
        line,
        message: message.into(),
    }
}

/// Parses a single structural Verilog module into a [`Netlist`].
///
/// Inputs are registered in `pool` (reusing variables that already carry
/// the same name); `output` ports become the netlist's named outputs.
/// Signals must be defined before use, which is always the case for the
/// topologically-ordered output of [`crate::export::to_verilog`].
///
/// # Errors
///
/// Returns [`ParseVerilogError`] on syntax errors, use of undefined
/// signals, redefinitions, or unsupported constructs (only the
/// combinational operator subset `~ & ^ | ?:` is accepted).
pub fn from_verilog(text: &str, pool: &mut VarPool) -> Result<Netlist, ParseVerilogError> {
    let mut nl = Netlist::new();
    let mut signals: HashMap<String, NodeId> = HashMap::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut seen_module = false;
    let mut seen_end = false;

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let stmt = raw.split("//").next().unwrap_or("").trim();
        if stmt.is_empty() {
            continue;
        }
        if seen_end {
            return Err(err(line, "content after endmodule"));
        }
        if let Some(rest) = stmt.strip_prefix("module") {
            if seen_module {
                return Err(err(line, "only a single module is supported"));
            }
            seen_module = true;
            // The port list carries no direction info here; directions
            // come from the input/output declarations.
            if !rest.trim_end().ends_with(';') {
                return Err(err(line, "module header must end with ';'"));
            }
            continue;
        }
        if !seen_module {
            return Err(err(line, "expected `module` before declarations"));
        }
        if stmt == "endmodule" {
            seen_end = true;
            continue;
        }
        let stmt = stmt
            .strip_suffix(';')
            .ok_or_else(|| err(line, "statement must end with ';'"))?
            .trim();
        if let Some(rest) = stmt.strip_prefix("input") {
            for name in rest.split(',') {
                let name = name.trim();
                check_identifier(name, line)?;
                let v = pool.var_or_input(name);
                let node = nl.input(v);
                if signals.insert(name.to_owned(), node).is_some() {
                    return Err(err(line, format!("signal {name:?} redefined")));
                }
            }
        } else if let Some(rest) = stmt.strip_prefix("output") {
            for name in rest.split(',') {
                let name = name.trim();
                check_identifier(name, line)?;
                outputs.push(name.to_owned());
            }
        } else if let Some(rest) = stmt.strip_prefix("wire") {
            let (name, expr) = rest
                .split_once('=')
                .ok_or_else(|| err(line, "wire declaration needs `= expr`"))?;
            let name = name.trim();
            check_identifier(name, line)?;
            let node = parse_expr(expr, line, &signals, &mut nl)?;
            if signals.insert(name.to_owned(), node).is_some() {
                return Err(err(line, format!("signal {name:?} redefined")));
            }
        } else if let Some(rest) = stmt.strip_prefix("assign") {
            let (name, expr) = rest
                .split_once('=')
                .ok_or_else(|| err(line, "assign needs `= expr`"))?;
            let name = name.trim();
            check_identifier(name, line)?;
            if !outputs.iter().any(|o| o == name) {
                return Err(err(
                    line,
                    format!("assign target {name:?} is not an output"),
                ));
            }
            let node = parse_expr(expr, line, &signals, &mut nl)?;
            nl.set_output(name, node);
        } else {
            return Err(err(line, format!("unsupported statement {stmt:?}")));
        }
    }
    if !seen_end {
        return Err(err(text.lines().count(), "missing endmodule"));
    }
    for o in &outputs {
        if !nl.outputs().iter().any(|(n, _)| n == o) {
            return Err(err(
                text.lines().count(),
                format!("output {o:?} was never assigned"),
            ));
        }
    }
    Ok(nl)
}

fn check_identifier(name: &str, line: usize) -> Result<(), ParseVerilogError> {
    let ok = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '$')
        && !name.chars().next().is_some_and(|c| c.is_ascii_digit());
    if ok {
        Ok(())
    } else {
        Err(err(line, format!("bad identifier {name:?}")))
    }
}

/// Recursive-descent expression parser over the combinational subset.
/// Precedence (loosest to tightest): `?:`, `|`, `^`, `&`, unary `~`.
struct ExprParser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    line: usize,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Token<'a> {
    Ident(&'a str),
    Const(bool),
    Op(char),
}

fn tokenize(s: &str, line: usize) -> Result<Vec<Token<'_>>, ParseVerilogError> {
    let mut tokens = Vec::new();
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' => i += 1,
            '~' | '&' | '^' | '|' | '?' | ':' | '(' | ')' => {
                tokens.push(Token::Op(c));
                i += 1;
            }
            '1' if s[i..].starts_with("1'b0") => {
                tokens.push(Token::Const(false));
                i += 4;
            }
            '1' if s[i..].starts_with("1'b1") => {
                tokens.push(Token::Const(true));
                i += 4;
            }
            c if c.is_ascii_alphanumeric() || c == '_' || c == '$' => {
                let start = i;
                while i < bytes.len() {
                    let c = bytes[i] as char;
                    if c.is_ascii_alphanumeric() || c == '_' || c == '$' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Ident(&s[start..i]));
            }
            other => return Err(err(line, format!("unexpected character {other:?}"))),
        }
    }
    Ok(tokens)
}

fn parse_expr(
    s: &str,
    line: usize,
    signals: &HashMap<String, NodeId>,
    nl: &mut Netlist,
) -> Result<NodeId, ParseVerilogError> {
    let mut p = ExprParser {
        tokens: tokenize(s, line)?,
        pos: 0,
        line,
    };
    let node = p.ternary(signals, nl)?;
    if p.pos != p.tokens.len() {
        return Err(err(line, "trailing tokens in expression"));
    }
    Ok(node)
}

impl<'a> ExprParser<'a> {
    fn peek(&self) -> Option<Token<'a>> {
        self.tokens.get(self.pos).copied()
    }

    fn eat_op(&mut self, op: char) -> bool {
        if self.peek() == Some(Token::Op(op)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ternary(
        &mut self,
        signals: &HashMap<String, NodeId>,
        nl: &mut Netlist,
    ) -> Result<NodeId, ParseVerilogError> {
        let cond = self.or_expr(signals, nl)?;
        if !self.eat_op('?') {
            return Ok(cond);
        }
        let hi = self.ternary(signals, nl)?;
        if !self.eat_op(':') {
            return Err(err(self.line, "ternary missing ':'"));
        }
        let lo = self.ternary(signals, nl)?;
        Ok(nl.mux(cond, lo, hi))
    }

    fn or_expr(
        &mut self,
        signals: &HashMap<String, NodeId>,
        nl: &mut Netlist,
    ) -> Result<NodeId, ParseVerilogError> {
        let mut acc = self.xor_expr(signals, nl)?;
        while self.eat_op('|') {
            let rhs = self.xor_expr(signals, nl)?;
            acc = nl.or(acc, rhs);
        }
        Ok(acc)
    }

    fn xor_expr(
        &mut self,
        signals: &HashMap<String, NodeId>,
        nl: &mut Netlist,
    ) -> Result<NodeId, ParseVerilogError> {
        let mut acc = self.and_expr(signals, nl)?;
        while self.eat_op('^') {
            let rhs = self.and_expr(signals, nl)?;
            acc = nl.xor(acc, rhs);
        }
        Ok(acc)
    }

    fn and_expr(
        &mut self,
        signals: &HashMap<String, NodeId>,
        nl: &mut Netlist,
    ) -> Result<NodeId, ParseVerilogError> {
        let mut acc = self.unary(signals, nl)?;
        while self.eat_op('&') {
            let rhs = self.unary(signals, nl)?;
            acc = nl.and(acc, rhs);
        }
        Ok(acc)
    }

    fn unary(
        &mut self,
        signals: &HashMap<String, NodeId>,
        nl: &mut Netlist,
    ) -> Result<NodeId, ParseVerilogError> {
        if self.eat_op('~') {
            let inner = self.unary(signals, nl)?;
            return Ok(nl.not(inner));
        }
        match self.peek() {
            Some(Token::Op('(')) => {
                self.pos += 1;
                let inner = self.ternary(signals, nl)?;
                if !self.eat_op(')') {
                    return Err(err(self.line, "missing ')'"));
                }
                Ok(inner)
            }
            Some(Token::Const(b)) => {
                self.pos += 1;
                Ok(nl.constant(b))
            }
            Some(Token::Ident(name)) => {
                self.pos += 1;
                signals
                    .get(name)
                    .copied()
                    .ok_or_else(|| err(self.line, format!("undefined signal {name:?}")))
            }
            other => Err(err(self.line, format!("expected operand, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::to_verilog;
    use crate::sim::check_equiv_anf;
    use pd_anf::Anf;

    fn roundtrip(nl: &Netlist, pool: &VarPool) -> Netlist {
        let text = to_verilog(nl, pool, "m");
        let mut pool2 = pool.clone();
        from_verilog(&text, &mut pool2).expect("emitted Verilog must parse")
    }

    #[test]
    fn parses_full_adder() {
        let src = "\
module fa(a, b, cin, sum, cout);
  input a, b, cin;
  output sum, cout;
  wire p = a ^ b;           // propagate
  wire s = p ^ cin;
  wire g = a & b;
  wire c = (p & cin) | g;
  assign sum = s;
  assign cout = c;
endmodule
";
        let mut pool = VarPool::new();
        let nl = from_verilog(src, &mut pool).expect("parses");
        let sum = Anf::parse("a ^ b ^ cin", &mut pool).unwrap();
        let cout = Anf::parse("a*b ^ b*cin ^ cin*a", &mut pool).unwrap();
        let spec = vec![("sum".to_owned(), sum), ("cout".to_owned(), cout)];
        assert_eq!(check_equiv_anf(&nl, &spec, 8, 1), None);
    }

    #[test]
    fn precedence_is_ternary_or_xor_and_not() {
        let src = "\
module p(a, b, c, y, z);
  input a, b, c;
  output y, z;
  assign y = a | b ^ c & a;
  assign z = a ? b : c ^ a;
endmodule
";
        let mut pool = VarPool::new();
        let nl = from_verilog(src, &mut pool).expect("parses");
        // y = a | (b ^ (c & a)); z = a ? b : (c ^ a).
        let y = Anf::parse("(a ^ b ^ c*a ^ a*(b ^ c*a)) ^ a*(b ^ c*a)", &mut pool);
        // Simpler: check pointwise against a hand model.
        drop(y);
        for bits in 0..8u32 {
            let (a, b, c) = (bits & 1 == 1, bits >> 1 & 1 == 1, bits >> 2 & 1 == 1);
            let assignment: std::collections::HashMap<_, _> = [
                (pool.find("a").unwrap(), a),
                (pool.find("b").unwrap(), b),
                (pool.find("c").unwrap(), c),
            ]
            .into_iter()
            .collect();
            let got = crate::sim::evaluate(&nl, &assignment);
            assert_eq!(got["y"], a | (b ^ (c & a)), "y at {bits:03b}");
            assert_eq!(got["z"], if a { b } else { c ^ a }, "z at {bits:03b}");
        }
    }

    #[test]
    fn round_trips_exported_netlists() {
        let mut pool = VarPool::new();
        let a = pool.input_word("a", 0, 4);
        let b = pool.input_word("b", 1, 4);
        let mut nl = Netlist::new();
        let mut carry = nl.constant(false);
        for i in 0..4 {
            let (na, nb) = (nl.input(a[i]), nl.input(b[i]));
            let (s, c) = nl.full_adder(na, nb, carry);
            nl.set_output(&format!("s{i}"), s);
            carry = c;
        }
        nl.set_output("s4", carry);
        let back = roundtrip(&nl, &pool);
        // Compare against the original by simulation over the spec names.
        for bits in 0..256u32 {
            let assignment: std::collections::HashMap<_, _> = a
                .iter()
                .chain(b.iter())
                .enumerate()
                .map(|(i, &v)| (v, bits >> i & 1 == 1))
                .collect();
            let want = crate::sim::evaluate(&nl, &assignment);
            let got = crate::sim::evaluate(&back, &assignment);
            assert_eq!(want, got, "bits {bits:08b}");
        }
    }

    #[test]
    fn constants_and_mux_round_trip() {
        let mut pool = VarPool::new();
        let a = pool.input("a", 0, 0);
        let b = pool.input("b", 0, 1);
        let c = pool.input("c", 0, 2);
        let mut nl = Netlist::new();
        let (na, nb, nc) = (nl.input(a), nl.input(b), nl.input(c));
        let m = nl.mux(na, nb, nc);
        let mj = nl.maj(na, nb, nc);
        let one = nl.constant(true);
        let t = nl.xor(m, one);
        nl.set_output("m", t);
        nl.set_output("mj", mj);
        let back = roundtrip(&nl, &pool);
        for bits in 0..8u32 {
            let assignment: std::collections::HashMap<_, _> = [
                (a, bits & 1 == 1),
                (b, bits >> 1 & 1 == 1),
                (c, bits >> 2 & 1 == 1),
            ]
            .into_iter()
            .collect();
            assert_eq!(
                crate::sim::evaluate(&nl, &assignment),
                crate::sim::evaluate(&back, &assignment),
                "bits {bits:03b}"
            );
        }
    }

    #[test]
    fn error_reporting_is_precise() {
        let pool = VarPool::new();
        let cases = [
            ("wire x = a;\nendmodule\n", 1, "module"),
            (
                "module m(a);\n  input a;\n  wire w = undefined_sig;\nendmodule\n",
                3,
                "undefined",
            ),
            (
                "module m(a);\n  input a;\n  input a;\nendmodule\n",
                3,
                "redefined",
            ),
            (
                "module m(a, y);\n  input a;\n  output y;\n  assign y = a &;\nendmodule\n",
                4,
                "operand",
            ),
            (
                "module m(a, y);\n  input a;\n  output y;\n  assign z = a;\nendmodule\n",
                4,
                "not an output",
            ),
            (
                "module m(a, y);\n  input a;\n  output y;\n  assign y = a\nendmodule\n",
                4,
                "';'",
            ),
            (
                "module m(a, y);\n  input a;\n  output y;\nendmodule\n",
                4,
                "never assigned",
            ),
        ];
        for (src, line, needle) in cases {
            let e = from_verilog(src, &mut pool.clone()).expect_err(src);
            assert_eq!(e.line, line, "{src}");
            assert!(
                e.message.contains(needle),
                "expected {needle:?} in {:?} for {src}",
                e.message
            );
        }
    }

    #[test]
    fn missing_endmodule_is_rejected() {
        let mut pool = VarPool::new();
        let e = from_verilog("module m(a);\n  input a;\n", &mut pool).expect_err("no end");
        assert!(e.message.contains("endmodule"));
    }
}
