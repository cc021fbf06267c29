//! Canonical and pretty JSON writers.

use std::fmt::{self, Write};

use crate::Json;

pub(crate) fn write_value<W: Write>(value: &Json, f: &mut W) -> fmt::Result {
    match value {
        Json::Null => f.write_str("null"),
        Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
        Json::UInt(n) => write!(f, "{n}"),
        Json::Int(n) => write!(f, "{n}"),
        Json::Num(x) => write_f64(*x, f),
        Json::Str(s) => write_string(s, f),
        Json::Arr(items) => {
            f.write_char('[')?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    f.write_char(',')?;
                }
                write_value(item, f)?;
            }
            f.write_char(']')
        }
        Json::Obj(members) => {
            f.write_char('{')?;
            for (i, (key, val)) in members.iter().enumerate() {
                if i > 0 {
                    f.write_char(',')?;
                }
                write_string(key, f)?;
                f.write_char(':')?;
                write_value(val, f)?;
            }
            f.write_char('}')
        }
    }
}

/// Indented writer behind [`Json::to_pretty_string`]: 2-space indent,
/// one member per line, `": "` after keys. Parses back to the same value
/// as the canonical form — only inter-token whitespace differs.
pub(crate) fn write_pretty<W: Write>(value: &Json, f: &mut W, depth: usize) -> fmt::Result {
    match value {
        Json::Arr(items) if !items.is_empty() => {
            f.write_str("[\n")?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    f.write_str(",\n")?;
                }
                write_indent(f, depth + 1)?;
                write_pretty(item, f, depth + 1)?;
            }
            f.write_char('\n')?;
            write_indent(f, depth)?;
            f.write_char(']')
        }
        Json::Obj(members) if !members.is_empty() => {
            f.write_str("{\n")?;
            for (i, (key, val)) in members.iter().enumerate() {
                if i > 0 {
                    f.write_str(",\n")?;
                }
                write_indent(f, depth + 1)?;
                write_string(key, f)?;
                f.write_str(": ")?;
                write_pretty(val, f, depth + 1)?;
            }
            f.write_char('\n')?;
            write_indent(f, depth)?;
            f.write_char('}')
        }
        other => write_value(other, f),
    }
}

fn write_indent<W: Write>(f: &mut W, depth: usize) -> fmt::Result {
    for _ in 0..depth {
        f.write_str("  ")?;
    }
    Ok(())
}

fn write_f64<W: Write>(x: f64, f: &mut W) -> fmt::Result {
    if !x.is_finite() {
        // JSON has no NaN/Inf; checkpoints never contain them, but fail
        // loudly rather than emit an unparseable token.
        panic!("cannot serialise non-finite number {x}");
    }
    // `{:?}` is Rust's shortest round-trip float formatting; ensure the
    // token stays a float (e.g. 1.0 rather than 1) so types survive.
    // Formatted on the stack: checkpoints write ~10⁵ priors at a time.
    let mut buf = FloatBuf { bytes: [0; FloatBuf::CAP], len: 0 };
    write!(buf, "{x:?}")?;
    let text = buf.as_str();
    f.write_str(text)?;
    if !text.contains(['.', 'e', 'E']) {
        f.write_str(".0")?;
    }
    Ok(())
}

/// A fixed stack buffer for one formatted `f64`; the longest `{:?}`
/// output (`-2.2250738585072014e-308`) is 24 bytes.
struct FloatBuf {
    bytes: [u8; FloatBuf::CAP],
    len: usize,
}

impl FloatBuf {
    const CAP: usize = 32;

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len]).expect("only whole `&str`s are copied in")
    }
}

impl Write for FloatBuf {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len + s.len();
        self.bytes.get_mut(self.len..end).ok_or(fmt::Error)?.copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

fn write_string<W: Write>(s: &str, f: &mut W) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

#[cfg(test)]
mod tests {
    use super::write_f64;
    use proptest::prelude::*;

    /// The writer before it formatted on the stack.
    fn heap_format(x: f64) -> String {
        let text = format!("{x:?}");
        if text.contains(['.', 'e', 'E']) {
            text
        } else {
            format!("{text}.0")
        }
    }

    fn stack_format(x: f64) -> String {
        let mut out = String::new();
        write_f64(x, &mut out).unwrap();
        out
    }

    #[test]
    fn edge_values_format_like_the_heap_path() {
        let edges = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0, // subnormal
            -f64::from_bits(1),      // smallest negative subnormal
            -2.2250738585072014e-308,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            1e21,
            1e-7,
            1e16,
            1e15,
            1.0,
            -3.0,
            123456789.0,
            0.1 + 0.2,
            1.2345678901234567e-4,
        ];
        for x in edges {
            assert_eq!(stack_format(x), heap_format(x), "{x:e}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]
        #[test]
        fn random_finite_bit_patterns_format_like_the_heap_path(bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            prop_assume!(x.is_finite());
            prop_assert_eq!(stack_format(x), heap_format(x));
        }

        #[test]
        fn integral_values_format_like_the_heap_path(n in any::<i64>()) {
            let x = n as f64;
            prop_assert_eq!(stack_format(x), heap_format(x));
        }
    }
}
