//! The one line codec behind every plain-text Domino wire format:
//! `domino-metrics v1`, `domino-shard-report v2` (with its embedded
//! `chainstats v1` blocks), `domino-coordinator-stats v1`, and the
//! coordinator's frame headers and payloads.
//!
//! A text is a header line followed by newline-terminated lines of
//! tab-separated fields, the first field of each line naming it.
//! Checksummed formats end with the trailer
//! `end\t<tag>\t<fnv1a64 of every byte above, 16 lowercase hex digits>`.
//! Each field type has exactly one written form, and the [`Fields`] getters
//! accept only that form, so `encode(parse(t)) == t` for every `t` a parser
//! accepts:
//!
//! - unsigned integers: decimal, no sign, no leading zeros;
//! - `f64`: the 16 lowercase hex digits of its IEEE-754 bits, so values
//!   cross machines bit for bit;
//! - flags: `0` or `1`;
//! - strings: backslash, tab, newline and carriage return written as
//!   `\\`, `\t`, `\n` and `\r`, so a field never contains a separator.
//!
//! [`Writer`] writes these forms, [`Reader`] walks the lines, and every
//! rejection is a typed [`WireError`].

use std::fmt::{self, Write as _};
use std::str::FromStr;

/// FNV-1a 64-bit over raw bytes: the trailer checksum of every
/// checksummed wire format. It detects corruption in transit, not
/// forgery: anyone can recompute it.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why wire text was rejected. Every variant is a hard error: each format
/// has exactly one canonical form and anything else is refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Missing or unknown format header (wrong format or version).
    Header,
    /// Input ended before the canonical line sequence did.
    Truncated,
    /// A line or field did not have the expected shape or canonical form.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was expected there.
        want: &'static str,
    },
    /// Well-formed values that contradict each other (a count that does
    /// not match what follows, an aggregate that does not re-fold).
    Inconsistent {
        /// 1-based line number.
        line: usize,
        /// Which relation failed.
        what: &'static str,
    },
    /// The trailer checksum does not match the content above it.
    Checksum,
    /// Bytes after the trailer.
    Trailing {
        /// 1-based line number of the first extra line.
        line: usize,
    },
    /// A frame header declares a payload longer than the receiver accepts.
    TooLong {
        /// The declared payload length in bytes.
        declared: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Header => write!(f, "missing or unknown format header"),
            WireError::Truncated => write!(f, "input truncated"),
            WireError::Malformed { line, want } => write!(f, "line {line}: expected {want}"),
            WireError::Inconsistent { line, what } => {
                write!(f, "line {line}: inconsistent {what}")
            }
            WireError::Checksum => write!(f, "checksum mismatch"),
            WireError::Trailing { line } => write!(f, "line {line}: trailing data"),
            WireError::TooLong { declared } => {
                write!(f, "declared payload of {declared} bytes exceeds the limit")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Builds wire text. [`Self::line`] ends the current line and starts the
/// next with its tag; the typed methods append one tab-separated field
/// each; [`Self::into_line`], [`Self::finish`] or [`Self::seal`] ends the
/// text.
#[derive(Debug)]
pub struct Writer {
    text: String,
}

impl Writer {
    /// Starts a text whose first line begins with `head`: a format header,
    /// or the tag of a one-line payload.
    pub fn new(head: &str) -> Writer {
        Writer {
            text: head.to_string(),
        }
    }

    /// Ends the current line and starts one whose first field is `tag`.
    pub fn line(&mut self, tag: &str) -> &mut Self {
        self.text.push('\n');
        self.text.push_str(tag);
        self
    }

    /// A field written as is, for text that holds no tab or newline:
    /// keywords and names.
    pub fn word(&mut self, word: &str) -> &mut Self {
        self.text.push('\t');
        self.text.push_str(word);
        self
    }

    /// An unsigned decimal integer.
    pub fn uint(&mut self, v: impl Uint) -> &mut Self {
        let _ = write!(self.text, "\t{v}");
        self
    }

    /// The hex of `v`'s IEEE-754 bits.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        let _ = write!(self.text, "\t{:016x}", v.to_bits());
        self
    }

    /// `1` or `0`.
    pub fn flag(&mut self, v: bool) -> &mut Self {
        self.word(if v { "1" } else { "0" })
    }

    /// An escaped string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.text.push('\t');
        for c in s.chars() {
            match c {
                '\\' => self.text.push_str("\\\\"),
                '\t' => self.text.push_str("\\t"),
                '\n' => self.text.push_str("\\n"),
                '\r' => self.text.push_str("\\r"),
                _ => self.text.push(c),
            }
        }
        self
    }

    /// The text with its last line left unterminated (a one-line payload).
    pub fn into_line(self) -> String {
        self.text
    }

    /// The text with its last line terminated.
    pub fn finish(mut self) -> String {
        self.text.push('\n');
        self.text
    }

    /// The text with its last line terminated and the trailer
    /// `end\t<tag>\t<fnv1a64>` appended.
    pub fn seal(mut self, tag: &str) -> String {
        self.text.push('\n');
        let sum = fnv1a64(self.text.as_bytes());
        let _ = writeln!(self.text, "end\t{tag}\t{sum:016x}");
        self.text
    }
}

/// Walks newline-terminated lines, tracking the byte offset (for the
/// trailer checksum) and the 1-based line number (for errors).
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            line: 0,
        }
    }

    /// A reader past the first line of `text`, which must be `header`.
    pub fn open(text: &'a str, header: &str) -> Result<Reader<'a>, WireError> {
        let mut r = Reader::new(text);
        if r.next_line()? != header {
            return Err(WireError::Header);
        }
        Ok(r)
    }

    fn next_line(&mut self) -> Result<&'a str, WireError> {
        let rest = &self.text[self.pos..];
        let nl = rest.find('\n').ok_or(WireError::Truncated)?;
        self.pos += nl + 1;
        self.line += 1;
        Ok(&rest[..nl])
    }

    /// Reads the next line, whose first field must be `tag`, with `read`
    /// (see [`Fields::read`]).
    pub fn line<T>(
        &mut self,
        tag: &'static str,
        read: impl FnOnce(&mut Fields<'a>) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let text = self.next_line()?;
        Fields::read(text, self.line, tag, read)
    }

    /// The next line, which must be exactly `want`.
    pub fn exact(&mut self, want: &'static str) -> Result<(), WireError> {
        if self.next_line()? != want {
            return Err(WireError::Malformed {
                line: self.line,
                want,
            });
        }
        Ok(())
    }

    /// Whether the next line is complete and its first field is `tag`.
    pub fn peek(&self, tag: &str) -> bool {
        let rest = &self.text[self.pos..];
        rest.find('\n')
            .is_some_and(|nl| rest[..nl].split('\t').next() == Some(tag))
    }

    /// Everything after the lines read so far.
    pub fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    /// The number of the line read last.
    pub fn line_no(&self) -> usize {
        self.line
    }

    /// Reads the trailer `end\t<tag>\t<fnv1a64>`, checks it against every
    /// byte before it, and requires that nothing follows.
    pub fn finish(mut self, tag: &'static str) -> Result<(), WireError> {
        let sum = fnv1a64(&self.text.as_bytes()[..self.pos]);
        self.line("end", |f| {
            f.literal(tag)?;
            if hex_u64(f.field()?) != Some(sum) {
                return Err(WireError::Checksum);
            }
            Ok(())
        })?;
        if self.pos != self.text.len() {
            return Err(WireError::Trailing {
                line: self.line + 1,
            });
        }
        Ok(())
    }
}

/// The unsigned integer types a field holds.
pub trait Uint: fmt::Display + FromStr {}
impl Uint for u64 {}
impl Uint for usize {}
impl Uint for u128 {}

/// The tab-separated fields of one line after its tag, read in order by
/// the typed getters.
#[derive(Debug)]
pub struct Fields<'a> {
    iter: std::str::Split<'a, char>,
    line: usize,
}

impl<'a> Fields<'a> {
    /// Reads `text`, one line without its newline whose number is `line`:
    /// its first field must be `tag`, `read` takes the fields after it, and
    /// no field may be left over.
    pub fn read<T>(
        text: &'a str,
        line: usize,
        tag: &'static str,
        read: impl FnOnce(&mut Fields<'a>) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let mut iter = text.split('\t');
        if iter.next() != Some(tag) {
            return Err(WireError::Malformed { line, want: tag });
        }
        let mut f = Fields { iter, line };
        let value = read(&mut f)?;
        match f.iter.next() {
            Some(_) => Err(f.malformed("end of line")),
            None => Ok(value),
        }
    }

    /// A [`WireError::Inconsistent`] error on this line.
    pub fn inconsistent(&self, what: &'static str) -> WireError {
        WireError::Inconsistent {
            line: self.line,
            what,
        }
    }

    /// A [`WireError::Malformed`] error on this line.
    pub fn malformed(&self, want: &'static str) -> WireError {
        WireError::Malformed {
            line: self.line,
            want,
        }
    }

    /// The next field, unparsed.
    pub fn field(&mut self) -> Result<&'a str, WireError> {
        match self.iter.next() {
            Some(s) => Ok(s),
            None => Err(self.malformed("more fields")),
        }
    }

    /// The next field, which must be `want`.
    pub fn literal(&mut self, want: &'static str) -> Result<(), WireError> {
        if self.field()? != want {
            return Err(self.malformed(want));
        }
        Ok(())
    }

    /// An unsigned decimal integer.
    pub fn uint<T: Uint>(&mut self) -> Result<T, WireError> {
        let s = self.field()?;
        let canonical = s.bytes().all(|b| b.is_ascii_digit()) && (s == "0" || !s.starts_with('0'));
        match canonical.then(|| s.parse().ok()).flatten() {
            Some(v) => Ok(v),
            None => Err(self.malformed("decimal integer")),
        }
    }

    /// An `f64` from the hex of its bits.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        match hex_u64(self.field()?) {
            Some(bits) => Ok(f64::from_bits(bits)),
            None => Err(self.malformed("16 lowercase hex digits")),
        }
    }

    /// `1` or `0`.
    pub fn flag(&mut self) -> Result<bool, WireError> {
        match self.field()? {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(self.malformed("0 or 1")),
        }
    }

    /// An escaped string.
    pub fn string(&mut self) -> Result<String, WireError> {
        let s = self.field()?;
        let mut out = String::with_capacity(s.len());
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            out.push(match c {
                '\\' => match chars.next() {
                    Some('\\') => '\\',
                    Some('t') => '\t',
                    Some('n') => '\n',
                    Some('r') => '\r',
                    _ => return Err(self.malformed("escaped string")),
                },
                '\r' => return Err(self.malformed("escaped string")),
                c => c,
            });
        }
        Ok(out)
    }
}

/// Exactly 16 lowercase hex digits.
fn hex_u64(s: &str) -> Option<u64> {
    let canonical = s.len() == 16 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    canonical.then(|| u64::from_str_radix(s, 16).ok()).flatten()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads the fields of `line` (tag `t`) with `get`.
    fn one<'a, T>(
        line: &'a str,
        get: impl FnOnce(&mut Fields<'a>) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        Fields::read(line, 1, "t", get)
    }

    #[test]
    fn writer_and_reader_round_trip_every_field_type() {
        let mut w = Writer::new("fmt\tv1");
        w.line("t")
            .word("kw")
            .uint(u64::MAX)
            .uint(0usize)
            .uint(u128::MAX)
            .f64(0.1 + 0.2)
            .flag(true)
            .str("a\tb\nc\\d\re");
        let text = w.seal("fmt");
        let mut r = Reader::open(&text, "fmt\tv1").expect("header");
        assert!(r.peek("t") && !r.peek("kw"));
        r.line("t", |f| {
            f.literal("kw")?;
            assert_eq!(f.uint(), Ok(u64::MAX));
            assert_eq!(f.uint(), Ok(0usize));
            assert_eq!(f.uint(), Ok(u128::MAX));
            assert_eq!(f.f64()?.to_bits(), (0.1f64 + 0.2).to_bits());
            assert_eq!(f.flag(), Ok(true));
            assert_eq!(f.string().as_deref(), Ok("a\tb\nc\\d\re"));
            Ok(())
        })
        .expect("line");
        r.finish("fmt").expect("trailer");
    }

    #[test]
    fn getters_accept_only_the_written_form() {
        for bad in ["", "+1", "01", "00", "-1", "1.0", " 1", "1a"] {
            assert_eq!(
                one(&format!("t\t{bad}"), Fields::uint::<u64>),
                Err(WireError::Malformed {
                    line: 1,
                    want: "decimal integer"
                }),
                "{bad:?}"
            );
        }
        assert!(one("t\t18446744073709551616", Fields::uint::<u64>).is_err());
        assert!(one(&format!("t\t{}", "9".repeat(40)), Fields::uint::<u128>).is_err());
        for bad in [
            "3FD3333333333334",
            "+fd3333333333334",
            "3fd333333333333",
            "3fd33333333333340",
        ] {
            assert!(one(&format!("t\t{bad}"), Fields::f64).is_err(), "{bad:?}");
        }
        for bad in ["2", "00", "true", ""] {
            assert!(one(&format!("t\t{bad}"), Fields::flag).is_err(), "{bad:?}");
        }
        for bad in ["trailing\\", "bad\\x", "raw\rcr"] {
            assert!(
                one(&format!("t\t{bad}"), Fields::string).is_err(),
                "{bad:?}"
            );
        }
        assert!(one("t\t1\t2", Fields::uint::<u64>).is_err(), "unread field");
        assert!(Fields::read("u\t1", 1, "t", Fields::uint::<u64>).is_err());
    }

    #[test]
    fn trailer_rejects_corruption_truncation_and_trailing_bytes() {
        let mut w = Writer::new("fmt\tv1");
        w.line("t").uint(1000u64);
        let text = w.seal("fmt");
        let read = |t: &str| {
            let mut r = Reader::open(t, "fmt\tv1")?;
            r.line("t", Fields::uint::<u64>)?;
            r.finish("fmt")
        };
        assert_eq!(read(&text), Ok(()));
        assert_eq!(
            read(&text.replace("1000", "1001")),
            Err(WireError::Checksum)
        );
        assert_eq!(read(&text.replace("v1", "v2")), Err(WireError::Header));
        assert_eq!(read(&text[..text.len() - 3]), Err(WireError::Truncated));
        assert_eq!(
            read(&format!("{text}x\n")),
            Err(WireError::Trailing { line: 4 })
        );
        // A checksum re-padded or cut to another width never matches.
        let (body, sum) = text.trim_end().rsplit_once('\t').expect("trailer");
        assert_eq!(read(&format!("{body}\t0{sum}\n")), Err(WireError::Checksum));
        assert_eq!(
            read(&format!("{body}\t{}\n", &sum[1..])),
            Err(WireError::Checksum)
        );
    }
}
