//! The one reader of the workspace's plain-text formats: fault plans
//! (`t-series-core`) and arrival traces (`ts-workload`). Both are one
//! record per line; this module owns what they share — blank lines and
//! `#` comments skipped, whitespace-separated tokens, `<u64>ps` times,
//! `<prefix><number>` fields, the end-of-line check and the error — so a
//! format's parser holds only its record grammar.
//!
//! The reader is strict: it takes only the spelling the formats' `Display`
//! writes. A number is decimal digits with no sign and no leading zero,
//! and must fit its field; a record has no token after its last field. So
//! any text that parses is its value's `Display`, up to blank lines,
//! comments and runs of whitespace. Tokens are borrowed from the text:
//! reading a record allocates nothing.

use std::fmt;
use std::str::{FromStr, SplitWhitespace};

/// A line of text that did not parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub what: &'static str,
    /// The raw line text.
    pub text: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {} in {:?}", self.line, self.what, self.text)
    }
}

impl std::error::Error for ParseError {}

/// The record lines of `text`, in order; blank lines and `#` comments are
/// skipped.
pub fn records(text: &str) -> impl Iterator<Item = Record<'_>> {
    text.lines().enumerate().filter_map(|(i, raw)| {
        let line = raw.trim();
        let record = !line.is_empty() && !line.starts_with('#');
        record.then(|| Record {
            line: i + 1,
            raw,
            tokens: line.split_whitespace(),
        })
    })
}

/// One record line, read a token at a time.
pub struct Record<'a> {
    line: usize,
    raw: &'a str,
    tokens: SplitWhitespace<'a>,
}

impl<'a> Record<'a> {
    /// An error at this line.
    pub fn err(&self, what: &'static str) -> ParseError {
        ParseError {
            line: self.line,
            what,
            text: self.raw.to_string(),
        }
    }

    /// The next token; `what` if the line has ended.
    pub fn token(&mut self, what: &'static str) -> Result<&'a str, ParseError> {
        self.tokens.next().ok_or_else(|| self.err(what))
    }

    /// The next token after its `prefix`; `what` if it is missing or does
    /// not start with `prefix`.
    pub fn field(&mut self, prefix: &str, what: &'static str) -> Result<&'a str, ParseError> {
        let value = self.tokens.next().and_then(|t| t.strip_prefix(prefix));
        value.ok_or_else(|| self.err(what))
    }

    /// The next token as `<prefix><number>` ([`number`]).
    pub fn number<T: FromStr>(
        &mut self,
        prefix: &str,
        what: &'static str,
    ) -> Result<T, ParseError> {
        let value = self.field(prefix, what)?;
        number(value).ok_or_else(|| self.err(what))
    }

    /// The next token as `<prefix><u64>ps` ([`ps`]).
    pub fn ps(&mut self, prefix: &str, what: &'static str) -> Result<u64, ParseError> {
        let value = self.field(prefix, what)?;
        ps(value).ok_or_else(|| self.err(what))
    }

    /// `Ok` if the line has no token left, `what` if it has.
    pub fn end(&mut self, what: &'static str) -> Result<(), ParseError> {
        match self.tokens.next() {
            None => Ok(()),
            Some(_) => Err(self.err(what)),
        }
    }
}

/// `s` as a `T`, spelled as `Display` spells it: decimal digits, no sign,
/// no leading zero. `None` otherwise, or if the number does not fit `T`.
pub fn number<T: FromStr>(s: &str) -> Option<T> {
    let digits = !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let canonical = digits && (s == "0" || !s.starts_with('0'));
    canonical.then(|| s.parse().ok()).flatten()
}

/// `s` as `<u64>ps`: a time in picoseconds.
pub fn ps(s: &str) -> Option<u64> {
    number(s.strip_suffix("ps")?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_are_spelled_one_way_and_fit_their_type() {
        assert_eq!(number::<u32>("0"), Some(0));
        assert_eq!(number::<u32>("4294967295"), Some(u32::MAX));
        for bad in ["", "+5", "-1", "05", "00", "1_0", " 1", "4294967296"] {
            assert_eq!(number::<u32>(bad), None, "{bad:?}");
        }
        assert_eq!(ps("18446744073709551615ps"), Some(u64::MAX));
        for bad in ["5", "ps", "5psps", "05ps", "5 ps", "18446744073709551616ps"] {
            assert_eq!(ps(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn records_skip_blanks_and_comments_and_keep_line_numbers() {
        let text = "\n# a comment\n  7ps a n3  \n\t\n  # indented comment\nb";
        let mut recs = records(text);
        let mut first = recs.next().unwrap();
        assert_eq!(first.ps("", "time"), Ok(7));
        assert_eq!(first.token("kind"), Ok("a"));
        assert_eq!(first.number::<u8>("n", "node"), Ok(3));
        assert_eq!(first.end("trailing"), Ok(()));
        assert_eq!(first.token("missing").unwrap_err().what, "missing");
        let mut second = recs.next().unwrap();
        assert_eq!(second.token("kind"), Ok("b"));
        assert!(recs.next().is_none());
        let err = second.err("oops");
        assert_eq!((err.line, err.what, err.text.as_str()), (6, "oops", "b"));
        let mut third = records("5ps x y").next().unwrap();
        assert_eq!(third.field("", "time"), Ok("5ps"));
        assert_eq!(third.field("z", "bad").unwrap_err().what, "bad");
        assert_eq!(third.end("trailing").unwrap_err().what, "trailing");
    }
}
