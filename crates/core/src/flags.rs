//! The one command-line reader: `dsp` (every verb), `dspd` and
//! `reproduce` walk their arguments with [`Flags`]. Each value is parsed
//! where it is read (names through the method table's `from_name`),
//! `--help`/`-h` ends the walk, and every refusal is an `Err` naming the
//! flag, which the binary hands to [`usage_error`]: the message, the usage,
//! exit code 2.

use std::str::FromStr;

/// A command line, read one word at a time.
pub struct Flags<'a> {
    words: std::slice::Iter<'a, String>,
    /// The word [`Flags::next_flag`] returned last: what errors name.
    flag: &'a str,
}

impl<'a> Flags<'a> {
    /// Read `argv` (without the program name or verb) from its first word.
    pub fn new(argv: &'a [String]) -> Self {
        Flags { words: argv.iter(), flag: "" }
    }

    /// The next word — a flag, or a word the caller takes as it stands —
    /// or `None` after the last. `--help` and `-h` are an `Err` with an
    /// empty message: the usage alone.
    pub fn next_flag(&mut self) -> Result<Option<&'a str>, String> {
        match self.words.next().map(String::as_str) {
            Some("--help" | "-h") => Err(String::new()),
            word => {
                self.flag = word.unwrap_or_default();
                Ok(word)
            }
        }
    }

    /// The current flag's value as written.
    pub fn text(&mut self) -> Result<&'a str, String> {
        self.words.next().map(String::as_str).ok_or_else(|| format!("{} needs a value", self.flag))
    }

    /// The current flag's value, parsed.
    pub fn value<T: FromStr>(&mut self) -> Result<T, String> {
        let raw = self.text()?;
        raw.parse().map_err(|_| format!("{}: cannot read `{raw}`", self.flag))
    }

    /// The current flag's value as `read` makes it out: a name through its
    /// table, a number inside its range, a compound spec. The error says
    /// `what` the value must be.
    pub fn read<T>(
        &mut self,
        what: &str,
        read: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, String> {
        let raw = self.text()?;
        read(raw).ok_or_else(|| format!("{}: `{raw}` is not {what}", self.flag))
    }

    /// The refusal of the current word: no arm of the caller reads it.
    pub fn unknown(&self) -> String {
        format!("unknown flag `{}`", self.flag)
    }
}

/// Print `bin`'s refusal of its command line to stderr — `msg` (none for
/// `--help`), then `usage` — and return the exit code, 2.
pub fn usage_error(bin: &str, msg: &str, usage: &str) -> i32 {
    if !msg.is_empty() {
        eprintln!("{bin}: {msg}");
    }
    eprintln!("{usage}");
    2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterProfile;

    fn parse(line: &str) -> Result<(ClusterProfile, usize), String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let (mut cluster, mut jobs) = (ClusterProfile::Ec2, 45);
        let mut flags = Flags::new(&argv);
        while let Some(flag) = flags.next_flag()? {
            match flag {
                "--cluster" => cluster = flags.read("a cluster", ClusterProfile::from_name)?,
                "--jobs" => jobs = flags.value()?,
                _ => return Err(flags.unknown()),
            }
        }
        Ok((cluster, jobs))
    }

    #[test]
    fn values_are_read_where_their_flag_is_and_refusals_name_it() {
        assert_eq!(parse(""), Ok((ClusterProfile::Ec2, 45)));
        assert_eq!(parse("--jobs 9 --cluster blend"), Ok((ClusterProfile::Blend, 9)));
        assert_eq!(parse("--jobs"), Err("--jobs needs a value".into()));
        assert_eq!(parse("--jobs x"), Err("--jobs: cannot read `x`".into()));
        assert_eq!(parse("--cluster warp"), Err("--cluster: `warp` is not a cluster".into()));
        assert_eq!(parse("--jobs 9 warp"), Err("unknown flag `warp`".into()));
    }

    #[test]
    fn help_is_an_empty_refusal_wherever_a_flag_may_stand() {
        for line in ["--help", "-h", "--jobs 9 -h", "--help --warp"] {
            assert_eq!(parse(line), Err(String::new()), "{line}");
        }
        // As a value it is only a word.
        assert_eq!(parse("--jobs --help"), Err("--jobs: cannot read `--help`".into()));
    }
}
