//! Offline stand-in for `serde_json`: the signatures `dsp_trace::records`
//! compiles against, each returning [`Error`]. The runtime JSON path of
//! this workspace is `dsp_service::json`, which is what the benchmark
//! measures.

use std::fmt;
use std::io::{Read, Write};

/// The one error every call returns.
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("serde_json stand-in: serde I/O is unavailable in the offline benchmark build")
    }
}

impl std::error::Error for Error {}

/// `Result` specialised to [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Always fails.
pub fn to_writer<W: Write, T: serde::Serialize + ?Sized>(_w: W, _value: &T) -> Result<()> {
    Err(Error)
}

/// Always fails.
pub fn from_reader<R: Read, T: serde::de::DeserializeOwned>(_r: R) -> Result<T> {
    Err(Error)
}

/// Always fails.
pub fn to_string<T: serde::Serialize + ?Sized>(_value: &T) -> Result<String> {
    Err(Error)
}

/// Always fails.
pub fn from_str<T: serde::de::DeserializeOwned>(_s: &str) -> Result<T> {
    Err(Error)
}
