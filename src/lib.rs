//! Workspace umbrella crate.
//!
//! This package exists to host the cross-crate integration tests in
//! `tests/` and the runnable examples in `examples/`; the actual library
//! surface lives in the `crates/` workspace members, which the tests and
//! examples import by their own names (`dsp_core` re-exports the rest).
