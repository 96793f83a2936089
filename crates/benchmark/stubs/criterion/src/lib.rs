//! Resolution-only stand-in; see Cargo.toml.
