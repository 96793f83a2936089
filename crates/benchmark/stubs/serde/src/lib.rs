//! Offline stand-in for `serde`.
//!
//! The workspace derives `Serialize`/`Deserialize` on its data types but
//! serialises at runtime through `dsp_service::{json, codec}`; the only
//! serde consumer is `dsp_trace::records`, which the benchmark never
//! calls. So the traits here are markers and the derives implement them.

pub use serde_derive::{Deserialize, Serialize};

/// Marker for serialisable types.
pub trait Serialize {}

/// Marker for deserialisable types.
pub trait Deserialize<'de>: Sized {}

/// Deserialisation submodule, as in the published crate.
pub mod de {
    /// Marker for types deserialisable from any lifetime.
    pub trait DeserializeOwned: for<'de> super::Deserialize<'de> {}
    impl<T> DeserializeOwned for T where T: for<'de> super::Deserialize<'de> {}
}

macro_rules! markers {
    ($($t:ty),*) => {$(
        impl Serialize for $t {}
        impl<'de> Deserialize<'de> for $t {}
    )*};
}
markers!(bool, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, String);

impl<T: Serialize> Serialize for Vec<T> {}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {}
impl<T: Serialize> Serialize for [T] {}
impl<T: Serialize> Serialize for Option<T> {}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {}
impl<T: Serialize + ?Sized> Serialize for &T {}
