//! Offline stand-in for `crossbeam`: `scope`/`Scope::spawn` with the
//! published signatures, over `std::thread::scope`.

use std::any::Any;

/// Handle passed to [`scope`]'s closure and to every spawned closure.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn a thread that may borrow from the enclosing scope.
    pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
    where
        F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let inner = self.inner;
        inner.spawn(move || f(&Scope { inner }))
    }
}

/// Run `f` with a scope whose threads are all joined before returning.
/// A panicking child propagates as `Err`, as in the published crate.
pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        std::thread::scope(|s| f(&Scope { inner: s }))
    }))
}
