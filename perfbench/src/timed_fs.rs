//! A `StoreFs` that only times and counts the calls it forwards to the
//! wrapped filesystem (a `DirFs` in the benchmark), so the store layer's
//! cost is measured at its own boundary without touching the program.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use dptd_engine::store::StoreFs;
use dptd_engine::WalError;

/// Time and count per store operation.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct FsTotals {
    /// Seconds in `append`.
    pub append_s: f64,
    /// Bytes appended.
    pub append_bytes: u64,
    /// `append` calls.
    pub appends: u64,
    /// Seconds in `sync`.
    pub sync_s: f64,
    /// `sync` calls.
    pub syncs: u64,
    /// Seconds in `write_atomic`.
    pub write_atomic_s: f64,
    /// Bytes written atomically.
    pub write_atomic_bytes: u64,
    /// `write_atomic` calls.
    pub atomic_writes: u64,
    /// Seconds in every other call (read, truncate, remove, list).
    pub other_s: f64,
}

impl FsTotals {
    /// Every second spent in the store's filesystem.
    pub fn total_s(&self) -> f64 {
        self.append_s + self.sync_s + self.write_atomic_s + self.other_s
    }

    /// Calls that end in a durability barrier: `DirFs` fsyncs inside
    /// every `append` and `write_atomic` as well as in `sync`.
    pub fn barriers(&self) -> u64 {
        self.appends + self.atomic_writes + self.syncs
    }

    /// Every byte written.
    pub fn bytes(&self) -> u64 {
        self.append_bytes + self.write_atomic_bytes
    }
}

/// The timing wrapper.
#[derive(Debug)]
pub struct TimedFs<F> {
    inner: F,
    totals: Arc<Mutex<FsTotals>>,
}

impl<F: StoreFs> TimedFs<F> {
    /// Wrap `inner`; the returned handle reads the running totals.
    pub fn new(inner: F) -> (Self, Arc<Mutex<FsTotals>>) {
        let totals = Arc::new(Mutex::new(FsTotals::default()));
        (
            Self {
                inner,
                totals: Arc::clone(&totals),
            },
            totals,
        )
    }

    fn timed<T>(
        &mut self,
        op: impl FnOnce(&mut F) -> T,
        account: impl FnOnce(&mut FsTotals, f64),
    ) -> T {
        let started = Instant::now();
        let out = op(&mut self.inner);
        let secs = started.elapsed().as_secs_f64();
        account(
            &mut self.totals.lock().unwrap_or_else(PoisonError::into_inner),
            secs,
        );
        out
    }
}

/// Read the current totals.
pub fn snapshot(totals: &Arc<Mutex<FsTotals>>) -> FsTotals {
    *totals.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<F: StoreFs> StoreFs for TimedFs<F> {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, WalError> {
        self.timed(|f| f.read(name), |t, s| t.other_s += s)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        let n = bytes.len() as u64;
        self.timed(
            |f| f.append(name, bytes),
            |t, s| {
                t.append_s += s;
                t.append_bytes += n;
                t.appends += 1;
            },
        )
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), WalError> {
        self.timed(|f| f.truncate(name, len), |t, s| t.other_s += s)
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), WalError> {
        let n = bytes.len() as u64;
        self.timed(
            |f| f.write_atomic(name, bytes),
            |t, s| {
                t.write_atomic_s += s;
                t.write_atomic_bytes += n;
                t.atomic_writes += 1;
            },
        )
    }

    fn remove(&mut self, name: &str) -> Result<(), WalError> {
        self.timed(|f| f.remove(name), |t, s| t.other_s += s)
    }

    fn list(&mut self) -> Result<Vec<String>, WalError> {
        self.timed(|f| f.list(), |t, s| t.other_s += s)
    }

    fn sync(&mut self, name: &str) -> Result<(), WalError> {
        self.timed(
            |f| f.sync(name),
            |t, s| {
                t.sync_s += s;
                t.syncs += 1;
            },
        )
    }
}
