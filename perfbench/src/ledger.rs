//! Failure accounting: every timed call and every correctness check is one
//! attempted operation; a panic, an `Err`, a diverged report or a failed
//! check makes it a failed one.

use std::panic::{catch_unwind, AssertUnwindSafe};

#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// Divergences the trainers rolled back and retried.
    pub recovered_divergences: usize,
    /// Integer-engine layers that failed over to the f32 path.
    pub fallback_layers: u64,
    failures: Vec<String>,
}

impl Ledger {
    /// Runs one operation; `None` when it panicked or returned `Err`.
    pub fn op<R>(&mut self, what: &str, f: impl FnOnce() -> Result<R, String>) -> Option<R> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(r)) => Some(r),
            Ok(Err(e)) => {
                self.fail(format!("{what}: {e}"));
                None
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic".to_string());
                self.fail(format!("{what}: panicked: {msg}"));
                None
            }
        }
    }

    /// Records one correctness check.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(format!("{what}: {}", detail()));
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        // Keep the report short when a check fails on every iteration.
        if self.failures.len() < 20 {
            self.failures.push(msg);
        }
    }

    /// Human-readable accounting lines.
    pub fn report(&self) -> Vec<String> {
        let mut lines = vec![
            format!(
                "# operations attempted={} failed={}",
                self.attempted, self.failed
            ),
            format!(
                "# retries recovered_divergences={} fallback_layers={}",
                self.recovered_divergences, self.fallback_layers
            ),
        ];
        lines.extend(self.failures.iter().map(|f| format!("# FAILED {f}")));
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panics_errors_and_failed_checks_count_as_failed() {
        let mut l = Ledger::default();
        assert_eq!(l.op("ok", || Ok::<_, String>(3)), Some(3));
        assert_eq!(l.op("err", || Err::<u8, _>("bad".to_string())), None);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r: Option<()> = l.op("boom", || panic!("kaput"));
        std::panic::set_hook(prev);
        assert_eq!(r, None);
        l.check("good", true, String::new);
        l.check("bad", false, || "mismatch".to_string());
        assert_eq!((l.attempted, l.failed), (5, 3));
        let text = l.report().join("\n");
        assert!(text.contains("boom: panicked: kaput"));
        assert!(text.contains("bad: mismatch"));
    }
}
