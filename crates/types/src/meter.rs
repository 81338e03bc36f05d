//! The charge meter: spend recorded on the thread that caused it.
//!
//! A site bills a request at the moment it admits it; the knowledge gate
//! credits a saved request at the moment it answers from the plane. Both
//! record the ledger here, on the *calling thread*, as they bump their own
//! global counters. A caller that wants to know what one piece of work cost
//! reads [`charges`] before and after it: the difference is exactly what
//! that work paid and saved, however many other threads hit the same site
//! meanwhile. Charged failures (a page truncated after the site billed it)
//! are counted automatically, because the charge is recorded before the
//! failure surfaces.
//!
//! The reading is per thread and monotonic, so the only rule is the obvious
//! one: the work being metered must run on the reading thread, and no other
//! metered work may be nested inside it on that thread.
//!
//! ```
//! use qrs_types::{meter, Ledger};
//! let before = meter::charges();
//! meter::record_paid(Ledger::new(1, 3));
//! meter::record_saved(Ledger::new(2, 2));
//! let spent = meter::charges() - before;
//! assert_eq!(spent.paid, Ledger::new(1, 3));
//! assert_eq!(spent.saved, Ledger::new(2, 2));
//! ```

use crate::cost::Ledger;
use std::cell::Cell;
use std::ops::Sub;

/// What the current thread has paid the site and saved through knowledge,
/// cumulative since the thread started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Charges {
    /// Requests the site billed.
    pub paid: Ledger,
    /// Requests answered from knowledge instead, priced as the site would
    /// have billed them.
    pub saved: Ledger,
}

/// The spend between two readings (`after - before`).
impl Sub for Charges {
    type Output = Charges;
    fn sub(self, rhs: Charges) -> Charges {
        Charges {
            paid: self.paid - rhs.paid,
            saved: self.saved - rhs.saved,
        }
    }
}

thread_local! {
    static METER: Cell<Charges> = const {
        Cell::new(Charges {
            paid: Ledger::new(0, 0),
            saved: Ledger::new(0, 0),
        })
    };
}

/// The current thread's cumulative reading.
pub fn charges() -> Charges {
    METER.with(Cell::get)
}

/// Record a charge the site billed for a request made on this thread.
pub fn record_paid(l: Ledger) {
    METER.with(|m| {
        let mut c = m.get();
        c.paid += l;
        m.set(c);
    });
}

/// Record a request this thread had answered from knowledge for free.
pub fn record_saved(l: Ledger) {
    METER.with(|m| {
        let mut c = m.get();
        c.saved += l;
        m.set(c);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_per_thread() {
        let before = charges();
        record_paid(Ledger::new(1, 1));
        let other = std::thread::spawn(|| {
            record_paid(Ledger::new(5, 5));
            charges()
        })
        .join()
        .unwrap();
        assert_eq!(other.paid, Ledger::new(5, 5));
        assert_eq!((charges() - before).paid, Ledger::new(1, 1));
    }
}
