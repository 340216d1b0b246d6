//! Open-loop request timing.
//!
//! Requests fall due on a fixed schedule whether or not earlier ones have
//! finished. Each request's latency is measured from when it was *due*,
//! not from when the generator got round to issuing it, so a stall is
//! charged to every request that fell due during it (no coordinated
//! omission). How late the generator issued each request is recorded
//! separately as its lag.

pub struct OpenLoop {
    /// Clock reading at which the schedule starts.
    start: u64,
    interval: u64,
    offset: u64,
    /// No request falls due at or after this clock reading.
    end: u64,
    next: u64,
}

impl OpenLoop {
    /// Request `i` falls due at `start + offset + i * interval`.
    pub fn new(start: u64, interval: u64, offset: u64, end: u64) -> Self {
        assert!(interval > 0, "open loop needs a positive interval");
        Self { start, interval, offset, end, next: 0 }
    }

    /// Due time of the next request, or `None` once the schedule is over.
    pub fn next_due(&self) -> Option<u64> {
        let due = self.start + self.offset + self.next * self.interval;
        (due < self.end).then_some(due)
    }

    /// Waits (spinning on `clock`) until `due`; returns the generator's
    /// lag, how late after `due` the request is issued.
    pub fn issue(&self, due: u64, clock: &mut impl FnMut() -> u64) -> u64 {
        let mut now = clock();
        while now < due {
            std::hint::spin_loop();
            now = clock();
        }
        now - due
    }

    /// Marks the next request done at `done`; returns its latency from
    /// the due time.
    pub fn complete(&mut self, due: u64, done: u64) -> u64 {
        self.next += 1;
        done - due
    }

    /// Gives up on every request not yet issued; returns how many.
    pub fn abandon(&mut self) -> u64 {
        let due_total = (self.end.saturating_sub(self.start + self.offset)).div_ceil(self.interval);
        let rest = due_total.saturating_sub(self.next);
        self.next += rest;
        rest
    }

    pub fn issued(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_is_charged_to_every_request_due_during_it() {
        // Requests every 10 ticks; request 5 stalls for 100 ticks.
        let mut t = 0u64;
        let mut ol = OpenLoop::new(0, 10, 0, 300);
        let mut lat = Vec::new();
        let mut issue_at = Vec::new();
        let mut lags = Vec::new();
        while let Some(due) = ol.next_due() {
            let lag = ol.issue(due, &mut || {
                t += 1;
                t
            });
            let issued = due + lag;
            lags.push(lag);
            let service = if ol.issued() == 5 { 100 } else { 2 };
            t = issued + service;
            issue_at.push(issued);
            lat.push((due, ol.complete(due, t)));
        }
        assert_eq!(lat.len(), 30);
        let stall_end = issue_at[5] + 100;
        for (i, &(due, l)) in lat.iter().enumerate().skip(6) {
            if due < stall_end {
                assert!(
                    l >= stall_end - due,
                    "request {i} due at {due} during the stall reports only {l}"
                );
            } else if due >= stall_end + 50 {
                // The backlog has drained by now.
                assert!(l <= 2 + 10, "request {i} after recovery still reports {l}");
            }
        }
        // Requests due during the stall were issued late, and their lag
        // says so.
        assert!(lags[6] >= 90, "lag {}", lags[6]);
    }

    #[test]
    fn schedule_stops_at_end() {
        let ol = OpenLoop::new(100, 7, 3, 100);
        assert_eq!(ol.next_due(), None);
        let mut ol = OpenLoop::new(0, 10, 5, 100);
        ol.complete(5, 6);
        assert_eq!(ol.abandon(), 9);
        assert_eq!(ol.next_due(), None);
    }
}
