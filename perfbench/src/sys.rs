//! What the benchmark reads from the kernel: the run-independence guard
//! (TIME_WAIT sockets against the ephemeral port range) and peak RSS.
//!
//! The edges close each connection after the response, so every request
//! leaves a socket in TIME_WAIT for 60 s. Most are on the server side,
//! keyed on the listening port; they hold no ephemeral port. The ones on
//! the connecting side each hold an ephemeral port, and enough of those
//! slow every later `connect`. The guard therefore waits on the number
//! of distinct ephemeral ports TIME_WAIT sockets hold, and records the
//! raw TIME_WAIT count beside it.

use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Longest the guard waits: TIME_WAIT lasts 60 s on Linux.
const MAX_WAIT: Duration = Duration::from_secs(65);

/// The guard's record, printed with the run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Guard {
    /// Sockets in TIME_WAIT (`/proc/net/sockstat`) when the guard started.
    pub time_wait_before: u64,
    /// Sockets in TIME_WAIT when the run started.
    pub time_wait_at_start: u64,
    /// Ephemeral ports held by TIME_WAIT sockets when the guard started.
    pub ports_held_before: u64,
    /// Ephemeral ports held by TIME_WAIT sockets when the run started.
    pub ports_held_at_start: u64,
    /// The ephemeral port range `(low, high)`.
    pub port_range: (u64, u64),
    /// Seconds spent waiting for the drain.
    pub waited_s: f64,
}

impl Guard {
    /// Ports in the ephemeral range.
    pub fn ports(&self) -> u64 {
        self.port_range.1.saturating_sub(self.port_range.0) + 1
    }

    /// Ports held that the guard accepts as drained: a quarter of the range.
    pub fn drained_at(&self) -> u64 {
        self.ports() / 4
    }
}

/// Sockets in TIME_WAIT, from `/proc/net/sockstat`.
pub fn time_wait() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/net/sockstat").ok()?;
    let tcp = text.lines().find(|l| l.starts_with("TCP:"))?;
    let mut fields = tcp.split_whitespace();
    while let Some(f) = fields.next() {
        if f == "tw" {
            return fields.next()?.parse().ok();
        }
    }
    None
}

/// The ephemeral port range, from `/proc/sys/net/ipv4/ip_local_port_range`.
pub fn port_range() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/sys/net/ipv4/ip_local_port_range").ok()?;
    let mut it = text.split_whitespace().map(str::parse::<u64>);
    Some((it.next()?.ok()?, it.next()?.ok()?))
}

/// Distinct local ports inside `range` of TIME_WAIT sockets, from
/// `/proc/net/tcp` and `/proc/net/tcp6`.
pub fn ports_held(range: (u64, u64)) -> Option<u64> {
    let mut ports = HashSet::new();
    let mut read_any = false;
    for table in ["/proc/net/tcp", "/proc/net/tcp6"] {
        let Ok(text) = std::fs::read_to_string(table) else {
            continue;
        };
        read_any = true;
        for line in text.lines().skip(1) {
            let mut fields = line.split_whitespace();
            let (Some(local), Some(state)) = (fields.nth(1), fields.nth(1)) else {
                continue;
            };
            // State 06 is TIME_WAIT.
            if state != "06" {
                continue;
            }
            let port = local
                .rsplit(':')
                .next()
                .and_then(|p| u64::from_str_radix(p, 16).ok());
            if let Some(p) = port.filter(|p| (range.0..=range.1).contains(p)) {
                ports.insert(p);
            }
        }
    }
    read_any.then_some(ports.len() as u64)
}

/// Wait until earlier runs' TIME_WAIT sockets no longer hold a material
/// share of the ephemeral ports, then report. Without `/proc` the guard
/// records zeros and does not wait.
pub fn drain() -> Guard {
    let mut g = Guard {
        port_range: port_range().unwrap_or((0, 0)),
        time_wait_before: time_wait().unwrap_or(0),
        ..Guard::default()
    };
    let Some(mut held) = ports_held(g.port_range) else {
        return g;
    };
    g.ports_held_before = held;
    let t0 = Instant::now();
    while held > g.drained_at() && t0.elapsed() < MAX_WAIT {
        std::thread::sleep(Duration::from_millis(250));
        held = ports_held(g.port_range).unwrap_or(0);
    }
    g.ports_held_at_start = held;
    g.time_wait_at_start = time_wait().unwrap_or(0);
    g.waited_s = t0.elapsed().as_secs_f64();
    g
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
