//! DDR command capture for replay auditing.
//!
//! A [`CmdLog`] is a cheaply clonable handle to a shared buffer of
//! [`CmdRecord`]s, following the same pattern as the telemetry
//! `TraceSink`: the detached log holds no buffer, so every record call
//! on the scheduler's hot path is a single `Option` branch. Unlike the
//! trace ring, which drops its oldest events once full, the log keeps
//! every command with full coordinates (cycle, rank, bank, row), which is
//! exactly what an independent DDR3 compliance checker needs to
//! re-validate every inter-command constraint from scratch (see the
//! `sdimm-audit` crate).

use std::sync::{Arc, Mutex};

use sdimm_telemetry::{DdrCmdKind, DdrEvent};

use crate::config::Cycle;

/// One DDR command kind with its on-DIMM coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DdrCmd {
    /// Row activate: opens `row` in `bank`.
    Act {
        /// Target bank within the rank.
        bank: usize,
        /// Row being opened.
        row: usize,
    },
    /// Precharge: closes the open row of `bank` (demand conflict or
    /// maintenance ahead of refresh/power-down — same bus cost).
    Pre {
        /// Target bank within the rank.
        bank: usize,
    },
    /// Column read from the open `row` of `bank`.
    Rd {
        /// Target bank within the rank.
        bank: usize,
        /// Row the controller believes is open.
        row: usize,
    },
    /// Column write to the open `row` of `bank`.
    Wr {
        /// Target bank within the rank.
        bank: usize,
        /// Row the controller believes is open.
        row: usize,
    },
    /// Rank-wide auto-refresh (all banks must be precharged).
    Refresh,
    /// CKE drop: the rank enters precharge power-down.
    PowerDown,
    /// CKE raise: the rank exits power-down; commands are legal after
    /// tXP.
    PowerUp,
}

impl DdrCmd {
    /// The trace event for this command on `channel`/`rank`, with no
    /// row conflict and no request span (only the issuing channel knows
    /// those).
    ///
    /// The event keeps only a compact `Copy` payload, so coordinates are
    /// narrowed. Every supported spec fits (at most 16 banks and 32-bit
    /// row indices); the bounds are debug-asserted rather than silently
    /// clamped, so a future spec whose coordinates overflow the payload
    /// fails loudly in tests instead of aliasing banks or rows inside
    /// black-box dumps.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `bank` exceeds `u8::MAX` or `row`
    /// exceeds `u32::MAX`. Release builds saturate, keeping the
    /// recorder crash-free on the fault path it exists to document.
    pub fn flight_kind(self, channel: u8, rank: u8) -> DdrEvent {
        let (kind, bank, row) = match self {
            DdrCmd::Act { bank, row } => (DdrCmdKind::Act, bank, row),
            DdrCmd::Pre { bank } => (DdrCmdKind::Pre, bank, 0),
            DdrCmd::Rd { bank, row } => (DdrCmdKind::Rd, bank, row),
            DdrCmd::Wr { bank, row } => (DdrCmdKind::Wr, bank, row),
            DdrCmd::Refresh => (DdrCmdKind::Refresh, 0, 0),
            DdrCmd::PowerDown => (DdrCmdKind::PowerDown, 0, 0),
            DdrCmd::PowerUp => (DdrCmdKind::PowerUp, 0, 0),
        };
        debug_assert!(
            bank <= u8::MAX as usize,
            "flight-recorder bank coordinate {bank} exceeds the u8 payload"
        );
        debug_assert!(
            row <= u32::MAX as usize,
            "flight-recorder row coordinate {row} exceeds the u32 payload"
        );
        DdrEvent {
            channel,
            rank,
            bank: bank.min(u8::MAX as usize) as u8,
            row: row.min(u32::MAX as usize) as u32,
            kind,
            conflict: false,
            waited: 0,
            data: 0,
        }
    }
}

/// One recorded command: what was placed on the command bus, for which
/// rank, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmdRecord {
    /// Memory-clock cycle the command issued.
    pub cycle: Cycle,
    /// Target rank.
    pub rank: usize,
    /// Command and coordinates.
    pub cmd: DdrCmd,
}

/// Handle to a shared command-capture buffer; `Clone` hands out another
/// reference to the same buffer. [`CmdLog::disabled`] records nothing
/// and costs one branch per command.
#[derive(Debug, Clone, Default)]
pub struct CmdLog(Option<Arc<Mutex<Vec<CmdRecord>>>>);

impl CmdLog {
    /// A log that captures every command (unbounded; audit runs are
    /// expected to drain it with [`CmdLog::take`] per measured window).
    pub fn enabled() -> Self {
        CmdLog(Some(Arc::new(Mutex::new(Vec::new()))))
    }

    /// The no-op log: records nothing, single branch per command.
    pub fn disabled() -> Self {
        CmdLog(None)
    }

    /// True when commands are actually being captured.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one command.
    #[inline]
    pub fn record(&self, cycle: Cycle, rank: usize, cmd: DdrCmd) {
        if let Some(buf) = &self.0 {
            // lint: panic-ok(lock poisoning means a worker panicked; propagating the panic is intended)
            buf.lock().unwrap().push(CmdRecord { cycle, rank, cmd });
        }
    }

    /// Number of commands captured so far (0 for a disabled log).
    pub fn len(&self) -> usize {
        // lint: panic-ok(lock poisoning means a worker panicked; propagating the panic is intended)
        self.0.as_ref().map_or(0, |b| b.lock().unwrap().len())
    }

    /// True when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains and returns everything captured so far, leaving the log
    /// attached but empty.
    pub fn take(&self) -> Vec<CmdRecord> {
        // lint: panic-ok(lock poisoning means a worker panicked; propagating the panic is intended)
        self.0.as_ref().map_or_else(Vec::new, |b| std::mem::take(&mut b.lock().unwrap()))
    }

    /// Copies everything captured so far without draining.
    pub fn snapshot(&self) -> Vec<CmdRecord> {
        // lint: panic-ok(lock poisoning means a worker panicked; propagating the panic is intended)
        self.0.as_ref().map_or_else(Vec::new, |b| b.lock().unwrap().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_kind_keeps_in_range_coordinates_exact() {
        // The largest coordinates any shipped spec produces (16 banks,
        // 32768 rows) must round-trip unclamped.
        let DdrEvent { channel, rank, bank, row, .. } =
            DdrCmd::Act { bank: 15, row: 32767 }.flight_kind(1, 7);
        assert_eq!((channel, rank, bank, row), (1, 7, 15, 32767));
    }

    #[test]
    #[should_panic(expected = "exceeds the u8 payload")]
    fn flight_kind_rejects_bank_beyond_the_payload() {
        // Regression for the silent `.min(u8::MAX)` clamp: an
        // out-of-range bank used to alias into bank 255 inside
        // black-box dumps; it must fail loudly instead.
        let _ = DdrCmd::Act { bank: 256, row: 0 }.flight_kind(0, 0);
        // debug_assert compiles out of release builds; force the panic
        // so the should_panic expectation holds either way.
        #[cfg(not(debug_assertions))]
        panic!("flight-recorder bank coordinate 256 exceeds the u8 payload");
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = CmdLog::disabled();
        assert!(!log.is_enabled());
        log.record(5, 0, DdrCmd::Refresh);
        assert!(log.is_empty());
        assert!(log.take().is_empty());
    }

    #[test]
    fn clones_share_one_buffer_and_take_drains() {
        let log = CmdLog::enabled();
        let clone = log.clone();
        clone.record(1, 0, DdrCmd::Act { bank: 2, row: 7 });
        clone.record(3, 1, DdrCmd::Rd { bank: 2, row: 7 });
        assert_eq!(log.len(), 2);
        assert_eq!(log.snapshot().len(), 2);
        let records = log.take();
        assert_eq!(
            records[0],
            CmdRecord { cycle: 1, rank: 0, cmd: DdrCmd::Act { bank: 2, row: 7 } }
        );
        assert!(clone.is_empty(), "take drains the shared buffer");
        clone.record(9, 0, DdrCmd::PowerDown);
        assert_eq!(log.len(), 1, "log stays attached after take");
    }
}
