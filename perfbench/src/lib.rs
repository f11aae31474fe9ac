//! End-to-end and per-layer benchmark of the activation service, the
//! sharded cluster and the lock designer. `README.md` next to this crate
//! lists the workloads, the metrics and what each should move.

pub mod failover;
pub mod fleet;
pub mod layers;
pub mod loadgen;
pub mod lockq6;
pub mod report;
pub mod serving;
pub mod util;

use report::Report;

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["activate", "lookup", "failover", "lock_q6"];

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the timed part runs (the work repeats until then).
    pub seconds: f64,
    /// Traced run: per-layer numbers instead of end-to-end ones.
    pub trace: bool,
    /// Self-test hook: flip a bit in the response with this index before
    /// it is checked.
    pub corrupt_response: Option<usize>,
    /// Self-test scale: a tenth of the work, one set-up, one round.
    pub quick: bool,
}

impl Opts {
    /// Options for a normal run.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Opts {
        Opts {
            seed,
            seconds,
            trace,
            corrupt_response: None,
            quick: false,
        }
    }

    /// `n` at this run's scale.
    pub fn scaled(&self, n: usize) -> usize {
        if self.quick {
            (n / 10).max(8)
        } else {
            n
        }
    }

    /// Set-ups timed for `setup_s`.
    pub fn setups(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }

    /// Clean reference points (or epochs) a run extends itself for, up to
    /// [`Opts::deadline`], when the host stole CPU time from too many.
    pub fn min_clean(&self) -> usize {
        if self.quick {
            1
        } else {
            8
        }
    }

    /// How long a run may extend itself for clean points: a quarter past
    /// `seconds`, so that a run stays within a fixed share of its time
    /// budget whatever the host does.
    pub fn deadline(&self) -> f64 {
        1.25 * self.seconds
    }

    /// Rounds (or epochs) run even when `seconds` is already spent.
    pub fn min_rounds(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }
}

/// Runs the named workload.
///
/// # Errors
///
/// An unknown workload name, or a set-up, socket or filesystem failure.
pub fn run(workload: &str, opts: &Opts) -> std::io::Result<Report> {
    match workload {
        "activate" => serving::run(serving::Kind::Activate, opts),
        "lookup" => serving::run(serving::Kind::Lookup, opts),
        "failover" => failover::run(opts),
        "lock_q6" => lockq6::run(opts),
        other => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("unknown workload {other:?}; expected one of {WORKLOADS:?}"),
        )),
    }
}
