//! The locks and fleets the workloads run on, and the request schedules
//! generated from them.
//!
//! Everything here is a pure function of the seed: the server and the
//! designer only ever see the generated requests.

use hwm_fsm::Stg;
use hwm_metering::{Chip, Designer, Foundry, LockOptions, MeteringError};
use hwm_service::wire::readout_to_bits_string;
use hwm_service::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fab clients that share the serving traffic round-robin.
pub const FAB_CLIENTS: usize = 8;

/// A lock: the original design, the locking options and the designer's
/// construction seed. Locks are the designer's fixed configuration, not
/// workload input: every run builds the same ones, and `--seed` varies
/// the dies and the traffic.
#[derive(Debug, Clone)]
pub struct LockSpec {
    /// Human-readable description printed with each run.
    pub label: &'static str,
    /// The original design.
    pub original: Stg,
    /// The locking options handed to [`Designer::new`].
    pub options: LockOptions,
    /// The construction seed handed to [`Designer::new`].
    pub seed: u64,
}

/// Construction seed of every lock below (instance 0).
pub const LOCK_SEED: u64 = 2024;

impl LockSpec {
    /// The serving lock: 4 added modules (12 FFs) with 3 SFFSM group bits,
    /// so a die's readout ranges over 2^15 = 32,768 values — far more than
    /// any serving fleet below — while one key search stays in the tens
    /// of microseconds.
    pub fn serving() -> LockSpec {
        LockSpec {
            label: "ring_counter(6,2), 4 modules (12 added FFs), 3 group bits, 1 black hole, remote disable",
            original: Stg::ring_counter(6, 2),
            options: LockOptions {
                added_modules: 4,
                group_bits: 3,
                ..LockOptions::default()
            },
            seed: LOCK_SEED,
        }
    }

    /// The serving benchmark's historical lock (`hwm_bench::serve`): 3
    /// modules (9 added FFs) on the same original design, so readouts
    /// range over only 512 values and a fleet of a thousand dies is full
    /// of duplicates.
    pub fn nine_ff() -> LockSpec {
        LockSpec {
            label: "ring_counter(6,2), 3 modules (9 added FFs), 1 black hole, remote disable",
            original: Stg::ring_counter(6, 2),
            options: LockOptions {
                added_modules: 3,
                black_holes: 1,
                ..LockOptions::default()
            },
            seed: LOCK_SEED,
        }
    }

    /// The paper's Table 3 at its largest size: 18 added FFs (q = 6),
    /// 3 input bits, no black holes, on the Table 3 original design.
    pub fn table3_q6() -> LockSpec {
        LockSpec {
            label: "ring_counter(4,1), 6 modules (18 added FFs), 3 input bits, no black holes, no dummy FFs",
            original: Stg::ring_counter(4, 1),
            options: LockOptions {
                added_modules: 6,
                input_bits: Some(3),
                black_holes: 0,
                dummy_ffs: 0,
                ..LockOptions::default()
            },
            seed: LOCK_SEED,
        }
    }

    /// Instance `i` of this lock shape: the same options under another
    /// construction seed (instance 0 is `self`).
    pub fn instance(&self, i: usize) -> LockSpec {
        LockSpec {
            seed: self.seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9)),
            ..self.clone()
        }
    }

    /// Builds the designer.
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    pub fn designer(&self) -> Result<Designer, MeteringError> {
        Designer::new(self.original.clone(), self.options.clone(), self.seed)
    }
}

/// One fabricated die as a fab client reports it.
#[derive(Debug, Clone)]
pub struct Die {
    /// The physical part (kept to check that issued keys unlock it).
    pub chip: Chip,
    /// Its power-up scan readout on the wire.
    pub readout: String,
    /// The fab's label for it.
    pub ic: String,
    /// The fab client reporting it.
    pub client: String,
}

/// Fabricates `count` dies from the designer's blueprint; die `i` belongs
/// to fab client `i % FAB_CLIENTS`.
pub fn fabricate(designer: &Designer, count: usize, seed: u64) -> Vec<Die> {
    let mut foundry = Foundry::new(designer.blueprint().clone(), seed ^ 0xFAB0_0000);
    (0..count)
        .map(|i| {
            let chip = foundry.fabricate_one();
            let readout = readout_to_bits_string(&chip.scan_flip_flops().0);
            Die {
                chip,
                readout,
                ic: format!("ic-{i}"),
                client: format!("fab-{}", i % FAB_CLIENTS),
            }
        })
        .collect()
}

/// A random readout of the scan width: a guess that is wrong with
/// overwhelming probability.
fn guess(rng: &mut StdRng, width: usize) -> String {
    (0..width)
        .map(|_| {
            if rng.random_range(0..2u8) == 1 {
                '1'
            } else {
                '0'
            }
        })
        .collect()
}

/// Activation traffic: each die registers and then unlocks; one die in
/// four sends a wrong guess before its unlock, and one in eight is
/// remotely disabled afterwards.
pub fn activation_schedule(fleet: &[Die], seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6E55_0000);
    let mut out = Vec::with_capacity(fleet.len() * 5 / 2);
    for (i, die) in fleet.iter().enumerate() {
        out.push(Request::Register {
            client: die.client.clone(),
            ic: die.ic.clone(),
            readout: die.readout.clone(),
        });
        if i % 4 == 3 {
            out.push(Request::Unlock {
                client: die.client.clone(),
                readout: guess(&mut rng, die.readout.len()),
            });
        }
        out.push(Request::Unlock {
            client: die.client.clone(),
            readout: die.readout.clone(),
        });
        if i % 8 == 5 {
            out.push(Request::RemoteDisable {
                client: die.client.clone(),
                ic: die.ic.clone(),
            });
        }
    }
    out
}

/// Registers and unlocks every die: how the lookup fleet is brought up.
pub fn bring_up_schedule(fleet: &[Die]) -> Vec<Request> {
    fleet
        .iter()
        .flat_map(|die| {
            [
                Request::Register {
                    client: die.client.clone(),
                    ic: die.ic.clone(),
                    readout: die.readout.clone(),
                },
                Request::Unlock {
                    client: die.client.clone(),
                    readout: die.readout.clone(),
                },
            ]
        })
        .collect()
}

/// Share of lookup requests that are `Status{ic}` queries; the rest
/// re-unlock an already-activated die. Neither appends to the journal.
pub const STATUS_SHARE_PCT: u32 = 70;

/// Read traffic over an activated fleet: `count` requests, each a
/// `Status{ic}` query or a re-unlock of a die drawn from `active`.
pub fn lookup_schedule(active: &[&Die], count: usize, seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x100C_0000);
    (0..count)
        .map(|i| {
            let die = active[rng.random_range(0..active.len())];
            let client = format!("fab-{}", i % FAB_CLIENTS);
            if rng.random_range(0..100u32) < STATUS_SHARE_PCT {
                Request::Status {
                    client,
                    ic: Some(die.ic.clone()),
                }
            } else {
                Request::Unlock {
                    client,
                    readout: die.readout.clone(),
                }
            }
        })
        .collect()
}

/// Cluster traffic as independent fab lines: `clients` fab clients, each
/// running its share of the fleet through [`activation_schedule`]'s life
/// cycle and closing with a fleet-wide `Status`, interleaved one request
/// per client per pass.
pub fn interleaved_schedule(fleet: &[Die], clients: usize, seed: u64) -> Vec<Request> {
    let mut lines: Vec<Vec<Request>> = (0..clients)
        .map(|c| {
            let mine: Vec<Die> = fleet
                .iter()
                .skip(c)
                .step_by(clients)
                .cloned()
                .map(|mut d| {
                    d.client = format!("line-{c}");
                    d
                })
                .collect();
            let mut line = activation_schedule(&mine, seed.wrapping_add(c as u64));
            line.push(Request::Status {
                client: format!("line-{c}"),
                ic: None,
            });
            line
        })
        .collect();
    for line in &mut lines {
        line.reverse();
    }
    let mut out = Vec::new();
    loop {
        let mut progressed = false;
        for line in &mut lines {
            if let Some(req) = line.pop() {
                out.push(req);
                progressed = true;
            }
        }
        if !progressed {
            return out;
        }
    }
}
