//! The micro-op vocabulary the core model executes.

use std::num::NonZeroU32;

use mallacc_cache::Addr;

/// A virtual (SSA) register name.
///
/// The fast-path programs are generated dynamically with every destination
/// written exactly once, so a register's completion time fully describes its
/// dependency — no renaming or false-hazard tracking is needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(NonZeroU32);

impl Reg {
    /// Register `index`. It is stored as `index + 1`, so `None` is the
    /// zero niche of `Option<Reg>`, and the stored value is the register's
    /// slot in the engine's completion table, whose slot 0 is the
    /// sentinel an absent source reads.
    pub(crate) fn new(index: u32) -> Self {
        Reg(NonZeroU32::MIN.saturating_add(index))
    }

    /// The register's completion-table slot: `index + 1`.
    pub(crate) fn slot(self) -> usize {
        self.0.get() as usize
    }

    /// The raw register index (useful for debugging traces).
    pub fn index(self) -> u32 {
        self.0.get() - 1
    }
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.index())
    }
}

/// What a micro-op does, and what its latency depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A register-to-register operation with a fixed execution latency
    /// (ALU ops, address generation, accelerator CAM lookups, ...).
    Alu {
        /// Execution latency in cycles (≥ 1).
        latency: u32,
    },
    /// A demand load from the simulated memory hierarchy. Its latency is
    /// whatever the hierarchy answers at issue time.
    Load {
        /// The simulated byte address.
        addr: Addr,
    },
    /// A store. Write-allocate in the hierarchy; completes in one cycle from
    /// the core's perspective and retires through the senior store queue, so
    /// it never stalls commit.
    Store {
        /// The simulated byte address.
        addr: Addr,
    },
    /// A prefetch (software, or the accelerator's `mcnxtprefetch`). Commits
    /// immediately like a store, but the returned timing records when the
    /// data actually arrives so the malloc cache can block on it.
    Prefetch {
        /// The simulated byte address.
        addr: Addr,
    },
    /// A branch. If `mispredicted`, fetch is redirected `mispredict_penalty`
    /// cycles after the branch resolves. A *taken* branch (calls, returns,
    /// unconditional jumps, loop back-edges) ends its fetch group even when
    /// predicted — the front end resteers to the new target next cycle.
    Branch {
        /// Whether this dynamic instance was mispredicted.
        mispredicted: bool,
        /// Whether the branch is taken (ends the fetch group).
        taken: bool,
        /// Redirect penalty override for mispredictions; `None` uses the
        /// core's configured penalty. Short-range branches whose target is
        /// already in the µop cache resteer faster than the full pipeline
        /// depth.
        penalty: Option<u32>,
    },
}

/// One dynamic micro-op: an [`OpKind`], up to three source registers, and an
/// optional destination register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Uop {
    /// The operation.
    pub kind: OpKind,
    /// Source operands; ready time is the max of their completion times.
    pub srcs: [Option<Reg>; 3],
    /// Destination register (written exactly once — SSA).
    pub dst: Option<Reg>,
}

fn srcs_from(slice: &[Reg]) -> [Option<Reg>; 3] {
    assert!(slice.len() <= 3, "uops take at most three sources");
    let mut srcs = [None; 3];
    for (dst, &s) in srcs.iter_mut().zip(slice) {
        *dst = Some(s);
    }
    srcs
}

impl Uop {
    /// A fixed-latency ALU op `dst = f(srcs)`.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero or more than three sources are given.
    pub fn alu(latency: u32, dst: Option<Reg>, srcs: &[Reg]) -> Self {
        assert!(latency >= 1, "ALU latency must be at least one cycle");
        Self {
            kind: OpKind::Alu { latency },
            srcs: srcs_from(srcs),
            dst,
        }
    }

    /// A load `dst = mem[addr]`, with address-generation dependencies `srcs`.
    ///
    /// # Panics
    ///
    /// Panics if more than three sources are given.
    pub fn load(addr: Addr, dst: Reg, srcs: &[Reg]) -> Self {
        Self {
            kind: OpKind::Load { addr },
            srcs: srcs_from(srcs),
            dst: Some(dst),
        }
    }

    /// A store `mem[addr] = value`, depending on `srcs` (address + data).
    ///
    /// # Panics
    ///
    /// Panics if more than three sources are given.
    pub fn store(addr: Addr, srcs: &[Reg]) -> Self {
        Self {
            kind: OpKind::Store { addr },
            srcs: srcs_from(srcs),
            dst: None,
        }
    }

    /// A prefetch of `addr`, depending on `srcs`.
    ///
    /// # Panics
    ///
    /// Panics if more than three sources are given.
    pub fn prefetch(addr: Addr, srcs: &[Reg]) -> Self {
        Self {
            kind: OpKind::Prefetch { addr },
            srcs: srcs_from(srcs),
            dst: None,
        }
    }

    /// A conditional, not-taken branch depending on `srcs` (typically a
    /// flags register).
    ///
    /// # Panics
    ///
    /// Panics if more than three sources are given.
    pub fn branch(mispredicted: bool, srcs: &[Reg]) -> Self {
        Self {
            kind: OpKind::Branch {
                mispredicted,
                taken: false,
                penalty: None,
            },
            srcs: srcs_from(srcs),
            dst: None,
        }
    }

    /// A conditional branch with an explicit misprediction penalty
    /// (short-range fallback branches that resteer from the µop cache).
    ///
    /// # Panics
    ///
    /// Panics if more than three sources are given.
    pub fn branch_penalized(mispredicted: bool, penalty: u32, srcs: &[Reg]) -> Self {
        Self {
            kind: OpKind::Branch {
                mispredicted,
                taken: false,
                penalty: Some(penalty),
            },
            srcs: srcs_from(srcs),
            dst: None,
        }
    }

    /// A taken, correctly-predicted control transfer (call, return,
    /// unconditional jump): costs a fetch-group break but no flush.
    ///
    /// # Panics
    ///
    /// Panics if more than three sources are given.
    pub fn jump(srcs: &[Reg]) -> Self {
        Self {
            kind: OpKind::Branch {
                mispredicted: false,
                taken: true,
                penalty: None,
            },
            srcs: srcs_from(srcs),
            dst: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_populate_sources() {
        let r = Reg::new;
        let u = Uop::alu(2, Some(r(9)), &[r(1), r(2)]);
        assert_eq!(u.srcs, [Some(r(1)), Some(r(2)), None]);
        assert_eq!(u.dst, Some(r(9)));
        assert_eq!(u.kind, OpKind::Alu { latency: 2 });
    }

    #[test]
    #[should_panic(expected = "at most three sources")]
    fn too_many_sources() {
        let r = Reg::new;
        Uop::alu(1, None, &[r(0), r(1), r(2), r(3)]);
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_latency_alu_rejected() {
        Uop::alu(0, None, &[]);
    }

    #[test]
    fn display_reg() {
        assert_eq!(Reg::new(7).to_string(), "v7");
    }
}
