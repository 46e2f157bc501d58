//! Sorted, validated collections of fault events.

use crate::{FaultKind, FaultSpec};
use numa_gpu_testkit::DetRng;
use numa_gpu_types::SimError;
use std::fmt;

fn err(message: impl Into<String>) -> SimError {
    SimError::InvalidFaultPlan {
        message: message.into(),
    }
}

/// A deterministic, cycle-sorted fault schedule.
///
/// The plan is pure data: building, displaying, and parsing it touch no
/// clock and no global state. Specs are kept sorted by cycle (stable, so
/// same-cycle faults apply in insertion order), which is the order the
/// simulator consumes them in.
///
/// # Examples
///
/// ```
/// use numa_gpu_faults::{FaultKind, FaultPlan, FaultSpec};
///
/// let mut plan = FaultPlan::new();
/// plan.push(FaultSpec::new(
///     5_000,
///     FaultKind::LinkLanes { socket: 1, healthy_lanes: 8 },
/// ));
/// assert_eq!(plan.to_string(), "lanes:s1@5000=8");
/// plan.validate(4, 16, 256).unwrap();
/// // Socket 9 does not exist in a 4-socket system:
/// let bad = FaultPlan::parse("dram:s9@100+10").unwrap();
/// assert!(bad.validate(4, 16, 256).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (injects nothing; timing-equivalent to no plan).
    pub fn new() -> Self {
        FaultPlan { specs: Vec::new() }
    }

    /// Builds a plan from specs, sorting them by cycle (stable).
    pub fn from_specs(mut specs: Vec<FaultSpec>) -> Self {
        specs.sort_by_key(|s| s.cycle);
        FaultPlan { specs }
    }

    /// Adds a fault, keeping the plan sorted by cycle.
    pub fn push(&mut self, spec: FaultSpec) {
        self.specs.push(spec);
        self.specs.sort_by_key(|s| s.cycle);
    }

    /// The faults, sorted by cycle.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Parses the compact spec grammar used by `simulate --faults`.
    ///
    /// Atoms are separated by `;` or `,`:
    ///
    /// * `lanes:s<S>@<C>=<N>` — at cycle `C`, socket `S`'s link has `N`
    ///   healthy lanes (both directions pooled);
    /// * `retrain:s<S>@<C>+<W>` — at cycle `C`, hold socket `S`'s link in
    ///   a `W`-cycle retrain window;
    /// * `dram:s<S>@<C>+<W>` — at cycle `C`, stall socket `S`'s DRAM for
    ///   `W` cycles with ECC-retry latency;
    /// * `sm:<A>[-<B>]@<C>` — at cycle `C`, disable global SMs `A..=B`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFaultPlan`] naming the offending atom.
    pub fn parse(text: &str) -> Result<Self, SimError> {
        let mut specs = Vec::new();
        for atom in text.split([';', ',']) {
            let atom = atom.trim();
            if atom.is_empty() {
                continue;
            }
            specs.push(parse_atom(atom)?);
        }
        Ok(Self::from_specs(specs))
    }

    /// Generates a small mixed fault plan from a seed (the `--fault-seed`
    /// path). Deterministic: same seed and machine shape, same plan. The
    /// generated plan always passes [`FaultPlan::validate`] for the given
    /// shape and never kills a whole socket of SMs.
    pub fn random(
        seed: u64,
        num_sockets: u8,
        lanes_total: u8,
        total_sms: u32,
        horizon_cycles: u64,
    ) -> Self {
        let mut rng = DetRng::seed_from_u64(seed);
        let horizon = horizon_cycles.max(10);
        let count = 2 + rng.bounded_u64(3); // 2..=4 faults
        let mut specs = Vec::new();
        for _ in 0..count {
            let cycle = horizon / 10 + rng.bounded_u64(horizon - horizon / 10);
            let socket = rng.bounded_u64(num_sockets.max(1) as u64) as u8;
            let window_cycles = 100 + rng.bounded_u64(900) as u32;
            let kind = match rng.bounded_u64(4) {
                0 if lanes_total > 2 => FaultKind::LinkLanes {
                    socket,
                    healthy_lanes: (2 + rng.bounded_u64(lanes_total as u64 - 2)) as u8,
                },
                1 => FaultKind::LinkRetrain {
                    socket,
                    window_cycles,
                },
                2 if total_sms > 1 => {
                    let sm = rng.bounded_u64(total_sms as u64) as u16;
                    FaultKind::SmDisable {
                        first_sm: sm,
                        last_sm: sm,
                    }
                }
                _ => FaultKind::DramStall {
                    socket,
                    window_cycles,
                },
            };
            specs.push(FaultSpec::new(cycle, kind));
        }
        Self::from_specs(specs)
    }

    /// Checks every fault against the machine shape: link and DRAM
    /// sockets in range, healthy lane counts in `2..=lanes_total`, SM
    /// ranges ordered and in range, windows nonzero.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFaultPlan`] naming the offending spec.
    pub fn validate(
        &self,
        num_sockets: u8,
        lanes_total: u8,
        total_sms: u32,
    ) -> Result<(), SimError> {
        for spec in &self.specs {
            match spec.kind {
                FaultKind::LinkLanes {
                    socket,
                    healthy_lanes,
                } => {
                    check_link(socket, num_sockets, spec)?;
                    if healthy_lanes < 2 || healthy_lanes > lanes_total {
                        return Err(err(format!(
                            "`{spec}`: healthy lanes must be in 2..={lanes_total}"
                        )));
                    }
                }
                FaultKind::LinkRetrain {
                    socket,
                    window_cycles,
                } => {
                    check_link(socket, num_sockets, spec)?;
                    if window_cycles == 0 {
                        return Err(err(format!("`{spec}`: window must be nonzero")));
                    }
                }
                FaultKind::DramStall {
                    socket,
                    window_cycles,
                } => {
                    check_socket(socket, num_sockets, spec)?;
                    if window_cycles == 0 {
                        return Err(err(format!("`{spec}`: window must be nonzero")));
                    }
                }
                FaultKind::SmDisable { first_sm, last_sm } => {
                    if first_sm > last_sm {
                        return Err(err(format!("`{spec}`: SM range is reversed")));
                    }
                    if last_sm as u32 >= total_sms {
                        return Err(err(format!(
                            "`{spec}`: SM {last_sm} out of range (total {total_sms})"
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

fn check_socket(socket: u8, num_sockets: u8, spec: &FaultSpec) -> Result<(), SimError> {
    if socket >= num_sockets {
        return Err(err(format!(
            "`{spec}`: socket {socket} out of range (system has {num_sockets})"
        )));
    }
    Ok(())
}

fn check_link(socket: u8, num_sockets: u8, spec: &FaultSpec) -> Result<(), SimError> {
    // The wording predates the socket-only fabric; the daemon's pinned
    // replies (`serve/tests/wire.rs`) carry it byte for byte.
    if socket >= num_sockets {
        return Err(err(format!(
            "`{spec}`: link edge {socket} out of range (fabric has {num_sockets})"
        )));
    }
    Ok(())
}

fn parse_num<T: std::str::FromStr>(text: &str, atom: &str, what: &str) -> Result<T, SimError> {
    text.parse()
        .map_err(|_| err(format!("`{atom}`: bad {what} `{text}`")))
}

/// Splits `s<S>@<C><sep><V>` into its three numbers.
fn socket_cycle_value(rest: &str, sep: char, atom: &str) -> Result<(u8, u64, u64), SimError> {
    let rest = rest
        .strip_prefix('s')
        .ok_or_else(|| err(format!("`{atom}`: expected `s<socket>@...`")))?;
    let (socket, rest) = rest
        .split_once('@')
        .ok_or_else(|| err(format!("`{atom}`: missing `@<cycle>`")))?;
    let (cycle, value) = rest
        .split_once(sep)
        .ok_or_else(|| err(format!("`{atom}`: missing `{sep}<value>`")))?;
    Ok((
        parse_num(socket, atom, "socket")?,
        parse_num(cycle, atom, "cycle")?,
        parse_num(value, atom, "value")?,
    ))
}

fn parse_atom(atom: &str) -> Result<FaultSpec, SimError> {
    let (op, rest) = atom
        .split_once(':')
        .ok_or_else(|| err(format!("`{atom}`: expected `<kind>:<spec>`")))?;
    match op {
        "lanes" => {
            let (socket, cycle, lanes) = socket_cycle_value(rest, '=', atom)?;
            if lanes > u8::MAX as u64 {
                return Err(err(format!("`{atom}`: lane count too large")));
            }
            Ok(FaultSpec::new(
                cycle,
                FaultKind::LinkLanes {
                    socket,
                    healthy_lanes: lanes as u8,
                },
            ))
        }
        "retrain" | "dram" => {
            let (socket, cycle, window) = socket_cycle_value(rest, '+', atom)?;
            if window > u32::MAX as u64 {
                return Err(err(format!("`{atom}`: window too large")));
            }
            let window_cycles = window as u32;
            let kind = if op == "retrain" {
                FaultKind::LinkRetrain {
                    socket,
                    window_cycles,
                }
            } else {
                FaultKind::DramStall {
                    socket,
                    window_cycles,
                }
            };
            Ok(FaultSpec::new(cycle, kind))
        }
        "sm" => {
            let (range, cycle) = rest
                .split_once('@')
                .ok_or_else(|| err(format!("`{atom}`: missing `@<cycle>`")))?;
            let (first, last) = match range.split_once('-') {
                Some((a, b)) => (
                    parse_num(a, atom, "first SM")?,
                    parse_num(b, atom, "last SM")?,
                ),
                None => {
                    let sm: u16 = parse_num(range, atom, "SM index")?;
                    (sm, sm)
                }
            };
            Ok(FaultSpec::new(
                parse_num(cycle, atom, "cycle")?,
                FaultKind::SmDisable {
                    first_sm: first,
                    last_sm: last,
                },
            ))
        }
        other => Err(err(format!(
            "`{atom}`: unknown fault kind `{other}` (expected lanes|retrain|dram|sm)"
        ))),
    }
}

impl fmt::Display for FaultPlan {
    /// The canonical spec string: atoms joined by `; ` in cycle order.
    /// Round-trips through [`FaultPlan::parse`]; also used as the bench
    /// scenario label.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, spec) in self.specs.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{spec}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_gpu_testkit::gen::{ints, one_of, pairs, quads, select, strings, vecs, Gen};
    use numa_gpu_testkit::{prop_assert_eq, prop_check};

    #[test]
    fn parse_sorts_and_round_trips() {
        let plan = FaultPlan::parse("dram:s0@2000+300, lanes:s1@500=8;sm:3-5@100").unwrap();
        let cycles: Vec<u64> = plan.specs().iter().map(|s| s.cycle).collect();
        assert_eq!(cycles, [100, 500, 2000]);
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn empty_and_whitespace_specs_are_empty_plans() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" ; , ").unwrap().is_empty());
        assert_eq!(FaultPlan::new().to_string(), "");
    }

    #[test]
    fn parse_rejects_malformed_atoms() {
        for bad in [
            "lanes",
            "lanes:1@5=8",
            "lanes:s1=8",
            "lanes:s1@5",
            "lanes:s1@x=8",
            "zap:s1@5+8",
            "sm:a-b@5",
            "sm:0-3",
            "retrain:s1@5=8",
        ] {
            let e = FaultPlan::parse(bad).unwrap_err();
            assert!(
                matches!(e, SimError::InvalidFaultPlan { .. }),
                "`{bad}` should fail as InvalidFaultPlan, got {e:?}"
            );
        }
    }

    #[test]
    fn validate_checks_machine_shape() {
        let ok = FaultPlan::parse("lanes:s1@5000=8; sm:0-63@1000; retrain:s0@1+10").unwrap();
        ok.validate(4, 16, 256).unwrap();
        assert!(FaultPlan::parse("lanes:s4@1=8")
            .unwrap()
            .validate(4, 16, 256)
            .is_err());
        assert!(FaultPlan::parse("lanes:s0@1=1")
            .unwrap()
            .validate(4, 16, 256)
            .is_err());
        assert!(FaultPlan::parse("lanes:s0@1=17")
            .unwrap()
            .validate(4, 16, 256)
            .is_err());
        assert!(FaultPlan::parse("sm:0-256@1")
            .unwrap()
            .validate(4, 16, 256)
            .is_err());
        assert!(FaultPlan::parse("dram:s0@1+0")
            .unwrap()
            .validate(4, 16, 256)
            .is_err());
        assert!(FaultPlan::parse("sm:5-4@1")
            .unwrap()
            .validate(4, 16, 256)
            .is_err());
    }

    #[test]
    fn random_is_deterministic_and_valid() {
        for seed in 0..64u64 {
            let a = FaultPlan::random(seed, 4, 16, 256, 100_000);
            let b = FaultPlan::random(seed, 4, 16, 256, 100_000);
            assert_eq!(a, b, "seed {seed} not reproducible");
            a.validate(4, 16, 256)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(!a.is_empty());
        }
        assert_ne!(
            FaultPlan::random(1, 4, 16, 256, 100_000),
            FaultPlan::random(2, 4, 16, 256, 100_000)
        );
    }

    #[test]
    fn random_survives_degenerate_shapes() {
        let p = FaultPlan::random(7, 1, 2, 1, 1);
        p.validate(1, 2, 1).unwrap();
    }

    /// Atom-shaped text: each atom is one of the grammar's shapes (or a
    /// garbled one) around numbers at and past each field's bounds.
    fn grammar_soup() -> Gen<String> {
        let tokens = |list: &'static str| select(list.split('|').collect());
        let shape = select(vec![
            ("lanes:s", "@", "="),
            ("retrain:s", "@", "+"),
            ("dram:s", "@", "+"),
            ("sm:", "-", "@"),
            ("sm:", "@", ""),
            ("lanes:", "=", "@"),
            ("s", ":", "+"),
        ]);
        let num = tokens(concat!(
            "0|1|7|42|255|256|5000|65535|65536|4294967295|4294967296|",
            "18446744073709551615|18446744073709551616|+3|-|"
        ));
        let atom = quads(
            shape,
            num.clone(),
            pairs(num.clone(), num),
            tokens(";|,| ; "),
        )
        .map(|((k, m1, m2), a, (b, c), sep)| format!("{k}{a}{m1}{b}{m2}{c}{sep}"));
        vecs(atom, 1..4).map(|atoms| atoms.concat())
    }

    prop_check! {
        /// The spec grammar round-trips for any seeded plan.
        fn grammar_round_trips(seed in ints(0u64..1_000_000)) {
            let plan = FaultPlan::random(seed, 8, 16, 512, 1_000_000);
            prop_assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
        }

        /// `parse` never panics on arbitrary or grammar-shaped text, and
        /// every plan it accepts round-trips through `Display`.
        fn parse_survives_arbitrary_text(text in one_of(vec![strings(0..200), grammar_soup()])) {
            if let Ok(plan) = FaultPlan::parse(&text) {
                prop_assert_eq!(FaultPlan::parse(&plan.to_string()), Ok(plan), "from {:?}", text);
            }
        }
    }

    #[test]
    fn push_keeps_cycle_order_stably() {
        let mut plan = FaultPlan::new();
        let a = FaultSpec::new(
            10,
            FaultKind::DramStall {
                socket: 0,
                window_cycles: 1,
            },
        );
        let b = FaultSpec::new(
            10,
            FaultKind::DramStall {
                socket: 1,
                window_cycles: 1,
            },
        );
        let c = FaultSpec::new(
            5,
            FaultKind::DramStall {
                socket: 2,
                window_cycles: 1,
            },
        );
        plan.push(a);
        plan.push(b);
        plan.push(c);
        assert_eq!(plan.specs(), [c, a, b]);
    }
}
