//! Golden optima: the exact DP's energy bits, state count, record count,
//! and a digest of the whole schedule, pinned on fixed inputs.
//!
//! Optimal energies are priced canonically from the chosen path, so a
//! kernel or backtrack change that keeps the optimum but picks a different
//! path of equal energy would slip past an energy check alone; the
//! schedule digest catches it. Real traces almost never tie, so two
//! round-priced cases make the backtrack's prefer-stay rule decide the
//! path. The step traces sit on the edges of the backtrack's
//! `ceil(sqrt(S))`-row window (1, 2, 3, 16 and 17 segments), and every
//! case must replay clean through the simulator.
//!
//! The table is solved under every cap in [`THREADS`]: the backtrack
//! recomputes its windows on as many threads as the cap allows, and no
//! cap may move a bit of it.
//!
//! On a mismatch the assertion prints the whole actual table in the
//! table's own format.

use bml_core::bml::BmlInfrastructure;
use bml_core::catalog;
use bml_core::combination::SplitPolicy;
use bml_core::profile::ArchProfile;
use bml_opt::{solve_verified, OptOptions, OptimalSchedule};
use bml_trace::LoadTrace;

/// `(case, energy_j bits, n_states, schedule.len(), schedule digest)`.
type Pin = (String, u64, usize, usize, u64);

#[rustfmt::skip]
const GOLDEN: &[(&str, u64, usize, usize, u64)] = &[
    ("tournament/table1/efficiency-greedy", 0x4141f62c564ab41d, 74, 42, 0xd59098cc51cbd24a),
    ("tournament/table1/proportional", 0x4141f6e86a2c7ce0, 74, 42, 0x3ed1e434e8253f79),
    ("tournament/big-medium/efficiency-greedy", 0x4141f667b4daa5f5, 42, 40, 0x2e8262d43d840f97),
    ("tournament/big-medium/proportional", 0x4141f7258a1de949, 42, 40, 0x66cd87c7b8700574),
    ("tournament/big-little/efficiency-greedy", 0x41423730bd8eacd9, 59, 16, 0xad797304c35fcf50),
    ("tournament/big-little/proportional", 0x4142373347b2f4e9, 59, 16, 0xad797304c35fcf50),
    ("steps1/table1/efficiency-greedy", 0x40a9f91745d1745d, 2, 0, 0x51cef117f81654e5),
    ("steps1/table1/proportional", 0x40aa040000000000, 2, 0, 0x51cef117f81654e5),
    ("steps2/table1/efficiency-greedy", 0x40dc68704a7904a8, 3, 2, 0xf121e4e560fda932),
    ("steps2/table1/proportional", 0x40dc6a1f3791e144, 3, 2, 0xf121e4e560fda932),
    ("steps3/table1/efficiency-greedy", 0x40dfbafd1745d175, 4, 3, 0xa9397e6e019dab4c),
    ("steps3/table1/proportional", 0x40dfbcac045eae11, 4, 3, 0xa9397e6e019dab4c),
    ("steps16/table1/efficiency-greedy", 0x4115688880dd925d, 7, 20, 0xf81c36eb21b091e7),
    ("steps16/table1/proportional", 0x411569411c318f0e, 7, 20, 0xf81c36eb21b091e7),
    ("steps17/table1/efficiency-greedy", 0x41157643bdd1619a, 7, 21, 0x45f9373af2161aae),
    ("steps17/table1/proportional", 0x411576fc59255e4b, 7, 21, 0x45f9373af2161aae),
    ("ties/exact", 0x409a400000000000, 2, 0, 0xe6bd86443df8ce07),
    ("ties/near", 0x409a400000000000, 2, 0, 0xe6bd86443df8ce07),
];

/// Thread caps the table is solved under (1 = the backtrack runs inline
/// on the caller).
const THREADS: [usize; 4] = [1, 2, 3, 8];

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
}

const SPLITS: [(&str, SplitPolicy); 2] = [
    ("efficiency-greedy", SplitPolicy::EfficiencyGreedy),
    ("proportional", SplitPolicy::ProportionalToCapacity),
];

/// The smoke grid's three catalogs.
fn catalogs() -> Vec<(&'static str, BmlInfrastructure)> {
    let build = |p: &[ArchProfile]| BmlInfrastructure::build(p).unwrap();
    vec![
        ("table1", build(&catalog::table1())),
        (
            "big-medium",
            build(&[catalog::paravance(), catalog::chromebook()]),
        ),
        (
            "big-little",
            build(&[catalog::paravance(), catalog::raspberry()]),
        ),
    ]
}

/// Two busy hours of the smoke grid's trace (worldcup-tournament, 2 days,
/// seed 1998): the real load shape at a size debug builds solve quickly.
fn tournament_slice() -> LoadTrace {
    let full = bml_trace::registry::generate("worldcup-tournament", 2, 1998).unwrap();
    let from = 86_400 + 12 * 3_600;
    LoadTrace::new(full.first_day, full.rates[from..from + 2 * 3_600].to_vec())
}

/// A trace of exactly `n` constant-load runs: levels that need boots of
/// every architecture, runs both shorter and longer than the boot leads.
fn steps(n: usize) -> LoadTrace {
    const LEVELS: [f64; 7] = [40.0, 1400.0, 9.0, 529.0, 2600.0, 0.0, 120.0];
    const LENS: [usize; 5] = [300, 20, 700, 190, 45];
    let mut rates = Vec::new();
    for i in 0..n {
        rates.extend(std::iter::repeat_n(
            LEVELS[i % LEVELS.len()],
            LENS[i % LENS.len()],
        ));
    }
    LoadTrace::new(0, rates)
}

/// One machine kind with round prices: keeping two of them idle through
/// [`tie_trace`]'s first 20 s costs 2 x 2 W x 20 s = 80 J, and booting
/// both just in time costs 2 x `on_energy`. At 40 J the two paths tie
/// exactly; a hair below, booting is cheaper by less than the backtrack's
/// tolerance. Both must stay put.
fn round_machine(on_energy: f64) -> BmlInfrastructure {
    let p = ArchProfile::new("round", 2.0, 10.0, 100.0, 10.0, on_energy, 4.0, 8.0).unwrap();
    BmlInfrastructure::build(&[p]).unwrap()
}

/// 20 idle seconds, then a load two [`round_machine`]s must serve.
fn tie_trace() -> LoadTrace {
    let mut rates = vec![0.0; 20];
    rates.extend([150.0; 100]);
    LoadTrace::new(0, rates)
}

/// FNV-1a over the warm start and every record: moves whenever the
/// chosen path does.
fn schedule_digest(s: &OptimalSchedule) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &c in &s.initial {
        eat(u64::from(c));
    }
    for r in &s.schedule {
        eat(r.at);
        for &c in &r.target {
            eat(u64::from(c));
        }
    }
    h
}

fn pin(case: String, trace: &LoadTrace, bml: &BmlInfrastructure, split: SplitPolicy) -> Pin {
    let (s, replay) = solve_verified(trace, bml, split, &OptOptions::default())
        .expect("exact DP cannot dead-end");
    assert_eq!(replay.qos.violation_seconds, 0, "{case}: full service");
    (
        case,
        s.energy_j.to_bits(),
        s.n_states,
        s.schedule.len(),
        schedule_digest(&s),
    )
}

/// The golden cases' actual pins, in table order.
fn optima() -> Vec<Pin> {
    let mut actual: Vec<Pin> = Vec::new();
    let slice = tournament_slice();
    for (name, bml) in catalogs() {
        for (label, split) in SPLITS {
            actual.push(pin(
                format!("tournament/{name}/{label}"),
                &slice,
                &bml,
                split,
            ));
        }
    }
    let table1 = BmlInfrastructure::build(&catalog::table1()).unwrap();
    for n in [1, 2, 3, 16, 17] {
        let trace = steps(n);
        assert_eq!(trace.constant_runs().count(), n);
        for (label, split) in SPLITS {
            actual.push(pin(
                format!("steps{n}/table1/{label}"),
                &trace,
                &table1,
                split,
            ));
        }
    }
    let greedy = SplitPolicy::EfficiencyGreedy;
    for (case, on_energy) in [("ties/exact", 40.0), ("ties/near", 40.0 - 1e-7)] {
        actual.push(pin(
            case.to_string(),
            &tie_trace(),
            &round_machine(on_energy),
            greedy,
        ));
    }
    actual
}

#[test]
fn optima_match_the_golden_table() {
    let want: Vec<Pin> = GOLDEN
        .iter()
        .map(|&(case, e, k, r, d)| (case.to_string(), e, k, r, d))
        .collect();
    for threads in THREADS {
        let actual = pool(threads).install(optima);
        let rendered: String = actual
            .iter()
            .map(|(case, e, k, r, d)| {
                format!("    (\"{case}\", {e:#018x}, {k}, {r}, {d:#018x}),\n")
            })
            .collect();
        assert!(
            actual == want,
            "optima drifted under {threads} threads; actual table:\n{rendered}"
        );
    }
}
