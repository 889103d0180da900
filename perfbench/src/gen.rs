//! Workload inputs drawn from the `--seed` argument.
//!
//! Everything the program receives — task instances, arrival times, mix
//! picks, puzzle scrambles, learning flags — comes from one splitmix64
//! stream per purpose, so the same seed always yields the same inputs.

use psme_net::{splitmix64, u01};
use psme_tasks::strips::doors_of;
use psme_tasks::StripsConfig;

/// Independent stream for one purpose of one seed.
pub fn stream(seed: u64, purpose: u64) -> u64 {
    let mut s = seed ^ purpose.wrapping_mul(0xa076_1d64_78bd_642f);
    splitmix64(&mut s)
}

/// Uniform integer in `lo..=hi`.
pub fn range(rng: &mut u64, lo: u64, hi: u64) -> u64 {
    lo + splitmix64(rng) % (hi - lo + 1)
}

/// A Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(rng: &mut u64, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = (splitmix64(rng) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// One learn-workload instance.
#[derive(Clone, Debug, PartialEq)]
pub enum Instance {
    /// Cypress-sub with this many root specifications.
    Cypress(usize),
    /// A STRIPS world.
    Strips {
        rooms: usize,
        closed_doors: Vec<usize>,
        start: usize,
        target: usize,
    },
    /// An eight-puzzle scramble (`moves` blank moves from the goal).
    Puzzle { moves: usize, seed: u64 },
}

impl Instance {
    /// Build (parse) the task.
    pub fn task(&self) -> psme_soar::SoarTask {
        match self {
            Instance::Cypress(roots) => {
                psme_tasks::cypress_sub(&psme_tasks::CypressConfig { roots: *roots })
            }
            Instance::Strips {
                rooms,
                closed_doors,
                start,
                target,
            } => psme_tasks::strips(&StripsConfig {
                rooms: *rooms,
                closed_doors: closed_doors.clone(),
                start: *start,
                target: *target,
                chords: false,
            }),
            Instance::Puzzle { moves, seed } => {
                psme_tasks::eight_puzzle(&psme_tasks::scrambled(*moves, *seed))
            }
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            Instance::Cypress(r) => format!("cypress-sub({r} roots)"),
            Instance::Strips {
                rooms,
                closed_doors,
                start,
                target,
            } => {
                format!("strips({rooms} rooms, closed {closed_doors:?}, r{start}->r{target})")
            }
            Instance::Puzzle { moves, seed } => {
                format!("eight-puzzle({moves} moves, scramble {seed})")
            }
        }
    }
}

/// Cypress-sub roots in the learn workload.
pub const LEARN_CYPRESS_ROOTS: usize = 4;

/// The STRIPS world of a seed: 10 or 11 rooms on a ring, two closed
/// doors, start anywhere and the target across the ring from it, so every
/// world's shortest route is equally long.
pub fn learn_strips(seed: u64) -> Instance {
    let mut rng = stream(seed, 1);
    let rooms = range(&mut rng, 10, 11) as usize;
    let ndoors = doors_of(&StripsConfig {
        rooms,
        closed_doors: vec![],
        start: 0,
        target: 1,
        chords: false,
    })
    .len();
    let mut doors: Vec<usize> = (0..ndoors).collect();
    shuffle(&mut rng, &mut doors);
    let mut closed = doors[..2].to_vec();
    closed.sort_unstable();
    let start = range(&mut rng, 0, rooms as u64 - 1) as usize;
    Instance::Strips {
        rooms,
        closed_doors: closed,
        start,
        target: (start + rooms / 2) % rooms,
    }
}

/// Blank moves per learn-workload puzzle scramble.
pub const LEARN_PUZZLE_MOVES: usize = 3;

/// Candidate eight-puzzle scrambles of a seed, in draw order. The learn
/// workload keeps the first ones whose reference run reaches the goal.
pub fn learn_puzzles(seed: u64) -> impl Iterator<Item = Instance> {
    let mut rng = stream(seed, 2);
    std::iter::repeat_with(move || Instance::Puzzle {
        moves: LEARN_PUZZLE_MOVES,
        seed: splitmix64(&mut rng),
    })
}

/// One open-loop session: when it is due and what it asks for.
#[derive(Clone, Debug, PartialEq)]
pub struct Arrival {
    /// Seconds after the rung starts.
    pub at: f64,
    /// Index into the mix.
    pub mix: usize,
    /// Task-instance seed sent in `OpenSession`.
    pub seed: u64,
}

/// Arrivals of one rung: `n = round(rate · secs)` opens whose times are
/// sorted uniform draws over the rung — a Poisson process of `rate`
/// conditioned on its count, so every run offers the same number of
/// sessions. Mix picks are a shuffled deck with exact shares (`weights`
/// are per-mille), and puzzle seeds come from a pool of `pool` seeds.
pub fn rung_arrivals(
    seed: u64,
    rung: u64,
    rate: f64,
    secs: f64,
    weights: &[u64],
    pool: &[u64],
) -> Vec<Arrival> {
    let n = (rate * secs).round().max(1.0) as usize;
    let mut rng = stream(seed, 100 + rung);
    let mut at: Vec<f64> = (0..n).map(|_| u01(&mut rng) * secs).collect();
    at.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let total: u64 = weights.iter().sum();
    let mut deck: Vec<usize> = Vec::with_capacity(n);
    for (i, &w) in weights.iter().enumerate() {
        let k = (n as u64 * w + total / 2) / total;
        deck.extend(std::iter::repeat_n(i, k as usize));
    }
    deck.resize(n, 0);
    shuffle(&mut rng, &mut deck);
    at.into_iter()
        .zip(deck)
        .map(|(at, mix)| Arrival {
            at,
            mix,
            seed: pool[(splitmix64(&mut rng) % pool.len() as u64) as usize],
        })
        .collect()
}

/// The open-loop puzzle-seed pool of a seed.
pub fn seed_pool(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = stream(seed, 3);
    (0..n).map(|_| splitmix64(&mut rng)).collect()
}

/// The tiered population of a seed: `(scramble seed, learning)` per
/// session, exactly one in eight learning, at shuffled positions.
pub fn tiered_population(seed: u64, n: usize) -> Vec<(u64, bool)> {
    let mut rng = stream(seed, 4);
    let mut learning: Vec<bool> = (0..n).map(|i| i < n / 8).collect();
    shuffle(&mut rng, &mut learning);
    learning
        .into_iter()
        .map(|l| (splitmix64(&mut rng), l))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: [u64; 3] = [500, 300, 200];

    #[test]
    fn same_seed_same_arrivals_and_mix() {
        let pool = seed_pool(7, 16);
        assert_eq!(pool, seed_pool(7, 16));
        let a = rung_arrivals(7, 1, 30.0, 8.0, &W, &pool);
        assert_eq!(a, rung_arrivals(7, 1, 30.0, 8.0, &W, &pool));
        assert_ne!(a, rung_arrivals(8, 1, 30.0, 8.0, &W, &pool));
        assert_ne!(a, rung_arrivals(7, 2, 30.0, 8.0, &W, &pool));
    }

    #[test]
    fn arrivals_have_exact_count_shares_and_order() {
        let pool = seed_pool(3, 16);
        let a = rung_arrivals(3, 0, 30.0, 8.0, &W, &pool);
        assert_eq!(a.len(), 240);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a
            .iter()
            .all(|x| (0.0..8.0).contains(&x.at) && pool.contains(&x.seed)));
        let count = |m| a.iter().filter(|x| x.mix == m).count();
        assert_eq!((count(0), count(1), count(2)), (120, 72, 48));
    }

    #[test]
    fn same_seed_same_task_instances() {
        for seed in [1u64, 2, 99] {
            assert_eq!(learn_strips(seed), learn_strips(seed));
            assert!(learn_puzzles(seed).take(8).eq(learn_puzzles(seed).take(8)));
            assert_eq!(tiered_population(seed, 200), tiered_population(seed, 200));
            assert_eq!(
                tiered_population(seed, 200).iter().filter(|p| p.1).count(),
                25
            );
        }
        assert!(!learn_puzzles(1).take(8).eq(learn_puzzles(2).take(8)));
        let same_worlds = (0..20u64)
            .filter(|&s| learn_strips(s) == learn_strips(s + 1))
            .count();
        assert!(same_worlds < 5, "strips worlds vary with the seed");
    }

    #[test]
    fn strips_worlds_are_well_formed() {
        for seed in 0..50u64 {
            let Instance::Strips {
                rooms,
                closed_doors,
                start,
                target,
            } = learn_strips(seed)
            else {
                unreachable!()
            };
            assert!((10..=11).contains(&rooms));
            assert_eq!((target + rooms - start) % rooms, rooms / 2);
            assert!(start < rooms && target < rooms && start != target);
            assert_eq!(closed_doors.len(), 2);
            assert!(closed_doors[0] < closed_doors[1] && closed_doors[1] < rooms);
        }
    }
}
