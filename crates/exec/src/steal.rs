//! Randomized steal-order selection, seeded through `simcore`'s [`DetRng`].
//!
//! Each worker forks its own RNG stream from the executor seed
//! (`fork("steal-{index}")`), so the sequence of victim permutations a
//! worker will try is a pure function of `(seed, worker index)` — fully
//! reproducible in tests, independent across workers, and never perturbed
//! by how many draws any *other* worker makes.
//!
//! [`DetRng`]: faasbatch_simcore::rng::DetRng

use faasbatch_simcore::rng::DetRng;

/// Forks the steal RNG stream for one worker from the executor seed.
pub fn steal_rng(seed: u64, worker: usize) -> DetRng {
    DetRng::new(seed).fork(&format!("steal-{worker}"))
}

/// Draws one round of victim order: a uniform permutation of all workers
/// except `worker` itself.
pub fn next_victim_round(rng: &mut DetRng, worker: usize, workers: usize) -> Vec<usize> {
    let mut victims: Vec<usize> = (0..workers).filter(|&w| w != worker).collect();
    rng.shuffle(&mut victims);
    victims
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full victim schedule a worker would follow over `rounds` steal
    /// attempts — exactly what the worker loop replays at runtime, so steal
    /// order is checked seeded-deterministic without racing real threads.
    fn victim_schedule(seed: u64, worker: usize, workers: usize, rounds: usize) -> Vec<Vec<usize>> {
        let mut rng = steal_rng(seed, worker);
        (0..rounds)
            .map(|_| next_victim_round(&mut rng, worker, workers))
            .collect()
    }

    #[test]
    fn schedule_is_deterministic() {
        let a = victim_schedule(42, 3, 8, 16);
        let b = victim_schedule(42, 3, 8, 16);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_or_workers_diverge() {
        assert_ne!(victim_schedule(1, 0, 8, 8), victim_schedule(2, 0, 8, 8));
        assert_ne!(victim_schedule(1, 0, 8, 8), victim_schedule(1, 1, 8, 8));
    }

    #[test]
    fn each_round_is_a_permutation_excluding_self() {
        for round in victim_schedule(7, 2, 6, 32) {
            let mut sorted = round.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 3, 4, 5]);
        }
    }

    #[test]
    fn rounds_are_not_all_identical() {
        let schedule = victim_schedule(7, 0, 8, 64);
        assert!(
            schedule.iter().any(|round| round != &schedule[0]),
            "64 rounds of 7 victims should not all draw the same permutation"
        );
    }

    #[test]
    fn single_worker_has_no_victims() {
        assert!(victim_schedule(7, 0, 1, 4).iter().all(Vec::is_empty));
    }
}
