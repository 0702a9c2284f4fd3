//! The analysis-user population.
//!
//! ATLAS has thousands of analysers but submission activity is heavily
//! skewed: a small number of power users (and group accounts) submit most
//! user-analysis jobs. Each user also has a characteristic "style" — which
//! data types they read, how large their tasks are, and how many cores they
//! request — which is what couples the categorical columns to each other and
//! to the numerical ones in the real records.

use rand::distributions::{Distribution, WeightedIndex};
use rand::Rng;
use rand_distr::LogNormal;
use serde::{Deserialize, Serialize};

/// Behavioural profile of a single analysis user.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserProfile {
    /// Anonymised user index.
    pub user_id: u32,
    /// Relative submission rate (heavy-tailed across the population).
    pub activity_weight: f64,
    /// Index into the DAOD datatype vocabulary this user prefers.
    pub preferred_datatype_bias: usize,
    /// Median per-file CPU seconds of this user's payload.
    pub median_cpu_per_file_s: f64,
    /// Typical core count requested (1, 4 or 8).
    pub typical_cores: u32,
    /// Probability the user cancels a task before it finishes.
    pub cancel_rate: f64,
}

/// The user population with a weighted sampler.
#[derive(Debug, Clone)]
pub struct UserPopulation {
    users: Vec<UserProfile>,
    /// Draws a user index by activity weight; built once, not per draw.
    sampler: WeightedIndex,
}

impl UserPopulation {
    /// Build a population of `n_users` with Pareto-like activity weights.
    pub fn generate<R: Rng>(n_users: usize, rng: &mut R) -> Self {
        assert!(n_users > 0, "population must not be empty");
        let cpu_dist = LogNormal::new(60f64.ln(), 0.9).expect("valid lognormal");
        let users: Vec<UserProfile> = (0..n_users)
            .map(|i| {
                // Zipf-like activity: user i has weight ~ 1 / (i+1)^0.9.
                let activity_weight = 1.0 / ((i + 1) as f64).powf(0.9);
                let typical_cores = *[1u32, 1, 4, 8]
                    .get(rng.gen_range(0..4))
                    .expect("index in range");
                UserProfile {
                    user_id: i as u32,
                    activity_weight,
                    preferred_datatype_bias: rng.gen_range(0..10),
                    median_cpu_per_file_s: cpu_dist.sample(rng).clamp(5.0, 3600.0),
                    typical_cores,
                    cancel_rate: rng.gen_range(0.005..0.05),
                }
            })
            .collect();
        let sampler =
            WeightedIndex::new(users.iter().map(|u| u.activity_weight)).expect("positive weights");
        Self { users, sampler }
    }

    /// Number of users.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// All user profiles.
    pub fn users(&self) -> &[UserProfile] {
        &self.users
    }

    /// Sample a user according to activity weights.
    pub fn sample<'a, R: Rng>(&'a self, rng: &mut R) -> &'a UserProfile {
        &self.users[self.sampler.sample(rng)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn population_has_requested_size() {
        let mut rng = StdRng::seed_from_u64(1);
        let pop = UserPopulation::generate(250, &mut rng);
        assert_eq!(pop.len(), 250);
        assert!(!pop.is_empty());
    }

    #[test]
    fn activity_is_heavy_tailed() {
        let mut rng = StdRng::seed_from_u64(2);
        let pop = UserPopulation::generate(100, &mut rng);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[pop.sample(&mut rng).user_id as usize] += 1;
        }
        let top = counts[0];
        let bottom = counts[99];
        assert!(top > 5 * bottom.max(1), "top={top} bottom={bottom}");
    }

    #[test]
    fn profiles_have_sane_ranges() {
        let mut rng = StdRng::seed_from_u64(3);
        let pop = UserPopulation::generate(50, &mut rng);
        for u in pop.users() {
            assert!(u.median_cpu_per_file_s >= 5.0 && u.median_cpu_per_file_s <= 3600.0);
            assert!(matches!(u.typical_cores, 1 | 4 | 8));
            assert!(u.cancel_rate > 0.0 && u.cancel_rate < 0.1);
        }
    }

    #[test]
    #[should_panic(expected = "population must not be empty")]
    fn empty_population_panics() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = UserPopulation::generate(0, &mut rng);
    }
}
