//! `mlp` — Multiple Location Profiling for users and relationships.
//!
//! A Rust implementation of Li, Wang & Chang, *Multiple Location Profiling
//! for Users and Relationships from Social Network and Content* (VLDB
//! 2012), together with everything needed to reproduce the paper end to
//! end: a gazetteer, a synthetic Twitter generator with exact ground
//! truth, the baselines the paper compares against, and the evaluation
//! harness for all three tasks.
//!
//! # Quick start
//!
//! ```
//! use mlp::prelude::*;
//!
//! // A gazetteer of real US cities and a small synthetic Twitter.
//! let gaz = Gazetteer::us_cities();
//! let data = Generator::new(
//!     &gaz,
//!     GeneratorConfig { num_users: 200, seed: 1, ..Default::default() },
//! )
//! .generate();
//!
//! // Profile every user's locations and explain every relationship.
//! let config = MlpConfig { iterations: 8, burn_in: 4, ..Default::default() };
//! let result = Mlp::new(&gaz, &data.dataset, config).unwrap().run();
//!
//! let user = UserId(0);
//! let home = result.home(user);
//! println!("user 0 lives near {}", gaz.city(home).full_name());
//! assert_eq!(result.profiles.len(), 200);
//! ```
//!
//! # Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`geo`] | coordinates, distance kernels, spatial grid, power laws |
//! | [`sampling`] | deterministic RNG, alias tables, Dirichlet/Gamma draws |
//! | [`gazetteer`] | US city table, venue vocabulary, venue extraction |
//! | [`social`] | dataset model, synthetic generator, folds, codecs |
//! | [`core`] | the MLP model: candidacy, Gibbs sampler, Gibbs-EM |
//! | [`baselines`] | BaseU (Backstrom), BaseC (Cheng), voting, home explainer |
//! | [`eval`] | ACC@m, DP/DR@K, the three paper tasks, text tables |

pub use mlp_baselines as baselines;
pub use mlp_core as core;
pub use mlp_eval as eval;
pub use mlp_gazetteer as gazetteer;
pub use mlp_geo as geo;
pub use mlp_sampling as sampling;
pub use mlp_social as social;

/// The most common imports, one `use` away.
pub mod prelude {
    pub use mlp_baselines::{
        BaseC, BaseCConfig, BaseU, BaseUConfig, HomeExplainer, HomePredictor, VotingClassifier,
    };
    pub use mlp_core::{
        ConfigError, EngineBuilder, EngineError, FoldInConfig, FoldInEngine, Mlp, MlpConfig,
        MlpResult, NewUserObservations, OnlineUpdater, PosteriorSnapshot, ProfileRequest,
        ProfileResponse, RankedCities, RecoveryReport, RefreshReport, RetrainDecision,
        RetrainReport, ServingEngine, SnapshotDelta, SnapshotHandle, StalenessPolicy, Variant,
    };
    pub use mlp_eval::{
        drift_for_engine, run_scenario, ExperimentContext, HomeTask, Method, MultiLocationTask,
        RelationTask, ScenarioReport, ScenarioRunConfig, TickAction, TickMetrics,
    };
    pub use mlp_gazetteer::{CityId, Gazetteer, SynthConfig, VenueExtractor, VenueId};
    pub use mlp_geo::{GeoPoint, PowerLaw};
    pub use mlp_social::{
        Dataset, Folds, GeneratedData, Generator, GeneratorConfig, ScenarioEvent, ScenarioScript,
        ScenarioWorld, TickDelta, UserId, CANNED_SCENARIOS,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_supports_the_full_pipeline() {
        let gaz = Gazetteer::us_cities();
        let data =
            Generator::new(&gaz, GeneratorConfig { num_users: 60, seed: 5, ..Default::default() })
                .generate();
        let config = MlpConfig { iterations: 4, burn_in: 2, ..Default::default() };
        let result = Mlp::new(&gaz, &data.dataset, config).unwrap().run();
        assert_eq!(result.profiles.len(), 60);
        let home = result.home(UserId(3));
        assert!(home.index() < gaz.num_cities());
    }
}
