//! The stateless Gibbs conditional kernel (paper Eqs. 5–9).
//!
//! Every conditional the sampler draws from — the edge selector `μ_s`, the
//! edge assignments `x_s`/`y_s`, the mention selector `ν_k`, and the mention
//! assignment `z_k` — is computed here, **once**, as pure functions over:
//!
//! * a [`SamplerView`]: the read-only model inputs (gazetteer, candidacy,
//!   random models, config, current power law), and
//! * a [`CountView`]: the collapsed counts `ϕ`/`φ` *with the relationship
//!   being resampled already excluded*.
//!
//! Both sweep drivers are thin shells over this module. The sequential
//! driver ([`crate::sampler`]) excludes the current relationship by
//! decrementing the live [`SamplerState`] before calling in; the chunked
//! parallel driver ([`crate::parallel`]) reads the counts frozen for the
//! duration of the scoped fork-join (nobody writes until every chunk has
//! been joined) and excludes arithmetically via [`EdgeExcluded`] /
//! [`MentionExcluded`]. Because the weight math lives only here, the two
//! drivers cannot drift numerically — the
//! `kernel_weights_identical_across_drivers` test pins this down.
//!
//! The kernel never sees the count *layout*: [`SamplerState`] answers
//! [`CountView`] lookups from its columnar CSR arenas
//! ([`crate::count_store`]), the fold-in engine from frozen snapshot
//! slabs — swapping a storage backend cannot change a single weight.
//!
//! The `*_from` forms take the evidence factors — the distance kernel, the
//! partner's profile term, the venue term — as inputs instead of
//! computing them, and do the same operations on them as the plain forms,
//! so both give the same bits (pinned by
//! `table_driven_weights_are_identical_to_the_plain_kernel`). A fold-in
//! chain ([`crate::infer`]), whose partners and `φ` never move, evaluates
//! each factor once per request into a [`FactorTable`] and then calls the
//! `*_from` forms in every sweep; the training drivers, whose counts move
//! under them, call the plain forms.

use crate::candidacy::Candidacy;
use crate::config::MlpConfig;
use crate::random_models::RandomModels;
use crate::state::SamplerState;
use mlp_gazetteer::{CityId, Gazetteer, VenueId};
use mlp_geo::PowerLaw;
use mlp_social::UserId;

/// Per-user candidate lists and priors as the kernel consumes them.
///
/// [`Candidacy`] is the training-time implementation; the fold-in engine
/// ([`crate::infer`]) implements it over a frozen
/// [`crate::snapshot::PosteriorSnapshot`] plus one transient unseen user,
/// which is how warm-start serving reuses the exact same conditionals.
pub trait ProfileView {
    /// Candidate cities of user `u`, sorted ascending.
    fn candidates(&self, u: UserId) -> &[CityId];
    /// Priors `γ_{u,·}` aligned with [`Self::candidates`].
    fn gammas(&self, u: UserId) -> &[f64];
    /// `Σ_l γ_{u,l}`.
    fn gamma_total(&self, u: UserId) -> f64;
}

impl ProfileView for Candidacy {
    #[inline]
    fn candidates(&self, u: UserId) -> &[CityId] {
        Candidacy::candidates(self, u)
    }

    #[inline]
    fn gammas(&self, u: UserId) -> &[f64] {
        Candidacy::gammas(self, u)
    }

    #[inline]
    fn gamma_total(&self, u: UserId) -> f64 {
        Candidacy::gamma_total(self, u)
    }
}

/// Read-only bundle of everything static a conditional needs. Cheap to
/// construct (five pointer-sized copies); build one per resampling call.
///
/// Generic over the candidacy source `P` so the same kernel serves both the
/// training drivers (`P = Candidacy`, the default) and warm-start fold-in
/// (`P = FoldInProfiles`).
pub struct SamplerView<'a, P: ?Sized = Candidacy> {
    /// City/venue geography.
    pub gaz: &'a Gazetteer,
    /// Candidate lists and supervised Dirichlet priors `γ_i`.
    pub candidacy: &'a P,
    /// The empirical noise models `F_R` and `T_R`.
    pub random: &'a RandomModels,
    /// Hyper-parameters (`ρ_f`, `ρ_t`, `δ`, …).
    pub config: &'a MlpConfig,
    /// Current power law `β·d^α` (mutated between sweeps by Gibbs-EM).
    pub power_law: PowerLaw,
}

// Manual impls: `#[derive]` would wrongly require `P: Clone`/`P: Copy`
// even though only `&'a P` is stored.
impl<P: ?Sized> Clone for SamplerView<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P: ?Sized> Copy for SamplerView<'_, P> {}

/// Collapsed-count accessors the kernel evaluates against.
///
/// Implementations must already exclude the relationship being resampled
/// (the "exclude-current" convention of collapsed Gibbs).
pub trait CountView {
    /// `ϕ_{u,c}` — user `u`'s count at candidate index `c`.
    fn user_count(&self, u: UserId, c: usize) -> f64;
    /// `Σ_c ϕ_{u,c}`.
    fn user_total(&self, u: UserId) -> f64;
    /// `φ_{l,v}` — venue `v`'s count at city `l`.
    fn venue_count(&self, l: CityId, v: VenueId) -> f64;
    /// `Σ_v φ_{l,v}`.
    fn city_total(&self, l: CityId) -> f64;
}

/// The live state is its own count view: the sequential driver removes the
/// current relationship's contribution before evaluating conditionals.
impl CountView for SamplerState {
    #[inline]
    fn user_count(&self, u: UserId, c: usize) -> f64 {
        SamplerState::user_count(self, u, c) as f64
    }

    #[inline]
    fn user_total(&self, u: UserId) -> f64 {
        SamplerState::user_total(self, u) as f64
    }

    #[inline]
    fn venue_count(&self, l: CityId, v: VenueId) -> f64 {
        SamplerState::venue_count(self, l, v) as f64
    }

    #[inline]
    fn city_total(&self, l: CityId) -> f64 {
        SamplerState::city_total(self, l) as f64
    }
}

/// A count view shared between chunk workers is a plain reference.
impl<C: CountView + ?Sized> CountView for &C {
    #[inline]
    fn user_count(&self, u: UserId, c: usize) -> f64 {
        (**self).user_count(u, c)
    }

    #[inline]
    fn user_total(&self, u: UserId) -> f64 {
        (**self).user_total(u)
    }

    #[inline]
    fn venue_count(&self, l: CityId, v: VenueId) -> f64 {
        (**self).venue_count(l, v)
    }

    #[inline]
    fn city_total(&self, l: CityId) -> f64 {
        (**self).city_total(l)
    }
}

/// View over frozen base counts for one *edge*, excluding that edge's
/// current contribution (if it was counted) arithmetically.
#[derive(Clone, Copy)]
pub struct EdgeExcluded<C: CountView> {
    base: C,
    /// Whether the edge's assignments are in the counts (`!μ_s` or the
    /// `count_noisy_assignments` ablation).
    counted: bool,
    i: UserId,
    xi: usize,
    j: UserId,
    yj: usize,
}

impl<C: CountView> EdgeExcluded<C> {
    /// View excluding edge `⟨i,j⟩` currently assigned `(x_s=xi, y_s=yj)`.
    pub fn new(base: C, counted: bool, i: UserId, xi: usize, j: UserId, yj: usize) -> Self {
        Self { base, counted, i, xi, j, yj }
    }
}

impl<C: CountView> CountView for EdgeExcluded<C> {
    #[inline]
    fn user_count(&self, u: UserId, c: usize) -> f64 {
        let own = (self.counted && u == self.i && c == self.xi) as u32
            + (self.counted && u == self.j && c == self.yj) as u32;
        self.base.user_count(u, c) - own as f64
    }

    #[inline]
    fn user_total(&self, u: UserId) -> f64 {
        let own = (self.counted && u == self.i) as u32 + (self.counted && u == self.j) as u32;
        self.base.user_total(u) - own as f64
    }

    #[inline]
    fn venue_count(&self, l: CityId, v: VenueId) -> f64 {
        // Edges never contribute venue tokens.
        self.base.venue_count(l, v)
    }

    #[inline]
    fn city_total(&self, l: CityId) -> f64 {
        self.base.city_total(l)
    }
}

/// View over frozen base counts for one *mention*, excluding its profile
/// count (if counted) and its venue token (if location-based).
#[derive(Clone, Copy)]
pub struct MentionExcluded<C: CountView> {
    base: C,
    /// Whether the mention's assignment is in the profile counts.
    counted: bool,
    /// Whether the mention's venue token is in the venue counts (`!ν_k`).
    venue_counted: bool,
    i: UserId,
    zi: usize,
    old_city: CityId,
    v: VenueId,
}

impl<C: CountView> MentionExcluded<C> {
    /// View excluding mention `k` of user `i` at venue `v`, currently
    /// assigned `z_k = zi` resolving to `old_city`.
    pub fn new(
        base: C,
        counted: bool,
        venue_counted: bool,
        i: UserId,
        zi: usize,
        old_city: CityId,
        v: VenueId,
    ) -> Self {
        Self { base, counted, venue_counted, i, zi, old_city, v }
    }
}

impl<C: CountView> CountView for MentionExcluded<C> {
    #[inline]
    fn user_count(&self, u: UserId, c: usize) -> f64 {
        let own = (self.counted && u == self.i && c == self.zi) as u32;
        self.base.user_count(u, c) - own as f64
    }

    #[inline]
    fn user_total(&self, u: UserId) -> f64 {
        self.base.user_total(u) - (self.counted && u == self.i) as u32 as f64
    }

    #[inline]
    fn venue_count(&self, l: CityId, v: VenueId) -> f64 {
        let own = (self.venue_counted && l == self.old_city && v == self.v) as u32;
        self.base.venue_count(l, v) - own as f64
    }

    #[inline]
    fn city_total(&self, l: CityId) -> f64 {
        self.base.city_total(l) - (self.venue_counted && l == self.old_city) as u32 as f64
    }
}

// ---------------------------------------------------------------------------
// The conditionals.
// ---------------------------------------------------------------------------

/// Profile pseudo-count term `(ϕ_{u,c} + γ_{u,c}) / (ϕ_u + Σγ_u)`.
#[inline]
pub fn profile_term<P: ProfileView + ?Sized>(
    view: &SamplerView<'_, P>,
    counts: &impl CountView,
    u: UserId,
    c: usize,
) -> f64 {
    let num = counts.user_count(u, c) + view.candidacy.gammas(u)[c];
    let den = counts.user_total(u) + view.candidacy.gamma_total(u);
    num / den
}

/// Venue term `(φ_{l,v} + δ) / (Σφ_l + δ·|V|)`.
#[inline]
pub fn venue_term<P: ProfileView + ?Sized>(
    view: &SamplerView<'_, P>,
    counts: &impl CountView,
    l: CityId,
    v: VenueId,
) -> f64 {
    let num = counts.venue_count(l, v) + view.config.delta;
    let den = counts.city_total(l) + view.config.delta * view.gaz.num_venues() as f64;
    num / den
}

/// One edge endpoint as the kernel sees it: the user, their current
/// assignment (as a candidate index), and the city it resolves to.
#[derive(Clone, Copy)]
pub struct Endpoint {
    /// The user on this side of the edge.
    pub user: UserId,
    /// Current assignment, an index into the user's candidate list.
    pub pos: usize,
    /// The city that index resolves to.
    pub city: CityId,
}

/// Eq. 5 — unnormalised selector weights `(w_based, w_noisy)` for `μ_s`.
///
/// We keep both endpoints' profile factors (the full conditional of the
/// generative story; the paper's printed equation shows only the
/// follower's, but with a data-calibrated `(α, β)` the two-factor form
/// separates noisy from location-based edges more sharply).
#[inline]
pub fn edge_selector_weights<P: ProfileView + ?Sized>(
    view: &SamplerView<'_, P>,
    counts: &impl CountView,
    follower: Endpoint,
    friend: Endpoint,
) -> (f64, f64) {
    let d = view.gaz.distance(follower.city, friend.city);
    let w_based = (1.0 - view.config.rho_f)
        * profile_term(view, counts, follower.user, follower.pos)
        * profile_term(view, counts, friend.user, friend.pos)
        * view.power_law.eval(d);
    let w_noisy = view.config.rho_f * view.random.follow_prob();
    (w_based, w_noisy)
}

/// [`edge_selector_weights`] with the friend's side given as factors: the
/// friend's [`profile_term`] and the distance kernel
/// `PowerLaw::kernel(d(x_s, y_s))` between the two assignments.
#[inline]
pub fn edge_selector_weights_from<P: ProfileView + ?Sized>(
    view: &SamplerView<'_, P>,
    counts: &impl CountView,
    u: UserId,
    pos: usize,
    partner_term: f64,
    kernel: f64,
) -> (f64, f64) {
    let w_based = (1.0 - view.config.rho_f)
        * profile_term(view, counts, u, pos)
        * partner_term
        * view.power_law.eval_kernel(kernel);
    let w_noisy = view.config.rho_f * view.random.follow_prob();
    (w_based, w_noisy)
}

/// Eqs. 7/8 — fills `buf` with unnormalised weights over `u`'s candidates
/// for an edge-side assignment. `partner` is the *other* endpoint's current
/// city when the edge is location-based, or `None` when noisy (no distance
/// factor).
#[inline]
pub fn edge_position_weights<P: ProfileView + ?Sized>(
    view: &SamplerView<'_, P>,
    counts: &impl CountView,
    u: UserId,
    partner: Option<CityId>,
    buf: &mut Vec<f64>,
) {
    let cands = view.candidacy.candidates(u);
    let gammas = view.candidacy.gammas(u);
    buf.clear();
    match partner {
        Some(p) => {
            for (c, &city) in cands.iter().enumerate() {
                let w = (counts.user_count(u, c) + gammas[c])
                    * view.power_law.kernel(view.gaz.distance(city, p));
                buf.push(w);
            }
        }
        None => {
            for (c, _) in cands.iter().enumerate() {
                buf.push(counts.user_count(u, c) + gammas[c]);
            }
        }
    }
}

/// Eq. 6 — unnormalised selector weights `(w_based, w_noisy)` for `ν_k`.
#[inline]
pub fn mention_selector_weights<P: ProfileView + ?Sized>(
    view: &SamplerView<'_, P>,
    counts: &impl CountView,
    i: UserId,
    zi: usize,
    z_city: CityId,
    v: VenueId,
) -> (f64, f64) {
    let w_based = (1.0 - view.config.rho_t)
        * profile_term(view, counts, i, zi)
        * venue_term(view, counts, z_city, v);
    let w_noisy = view.config.rho_t * view.random.venue_prob(v);
    (w_based, w_noisy)
}

/// [`mention_selector_weights`] with the [`venue_term`] of `v` at the
/// current assignment's city given.
#[inline]
pub fn mention_selector_weights_from<P: ProfileView + ?Sized>(
    view: &SamplerView<'_, P>,
    counts: &impl CountView,
    i: UserId,
    zi: usize,
    venue_term: f64,
    v: VenueId,
) -> (f64, f64) {
    let w_based = (1.0 - view.config.rho_t) * profile_term(view, counts, i, zi) * venue_term;
    let w_noisy = view.config.rho_t * view.random.venue_prob(v);
    (w_based, w_noisy)
}

/// Eq. 9 — fills `buf` with unnormalised weights over `u`'s candidates for
/// the mention assignment. `venue` is the mentioned venue when the mention
/// is location-based, or `None` when noisy (no venue factor).
#[inline]
pub fn mention_position_weights<P: ProfileView + ?Sized>(
    view: &SamplerView<'_, P>,
    counts: &impl CountView,
    u: UserId,
    venue: Option<VenueId>,
    buf: &mut Vec<f64>,
) {
    let cands = view.candidacy.candidates(u);
    let gammas = view.candidacy.gammas(u);
    buf.clear();
    match venue {
        Some(v) => {
            for (c, &city) in cands.iter().enumerate() {
                let w = (counts.user_count(u, c) + gammas[c]) * venue_term(view, counts, city, v);
                buf.push(w);
            }
        }
        None => {
            for (c, _) in cands.iter().enumerate() {
                buf.push(counts.user_count(u, c) + gammas[c]);
            }
        }
    }
}

/// Eqs. 7–9 with each candidate's evidence factor given: fills `buf` with
/// `(ϕ_{u,c} + γ_{u,c}) · factors[c]`, or with `ϕ_{u,c} + γ_{u,c}` alone for
/// a noisy relationship (`None`). `user_counts` is `u`'s own count row
/// `ϕ_{u,·}`, with the relationship being resampled already excluded.
/// Given a [`FactorTable`] row of distance kernels it is
/// [`edge_position_weights`]; given a row of venue terms it is
/// [`mention_position_weights`].
#[inline]
pub fn position_weights_from<P: ProfileView + ?Sized>(
    view: &SamplerView<'_, P>,
    u: UserId,
    user_counts: &[f64],
    factors: Option<&[f64]>,
    buf: &mut Vec<f64>,
) {
    let gammas = view.candidacy.gammas(u);
    debug_assert_eq!(user_counts.len(), gammas.len());
    debug_assert!(factors.is_none_or(|f| f.len() == gammas.len()));
    buf.clear();
    let priors = user_counts.iter().zip(gammas).map(|(&n, &g)| n + g);
    match factors {
        Some(factors) => buf.extend(priors.zip(factors).map(|(p, &f)| p * f)),
        None => buf.extend(priors),
    }
}

/// Evidence factors over one user's candidates, one row per partner city
/// or venue: the inputs of the `*_from` conditionals.
///
/// A cell is only valid while what it reads stays put, which in training
/// it does not (partners and `φ` move every step). In a fold-in chain
/// partners sit at their frozen homes and `φ` is frozen, so every cell
/// holds for the whole chain: building the table costs one factor
/// evaluation per (row, candidate) cell, and the sweeps only read it.
pub struct FactorTable {
    width: usize,
    cells: Vec<f64>,
}

impl FactorTable {
    /// Row `i` holds `PowerLaw::kernel(d(c, partners[i]))` for each of
    /// `u`'s candidates `c`.
    pub fn distance_kernels<P: ProfileView + ?Sized>(
        view: &SamplerView<'_, P>,
        u: UserId,
        partners: &[CityId],
    ) -> Self {
        Self::build(view.candidacy.candidates(u), partners, |city, &p| {
            view.power_law.kernel(view.gaz.distance(city, p))
        })
    }

    /// Row `i` holds the [`venue_term`] of `venues[i]` at each of `u`'s
    /// candidates.
    pub fn venue_terms<P: ProfileView + ?Sized>(
        view: &SamplerView<'_, P>,
        counts: &impl CountView,
        u: UserId,
        venues: &[VenueId],
    ) -> Self {
        Self::build(view.candidacy.candidates(u), venues, |city, &v| {
            venue_term(view, counts, city, v)
        })
    }

    fn build<K>(cands: &[CityId], rows: &[K], factor: impl Fn(CityId, &K) -> f64) -> Self {
        let cells = rows.iter().flat_map(|k| cands.iter().map(|&city| factor(city, k))).collect();
        Self { width: cands.len(), cells }
    }

    /// Row `i`, one factor per candidate.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.cells[i * self.width..(i + 1) * self.width]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_models::RandomModels;
    use crate::sampler::GibbsSampler;
    use mlp_social::{Adjacency, Generator, GeneratorConfig};

    /// The load-bearing invariant of the refactor: for the same exclusion
    /// context, the kernel produces bit-identical weights whether counts
    /// come from the live state (sequential driver) or from a frozen
    /// snapshot with arithmetic exclusion (chunked driver).
    #[test]
    fn kernel_weights_identical_across_drivers() {
        let gaz = Gazetteer::us_cities();
        let data = Generator::new(
            &gaz,
            GeneratorConfig { num_users: 120, seed: 31, ..Default::default() },
        )
        .generate();
        let config = MlpConfig::default();
        let adj = Adjacency::build(&data.dataset);
        let cand = Candidacy::build(&gaz, &data.dataset, &adj, &config);
        let random = RandomModels::learn(&data.dataset, gaz.num_venues());
        let mut sampler = GibbsSampler::new(&gaz, &data.dataset, &cand, &random, &config);
        sampler.sweep();
        let view = SamplerView {
            gaz: &gaz,
            candidacy: &cand,
            random: &random,
            config: &config,
            power_law: sampler.power_law,
        };

        let mut live_buf = Vec::new();
        let mut snap_buf = Vec::new();

        // Edges: exclude via live decrement vs. arithmetic wrapper.
        for s in 0..data.dataset.num_edges().min(200) {
            let e = data.dataset.edges[s];
            let (i, j) = (e.follower, e.friend);
            let (mu, xi, yj) =
                (sampler.state.mu[s], sampler.state.x[s] as usize, sampler.state.y[s] as usize);
            let counted = !mu || config.count_noisy_assignments;
            let x_city = cand.candidates(i)[xi];
            let y_city = cand.candidates(j)[yj];

            if counted {
                sampler.state.remove_user(i, xi);
                sampler.state.remove_user(j, yj);
            }
            let fe = Endpoint { user: i, pos: xi, city: x_city };
            let fr = Endpoint { user: j, pos: yj, city: y_city };
            let live_sel = edge_selector_weights(&view, &sampler.state, fe, fr);
            edge_position_weights(&view, &sampler.state, i, Some(y_city), &mut live_buf);
            if counted {
                sampler.state.add_user(i, xi);
                sampler.state.add_user(j, yj);
            }

            let excluded = EdgeExcluded::new(&sampler.state, counted, i, xi, j, yj);
            let snap_sel = edge_selector_weights(&view, &excluded, fe, fr);
            edge_position_weights(&view, &excluded, i, Some(y_city), &mut snap_buf);

            assert_eq!(live_sel, snap_sel, "edge {s} selector weights differ");
            assert_eq!(live_buf, snap_buf, "edge {s} position weights differ");
        }

        // Mentions: same, with the venue-count exclusion in play.
        for k in 0..data.dataset.num_mentions().min(200) {
            let m = data.dataset.mentions[k];
            let (i, v) = (m.user, m.venue);
            let (nu, zi) = (sampler.state.nu[k], sampler.state.z[k] as usize);
            let counted = !nu || config.count_noisy_assignments;
            let old_city = cand.candidates(i)[zi];

            if counted {
                sampler.state.remove_user(i, zi);
            }
            if !nu {
                sampler.state.remove_venue(old_city, v);
            }
            let live_sel = mention_selector_weights(&view, &sampler.state, i, zi, old_city, v);
            mention_position_weights(&view, &sampler.state, i, Some(v), &mut live_buf);
            if counted {
                sampler.state.add_user(i, zi);
            }
            if !nu {
                sampler.state.add_venue(old_city, v);
            }

            let excluded = MentionExcluded::new(&sampler.state, counted, !nu, i, zi, old_city, v);
            let snap_sel = mention_selector_weights(&view, &excluded, i, zi, old_city, v);
            mention_position_weights(&view, &excluded, i, Some(v), &mut snap_buf);

            assert_eq!(live_sel, snap_sel, "mention {k} selector weights differ");
            assert_eq!(live_buf, snap_buf, "mention {k} position weights differ");
        }
    }

    /// A trained posterior frozen into a snapshot, read the way a fold-in
    /// chain reads its partners: mean counts and frozen `φ`.
    struct Frozen<'a>(&'a crate::snapshot::PosteriorSnapshot);

    impl ProfileView for Frozen<'_> {
        fn candidates(&self, u: UserId) -> &[CityId] {
            self.0.users.candidates_of(u)
        }

        fn gammas(&self, u: UserId) -> &[f64] {
            self.0.users.gammas_of(u)
        }

        fn gamma_total(&self, u: UserId) -> f64 {
            self.0.users.gamma_total(u)
        }
    }

    impl CountView for Frozen<'_> {
        fn user_count(&self, u: UserId, c: usize) -> f64 {
            self.0.users.mean_counts_of(u)[c]
        }

        fn user_total(&self, u: UserId) -> f64 {
            self.0.users.mean_total(u)
        }

        fn venue_count(&self, l: CityId, v: VenueId) -> f64 {
            self.0.venue_count(l, v)
        }

        fn city_total(&self, l: CityId) -> f64 {
            self.0.venues.city_total(l)
        }
    }

    /// The table-driven `*_from` forms give the same bits as the plain
    /// conditionals, in every branch, on a frozen snapshot view.
    #[test]
    fn table_driven_weights_are_identical_to_the_plain_kernel() {
        let gaz = Gazetteer::us_cities();
        let data = Generator::new(
            &gaz,
            GeneratorConfig { num_users: 150, seed: 41, ..Default::default() },
        )
        .generate();
        let config = MlpConfig::default();
        let adj = Adjacency::build(&data.dataset);
        let cand = Candidacy::build(&gaz, &data.dataset, &adj, &config);
        let random = RandomModels::learn(&data.dataset, gaz.num_venues());
        let mut sampler = GibbsSampler::new(&gaz, &data.dataset, &cand, &random, &config);
        for _ in 0..3 {
            sampler.sweep();
            sampler.state.accumulate();
        }
        let snap = crate::snapshot::PosteriorSnapshot::freeze(&sampler);
        let frozen = Frozen(&snap);
        let random = RandomModels::from_frozen(snap.follow_prob, snap.venue_probs.clone());
        let view = SamplerView {
            gaz: &gaz,
            candidacy: &frozen,
            random: &random,
            config: &config,
            power_law: snap.power_law,
        };
        let (mut plain, mut tabled) = (Vec::new(), Vec::new());

        for e in &data.dataset.edges {
            let (i, j) = (e.follower, e.friend);
            let home = snap.users.home(j);
            let friend = Endpoint {
                user: j,
                pos: frozen.candidates(j).binary_search(&home).unwrap(),
                city: home,
            };
            let kernels = FactorTable::distance_kernels(&view, i, &[home]);
            let row = kernels.row(0);
            let friend_term = profile_term(&view, &frozen, friend.user, friend.pos);
            for (c, &city) in frozen.candidates(i).iter().enumerate() {
                let me = Endpoint { user: i, pos: c, city };
                assert_eq!(
                    edge_selector_weights(&view, &frozen, me, friend),
                    edge_selector_weights_from(&view, &frozen, i, c, friend_term, row[c]),
                    "edge {i}->{j} selector at candidate {c}"
                );
            }
            for partner in [Some(home), None] {
                edge_position_weights(&view, &frozen, i, partner, &mut plain);
                position_weights_from(
                    &view,
                    i,
                    frozen.0.users.mean_counts_of(i),
                    partner.map(|_| row),
                    &mut tabled,
                );
                assert_eq!(plain, tabled, "edge {i}->{j} position weights ({partner:?})");
            }
        }

        for m in &data.dataset.mentions {
            let (i, v) = (m.user, m.venue);
            let terms = FactorTable::venue_terms(&view, &frozen, i, &[v]);
            let row = terms.row(0);
            for (c, &city) in frozen.candidates(i).iter().enumerate() {
                assert_eq!(
                    mention_selector_weights(&view, &frozen, i, c, city, v),
                    mention_selector_weights_from(&view, &frozen, i, c, row[c], v),
                    "mention of {} by {i}: selector at candidate {c}",
                    v.0
                );
            }
            for venue in [Some(v), None] {
                mention_position_weights(&view, &frozen, i, venue, &mut plain);
                position_weights_from(
                    &view,
                    i,
                    frozen.0.users.mean_counts_of(i),
                    venue.map(|_| row),
                    &mut tabled,
                );
                assert_eq!(plain, tabled, "mention of {} by {i}: position weights", v.0);
            }
        }
    }

    #[test]
    fn noisy_branches_drop_the_evidence_factor() {
        let gaz = Gazetteer::us_cities();
        let data =
            Generator::new(&gaz, GeneratorConfig { num_users: 60, seed: 37, ..Default::default() })
                .generate();
        let config = MlpConfig::default();
        let adj = Adjacency::build(&data.dataset);
        let cand = Candidacy::build(&gaz, &data.dataset, &adj, &config);
        let random = RandomModels::learn(&data.dataset, gaz.num_venues());
        let sampler = GibbsSampler::new(&gaz, &data.dataset, &cand, &random, &config);
        let view = SamplerView {
            gaz: &gaz,
            candidacy: &cand,
            random: &random,
            config: &config,
            power_law: sampler.power_law,
        };
        let u = data.dataset.edges[0].follower;
        let mut with = Vec::new();
        let mut without = Vec::new();
        edge_position_weights(&view, &sampler.state, u, None, &mut without);
        let anchor = cand.candidates(data.dataset.edges[0].friend)[0];
        edge_position_weights(&view, &sampler.state, u, Some(anchor), &mut with);
        assert_eq!(with.len(), without.len());
        // The noisy branch must be a pure profile draw: every weight equals
        // count + gamma, no kernel factor.
        for (c, w) in without.iter().enumerate() {
            let expect = CountView::user_count(&sampler.state, u, c) + cand.gammas(u)[c];
            assert_eq!(*w, expect);
        }
        // And the based branch differs wherever the kernel is not 1.
        assert_ne!(with, without);
    }
}
