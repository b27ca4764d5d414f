//! The physics-backed [`AirChannel`] implementation.

use crate::counters;
use crate::precompute::ScenarioCache;
use crate::rng::RngStream;
use crate::world::{coupling_entry, World};
use rfid_gen2::{AirChannel, InterferenceModel, InterferenceOutcome};
use rfid_geom::{Pose, Ray, Solid, Vec3};
use rfid_phys::{
    coupling_loss, path_loss, CouplingParams, Db, FadingProcess, LinkBudget, LinkReport,
    Obstruction, TagAntenna, TagCoupling,
};
use serde::{Deserialize, Serialize};
use std::cell::{Ref, RefCell};

/// Stochastic-channel parameters shared by a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelParams {
    /// Slow shadowing spread per (trial, tag) — *shared across antennas and
    /// readers*, the common-cause component (cart load, exact mounting,
    /// clutter) that correlates a tag's failures at both portal antennas.
    pub sigma_tag_db: f64,
    /// Additional shadowing spread per (trial, tag, antenna) link.
    pub sigma_link_db: f64,
    /// Rician K-factor of fast fading, dB.
    pub rician_k_db: f64,
    /// Fast-fading coherence time, seconds (about 0.16 s at 1 m/s walking
    /// or cart speed at 915 MHz).
    pub coherence_s: f64,
    /// Inter-tag mutual-coupling model.
    pub coupling: CouplingParams,
    /// Center-to-center distance at which parallel tags touch, m.
    pub tag_extent_m: f64,
    /// Field gain contributed by each nearby reflective scatterer, dB.
    pub scatterer_bonus_db: f64,
    /// Radius within which a scatterer contributes, m.
    pub scatterer_radius_m: f64,
    /// Cap on the total scatterer bonus, dB.
    pub scatterer_cap_db: f64,
    /// Reader-to-reader interference thresholds.
    pub interference: InterferenceModel,
    /// Cap on the effective loss of a single *conductive* obstruction, dB.
    ///
    /// A metal box in the line of sight is opaque to the direct ray, but a
    /// wavelength-scale obstacle in a real room is filled in by
    /// scattering, edge diffraction, and floor/wall reflections; currents
    /// induced on the conductor re-radiate. The cap is the shadowing loss
    /// actually observed behind such obstacles at UHF.
    pub conductor_obstruction_cap_db: f64,
    /// Cap on the effective loss of a single *absorbing* obstruction
    /// (tissue, liquids), dB. Absorbers soak up energy instead of
    /// re-radiating it, so their shadow is deeper than a conductor's.
    pub absorber_obstruction_cap_db: f64,
    /// Largest obstacle extent (bounding-sphere diameter, m) the fill-in
    /// caps apply to. Room-scale obstacles — walls, shelving — cast true
    /// shadows: nothing diffracts around a wall.
    pub obstruction_cap_max_extent_m: f64,
}

impl Default for ChannelParams {
    fn default() -> Self {
        Self {
            sigma_tag_db: 2.5,
            sigma_link_db: 2.0,
            rician_k_db: 7.0,
            coherence_s: 0.16,
            coupling: CouplingParams::default(),
            tag_extent_m: 0.0,
            scatterer_bonus_db: 2.0,
            scatterer_radius_m: 1.5,
            scatterer_cap_db: 4.0,
            interference: InterferenceModel::default(),
            conductor_obstruction_cap_db: 2.0,
            absorber_obstruction_cap_db: 11.5,
            obstruction_cap_max_extent_m: 3.0,
        }
    }
}

impl ChannelParams {
    /// The effective one-way loss of one obstruction: bulk penetration,
    /// capped by the scattering/diffraction fill-in of the environment.
    #[must_use]
    pub fn effective_obstruction_loss(&self, obstruction: &rfid_phys::Obstruction) -> Db {
        let bulk = obstruction.loss();
        if obstruction.extent_m > self.obstruction_cap_max_extent_m {
            return bulk;
        }
        let cap = match obstruction.material {
            rfid_phys::Material::Metal => self.conductor_obstruction_cap_db,
            rfid_phys::Material::Flesh | rfid_phys::Material::Liquid => {
                self.absorber_obstruction_cap_db
            }
            _ => return bulk,
        };
        Db::new(bulk.value().min(cap))
    }
}

/// One memoized channel evaluation: the full link report for a `(tag, t)`
/// pair, plus the interference verdict once it has been assessed at that
/// same instant.
#[derive(Debug, Clone, Copy)]
struct LinkMemo {
    t_bits: u64,
    report: LinkReport,
    interference: Option<InterferenceOutcome>,
}

/// Every tag-independent geometry product of one simulation instant:
/// tag poses, their mutual-coupling view, and the world-space object
/// solids. An inventory round interrogates many tags at the same `t`
/// (the opening Query checks the whole population at one instant), and
/// all of them share this snapshot. The buffers are reused across
/// refreshes, so steady-state evaluation allocates nothing.
#[derive(Debug, Default)]
struct InstantMemo {
    t_bits: Option<u64>,
    tag_poses: Vec<Pose>,
    coupling: Vec<TagCoupling>,
    solids: Vec<Solid>,
}

/// Per-(trial, tag, link) values that do not depend on `t`: the two
/// shadowing draws and the fast-fading process. Pure functions of the
/// trial seed and the link identity, so caching them for the channel's
/// lifetime is invisible. A channel lives one inventory round, so they
/// are drawn again for every tag in every round.
#[derive(Debug, Clone, Copy)]
struct TagStatics {
    shadow_tag: f64,
    shadow_link: f64,
    fading: FadingProcess,
}

/// RF truth for one (reader, antenna) pair during one inventory round:
/// implements [`AirChannel`] by evaluating the full link budget against
/// the instantaneous world geometry. The runner builds a fresh channel
/// for every round, so every memo below lives one round.
///
/// The Gen-2 inventory engine interrogates the channel up to ~5 times per
/// slot at the *same* `(tag, t)` (Query power-up, RN16, ACK, EPC), and
/// every evaluation is a pure function of `(tag, t)` given the trial seed
/// — randomness is identity-addressed, never draw-ordered. The channel
/// therefore memoizes per tag: the last `(t, LinkReport, interference)`
/// triple, the last coupling-geometry refresh (shared across all tags at
/// one `t`, covering moving worlds the static [`ScenarioCache`] cannot),
/// and the per-tag [`FadingProcess`] (fixed for the channel's lifetime). Memoized
/// results are bit-identical to recomputation; [`PortalChannel::without_memo`]
/// disables all three layers for reference runs.
#[derive(Debug)]
pub struct PortalChannel<'a> {
    world: &'a World,
    reader: usize,
    port: usize,
    params: &'a ChannelParams,
    trial: RngStream,
    budget: LinkBudget,
    cache: Option<&'a ScenarioCache>,
    memo_enabled: bool,
    link_memo: RefCell<Vec<Option<LinkMemo>>>,
    instant_memo: RefCell<InstantMemo>,
    tag_memo: RefCell<Vec<Option<TagStatics>>>,
    fade_memo: RefCell<Vec<Option<(i64, Db)>>>,
}

impl<'a> PortalChannel<'a> {
    /// Creates the channel for (`reader`, `port`) using `trial` as the
    /// per-trial randomness root.
    ///
    /// # Panics
    ///
    /// Panics if the reader or port index is out of range.
    #[must_use]
    pub fn new(
        world: &'a World,
        reader: usize,
        port: usize,
        params: &'a ChannelParams,
        trial: RngStream,
    ) -> Self {
        Self::build(world, reader, port, params, trial, None)
    }

    /// [`PortalChannel::new`] consulting a precomputed [`ScenarioCache`]
    /// for static geometry terms. The cache must have been built from the
    /// same world and channel parameters; results are bit-identical to
    /// the uncached channel.
    ///
    /// # Panics
    ///
    /// Panics if the reader or port index is out of range.
    #[must_use]
    pub fn with_cache(
        world: &'a World,
        reader: usize,
        port: usize,
        params: &'a ChannelParams,
        trial: RngStream,
        cache: &'a ScenarioCache,
    ) -> Self {
        Self::build(world, reader, port, params, trial, Some(cache))
    }

    fn build(
        world: &'a World,
        reader: usize,
        port: usize,
        params: &'a ChannelParams,
        trial: RngStream,
        cache: Option<&'a ScenarioCache>,
    ) -> Self {
        assert!(reader < world.readers.len(), "reader index out of range");
        assert!(
            port < world.readers[reader].antennas.len(),
            "antenna port out of range"
        );
        Self {
            world,
            reader,
            port,
            params,
            trial,
            budget: LinkBudget::new(world.frequency_hz),
            cache,
            memo_enabled: true,
            link_memo: RefCell::new(vec![None; world.tags.len()]),
            instant_memo: RefCell::new(InstantMemo::default()),
            tag_memo: RefCell::new(vec![None; world.tags.len()]),
            fade_memo: RefCell::new(vec![None; world.tags.len()]),
        }
    }

    /// Disables every memoization layer (link memo, per-`t` geometry
    /// memo, per-tag statics and fading caches), forcing a full
    /// recomputation per call. Memoized and unmemoized channels are
    /// bit-identical by contract; this is the reference path property
    /// tests and benchmarks compare against.
    #[must_use]
    pub fn without_memo(mut self) -> Self {
        self.memo_enabled = false;
        self
    }

    /// The situational one-way extra loss for `tag` at time `t`:
    /// mounting detuning + inter-tag coupling + shadowing - scatterer
    /// bonus - fast fade.
    #[must_use]
    pub fn extra_loss(&self, tag: usize, t: f64) -> Db {
        let world = self.world;
        let mounting = match self.cache {
            Some(cache) => cache.mounting(tag),
            None => world.tags[tag].mounting.loss(world.frequency_hz),
        };

        let (coupling, scatterers) = self.coupling_and_scatterers(tag, t);

        let (shadow_tag, shadow_link, fading) = if self.memo_enabled {
            let statics = self.tag_statics(tag);
            (statics.shadow_tag, statics.shadow_link, statics.fading)
        } else {
            (
                self.trial
                    .normal(&[0x5AD0, tag as u64], self.params.sigma_tag_db),
                self.trial.normal(
                    &[0x5AD1, tag as u64, self.reader as u64, self.port as u64],
                    self.params.sigma_link_db,
                ),
                self.compute_fading(tag),
            )
        };

        let fade = self.fade_at(tag, &fading, t);
        let bonus =
            (self.params.scatterer_bonus_db * scatterers as f64).min(self.params.scatterer_cap_db);

        mounting + coupling + Db::new(shadow_tag + shadow_link) - Db::new(bonus) - fade
    }

    /// Inter-tag coupling loss and nearby-scatterer count for `tag` at
    /// time `t`, against the shared geometry of one instant: the
    /// batch-static [`ScenarioCache`] tables when the world never moves,
    /// else the channel's per-`t` instant memo (one geometry evaluation
    /// shared by every tag queried at the same instant, refreshed in
    /// place without allocating).
    fn coupling_and_scatterers(&self, tag: usize, t: f64) -> (Db, usize) {
        let radius = self.params.scatterer_radius_m;
        if let Some(cached) = self.cache.and_then(ScenarioCache::coupling) {
            counters::record_geometry_cache_hit();
            let loss = coupling_loss(cached, tag, self.params.tag_extent_m, &self.params.coupling);
            let count = match self.cache.and_then(|c| c.scatterers(tag)) {
                Some(count) => count,
                None => self.world.scatterers_near(tag, t, radius),
            };
            return (loss, count);
        }
        if self.memo_enabled {
            let memo = self.instant(t);
            let loss = coupling_loss(
                &memo.coupling,
                tag,
                self.params.tag_extent_m,
                &self.params.coupling,
            );
            let tag_pos = memo.tag_poses[tag].translation();
            let host = self.world.tag_host(tag);
            let count = self
                .world
                .objects
                .iter()
                .zip(&memo.solids)
                .enumerate()
                .filter(|(i, (o, solid))| {
                    Some(*i) != host
                        && o.material.is_reflective()
                        && solid.pose().translation().distance(tag_pos) <= radius
                })
                .count();
            return (loss, count);
        }
        counters::record_geometry_eval();
        let computed = self.world.coupling_geometry(t);
        let loss = coupling_loss(
            &computed,
            tag,
            self.params.tag_extent_m,
            &self.params.coupling,
        );
        (loss, self.world.scatterers_near(tag, t, radius))
    }

    /// Borrows the instant memo, refreshed for time `t`. Every
    /// tag-independent geometry product (tag poses, coupling view, object
    /// solids) is recomputed at most once per simulation instant and
    /// shared by all tags queried at that instant.
    fn instant(&self, t: f64) -> Ref<'_, InstantMemo> {
        {
            let mut memo = self.instant_memo.borrow_mut();
            if memo.t_bits == Some(t.to_bits()) {
                counters::record_geometry_cache_hit();
            } else {
                counters::record_geometry_eval();
                let world = self.world;
                let InstantMemo {
                    tag_poses,
                    coupling,
                    solids,
                    ..
                } = &mut *memo;
                world.tag_poses_into(t, tag_poses);
                coupling.clear();
                coupling.extend(tag_poses.iter().map(coupling_entry));
                world.object_solids_into(t, solids);
                memo.t_bits = Some(t.to_bits());
            }
        }
        self.instant_memo.borrow()
    }

    /// The cached per-(trial, tag, link) statics: shadowing draws and the
    /// fading process. Computed on first touch, bit-identical to the
    /// per-call draws (randomness is identity-addressed, so draw order is
    /// irrelevant).
    fn tag_statics(&self, tag: usize) -> TagStatics {
        if let Some(statics) = self.tag_memo.borrow()[tag] {
            return statics;
        }
        let statics = TagStatics {
            shadow_tag: self
                .trial
                .normal(&[0x5AD0, tag as u64], self.params.sigma_tag_db),
            shadow_link: self.trial.normal(
                &[0x5AD1, tag as u64, self.reader as u64, self.port as u64],
                self.params.sigma_link_db,
            ),
            fading: self.compute_fading(tag),
        };
        self.tag_memo.borrow_mut()[tag] = Some(statics);
        statics
    }

    /// `fading.value_at(t)` behind a per-tag memo of the last coherence
    /// interval. Fast fading is piecewise-constant over intervals of
    /// `coherence_s`, and a whole inventory round usually fits inside
    /// one, so the Rician draw (two Box-Muller transforms plus dB
    /// conversions) is recomputed only when the interval index moves.
    /// The memoized value comes from [`FadingProcess::value_in_interval`]
    /// on the same index `value_at` derives, so it is bit-identical.
    fn fade_at(&self, tag: usize, fading: &FadingProcess, t: f64) -> Db {
        if !self.memo_enabled {
            return fading.value_at(t);
        }
        let interval = (t / self.params.coherence_s).floor() as i64;
        if let Some((cached, value)) = self.fade_memo.borrow()[tag] {
            if cached == interval {
                return value;
            }
        }
        let value = fading.value_in_interval(interval);
        self.fade_memo.borrow_mut()[tag] = Some((interval, value));
        value
    }

    fn compute_fading(&self, tag: usize) -> FadingProcess {
        FadingProcess::new(
            self.params.rician_k_db,
            self.params.coherence_s,
            self.trial
                .value(&[0xFADE, tag as u64, self.reader as u64, self.port as u64]),
        )
    }

    /// The deterministic fading process of this (tag, antenna) link. The
    /// process is a pure function of the trial seed and the link identity,
    /// so it is cached per tag for the lifetime of the channel (one
    /// inventory round); the cached copy is the same value the uncached
    /// construction returns.
    #[must_use]
    pub fn fading(&self, tag: usize) -> FadingProcess {
        if self.memo_enabled {
            self.tag_statics(tag).fading
        } else {
            self.compute_fading(tag)
        }
    }

    /// Full link report for `tag` at time `t`.
    ///
    /// Obstruction losses are applied through
    /// [`ChannelParams::effective_obstruction_loss`] (bulk penetration
    /// capped by environmental fill-in) as part of the one-way extra loss.
    /// Repeated calls at the same `(tag, t)` — the inventory engine's
    /// RN16 → ACK → EPC sequence within one slot — are served from the
    /// round-scoped memo.
    #[must_use]
    pub fn link_report(&self, tag: usize, t: f64) -> LinkReport {
        if self.memo_enabled {
            if let Some(memo) = self.link_memo.borrow()[tag] {
                if memo.t_bits == t.to_bits() {
                    counters::record_link_memo_hit();
                    return memo.report;
                }
            }
        }
        let report = self.compute_link_report(tag, t);
        if self.memo_enabled {
            self.link_memo.borrow_mut()[tag] = Some(LinkMemo {
                t_bits: t.to_bits(),
                report,
                interference: None,
            });
        }
        report
    }

    /// The uncached link-budget evaluation behind [`PortalChannel::link_report`].
    fn compute_link_report(&self, tag: usize, t: f64) -> LinkReport {
        counters::record_link_eval();
        let reader = self.world.reader_antenna(self.reader, self.port);
        let (tag_antenna, blockage) = self.tag_antenna_and_blockage(self.reader, self.port, tag, t);
        let extra = self.extra_loss(tag, t);
        self.budget
            .evaluate(&reader, &tag_antenna, &[], extra + blockage)
    }

    /// The tag's antenna pose and the line-of-sight blockage from
    /// (`reader`, `port`), served from the [`ScenarioCache`] / instant
    /// memo where possible. The returned values are bit-identical to
    /// `world.tag_antenna_at` + summing `world.obstructions`.
    fn tag_antenna_and_blockage(
        &self,
        reader: usize,
        port: usize,
        tag: usize,
        t: f64,
    ) -> (TagAntenna, Db) {
        let cached_blockage = self.cache.and_then(|c| c.blockage(reader, port, tag));
        if self.memo_enabled {
            // Fully static world: the cache already holds both pieces, no
            // instant-memo refresh needed.
            if let (Some(antenna), Some(cached)) =
                (self.cache.and_then(|c| c.tag_antenna(tag)), cached_blockage)
            {
                counters::record_geometry_cache_hit();
                return (antenna, cached);
            }
            let memo = self.instant(t);
            let tag_antenna = TagAntenna {
                pose: memo.tag_poses[tag],
                chip: self.world.tags[tag].chip,
            };
            let blockage = match cached_blockage {
                Some(cached) => cached,
                None => self.blockage_from_solids(reader, port, &tag_antenna.pose, &memo.solids),
            };
            return (tag_antenna, blockage);
        }
        let tag_antenna = self.world.tag_antenna_at(tag, t);
        let blockage = match cached_blockage {
            Some(cached) => cached,
            None => self
                .world
                .obstructions(reader, port, tag, t)
                .iter()
                .map(|o| self.params.effective_obstruction_loss(o))
                .sum(),
        };
        (tag_antenna, blockage)
    }

    /// Line-of-sight blockage computed against the instant memo's cached
    /// solids, without allocating. Same ray, same chord threshold, same
    /// summation order as `world.obstructions` + `effective_obstruction_loss`,
    /// so the result is bit-identical to the uncached path.
    fn blockage_from_solids(
        &self,
        reader: usize,
        port: usize,
        tag_pose: &Pose,
        solids: &[Solid],
    ) -> Db {
        let antenna_pos = self.world.readers[reader].antennas[port].pose.translation();
        let tag_point = tag_pose.translation() + tag_pose.transform_dir(Vec3::Y) * 0.005;
        let Some(ray) = Ray::between(antenna_pos, tag_point) else {
            return Db::ZERO;
        };
        let max_t = antenna_pos.distance(tag_point) - 1e-3;
        let mut total = 0.0;
        for (object, solid) in self.world.objects.iter().zip(solids) {
            let chord = solid.chord(&ray, max_t);
            if chord > 1e-3 {
                total += self
                    .params
                    .effective_obstruction_loss(&Obstruction {
                        material: object.material,
                        thickness_m: chord,
                        extent_m: object.shape.max_extent(),
                    })
                    .value();
            }
        }
        Db::new(total)
    }

    /// [`PortalChannel::interference`] behind the round-scoped memo: the
    /// verdict is a pure function of `(tag, t)` (the report is itself
    /// memoized on the same key), so the second direction-check of a slot
    /// reuses the first's scan.
    fn interference_memo(&self, tag: usize, t: f64, report: &LinkReport) -> InterferenceOutcome {
        if self.memo_enabled {
            if let Some(memo) = self.link_memo.borrow()[tag] {
                if memo.t_bits == t.to_bits() {
                    if let Some(outcome) = memo.interference {
                        counters::record_link_memo_hit();
                        return outcome;
                    }
                }
            }
        }
        let outcome = self.interference(tag, t, report);
        if self.memo_enabled {
            if let Some(memo) = self.link_memo.borrow_mut()[tag].as_mut() {
                if memo.t_bits == t.to_bits() {
                    memo.interference = Some(outcome);
                }
            }
        }
        outcome
    }

    /// Interference assessment against every *other* reader (assumed to be
    /// transmitting continuously, as in buffered mode).
    fn interference(&self, tag: usize, t: f64, report: &LinkReport) -> InterferenceOutcome {
        let world = self.world;
        let victim_rf = &world.readers[self.reader].rf;
        for (r2, other) in world.readers.iter().enumerate() {
            if r2 == self.reader {
                continue;
            }
            for port2 in 0..other.antennas.len() {
                if other.antennas[port2].is_out(t) {
                    continue;
                }
                // Interfering carrier at the tag.
                let interferer_antenna = world.reader_antenna(r2, port2);
                let (tag_antenna, blockage) = self.tag_antenna_and_blockage(r2, port2, tag, t);
                let at_tag = self
                    .budget
                    .evaluate(&interferer_antenna, &tag_antenna, &[], blockage)
                    .forward_power;

                // Interfering carrier leaking into the victim receiver.
                let at_victim = self.reader_to_reader_power(r2, port2);

                let outcome = self.params.interference.assess(
                    victim_rf,
                    &other.rf,
                    report.forward_power.value(),
                    at_tag.value(),
                    report.backscatter_power.value(),
                    at_victim.value(),
                    true,
                );
                if outcome != InterferenceOutcome::Clear {
                    return outcome;
                }
            }
        }
        InterferenceOutcome::Clear
    }

    /// Carrier power of (reader `r2`, port `port2`) arriving at this
    /// channel's own antenna — looked up from the [`ScenarioCache`]'s
    /// precomputed leakage matrix when one is attached (antenna poses
    /// never move), else computed directly.
    fn reader_to_reader_power(&self, r2: usize, port2: usize) -> rfid_phys::Dbm {
        match self.cache {
            Some(cache) => cache.reader_leakage(self.reader, self.port, r2, port2),
            None => reader_leakage_power(self.world, self.reader, self.port, r2, port2),
        }
    }

    fn antenna_is_out(&self, t: f64) -> bool {
        self.world.readers[self.reader].antennas[self.port].is_out(t)
    }
}

/// Carrier power leaking from (`interferer`, `port`) into the receiver of
/// (`victim`, `victim_port`): antenna gains along the line of sight plus
/// free-space path loss. Depends only on antenna poses, which never move —
/// [`ScenarioCache`] tabulates it once per scenario with exactly this
/// function, so lookup and recomputation are bit-identical.
pub(crate) fn reader_leakage_power(
    world: &World,
    victim: usize,
    victim_port: usize,
    interferer: usize,
    port: usize,
) -> rfid_phys::Dbm {
    let victim = &world.readers[victim].antennas[victim_port];
    let interferer = world.reader_antenna(interferer, port);
    let v_pos = victim.pose.translation();
    let i_pos = interferer.pose.translation();
    let los = v_pos - i_pos;
    let tx_gain = interferer
        .pattern
        .gain(interferer.pose.inverse_transform_dir(los));
    let rx_gain = victim.pattern.gain(victim.pose.inverse_transform_dir(-los));
    let distance = v_pos.distance(i_pos).max(0.1);
    interferer.tx_power - interferer.cable_loss + tx_gain + rx_gain
        - path_loss(world.frequency_hz, distance)
        - victim.cable_loss
}

impl AirChannel for PortalChannel<'_> {
    fn reader_to_tag_ok(&mut self, tag: usize, time_s: f64) -> bool {
        if self.antenna_is_out(time_s) {
            return false;
        }
        let report = self.link_report(tag, time_s);
        if report.forward_margin.value() < 0.0 {
            return false;
        }
        self.interference_memo(tag, time_s, &report) != InterferenceOutcome::ForwardJammed
    }

    fn tag_to_reader_ok(&mut self, tag: usize, time_s: f64) -> bool {
        if self.antenna_is_out(time_s) {
            return false;
        }
        let report = self.link_report(tag, time_s);
        if report.reverse_margin.value() < 0.0 {
            return false;
        }
        self.interference_memo(tag, time_s, &report) != InterferenceOutcome::ReverseJammed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{Antenna, Attachment, SimReader, SimTag};
    use crate::Motion;
    use rfid_gen2::{Epc96, ReaderRf};
    use rfid_geom::{Pose, Rotation, Vec3};
    use rfid_phys::{Mounting, TagChip};

    /// A tag facing the antenna at the given distance along boresight.
    fn world_with_tag_at(distance: f64) -> World {
        let mut world = World::default();
        let toward = Rotation::between(Vec3::Y, -Vec3::Y).expect("antiparallel");
        world.tags.push(SimTag {
            epc: Epc96::from_u128(1),
            attachment: Attachment::Free(Motion::Static(Pose::new(
                Vec3::new(0.0, distance, 0.0),
                toward,
            ))),
            chip: TagChip::default(),
            mounting: Mounting::free_space(),
        });
        world
            .readers
            .push(SimReader::ar400(vec![Antenna::portal(Pose::IDENTITY)]));
        world
    }

    fn quiet_params() -> ChannelParams {
        ChannelParams {
            sigma_tag_db: 0.0,
            sigma_link_db: 0.0,
            rician_k_db: 60.0, // essentially no fading
            ..ChannelParams::default()
        }
    }

    #[test]
    fn close_tag_passes_both_directions() {
        let world = world_with_tag_at(1.0);
        let params = quiet_params();
        let mut channel = PortalChannel::new(&world, 0, 0, &params, RngStream::new(1));
        assert!(channel.reader_to_tag_ok(0, 0.0));
        assert!(channel.tag_to_reader_ok(0, 0.0));
    }

    #[test]
    fn distant_tag_fails_forward() {
        let world = world_with_tag_at(30.0);
        let params = quiet_params();
        let mut channel = PortalChannel::new(&world, 0, 0, &params, RngStream::new(1));
        assert!(!channel.reader_to_tag_ok(0, 0.0));
    }

    #[test]
    fn outage_kills_the_channel() {
        let mut world = world_with_tag_at(1.0);
        world.readers[0].antennas[0].outages.push((0.0, 10.0));
        let params = quiet_params();
        let mut channel = PortalChannel::new(&world, 0, 0, &params, RngStream::new(1));
        assert!(!channel.reader_to_tag_ok(0, 5.0));
        assert!(channel.reader_to_tag_ok(0, 15.0), "after the outage");
    }

    #[test]
    fn second_legacy_reader_jams_the_reverse_link() {
        let mut world = world_with_tag_at(1.0);
        // Second reader 2 m away on the same portal, no dense mode.
        world.readers.push(SimReader::ar400(vec![Antenna::portal(
            Pose::from_translation(Vec3::new(2.0, 0.0, 0.0)),
        )]));
        let params = quiet_params();
        let mut channel = PortalChannel::new(&world, 0, 0, &params, RngStream::new(1));
        assert!(
            !channel.tag_to_reader_ok(0, 0.0),
            "legacy co-portal reader must jam backscatter"
        );
    }

    #[test]
    fn dense_mode_removes_the_jam() {
        let mut world = world_with_tag_at(1.0);
        world.readers.push(SimReader::ar400(vec![Antenna::portal(
            Pose::from_translation(Vec3::new(2.0, 0.0, 0.0)),
        )]));
        world.readers[0].rf = ReaderRf::dense(3);
        world.readers[1].rf = ReaderRf::dense(17);
        let params = quiet_params();
        let mut channel = PortalChannel::new(&world, 0, 0, &params, RngStream::new(1));
        assert!(channel.tag_to_reader_ok(0, 0.0));
        assert!(channel.reader_to_tag_ok(0, 0.0));
    }

    #[test]
    fn shared_tag_shadowing_correlates_antennas() {
        // With only the per-tag shadowing enabled, the two antennas of a
        // portal see the *same* offset for the same tag.
        let mut world = world_with_tag_at(1.0);
        world.readers[0]
            .antennas
            .push(Antenna::portal(Pose::from_translation(Vec3::new(
                2.0, 0.0, 0.0,
            ))));
        let params = ChannelParams {
            sigma_tag_db: 6.0,
            sigma_link_db: 0.0,
            rician_k_db: 60.0,
            ..ChannelParams::default()
        };
        let trial = RngStream::new(33);
        let ch_a = PortalChannel::new(&world, 0, 0, &params, trial);
        let ch_b = PortalChannel::new(&world, 0, 1, &params, trial);
        // extra_loss differs only through coupling/mounting (zero here) and
        // fading (disabled), so both antennas see the same shadowing.
        let a = ch_a.extra_loss(0, 0.0).value();
        let b = ch_b.extra_loss(0, 0.0).value();
        assert!((a - b).abs() < 0.3, "a = {a}, b = {b}");
    }

    #[test]
    fn per_link_shadowing_decorrelates_antennas() {
        let mut world = world_with_tag_at(1.0);
        world.readers[0]
            .antennas
            .push(Antenna::portal(Pose::from_translation(Vec3::new(
                2.0, 0.0, 0.0,
            ))));
        let params = ChannelParams {
            sigma_tag_db: 0.0,
            sigma_link_db: 6.0,
            rician_k_db: 60.0,
            ..ChannelParams::default()
        };
        let trial = RngStream::new(33);
        let a = PortalChannel::new(&world, 0, 0, &params, trial).extra_loss(0, 0.0);
        let b = PortalChannel::new(&world, 0, 1, &params, trial).extra_loss(0, 0.0);
        assert!((a.value() - b.value()).abs() > 1e-6);
    }

    #[test]
    fn close_neighbor_tag_adds_coupling_loss() {
        let mut world = world_with_tag_at(1.0);
        // A second tag 4 mm away, parallel.
        let toward = Rotation::between(Vec3::Y, -Vec3::Y).expect("antiparallel");
        world.tags.push(SimTag {
            epc: Epc96::from_u128(2),
            attachment: Attachment::Free(Motion::Static(Pose::new(
                Vec3::new(0.004, 1.0, 0.0),
                toward,
            ))),
            chip: TagChip::default(),
            mounting: Mounting::free_space(),
        });
        let params = quiet_params();
        let channel = PortalChannel::new(&world, 0, 0, &params, RngStream::new(1));
        let loss = channel.extra_loss(0, 0.0);
        assert!(loss.value() > 10.0, "4 mm neighbor: {loss}");
    }

    #[test]
    fn link_report_is_deterministic() {
        let world = world_with_tag_at(2.0);
        let params = ChannelParams::default();
        let ch = PortalChannel::new(&world, 0, 0, &params, RngStream::new(5));
        assert_eq!(ch.link_report(0, 1.0), ch.link_report(0, 1.0));
    }

    /// Two moving tags passing a jamming second reader: every memo layer
    /// (link report, interference verdict, geometry, fading) is exercised
    /// and must be invisible next to the naive recompute-everything path.
    #[test]
    fn memoized_channel_is_bit_identical_to_unmemoized_when_moving() {
        let toward = Rotation::between(Vec3::Y, -Vec3::Y).expect("antiparallel");
        let mut world = World::default();
        for i in 0..2u128 {
            world.tags.push(SimTag {
                epc: Epc96::from_u128(i + 1),
                attachment: Attachment::Free(Motion::linear(
                    Pose::new(Vec3::new(-1.0 + 0.05 * i as f64, 1.0, 1.0), toward),
                    Vec3::new(1.0, 0.1 * i as f64, 0.0),
                    0.0,
                    2.0,
                )),
                chip: TagChip::default(),
                mounting: Mounting::free_space(),
            });
        }
        world
            .readers
            .push(SimReader::ar400(vec![Antenna::portal(Pose::IDENTITY)]));
        world.readers.push(SimReader::ar400(vec![Antenna::portal(
            Pose::from_translation(Vec3::new(2.0, 0.0, 0.0)),
        )]));
        let params = ChannelParams::default();
        for seed in [1u64, 17, 92] {
            let trial = RngStream::new(seed);
            let mut memo = PortalChannel::new(&world, 0, 0, &params, trial);
            let mut naive = PortalChannel::new(&world, 0, 0, &params, trial).without_memo();
            for step in 0..40 {
                let t = step as f64 * 0.05;
                for tag in 0..world.tags.len() {
                    assert_eq!(memo.link_report(tag, t), naive.link_report(tag, t));
                    assert_eq!(memo.extra_loss(tag, t), naive.extra_loss(tag, t));
                    // Repeat the Gen-2 rn16 → ack → epc query pattern so the
                    // second and third calls come out of the memo.
                    for _ in 0..3 {
                        assert_eq!(
                            memo.reader_to_tag_ok(tag, t),
                            naive.reader_to_tag_ok(tag, t)
                        );
                        assert_eq!(
                            memo.tag_to_reader_ok(tag, t),
                            naive.tag_to_reader_ok(tag, t)
                        );
                    }
                }
            }
        }
    }
}
