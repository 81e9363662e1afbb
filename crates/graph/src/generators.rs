//! Generators for finite-horizon evolving-ring dynamics.
//!
//! All generators are deterministic given a seed and produce
//! [`ScriptedSchedule`]s, so every experiment in the repository is exactly
//! reproducible. The repair pass [`enforce_recurrence`] upgrades any finite
//! script into one with a *hard* per-edge recurrence bound, which is what the
//! finite-horizon connected-over-time certificates in [`crate::classes`]
//! check for.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::{
    EdgeId, EdgeSchedule, EdgeSet, GraphError, RingTopology, ScriptedSchedule, TailBehavior, Time,
};

/// Configuration for [`random_connected_over_time`].
#[derive(Debug, Clone, PartialEq)]
pub struct RandomCotConfig {
    /// Per-instant, per-edge presence probability.
    pub presence_probability: f64,
    /// Hard recurrence bound enforced by repair: every (non-missing) edge is
    /// present at least once in every window of this many instants.
    pub recurrence_bound: Time,
    /// Optional eventual missing edge: `(edge, from)` kills `edge` forever
    /// starting at time `from`.
    pub eventual_missing: Option<(EdgeId, Time)>,
}

impl Default for RandomCotConfig {
    fn default() -> Self {
        RandomCotConfig {
            presence_probability: 0.5,
            recurrence_bound: 8,
            eventual_missing: None,
        }
    }
}

/// Generates a random connected-over-time ring schedule over
/// `[0, horizon)`:
/// Bernoulli presence, then a recurrence repair pass, then (optionally) one
/// eventual missing edge. The tail behaviour is [`TailBehavior::Cycle`] with
/// the eventual missing edge re-applied, so the *infinite* schedule is
/// genuinely connected-over-time.
///
/// # Errors
///
/// Returns [`GraphError::InvalidProbability`] for a bad probability and
/// [`GraphError::EdgeOutOfRange`] for a bad missing edge.
pub fn random_connected_over_time(
    ring: &RingTopology,
    horizon: Time,
    config: &RandomCotConfig,
    seed: u64,
) -> Result<ScriptedSchedule, GraphError> {
    if !(0.0..=1.0).contains(&config.presence_probability) {
        return Err(GraphError::InvalidProbability {
            value: config.presence_probability,
        });
    }
    if let Some((edge, _)) = config.eventual_missing {
        ring.check_edge(edge)?;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut frames: Vec<EdgeSet> = Vec::with_capacity(horizon as usize);
    for _ in 0..horizon {
        let mut set = EdgeSet::empty_for(ring);
        for e in ring.edges() {
            if rng.random_bool(config.presence_probability) {
                set.insert(e);
            }
        }
        frames.push(set);
    }
    let exempt = config.eventual_missing.map(|(e, _)| e);
    let mut frames = repair_recurrence(ring, frames, config.recurrence_bound, exempt);
    if let Some((edge, from)) = config.eventual_missing {
        for (t, frame) in frames.iter_mut().enumerate() {
            if t as Time >= from {
                frame.remove(edge);
            }
        }
    }
    let mut script = ScriptedSchedule::new(ring.clone(), frames, TailBehavior::Cycle)?;
    if let Some((edge, _)) = config.eventual_missing {
        // Cycling would resurrect the missing edge; holding an explicit tail
        // frame keeps it dead while every other edge stays present forever.
        let mut tail_frame = EdgeSet::full_for(ring);
        tail_frame.remove(edge);
        script.push_frame(tail_frame)?;
        script.set_tail(TailBehavior::HoldLast);
    }
    Ok(script)
}

/// Markov on/off dynamics: each edge is an independent two-state chain.
///
/// `p_off` is the probability that a present edge disappears at the next
/// instant; `p_on` the probability that an absent edge reappears. High
/// `1 - p_off` models *stable* links (long presence runs), low `p_on` models
/// long outages.
///
/// # Errors
///
/// Returns [`GraphError::InvalidProbability`] unless both probabilities are
/// within `[0, 1]`.
pub fn markov_on_off(
    ring: &RingTopology,
    horizon: Time,
    p_off: f64,
    p_on: f64,
    seed: u64,
) -> Result<ScriptedSchedule, GraphError> {
    for p in [p_off, p_on] {
        if !(0.0..=1.0).contains(&p) {
            return Err(GraphError::InvalidProbability { value: p });
        }
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut state = vec![true; ring.edge_count()];
    let mut frames = Vec::with_capacity(horizon as usize);
    for _ in 0..horizon {
        let mut set = EdgeSet::empty_for(ring);
        for (i, on) in state.iter_mut().enumerate() {
            if *on {
                set.insert(EdgeId::new(i));
                if rng.random_bool(p_off) {
                    *on = false;
                }
            } else if rng.random_bool(p_on) {
                *on = true;
            }
        }
        frames.push(set);
    }
    ScriptedSchedule::new(ring.clone(), frames, TailBehavior::AllPresent)
}

/// Repairs `frames` so that no edge (except `exempt`) stays absent for
/// `bound` or more consecutive frames: whenever an edge has been absent for
/// `bound - 1` frames, it is forced present in the next one.
///
/// The leading window counts: an edge absent since frame 0 is forced present
/// at frame `bound - 1` at the latest.
pub fn repair_recurrence(
    ring: &RingTopology,
    mut frames: Vec<EdgeSet>,
    bound: Time,
    exempt: Option<EdgeId>,
) -> Vec<EdgeSet> {
    assert!(bound >= 1, "recurrence bound must be at least 1");
    let mut absent_run = vec![0u64; ring.edge_count()];
    for frame in &mut frames {
        for e in ring.edges() {
            if Some(e) == exempt {
                continue;
            }
            if frame.contains(e) {
                absent_run[e.index()] = 0;
            } else if absent_run[e.index()] + 1 >= bound {
                frame.insert(e);
                absent_run[e.index()] = 0;
            } else {
                absent_run[e.index()] += 1;
            }
        }
    }
    frames
}

/// Convenience wrapper: captures any schedule over `[0, horizon)` and
/// repairs it to a hard recurrence bound.
pub fn enforce_recurrence<S: EdgeSchedule>(
    schedule: &S,
    horizon: Time,
    bound: Time,
    exempt: Option<EdgeId>,
) -> ScriptedSchedule {
    let frames = (0..horizon).map(|t| schedule.edges_at(t)).collect();
    let frames = repair_recurrence(schedule.ring(), frames, bound, exempt);
    ScriptedSchedule::new(schedule.ring().clone(), frames, TailBehavior::AllPresent)
        .expect("frames originate from the same ring")
}

/// Generates a *T-interval-connected* ring schedule (Kuhn–Lynch–Oshman
/// class, as used by Ilcinkas–Wade for rings): at every instant at most one
/// edge is absent, and the absent edge changes only after at least
/// `stability` instants during which the full ring is present, so the
/// intersection of any window of `stability + 1` consecutive snapshots is
/// connected.
pub fn t_interval_connected(
    ring: &RingTopology,
    horizon: Time,
    stability: Time,
    seed: u64,
) -> ScriptedSchedule {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut frames = Vec::with_capacity(horizon as usize);
    let mut t = 0;
    while (frames.len() as Time) < horizon {
        // Pick an edge to suppress for a while.
        let victim = EdgeId::new(rng.random_range(0..ring.edge_count()));
        let outage = rng.random_range(1..=stability.max(1));
        for _ in 0..outage {
            if frames.len() as Time >= horizon {
                break;
            }
            let mut set = EdgeSet::full_for(ring);
            set.remove(victim);
            frames.push(set);
            t += 1;
        }
        // Full-ring cool-down so window intersections stay connected.
        for _ in 0..stability {
            if frames.len() as Time >= horizon {
                break;
            }
            frames.push(EdgeSet::full_for(ring));
            t += 1;
        }
    }
    let _ = t;
    ScriptedSchedule::new(ring.clone(), frames, TailBehavior::AllPresent)
        .expect("frames built for this ring")
}

/// A deterministic "sweeping outage": edge `t / dwell mod n` is absent at
/// time `t`. Every edge recurs with gap at most `n · dwell`, so the schedule
/// is connected-over-time; the moving hole stresses algorithms the way the
/// proofs' hand-built schedules do.
pub fn sweeping_outage(ring: &RingTopology, dwell: Time) -> ScriptedSchedule {
    assert!(dwell >= 1, "dwell must be at least 1");
    let n = ring.edge_count() as Time;
    let frames = (0..n * dwell)
        .map(|t| {
            let mut set = EdgeSet::full_for(ring);
            set.remove(EdgeId::new(((t / dwell) % n) as usize));
            set
        })
        .collect();
    ScriptedSchedule::new(ring.clone(), frames, TailBehavior::Cycle)
        .expect("frames built for this ring")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes;

    fn ring(n: usize) -> RingTopology {
        RingTopology::new(n).expect("valid ring")
    }

    #[test]
    fn random_cot_respects_recurrence_bound() {
        let r = ring(6);
        let cfg = RandomCotConfig {
            presence_probability: 0.3,
            recurrence_bound: 5,
            eventual_missing: None,
        };
        let s = random_connected_over_time(&r, 200, &cfg, 11).expect("valid config");
        let gaps = classes::max_recurrence_gaps(&s, 200);
        for (e, gap) in gaps.iter().enumerate() {
            assert!(*gap <= 5, "edge {e} has gap {gap}");
        }
    }

    #[test]
    fn random_cot_eventual_missing_edge_stays_dead() {
        let r = ring(5);
        let cfg = RandomCotConfig {
            presence_probability: 0.6,
            recurrence_bound: 4,
            eventual_missing: Some((EdgeId::new(2), 50)),
        };
        let s = random_connected_over_time(&r, 100, &cfg, 3).expect("valid config");
        for t in 50..300 {
            assert!(!s.is_present(EdgeId::new(2), t), "dead edge alive at {t}");
        }
        // Other edges keep recurring past the script end.
        for e in [0usize, 1, 3, 4] {
            let present_late = (100..200).any(|t| s.is_present(EdgeId::new(e), t));
            assert!(present_late, "edge {e} should recur after the script");
        }
    }

    #[test]
    fn random_cot_is_reproducible() {
        let r = ring(4);
        let cfg = RandomCotConfig::default();
        let a = random_connected_over_time(&r, 64, &cfg, 99).expect("valid");
        let b = random_connected_over_time(&r, 64, &cfg, 99).expect("valid");
        assert_eq!(a, b);
    }

    #[test]
    fn markov_produces_runs() {
        let r = ring(4);
        let s = markov_on_off(&r, 300, 0.05, 0.2, 17).expect("valid probabilities");
        assert_eq!(s.frame_count(), 300);
        // With p_off = 0.05 runs should be long: expect at least one run of
        // ≥ 5 consecutive presences for edge 0.
        let mut run = 0;
        let mut best = 0;
        for t in 0..300u64 {
            if s.is_present(EdgeId::new(0), t) {
                run += 1;
                best = best.max(run);
            } else {
                run = 0;
            }
        }
        assert!(best >= 5, "longest run {best}");
    }

    #[test]
    fn repair_recurrence_bounds_leading_gap() {
        let r = ring(3);
        let frames = vec![EdgeSet::empty_for(&r); 10];
        let repaired = repair_recurrence(&r, frames, 3, None);
        // Every edge must be present at frames 2, 5, 8 (forced).
        for e in r.edges() {
            for t in [2usize, 5, 8] {
                assert!(repaired[t].contains(e), "edge {e} absent at forced {t}");
            }
        }
    }

    #[test]
    fn repair_recurrence_exempts_missing_edge() {
        let r = ring(3);
        let frames = vec![EdgeSet::empty_for(&r); 9];
        let repaired = repair_recurrence(&r, frames, 2, Some(EdgeId::new(1)));
        for frame in &repaired {
            assert!(!frame.contains(EdgeId::new(1)));
        }
    }

    #[test]
    fn t_interval_connected_has_at_most_one_absent_edge() {
        let r = ring(7);
        let s = t_interval_connected(&r, 150, 4, 5);
        for t in 0..150 {
            assert!(s.edges_at(t).absent_count() <= 1, "two holes at {t}");
        }
        let t_conn = classes::t_interval_connectivity(&s, 150);
        assert!(t_conn >= 5, "T-interval connectivity {t_conn}");
    }

    #[test]
    fn sweeping_outage_cycles_the_hole() {
        let r = ring(4);
        let s = sweeping_outage(&r, 3);
        assert_eq!(s.edges_at(0).absent(). next(), Some(EdgeId::new(0)));
        assert_eq!(s.edges_at(3).absent().next(), Some(EdgeId::new(1)));
        assert_eq!(s.edges_at(11).absent().next(), Some(EdgeId::new(3)));
        // Cycle tail.
        assert_eq!(s.edges_at(12).absent().next(), Some(EdgeId::new(0)));
        let gaps = classes::max_recurrence_gaps(&s, 48);
        assert!(gaps.iter().all(|&g| g <= 3));
    }

    #[test]
    fn enforce_recurrence_on_bernoulli() {
        let r = ring(5);
        let raw = crate::BernoulliSchedule::new(r.clone(), 0.2, 8).expect("valid p");
        let repaired = enforce_recurrence(&raw, 120, 6, None);
        let gaps = classes::max_recurrence_gaps(&repaired, 120);
        assert!(gaps.iter().all(|&g| g <= 6), "gaps {gaps:?}");
    }
}
