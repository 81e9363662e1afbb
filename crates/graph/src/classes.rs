//! Finite-horizon analysis of dynamic-graph classes.
//!
//! The paper's hypotheses live at infinity ("infinitely often", "eventually
//! missing"), which no finite run can observe directly. This module computes
//! the standard finite *witnesses* used throughout the experiments:
//!
//! - per-instant connectivity and [`t_interval_connectivity`]
//!   (the Kuhn–Lynch–Oshman class assumed by related work \[10, 18, 20\]);
//! - per-edge [`max_recurrence_gaps`] — a hard recurrence bound over the
//!   window *is* a proof of connectivity-over-time restricted to that
//!   window;
//! - [`certify_connected_over_time`], the certificate used by every
//!   experiment: at most one edge may behave as "missing", every other edge
//!   must recur within the bound.
//!
//! Both rest on [`RecurrenceGaps`], an online accumulator fed one snapshot
//! per instant, so a run that never stores its schedule (the campaign's
//! quiet scenario route) reaches the same verdict as a post-hoc scan.

use serde::{Deserialize, Serialize};

use crate::{EdgeId, EdgeSchedule, EdgeSet, GlobalDir, NodeId, RingTopology, Time};

/// The paper's `OneEdge(u, t, t')` predicate (§2.1): one adjacent edge of
/// `u` is continuously missing during `[t, t']` while the other adjacent
/// edge is continuously present during `[t, t']`.
///
/// Returns the continuously *missing* edge when the predicate holds.
/// The interval is inclusive on both ends, matching the paper.
pub fn one_edge<S: EdgeSchedule>(
    schedule: &S,
    node: NodeId,
    from: Time,
    to: Time,
) -> Option<EdgeId> {
    let ring = schedule.ring();
    let cw = ring.edge_towards(node, GlobalDir::Clockwise);
    let ccw = ring.edge_towards(node, GlobalDir::CounterClockwise);
    let all = |edge: EdgeId, want: bool| (from..=to).all(|t| schedule.is_present(edge, t) == want);
    if all(cw, false) && all(ccw, true) {
        Some(cw)
    } else if all(ccw, false) && all(cw, true) {
        Some(ccw)
    } else {
        None
    }
}

/// `true` when the snapshot `edges` leaves the ring connected.
///
/// A ring stays connected iff at most one of its edges is absent (removing
/// one edge yields a chain; removing two disconnects). The 2-node multigraph
/// ring is connected iff at least one of its two parallel edges is present —
/// which the same rule already expresses.
pub fn is_connected(ring: &RingTopology, edges: &EdgeSet) -> bool {
    assert_eq!(
        edges.universe(),
        ring.edge_count(),
        "snapshot universe does not match ring"
    );
    edges.absent_count() <= 1
}

/// Online per-edge recurrence-gap accumulator: feed it the snapshots of
/// instants `0, 1, 2, …` in order and it tracks, per edge, the longest
/// absence run seen so far (runs touching the window's boundaries
/// included). [`max_recurrence_gaps`] and [`certify_connected_over_time`]
/// are this accumulator driven over a stored schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecurrenceGaps {
    current: Vec<Time>,
    best: Vec<Time>,
}

impl RecurrenceGaps {
    /// An accumulator over `edges` edges that has observed nothing yet.
    pub fn new(edges: usize) -> Self {
        RecurrenceGaps {
            current: vec![0; edges],
            best: vec![0; edges],
        }
    }

    /// Observes the snapshot of the next instant.
    ///
    /// # Panics
    ///
    /// Panics when the snapshot's universe differs from the accumulator's
    /// edge count.
    pub fn observe(&mut self, snapshot: &EdgeSet) {
        assert_eq!(
            snapshot.universe(),
            self.current.len(),
            "snapshot universe does not match the accumulator"
        );
        for (i, (current, best)) in self.current.iter_mut().zip(&mut self.best).enumerate() {
            if snapshot.contains(EdgeId::new(i)) {
                *current = 0;
            } else {
                *current += 1;
                *best = (*best).max(*current);
            }
        }
    }

    /// Maximum absence run per edge over the instants observed so far.
    pub fn gaps(&self) -> &[Time] {
        &self.best
    }

    /// The connected-over-time verdict over the instants observed so far:
    /// at most one edge may exceed `recurrence_bound` (it plays the
    /// eventual missing edge); two or more offenders violate the class.
    pub fn verdict(&self, recurrence_bound: Time) -> CotVerdict {
        let mut offenders: Vec<EdgeId> = Vec::new();
        let mut max_ok_gap = 0;
        for (i, &gap) in self.best.iter().enumerate() {
            if gap > recurrence_bound {
                offenders.push(EdgeId::new(i));
            } else {
                max_ok_gap = max_ok_gap.max(gap);
            }
        }
        match offenders.len() {
            0 => CotVerdict::Certified {
                missing_edge: None,
                max_gap: max_ok_gap,
            },
            1 => CotVerdict::Certified {
                missing_edge: Some(offenders[0]),
                max_gap: max_ok_gap,
            },
            _ => CotVerdict::Violated { edges: offenders },
        }
    }

    /// Drives the accumulator over `schedule` on `[0, horizon)`.
    fn over<S: EdgeSchedule>(schedule: &S, horizon: Time) -> Self {
        let ring = schedule.ring();
        let mut gaps = RecurrenceGaps::new(ring.edge_count());
        let mut snapshot = EdgeSet::empty_for(ring);
        for t in 0..horizon {
            schedule.edges_at_into(t, &mut snapshot);
            gaps.observe(&snapshot);
        }
        gaps
    }
}

/// Maximum absence run per edge over `[0, horizon)`, including runs touching
/// the window's boundaries.
///
/// A result of `0` means the edge was present at every instant; a result of
/// `horizon` means it was never present. If the maximum gap of an edge is
/// `g`, the edge is present at least once in every window of `g + 1`
/// instants.
pub fn max_recurrence_gaps<S: EdgeSchedule>(schedule: &S, horizon: Time) -> Vec<Time> {
    RecurrenceGaps::over(schedule, horizon).best
}

/// The largest `T ≥ 1` such that the intersection of every window of `T`
/// consecutive snapshots within `[0, horizon)` is a connected spanning
/// subgraph, or `0` when even single snapshots are sometimes disconnected.
///
/// `T = 1` is the "constantly connected" class; larger `T` is the
/// `T`-interval-connectivity of Kuhn, Lynch & Oshman.
pub fn t_interval_connectivity<S: EdgeSchedule>(schedule: &S, horizon: Time) -> Time {
    if horizon == 0 {
        return 0;
    }
    let ring = schedule.ring();
    let snapshots: Vec<EdgeSet> = (0..horizon).map(|t| schedule.edges_at(t)).collect();
    if !snapshots.iter().all(|s| is_connected(ring, s)) {
        return 0;
    }
    let mut t_best: Time = 1;
    'grow: for t in 2..=horizon {
        for start in 0..=(horizon - t) {
            let mut inter = snapshots[start as usize].clone();
            for s in &snapshots[start as usize + 1..(start + t) as usize] {
                inter.intersect_with(s);
            }
            if !is_connected(ring, &inter) {
                break 'grow;
            }
        }
        t_best = t;
    }
    t_best
}

/// Edges absent during the entire final `tail` instants of `[0, horizon)` —
/// the finite-horizon witnesses for "eventually missing".
pub fn eventually_missing_witnesses<S: EdgeSchedule>(
    schedule: &S,
    horizon: Time,
    tail: Time,
) -> Vec<EdgeId> {
    let ring = schedule.ring();
    let start = horizon.saturating_sub(tail);
    ring.edges()
        .filter(|&e| (start..horizon).all(|t| !schedule.is_present(e, t)))
        .collect()
}

/// Aggregate per-instant connectivity statistics over a window.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnectivitySummary {
    /// Number of instants inspected.
    pub instants: Time,
    /// Instants at which the snapshot was connected.
    pub connected_instants: Time,
    /// Longest run of consecutive disconnected snapshots.
    pub longest_disconnection: Time,
    /// Mean number of present edges per snapshot (×1000, to stay integral).
    pub mean_present_millis: u64,
}

impl ConnectivitySummary {
    /// Analyzes `schedule` over `[0, horizon)`.
    pub fn analyze<S: EdgeSchedule>(schedule: &S, horizon: Time) -> Self {
        let ring = schedule.ring();
        let mut connected = 0;
        let mut run = 0;
        let mut longest = 0;
        let mut present_total: u64 = 0;
        for t in 0..horizon {
            let snap = schedule.edges_at(t);
            present_total += snap.len() as u64;
            if is_connected(ring, &snap) {
                connected += 1;
                run = 0;
            } else {
                run += 1;
                longest = longest.max(run);
            }
        }
        let mean_present_millis = (present_total * 1000).checked_div(horizon).unwrap_or(0);
        ConnectivitySummary {
            instants: horizon,
            connected_instants: connected,
            longest_disconnection: longest,
            mean_present_millis,
        }
    }
}

/// Outcome of [`certify_connected_over_time`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CotVerdict {
    /// The window certifies connected-over-time behaviour: every edge except
    /// (at most) one recurs within `recurrence_bound`.
    Certified {
        /// The edge behaving as the eventual missing edge, if any.
        missing_edge: Option<EdgeId>,
        /// Largest recurrence gap observed among recurring edges.
        max_gap: Time,
    },
    /// Two or more edges exceeded the recurrence bound: over this window the
    /// eventual underlying graph would be disconnected.
    Violated {
        /// The offending edges.
        edges: Vec<EdgeId>,
    },
}

impl CotVerdict {
    /// `true` for [`CotVerdict::Certified`].
    pub fn is_certified(&self) -> bool {
        matches!(self, CotVerdict::Certified { .. })
    }
}

/// Certifies that `schedule`, restricted to `[0, horizon)`, is compatible
/// with the connected-over-time class: at most one edge may have a
/// recurrence gap exceeding `recurrence_bound` (that edge plays the role of
/// the eventual missing edge), every other edge must recur within the bound.
///
/// This is the obligation the paper's adversaries must honour — their edge
/// removals must keep every non-sacrificed edge recurring — and every
/// adversary in `dynring-adversary` is tested against this certificate.
pub fn certify_connected_over_time<S: EdgeSchedule>(
    schedule: &S,
    horizon: Time,
    recurrence_bound: Time,
) -> CotVerdict {
    RecurrenceGaps::over(schedule, horizon).verdict(recurrence_bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AbsenceIntervals, AlwaysPresent, PeriodicSchedule, RingTopology};

    fn ring(n: usize) -> RingTopology {
        RingTopology::new(n).expect("valid ring")
    }

    #[test]
    fn ring_connectivity_rule() {
        let r = ring(5);
        assert!(is_connected(&r, &EdgeSet::full(5)));
        assert!(is_connected(&r, &EdgeSet::from_indices(5, [0, 1, 2, 3])));
        assert!(!is_connected(&r, &EdgeSet::from_indices(5, [0, 1, 2])));
    }

    #[test]
    fn two_node_multigraph_connectivity() {
        let r = ring(2);
        assert!(is_connected(&r, &EdgeSet::from_indices(2, [0])));
        assert!(is_connected(&r, &EdgeSet::from_indices(2, [1])));
        assert!(!is_connected(&r, &EdgeSet::empty(2)));
    }

    #[test]
    fn recurrence_gaps_on_static_ring_are_zero() {
        let g = AlwaysPresent::new(ring(4));
        assert_eq!(max_recurrence_gaps(&g, 50), vec![0, 0, 0, 0]);
    }

    #[test]
    fn recurrence_gaps_count_boundary_runs() {
        let mut g = AbsenceIntervals::new(ring(3));
        g.remove_during(EdgeId::new(0), 0, 4); // leading run of 4
        g.remove_during(EdgeId::new(1), 6, 10); // trailing run of 4 (horizon 10)
        let gaps = max_recurrence_gaps(&g, 10);
        assert_eq!(gaps, vec![4, 4, 0]);
    }

    #[test]
    fn never_present_edge_has_gap_equal_to_horizon() {
        let mut g = AbsenceIntervals::new(ring(3));
        g.remove_from(EdgeId::new(2), 0);
        let gaps = max_recurrence_gaps(&g, 25);
        assert_eq!(gaps[2], 25);
    }

    #[test]
    fn t_interval_connectivity_of_static_ring_is_horizon() {
        let g = AlwaysPresent::new(ring(4));
        assert_eq!(t_interval_connectivity(&g, 12), 12);
    }

    #[test]
    fn t_interval_connectivity_detects_alternating_holes() {
        // Period 2: even instants miss e0, odd instants miss e1. Every
        // single snapshot is connected, but any window of 2 has both holes.
        let r = ring(4);
        let frames = vec![
            EdgeSet::from_indices(4, [1, 2, 3]),
            EdgeSet::from_indices(4, [0, 2, 3]),
        ];
        let g = PeriodicSchedule::new(r, frames).expect("valid period");
        assert_eq!(t_interval_connectivity(&g, 20), 1);
    }

    #[test]
    fn t_interval_connectivity_zero_when_disconnected_instant() {
        let mut g = AbsenceIntervals::new(ring(4));
        g.remove_during(EdgeId::new(0), 5, 6);
        g.remove_during(EdgeId::new(2), 5, 6);
        assert_eq!(t_interval_connectivity(&g, 10), 0);
    }

    #[test]
    fn missing_witnesses() {
        let mut g = AbsenceIntervals::new(ring(4));
        g.remove_from(EdgeId::new(3), 40);
        g.remove_during(EdgeId::new(0), 10, 20);
        let witnesses = eventually_missing_witnesses(&g, 100, 30);
        assert_eq!(witnesses, vec![EdgeId::new(3)]);
    }

    #[test]
    fn summary_counts_disconnections() {
        let mut g = AbsenceIntervals::new(ring(4));
        g.remove_during(EdgeId::new(0), 2, 5);
        g.remove_during(EdgeId::new(2), 3, 5); // overlap [3,5) disconnects
        let s = ConnectivitySummary::analyze(&g, 10);
        assert_eq!(s.instants, 10);
        assert_eq!(s.connected_instants, 8);
        assert_eq!(s.longest_disconnection, 2);
        assert!(s.mean_present_millis > 3000 && s.mean_present_millis < 4000);
    }

    #[test]
    fn cot_certificate_accepts_one_missing_edge() {
        let mut g = AbsenceIntervals::new(ring(5));
        g.remove_from(EdgeId::new(1), 10);
        g.remove_during(EdgeId::new(0), 3, 6);
        let verdict = certify_connected_over_time(&g, 100, 8);
        assert_eq!(
            verdict,
            CotVerdict::Certified {
                missing_edge: Some(EdgeId::new(1)),
                max_gap: 3
            }
        );
    }

    #[test]
    fn cot_certificate_rejects_two_missing_edges() {
        let mut g = AbsenceIntervals::new(ring(5));
        g.remove_from(EdgeId::new(1), 10);
        g.remove_from(EdgeId::new(3), 20);
        let verdict = certify_connected_over_time(&g, 100, 8);
        assert_eq!(
            verdict,
            CotVerdict::Violated {
                edges: vec![EdgeId::new(1), EdgeId::new(3)]
            }
        );
        assert!(!verdict.is_certified());
    }

    #[test]
    fn one_edge_predicate() {
        let mut g = AbsenceIntervals::new(ring(5));
        // v2's clockwise edge is e2, counter-clockwise edge is e1.
        g.remove_during(EdgeId::new(2), 3, 10);
        let node = crate::NodeId::new(2);
        assert_eq!(one_edge(&g, node, 3, 9), Some(EdgeId::new(2)));
        // Outside the removal window the predicate fails (both present).
        assert_eq!(one_edge(&g, node, 0, 2), None);
        // Straddling the boundary fails too (e2 not continuously missing).
        assert_eq!(one_edge(&g, node, 0, 9), None);
        // If the other edge also drops out, the predicate fails.
        g.remove_during(EdgeId::new(1), 5, 6);
        assert_eq!(one_edge(&g, node, 3, 9), None);
        assert_eq!(one_edge(&g, node, 7, 9), Some(EdgeId::new(2)));
    }

    #[test]
    fn one_edge_on_multigraph_ring() {
        let mut g = AbsenceIntervals::new(ring(2));
        g.remove_from(EdgeId::new(1), 0);
        // Node 0: cw edge e0 present, ccw edge e1 missing.
        assert_eq!(
            one_edge(&g, crate::NodeId::new(0), 0, 50),
            Some(EdgeId::new(1))
        );
    }

    #[test]
    fn cot_certificate_on_pristine_ring() {
        let g = AlwaysPresent::new(ring(3));
        assert_eq!(
            certify_connected_over_time(&g, 50, 4),
            CotVerdict::Certified {
                missing_edge: None,
                max_gap: 0
            }
        );
    }
}
