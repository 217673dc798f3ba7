//! Earliest-finish-time machinery shared by every list scheduler:
//! data-ready times (duplication-aware), per-processor EFT, best-processor
//! selection, and candidate enumeration for lookahead policies.
//!
//! Public entry points take a [`ProblemInstance`]; the crate-internal
//! `*_raw` twins take the underlying `(dag, sys)` pair directly and hold
//! the actual fold bodies (the reference engine and trial-schedule loops
//! call them without an instance in hand). Both paths are the same code.

use hetsched_dag::{Dag, TaskId};
use hetsched_platform::{ProcId, System};

use crate::instance::ProblemInstance;
use crate::schedule::Schedule;

/// Arrival time on processor `p` of the data produced by task `u` for the
/// edge `(u, t)` carrying `data` units.
///
/// With duplication a consumer may read from *any* copy of `u`; the arrival
/// is therefore the minimum over copies `(q, finish)` of
/// `finish + comm(data, q, p)`.
///
/// # Panics
/// Panics if `u` has no scheduled copy yet (a scheduler bug: list
/// schedulers only place tasks whose predecessors are placed).
pub fn arrival_from(sys: &System, sched: &Schedule, u: TaskId, data: f64, p: ProcId) -> f64 {
    let copies = sched.copies(u);
    assert!(
        !copies.is_empty(),
        "predecessor {u} not scheduled before its consumer"
    );
    copies
        .iter()
        .map(|&(q, fin)| fin + sys.comm_time(data, q, p))
        .fold(f64::INFINITY, f64::min)
}

/// Data-ready time of task `t` on processor `p`: the latest arrival over
/// all predecessors (0 for entry tasks).
pub fn data_ready_time(inst: &ProblemInstance, sched: &Schedule, t: TaskId, p: ProcId) -> f64 {
    data_ready_time_raw(inst.dag(), inst.sys(), sched, t, p)
}

pub(crate) fn data_ready_time_raw(
    dag: &Dag,
    sys: &System,
    sched: &Schedule,
    t: TaskId,
    p: ProcId,
) -> f64 {
    dag.predecessors(t)
        .map(|(u, data)| arrival_from(sys, sched, u, data, p))
        .fold(0.0f64, f64::max)
}

/// The *critical parent* of `t` w.r.t. processor `p`: the predecessor whose
/// message arrives last (ties broken toward the smaller task id). `None`
/// for entry tasks. Duplication heuristics duplicate exactly this parent.
///
/// The id tie-break is explicit rather than relying on iteration order:
/// every `Dag` comes out of the builder, which sorts edges so
/// [`Dag::predecessors`] yields ascending ids, but the duplicated parent
/// should not hinge on that storage detail.
pub fn critical_parent(
    inst: &ProblemInstance,
    sched: &Schedule,
    t: TaskId,
    p: ProcId,
) -> Option<TaskId> {
    critical_parent_raw(inst.dag(), inst.sys(), sched, t, p)
}

pub(crate) fn critical_parent_raw(
    dag: &Dag,
    sys: &System,
    sched: &Schedule,
    t: TaskId,
    p: ProcId,
) -> Option<TaskId> {
    let mut best: Option<(TaskId, f64)> = None;
    for (u, data) in dag.predecessors(t) {
        let a = arrival_from(sys, sched, u, data, p);
        match best {
            Some((bu, ba)) if a < ba || (a == ba && bu <= u) => {}
            _ => best = Some((u, a)),
        }
    }
    best.map(|(u, _)| u)
}

/// Earliest start and finish of `t` on `p` given the current partial
/// schedule. `insertion` selects gap search vs append placement.
pub fn eft_on(
    inst: &ProblemInstance,
    sched: &Schedule,
    t: TaskId,
    p: ProcId,
    insertion: bool,
) -> (f64, f64) {
    eft_on_raw(inst.dag(), inst.sys(), sched, t, p, insertion)
}

pub(crate) fn eft_on_raw(
    dag: &Dag,
    sys: &System,
    sched: &Schedule,
    t: TaskId,
    p: ProcId,
    insertion: bool,
) -> (f64, f64) {
    let ready = data_ready_time_raw(dag, sys, sched, t, p);
    let dur = sys.exec_time(t, p);
    let start = sched.earliest_start(p, ready, dur, insertion);
    (start, start + dur)
}

/// The processor giving `t` the minimum EFT, with its start and finish.
/// Ties break toward the smaller processor id (deterministic).
pub fn best_eft(
    inst: &ProblemInstance,
    sched: &Schedule,
    t: TaskId,
    insertion: bool,
) -> (ProcId, f64, f64) {
    best_eft_raw(inst.dag(), inst.sys(), sched, t, insertion)
}

pub(crate) fn best_eft_raw(
    dag: &Dag,
    sys: &System,
    sched: &Schedule,
    t: TaskId,
    insertion: bool,
) -> (ProcId, f64, f64) {
    let mut best: Option<(ProcId, f64, f64)> = None;
    for p in sys.proc_ids() {
        let (s, f) = eft_on_raw(dag, sys, sched, t, p, insertion);
        match best {
            Some((_, _, bf)) if f >= bf => {}
            _ => best = Some((p, s, f)),
        }
    }
    best.expect("system has at least one processor")
}

/// All processors whose EFT for `t` is within `tolerance` (relative) of the
/// best EFT, sorted by EFT then processor id. Lookahead policies re-rank
/// this near-tie set with a second criterion.
///
/// `tolerance = 0.0` returns exactly the EFT-minimal set. When the best EFT
/// is `0.0` (zero-weight entry tasks at time zero) a relative band has zero
/// width, so any positive tolerance falls back to an absolute epsilon of
/// [`crate::schedule::TIME_EPS`]: every processor finishing "at" time zero
/// by the schedule's own time resolution is a candidate (see
/// `tolerance_cut`).
pub fn eft_candidates(
    inst: &ProblemInstance,
    sched: &Schedule,
    t: TaskId,
    insertion: bool,
    tolerance: f64,
) -> Vec<(ProcId, f64, f64)> {
    eft_candidates_raw(inst.dag(), inst.sys(), sched, t, insertion, tolerance)
}

pub(crate) fn eft_candidates_raw(
    dag: &Dag,
    sys: &System,
    sched: &Schedule,
    t: TaskId,
    insertion: bool,
    tolerance: f64,
) -> Vec<(ProcId, f64, f64)> {
    debug_assert!(tolerance >= 0.0);
    let mut all: Vec<(ProcId, f64, f64)> = sys
        .proc_ids()
        .map(|p| {
            let (s, f) = eft_on_raw(dag, sys, sched, t, p, insertion);
            (p, s, f)
        })
        .collect();
    all.sort_by(|a, b| a.2.total_cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
    let cut = tolerance_cut(all[0].2, tolerance);
    all.retain(|&(_, _, f)| f <= cut);
    all
}

/// The inclusion threshold of [`eft_candidates`]: the largest EFT still
/// considered a near-tie of `best` under a relative `tolerance`.
///
/// * infinite tolerance keeps everything (`best * (1 + inf)` would be NaN
///   when `best == 0`);
/// * `best == 0.0` with a positive tolerance widens to the absolute
///   [`crate::TIME_EPS`] band — a purely relative band would collapse to
///   width zero and exclude every non-exact tie, contradicting the
///   "near-tie set" contract;
/// * otherwise the relative band, plus a `1e-12` absolute slack so exact
///   ties survive rounding.
pub(crate) fn tolerance_cut(best: f64, tolerance: f64) -> f64 {
    if tolerance.is_infinite() {
        f64::INFINITY
    } else if best == 0.0 && tolerance > 0.0 {
        crate::schedule::TIME_EPS
    } else {
        best * (1.0 + tolerance) + 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_dag::builder::dag_from_edges;
    use hetsched_dag::Dag;
    use hetsched_platform::{EtcMatrix, Network, System};

    /// Two tasks in a chain, data volume 6, two processors.
    /// ETC: t0 -> [2, 4], t1 -> [3, 1]. Unit network.
    fn setup() -> (Dag, System) {
        let dag = dag_from_edges(&[1.0, 1.0], &[(0, 1, 6.0)]).unwrap();
        let etc = EtcMatrix::from_fn(2, 2, |t, p| match (t.index(), p.index()) {
            (0, 0) => 2.0,
            (0, 1) => 4.0,
            (1, 0) => 3.0,
            (1, 1) => 1.0,
            _ => unreachable!(),
        });
        (dag, System::new(etc, Network::unit(2)))
    }

    #[test]
    fn arrival_local_vs_remote() {
        let (dag, sys) = setup();
        let mut sched = Schedule::new(2, 2);
        sched.insert(TaskId(0), ProcId(0), 0.0, 2.0).unwrap();
        // local read: no comm
        assert_eq!(arrival_from(&sys, &sched, TaskId(0), 6.0, ProcId(0)), 2.0);
        // remote read: + 6 units over unit bandwidth
        assert_eq!(arrival_from(&sys, &sched, TaskId(0), 6.0, ProcId(1)), 8.0);
        let _ = dag;
    }

    #[test]
    fn arrival_prefers_closest_copy() {
        let (_, sys) = setup();
        let mut sched = Schedule::new(2, 2);
        sched.insert(TaskId(0), ProcId(0), 0.0, 2.0).unwrap();
        sched
            .insert_duplicate(TaskId(0), ProcId(1), 0.0, 4.0)
            .unwrap();
        // consumer on p1 reads the local (later-finishing!) copy because
        // the remote message would arrive at 2 + 6 = 8 > 4
        assert_eq!(arrival_from(&sys, &sched, TaskId(0), 6.0, ProcId(1)), 4.0);
        // consumer on p0 still reads locally at 2
        assert_eq!(arrival_from(&sys, &sched, TaskId(0), 6.0, ProcId(0)), 2.0);
    }

    #[test]
    fn data_ready_time_takes_max_over_parents() {
        // two parents feeding one child
        let dag = dag_from_edges(&[1.0, 1.0, 1.0], &[(0, 2, 2.0), (1, 2, 3.0)]).unwrap();
        let sys = System::homogeneous_unit(&dag, 2);
        let mut sched = Schedule::new(3, 2);
        sched.insert(TaskId(0), ProcId(0), 0.0, 1.0).unwrap();
        sched.insert(TaskId(1), ProcId(1), 0.0, 1.0).unwrap();
        // on p0: t0 local (1.0), t1 remote (1 + 3 = 4) -> DRT 4
        assert_eq!(
            data_ready_time_raw(&dag, &sys, &sched, TaskId(2), ProcId(0)),
            4.0
        );
        // on p1: t0 remote (1 + 2 = 3), t1 local (1) -> DRT 3
        assert_eq!(
            data_ready_time_raw(&dag, &sys, &sched, TaskId(2), ProcId(1)),
            3.0
        );
        assert_eq!(
            critical_parent_raw(&dag, &sys, &sched, TaskId(2), ProcId(0)),
            Some(TaskId(1))
        );
        assert_eq!(
            critical_parent_raw(&dag, &sys, &sched, TaskId(2), ProcId(1)),
            Some(TaskId(0))
        );
    }

    #[test]
    fn entry_task_drt_is_zero_and_no_critical_parent() {
        let (dag, sys) = setup();
        let sched = Schedule::new(2, 2);
        assert_eq!(
            data_ready_time_raw(&dag, &sys, &sched, TaskId(0), ProcId(1)),
            0.0
        );
        assert_eq!(
            critical_parent_raw(&dag, &sys, &sched, TaskId(0), ProcId(0)),
            None
        );
    }

    #[test]
    fn best_eft_weighs_comm_against_speed() {
        let (dag, sys) = setup();
        let mut sched = Schedule::new(2, 2);
        sched.insert(TaskId(0), ProcId(0), 0.0, 2.0).unwrap();
        // t1 on p0: start 2, finish 2 + 3 = 5
        // t1 on p1: start 8 (message), finish 9 — despite p1 being faster
        let (p, s, f) = best_eft_raw(&dag, &sys, &sched, TaskId(1), true);
        assert_eq!((p, s, f), (ProcId(0), 2.0, 5.0));
    }

    #[test]
    fn eft_uses_insertion_gap() {
        let (dag, sys) = setup();
        let mut sched = Schedule::new(2, 2);
        // artificially occupy p0 late, leaving a gap
        sched.insert(TaskId(1), ProcId(0), 10.0, 3.0).unwrap();
        let (s, f) = eft_on_raw(&dag, &sys, &sched, TaskId(0), ProcId(0), true);
        assert_eq!((s, f), (0.0, 2.0), "fits in the leading gap");
        let (s2, _) = eft_on_raw(&dag, &sys, &sched, TaskId(0), ProcId(0), false);
        assert_eq!(s2, 13.0, "append policy goes to the end");
    }

    #[test]
    fn candidates_ordering_and_tolerance() {
        let (dag, sys) = setup();
        let sched = Schedule::new(2, 2);
        // entry task t0: EFTs are 2 (p0) and 4 (p1)
        let tight = eft_candidates_raw(&dag, &sys, &sched, TaskId(0), true, 0.0);
        assert_eq!(tight.len(), 1);
        assert_eq!(tight[0].0, ProcId(0));
        let loose = eft_candidates_raw(&dag, &sys, &sched, TaskId(0), true, 1.0);
        assert_eq!(loose.len(), 2);
        assert!(loose[0].2 <= loose[1].2);
    }

    #[test]
    #[should_panic(expected = "not scheduled before its consumer")]
    fn arrival_panics_on_unscheduled_parent() {
        let (dag, sys) = setup();
        let sched = Schedule::new(2, 2);
        data_ready_time_raw(&dag, &sys, &sched, TaskId(1), ProcId(0));
    }

    #[test]
    fn zero_best_tolerance_keeps_time_eps_band() {
        // zero-weight entry task: the best EFT is exactly 0.0, so a
        // relative band has zero width. A second processor finishing
        // within TIME_EPS must still count as a near-tie.
        let dag = dag_from_edges(&[0.0, 1.0], &[(0, 1, 1.0)]).unwrap();
        let etc = EtcMatrix::from_fn(2, 2, |t, p| match (t.index(), p.index()) {
            (0, 0) => 0.0,
            (0, 1) => 0.5e-9, // inside the TIME_EPS = 1e-9 resolution
            (1, _) => 1.0,
            _ => unreachable!(),
        });
        let sys = System::new(etc, Network::unit(2));
        let sched = Schedule::new(2, 2);
        let loose = eft_candidates_raw(&dag, &sys, &sched, TaskId(0), true, 0.25);
        assert_eq!(
            loose.len(),
            2,
            "positive tolerance at best == 0 must widen to TIME_EPS, got {loose:?}"
        );
        // tolerance 0.0 still means the exact EFT-minimal set
        let tight = eft_candidates_raw(&dag, &sys, &sched, TaskId(0), true, 0.0);
        assert_eq!(tight.len(), 1);
        assert_eq!(tight[0].0, ProcId(0));
    }

    #[test]
    fn tolerance_cut_zero_best_cases() {
        assert_eq!(tolerance_cut(0.0, 0.5), crate::schedule::TIME_EPS);
        assert_eq!(tolerance_cut(0.0, 0.0), 1e-12, "zero tolerance stays exact");
        assert_eq!(tolerance_cut(0.0, f64::INFINITY), f64::INFINITY);
        assert_eq!(tolerance_cut(10.0, 0.1), 10.0 * 1.1 + 1e-12);
    }

    #[test]
    fn instance_wrappers_match_raw() {
        let (dag, sys) = setup();
        let inst = ProblemInstance::from_refs(&dag, &sys);
        let mut sched = Schedule::new(2, 2);
        sched.insert(TaskId(0), ProcId(0), 0.0, 2.0).unwrap();
        let t = TaskId(1);
        assert_eq!(
            data_ready_time(&inst, &sched, t, ProcId(1)),
            data_ready_time_raw(&dag, &sys, &sched, t, ProcId(1))
        );
        assert_eq!(
            critical_parent(&inst, &sched, t, ProcId(1)),
            critical_parent_raw(&dag, &sys, &sched, t, ProcId(1))
        );
        assert_eq!(
            eft_on(&inst, &sched, t, ProcId(0), true),
            eft_on_raw(&dag, &sys, &sched, t, ProcId(0), true)
        );
        assert_eq!(
            best_eft(&inst, &sched, t, true),
            best_eft_raw(&dag, &sys, &sched, t, true)
        );
        assert_eq!(
            eft_candidates(&inst, &sched, t, true, 0.5),
            eft_candidates_raw(&dag, &sys, &sched, t, true, 0.5)
        );
    }

    #[test]
    fn critical_parent_tie_break_prefers_the_smaller_id() {
        // t0 and t1 both feed t2 with equal data; scheduled symmetrically,
        // their messages reach a third processor at the same instant. The
        // critical parent must be the smaller id (t0).
        let dag = dag_from_edges(&[1.0, 1.0, 1.0], &[(0, 2, 4.0), (1, 2, 4.0)]).unwrap();
        let sys = System::homogeneous_unit(&dag, 3);
        let mut sched = Schedule::new(3, 3);
        sched.insert(TaskId(0), ProcId(0), 0.0, 1.0).unwrap();
        sched.insert(TaskId(1), ProcId(1), 0.0, 1.0).unwrap();
        // both arrivals on p2 are exactly 1 + 4 = 5 -> exact tie
        assert_eq!(arrival_from(&sys, &sched, TaskId(0), 4.0, ProcId(2)), 5.0);
        assert_eq!(arrival_from(&sys, &sched, TaskId(1), 4.0, ProcId(2)), 5.0);
        assert_eq!(
            critical_parent_raw(&dag, &sys, &sched, TaskId(2), ProcId(2)),
            Some(TaskId(0)),
            "tie must break toward the smaller task id"
        );
    }
}
