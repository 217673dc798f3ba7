//! Mutation testing of the validator: take a known-valid schedule,
//! corrupt the slots of its wire form (decoding checks only that the
//! slots are well-formed, not that the schedule is feasible), and require
//! `validate` to reject every mutation class. This guards the guard.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::Value;

use hetsched::core::algorithms::Heft;
use hetsched::core::{validate, Schedule, Scheduler};
use hetsched::prelude::*;
use hetsched::workloads::{random_dag, RandomDagParams};

fn instance(seed: u64) -> (Dag, System, Schedule) {
    let mut rng = StdRng::seed_from_u64(seed);
    let dag = random_dag(&RandomDagParams::new(25, 1.0, 2.0), &mut rng);
    let sys = System::heterogeneous_random(&dag, 4, &EtcParams::range_based(1.0), &mut rng);
    let sched = Heft::new().schedule(&dag, &sys);
    assert_eq!(validate(&dag, &sys, &sched), Ok(()));
    (dag, sys, sched)
}

/// Apply `mutate` to the schedule's JSON form and return the corrupted
/// schedule (must still deserialize).
fn mutate_json(sched: &Schedule, mutate: impl FnOnce(&mut Value)) -> Schedule {
    let mut v = serde_json::to_value(sched).expect("serialize");
    mutate(&mut v);
    serde_json::from_value(v).expect("mutated JSON must still deserialize")
}

/// Walk to the first non-empty timeline and return `(proc index, slots)`.
fn first_busy_timeline(v: &mut Value) -> (usize, &mut Vec<Value>) {
    let timelines = v["timelines"].as_array_mut().expect("timelines array");
    let idx = timelines
        .iter()
        .position(|tl| !tl.as_array().unwrap().is_empty())
        .expect("some processor is busy");
    (idx, timelines[idx].as_array_mut().unwrap())
}

#[test]
fn shrinking_a_slot_duration_is_caught() {
    let (dag, sys, sched) = instance(1);
    let bad = mutate_json(&sched, |v| {
        let (_, slots) = first_busy_timeline(v);
        let finish = slots[0]["finish"].as_f64().unwrap();
        slots[0]["finish"] =
            Value::from(finish - 0.5 * (finish - slots[0]["start"].as_f64().unwrap()));
    });
    assert!(
        matches!(
            validate(&dag, &sys, &bad),
            Err(hetsched::core::ValidationError::WrongDuration { .. })
        ),
        "{:?}",
        validate(&dag, &sys, &bad)
    );
}

#[test]
fn pulling_a_task_before_its_data_is_caught() {
    // find a slot with a predecessor and shift it to start at 0
    let (dag, sys, sched) = instance(2);
    // choose a non-entry task with the latest start
    let victim = dag
        .task_ids()
        .filter(|&t| dag.in_degree(t) > 0)
        .max_by(|&a, &b| {
            sched
                .assignment(a)
                .unwrap()
                .1
                .total_cmp(&sched.assignment(b).unwrap().1)
        })
        .expect("graph has non-entry tasks");
    let bad = mutate_json(&sched, |v| {
        // shift every copy of `victim` to start at 0 (keeping duration);
        // the decoder derives the primary record from the moved slot
        for tl in v["timelines"].as_array_mut().unwrap() {
            for slot in tl.as_array_mut().unwrap() {
                if slot["task"] == victim.0 {
                    let dur = slot["finish"].as_f64().unwrap() - slot["start"].as_f64().unwrap();
                    slot["start"] = Value::from(0.0);
                    slot["finish"] = Value::from(dur);
                }
            }
            // keep slots sorted by start after the move
            let arr = tl.as_array_mut().unwrap();
            arr.sort_by(|a, b| {
                a["start"]
                    .as_f64()
                    .unwrap()
                    .total_cmp(&b["start"].as_f64().unwrap())
            });
        }
    });
    // either the move overlaps something or it violates precedence —
    // both must be rejected
    assert!(validate(&dag, &sys, &bad).is_err());
}

#[test]
fn dropping_a_task_is_caught() {
    let (dag, sys, sched) = instance(3);
    let bad = mutate_json(&sched, |v| {
        // erase every slot of task 0: the decoded schedule then has no
        // primary record for it
        for tl in v["timelines"].as_array_mut().unwrap() {
            tl.as_array_mut().unwrap().retain(|slot| slot["task"] != 0);
        }
    });
    assert!(matches!(
        validate(&dag, &sys, &bad),
        Err(hetsched::core::ValidationError::Unscheduled(t)) if t == TaskId(0)
    ));
}

#[test]
fn overlapping_two_slots_is_caught() {
    let (dag, sys, sched) = instance(4);
    // find a processor with >= 2 slots and slide the second onto the first
    let bad = mutate_json(&sched, |v| {
        let timelines = v["timelines"].as_array_mut().unwrap();
        let tl = timelines
            .iter_mut()
            .find(|tl| tl.as_array().unwrap().len() >= 2)
            .expect("some processor runs two tasks");
        let arr = tl.as_array_mut().unwrap();
        let first_start = arr[0]["start"].as_f64().unwrap();
        let dur = arr[1]["finish"].as_f64().unwrap() - arr[1]["start"].as_f64().unwrap();
        arr[1]["start"] = Value::from(first_start);
        arr[1]["finish"] = Value::from(first_start + dur);
        arr.sort_by(|a, b| {
            a["start"]
                .as_f64()
                .unwrap()
                .total_cmp(&b["start"].as_f64().unwrap())
        });
    });
    // the mutation leaves the primary table inconsistent with timelines in
    // start time, but the overlap/duration checks run off timelines and
    // must fire
    assert!(validate(&dag, &sys, &bad).is_err());
}

#[test]
fn swapping_processor_assignment_without_retiming_is_caught() {
    let (dag, sys, sched) = instance(5);
    // move a slot to another processor in the primary table only: the
    // duration no longer matches that processor's ETC entry (and the slot
    // table disagrees). The validator works off timelines, so move the
    // slot there too.
    let bad = mutate_json(&sched, |v| {
        let timelines = v["timelines"].as_array_mut().unwrap();
        let from = timelines
            .iter()
            .position(|tl| !tl.as_array().unwrap().is_empty())
            .unwrap();
        let slot = timelines[from].as_array_mut().unwrap().remove(0);
        let to = (from + 1) % timelines.len();
        timelines[to].as_array_mut().unwrap().insert(0, slot);
        let arr = timelines[to].as_array_mut().unwrap();
        arr.sort_by(|a, b| {
            a["start"]
                .as_f64()
                .unwrap()
                .total_cmp(&b["start"].as_f64().unwrap())
        });
    });
    // heterogeneous ETC: the duration is wrong on the new processor with
    // probability ~1; if not, precedence/overlap fires. Either way: error.
    assert!(validate(&dag, &sys, &bad).is_err());
}
