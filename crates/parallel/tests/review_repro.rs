use scrack_core::CrackConfig;
use scrack_parallel::{BatchOp, BatchScheduler, ParallelStrategy};
use scrack_types::QueryRange;

#[test]
fn delete_before_insert_of_absent_key_submission_order() {
    // Column holds keys 0..1000. Key 5000 is absent.
    let data: Vec<u64> = (0..1000).collect();
    let mut sched = BatchScheduler::new(data, 2, ParallelStrategy::Crack, CrackConfig::default(), 1);
    let ops = vec![
        BatchOp::Delete(5000u64),      // absent: should evaporate at its submission point
        BatchOp::Insert(5000u64),      // submitted AFTER the delete
        BatchOp::Select(QueryRange::new(4999, 5001)),
    ];
    let results = sched.execute_ops(&ops);
    // Submission-order semantics (the documented model + ops_oracle): select sees the insert.
    assert_eq!(results[2], (1, 5000), "later select must observe the insert submitted before it");
}
