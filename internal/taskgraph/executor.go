package taskgraph

import "evprop/internal/potential"

// Executor is the surface the schedulers drive: a task graph plus the
// ability to execute its tasks whole, in range pieces with partial-result
// buffers, or serially. *State is the eager implementation (full-table
// Hugin propagation); internal/lazy provides a pruning implementation whose
// graphs contain only the messages a query's evidence actually perturbs.
//
// The contract the schedulers rely on:
//
//   - Graph() is immutable for the lifetime of the run.
//   - Execute(id) runs one task to completion.
//   - PartitionSize(id) is the length of the index range ExecutePiece
//     accepts for the task; a task is partitionable when it exceeds the
//     scheduler's δ threshold. Implementations return 1 (or any value ≤ δ)
//     for tasks that must never be split.
//   - ExecutePiece(id, lo, hi, buf) runs the [lo,hi) slice of the task.
//     buf is the piece's private partial-result buffer for reduction tasks
//     (marginalize), nil for in-place tasks; afterwards it holds exactly
//     the slice's partial result.
//   - NewPartialBuffer(id) returns a reduction buffer for one piece of the
//     task, or nil when the task reduces nothing and pieces may run in
//     place. Its prior contents do not matter: ExecutePiece overwrites
//     them. It may be called concurrently, also for one task.
//   - Combine(id, bufs) folds the partial buffers of a partitioned task
//     into its destination; it is called exactly once per partitioned task,
//     after every piece completed, with the buffers in completion order.
//   - RunSerial() executes the whole graph on the calling goroutine in
//     topological order.
//
// Tasks connected by graph edges are ordered by the scheduler
// (happens-before via its dependency counters), so an implementation may
// let dependent tasks share mutable tables without further locking, exactly
// as *State does.
type Executor interface {
	Graph() *Graph
	Execute(id int) error
	ExecutePiece(id, lo, hi int, buf *potential.Potential) error
	PartitionSize(id int) int
	NewPartialBuffer(id int) *potential.Potential
	Combine(id int, bufs []*potential.Potential) error
	RunSerial() error
}
