package cluster

import (
	"sync/atomic"
	"time"
)

// Simulator is the makespan model of the paper's cluster, a Runner that
// stands in for the work-stealing pool where the executor count under test
// exceeds the machine's cores. It runs a round's tasks one at a time, times
// each, and reports as the round's elapsed time the greedy makespan of those
// durations (plus TaskOverhead per task) on Executors workers; the model's
// placement yields the worker, steal and busy records it reports through
// observe. Only the evaluation harness (internal/bench) and tests use it.
type Simulator struct {
	// Executors is the modelled worker count.
	Executors int
	// TaskOverhead is the modelled per-task launch cost (Spark pays several
	// milliseconds per task; the harness uses 1 ms).
	TaskOverhead time.Duration

	realNanos atomic.Int64 // serial time actually spent inside tasks
	simNanos  atomic.Int64 // modelled makespans of those rounds
}

// RunBatch implements Runner: it runs the tasks serially in order, stopping
// at the first error or cancellation, and returns the modelled makespan.
func (s *Simulator) RunBatch(tasks []Task, canceled func() bool, observe Observe) (time.Duration, error) {
	durations := make([]time.Duration, len(tasks))
	var serial time.Duration
	for i, t := range tasks {
		if canceled != nil && canceled() {
			return 0, ErrCanceled
		}
		start := time.Now()
		if err := t.Run(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		durations[i] = d + s.TaskOverhead
		serial += d
	}
	span, assign := makespan(durations, s.Executors)
	s.realNanos.Add(int64(serial))
	s.simNanos.Add(int64(span))
	if observe != nil {
		k := max(min(s.Executors, len(tasks)), 1)
		for i, w := range assign {
			observe(w, w != tasks[i].Home%k, durations[i])
		}
	}
	return span, nil
}

// Adjustment returns the delta to add to a real elapsed measurement of the
// rounds this Simulator ran to obtain the modelled duration: the rounds'
// makespans minus the serial time their tasks really took.
func (s *Simulator) Adjustment() time.Duration {
	return time.Duration(s.simNanos.Load() - s.realNanos.Load())
}

// makespan computes the completion time of scheduling tasks (in order)
// greedily onto k workers — each task goes to the earliest-available worker
// — and the worker each task was placed on, the placement the Simulator
// reports as steals and per-worker busy time.
func makespan(tasks []time.Duration, k int) (time.Duration, []int) {
	if k < 1 {
		k = 1
	}
	if k > len(tasks) {
		k = len(tasks)
	}
	if k == 0 {
		return 0, nil
	}
	avail := make([]time.Duration, k)
	assign := make([]int, len(tasks))
	for t, d := range tasks {
		minI := 0
		for i := 1; i < k; i++ {
			if avail[i] < avail[minI] {
				minI = i
			}
		}
		avail[minI] += d
		assign[t] = minI
	}
	var max time.Duration
	for _, a := range avail {
		if a > max {
			max = a
		}
	}
	return max, assign
}
