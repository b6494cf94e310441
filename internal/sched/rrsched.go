package sched

import (
	"thinbench/internal/simclock"
)

// RRSched is the plain round-robin policy the paper uses to model the Linux
// scheduler: a single FIFO run queue, a fixed 10 ms quantum, no wake
// preemption, and no interactive or foreground boosting of any kind.
//
// The real Linux 2.0 scheduler computes a "goodness" value from remaining
// counter ticks, which gives recently-slept processes a modest edge. The
// paper's analysis (§4.2.1) deliberately reduces this to quantum-bounded
// round-robin — "Linux provides no help for interactive processes" — and its
// measurements (Figure 3's linear latency growth) confirm that model, so the
// reproduction implements the paper's model and treats measured behavior as
// ground truth.
type RRSched struct {
	queue []*Thread
}

// quantum is the time slice of the round-robin and SVR4 interactive
// policies: the paper's 10 ms Linux configuration.
const quantum = 10 * simclock.Millisecond

// NewRRSched builds a round-robin policy.
func NewRRSched() *RRSched { return &RRSched{} }

// Name implements Scheduler.
func (s *RRSched) Name() string { return "rr" }

// Enqueue implements Scheduler: wakes and expiries join the tail; a
// preempted thread (rare under this policy, but possible when an experiment
// mixes policies) rejoins the head.
func (s *RRSched) Enqueue(t *Thread, now simclock.Time, reason Reason) {
	if reason == ReasonPreempted {
		s.queue = append([]*Thread{t}, s.queue...)
		return
	}
	s.queue = append(s.queue, t)
}

// Dequeue implements Scheduler.
func (s *RRSched) Dequeue(now simclock.Time) *Thread {
	if len(s.queue) == 0 {
		return nil
	}
	t := s.queue[0]
	copy(s.queue, s.queue[1:])
	s.queue[len(s.queue)-1] = nil
	s.queue = s.queue[:len(s.queue)-1]
	return t
}

// Remove implements Scheduler.
func (s *RRSched) Remove(t *Thread) {
	for i, q := range s.queue {
		if q == t {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// Quantum implements Scheduler.
func (s *RRSched) Quantum(t *Thread) simclock.Duration { return quantum }

// ShouldPreempt implements Scheduler: scheduling decisions happen only at
// quantum boundaries, the source of the paper's "latency catch-22".
func (s *RRSched) ShouldPreempt(running, woken *Thread) bool { return false }

// OnQuantumExpire implements Scheduler.
func (s *RRSched) OnQuantumExpire(t *Thread, now simclock.Time) {}

// OnBlock implements Scheduler.
func (s *RRSched) OnBlock(t *Thread, now simclock.Time) {}

// ReadyCount implements Scheduler.
func (s *RRSched) ReadyCount() int { return len(s.queue) }
