package sched

import (
	"thinbench/internal/simclock"
)

// SVR4IASched models the interactive-class scheduler of Evans et al.
// ("Optimizing Unix Resource Scheduling for User Interaction", USENIX 1993),
// which the paper holds up as the existence proof that keystroke latency can
// stay flat as load grows: threads marked Interactive form a strictly
// higher class that always dispatches ahead of timeshare threads and
// preempts them on wake. Within each class, round-robin applies.
//
// The reproduction uses it as the "fixed" baseline in the Figure 3 ablation:
// under this policy, average stall length stays constant and small even at
// scheduler queue length 20+, exactly the behavior Evans et al. demonstrated
// on their modified SVR4 kernel.
type SVR4IASched struct {
	interactive []*Thread
	timeshare   []*Thread
}

// NewSVR4IASched builds the policy; both classes share round-robin's
// 10 ms quantum.
func NewSVR4IASched() *SVR4IASched { return &SVR4IASched{} }

// Name implements Scheduler.
func (s *SVR4IASched) Name() string { return "svr4ia" }

// Enqueue implements Scheduler.
func (s *SVR4IASched) Enqueue(t *Thread, now simclock.Time, reason Reason) {
	q := &s.timeshare
	if t.Interactive {
		q = &s.interactive
	}
	if reason == ReasonPreempted {
		*q = append([]*Thread{t}, *q...)
		return
	}
	*q = append(*q, t)
}

// Dequeue implements Scheduler: the interactive class always wins.
func (s *SVR4IASched) Dequeue(now simclock.Time) *Thread {
	if len(s.interactive) > 0 {
		t := s.interactive[0]
		s.interactive = popFront(s.interactive)
		return t
	}
	if len(s.timeshare) > 0 {
		t := s.timeshare[0]
		s.timeshare = popFront(s.timeshare)
		return t
	}
	return nil
}

func popFront(q []*Thread) []*Thread {
	copy(q, q[1:])
	q[len(q)-1] = nil
	return q[:len(q)-1]
}

// Remove implements Scheduler.
func (s *SVR4IASched) Remove(t *Thread) {
	q := &s.timeshare
	if t.Interactive {
		q = &s.interactive
	}
	for i, x := range *q {
		if x == t {
			*q = append((*q)[:i], (*q)[i+1:]...)
			return
		}
	}
}

// Quantum implements Scheduler.
func (s *SVR4IASched) Quantum(t *Thread) simclock.Duration { return quantum }

// ShouldPreempt implements Scheduler: an interactive wake immediately
// displaces a timeshare thread — the core of the Evans et al. design.
func (s *SVR4IASched) ShouldPreempt(running, woken *Thread) bool {
	return woken.Interactive && !running.Interactive
}

// OnQuantumExpire implements Scheduler.
func (s *SVR4IASched) OnQuantumExpire(t *Thread, now simclock.Time) {}

// OnBlock implements Scheduler.
func (s *SVR4IASched) OnBlock(t *Thread, now simclock.Time) {}

// ReadyCount implements Scheduler.
func (s *SVR4IASched) ReadyCount() int { return len(s.interactive) + len(s.timeshare) }
