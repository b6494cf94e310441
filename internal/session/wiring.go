package session

import (
	"thinbench/internal/sched"
	"thinbench/internal/vm"
)

// User is one logged-in session wired onto a shared server: the manifest's
// processes resident in the shared memory manager, plus the session's
// schedulable threads on the shared CPU — an application thread that
// handles the user's input, and a display-encoder thread that turns the
// application's drawing into protocol traffic (the X server / TSE display
// driver role).
type User struct {
	// Procs are the manifest processes created in the shared memory
	// manager, in manifest order.
	Procs []*vm.Process
	// App handles input and application work. It carries the GUI wake
	// boost on the NT policy.
	App *sched.Thread
	// Encoder encodes display updates for the wire.
	Encoder *sched.Thread
}

// AttachUser logs a session into a shared server: its manifest processes
// become resident in m (the compulsory §5.1.1 memory load) and its two
// pipeline threads register with the shared CPU. Both pipeline threads are
// marked Interactive whatever the policy (only the SVR4 interactive class
// reads the mark); background work a user may run later should go on
// separate, non-interactive threads so the class distinction means
// something.
func AttachUser(cpu *sched.CPU, m *vm.Manager, man Manifest) *User {
	u := &User{
		Procs:   Login(m, man),
		App:     cpu.NewThread(9),
		Encoder: cpu.NewThread(8),
	}
	u.App.GUIBoost = true
	u.App.Interactive, u.Encoder.Interactive = true, true
	return u
}

// ReattachUser logs a session back in reusing a detached User record from
// the same seat: each manifest process becomes resident again (the same
// compulsory page-in sequence Login performs, since Logout left the
// processes registered with zero resident pages) and both pipeline threads
// return to service via ReuseThread. Fault order, memory pressure, and
// scheduling behavior are identical to AttachUser with the same manifest;
// only the allocations are saved. The record must have been through
// DetachUser first.
func ReattachUser(cpu *sched.CPU, m *vm.Manager, u *User) *User {
	for _, p := range u.Procs {
		m.TouchAll(p)
	}
	cpu.ReuseThread(u.App, 9)
	cpu.ReuseThread(u.Encoder, 8)
	u.App.GUIBoost = true
	u.App.Interactive, u.Encoder.Interactive = true, true
	return u
}

// DetachUser logs a session out of a shared server: both pipeline threads
// retire (pending work dropped, never scheduled again) and every manifest
// process releases its memory, so the survivors' eviction pressure relaxes
// at the instant of departure. It is the inverse of AttachUser. Work a
// caller put on separate background threads must be retired separately.
func DetachUser(cpu *sched.CPU, m *vm.Manager, u *User) {
	cpu.Retire(u.App)
	cpu.Retire(u.Encoder)
	Logout(m, u.Procs)
}

// WorkingSet returns the user's largest process — the application address
// space whose pages an interaction touches — or nil for an empty manifest.
func (u *User) WorkingSet() *vm.Process {
	var biggest *vm.Process
	for _, p := range u.Procs {
		if biggest == nil || p.Pages() > biggest.Pages() {
			biggest = p
		}
	}
	return biggest
}
