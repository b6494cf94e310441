package sched

import (
	"testing"

	"thinbench/internal/simclock"
)

// fuzzItem is one work item FuzzCPU submitted, found again by its A
// payload because item pointers are recycled. Its B payload is the
// instant it was submitted at.
type fuzzItem struct {
	thread int
	submit simclock.Time
	cpu    simclock.Duration
	done   int
	doneAt simclock.Time
}

// fuzzOp is one decoded FuzzCPU operation at a simulated instant: a
// submission or, when retire is set, a retirement.
type fuzzOp struct {
	at     simclock.Time
	thread int
	retire bool
	cpu    simclock.Duration
}

// decodeCPUFuzz turns FuzzCPU's bytes into a policy, threads and ops.
//
// Byte 0 picks the policy: rr, nt with stretch 1-3 and the balance-set
// scan, or svr4ia. Byte 1 picks 1-6 threads, one byte each: the low
// nibble is the base priority (1-16) and bits 4-6 set GUIBoost,
// Interactive and Foreground. Every op after that takes three bytes. The
// first picks the thread (low three bits) and the kind: a retirement when
// bits 3-5 are clear, else a submission. The second is the gap since the
// previous op in 250 µs steps, the third the CPU demand (b² × 100 µs, up
// to 6.5 s, so starved threads live long enough for the scan to boost
// them). An op on a thread already retired is dropped: a retired thread
// takes no new work.
func decodeCPUFuzz(data []byte) (policy *Policy, scan bool, threads []byte, ops []fuzzOp) {
	for len(data) < 2 {
		data = append(data, 0)
	}
	switch data[0] % 3 {
	case 0:
		policy = NewRR()
	case 1:
		policy, scan = NewNT(1+int(data[0]/3)%3), true
	case 2:
		policy = NewSVR4IA()
	}
	n := 1 + int(data[1])%6
	data = data[2:]
	for i := 0; i < n; i++ {
		var b byte
		if i < len(data) {
			b = data[i]
		}
		threads = append(threads, b)
	}
	data = data[min(n, len(data)):]
	retired := make([]bool, n)
	var at simclock.Time
	for ; len(data) >= 3 && len(ops) < 64; data = data[3:] {
		op := fuzzOp{thread: int(data[0]&7) % n, retire: data[0]>>3&7 == 0}
		at = at.Add(simclock.Duration(data[1]) * 250 * simclock.Microsecond)
		op.at = at
		op.cpu = simclock.Duration(data[2]) * simclock.Duration(data[2]) * 100 * simclock.Microsecond
		if retired[op.thread] {
			continue
		}
		retired[op.thread] = op.retire
		ops = append(ops, op)
	}
	return policy, scan, threads, ops
}

// FuzzCPU runs drawn threads, submissions and retirements on one CPU
// until 10 s past the last op, cancels the NT balance-set scan, drains
// the engine, and checks that every item is accounted for. Each completion
// fires with the (A, B) payload its item was submitted with. An item on a
// thread never retired completes exactly once, no earlier than its
// submission plus its CPU; an item on a retired thread completes at most
// once, and not after the retirement. The CPU's busy time covers the
// completed items' CPU and exceeds it by no more than the CPU of the
// items the retirements dropped.
func FuzzCPU(f *testing.F) {
	// Round-robin: two plain threads, a 40 ms item, then two short ones on
	// the other thread.
	f.Add([]byte{0, 1, 0x00, 0x00, 0x08, 0, 20, 0x11, 4, 3, 0x09, 4, 5})
	// NT at stretch 3: a boosted foreground editor at base 9 preempts a
	// 6.25 s hog at base 10, and a victim at base 2 starves until the
	// balance-set scan boosts it.
	f.Add([]byte{7, 2, 0x58, 0x09, 0x01, 0x09, 0, 250, 0x0a, 1, 10, 0x10, 4, 3, 0x18, 200, 3})
	// SVR4: an interactive editor preempts a timeshare hog; the hog is
	// retired while it runs, then takes no more work, and the editor is
	// retired idle.
	f.Add([]byte{2, 1, 0x20, 0x00, 0x09, 0, 60, 0x10, 2, 3, 0x18, 2, 3, 0x01, 20, 0, 0x00, 40, 0, 0x09, 1, 5})
	// NT at stretch 1: one thread retired while it runs one item and
	// holds another queued.
	f.Add([]byte{1, 0, 0x08, 0x08, 0, 30, 0x10, 1, 30, 0x00, 8, 0})
	// NT at stretch 1: a base 4 thread preempted mid-item by a base 12
	// one and retired while ready.
	f.Add([]byte{1, 1, 0x03, 0x0b, 0x08, 0, 30, 0x11, 4, 30, 0x00, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		policy, scan, flags, ops := decodeCPUFuzz(data)
		eng := simclock.NewEngine()
		cpu := NewCPU(eng, policy)
		threads := make([]*Thread, len(flags))
		for i, b := range flags {
			th := cpu.NewThread(1 + int(b&15))
			th.GUIBoost, th.Interactive, th.Foreground = b&16 != 0, b&32 != 0, b&64 != 0
			threads[i] = th
		}
		var stopScan func()
		if scan {
			stopScan = policy.InstallBalanceSet(eng)
		}

		var items []fuzzItem
		retiredAt := make([]simclock.Time, len(threads))
		for i := range retiredAt {
			retiredAt[i] = -1
		}
		onDone := func(now simclock.Time, a, b int) {
			if a < 0 || a >= len(items) || b != int(items[a].submit) {
				t.Fatalf("a completion at %v fired with (%d, %d), submitted with no such payload", now, a, b)
			}
			items[a].done++
			items[a].doneAt = now
		}
		for _, op := range ops {
			eng.At(op.at, func(now simclock.Time, _, _ int) {
				th := threads[op.thread]
				if op.retire {
					retiredAt[op.thread] = now
					cpu.Retire(th)
					return
				}
				it := cpu.Acquire()
				it.CPU, it.A, it.B, it.OnDone = op.cpu, len(items), int(now), onDone
				items = append(items, fuzzItem{thread: op.thread, submit: now, cpu: op.cpu})
				cpu.Submit(th, it)
			}, 0, 0)
		}
		if len(ops) > 0 {
			eng.RunUntil(ops[len(ops)-1].at.Add(10 * simclock.Second))
		}
		if stopScan != nil {
			stopScan()
		}
		eng.Drain(10_000_000)

		var completed, dropped simclock.Duration
		for i, it := range items {
			switch r := retiredAt[it.thread]; {
			case r < 0 && it.done != 1:
				t.Fatalf("item %d on live thread %d completed %d times", i, it.thread, it.done)
			case r >= 0 && it.done > 1:
				t.Fatalf("item %d on retired thread %d completed %d times", i, it.thread, it.done)
			case r >= 0 && it.done == 1 && it.doneAt > r:
				t.Fatalf("item %d completed at %v, after its thread's retirement at %v", i, it.doneAt, r)
			case it.done == 1 && it.doneAt < it.submit.Add(it.cpu):
				t.Fatalf("item %d submitted at %v with %v of CPU completed at %v", i, it.submit, it.cpu, it.doneAt)
			}
			if it.done == 1 {
				completed += it.cpu
			} else {
				dropped += it.cpu
			}
		}
		if busy := cpu.BusyTotal(); busy < completed || busy > completed+dropped {
			t.Fatalf("busy %v, want from the completed items' %v to that plus the dropped items' %v", busy, completed, dropped)
		}
		if cpu.Running() != nil || policy.ReadyCount() != 0 {
			t.Fatalf("after the drain %v runs and %d threads are ready", cpu.Running(), policy.ReadyCount())
		}
	})
}
