//go:build unix

package netsim

import (
	"runtime"
	"slices"
	"syscall"
	"testing"
	"time"
)

// TestSubFloorLatenessWhileParked sends one 10 µs IntraProcess message at a
// time and blocks on a channel until it arrives, so the dispatcher is the
// only runnable goroutine while it waits. A runtime timer armed for such a
// deadline fires ~1 ms late (the netpoller's whole-millisecond floor); the
// dispatcher must instead deliver it within a fraction of that, and never
// before its deadline.
//
// The test runs with one P. With more, a second thread that is still
// spinning after the last wakeup can run the timer on time, so whether a
// hop pays the floor depends on how fast the OS wakes threads; with one P
// every hop reaches the fully parked state the floor applies to.
func TestSubFloorLatenessWhileParked(t *testing.T) {
	const (
		msgs    = 200
		latency = 10 * time.Microsecond
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	arrived := make(chan time.Time, 1)
	n, err := NewNetwork(SingleNode(2), LatencyModel{IntraProcess: latency}, func(dst int, payload any) {
		arrived <- time.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	late := make([]time.Duration, 0, msgs)
	for i := 0; i < msgs; i++ {
		// Send stamps the deadline after this instant, so sent+latency is
		// a lower bound on it: lateness below is an upper bound, and a
		// delivery before sent+latency is certainly early.
		sent := time.Now()
		n.Send(0, 1, i, 0)
		got := <-arrived
		d := got.Sub(sent.Add(latency))
		if d < 0 {
			t.Fatalf("message %d delivered %v before its deadline", i, -d)
		}
		late = append(late, d)
	}
	slices.Sort(late)
	if med := late[msgs/2]; med >= 250*time.Microsecond {
		t.Errorf("median lateness %v over %d messages, want < 250µs (p90 %v)", med, msgs, late[msgs*9/10])
	}
}

// TestLongWaitDoesNotSpin holds one 50 ms deadline in the fabric and checks
// that the process burns almost no CPU meanwhile: waits of the timer floor
// or more must sleep on the timer, not yield in a loop.
func TestLongWaitDoesNotSpin(t *testing.T) {
	const wait = 50 * time.Millisecond
	arrived := make(chan time.Time, 1)
	n, err := NewNetwork(SingleNode(2), ZeroLatency(), func(dst int, payload any) {
		arrived <- time.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	before := cpuTime(t)
	sent := time.Now()
	n.SendAfter(1, "timer", wait)
	got := <-arrived
	used := cpuTime(t) - before
	if early := sent.Add(wait).Sub(got); early > 0 {
		t.Fatalf("delivered %v before its deadline", early)
	}
	if used >= 15*time.Millisecond {
		t.Errorf("process CPU time rose %v during a %v wait, want < 15ms", used, wait)
	}
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
