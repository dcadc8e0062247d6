package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// withProcs sets GOMAXPROCS to procs until the test ends.
func withProcs(t *testing.T, procs int) {
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestWorkersResolution(t *testing.T) {
	cases := []struct{ procs, tasks, want int }{
		{1, 100, 1},
		{4, 100, 4},
		{8, 3, 3},
		{8, 0, 1},
		{8, -2, 1},
	}
	for _, c := range cases {
		withProcs(t, c.procs)
		if got := Workers(c.tasks); got != c.want {
			t.Errorf("GOMAXPROCS=%d: Workers(%d) = %d, want %d", c.procs, c.tasks, got, c.want)
		}
	}
}

func TestForEachRunsEveryTask(t *testing.T) {
	for _, procs := range []int{1, 2, 7} {
		withProcs(t, procs)
		const n = 100
		var hits [n]atomic.Int32
		err := ForEach(n, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("GOMAXPROCS=%d: task %d ran %d times", procs, i, hits[i].Load())
			}
		}
	}
}

// TestForEachFirstError: whatever the core count and scheduling, the
// error surfaced is the lowest-indexed one — the error a sequential run
// reports.
func TestForEachFirstError(t *testing.T) {
	for _, procs := range []int{1, 3, 8} {
		withProcs(t, procs)
		err := ForEach(50, func(i int) error {
			if i == 7 || i == 31 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 7 failed" {
			t.Errorf("GOMAXPROCS=%d: err = %v, want task 7's error", procs, err)
		}
	}
}

func TestForEachSequentialStopsEarly(t *testing.T) {
	withProcs(t, 1)
	ran := 0
	sentinel := errors.New("stop")
	err := ForEach(10, func(i int) error {
		ran++
		if i == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if ran != 3 {
		t.Errorf("sequential run executed %d tasks after an error at index 2", ran)
	}
}

func TestForEachZeroTasks(t *testing.T) {
	withProcs(t, 4)
	if err := ForEach(0, func(int) error { return errors.New("never") }); err != nil {
		t.Error("zero tasks must not invoke fn")
	}
}
