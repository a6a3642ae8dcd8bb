package eventsim

import (
	"testing"
)

func TestOrderingByTime(t *testing.T) {
	e := New()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v", e.Now())
	}
}

func TestFIFOAmongSimultaneous(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events out of FIFO order: %v", order)
		}
	}
}

func TestAfterAndNow(t *testing.T) {
	e := New()
	var at1, at2 Time
	e.After(100, func() {
		at1 = e.Now()
		e.After(50, func() { at2 = e.Now() })
	})
	e.Run()
	if at1 != 100 || at2 != 150 {
		t.Fatalf("at1=%v at2=%v", at1, at2)
	}
}

func TestCancel(t *testing.T) {
	e := New()
	ran := false
	ev := e.At(10, func() { ran = true })
	e.Cancel(ev)
	e.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if e.Pending() != 0 {
		t.Fatal("cancelled event still queued")
	}
	// Double-cancel and nil-cancel are no-ops.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := New()
	var order []int
	evs := make([]*Event, 10)
	for i := 0; i < 10; i++ {
		i := i
		evs[i] = e.At(Time(i*10), func() { order = append(order, i) })
	}
	e.Cancel(evs[3])
	e.Cancel(evs[7])
	e.Run()
	want := []int{0, 1, 2, 4, 5, 6, 8, 9}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var ran []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.At(at, func() { ran = append(ran, at) })
	}
	e.RunUntil(12)
	if len(ran) != 2 || e.Now() != 12 {
		t.Fatalf("ran=%v now=%v", ran, e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.RunUntil(100)
	if len(ran) != 4 || e.Now() != 100 {
		t.Fatalf("after second run: ran=%v now=%v", ran, e.Now())
	}
}

func TestRunUntilAdvancesEmptyClock(t *testing.T) {
	e := New()
	e.RunUntil(42)
	if e.Now() != 42 {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestEvery(t *testing.T) {
	e := New()
	count := 0
	var stop func()
	stop = e.Every(10, func() {
		count++
		if count == 3 {
			stop()
		}
	})
	e.RunUntil(1000)
	if count != 3 {
		t.Fatalf("periodic ran %d times", count)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after stop", e.Pending())
	}
}

func TestEveryTiming(t *testing.T) {
	e := New()
	var times []Time
	stop := e.Every(7, func() { times = append(times, e.Now()) })
	e.RunUntil(22)
	stop()
	want := []Time{7, 14, 21}
	if len(times) != len(want) {
		t.Fatalf("times = %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil fn did not panic")
		}
	}()
	New().At(1, nil)
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	New().After(-1, func() {})
}

func TestCounters(t *testing.T) {
	e := New()
	for i := 0; i < 5; i++ {
		e.At(Time(i), func() {})
	}
	ev := e.At(99, func() {})
	e.Cancel(ev)
	e.Run()
	if e.ScheduledEvents() != 6 {
		t.Errorf("scheduled = %d", e.ScheduledEvents())
	}
	if e.ExecutedEvents() != 5 {
		t.Errorf("executed = %d", e.ExecutedEvents())
	}
	if e.QueueHighWater() < 5 {
		t.Errorf("high water = %d", e.QueueHighWater())
	}
}

func TestTimeConversions(t *testing.T) {
	if (2 * Second).Seconds() != 2 {
		t.Error("Seconds conversion wrong")
	}
	if Minute != 60*Second {
		t.Error("Minute constant wrong")
	}
	if s := (1500 * Millisecond).String(); s != "1.500000s" {
		t.Errorf("String() = %q", s)
	}
}

func TestCascadeLoad(t *testing.T) {
	// An event chain that fans out: verifies heap integrity under load.
	e := New()
	count := 0
	var spawn func(depth int)
	spawn = func(depth int) {
		count++
		if depth == 0 {
			return
		}
		for i := 0; i < 3; i++ {
			e.After(Time(i+1), func() { spawn(depth - 1) })
		}
	}
	e.At(0, func() { spawn(8) })
	e.Run()
	want := (3*3*3*3*3*3*3*3*3 - 1) / 2 * 1 // sum 3^0..3^8 = (3^9-1)/2
	if count != want {
		t.Fatalf("count = %d, want %d", count, want)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	e := New()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%1000), func() {})
		if e.Pending() > 10000 {
			e.RunUntil(e.Now() + 500)
		}
	}
	e.Run()
}
