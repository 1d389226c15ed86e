package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30*Microsecond, func() { got = append(got, 3) })
	e.Schedule(10*Microsecond, func() { got = append(got, 1) })
	e.Schedule(20*Microsecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30*Microsecond {
		t.Fatalf("final time = %v, want 30µs", e.Now())
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*Microsecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events fired out of order: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Schedule(1*Microsecond, func() {
		trace = append(trace, "a")
		e.Schedule(1*Microsecond, func() { trace = append(trace, "c") })
	})
	e.Schedule(2*Microsecond-1, func() { trace = append(trace, "b") })
	e.Run()
	want := "abc"
	var got string
	for _, s := range trace {
		got += s
	}
	if got != want {
		t.Fatalf("trace = %q, want %q", got, want)
	}
}

// TestEngineStep: Step fires the earliest event alone, at its instant,
// and leaves the later one queued.
func TestEngineStep(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(10*Microsecond, func() { fired++ })
	e.Schedule(20*Microsecond, func() { fired++ })
	if !e.Step() || fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != 10*Microsecond {
		t.Fatalf("now = %v, want 10µs", e.Now())
	}
	e.Run() // the later event stayed queued
	if fired != 2 {
		t.Fatalf("fired = %d after Run, want 2", fired)
	}
}

func TestEngineRejectsPastScheduling(t *testing.T) {
	e := NewEngine()
	e.Schedule(10*Microsecond, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(5*Microsecond, func() {})
}

func TestTimeConversions(t *testing.T) {
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if got := (2500 * Millisecond).Seconds(); got != 2.5 {
		t.Fatalf("Seconds() = %v, want 2.5", got)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandBytesCoversTail(t *testing.T) {
	r := NewRand(7)
	p := make([]byte, 13) // deliberately not a multiple of 8
	r.Bytes(p)
	zero := 0
	for _, b := range p {
		if b == 0 {
			zero++
		}
	}
	if zero == len(p) {
		t.Fatal("Bytes left buffer all-zero")
	}
}

// Property: engine executes every scheduled event exactly once and ends
// at the maximum scheduled instant.
func TestEngineCompletenessProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		count := 0
		var max Time
		for _, d := range delays {
			dt := Time(d) * Microsecond
			if dt > max {
				max = dt
			}
			e.Schedule(dt, func() { count++ })
		}
		e.Run()
		return count == len(delays) && (len(delays) == 0 || e.Now() == max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineFiredAndRandHelpers(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(Microsecond, func() { fired++ })
	e.Schedule(2*Microsecond, func() { fired++ })
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d", fired)
	}
	r := NewRand(5)
	for i := 0; i < 100; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestTimeStringAndNegativePanics(t *testing.T) {
	if (1500 * Microsecond).String() == "" {
		t.Fatal("empty time string")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}
