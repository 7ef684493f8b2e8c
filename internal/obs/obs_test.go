package obs

import (
	"reflect"
	"testing"
)

func TestTeeFansOutAndCollapses(t *testing.T) {
	if Tee() != Nop() {
		t.Fatal("Tee() should collapse to Nop")
	}
	c := NewCollector()
	if Tee(nil, c) != Recorder(c) {
		t.Fatal("Tee(nil, c) should unwrap to c")
	}

	a, b := NewCollector(), NewCollector()
	r := Tee(a, b)
	r.Count("sim.n", 2)
	r.Observe("sim.d", 0.5)
	r.CountVolatile("v.n", 1)
	r.ObserveVolatile("v.d", 0.25)
	r.MaxVolatile("v.m", 9)
	r.Span("t", "checkpoint", 0, 1, map[string]float64{"level": 2})
	r.Instant("t", "failure", 1, nil)

	sa, sb := a.Registry.Snapshot(), b.Registry.Snapshot()
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("teed registries diverge:\n%+v\n%+v", sa, sb)
	}
	if n, _ := sa.Counter("sim.n"); n != 2 {
		t.Fatalf("sim.n = %d, want 2", n)
	}
	ea, eb := a.Trace.Events("t"), b.Trace.Events("t")
	if !reflect.DeepEqual(ea, eb) || len(ea) != 2 {
		t.Fatalf("teed traces diverge or wrong length: %v vs %v", ea, eb)
	}
}
