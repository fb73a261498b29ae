package sim

import "testing"

func TestBackoffClampNonPowerOfTwoMax(t *testing.T) {
	// Base=500ns, Max=3µs: the waits must walk 500, 1000, 2000, 3000 and
	// hold there. The pre-fix doubling ("double whenever delay < Max")
	// overshot the cap to 4000 and stayed there forever.
	b := Backoff{Base: 500, Max: 6 * Duration(500)}
	delay := b.Base
	want := []Duration{1000, 2000, 3000, 3000, 3000}
	for i, w := range want {
		delay = b.Next(delay)
		if delay != w {
			t.Fatalf("step %d: delay %v, want %v", i, delay, w)
		}
		if delay > b.Max {
			t.Fatalf("step %d: delay %v exceeds Max %v", i, delay, b.Max)
		}
	}
}

func TestBackoffClampDefaultSequenceUnchanged(t *testing.T) {
	// DefaultBackoff's 500ns -> 4µs cap is an exact power-of-two multiple,
	// so the clamped walk is identical to the historical one — which is why
	// the figure goldens did not shift with the fix.
	b := DefaultBackoff()
	delay := b.Base
	want := []Duration{1000, 2000, 4000, 4000, 4000}
	for i, w := range want {
		delay = b.Next(delay)
		if delay != w {
			t.Fatalf("step %d: delay %v, want %v", i, delay, w)
		}
	}
}
