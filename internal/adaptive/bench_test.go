package adaptive

import (
	"testing"

	"rdmasem/internal/core"
	"rdmasem/internal/sim"
)

// BenchmarkRuntimeWriteBatch measures the batch hot path with the tuners
// live: strategy dispatch, the epoch tallies, epoch bookkeeping. The
// interesting number is allocs/op — the PR 4 zero-alloc ceiling must
// survive them.
func BenchmarkRuntimeWriteBatch(b *testing.B) {
	env := newTestEnv(b, nil)
	rt := mkRuntime(b, env, Params{Epoch: 2 * sim.Microsecond}, core.SGL, false)
	frags := mkFrags(env, 16, 64, 1<<15)
	now := sim.Time(0)
	// Burn through the probe epochs so the steady locked path is measured.
	for i := 0; i < 64; i++ {
		res, err := rt.WriteBatch(now, frags, env.mrB.Addr())
		if err != nil {
			b.Fatal(err)
		}
		now = res.Done
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rt.WriteBatch(now, frags, env.mrB.Addr())
		if err != nil {
			b.Fatal(err)
		}
		now = res.Done
	}
}

// BenchmarkRuntimeSmallWrite measures the small-write hot path: the
// runtime's block-locality tallies plus whichever of the native and
// consolidated paths the tuner has locked.
func BenchmarkRuntimeSmallWrite(b *testing.B) {
	env := newTestEnv(b, nil)
	rt := mkRuntime(b, env, Params{Epoch: 2 * sim.Microsecond}, core.SGL, false)
	data := make([]byte, 32)
	now := sim.Time(0)
	for i := 0; i < 64; i++ {
		d, err := rt.SmallWrite(now, (i%32)*32, data)
		if err != nil {
			b.Fatal(err)
		}
		now = d
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := rt.SmallWrite(now, (i%32)*32, data)
		if err != nil {
			b.Fatal(err)
		}
		now = d
	}
}
