package fabric

import (
	"reflect"
	"testing"

	"rdmasem/internal/sim"
)

func lossy(t *testing.T, plan *FaultPlan) *Fabric {
	t.Helper()
	p := DefaultParams()
	p.Faults = plan
	f, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestParseFaultPlan(t *testing.T) {
	p, err := ParseFaultPlan("seed=7,drop=0.01,corrupt=0.001,delayp=0.05,delay=2000")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.Drop != 0.01 || p.Corrupt != 0.001 || p.DelayP != 0.05 || p.Delay != 2000 {
		t.Fatalf("parsed %+v", p)
	}
	// String round-trips through the parser.
	q, err := ParseFaultPlan(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q, p) {
		t.Fatalf("round trip %+v != %+v", q, p)
	}
	for _, bad := range []string{
		"", "drop", "drop=2", "drop=-1", "drop=NaN", "seed=x", "drop=0.1,drop=0.1",
		"zorp=1", "delayp=0.5", "delay=-3", "drop=0.1,,",
		"delay=5",                     // satellite: a delay bound without delayp is silently inert
		"flapdown=100",                // flap window without a period
		"flapperiod=100",              // flap period without a window
		"flapdown=-1",                 // negative window
		"flapdown=200,flapperiod=100", // the link never comes back up
		"crash=1",                     // not machine@at+down
		"crash=1@5",                   // missing outage
		"crash=-1@5+10",               // negative machine
		"crash=1@-5+10",               // negative time
		"crash=1@5+0",                 // zero outage
		"crash=x@5+10",                // non-numeric machine
	} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted", bad)
		}
	}
}

// TestParseFaultPlanOutages covers the flap/crash syntax and its String()
// round trip.
func TestParseFaultPlanOutages(t *testing.T) {
	p, err := ParseFaultPlan("seed=9,flapdown=4000,flapperiod=50000,crash=1@30000+20000;3@100+200")
	if err != nil {
		t.Fatal(err)
	}
	want := &FaultPlan{
		Seed:       9,
		FlapDown:   4000,
		FlapPeriod: 50000,
		Crashes: []CrashEvent{
			{Machine: 1, At: 30000, Down: 20000},
			{Machine: 3, At: 100, Down: 200},
		},
	}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	if !p.HasOutages() || !p.HasCrashes() {
		t.Fatalf("outage plan not active: HasOutages=%v HasCrashes=%v", p.HasOutages(), p.HasCrashes())
	}
	q, err := ParseFaultPlan(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q, p) {
		t.Fatalf("round trip %+v != %+v", q, p)
	}
}

func TestFaultPlanValidateViaParams(t *testing.T) {
	p := DefaultParams()
	p.Faults = &FaultPlan{Drop: 1.5}
	if _, err := New(p); err == nil {
		t.Fatal("fabric accepted an invalid fault plan")
	}
}

// TestDeliverLosslessMatchesSend pins the zero-cost property: with no plan
// (and with an inactive plan's Deliver never drawing faults), Deliver is
// bit-identical to Send.
func TestDeliverLosslessMatchesSend(t *testing.T) {
	plain := newFabric(t)
	pa, pb := plain.RegisterAt("a", -1), plain.RegisterAt("b", -1)
	faulty := lossy(t, nil)
	fa, fb := faulty.RegisterAt("a", -1), faulty.RegisterAt("b", -1)
	for i, size := range []int{0, 64, 4096, 1 << 20} {
		now := sim.Time(i * 1000)
		want := plain.Send(now, pa, pb, size)
		got, v := faulty.Deliver(now, fa, fb, size)
		if got != want || v != Delivered {
			t.Fatalf("size %d: Deliver %v/%v, Send %v", size, got, v, want)
		}
	}
}

// TestDeliverDeterminism: the same plan over the same traffic produces the
// same verdict sequence.
func TestDeliverDeterminism(t *testing.T) {
	plan := &FaultPlan{Seed: 42, Drop: 0.2, Corrupt: 0.1, DelayP: 0.3, Delay: 500}
	run := func() ([]Verdict, []sim.Time) {
		f := lossy(t, plan)
		a, b := f.RegisterAt("a", -1), f.RegisterAt("b", -1)
		var vs []Verdict
		var ts []sim.Time
		for i := 0; i < 200; i++ {
			at, v := f.Deliver(sim.Time(i*100), a, b, 256)
			vs = append(vs, v)
			ts = append(ts, at)
		}
		return vs, ts
	}
	v1, t1 := run()
	v2, t2 := run()
	for i := range v1 {
		if v1[i] != v2[i] || t1[i] != t2[i] {
			t.Fatalf("segment %d: run1 %v@%v, run2 %v@%v", i, v1[i], t1[i], v2[i], t2[i])
		}
	}
	seenDrop, seenCorrupt := false, false
	for _, v := range v1 {
		seenDrop = seenDrop || v == Dropped
		seenCorrupt = seenCorrupt || v == Corrupted
	}
	if !seenDrop || !seenCorrupt {
		t.Fatalf("200 segments at drop=0.2 corrupt=0.1 produced drop=%v corrupt=%v", seenDrop, seenCorrupt)
	}
}

// TestDeliverChargesPipes: drops charge only the sender's tx link, corrupt
// segments charge both sides, loopback never faults.
func TestDeliverChargesPipes(t *testing.T) {
	f := lossy(t, &FaultPlan{Seed: 1, Drop: 1})
	a, b := f.RegisterAt("a", -1), f.RegisterAt("b", -1)
	aTx, bRx := occupancy(a.Tx()), occupancy(b.Rx())
	at, v := f.Deliver(0, a, b, 4096)
	if v != Dropped {
		t.Fatalf("drop=1 delivered: %v", v)
	}
	if at <= 0 {
		t.Fatal("dropped segment should report its would-be arrival")
	}
	if *aTx == 0 {
		t.Fatal("dropped segment must still occupy the tx link")
	}
	if *bRx != 0 {
		t.Fatal("dropped segment must not reach the rx link")
	}
	if _, v := f.Deliver(0, a, a, 4096); v != Delivered {
		t.Fatal("loopback segments must not fault")
	}
	if got := f.FaultStats(); got.Drops != 1 || got.Segments != 1 {
		t.Fatalf("fault stats %+v", got)
	}

	f2 := lossy(t, &FaultPlan{Seed: 1, Corrupt: 1})
	a2, b2 := f2.RegisterAt("a", -1), f2.RegisterAt("b", -1)
	b2Rx := occupancy(b2.Rx())
	if _, v := f2.Deliver(0, a2, b2, 4096); v != Corrupted {
		t.Fatalf("corrupt=1 verdict %v", v)
	}
	if *b2Rx == 0 {
		t.Fatal("corrupted segment must still serialize on rx")
	}
}

// TestDeliverDelay: delayed segments arrive later than clean ones but are
// still delivered, and a fresh fabric on the same plan replays the
// identical delay stream.
func TestDeliverDelay(t *testing.T) {
	plan := &FaultPlan{Seed: 3, DelayP: 1, Delay: 10 * sim.Microsecond}
	f := lossy(t, plan)
	a, b := f.RegisterAt("a", -1), f.RegisterAt("b", -1)
	delayed, v := f.Deliver(0, a, b, 64)
	if v != Delivered {
		t.Fatalf("delayp=1 verdict %v", v)
	}
	clean := newFabric(t)
	ca, cb := clean.RegisterAt("a", -1), clean.RegisterAt("b", -1)
	base := clean.Send(0, ca, cb, 64)
	if delayed < base {
		t.Fatalf("delayed arrival %v before lossless %v", delayed, base)
	}
	if f.FaultStats().Delays == 0 {
		t.Fatal("delay not tallied")
	}
	f2 := lossy(t, plan)
	a2, b2 := f2.RegisterAt("a", -1), f2.RegisterAt("b", -1)
	replay, _ := f2.Deliver(0, a2, b2, 64)
	if replay != delayed {
		t.Fatalf("fresh-fabric replay %v != %v", replay, delayed)
	}
}

// TestDeliverFlapDrops: a link inside its flap window loses every segment
// (charging only the tx link, tallied as FlapDrops), and the flap phase is
// deterministic across runs.
func TestDeliverFlapDrops(t *testing.T) {
	plan := &FaultPlan{Seed: 11, FlapDown: 400, FlapPeriod: 1000}
	run := func() ([]Verdict, FaultStats) {
		f := lossy(t, plan)
		a, b := f.RegisterAt("a", -1), f.RegisterAt("b", -1)
		var vs []Verdict
		for i := 0; i < 50; i++ {
			_, v := f.Deliver(sim.Time(i*100), a, b, 64)
			vs = append(vs, v)
		}
		return vs, f.FaultStats()
	}
	v1, s1 := run()
	v2, s2 := run()
	if !reflect.DeepEqual(v1, v2) || s1 != s2 {
		t.Fatalf("flap stream not deterministic: %+v vs %+v", s1, s2)
	}
	// 400/1000 down: both fates must appear over 50 evenly spread sends.
	var dropped, delivered bool
	for _, v := range v1 {
		dropped = dropped || v == Dropped
		delivered = delivered || v == Delivered
	}
	if !dropped || !delivered {
		t.Fatalf("flap 400/1000 over 50 sends: dropped=%v delivered=%v", dropped, delivered)
	}
	if s1.FlapDrops == 0 || s1.Drops != 0 {
		t.Fatalf("flap losses must tally as FlapDrops, got %+v", s1)
	}
}

// TestDeliverCrashDrops: segments to or from a crashed machine drop for
// exactly the crash window, and endpoints registered without a machine are
// untouched.
func TestDeliverCrashDrops(t *testing.T) {
	plan := &FaultPlan{Seed: 1, Crashes: []CrashEvent{{Machine: 1, At: 1000, Down: 2000}}}
	f := lossy(t, plan)
	a := f.RegisterAt("a", 0)
	b := f.RegisterAt("b", 1)
	c := f.RegisterAt("c", -1) // no machine: never crashes
	if _, v := f.Deliver(0, a, b, 64); v != Delivered {
		t.Fatalf("pre-crash verdict %v", v)
	}
	if _, v := f.Deliver(1500, a, b, 64); v != Dropped {
		t.Fatal("segment into crashed machine must drop")
	}
	if _, v := f.Deliver(1500, b, a, 64); v != Dropped {
		t.Fatal("segment out of crashed machine must drop")
	}
	if _, v := f.Deliver(1500, a, c, 64); v != Delivered {
		t.Fatal("machine-less endpoints must not crash")
	}
	if _, v := f.Deliver(3500, a, b, 64); v != Delivered {
		t.Fatal("machine must restart after the crash window")
	}
	if s := f.FaultStats(); s.CrashDrops != 2 || s.FlapDrops != 0 || s.Drops != 0 {
		t.Fatalf("fault stats %+v", s)
	}
	if !plan.MachineDown(1, 1000) || plan.MachineDown(1, 3000) || plan.MachineDown(0, 1500) || plan.MachineDown(-1, 1500) {
		t.Fatal("MachineDown window wrong")
	}
	var nilPlan *FaultPlan
	if nilPlan.MachineDown(1, 1500) {
		t.Fatal("nil plan must report machines up")
	}
}

// TestQuietOutagePlanKeepsFaultStream pins the zero-cost property the
// recovery layer leans on: a plan whose outage windows never fire (crashes
// beyond the horizon) produces bit-identical verdicts and arrival times to
// the same plan without outages, because outage checks draw nothing from the
// fate stream.
func TestQuietOutagePlanKeepsFaultStream(t *testing.T) {
	base := &FaultPlan{Seed: 42, Drop: 0.2, Corrupt: 0.1, DelayP: 0.3, Delay: 500}
	quiet := *base
	quiet.Crashes = []CrashEvent{{Machine: 99, At: 1 << 40, Down: 1000}}
	run := func(plan *FaultPlan) ([]Verdict, []sim.Time) {
		f := lossy(t, plan)
		a, b := f.RegisterAt("a", 0), f.RegisterAt("b", 1)
		var vs []Verdict
		var ts []sim.Time
		for i := 0; i < 200; i++ {
			at, v := f.Deliver(sim.Time(i*100), a, b, 256)
			vs = append(vs, v)
			ts = append(ts, at)
		}
		return vs, ts
	}
	v1, t1 := run(base)
	v2, t2 := run(&quiet)
	if !reflect.DeepEqual(v1, v2) || !reflect.DeepEqual(t1, t2) {
		t.Fatal("quiet outage plan perturbed the fault stream")
	}
}

// FuzzParseFaultPlan is the parser/validator fuzz target: any input either
// fails cleanly or yields a valid plan whose String() re-parses to the same
// value. The f.Add corpus doubles as the seed-corpus regression suite run by
// plain `go test`.
func FuzzParseFaultPlan(f *testing.F) {
	for _, seed := range []string{
		"seed=7,drop=0.01,corrupt=0.001,delayp=0.05,delay=2000",
		"seed=-1,drop=1",
		"drop=0.5,corrupt=0.5",
		"seed=0",
		"delayp=1,delay=1",
		"drop=1e-9",
		" seed = 2 , drop = 0.25 ",
		"drop=0.1,drop=0.2",
		"delay=9223372036854775807,delayp=0.5",
		"zorp=1",
		"drop=Inf",
		"drop=nan",
		"=",
		"seed=7,",
		"seed=9,flapdown=4000,flapperiod=50000",
		"flapdown=1,flapperiod=2",
		"flapdown=200,flapperiod=100",
		"crash=1@30000+20000",
		"crash=0@0+1;1@5+5;2@10+10",
		"crash=1@5+0",
		"crash=@+",
		"seed=3,drop=0.5,flapdown=10,flapperiod=100,crash=7@1+2",
		"flapperiod=9223372036854775807,flapdown=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseFaultPlan(s)
		if err != nil {
			if p != nil {
				t.Fatalf("ParseFaultPlan(%q) returned plan %+v with error %v", s, p, err)
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParseFaultPlan(%q) returned invalid plan: %v", s, err)
		}
		rt, err := ParseFaultPlan(p.String())
		if err != nil {
			t.Fatalf("String() of parsed %q does not re-parse: %v", s, err)
		}
		if !reflect.DeepEqual(rt, p) {
			t.Fatalf("round trip %+v != %+v (input %q)", rt, p, s)
		}
		// The fault stream must be total: any (link, seq) draws a verdict.
		for i := uint64(0); i < 8; i++ {
			v, d := p.fate(int(i), i*7)
			if v != Delivered && v != Dropped && v != Corrupted {
				t.Fatalf("fate returned unknown verdict %d", v)
			}
			if d < 0 || d > p.Delay {
				t.Fatalf("fate delay %v outside [0, %v]", d, p.Delay)
			}
		}
	})
}

// TestPerEndpointFaultTallies: fault tallies accumulate on the sending
// endpoint and Fabric.FaultStats is exactly their sum.
func TestPerEndpointFaultTallies(t *testing.T) {
	p := DefaultParams()
	p.Faults = &FaultPlan{Seed: 3, Drop: 0.2, Corrupt: 0.2, DelayP: 0.2, Delay: 500}
	f, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := f.RegisterAt("a", -1), f.RegisterAt("b", -1), f.RegisterAt("c", -1)
	for i := 0; i < 100; i++ {
		f.Deliver(sim.Time(i)*sim.Microsecond, a, c, 64)
	}
	for i := 0; i < 50; i++ {
		f.Deliver(sim.Time(i)*sim.Microsecond, b, c, 64)
	}
	sa, sb, sc := a.faults, b.faults, c.faults
	if sa.Segments != 100 || sb.Segments != 50 {
		t.Fatalf("sender tallies %d/%d, want 100/50", sa.Segments, sb.Segments)
	}
	if sc != (FaultStats{}) {
		t.Fatalf("receiver accumulated tallies %+v; faults are charged to senders", sc)
	}
	sum := f.FaultStats()
	want := FaultStats{
		Segments: sa.Segments + sb.Segments,
		Drops:    sa.Drops + sb.Drops,
		Corrupts: sa.Corrupts + sb.Corrupts,
		Delays:   sa.Delays + sb.Delays,
	}
	if sum != want {
		t.Fatalf("fabric sum %+v != endpoint sum %+v", sum, want)
	}
}
