package core

import (
	"bytes"
	"testing"

	"rdmasem/internal/cluster"
	"rdmasem/internal/fabric"
	"rdmasem/internal/sim"
	"rdmasem/internal/verbs"
)

// The write-back fuzzer's geometry: a remote region of fuzzBlocks blocks of
// fuzzBlockSize bytes behind a shadow of fuzzShadow blocks, so a sequence
// touching more than fuzzShadow blocks evicts.
const (
	fuzzBlockSize = 64
	fuzzBlocks    = 6
	fuzzShadow    = 2
)

// FuzzConsolidatorWriteBack drives a consolidator with a sequence of in-block
// writes, reads and flushes and checks it against a plain byte-slice model of
// the remote region: every Read returns the model's
// bytes, and after Flush the remote MR equals the model byte for byte. Each
// input runs on a lossless fabric and under seed=1,drop=0.01,corrupt=0.001.
//
// The input is read five bytes per op: a kind, then four operands.
func FuzzConsolidatorWriteBack(f *testing.F) {
	f.Add([]byte{0, 0, 0, 8, 'a'})
	f.Add([]byte{
		0, 0, 4, 8, 'a', // write block 0
		0, 1, 60, 4, 'b', // write block 1
		0, 2, 0, 64, 'c', // write block 2: evicts block 0
		1, 0, 0, 64, 0, // read block 0 back from remote
		1, 2, 0, 64, 0, // read block 2 from the shadow
	})
	f.Add([]byte{
		0, 3, 10, 20, 'x', // write block 3
		2, 0, 0, 0, 0, // flush it
		1, 3, 0, 64, 0, // read block 3 back from remote
		0, 3, 40, 8, 'y', // re-enter block 3: its slot loads the remote image
		0, 4, 0, 1, 'z', // write block 4
		0, 5, 5, 5, 'w', // write block 5: evicts block 3
		1, 3, 0, 64, 0, // read block 3 back from remote again
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkWriteBack(t, nil, ops)
		checkWriteBack(t, &fabric.FaultPlan{Seed: 1, Drop: 0.01, Corrupt: 0.001}, ops)
	})
}

func checkWriteBack(t *testing.T, plan *fabric.FaultPlan, ops []byte) {
	cfg := cluster.DefaultConfig()
	cfg.Machines = 2
	cfg.Faults = plan
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Release()
	ctxA, ctxB := verbs.NewContext(cl.Machine(0)), verbs.NewContext(cl.Machine(1))
	qp, _, err := verbs.Connect(ctxA, 1, ctxB, 1, verbs.RC)
	if err != nil {
		t.Fatal(err)
	}
	shadow := ctxA.MustRegisterMR(cl.Machine(0).MustAlloc(1, (fuzzShadow+1)*fuzzBlockSize, 0))
	remote := ctxB.MustRegisterMR(cl.Machine(1).MustAlloc(1, fuzzBlocks*fuzzBlockSize, 0))
	// A non-zero starting image, so a block flushed with bytes it was never
	// written shows up.
	model := make([]byte, fuzzBlocks*fuzzBlockSize)
	for i := range model {
		model[i] = byte(i*7 + 1)
	}
	copy(remote.Region().Bytes(), model)
	c, err := NewConsolidator(ConsolidatorConfig{
		QP: qp, LocalMR: shadow, RemoteMR: remote, RemoteBase: remote.Addr(),
		BlockSize: fuzzBlockSize, Theta: 4, MaxBlocks: fuzzShadow,
	})
	if err != nil {
		t.Fatal(err)
	}

	now := sim.Time(0)
	out := make([]byte, fuzzBlockSize)
	for len(ops) >= 5 {
		kind, a, b, n, v := ops[0]%3, int(ops[1]), int(ops[2]), int(ops[3]), ops[4]
		ops = ops[5:]
		// An in-block extent [off, off+size) from the operands.
		blk := a % fuzzBlocks
		in := b % fuzzBlockSize
		size := 1 + n%(fuzzBlockSize-in)
		off := blk*fuzzBlockSize + in
		switch kind {
		case 0:
			data := bytes.Repeat([]byte{v}, size)
			for i := range data {
				data[i] += byte(i)
			}
			now, err = c.Write(now, off, data)
			copy(model[off:], data)
		case 1:
			now, err = c.Read(now, off, size, out)
			if err == nil && !bytes.Equal(out[:size], model[off:off+size]) {
				t.Fatalf("%v: Read(%d, %d) = %x, want %x", plan, off, size, out[:size], model[off:off+size])
			}
		case 2:
			now, err = c.Flush(now)
		}
		if err != nil {
			t.Fatalf("%v: op %d: %v", plan, kind, err)
		}
	}
	if _, err := c.Flush(now); err != nil {
		t.Fatalf("%v: final flush: %v", plan, err)
	}
	if got := remote.Region().Bytes()[:len(model)]; !bytes.Equal(got, model) {
		for i := range model {
			if got[i] != model[i] {
				t.Fatalf("%v: remote byte %d = %#x after Flush, want %#x", plan, i, got[i], model[i])
			}
		}
	}
}
