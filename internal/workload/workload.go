// Package workload provides deterministic, seedable workload generators: the
// YCSB-style zipfian key distribution the paper uses for the disaggregated
// hashtable (parameter 0.99), uniform keys, key-value records, and tuple
// relations for the distributed join.
package workload

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
)

// ZipfDist is the YCSB zipfian distribution over [0, n)
// (theta-parameterized, matching "Zipf distribution with parameter 0.99" in
// Section IV-B), scattered over the key space so that hot keys are not
// clustered at low indices. Its parameters are fixed once built, and it
// memoizes each seed's draws under a mutex: one distribution serves every
// generator of an experiment, from any number of goroutines, and every
// generator of a seed after the first replays that seed's keys instead of
// drawing them again. The memo lives as long as the distribution.
type ZipfDist struct {
	n     uint64
	alpha float64
	zetan float64
	eta   float64
	// rank1 bounds the draws that land on rank 1: 1 + 0.5^theta.
	rank1 float64
	// mul scrambles rank r to key r*mul mod n; it is coprime to n, so the
	// scramble is a bijection on [0, n).
	mul uint64

	mu    sync.Mutex
	seeds map[int64]*zipfSeq // guarded by mu
}

// zipfSeq is one seed's memoized key sequence: keys holds the draws so far
// and rng the seed's source, positioned after the last of them. Both are
// guarded by the distribution's mutex; a key once drawn is never rewritten,
// so a prefix of keys handed out under the mutex stays readable without it.
type zipfSeq struct {
	rng  *rand.Rand
	keys []uint64
}

// zipfChunk is how many keys a generator past the end of its seed's memo
// draws at once.
const zipfChunk = 256

// fibonacci is the 64-bit Fibonacci hashing constant the key scramble
// starts from.
const fibonacci = 0x9E3779B97F4A7C15

// NewZipfDist builds the zipfian distribution over [0, n) with the given
// theta (0 < theta < 1; YCSB uses 0.99). It sums the O(n) generalized
// harmonic number once; generators drawn from it with New cost O(1).
func NewZipfDist(n uint64, theta float64) (*ZipfDist, error) {
	if n == 0 {
		return nil, fmt.Errorf("workload: zipf needs a positive key space")
	}
	if theta <= 0 || theta >= 1 {
		return nil, fmt.Errorf("workload: zipf theta must be in (0,1), got %v", theta)
	}
	d := &ZipfDist{n: n, seeds: make(map[int64]*zipfSeq)}
	d.zetan = zeta(n, theta)
	zeta2 := zeta(2, theta)
	d.alpha = 1.0 / (1.0 - theta)
	d.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zeta2/d.zetan)
	d.rank1 = 1.0 + math.Pow(0.5, theta)
	d.mul = fibonacci % n
	for gcd(d.mul, n) != 1 {
		d.mul++
	}
	return d, nil
}

// zeta computes the generalized harmonic number sum_{i=1..n} 1/i^theta.
func zeta(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// scramble maps a popularity rank to its key. For a power-of-two n it
// equals the plain Fibonacci hash (rank*fibonacci) % n.
func (d *ZipfDist) scramble(rank uint64) uint64 {
	hi, lo := bits.Mul64(rank, d.mul)
	return bits.Rem64(hi, lo, d.n)
}

// New returns a generator over seed's key sequence, starting at its first
// draw. The sequence is a pure function of the seed: every generator of one
// seed yields the same keys, however many there are and however their draws
// interleave.
func (d *ZipfDist) New(seed int64) *Zipf {
	d.mu.Lock()
	defer d.mu.Unlock()
	seq := d.seeds[seed]
	if seq == nil {
		seq = &zipfSeq{rng: rand.New(rand.NewSource(seed))}
		d.seeds[seed] = seq
	}
	return &Zipf{dist: d, seq: seq, keys: seq.keys}
}

// extend returns seq's keys, drawn past index i: i is the length of the
// prefix the caller holds, so one chunk suffices when no other generator
// has drawn further already.
func (d *ZipfDist) extend(seq *zipfSeq, i int) []uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(seq.keys) == i {
		for range zipfChunk {
			seq.keys = append(seq.keys, d.draw(seq.rng))
		}
	}
	return seq.keys
}

// draw draws one key from rng.
func (d *ZipfDist) draw(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * d.zetan
	var rank uint64
	switch {
	case uz < 1.0:
		rank = 0
	case uz < d.rank1:
		rank = 1
	default:
		rank = uint64(float64(d.n) * math.Pow(d.eta*u-d.eta+1, d.alpha))
	}
	if rank >= d.n {
		rank = d.n - 1
	}
	return d.scramble(rank)
}

// HotSet returns the m hottest keys (after scrambling), which the hashtable
// uses to seed its hot entry area during warm-up. The keys are distinct.
func (d *ZipfDist) HotSet(m int) []uint64 {
	if m <= 0 {
		return nil
	}
	if uint64(m) > d.n {
		m = int(d.n)
	}
	out := make([]uint64, m)
	for i := range out {
		out[i] = d.scramble(uint64(i))
	}
	return out
}

// Zipf is a cursor over one seed's key sequence of a shared ZipfDist; it is
// not safe for concurrent use, but generators of one distribution, of the
// same seed or not, are independent of each other.
type Zipf struct {
	dist *ZipfDist
	seq  *zipfSeq
	keys []uint64 // the prefix of seq.keys this cursor last saw
	i    int      // index of the next key
}

// Next returns the next key, drawing a chunk of the sequence only when no
// generator of this seed has drawn that far yet.
func (z *Zipf) Next() uint64 {
	if z.i == len(z.keys) {
		z.keys = z.dist.extend(z.seq, z.i)
	}
	k := z.keys[z.i]
	z.i++
	return k
}

// Uniform generates uniformly distributed keys in [0, n).
type Uniform struct {
	rng *rand.Rand
	n   uint64
}

// NewUniform creates a uniform generator over [0, n), 0 < n < 1<<63.
func NewUniform(n uint64, seed int64) (*Uniform, error) {
	if n == 0 {
		return nil, fmt.Errorf("workload: uniform needs a positive key space")
	}
	if n >= 1<<63 {
		return nil, fmt.Errorf("workload: uniform key space %d exceeds 1<<63-1", n)
	}
	return &Uniform{rng: rand.New(rand.NewSource(seed)), n: n}, nil
}

// Next draws the next key.
func (u *Uniform) Next() uint64 { return uint64(u.rng.Int63n(int64(u.n))) }

// KV is one key-value record.
type KV struct {
	Key   uint64
	Value []byte
}

// FillValue writes a recognizable, key-derived pattern into buf so data
// integrity can be checked end to end: byte i is byte(key>>(8*(i%8)))^byte(i),
// the definition CheckValue reads back. Whole words are written eight bytes
// at a time: at a multiple of 8, byte(i) <= 248, so adding 0..7 to each lane
// never carries.
func FillValue(buf []byte, key uint64) {
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], key^(uint64(byte(i))*0x0101010101010101+0x0706050403020100))
	}
	for ; i < len(buf); i++ {
		buf[i] = byte(key>>(8*(i%8))) ^ byte(i)
	}
}

// CheckValue reports whether buf carries the pattern FillValue(key) wrote.
func CheckValue(buf []byte, key uint64) bool {
	for i := range buf {
		if buf[i] != byte(key>>(8*(i%8)))^byte(i) {
			return false
		}
	}
	return true
}

// Tuple is one row of a join relation.
type Tuple struct {
	Key     uint64
	Payload uint64
}

// Relation generates a relation of n tuples whose keys are drawn uniformly
// from [0, keySpace), deterministic in the seed.
func Relation(n int, keySpace uint64, seed int64) []Tuple {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Tuple, n)
	for i := range out {
		out[i] = Tuple{
			Key:     uint64(rng.Int63n(int64(keySpace))),
			Payload: rng.Uint64(),
		}
	}
	return out
}

// Stream hands out a deterministic KV stream with the given key generator
// and value size.
type Stream struct {
	gen   interface{ Next() uint64 }
	value []byte // every record's Value: refilled by each Next
}

// NewStream builds a stream from any key generator.
func NewStream(gen interface{ Next() uint64 }, valueSize int) *Stream {
	return &Stream{gen: gen, value: make([]byte, valueSize)}
}

// Next produces the next record; the value is key-derived for verification.
// The record's Value is the stream's one buffer, so it is valid only until
// the next call: a caller that keeps a value copies it. Next never
// allocates.
func (s *Stream) Next() KV {
	k := s.gen.Next()
	FillValue(s.value, k)
	return KV{Key: k, Value: s.value}
}
