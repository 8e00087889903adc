package protogen

// rng is a splitmix64 pseudo-random stream. The generator's output must be
// identical on every platform and Go version forever — checked-in fixture
// names and the distributed engine's name-based protocol reconstruction
// both depend on Derive being a pure function of (seed, dials) — so the
// stream is pinned here rather than borrowed from math/rand.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). n must be positive. The modulo bias is
// irrelevant here: the stream seeds a protocol generator, not statistics.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// pct reports true with probability p/100.
func (r *rng) pct(p int) bool { return r.intn(100) < p }
