package traffic

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func TestPacketTypeProperties(t *testing.T) {
	cases := []struct {
		typ   PacketType
		flits int
		class int
		isReq bool
	}{
		{ReadRequest, 1, 0, true},
		{ReadReply, 5, 1, false},
		{WriteRequest, 5, 0, true},
		{WriteReply, 1, 1, false},
	}
	for _, c := range cases {
		if c.typ.Flits() != c.flits {
			t.Errorf("%v.Flits() = %d, want %d", c.typ, c.typ.Flits(), c.flits)
		}
		if c.typ.MessageClass() != c.class {
			t.Errorf("%v.MessageClass() = %d, want %d", c.typ, c.typ.MessageClass(), c.class)
		}
		if c.typ.IsRequest() != c.isReq {
			t.Errorf("%v.IsRequest() = %v", c.typ, c.typ.IsRequest())
		}
	}
}

func TestReplyTypes(t *testing.T) {
	if ReadRequest.ReplyType() != ReadReply || WriteRequest.ReplyType() != WriteReply {
		t.Fatal("wrong reply types")
	}
	// A request-reply pair always totals six flits (§4.3.3).
	for _, req := range []PacketType{ReadRequest, WriteRequest} {
		if req.Flits()+req.ReplyType().Flits() != FlitsPerTransaction {
			t.Errorf("%v transaction flit count != %d", req, FlitsPerTransaction)
		}
	}
}

func TestReplyOfReplyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ReadReply.ReplyType()
}

func TestPacketTypeStrings(t *testing.T) {
	for _, typ := range []PacketType{ReadRequest, ReadReply, WriteRequest, WriteReply} {
		if typ.String() == "" {
			t.Error("empty name")
		}
	}
	if PacketType(9).String() == "" {
		t.Error("unknown type should render")
	}
}

func TestUniformPattern(t *testing.T) {
	p, err := NewPattern("uniform", 64)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(1)
	counts := make([]int, 64)
	const iters = 64 * 1000
	for i := 0; i < iters; i++ {
		d := p.Dest(5, rng)
		if d == 5 || d < 0 || d >= 64 {
			t.Fatalf("bad destination %d", d)
		}
		counts[d]++
	}
	want := float64(iters) / 63
	for d, c := range counts {
		if d == 5 {
			continue
		}
		if math.Abs(float64(c)-want) > 0.15*want {
			t.Fatalf("destination %d count %d deviates from uniform %f", d, c, want)
		}
	}
}

func TestPermutationPatterns(t *testing.T) {
	cases := map[string]map[int]int{
		// 64 terminals = 6 address bits.
		"transpose": {0: 0, 1: 8, 9: 9, 63: 63, 2: 16},
		"bitcomp":   {0: 63, 1: 62, 21: 42},
		"bitrev":    {0: 0, 1: 32, 3: 48},
		"shuffle":   {1: 2, 32: 1, 63: 63},
		"tornado":   {0: 32, 40: 8},
		"neighbor":  {0: 1, 63: 0},
	}
	for name, pairs := range cases {
		p, err := NewPattern(name, 64)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for src, want := range pairs {
			if got := p.Dest(src, nil); got != want {
				t.Errorf("%s.Dest(%d) = %d, want %d", name, src, got, want)
			}
		}
	}
}

func TestPermutationsAreBijections(t *testing.T) {
	for _, name := range []string{"transpose", "bitcomp", "bitrev", "shuffle", "tornado", "neighbor"} {
		p, err := NewPattern(name, 64)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, 64)
		for s := 0; s < 64; s++ {
			d := p.Dest(s, nil)
			if d < 0 || d >= 64 || seen[d] {
				t.Fatalf("%s is not a bijection at src %d", name, s)
			}
			seen[d] = true
		}
	}
}

func TestPatternErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int
	}{
		{"uniform", 1},
		{"bitcomp", 48},
		{"transpose", 32}, // 5 address bits, odd
		{"nosuch", 64},
	} {
		if _, err := NewPattern(c.name, c.n); err == nil {
			t.Errorf("NewPattern(%q, %d) should fail", c.name, c.n)
		}
	}
}

func TestGeneratorRates(t *testing.T) {
	p, _ := NewPattern("uniform", 64)
	g := NewGeneratorProcess(p, NewBernoulli(0.3), 0.5) // 0.3 flits / FlitsPerTransaction = 0.05
	rng := xrand.New(3)
	const iters = 200000
	n, reads := 0, 0
	for i := 0; i < iters; i++ {
		typ, dst, ok := g.NextRequest(7, rng)
		if !ok {
			continue
		}
		n++
		if typ == ReadRequest {
			reads++
		} else if typ != WriteRequest {
			t.Fatalf("generator emitted non-request %v", typ)
		}
		if dst == 7 {
			t.Fatal("self traffic")
		}
	}
	rate := float64(n) / iters
	if math.Abs(rate-0.05) > 0.005 {
		t.Fatalf("empirical transaction rate %f, want 0.05", rate)
	}
	readFrac := float64(reads) / float64(n)
	if math.Abs(readFrac-0.5) > 0.03 {
		t.Fatalf("read fraction %f, want 0.5", readFrac)
	}
}

func TestGeneratorZeroRate(t *testing.T) {
	p, _ := NewPattern("uniform", 8)
	g := NewGeneratorProcess(p, NewBernoulli(0), 0.5)
	rng := xrand.New(1)
	for i := 0; i < 1000; i++ {
		if _, _, ok := g.NextRequest(0, rng); ok {
			t.Fatal("zero rate generated traffic")
		}
	}
}

// TestNextArrivalDeltaMatchesBernoulli is the contract that lets the
// simulator presample a dormant terminal's next arrival: NextArrivalDelta
// must consume the exact same RNG stream as ticking NextRequest's Bernoulli
// gate one cycle at a time — same failure count before the success AND the
// generator left in the identical state — so leaped and ticked runs stay
// bit-identical at any seed.
func TestNextArrivalDeltaMatchesBernoulli(t *testing.T) {
	p, err := NewPattern("uniform", 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{0.001, 0.05, 0.3, 1.2} {
		proc := NewBernoulli(rate)
		g := NewGeneratorProcess(p, proc, 0.5)
		a := xrand.New(42)
		b := xrand.New(42)
		for trial := 0; trial < 2000; trial++ {
			// Reference: per-cycle gate draws until a transaction starts.
			ticked := 0
			for !a.Bool(rate / FlitsPerTransaction) {
				ticked++
			}
			leaped := proc.NextArrivalDelta(b, 1<<30)
			if leaped != ticked {
				t.Fatalf("rate %g trial %d: NextArrivalDelta = %d, per-cycle gate = %d", rate, trial, leaped, ticked)
			}
			if *a != *b {
				t.Fatalf("rate %g trial %d: RNG states diverged after sampling", rate, trial)
			}
			// Keep the streams exercised past the gate, as a real terminal
			// would (type + destination draws).
			at, ad := g.RequestAt(0, a)
			bt, bd := g.RequestAt(0, b)
			if at != bt || ad != bd {
				t.Fatalf("rate %g trial %d: RequestAt diverged: (%v,%d) vs (%v,%d)", rate, trial, at, ad, bt, bd)
			}
		}
	}
}

// TestNextArrivalDeltaStatistics sanity-checks the sampler's distribution:
// the mean inter-arrival gap must track the geometric mean 1/p - 1 failures
// before a success.
func TestNextArrivalDeltaStatistics(t *testing.T) {
	const rate = 0.12 // transaction rate 0.02
	g := NewBernoulli(rate)
	rng := xrand.New(7)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(g.NextArrivalDelta(rng, 1<<30))
	}
	mean := sum / n
	want := FlitsPerTransaction/rate - 1
	if math.Abs(mean-want) > 0.05*want {
		t.Errorf("mean arrival delta = %.2f, want ≈ %.2f", mean, want)
	}
}

// TestNextArrivalDeltaDegenerate pins the zero-rate guard (the per-cycle
// gate never succeeds at p <= 0, so the sampler must refuse rather than
// spin).
func TestNextArrivalDeltaDegenerate(t *testing.T) {
	g := NewBernoulli(0)
	rng := xrand.New(1)
	before := *rng
	if d := g.NextArrivalDelta(rng, 1<<30); d != -1 {
		t.Errorf("NextArrivalDelta at rate 0 = %d, want -1", d)
	}
	if *rng != before {
		t.Error("NextArrivalDelta at rate 0 consumed randomness")
	}
}

// TestNextArrivalDeltaChunked pins the bounded-batch contract: a capped
// call that finds no arrival consumes exactly max draws, and resuming with
// further calls from the same stream position lands on the same arrival —
// after the same total number of draws — as one unbounded call. This is
// what lets the simulator presample in fixed chunks without ever diverging
// from the dense per-cycle stream.
func TestNextArrivalDeltaChunked(t *testing.T) {
	g := NewBernoulli(0.003) // transaction rate 0.0005: arrivals well past small chunks
	const chunk = 128
	a := xrand.New(99)
	b := xrand.New(99)
	for trial := 0; trial < 200; trial++ {
		want := g.NextArrivalDelta(a, 1<<30)
		total := 0
		for {
			d := g.NextArrivalDelta(b, chunk)
			if d >= 0 {
				total += d
				break
			}
			total += chunk
		}
		if total != want {
			t.Fatalf("trial %d: chunked arrival after %d cycles, unbounded after %d", trial, total, want)
		}
		if *a != *b {
			t.Fatalf("trial %d: RNG states diverged after chunked sampling", trial)
		}
	}
}
