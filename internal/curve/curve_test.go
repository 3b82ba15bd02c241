package curve

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

// fakeEval is a synthetic network model: unsaturated with latency
// L0/(1 - rate/satRate) below satRate, saturated (flag set, throughput
// capped) at and above it. It counts EvalUnit calls so tests can pin the
// tracer's memoization and point budget.
type fakeEval struct {
	satRate float64
	calls   atomic.Int64

	mu   sync.Mutex
	seen map[float64]int
}

func newFakeEval(satRate float64) *fakeEval {
	return &fakeEval{satRate: satRate, seen: map[float64]int{}}
}

func (f *fakeEval) EvalUnit(_ context.Context, u sweep.UnitConfig) (sweep.UnitResult, error) {
	f.calls.Add(1)
	f.mu.Lock()
	f.seen[u.Rate]++
	f.mu.Unlock()
	r := sweep.UnitResult{Config: u.Normalized(), Rate: u.Rate, Key: u.Key()}
	if u.Rate >= f.satRate {
		r.Saturated = true
		r.Throughput = f.satRate
		r.Latency = 1000
	} else {
		r.Throughput = u.Rate
		r.Latency = 10 / (1 - u.Rate/f.satRate)
	}
	return r, nil
}

func testSpec() Spec {
	return Spec{
		Base: sweep.UnitConfig{Topo: "mesh", Seed: 42},
		Step: 0.01, MinRate: 0.01, MaxRate: 0.45,
	}
}

func TestTracerFindsKneeOnSyntheticModel(t *testing.T) {
	// satRate 0.30 on a 0.01 lattice: indices >= 30 saturate, so the knee
	// (highest unsaturated index) is 29.
	eval := newFakeEval(0.30)
	tr, err := TraceCurve(context.Background(), eval, testSpec(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.KneeFound {
		t.Fatal("knee not found")
	}
	if tr.KneeIndex != 29 || tr.KneeUpper != 30 {
		t.Fatalf("knee bracket [%d, %d], want [29, 30]", tr.KneeIndex, tr.KneeUpper)
	}
	if tr.KneeUpper-tr.KneeIndex > tr.Spec.KneeResolution {
		t.Fatalf("bracket wider than resolution %d", tr.Spec.KneeResolution)
	}
	if tr.FixedGridPoints != 45 {
		t.Fatalf("fixed grid %d points, want 45", tr.FixedGridPoints)
	}
	if 2*tr.Simulated > tr.FixedGridPoints {
		t.Fatalf("adaptive trace simulated %d points, more than half of the %d-point fixed grid",
			tr.Simulated, tr.FixedGridPoints)
	}
	// Memoization: every lattice point simulated at most once.
	if got := eval.calls.Load(); int(got) != tr.Simulated {
		t.Fatalf("%d EvalUnit calls for %d distinct points", got, tr.Simulated)
	}
	for rate, n := range eval.seen {
		if n != 1 {
			t.Fatalf("rate %g evaluated %d times", rate, n)
		}
	}
	// Points are sorted, on-lattice, and carry canonical rates.
	lat := tr.Spec.Lattice()
	for k, p := range tr.Points {
		if p.Result.Rate != lat.Rate(p.Index) {
			t.Fatalf("point %d: rate %v != lattice rate %v", k, p.Result.Rate, lat.Rate(p.Index))
		}
		if k > 0 && tr.Points[k-1].Index >= p.Index {
			t.Fatalf("points not strictly ascending at %d", k)
		}
	}
	if tr.KneeRate != lat.Rate(29) {
		t.Fatalf("knee rate %v, want lattice rate %v", tr.KneeRate, lat.Rate(29))
	}
}

func TestTracerWorkerInvariance(t *testing.T) {
	// The sampled point set and knee must be identical for every worker
	// count (CI runs this under GOMAXPROCS=4 as the parallel-tracer smoke).
	var traces []Trace
	for _, workers := range []int{1, 4} {
		tr, err := TraceCurve(context.Background(), newFakeEval(0.22), testSpec(), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	a, _ := json.Marshal(traces[0])
	b, _ := json.Marshal(traces[1])
	if string(a) != string(b) {
		t.Fatalf("workers=1 and workers=4 traces differ:\n%s\n%s", a, b)
	}
}

func TestTracerNeverSaturated(t *testing.T) {
	eval := newFakeEval(9) // saturation far above MaxRate
	tr, err := TraceCurve(context.Background(), eval, testSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.KneeFound {
		t.Fatal("knee reported found on an unsaturated curve")
	}
	if tr.KneeIndex != tr.Spec.Lattice().Index(tr.Spec.MaxRate) {
		t.Fatalf("unsaturated curve knee index %d, want top index", tr.KneeIndex)
	}
}

func TestTracerSaturatedFromStart(t *testing.T) {
	eval := newFakeEval(0.005) // saturated below MinRate
	tr, err := TraceCurve(context.Background(), eval, testSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.KneeFound {
		t.Fatal("knee reported found when already saturated at MinRate")
	}
	if tr.KneeIndex != 1 {
		t.Fatalf("saturated-from-start knee index %d, want bottom index 1", tr.KneeIndex)
	}
}

func TestTracerRespectsMaxPoints(t *testing.T) {
	spec := testSpec()
	spec.Coarse = 8
	spec.MaxPoints = 10
	eval := newFakeEval(0.30)
	tr, err := TraceCurve(context.Background(), eval, spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Simulated > spec.MaxPoints {
		t.Fatalf("simulated %d points, budget %d", tr.Simulated, spec.MaxPoints)
	}
}

func TestSpecNormalizeValidateID(t *testing.T) {
	s := Spec{Base: sweep.UnitConfig{Topo: "fbfly", VCsPerClass: 2, Seed: 42, Rate: 0.33}}
	n := s.Normalized()
	if n.Base.Rate != 0 {
		t.Fatalf("normalization kept base rate %g; the tracer owns the rate axis", n.Base.Rate)
	}
	if n.Step != experiments.DefaultLatticeStep {
		t.Fatalf("default step %g, want %g", n.Step, experiments.DefaultLatticeStep)
	}
	// The default MaxRate is the top of the paper grid for the design point.
	pt, _ := experiments.PointByName("fbfly", 2)
	grid := experiments.InjectionRates(pt)
	if want := n.Lattice().Snap(grid[len(grid)-1]); n.MaxRate != want {
		t.Fatalf("default max rate %g, want paper-grid top %g", n.MaxRate, want)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if n.ID() != s.ID() {
		t.Fatal("normalization changed the spec ID")
	}
	other := Spec{Base: sweep.UnitConfig{Topo: "mesh"}}
	if other.ID() == s.ID() {
		t.Fatal("distinct specs share an ID")
	}
	if n2 := n.Normalized(); n2.ID() != n.ID() {
		t.Fatal("normalization not idempotent")
	}

	bad := Spec{Base: sweep.UnitConfig{Topo: "mesh"}, Step: -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative step validated")
	}
	bad = Spec{Base: sweep.UnitConfig{Topo: "mesh"}, MinRate: 0.4, MaxRate: 0.2}
	if err := bad.Validate(); err == nil {
		t.Fatal("inverted range validated")
	}
	bad = Spec{Base: sweep.UnitConfig{Topo: "mesh"}, MaxPoints: sweep.MaxUnits + 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("max_points above sweep.MaxUnits validated")
	}
	bad = Spec{Base: sweep.UnitConfig{Topo: "mesh", Process: "trace"}}
	if err := bad.Validate(); err == nil {
		t.Fatal("trace-process base validated (batch-only)")
	}
}

func TestCanonicalRatesMatchBatchSpelling(t *testing.T) {
	// A tracer point's unit key must equal the key of the same unit spelled
	// by a batch client using the shared lattice — the property that makes
	// tracer points hit the sweep cache across processes.
	spec := testSpec().Normalized()
	lat := spec.Lattice()
	for _, i := range []int{1, 7, 23, 45} {
		u := spec.unitAt(i)
		batch := sweep.UnitConfig{Topo: "mesh", Seed: 42, Rate: lat.Rate(i)}.Normalized()
		if u.Key() != batch.Key() {
			t.Fatalf("index %d: tracer key %s != batch key %s", i, u.Key(), batch.Key())
		}
	}
}
