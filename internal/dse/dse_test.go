package dse

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/sweep"
)

// fakeEval is a deterministic pure-function evaluator: every unit's
// "measurement" derives from its content key, so results are stable across
// runs, orders and worker counts without running simulations. Saturation
// and throughput vary pseudo-randomly to exercise both pruning regimes.
type fakeEval struct {
	evals atomic.Int64
}

func (f *fakeEval) EvalUnit(_ context.Context, u sweep.UnitConfig) (sweep.UnitResult, error) {
	f.evals.Add(1)
	u = u.Normalized()
	sum := sha256.Sum256([]byte("fake:" + u.Key()))
	// ~1/3 of units saturate; saturated throughput lands in [0.5, 1.0)×rate.
	saturated := sum[0]%3 == 0
	thr := u.Rate
	if saturated {
		thr = u.Rate * (0.5 + float64(sum[1])/512)
	}
	return sweep.UnitResult{
		SchemaVersion: sweep.SchemaVersion,
		Key:           u.Key(),
		Config:        u,
		Rate:          u.Rate,
		Throughput:    thr,
		Saturated:     saturated,
		Latency:       20 + float64(sum[2]),
	}, nil
}

func frontierJSON(t *testing.T, r Result) string {
	t.Helper()
	b, err := json.Marshal(r.Frontier)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestEnumerateFullSpace pins the design-space accounting: the full cross
// product, the canonical-hash dedup (VA wavefront arb collapse), and the
// synthesis-budget screen.
func TestEnumerateFullSpace(t *testing.T) {
	sp, err := Enumerate(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	// 2 topos × 3 vcs × (3 VA archs × 2 arbs) × 2 sparse × (3 SA archs ×
	// 2 arbs) × 3 spec modes.
	if sp.Enumerated != 1296 {
		t.Fatalf("enumerated %d, want 1296", sp.Enumerated)
	}
	// VA wf/m and wf/rr collapse to one key: 6 VA combos become 5.
	if sp.Distinct != 1080 {
		t.Fatalf("distinct %d, want 1080", sp.Distinct)
	}
	if sp.Infeasible == 0 {
		t.Fatal("expected some infeasible points (dense wavefront VA at large P·V)")
	}
	if len(sp.Feasible)+sp.Infeasible != sp.Distinct {
		t.Fatalf("feasible %d + infeasible %d != distinct %d", len(sp.Feasible), sp.Infeasible, sp.Distinct)
	}
	for _, c := range sp.Feasible {
		if !c.Cost.Synthesized || c.Cost.DelayNS <= 0 || c.Cost.AreaUM2 <= 0 || c.Cost.PowerMW <= 0 {
			t.Fatalf("feasible candidate with degenerate cost: %+v", c)
		}
	}
}

// TestFrontierMatchesBruteForce is the pruning soundness golden: over the
// FULL design space (fake evaluator), the pruned search's frontier must be
// byte-identical to the brute-force (NoPrune) frontier, while simulating
// strictly fewer points.
func TestFrontierMatchesBruteForce(t *testing.T) {
	spec := Spec{}

	brute := &fakeEval{}
	bruteSpec := spec
	bruteSpec.NoPrune = true
	bruteRes, err := Search(context.Background(), brute, bruteSpec, SearchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if bruteRes.Pruned != 0 || bruteRes.Simulated != bruteRes.Feasible {
		t.Fatalf("brute force pruned: %+v", bruteRes)
	}

	pruned := &fakeEval{}
	prunedRes, err := Search(context.Background(), pruned, spec, SearchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if prunedRes.Simulated >= bruteRes.Simulated {
		t.Fatalf("pruning saved nothing: %d vs %d sims", prunedRes.Simulated, bruteRes.Simulated)
	}
	if prunedRes.Simulated+prunedRes.Pruned != prunedRes.Feasible {
		t.Fatalf("accounting: %d simulated + %d pruned != %d feasible",
			prunedRes.Simulated, prunedRes.Pruned, prunedRes.Feasible)
	}
	if got, want := frontierJSON(t, prunedRes), frontierJSON(t, bruteRes); got != want {
		t.Fatalf("pruned frontier differs from brute force:\npruned: %s\nbrute:  %s", got, want)
	}
	t.Logf("brute %d sims, pruned %d sims (%d skipped), frontier %d points",
		bruteRes.Simulated, prunedRes.Simulated, prunedRes.Pruned, len(prunedRes.Frontier))
}

// TestFrontierWorkerInvariance pins that the frontier — content and order —
// is byte-identical for any worker count, even though the pruned set (and
// therefore the simulated set) may differ between schedules.
func TestFrontierWorkerInvariance(t *testing.T) {
	spec := Spec{}
	var golden string
	for _, workers := range []int{1, 2, 7, 16} {
		res, err := Search(context.Background(), &fakeEval{}, spec, SearchOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		j := frontierJSON(t, res)
		if golden == "" {
			golden = j
			continue
		}
		if j != golden {
			t.Fatalf("workers=%d frontier differs:\n%s\nvs\n%s", workers, j, golden)
		}
	}
}

// TestSearchDeterministicRepeat pins that two identical searches produce
// identical full results (counts included) — same evaluator determinism,
// same order, same prunes.
func TestSearchDeterministicRepeat(t *testing.T) {
	spec := Spec{Topos: []string{"mesh"}}
	a, err := Search(context.Background(), &fakeEval{}, spec, SearchOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(context.Background(), &fakeEval{}, spec, SearchOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("identical searches produced different results")
	}
}

// TestSearchPreCancelled pins that cancelling a search does not wait out the
// quadratic search ordering of a large space: over the full design space a
// search whose context is already cancelled returns context.Canceled without
// evaluating a single unit.
func TestSearchPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eval := &fakeEval{}
	if _, err := Search(ctx, eval, Spec{}, SearchOptions{Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled search: err %v, want context.Canceled", err)
	}
	if n := eval.evals.Load(); n != 0 {
		t.Fatalf("pre-cancelled search evaluated %d units", n)
	}
}

// TestPerfOf pins the performance-axis definition the pruning proof leans
// on: unsaturated ⇒ exactly the offered rate (the cap); saturated ⇒
// accepted throughput, still capped.
func TestPerfOf(t *testing.T) {
	if got := perfOf(sweep.UnitResult{Saturated: false, Throughput: 0.293}, 0.3); got != 0.3 {
		t.Fatalf("unsaturated perf = %g, want the 0.3 cap", got)
	}
	if got := perfOf(sweep.UnitResult{Saturated: true, Throughput: 0.21}, 0.3); got != 0.21 {
		t.Fatalf("saturated perf = %g, want measured 0.21", got)
	}
	if got := perfOf(sweep.UnitResult{Saturated: true, Throughput: 0.35}, 0.3); got != 0.3 {
		t.Fatalf("saturated above-rate perf = %g, want capped 0.3", got)
	}
}

// TestSpecID pins submission idempotence: the ID is normalization-invariant
// and spec-sensitive.
func TestSpecID(t *testing.T) {
	sparse := Spec{}
	explicit := Spec{Topos: []string{"mesh", "fbfly"}, VCs: []int{1, 2, 4}, MeshRate: 0.44, FbflyRate: 0.60, Seed: 42}
	if sparse.ID() != explicit.ID() {
		t.Fatal("default-filled and explicit specs hash differently")
	}
	other := Spec{Seed: 43}
	if sparse.ID() == other.ID() {
		t.Fatal("different specs collide")
	}
}

// TestCostDominates pins the strict-dominance predicate.
func TestCostDominates(t *testing.T) {
	base := Candidate{}.Cost
	base.DelayNS, base.AreaUM2, base.PowerMW = 1, 100, 10
	better := base
	better.AreaUM2 = 90
	if !costDominates(better, base) {
		t.Fatal("strictly better area should dominate")
	}
	if costDominates(base, better) || costDominates(base, base) {
		t.Fatal("equal or worse vectors must not dominate")
	}
	mixed := base
	mixed.AreaUM2, mixed.DelayNS = 90, 2
	if costDominates(mixed, base) {
		t.Fatal("trade-off vector must not dominate")
	}
}

// TestWorkloadAxes pins the workload dimension of the search space: the
// patterns × processes cross multiplies enumeration, every workload lands
// in its own evaluation group, dominance never crosses groups (the pruned
// frontier still matches brute force, and each group contributes frontier
// points), and non-baseline points carry a workload label suffix.
func TestWorkloadAxes(t *testing.T) {
	spec := Spec{
		Topos: []string{"mesh"}, VCs: []int{1},
		VAArchs: []string{"sep_if"}, VAArbs: []string{"rr"}, VASparse: []bool{false},
		SAArbs:    []string{"rr"},
		Patterns:  []string{"uniform", "hotspot"},
		Processes: []string{"bernoulli", "mmp"},
	}
	sp, err := Enumerate(spec)
	if err != nil {
		t.Fatal(err)
	}
	// 3 SA archs × 3 spec modes = 9 allocator points, × 4 workloads.
	if sp.Enumerated != 36 {
		t.Fatalf("enumerated %d, want 36", sp.Enumerated)
	}
	groups := map[string]int{}
	for _, c := range sp.Feasible {
		groups[evalGroup(c.Unit)]++
	}
	if len(groups) != 4 {
		t.Fatalf("feasible points span %d evaluation groups, want 4: %v", len(groups), groups)
	}

	brute := spec
	brute.NoPrune = true
	bruteRes, err := Search(context.Background(), &fakeEval{}, brute, SearchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	prunedRes, err := Search(context.Background(), &fakeEval{}, spec, SearchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := frontierJSON(t, prunedRes), frontierJSON(t, bruteRes); got != want {
		t.Fatalf("pruned frontier differs from brute force under workload axes:\npruned: %s\nbrute:  %s", got, want)
	}
	frontierGroups := map[string]bool{}
	for _, p := range prunedRes.Frontier {
		frontierGroups[evalGroup(p.Unit)] = true
		baseline := p.Unit.Process == "bernoulli" && p.Unit.Pattern == "uniform"
		if hasWL := len(p.Label) > 0 && strings.Contains(p.Label, " wl="); hasWL == baseline {
			t.Errorf("label %q: workload suffix present=%v for baseline=%v", p.Label, hasWL, baseline)
		}
	}
	if len(frontierGroups) != 4 {
		t.Fatalf("frontier spans %d evaluation groups, want all 4 (groups cannot dominate each other)", len(frontierGroups))
	}
}

// TestWorkloadSpecValidation pins the spec-level workload checks: trace is
// batch-only, and mmp/hotspot parameters are validated against the
// evaluation rates up front.
func TestWorkloadSpecValidation(t *testing.T) {
	if err := (Spec{Processes: []string{"trace"}}).Validate(); err == nil {
		t.Error("trace process accepted as a search axis")
	}
	if err := (Spec{Processes: []string{"mmp"}, Duty: 0.05}).Validate(); err == nil {
		t.Error("mmp with rate beyond duty capacity accepted (mesh rate 0.44 > 6×0.05)")
	}
	if err := (Spec{Patterns: []string{"hotspot"}, Hotspots: []int{64}}).Validate(); err == nil {
		t.Error("hotspot terminal 64 accepted over 64 terminals")
	}
	if err := (Spec{Patterns: []string{"hotspot"}, Processes: []string{"mmp"}}).Validate(); err != nil {
		t.Errorf("default-parameter mmp × hotspot rejected: %v", err)
	}
}
