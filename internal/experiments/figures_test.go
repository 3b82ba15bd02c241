package experiments_test

// The network figures are lists of simulation units that package curve
// evaluates over a sweep server; these tests sit beside the design points,
// rates, BuildSim and saturation criterion those units are made of, in an
// external test package so that they can import curve.

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/curve"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// newServer is a sweep server of the given pool size, closed with the test.
func newServer(t *testing.T, workers int) *sweep.Server {
	t.Helper()
	srv, err := sweep.NewServer(sweep.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

type figureFunc func(context.Context, sweep.Evaluator, experiments.Point, []float64, experiments.SimScale) ([]experiments.NetSeries, error)

// runFigure runs one figure driver on a server of its own.
func runFigure(t *testing.T, fig figureFunc, pt experiments.Point, rates []float64, scale experiments.SimScale) []experiments.NetSeries {
	t.Helper()
	series, err := fig(context.Background(), newServer(t, scale.Workers), pt, rates, scale)
	if err != nil {
		t.Fatal(err)
	}
	return series
}

// referenceEval evaluates every unit under the simulator's reference
// schedule: the unit's own sim.Config (UnitConfig.BuildSim) with Reference
// set, on the caller's goroutine. Run through a figure driver, it simulates
// exactly the units the driver spells, with nothing cached.
type referenceEval struct{}

func (referenceEval) EvalUnit(_ context.Context, u sweep.UnitConfig) (sweep.UnitResult, error) {
	cfg, err := u.BuildSim()
	if err != nil {
		return sweep.UnitResult{}, err
	}
	cfg.Reference = true
	res := sim.New(cfg).Run()
	return sweep.UnitResult{
		Rate: u.Rate, Latency: res.AvgLatency, Throughput: res.Throughput,
		Saturated: res.Saturated, Cycles: res.Cycles,
	}, nil
}

func TestFig13SmallRun(t *testing.T) {
	pt, _ := experiments.PointByName("mesh", 1)
	scale := experiments.SimScale{Warmup: 200, Measure: 500, Drain: 2000, Seed: 3}
	series := runFigure(t, curve.Fig13, pt, []float64{0.1}, scale)
	if len(series) != 3 {
		t.Fatalf("want 3 switch-arch curves, got %d", len(series))
	}
	for _, s := range series {
		if s.Points[0].Latency < 15 || s.Points[0].Latency > 35 {
			t.Errorf("%s: implausible low-load latency %.1f", s.Name, s.Points[0].Latency)
		}
	}
	out := experiments.FormatNetSeries(series)
	if !strings.Contains(out, "sep_if(lat)") {
		t.Errorf("FormatNetSeries missing headers:\n%s", out)
	}
	if experiments.FormatNetSeries(nil) != "" {
		t.Error("empty series should format empty")
	}
}

func TestFig14SmallRun(t *testing.T) {
	pt, _ := experiments.PointByName("mesh", 1)
	scale := experiments.SimScale{Warmup: 200, Measure: 500, Drain: 2000, Seed: 3}
	series := runFigure(t, curve.Fig14, pt, []float64{0.1}, scale)
	if len(series) != 3 {
		t.Fatalf("want 3 speculation curves, got %d", len(series))
	}
	var ns, sr float64
	for _, s := range series {
		switch s.Name {
		case "nonspec":
			ns = s.Points[0].Latency
		case "spec_req":
			sr = s.Points[0].Latency
		}
	}
	if sr >= ns {
		t.Fatalf("speculation (%.1f) should beat nonspec (%.1f) at low load", sr, ns)
	}
}

func TestVASweepSmallRun(t *testing.T) {
	pt, _ := experiments.PointByName("mesh", 2)
	scale := experiments.SimScale{Warmup: 200, Measure: 500, Drain: 2000, Seed: 3}
	series := runFigure(t, curve.VASweep, pt, []float64{0.1}, scale)
	if len(series) != 4 {
		t.Fatalf("want 4 VA curves, got %d", len(series))
	}
	base := series[0].Points[0].Latency
	for _, s := range series[1:] {
		diff := (s.Points[0].Latency - base) / base
		if diff < -0.08 || diff > 0.08 {
			t.Errorf("%s deviates from sep_if baseline by %.3f", s.Name, diff)
		}
	}
}

func TestPatternSweepInvariance(t *testing.T) {
	// §3.2: conclusions largely invariant to traffic pattern selection —
	// at low load every pattern must deliver with sane latency.
	pt, _ := experiments.PointByName("mesh", 2)
	scale := experiments.SimScale{Warmup: 300, Measure: 600, Drain: 3000, Seed: 5}
	srv := newServer(t, 1)
	series, err := curve.PatternSweep(context.Background(), srv, pt, 0.1, scale, []string{"uniform", "transpose", "bitcomp", "tornado", "neighbor"})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 5 {
		t.Fatalf("want 5 pattern series, got %d", len(series))
	}
	for _, s := range series {
		p := s.Points[0]
		if p.Saturated || p.Latency < 5 || p.Latency > 60 {
			t.Errorf("pattern %s: implausible low-load point %+v", s.Name, p)
		}
	}
	if _, err := curve.PatternSweep(context.Background(), srv, pt, 0.1, scale, []string{"bogus"}); err == nil {
		t.Fatal("unknown pattern should error")
	}
}

func TestGoldenActiveMatchesDense(t *testing.T) {
	// The Fig. 13 and Fig. 14 series (latency, throughput, saturation flags)
	// at seed 42 are bit-identical to the simulator's reference schedule on
	// both paper topologies. The default side runs on a server whose idle
	// workers are lent to heavy units.
	rates := []float64{0.05, 0.2, 0.35}
	def := experiments.SimScale{Warmup: 300, Measure: 600, Drain: 4000, Seed: 42, Workers: runtime.NumCPU()}
	for _, topo := range []string{"mesh", "fbfly"} {
		pt, err := experiments.PointByName(topo, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, fig := range []struct {
			name string
			run  figureFunc
		}{{"fig13", curve.Fig13}, {"fig14", curve.Fig14}} {
			d := runFigure(t, fig.run, pt, rates, def)
			r, err := fig.run(context.Background(), referenceEval{}, pt, rates, def)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(d, r) {
				t.Errorf("%s %s: default series diverged from the reference schedule\ndefault:   %+v\nreference: %+v",
					topo, fig.name, d, r)
			}
		}
	}
}

// TestLeapInvarianceFig13 pins the Fig. 13/14 pipeline end to end against
// the reference schedule, including a drain-heavy low-rate point where the
// default leaps over most cycles.
func TestLeapInvarianceFig13(t *testing.T) {
	rates := []float64{0.005, 0.2}
	def := experiments.SimScale{Warmup: 300, Measure: 600, Drain: 4000, Seed: 42, Workers: runtime.NumCPU()}
	for _, topo := range []string{"mesh", "fbfly"} {
		pt, err := experiments.PointByName(topo, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := curve.Fig13(context.Background(), referenceEval{}, pt, rates, def)
		if err != nil {
			t.Fatal(err)
		}
		if got := runFigure(t, curve.Fig13, pt, rates, def); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: default Fig13 series diverged from the reference\nreference: %+v\ndefault:   %+v",
				topo, want, got)
		}
		// The same simulations with the simulator's self-checks on: every
		// stepped cycle compares the wake index with the dormant/quiescent
		// predicates, every leap the skipped span with the wheel.
		for _, rate := range rates {
			cd := experiments.BuildSim(pt, rate, def)
			cr := cd
			cr.Reference = true
			cd.Validate = true
			if rd, rr := sim.New(cd).Run(), sim.New(cr).Run(); rd != rr {
				t.Errorf("%s rate=%g: validated default run diverged from the reference\nreference: %+v\ndefault:   %+v",
					topo, rate, rr, rd)
			}
		}
	}
}

func TestReportsRoundTrip(t *testing.T) {
	pt, _ := experiments.PointByName("mesh", 1)
	qr := experiments.QualityReport("fig7", pt, experiments.VCQuality(pt, []float64{0.5}, 50, 1, 1))
	if len(qr.Quality) != 3 || len(qr.Quality[0].Rate) != 1 {
		t.Fatalf("quality report malformed: %+v", qr)
	}
	scale := experiments.SimScale{Warmup: 100, Measure: 200, Drain: 800, Seed: 1}
	nr := experiments.NetworkReport("fig14", pt, runFigure(t, curve.Fig14, pt, []float64{0.1}, scale))
	if len(nr.Network) != 3 || len(nr.Network[0].Latency) != 1 {
		t.Fatalf("network report malformed: %+v", nr)
	}
	var buf bytes.Buffer
	if err := nr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"experiment\": \"fig14\"") {
		t.Fatal("network report JSON missing experiment tag")
	}
	var decoded experiments.Report
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Network) != 3 || decoded.Network[0].Latency[0] != nr.Network[0].Latency[0] {
		t.Fatalf("round trip lost the curves: %+v", decoded)
	}
}
