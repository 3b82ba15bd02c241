package sweep

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
)

// decodeReflect is what encoding/json makes of a whole /sweep body, with the
// rules DecodeBody applies: no unknown fields, nothing after the one value.
func decodeReflect(body []byte) (Request, bool) {
	var req Request
	ok := decodeJSON(httptest.NewRecorder(), bytes.NewReader(body), &req)
	return req, ok
}

// TestScanRequestMatchesJSON: the scanner accepts the bodies clients send —
// the benchmark's 80-unit re-post, axes, every unit field spelled out, JSON
// whitespace everywhere — and builds what encoding/json builds, allocating
// nothing per unit spelled in the schema's vocabulary.
func TestScanRequestMatchesJSON(t *testing.T) {
	rf := 0.0
	every := UnitConfig{
		SchemaVersion: SchemaVersion, Topo: "fbfly", VCsPerClass: 2,
		VAArch: "wf", VAArb: "m", VASparse: true,
		SAArch: "sep_of", SAArb: "m", SpecMode: "spec_gnt",
		Pattern: "hotspot", Process: "mmp", BurstLen: 8.5, Duty: 0.125,
		Hotspots: []int{0, 63}, HotspotFraction: 0.3, TraceDigest: "00ff",
		Rate: 1e-3, ReadFraction: &rf, BufDepth: 4,
		Warmup: 10, Measure: 20, Drain: 200, Seed: 1<<64 - 1,
	}
	batch := sweepBody(t, hitBatch())
	for _, body := range [][]byte{
		batch,
		sweepBody(t, Request{Base: every, Units: []UnitConfig{every, {}}}),
		sweepBody(t, Request{Base: tinyUnit, SAArchs: []string{"wf"}, SpecModes: []string{"nonspec"}, Patterns: []string{"uniform", "bogus"}, Processes: []string{"bernoulli"}, Seeds: seeds(3), Rates: []float64{0.1, 2.5e-2}}),
		[]byte(" \t\r\n{ \"base\" : { \"va_sparse\" : false , \"rate\" : -0.0E+0 , \"seed\" : 0 } , \"units\" : [ ] , \"seeds\" : [ ] , \"rates\" : [ 1E-400 ] } \n"),
		[]byte(`{"base":{"hotspots":[],"topo":""},"units":[{"warmup":-0,"measure":-12}]}`),
	} {
		got, ok := scanRequest(body)
		if !ok {
			t.Errorf("the scanner declined %s", body)
			continue
		}
		want, ok := decodeReflect(body)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\nscanned %+v\nencoding/json %+v (ok %v)", body, got, want, ok)
		}
	}
	// One allocation: the slice of units.
	if n := testing.AllocsPerRun(10, func() { scanRequest(batch) }); n > 1 {
		t.Errorf("scanning the 80-unit re-post made %v allocations, want 1", n)
	}
}

// FuzzSweepDecode races scanRequest against encoding/json: for any body the
// scanner either declines, or builds the Request encoding/json builds under
// DecodeBody's rules. A body listing more than MaxUnits+1 explicit units is
// built only that far, and both requests make Expand fail alike.
func FuzzSweepDecode(f *testing.F) {
	for _, body := range sweepBodies {
		f.Add([]byte(body))
	}
	for _, body := range []string{
		`{"base":{"TOPO":"mesh"}}`,
		`{"units":[{}],"units":[{}]}`,
		`{"base":{"topo":null}}`,
		`{"base":{"topo":"me\u0073h"}}`,
		`{"base":{"warmup":1.5,"seed":-1,"rate":1e400}}`,
		`{"base":{"va_sparse":true,"buf_depth":01}}`,
		`{"units":[{"hotspots":[1,2,3]},{"read_fraction":0.5}],"seeds":[18446744073709551615]}`,
		` {"rates":[0,-0,1.5e-3,2E+1]} `,
		"{}\x00",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := scanRequest(body)
		if !ok {
			return
		}
		want, ok := decodeReflect(body)
		if !ok {
			t.Fatalf("scanned a body encoding/json refuses: %q", body)
		}
		if len(want.Units) > MaxUnits+1 {
			_, gotErr := got.Expand()
			_, wantErr := want.Expand()
			if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("%d units: Expand answered %v to the scanned request, %v to encoding/json's", len(want.Units), gotErr, wantErr)
			}
			want.Units = want.Units[:MaxUnits+1]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\nscanned %+v\nencoding/json %+v", body, got, want)
		}
	})
}

// TestSweepBoundsExplicitUnits: a body of MaxBodyBytes of empty units,
// {"units":[{},{},…]}, is refused as more than MaxUnits units, and decoding it
// allocates no more than MaxUnits+1 of them. Every listed unit used to be built
// first: 349 521 of 272 bytes, half a gigabyte with the slice's growth.
func TestSweepBoundsExplicitUnits(t *testing.T) {
	srv, err := NewServer(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	n := (MaxBodyBytes - len(`{"units":[]}`) + 1) / len(`{},`)
	body := append(make([]byte, 0, MaxBodyBytes), `{"units":[{}`...)
	for i := 1; i < n; i++ {
		body = append(body, `,{}`...)
	}
	body = append(body, `]}`...)
	w := httptest.NewRecorder()
	hreq := httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	srv.Handler().ServeHTTP(w, hreq)
	runtime.ReadMemStats(&after)
	if want := "sweep: request expands to more than 65536 units\n"; w.Code != http.StatusBadRequest || w.Body.String() != want {
		t.Errorf("%d-byte body of %d empty units: answered %d %q, want 400 %q", len(body), n, w.Code, w.Body, want)
	}
	const budget = 64 << 20
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d-byte body of %d empty units allocated %.1f MB (budget %d MB)", len(body), n, float64(alloc)/(1<<20), budget>>20)
	if alloc > budget {
		t.Errorf("%d-byte body of %d empty units allocated %d MB, budget %d MB", len(body), n, alloc>>20, budget>>20)
	}
}

// BenchmarkDecodeSweep is the benchmark's 80-unit re-post decoded by the
// scanner and, for comparison, by encoding/json.
func BenchmarkDecodeSweep(b *testing.B) {
	body := sweepBody(b, hitBatch())
	for _, bc := range []struct {
		name   string
		decode func([]byte) (Request, bool)
	}{{"scan", scanRequest}, {"json", decodeReflect}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := bc.decode(body); !ok {
					b.Fatal("declined")
				}
			}
		})
	}
}
