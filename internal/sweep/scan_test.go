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
// built only that far, and both requests make Expand fail alike. A body it
// declines, decodeSweep decodes as DecodeBody does: the same Request, or the
// same refusal.
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
			gotW, wantW := httptest.NewRecorder(), httptest.NewRecorder()
			got, ok := decodeSweep(gotW, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)))
			var want Request
			wantOK := decodeJSON(wantW, bytes.NewReader(body), &want)
			if ok != wantOK || gotW.Code != wantW.Code || gotW.Body.String() != wantW.Body.String() || ok && !reflect.DeepEqual(got, want) {
				t.Fatalf("%q: decodeSweep %v %d %q %+v, encoding/json %v %d %q %+v", body, ok, gotW.Code, gotW.Body, got, wantOK, wantW.Code, wantW.Body, want)
			}
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

// unitsBody is prefix, then an array of n units, {} but where at says
// otherwise, then suffix.
func unitsBody(prefix string, n int, at map[int]string, suffix string) []byte {
	body := append([]byte(prefix), '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			body = append(body, ',')
		}
		if u, ok := at[i]; ok {
			body = append(body, u...)
		} else {
			body = append(body, "{}"...)
		}
	}
	return append(append(body, ']'), suffix...)
}

// TestSweepBoundsDeclinedUnits: a MaxBodyBytes body of empty units that the
// scanner declines — for a key after the units, a unit it cannot scan, or a
// key in another case — gets encoding/json's answer, and decoding it
// allocates within the budget of TestSweepBoundsExplicitUnits. encoding/json
// alone built every listed unit first: half a gigabyte for the first body.
func TestSweepBoundsDeclinedUnits(t *testing.T) {
	srv, err := NewServer(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	n := (MaxBodyBytes - len(`{"units":[],"bogus":1}`) - len(`{"topo":1}`)) / len(`{},`)
	for _, c := range []struct {
		body []byte
		want string
	}{
		{unitsBody(`{"units":`, n, nil, `,"bogus":1}`), "bad request: json: unknown field \"bogus\"\n"},
		{unitsBody(`{"units":`, n, map[int]string{n - 2: `{"topo":1}`}, `}`), "bad request: json: cannot unmarshal number into Go struct field UnitConfig.units.topo of type string\n"},
		{unitsBody(`{"Units":`, n, nil, `}`), "sweep: request expands to more than 65536 units\n"},
	} {
		w := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(c.body))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		srv.Handler().ServeHTTP(w, hreq)
		runtime.ReadMemStats(&after)
		if w.Code != http.StatusBadRequest || w.Body.String() != c.want {
			t.Errorf("%.20s…: answered %d %q, want 400 %q", c.body, w.Code, w.Body, c.want)
		}
		const budget = 64 << 20
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%.20s…: %d-byte body of %d units allocated %.1f MB (budget %d MB)", c.body, len(c.body), n, float64(alloc)/(1<<20), budget>>20)
		if alloc > budget {
			t.Errorf("%.20s…: %d-byte body of %d units allocated %d MB, budget %d MB", c.body, len(c.body), n, alloc>>20, budget>>20)
		}
	}
}

// TestDeclinedUnitsAnswerAsJSON: a body of just over MaxUnits+1 units that
// the scanner declines is answered exactly as encoding/json's decode of the
// whole body and Expand answer it, wherever its first error is: before the
// units, among the first MaxUnits+1, among the rest, after them, in a
// repeated units key, or nowhere.
func TestDeclinedUnitsAnswerAsJSON(t *testing.T) {
	srv, err := NewServer(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const n = MaxUnits + 10
	tail := MaxUnits + 3
	for _, body := range [][]byte{
		unitsBody(`{"bogus":1,"units":`, n, map[int]string{tail: `{"x":1}`}, `}`),
		unitsBody(`{"units":`, n, map[int]string{5: `{"topo":1}`, tail: `{"x":1}`}, `}`),
		unitsBody(`{"units":`, n, map[int]string{tail: `{"seed":-1}`, tail + 2: `{"x":1}`}, `,"bogus":1}`),
		unitsBody(`{"units":`, n, map[int]string{tail: `5`}, `}`),
		unitsBody(`{"units":`, n, map[int]string{n - 1: `{"hotspots":[1,"x"]}`}, `}`),
		unitsBody(`{"units":`, n, nil, `,"bogus":1}`),
		unitsBody(`{"units":`, n, nil, `,"UNITS":[{"bogus":1}]}`),
		unitsBody(`{"units":[{"topo":"mesh"}],"units":`, n, map[int]string{tail: `{"rate":"x"}`}, `}`),
		unitsBody(` { "seeds" : [ 1 ] , "\u0075nits" : `, n, map[int]string{n - 1: ` { "Topo" : "mesh" } `}, ` , "base" : { "topo" : 5 } } `),
		unitsBody(`{"Units":`, n, nil, `}`),
		unitsBody(`{"units":`, n, map[int]string{0: `{"Topo":"mesh"}`}, `,"units":[{"x":1}]}`),
	} {
		rec := httptest.NewRecorder()
		var req Request
		want := "accepted"
		if !decodeJSON(rec, bytes.NewReader(body), &req) {
			want = rec.Body.String()
		} else if _, err := req.Expand(); err != nil {
			want = err.Error() + "\n"
		}
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)))
		if got := w.Body.String(); w.Code != http.StatusBadRequest || got != want {
			t.Errorf("%.40s…: answered %d %q, encoding/json %q", body, w.Code, got, want)
		}
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
