package sweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// countingWriter is a ResponseWriter that counts what a handler does to the
// connection: every Write is a segment on the wire, every Flush a forced one.
type countingWriter struct {
	*httptest.ResponseRecorder
	writes, flushes int
}

func (c *countingWriter) Write(b []byte) (int, error) {
	c.writes++
	return c.ResponseRecorder.Write(b)
}

func (c *countingWriter) Flush() { c.flushes++ }

// tinyUnit simulates in about a millisecond.
var tinyUnit = UnitConfig{Topo: "mesh", Rate: 0.02, Warmup: 10, Measure: 20, Drain: 200}

func seeds(n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = uint64(i + 1)
	}
	return s
}

func sweepBody(t testing.TB, req Request) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestSweepHitIsOneWrite: a request every unit of which a cache tier holds is
// answered inline — hit lines in index order, then the summary, in exactly one
// Write of declared length and no Flush. The sizes are the largest the
// repository benchmark sends: a 64-seed warm-up batch, then a 120-unit
// re-post whose body is far beyond net/http's 2 KiB chunking threshold.
func TestSweepHitIsOneWrite(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	warm := Request{Base: tinyUnit, Seeds: seeds(64), Rates: []float64{0.02, 0.03}}
	if cold := postSweep(t, ts.Client(), ts.URL, warm); cold.Summary.Misses != 128 {
		t.Fatalf("warm-up: %+v, want 128 misses", cold.Summary)
	}
	repost := Request{Base: tinyUnit, Seeds: seeds(60), Rates: []float64{0.02, 0.03}}
	body := sweepBody(t, repost)

	w := &countingWriter{ResponseRecorder: httptest.NewRecorder()}
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)))
	if w.writes != 1 || w.flushes != 0 {
		t.Fatalf("pure-hit request: %d writes, %d flushes, want 1 and 0", w.writes, w.flushes)
	}
	if got, want := w.Header().Get("Content-Length"), strconv.Itoa(w.Body.Len()); got != want {
		t.Fatalf("Content-Length %q, body is %s bytes", got, want)
	}
	lines := strings.Split(strings.TrimSuffix(w.Body.String(), "\n"), "\n")
	if len(lines) != 121 {
		t.Fatalf("%d lines, want 120 units and a summary", len(lines))
	}
	for i, line := range lines[:120] {
		var u UnitUpdate
		if err := json.Unmarshal([]byte(line), &u); err != nil || u.Index != i || u.Status != "hit" || len(u.Result) == 0 {
			t.Fatalf("line %d: %q (%v), want the hit for unit %d", i, line, err, i)
		}
	}
	var sum SweepSummary
	if err := json.Unmarshal([]byte(lines[120]), &sum); err != nil || !sum.Done || sum.Units != 120 || sum.Hits != 120 {
		t.Fatalf("summary %q (%v)", lines[120], err)
	}

	// Over a real connection the declared length arrives as a header and the
	// body is not chunked.
	resp, err := ts.Client().Post(ts.URL+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(len(got)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("Content-Length %d, Transfer-Encoding %v for a %d-byte body", resp.ContentLength, resp.TransferEncoding, len(got))
	}
	if srv.SimRuns() != 128 {
		t.Fatalf("%d simulations after two re-posts, want the 128 of the warm-up", srv.SimRuns())
	}
}

// TestSweepStreamsHitsBeforeMisses: in a mixed request the hit lines are on
// the wire before the simulated unit completes — the client reads them while
// a unit that would run for minutes has barely started.
func TestSweepStreamsHitsBeforeMisses(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1})
	postSweep(t, ts.Client(), ts.URL, Request{Base: tinyUnit, Seeds: seeds(2)})

	huge := tinyUnit
	huge.Seed, huge.Rate, huge.Measure = 3, 0.3, 50_000_000
	mixed := Request{Units: []UnitConfig{huge}, Base: tinyUnit, Seeds: seeds(2)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/sweep", bytes.NewReader(sweepBody(t, mixed)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.ContentLength >= 0 {
		t.Fatalf("a streamed response declared Content-Length %d", resp.ContentLength)
	}
	rd := bufio.NewReader(resp.Body)
	for i := 0; i < 2; i++ {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatalf("reading hit line %d: %v", i, err)
		}
		var u UnitUpdate
		if err := json.Unmarshal(line, &u); err != nil || u.Index != i || u.Status != "hit" {
			t.Fatalf("line %d: %q (%v), want the hit for unit %d", i, line, err, i)
		}
	}
	// Both hits are in hand and the miss is only now (or not yet) simulating.
	deadline := time.Now().Add(10 * time.Second)
	for srv.pool.Running() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the missed unit never started simulating")
		}
		time.Sleep(time.Millisecond)
	}
	cancel() // disconnect; the miss is abandoned
	deadline = time.Now().Add(10 * time.Second)
	for srv.flight.InFlight() != 0 || srv.pool.Running() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned unit still running 10s after disconnect")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerBoundsRequests: a body over MaxBodyBytes is a 413 and a request
// that would expand to more than MaxUnits a 400 — refused from the axis
// lengths alone, before anything of that size is allocated.
func TestServerBoundsRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	post := func(body []byte) int {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	oversized := append([]byte(`{"base":{"topo":"mesh","rate":0.1},"patterns":["`), bytes.Repeat([]byte("x"), MaxBodyBytes)...)
	if code := post(append(oversized, `"]}`...)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("%d-byte body: status %d, want 413", len(oversized), code)
	}

	// Six 1000-long axes: 10¹⁸ units in a 30 KiB body.
	many := Request{Base: tinyUnit, Seeds: seeds(1000), Rates: make([]float64, 1000)}
	for _, axis := range []*[]string{&many.SAArchs, &many.SpecModes, &many.Patterns, &many.Processes} {
		*axis = make([]string, 1000)
	}
	if n := many.unitCount(); n != MaxUnits+1 {
		t.Errorf("unitCount of 1000^6 = %d, want the cut-off %d", n, MaxUnits+1)
	}
	start := time.Now()
	if code := post(sweepBody(t, many)); code != http.StatusBadRequest {
		t.Errorf("10^18-unit request: status %d, want 400", code)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("refusing the 10^18-unit request took %v", d)
	}
	// The edge: 65 536 units pass the count, one more does not.
	edge := Request{Base: tinyUnit, Seeds: seeds(256), Rates: make([]float64, 256)}
	if n := edge.unitCount(); n != MaxUnits {
		t.Errorf("unitCount of 256×256 = %d", n)
	}
	edge.Units = []UnitConfig{tinyUnit}
	if _, err := edge.Expand(); err == nil || !strings.Contains(err.Error(), "more than 65536 units") {
		t.Errorf("65 537 units: Expand error %v", err)
	}
}

// BenchmarkHandlerHit is one cached unit served by the handler in process:
// decode, key, store lookup, one line and the summary into one write.
func BenchmarkHandlerHit(b *testing.B) {
	srv, err := NewServer(Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	body := sweepBody(b, Request{Base: tinyUnit})
	serve := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)))
		return w
	}
	if w := serve(); w.Code != http.StatusOK {
		b.Fatalf("warm-up: %d %s", w.Code, w.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := serve(); !bytes.Contains(w.Body.Bytes(), []byte(`"status":"hit"`)) {
			b.Fatalf("not a hit: %s", w.Body)
		}
	}
}

// BenchmarkLoopbackHit is the same request over a loopback connection with
// keep-alive: what service_mixed's op_p50_ms measures from the client side.
func BenchmarkLoopbackHit(b *testing.B) {
	srv, err := NewServer(Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := sweepBody(b, Request{Base: tinyUnit})
	post := func() {
		resp, err := ts.Client().Post(ts.URL+"/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
	post()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	if srv.SimRuns() != 1 {
		b.Fatalf("%d simulations, want the warm-up's one", srv.SimRuns())
	}
}

// hitBatch is the shape of sim_saturation's alternate path in the repository
// benchmark: 80 units, each spelled out (the first as the base, the rest as
// units), all cached.
func hitBatch() Request {
	units := make([]UnitConfig, 80)
	for i := range units {
		units[i] = tinyUnit
		units[i].Seed = uint64(i + 1)
	}
	return Request{Base: units[0], Units: units[1:]}
}

// hitAllocsPerUnit bounds the allocations per unit of hitBatch served from
// the memory store in process, decode, recorder and summary included. It
// measured 2.42 (194 per request) when set, so the budget leaves about a
// third for toolchain drift. It was 3.7 while encoding/json decoded the body,
// and 31.8 before results were copied onto the wire verbatim and each unit
// normalized once.
const hitAllocsPerUnit = 3.3

// TestSweepHitAllocBudget keeps a cache hit to its key and one store lookup:
// re-encoding a stored result, re-normalizing a unit, building a design
// point to validate one or decoding the body by reflection each cost at least
// one allocation per unit, and any of them coming back breaks the budget.
func TestSweepHitAllocBudget(t *testing.T) {
	srv, err := NewServer(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	req := hitBatch()
	body := sweepBody(t, req)
	serve := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)))
		return w
	}
	if w := serve(); w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte(`"misses":80`)) {
		t.Fatalf("warm-up: %d %s", w.Code, w.Body)
	}
	if w := serve(); !bytes.Contains(w.Body.Bytes(), []byte(`"hits":80`)) {
		t.Fatalf("not all hits: %s", w.Body)
	}
	units := float64(len(req.Units) + 1)
	perUnit := testing.AllocsPerRun(20, func() { serve() }) / units
	t.Logf("%.2f allocations per unit (budget %.1f)", perUnit, hitAllocsPerUnit)
	if perUnit > hitAllocsPerUnit {
		t.Errorf("a cached %.0f-unit request made %.2f allocations per unit, budget %.1f", units, perUnit, hitAllocsPerUnit)
	}
}

// BenchmarkHandlerHitBatch is hitBatch served by the handler in process, every
// unit a memory hit: 80 keys and lookups, 80 hit lines and the summary in one
// write.
func BenchmarkHandlerHitBatch(b *testing.B) {
	srv, err := NewServer(Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	body := sweepBody(b, hitBatch())
	serve := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)))
		return w
	}
	if w := serve(); w.Code != http.StatusOK {
		b.Fatalf("warm-up: %d %s", w.Code, w.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := serve(); !bytes.Contains(w.Body.Bytes(), []byte(`"hits":80`)) {
			b.Fatalf("not all hits: %s", w.Body)
		}
	}
}
