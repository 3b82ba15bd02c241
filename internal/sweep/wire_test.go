package sweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// elapsedField matches every elapsed_ns value of a response; the wire golden
// zeroes them, as the only bytes of a response that depend on the host.
var elapsedField = regexp.MustCompile(`"elapsed_ns":[0-9]+`)

// holdFlight occupies the coalescing slot of key with a computation that
// returns (val, err) once release is closed. A request unit with that key
// attaches to it; attached reports how many callers wait on it besides this
// one.
func holdFlight(g *Group, key string, val []byte, err error) (release chan struct{}, attached func() int) {
	release = make(chan struct{})
	started := make(chan struct{})
	go g.Do(context.Background(), key, func(context.Context) ([]byte, error) {
		close(started)
		<-release
		return val, err
	})
	<-started
	return release, func() int {
		g.mu.Lock()
		defer g.mu.Unlock()
		if c, ok := g.m[key]; ok {
			return c.waiters - 1
		}
		return 0
	}
}

// TestSweepWireGolden pins the exact bytes of one /sweep response: two memory
// hits, a disk hit served from a hand-edited (re-indented, raw '<', '&' and
// U+2028 in an extra field) result file, a miss, a unit coalesced onto
// another caller's computation, and an error whose message needs JSON and
// HTML escaping. Only the elapsed_ns values are zeroed. The streamed lines
// are released one at a time, so their order is fixed too. A repeat of the
// disk unit, now a memory hit, must answer the same line.
func TestSweepWireGolden(t *testing.T) {
	root := t.TempDir()
	srv, ts := newTestServer(t, Options{Workers: 1, CacheDir: root})
	unit := func(seed uint64) UnitConfig {
		u := tinyUnit
		u.Seed = seed
		return u
	}
	if r := postSweep(t, ts.Client(), ts.URL, Request{Base: tinyUnit, Seeds: []uint64{1, 2}}); r.Summary.Misses != 2 {
		t.Fatalf("warm-up: %+v", r.Summary)
	}

	// The disk unit's result, simulated here and written back re-indented
	// with an extra field the wire must carry compacted and escaped.
	disk := unit(3).Normalized()
	res, _, err := RunUnit(context.Background(), disk, nil)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var edited bytes.Buffer
	if err := json.Indent(&edited, compact, "", "\t"); err != nil {
		t.Fatal(err)
	}
	edited.Truncate(edited.Len() - 1) // the closing brace
	edited.WriteString(",\n\t\"note\": \"edited <by hand> & kept \u2028\"\n}\n")
	if err := os.WriteFile(filepath.Join(srv.Disk().Dir(), disk.Key()+diskSuffix), edited.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	coalesced, failing := unit(5).Normalized(), unit(6).Normalized()
	shared, err := json.Marshal(UnitResult{SchemaVersion: SchemaVersion, Key: coalesced.Key(), Config: coalesced, Rate: 0.02, Latency: 17.25, Throughput: 0.02, Cycles: 230})
	if err != nil {
		t.Fatal(err)
	}
	releaseC, attachedC := holdFlight(srv.flight, coalesced.Key(), shared, nil)
	releaseE, attachedE := holdFlight(srv.flight, failing.Key(), nil, errors.New("sweep: unit <6> & \"friends\" failed \u2028 here"))

	req := Request{Base: unit(1), Units: []UnitConfig{coalesced, unit(2), failing, unit(3), unit(4)}}
	resp, err := ts.Client().Post(ts.URL+"/sweep", "application/json", bytes.NewReader(sweepBody(t, req)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /sweep: %s", resp.Status)
	}
	rd := bufio.NewReader(resp.Body)
	var got bytes.Buffer
	readLine := func() []byte {
		t.Helper()
		line, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatalf("after %q: %v", got.String(), err)
		}
		got.Write(line)
		return line
	}
	waitAttached := func(attached func() int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for attached() != 1 {
			if time.Now().After(deadline) {
				t.Fatal("the request never attached to the held computation")
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < 4; i++ { // hits 0, 2 and 4, then the miss (unit 5)
		readLine()
	}
	waitAttached(attachedE)
	close(releaseE)
	readLine()
	waitAttached(attachedC)
	close(releaseC)
	readLine()
	readLine() // the summary
	if rest, _ := rd.ReadBytes('\n'); len(rest) != 0 {
		t.Fatalf("bytes after the summary: %q", rest)
	}
	wire := elapsedField.ReplaceAll(got.Bytes(), []byte(`"elapsed_ns":0`))

	want, err := os.ReadFile(filepath.Join("testdata", "sweep_wire.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire, want) {
		t.Fatalf("response bytes differ from testdata/sweep_wire.golden:\n got %s\nwant %s", wire, want)
	}
	if n := srv.SimRuns(); n != 3 {
		t.Fatalf("%d simulations, want the warm-up's two and the miss", n)
	}

	// The disk unit is a memory hit now, on the same line.
	resp2, err := ts.Client().Post(ts.URL+"/sweep", "application/json", bytes.NewReader(sweepBody(t, Request{Base: unit(3)})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	line, err := bufio.NewReader(resp2.Body).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(want, []byte("\n"))
	if got, want := elapsedField.ReplaceAll(line, []byte(`"elapsed_ns":0`)), bytes.Replace(lines[2], []byte(`"index":4`), []byte(`"index":0`), 1); !bytes.Equal(got, want) {
		t.Fatalf("repeat of the disk unit:\n got %s\nwant %s", got, want)
	}
}

// FuzzSweepLine holds appendLine to json.Encoder: for any index, key, status
// and elapsed time, and a result json.Marshal made from an arbitrary
// UnitResult (none when it refuses one: NaN or an infinity), the line is the
// encoder's byte for byte.
func FuzzSweepLine(f *testing.F) {
	f.Add(0, "4e63669ecae71bad246e08f0bef77b7ecd87d731ac3214345c41e8672b31c5eb", "hit", int64(1234), "mesh", "uniform", 0.02, 17.25, int64(230), true, uint64(1))
	f.Add(-1, "k <&>\"\\\x00\xff", "coalesced", int64(-5), "fb<fly>", "a&b \x7f", -0.0, 1e300, int64(-1), false, uint64(1<<63))
	f.Add(1<<40, "", "", int64(1<<62), "", "", 0.0, 0.0, int64(0), false, uint64(0))
	f.Fuzz(func(t *testing.T, index int, key, status string, elapsed int64, topo, pattern string, rate, latency float64, cycles int64, saturated bool, seed uint64) {
		res := UnitResult{
			SchemaVersion: int(seed % 7), Key: key,
			Config: UnitConfig{Topo: topo, Pattern: pattern, Rate: rate, Seed: seed, Hotspots: []int{int(cycles % 64)}, ReadFraction: &latency},
			Rate:   rate, Latency: latency, Throughput: rate * latency, Saturated: saturated, Cycles: cycles,
			AvgHops: float64(elapsed) / 3,
		}
		upd := UnitUpdate{Index: index, Key: key, Status: status, ElapsedNS: elapsed}
		if b, err := json.Marshal(res); err == nil {
			upd.Result = b
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(upd); err != nil {
			t.Fatal(err)
		}
		if got := appendLine(nil, &upd); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendLine wrote\n%q\nthe encoder\n%q", got, want.Bytes())
		}
	})
}
