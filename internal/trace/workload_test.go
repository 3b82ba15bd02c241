package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"repro/internal/traffic"
)

// digest is a trace's content address, the one the sweep schema's
// TraceDigest names: the hex SHA-256 of its canonical serialization.
func digest(pt *traffic.PacketTrace) string {
	h := sha256.New()
	if err := WriteArrivals(h, pt); err != nil {
		panic(err) // hash.Hash never errors on Write
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sampleTrace() *traffic.PacketTrace {
	return &traffic.PacketTrace{Terminals: 4, Arrivals: []traffic.Arrival{
		{Cycle: 0, Src: 2, Dst: 0, Type: traffic.ReadRequest},
		{Cycle: 3, Src: 0, Dst: 3, Type: traffic.WriteRequest},
		{Cycle: 3, Src: 1, Dst: 2, Type: traffic.ReadRequest},
		{Cycle: 9, Src: 0, Dst: 1, Type: traffic.ReadRequest},
	}}
}

// TestArrivalsRoundTrip pins the serialization contract: write → read
// reproduces the trace exactly, and re-serializing yields byte-identical
// output (the format is canonical, so the digest is a content address).
func TestArrivalsRoundTrip(t *testing.T) {
	pt := sampleTrace()
	var buf bytes.Buffer
	if err := WriteArrivals(&buf, pt); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	got, err := ReadArrivals(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, pt) {
		t.Fatalf("round trip changed the trace:\nwant %+v\ngot  %+v", pt, got)
	}
	var buf2 bytes.Buffer
	if err := WriteArrivals(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != first {
		t.Fatal("re-serialization is not byte-identical")
	}
	if digest(pt) != digest(got) {
		t.Fatal("digest changed across a round trip")
	}
}

// TestArrivalsFormat pins the on-disk spelling so the format cannot drift
// silently under the digest.
func TestArrivalsFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteArrivals(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	want := "noc-ptrace/v1 terminals=4 arrivals=4\n" +
		"0 2 0 read_req\n" +
		"3 0 3 write_req\n" +
		"3 1 2 read_req\n" +
		"9 0 1 read_req\n"
	if got := buf.String(); got != want {
		t.Fatalf("serialized form drifted:\nwant %q\ngot  %q", want, got)
	}
}

// TestDigestSensitivity pins that the digest moves with the workload: any
// change to an arrival or the terminal count produces a different address.
func TestDigestSensitivity(t *testing.T) {
	base := digest(sampleTrace())
	mutants := []func(*traffic.PacketTrace){
		func(pt *traffic.PacketTrace) { pt.Terminals = 8 },
		func(pt *traffic.PacketTrace) { pt.Arrivals[1].Cycle = 4 },
		func(pt *traffic.PacketTrace) { pt.Arrivals[1].Dst = 2 },
		func(pt *traffic.PacketTrace) { pt.Arrivals[1].Type = traffic.ReadRequest },
		func(pt *traffic.PacketTrace) { pt.Arrivals = pt.Arrivals[:3] },
	}
	for i, mutate := range mutants {
		pt := sampleTrace()
		mutate(pt)
		if digest(pt) == base {
			t.Errorf("mutation %d left the digest unchanged", i)
		}
	}
}

// TestReadArrivalsRejects pins the parser's rejection surface: malformed
// headers and lines, count mismatches, and traces that fail structural
// validation (so a successfully read trace is always replayable).
func TestReadArrivalsRejects(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"bad magic", "noc-ptrace/v9 terminals=4 arrivals=0\n"},
		{"short line", "noc-ptrace/v1 terminals=4 arrivals=1\n1 2 3\n"},
		{"bad type", "noc-ptrace/v1 terminals=4 arrivals=1\n1 0 1 read_reply\n"},
		{"count mismatch", "noc-ptrace/v1 terminals=4 arrivals=2\n1 0 1 read_req\n"},
		{"self traffic", "noc-ptrace/v1 terminals=4 arrivals=1\n1 2 2 read_req\n"},
		{"out of order", "noc-ptrace/v1 terminals=4 arrivals=2\n5 0 1 read_req\n1 2 3 read_req\n"},
		{"double inject", "noc-ptrace/v1 terminals=4 arrivals=2\n1 0 1 read_req\n1 0 2 read_req\n"},
		{"negative count", "noc-ptrace/v1 terminals=4 arrivals=-1\n"},
		{"huge count", "noc-ptrace/v1 terminals=4 arrivals=1000000000000\n1 0 1 read_req\n"},
	}
	for _, tc := range cases {
		if _, err := ReadArrivals(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: parser accepted %q", tc.name, tc.in)
		}
	}
}

// FuzzReadArrivals feeds arbitrary bytes to the packet-trace parser. It must
// never panic (the simulating tools' -trace flag reads whatever file it is
// given), and a trace it accepts must survive the canonical round trip:
// written, read back and written again it is byte-identical, and its digest
// does not move.
func FuzzReadArrivals(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteArrivals(&buf, sampleTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("noc-ptrace/v1 terminals=2 arrivals=0\n"))
	f.Add([]byte("noc-ptrace/v1 terminals=3 arrivals=2\n\n  +7 0 002 write_req \n8 1 0 read_req"))
	f.Add([]byte("noc-ptrace/v1 terminals=-1 arrivals=-5\n"))
	f.Add([]byte("noc-ptrace/v1 terminals=1000000000 arrivals=1000000000000\n0 0 1 read_req\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		pt, err := ReadArrivals(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteArrivals(&first, pt); err != nil {
			t.Fatal(err)
		}
		back, err := ReadArrivals(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("canonical form of an accepted trace rejected: %v\n%s", err, first.Bytes())
		}
		if !reflect.DeepEqual(back, pt) {
			t.Fatalf("round trip changed the trace:\nread    %+v\nre-read %+v", pt, back)
		}
		var second bytes.Buffer
		if err := WriteArrivals(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("serialization not canonical:\n%q\n%q", first.Bytes(), second.Bytes())
		}
		if a, b := digest(pt), digest(back); a != b {
			t.Fatalf("digest moved over the round trip: %s -> %s", a, b)
		}
	})
}
