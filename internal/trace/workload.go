package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/traffic"
)

// Packet-trace serialization: a traffic.PacketTrace — every request
// transaction a run injected, in canonical (cycle, src) order — renders as
// a line-oriented text format so recorded workloads survive on disk and
// replay across tools:
//
//	noc-ptrace/v1 terminals=<n> arrivals=<count>
//	<cycle> <src> <dst> <type>
//	...
//
// The format is canonical (one spelling per trace), so the content digest
// of the serialized bytes identifies the workload; the sweep schema keys
// trace-driven units by that digest.

// ptraceMagic is the header tag of packet-trace files; the version suffix
// bumps with any format change.
const ptraceMagic = "noc-ptrace/v1"

// WriteArrivals serializes a packet trace in the canonical text format.
func WriteArrivals(w io.Writer, pt *traffic.PacketTrace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s terminals=%d arrivals=%d\n", ptraceMagic, pt.Terminals, len(pt.Arrivals))
	for _, a := range pt.Arrivals {
		fmt.Fprintf(bw, "%d %d %d %s\n", a.Cycle, a.Src, a.Dst, a.Type)
	}
	return bw.Flush()
}

// ReadArrivals parses the canonical text format and validates the trace's
// structural invariants, so a successfully read trace is always replayable.
func ReadArrivals(r io.Reader) (*traffic.PacketTrace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("trace: empty packet trace (want %s header)", ptraceMagic)
	}
	var terminals, count int
	if _, err := fmt.Sscanf(sc.Text(), ptraceMagic+" terminals=%d arrivals=%d", &terminals, &count); err != nil {
		return nil, fmt.Errorf("trace: bad packet-trace header %q: %w", sc.Text(), err)
	}
	// The header's count is checked against the lines below, not trusted as a size.
	pt := &traffic.PacketTrace{Terminals: terminals, Arrivals: make([]traffic.Arrival, 0, min(max(count, 0), 1<<14))}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			return nil, fmt.Errorf("trace: arrival line %d: want 4 fields, got %q", len(pt.Arrivals)+1, line)
		}
		cycle, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: arrival line %d: cycle: %w", len(pt.Arrivals)+1, err)
		}
		src, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("trace: arrival line %d: src: %w", len(pt.Arrivals)+1, err)
		}
		dst, err := strconv.Atoi(f[2])
		if err != nil {
			return nil, fmt.Errorf("trace: arrival line %d: dst: %w", len(pt.Arrivals)+1, err)
		}
		typ, err := parsePacketType(f[3])
		if err != nil {
			return nil, fmt.Errorf("trace: arrival line %d: %w", len(pt.Arrivals)+1, err)
		}
		pt.Arrivals = append(pt.Arrivals, traffic.Arrival{Cycle: cycle, Src: src, Dst: dst, Type: typ})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(pt.Arrivals) != count {
		return nil, fmt.Errorf("trace: header promises %d arrivals, file has %d", count, len(pt.Arrivals))
	}
	if err := pt.Validate(); err != nil {
		return nil, err
	}
	return pt, nil
}

// parsePacketType inverts traffic.PacketType.String for request types.
func parsePacketType(s string) (traffic.PacketType, error) {
	for _, t := range []traffic.PacketType{traffic.ReadRequest, traffic.WriteRequest} {
		if s == t.String() {
			return t, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown request packet type %q", s)
}
