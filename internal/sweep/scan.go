package sweep

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
)

// scanRequest decodes body, the whole of a /sweep body, when it has the shape
// clients send: one object of base, the six axes and units, every key spelled
// as its json tag and given once, every value of its field's JSON kind, and
// nothing after the object but whitespace. It builds the Request
// encoding/json would (FuzzSweepDecode holds the two equal), with one
// difference: explicit units past MaxUnits+1 are scanned but not kept, as
// Expand refuses the request either way.
//
// Anything else it declines (ok is false), and the caller decodes the body
// with encoding/json, whose answer — a Request or a refusal — it is: a key
// in another case or not in the schema, a repeated key, null, a string with
// an escape or a byte outside printable ASCII, a number its field's type
// refuses (a fraction or an exponent for an int, a sign on a seed, overflow),
// and any syntax error.
func scanRequest(body []byte) (req Request, ok bool) {
	s := scanner{b: body}
	s.request(&req)
	if s.peek(); s.bad || s.i != len(s.b) {
		return Request{}, false
	}
	return req, true
}

// scanner reads one /sweep body. Its first unrecognised byte sets bad and
// moves i to the end of the body, so every loop stops at once and every value
// scanned after it reads as zero.
type scanner struct {
	b   []byte
	i   int
	bad bool
}

func (s *scanner) fail() { s.bad, s.i = true, len(s.b) }

// peek skips whitespace and returns the next byte, 0 at the end of the body
// (a NUL byte in it is refused by whatever expected something else).
func (s *scanner) peek() byte {
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// expect consumes c, the next byte after whitespace.
func (s *scanner) expect(c byte) {
	if s.peek() != c {
		s.fail()
		return
	}
	s.i++
}

// more reports whether the object or array being scanned has another member,
// consuming the comma before it, or the closing byte end (and reports false).
// first is set before the first member.
func (s *scanner) more(end byte, first bool) bool {
	switch c := s.peek(); {
	case c == end:
		s.i++
		return false
	case !first && c == ',':
		s.i++
	case !first:
		s.fail()
	}
	return !s.bad
}

// once marks member number bit of an object as seen, and declines the body if
// it was seen already: encoding/json lets a repeated key overwrite or merge
// into the first.
func (s *scanner) once(seen uint32, bit uint) uint32 {
	if seen&(1<<bit) != 0 {
		s.fail()
	}
	return seen | 1<<bit
}

// key scans an object member's name and the colon after it.
func (s *scanner) key() []byte {
	k := s.str()
	s.expect(':')
	return k
}

// str scans a string of printable ASCII without escapes and returns its
// bytes, which still belong to the body.
func (s *scanner) str() []byte {
	if s.peek() != '"' {
		s.fail()
		return nil
	}
	start := s.i + 1
	for i := start; i < len(s.b); i++ {
		switch c := s.b[i]; {
		case c == '"':
			s.i = i + 1
			return s.b[start:i]
		case c < ' ' || c > '~' || c == '\\':
			s.fail()
			return nil
		}
	}
	s.fail()
	return nil
}

// vocabulary is every name the schema gives a unit's string fields: design
// point topologies, allocator architectures, arbiter kinds, speculation
// schemes, traffic patterns and arrival processes.
var vocabulary = [...]string{
	"mesh", "fbfly",
	"sep_if", "sep_of", "wf",
	"rr", "m",
	"nonspec", "spec_gnt", "spec_req",
	"uniform", "hotspot", "transpose", "bitcomp", "bitrev", "shuffle", "tornado", "neighbor",
	"bernoulli", "mmp", "trace",
}

// word scans a string value. A name of the vocabulary comes back as the
// package's own constant, so a unit spelled in it allocates no string.
func (s *scanner) word() string {
	b := s.str()
	for _, v := range vocabulary {
		if string(b) == v {
			return v
		}
	}
	return string(b)
}

// number scans a JSON number and returns its bytes.
func (s *scanner) number() []byte {
	s.peek()
	start := s.i
	s.skip('-')
	switch {
	case s.skip('0'):
	case !s.digits():
		s.fail()
	}
	if s.skip('.') && !s.digits() {
		s.fail()
	}
	if s.skip('e') || s.skip('E') {
		if !s.skip('+') {
			s.skip('-')
		}
		if !s.digits() {
			s.fail()
		}
	}
	if s.bad {
		return nil
	}
	return s.b[start:s.i]
}

// skip consumes c if it is the next byte.
func (s *scanner) skip(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// digits consumes a run of decimal digits and reports whether there was one.
func (s *scanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// The number conversions are encoding/json's, which refuses what they
// refuse. string(b) of a short literal that does not escape stays on the
// stack.

func (s *scanner) int() int {
	n, err := strconv.ParseInt(string(s.number()), 10, strconv.IntSize)
	if err != nil {
		s.fail()
	}
	return int(n)
}

func (s *scanner) uint64() uint64 {
	n, err := strconv.ParseUint(string(s.number()), 10, 64)
	if err != nil {
		s.fail()
	}
	return n
}

func (s *scanner) float() float64 {
	f, err := strconv.ParseFloat(string(s.number()), 64)
	if err != nil {
		s.fail()
	}
	return f
}

func (s *scanner) bool() bool {
	switch s.peek() {
	case 't':
		if bytes.HasPrefix(s.b[s.i:], []byte("true")) {
			s.i += len("true")
			return true
		}
	case 'f':
		if bytes.HasPrefix(s.b[s.i:], []byte("false")) {
			s.i += len("false")
			return false
		}
	}
	s.fail()
	return false
}

// item reports whether the array being scanned has another element, n of
// them scanned so far; the first call consumes the '['. Each array starts as
// an empty slice, not nil, as encoding/json decodes [].
func (s *scanner) item(n int) bool {
	if n == 0 {
		s.expect('[')
	}
	return s.more(']', n == 0)
}

// words scans an array of strings.
func (s *scanner) words() []string {
	w := []string{}
	for s.item(len(w)) {
		w = append(w, s.word())
	}
	return w
}

func (s *scanner) request(r *Request) {
	var seen uint32
	s.expect('{')
	for first := true; s.more('}', first); first = false {
		switch string(s.key()) {
		case "base":
			seen = s.once(seen, 0)
			s.unit(&r.Base)
		case "sa_archs":
			seen = s.once(seen, 1)
			r.SAArchs = s.words()
		case "spec_modes":
			seen = s.once(seen, 2)
			r.SpecModes = s.words()
		case "patterns":
			seen = s.once(seen, 3)
			r.Patterns = s.words()
		case "processes":
			seen = s.once(seen, 4)
			r.Processes = s.words()
		case "seeds":
			seen = s.once(seen, 5)
			r.Seeds = []uint64{}
			for s.item(len(r.Seeds)) {
				r.Seeds = append(r.Seeds, s.uint64())
			}
		case "rates":
			seen = s.once(seen, 6)
			r.Rates = []float64{}
			for s.item(len(r.Rates)) {
				r.Rates = append(r.Rates, s.float())
			}
		case "units":
			seen = s.once(seen, 7)
			r.Units = s.units()
		default:
			s.fail()
		}
	}
}

// units scans the explicit units. Past MaxUnits+1 of them Expand refuses the
// request whatever they hold, so the rest are scanned into one scratch unit
// and dropped: a body of a million bytes of empty units costs one slice of
// MaxUnits+1, not a unit for every three bytes.
func (s *scanner) units() []UnitConfig {
	// Each unit opens an object, so the slice never grows.
	out := make([]UnitConfig, 0, min(bytes.Count(s.b[s.i:], []byte("{")), MaxUnits+1))
	var scratch UnitConfig
	for n := 0; s.item(n); n++ {
		if n > MaxUnits {
			s.unit(&scratch)
			continue
		}
		out = append(out, UnitConfig{})
		s.unit(&out[n])
	}
	return out
}

func (s *scanner) unit(u *UnitConfig) {
	var seen uint32
	s.expect('{')
	for first := true; s.more('}', first); first = false {
		switch string(s.key()) {
		case "schema_version":
			seen = s.once(seen, 0)
			u.SchemaVersion = s.int()
		case "topo":
			seen = s.once(seen, 1)
			u.Topo = s.word()
		case "vcs_per_class":
			seen = s.once(seen, 2)
			u.VCsPerClass = s.int()
		case "va_arch":
			seen = s.once(seen, 3)
			u.VAArch = s.word()
		case "va_arb":
			seen = s.once(seen, 4)
			u.VAArb = s.word()
		case "va_sparse":
			seen = s.once(seen, 5)
			u.VASparse = s.bool()
		case "sa_arch":
			seen = s.once(seen, 6)
			u.SAArch = s.word()
		case "sa_arb":
			seen = s.once(seen, 7)
			u.SAArb = s.word()
		case "spec_mode":
			seen = s.once(seen, 8)
			u.SpecMode = s.word()
		case "pattern":
			seen = s.once(seen, 9)
			u.Pattern = s.word()
		case "process":
			seen = s.once(seen, 10)
			u.Process = s.word()
		case "burst_len":
			seen = s.once(seen, 11)
			u.BurstLen = s.float()
		case "duty":
			seen = s.once(seen, 12)
			u.Duty = s.float()
		case "hotspots":
			seen = s.once(seen, 13)
			u.Hotspots = []int{}
			for s.item(len(u.Hotspots)) {
				u.Hotspots = append(u.Hotspots, s.int())
			}
		case "hotspot_fraction":
			seen = s.once(seen, 14)
			u.HotspotFraction = s.float()
		case "trace_digest":
			seen = s.once(seen, 15)
			u.TraceDigest = s.word()
		case "rate":
			seen = s.once(seen, 16)
			u.Rate = s.float()
		case "read_fraction":
			seen = s.once(seen, 17)
			rf := s.float()
			u.ReadFraction = &rf
		case "buf_depth":
			seen = s.once(seen, 18)
			u.BufDepth = s.int()
		case "warmup":
			seen = s.once(seen, 19)
			u.Warmup = s.int()
		case "measure":
			seen = s.once(seen, 20)
			u.Measure = s.int()
		case "drain":
			seen = s.once(seen, 21)
			u.Drain = s.int()
		case "seed":
			seen = s.once(seen, 22)
			u.Seed = s.uint64()
		default:
			s.fail()
		}
	}
}

// boundUnits returns body, one JSON value that scanRequest declined, with
// every units array of its top-level object cut to its first MaxUnits+1 units
// and the first of the rest that encoding/json refuses, if one does, and the
// most units any of its arrays keeps. Past MaxUnits+1 units Expand refuses the
// request whatever they hold, and encoding/json refuses a unit for what it
// holds, not for where it stands, so a strict decode of the cut body answers
// as one of the whole body would — the same first error, or a Request Expand
// refuses alike — while it builds at most MaxUnits+2 units of each array, not
// one for every three bytes.
func boundUnits(body []byte) (cut []byte, units int) {
	// body is valid JSON, so of the calls below only a unit's Decode can fail.
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if t, _ := dec.Token(); t != json.Delim('{') {
		return body, 0
	}
	last := 0 // cut holds body up to last
	var skip json.RawMessage
	var unit UnitConfig
	for dec.More() {
		t, _ := dec.Token()
		// encoding/json matches keys to fields case-insensitively.
		key, _ := t.(string)
		if !strings.EqualFold(key, "units") || bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n:")[0] != '[' {
			dec.Decode(&skip)
			continue
		}
		dec.Token()
		var keep int64
		var bad []byte
		n := 0
		for ; dec.More(); n++ {
			start := dec.InputOffset()
			if n <= MaxUnits {
				dec.Decode(&skip)
				keep = dec.InputOffset()
			} else if err := dec.Decode(&unit); err != nil && bad == nil {
				bad = body[start:dec.InputOffset()]
			}
		}
		if n > MaxUnits+1 {
			cut = append(append(cut, body[last:keep]...), bad...)
			last = int(dec.InputOffset())
			if n = MaxUnits + 1; bad != nil {
				n++
			}
		}
		units = max(units, n)
		dec.Token()
	}
	if cut == nil {
		return body, units
	}
	return append(cut, body[last:]...), units
}
