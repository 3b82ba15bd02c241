package sweep

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// decode runs body through the /sweep decoder the handler uses, returning the
// Request and the status it answered (200 when it accepted the body).
func decode(body []byte) (Request, int) {
	w := httptest.NewRecorder()
	req, ok := decodeSweep(w, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)))
	if !ok {
		return req, w.Code
	}
	return req, http.StatusOK
}

// decodeBody is decode through DecodeBody, the decoder of /pareto and /curve.
func decodeBody(body []byte) (Request, int) {
	var req Request
	w := httptest.NewRecorder()
	if !DecodeBody(w, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)), &req) {
		return req, w.Code
	}
	return req, http.StatusOK
}

// TestDecodeBodyRefusesTrailingData: a POST body is one JSON value. Garbage
// or a second value after it is a 400 on /sweep (decodeSweep), /pareto and
// /curve (DecodeBody), not a request with the rest silently dropped; trailing
// whitespace is still accepted.
func TestDecodeBodyRefusesTrailingData(t *testing.T) {
	for _, tc := range []struct {
		body string
		code int
	}{
		{`{"base":{"topo":"mesh"}}`, http.StatusOK},
		{"{\"base\":{\"topo\":\"mesh\"}} \n\t\r\n", http.StatusOK},
		{`{"base":{"topo":"mesh"}}garbage`, http.StatusBadRequest},
		{`{"base":{"topo":"mesh"}}{"base":{"topo":"fbfly"}}`, http.StatusBadRequest},
		{`{"base":{"topo":"mesh"}} {}`, http.StatusBadRequest},
		{`{"base":{"topo":"mesh"}}]`, http.StatusBadRequest},
		{`{"base":{"topo":"mesh"}}0`, http.StatusBadRequest},
	} {
		if _, code := decode([]byte(tc.body)); code != tc.code {
			t.Errorf("body %q: decodeSweep answered %d, want %d", tc.body, code, tc.code)
		}
		if _, code := decodeBody([]byte(tc.body)); code != tc.code {
			t.Errorf("body %q: DecodeBody answered %d, want %d", tc.body, code, tc.code)
		}
	}
}

// sweepBodies seed the fuzz targets of the /sweep body.
var sweepBodies = []string{
	`{}`,
	`{"base":{"topo":"mesh","rate":0.02,"warmup":10,"measure":20,"drain":200},"seeds":[1,2,3]}`,
	`{"base":{"topo":"fbfly","vcs_per_class":2,"va_arch":"wf","va_arb":"m"},"sa_archs":["sep_if","wf"],"spec_modes":["nonspec","spec_gnt"],"rates":[0.1,0.2]}`,
	`{"base":{"topo":"mesh","pattern":"hotspot","hotspots":[3,5],"hotspot_fraction":0.3},"processes":["bernoulli","mmp"]}`,
	`{"base":{"topo":"mesh","seed":0,"read_fraction":0},"units":[{"topo":"fbfly","burst_len":8,"duty":0.5,"process":"mmp"}]}`,
	`{"patterns":["uniform","transpose","bogus"]}`,
	`{"base":{"process":"trace","trace_digest":"00"}}`,
	`{"base":{"schema_version":2}}`,
	`{"base":{"topo":"mesh"}}{"base":{"topo":"fbfly"}}`,
	`{"base":{"topo":"mesh"}}garbage`,
	`{"bogus":1}`,
	`null`,
	`[]`,
	`not json`,
}

// FuzzSweepRequest feeds arbitrary bytes through the /sweep decoder and
// Request.Expand, the path of every POST /sweep body before anything is
// simulated. Neither panics; a body the decoder refuses is a 400 or a 413,
// and an accepted one expands either to an error or to 1…MaxUnits units, each
// of which validates and keeps its key when normalized again.
func FuzzSweepRequest(f *testing.F) {
	for _, body := range sweepBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, code := decode(body)
		switch code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("decodeSweep answered %d", code)
		}
		units, err := req.Expand()
		if err != nil {
			return
		}
		if len(units) < 1 || len(units) > MaxUnits {
			t.Fatalf("request expanded to %d units", len(units))
		}
		for i, u := range units {
			if err := u.Validate(); err != nil {
				t.Fatalf("unit %d of an expanded request fails Validate: %v", i, err)
			}
			if k := u.Normalized().Key(); k != u.Key() {
				t.Fatalf("unit %d: key %s moved to %s when normalized again", i, u.Key(), k)
			}
		}
	})
}
