package sweep

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

// elapsedNS matches the only bytes of a /sweep response that vary between
// two answers to one request.
var elapsedNS = regexp.MustCompile(`"elapsed_ns":[0-9]+`)

// TestSweepRefusals pins what POST /sweep answers to bodies that are not the
// plain shape clients send: the status and every byte of the response. A body
// encoding/json accepts (a differently-cased key, an escaped string, null) is
// answered as the plainly spelled body it decodes to; the rest are refused
// with the decoder's own message, or with Expand's once they decode.
func TestSweepRefusals(t *testing.T) {
	srv, err := NewServer(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	post := func(body []byte) (int, string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)))
		return w.Code, elapsedNS.ReplaceAllString(w.Body.String(), `"elapsed_ns":0`)
	}
	const badTopo = "unit 0: experiments: no design point bogus C=1\n"
	oversized := append([]byte(`{"base":{"topo":"mesh"},"patterns":["`), bytes.Repeat([]byte("x"), MaxBodyBytes)...)
	oversized = append(oversized, `"]}`...)
	for _, tc := range []struct {
		name string
		body string
		code int
		// want is the response body, or same names a body whose response
		// this one must equal.
		want, same string
	}{
		{"unknown field", `{"base":{"topo":"mesh","bogus":1}}`, 400, "bad request: json: unknown field \"bogus\"\n", ""},
		{"unknown top-level field", `{"bogus":[]}`, 400, "bad request: json: unknown field \"bogus\"\n", ""},
		{"differently-cased field", `{"base":{"TOPO":"bogus"}}`, 400, badTopo, ""},
		{"differently-cased axis", `{"Seeds":[1],"base":{"topo":"bogus"}}`, 400, badTopo, ""},
		{"duplicate units", `{"units":[{},{}],"units":[{"topo":"bogus"}]}`, 400, "unit 1: experiments: no design point bogus C=1\n", ""},
		{"duplicate field", `{"base":{"topo":"mesh","topo":"bogus"}}`, 400, badTopo, ""},
		{"null", `null`, 200, "", `{}`},
		{"null field", `{"base":{"topo":null,"measure":20,"warmup":10,"drain":200,"rate":0.02}}`, 200, "", `{"base":{"measure":20,"warmup":10,"drain":200,"rate":0.02}}`},
		{"array", `[]`, 400, "bad request: json: cannot unmarshal array into Go value of type sweep.Request\n", ""},
		{"empty body", ``, 400, "bad request: EOF\n", ""},
		{"string rate", `{"base":{"rate":"x"}}`, 400, "bad request: json: cannot unmarshal string into Go struct field UnitConfig.base.rate of type float64\n", ""},
		{"fractional warmup", `{"base":{"warmup":1.5}}`, 400, "bad request: json: cannot unmarshal number 1.5 into Go struct field UnitConfig.base.warmup of type int\n", ""},
		{"exponent warmup", `{"base":{"warmup":1e3}}`, 400, "bad request: json: cannot unmarshal number 1e3 into Go struct field UnitConfig.base.warmup of type int\n", ""},
		{"negative seed", `{"base":{"seed":-1}}`, 400, "bad request: json: cannot unmarshal number -1 into Go struct field UnitConfig.base.seed of type uint64\n", ""},
		{"negative seed axis", `{"seeds":[1,-1]}`, 400, "bad request: json: cannot unmarshal number -1 into Go struct field Request.seeds of type uint64\n", ""},
		{"float overflow", `{"base":{"rate":1e400}}`, 400, "bad request: json: cannot unmarshal number 1e400 into Go struct field UnitConfig.base.rate of type float64\n", ""},
		{"int overflow", `{"units":[{"drain":99999999999999999999}]}`, 400, "bad request: json: cannot unmarshal number 99999999999999999999 into Go struct field UnitConfig.units.drain of type int\n", ""},
		{"escaped string", `{"base":{"topo":"b\u006fgus"}}`, 400, badTopo, ""},
		{"non-ASCII string", `{"base":{"topo":"bogus` + "é" + `"}}`, 400, "unit 0: experiments: no design point bogusé C=1\n", ""},
		{"syntax error", `{"base":{"topo":"mesh"`, 400, "bad request: unexpected EOF\n", ""},
		{"trailing garbage", `{"base":{"topo":"mesh"}}garbage`, 400, "bad request: invalid character 'g' looking for beginning of value\n", ""},
		{"second object", `{"base":{"topo":"mesh"}}{"base":{"topo":"fbfly"}}`, 400, "bad request: trailing data after the JSON value\n", ""},
		{"over MaxBodyBytes", string(oversized), 413, "bad request: http: request body too large\n", ""},
		{"over MaxBodyBytes, bad first byte", "x" + string(oversized), 400, "bad request: invalid character 'x' looking for beginning of value\n", ""},
	} {
		want := tc.want
		if tc.same != "" {
			post([]byte(tc.same)) // simulates the unit, so both answers below are hits
			code, same := post([]byte(tc.same))
			if code != http.StatusOK || !strings.Contains(same, `"hits":1`) {
				t.Fatalf("%s: the plain body %s answered %d: %s", tc.name, tc.same, code, same)
			}
			want = same
		}
		code, got := post([]byte(tc.body))
		if code != tc.code || got != want {
			t.Errorf("%s: answered %d %q\nwant %d %q", tc.name, code, clip(got), tc.code, clip(want))
		}
	}
}

// clip shortens a response for a failure message.
func clip(s string) string {
	if len(s) > 300 {
		return s[:300] + "…"
	}
	return strings.TrimSpace(s)
}
