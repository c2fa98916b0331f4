package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fuzzBodyLimit bounds FuzzServeDecode's request bodies.
const fuzzBodyLimit = 4 << 10

// fuzzServeSeeds are FuzzServeDecode's seed bodies: the decide and batch
// bodies serve_test.go sends, malformed JSON, and well-formed requests
// carrying invalid schemas, queries and ops.
func fuzzServeSeeds() [][]byte {
	decide := func(left, right, op string) []byte {
		r := decideBody(left, right)
		r.Op = op
		b, _ := json.Marshal(r)
		return b
	}
	var batch strings.Builder
	fmt.Fprintf(&batch, `{"schema":%q,"unkeyed":true}`+"\n", graphSchema)
	batch.WriteString(`{"left":"V(X) :- edge(X, Y).","right":"V(A) :- edge(A, B)."}` + "\n")
	batch.WriteString(`{"left":"V(X) :- edge(X, Y), edge(W, Z), Y = W.","right":"V(X) :- edge(X, Y).","op":"contains"}` + "\n")
	batch.WriteString(`{"left":"broken","right":"V(A) :- edge(A, B)."}` + "\n")
	batch.WriteString(`{"left":"V(X) :- nope(X, Y).","right":"V(A) :- edge(A, B)."}` + "\n")
	batch.WriteString("{\n")
	keyed := `{"schema":"R(k*:T1, a:T2)\nS(k*:T2, b:T1)","left":"V(X) :- R(X, Y), S(Z, W), Y = Z, W = T1:3.","right":"V(X) :- R(X, Y)."}`
	return [][]byte{
		decide("V(X) :- edge(X, Y).", "V(A) :- edge(A, B).", ""),
		decide("V(X) :- edge(X, Y), edge(W, Z), Y = W.", "V(X) :- edge(X, Y).", "contains"),
		decide("V(X) :- edge(X, Y).", "V(X) :- edge(X, Y).", "xor"),
		decide("nope", "V(X) :- edge(X, Y).", ""),
		decide("V(X) :- edge(X, Y), edge(Y, Z).", "V(X) :- edge(X, Y).", ""),
		decide("V(X) :- edge(X, Y, Z).", "V(X) :- edge(X, Y).", ""),
		decide("V(X, Y) :- edge(X, Y).", "V(X) :- edge(X, Y).", ""),
		decide("V(X) :- road(X, Y).", "V(X) :- edge(X, Y).", ""),
		[]byte(`{"schema":"not a schema","left":"V(X) :- e(X).","right":"V(X) :- e(X)."}`),
		[]byte(keyed),
		[]byte(batch.String()),
		[]byte("{"),
		[]byte(`{"schema":`),
		[]byte(`[1, 2, 3]`),
		[]byte(""),
		[]byte("\x00\xff"),
	}
}

// FuzzServeDecode posts arbitrary bodies of at most 4 KiB to /v1/decide
// and /v1/batch under a 10 s decision timeout.  Every request must
// finish and answer with a 4xx, or a 200 whose body carries a verdict —
// for a batch, one well-formed line per pair (a verdict or that pair's
// error) and a closing summary.  A 500, a 504, a panic or a hang fails.
// A body that sets its own timeout_ms runs under that timeout instead,
// so only its timeout answers are exempt.
func FuzzServeDecode(f *testing.F) {
	for _, b := range fuzzServeSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > fuzzBodyLimit {
			return
		}
		s := newTestServer(t, Config{DefaultTimeout: 10 * time.Second})
		ownTimeout := bytes.Contains(body, []byte("timeout_ms"))
		for _, path := range []string{"/v1/decide", "/v1/batch"} {
			rec := serveWithin(t, s, path, body, 30*time.Second)
			switch {
			case rec.Code == http.StatusGatewayTimeout && ownTimeout:
			case rec.Code >= 400 && rec.Code < 500:
			case rec.Code == http.StatusOK && path == "/v1/decide":
				var resp decideResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.PairKey == "" {
					t.Fatalf("decide %q: 200 without a verdict: %s", body, rec.Body.String())
				}
			case rec.Code == http.StatusOK:
				checkBatchStream(t, body, rec.Body.Bytes(), ownTimeout)
			default:
				t.Fatalf("%s %q: status %d: %s", path, body, rec.Code, rec.Body.String())
			}
		}
	})
}

// serveWithin serves one request through the handler, failing the test
// when it has not answered within limit.
func serveWithin(t *testing.T, s *Server, path string, body []byte, limit time.Duration) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(rec, req)
	}()
	select {
	case <-done:
		return rec
	case <-time.After(limit):
		t.Fatalf("%s %q: no answer within %v", path, body, limit)
		return nil
	}
}

// checkBatchStream requires a 200 batch response to be well-formed
// NDJSON: result lines, each a verdict or an error that is not a
// timeout, then a summary counting them.
func checkBatchStream(t *testing.T, body, out []byte, ownTimeout bool) {
	t.Helper()
	var results int
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if bytes.Contains(sc.Bytes(), []byte(`"summary":true`)) {
			var sum batchSummary
			if err := json.Unmarshal(sc.Bytes(), &sum); err != nil {
				t.Fatalf("batch %q: bad summary line %q: %v", body, sc.Text(), err)
			}
			if sum.Pairs != results || sc.Scan() {
				t.Fatalf("batch %q: summary %+v after %d result lines, or lines after it: %s", body, sum, results, out)
			}
			return
		}
		var br batchResult
		if err := json.Unmarshal(sc.Bytes(), &br); err != nil {
			t.Fatalf("batch %q: bad result line %q: %v", body, sc.Text(), err)
		}
		if br.Error != "" && !ownTimeout && strings.Contains(br.Error, "deadline exceeded") {
			t.Fatalf("batch %q: a pair timed out: %s", body, sc.Text())
		}
		results++
	}
	t.Fatalf("batch %q: 200 without a summary line: %s", body, out)
}
