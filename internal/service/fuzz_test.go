package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"cosched/internal/scenario"
)

// FuzzHandleSubmit posts arbitrary bodies to POST /v1/campaigns through
// the daemon's handler. Every body must be answered with a 4xx error or
// an accepted campaign — 202 for a new one, 200 for a resubmission — that
// the daemon then knows by the returned ID, and the handler must never
// panic. Every execution slot is held for the whole run, so accepted
// campaigns stay queued and run no unit; each is canceled once checked.
func FuzzHandleSubmit(f *testing.F) {
	for _, sp := range []scenario.Spec{smallSpec("fuzz", 1, 2), resumeSpec("fuzz-resume", 2)} {
		var buf bytes.Buffer
		if err := sp.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"name":"x","policies":["norc"],"replicates":1}`))
	f.Add([]byte(`{"workload":{"n":2,"p":7}}`))
	f.Add([]byte(`{"bogus":1}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))

	s, err := New(Config{SpoolDir: f.TempDir(), Workers: 1, MaxActive: 1, SubmitRate: 1e9, SubmitBurst: 1e9})
	if err != nil {
		f.Fatal(err)
	}
	for len(s.slots) < cap(s.slots) {
		s.slots <- struct{}{}
	}
	f.Cleanup(s.Stop)
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/campaigns", bytes.NewReader(body))
		req.Header.Set("X-Cosched-Client", "fuzz")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch code := rec.Code; {
		case code >= 400 && code < 500:
			return
		case code != http.StatusAccepted && code != http.StatusOK:
			t.Fatalf("status %d for body %q: %s", code, body, rec.Body.Bytes())
		}
		var st statusPayload
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("status %d with an undecodable payload %q: %v", rec.Code, rec.Body.Bytes(), err)
		}
		if !s.Cancel(st.ID) {
			t.Fatalf("status %d for campaign %q, which the daemon does not know", rec.Code, st.ID)
		}
	})
}
