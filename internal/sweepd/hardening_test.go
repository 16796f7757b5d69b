package sweepd

// Hardening guards of the HTTP layer: the request-body cap (413 with a
// diagnosable JSON error, never a silent connection drop or a buffered
// multi-gigabyte decode) and the shared bearer-token check.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// postRaw posts raw bytes at the server, optionally with a bearer token.
func postRaw(t *testing.T, c *Client, path, token string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, c.url(path), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeErrorBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var e errorResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e); err != nil {
		t.Fatalf("error response is not JSON: %v", err)
	}
	return e.Error
}

// TestOversizedPayloadRejected413: a submit body over the cap must come
// back as 413 with a JSON error naming the limit, and the server must
// stay fully functional afterwards.
func TestOversizedPayloadRejected413(t *testing.T) {
	_, c, stop := startServer(t, t.TempDir(), Options{MaxBodyBytes: 4096})
	defer stop()

	big := make([]byte, 8192)
	for i := range big {
		big[i] = 'x'
	}
	payload := []byte(`{"matrix":{"benches":["` + string(big) + `"]}}`)
	resp := postRaw(t, c, "/sweeps", "", payload)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: got %d, want 413", resp.StatusCode)
	}
	msg := decodeErrorBody(t, resp)
	if !strings.Contains(msg, "4096") {
		t.Errorf("413 error does not name the limit: %q", msg)
	}

	// An in-cap request still works.
	if _, err := c.Submit(&SubmitRequest{Matrix: testServerMatrix()}); err != nil {
		t.Fatalf("in-cap submit after 413: %v", err)
	}
}

// TestTokenAuth: with a token configured, unauthenticated and
// wrong-token requests get 401, and a token-carrying client works end to
// end.
func TestTokenAuth(t *testing.T) {
	_, c, stop := startServer(t, t.TempDir(), Options{Token: "sesame"})
	defer stop()

	// No token and wrong token: 401 with a JSON error.
	for _, tok := range []string{"", "wrong"} {
		resp := postRaw(t, c, "/sweeps", tok, []byte(`{}`))
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("token %q: got %d, want 401", tok, resp.StatusCode)
		}
		if msg := decodeErrorBody(t, resp); !strings.Contains(msg, "bearer token") {
			t.Errorf("401 error not diagnosable: %q", msg)
		}
	}
	if _, _, err := c.Lease("anonymous"); err == nil {
		t.Fatal("tokenless client leased against a token-protected server")
	}

	// The authenticated client exercises every verb of the worker loop.
	c.SetToken("sesame")
	sub, err := c.Submit(&SubmitRequest{Matrix: testServerMatrix()})
	if err != nil {
		t.Fatalf("authenticated submit: %v", err)
	}
	exec := &countingExec{}
	drainWorker(t, c, "authed", 1, exec.exec)
	counts := resubmitCounts(t, c, testServerMatrix())
	if counts.Done != counts.Jobs || counts.Failed != 0 {
		t.Fatalf("sweep not finished under auth: %+v", counts)
	}
	var buf bytes.Buffer
	if err := c.Results(sub.SweepID, "json", &buf); err != nil {
		t.Fatalf("authenticated results: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), localRunJSON(t, testServerMatrix())) {
		t.Error("authenticated merged results differ from the local reference run")
	}
}

// TestModeValidation: a matrix with an unknown mode is rejected at
// submit, before any job is registered.
func TestModeValidation(t *testing.T) {
	_, c, stop := startServer(t, t.TempDir(), Options{})
	defer stop()

	m := testServerMatrix()
	m.Mode = "warp"
	if _, err := c.Submit(&SubmitRequest{Matrix: m}); err == nil || !strings.Contains(err.Error(), "mode") {
		t.Fatalf("bad mode accepted: err=%v", err)
	}
	m.Mode = "fast"
	sub, err := c.Submit(&SubmitRequest{Matrix: m})
	if err != nil {
		t.Fatalf("fast-mode submit: %v", err)
	}
	if sub.Counts.Jobs != len(m.Jobs()) {
		t.Fatalf("fast-mode submit counts: %+v", sub.Counts)
	}
	// Every job the server hands out carries the /fast key suffix.
	for {
		g, _, err := c.Lease("w")
		if err != nil {
			t.Fatal(err)
		}
		if g == nil {
			break
		}
		if !strings.HasSuffix(g.Job.Key(), "/fast") {
			t.Errorf("fast-matrix job key %q lacks /fast suffix", g.Job.Key())
		}
	}
	if counts := resubmitCounts(t, c, m); counts.Leased != len(m.Jobs()) {
		t.Fatalf("leased %d of %d fast-mode jobs", counts.Leased, len(m.Jobs()))
	}
}
