package sweepd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"spcoh/internal/sim"
)

// Client talks to a Server over HTTP. It implements WorkerAPI, so
// RunWorker drives the exact worker loop through it that the server's
// in-process pool runs — the only difference is the transport.
type Client struct {
	base  string
	token string
	http  *http.Client
}

// NewClient returns a client for the server at base (e.g.
// "http://127.0.0.1:8437"). Requests other than streams time out after
// a minute.
func NewClient(base string) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		http: &http.Client{Timeout: time.Minute},
	}
}

// SetToken makes every subsequent request carry "Authorization: Bearer
// <token>" — required against a Server with Options.Token set. An empty
// token sends no header.
func (c *Client) SetToken(token string) { c.token = token }

// url joins the API base with a path.
func (c *Client) url(path string) string { return c.base + APIBase + path }

// newRequest builds a request with the client's credentials attached.
func (c *Client) newRequest(method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequest(method, c.url(path), body)
	if err != nil {
		return nil, err
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	return req, nil
}

// doJSON performs one request with optional JSON body, decoding the JSON
// response into out (when non-nil). Non-2xx responses decode the error
// body into an error.
func (c *Client) doJSON(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("sweepd client: encode request: %w", err)
		}
		body = bytes.NewReader(b)
	}
	req, err := c.newRequest(method, path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeError maps a non-2xx response to an error, translating the lease
// status codes back to the sentinel errors RunWorker checks.
func decodeError(resp *http.Response) error {
	var e errorResponse
	msg := resp.Status
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e) == nil && e.Error != "" {
		msg = e.Error
	}
	switch resp.StatusCode {
	case http.StatusNotFound:
		if strings.Contains(msg, "unknown lease") {
			return ErrUnknownLease
		}
	case http.StatusGone:
		return ErrLeaseGone
	}
	return fmt.Errorf("sweepd client: %s", msg)
}

// Healthz reports whether the server answers.
func (c *Client) Healthz() error {
	return c.doJSON(http.MethodGet, "/healthz", nil, nil)
}

// Submit submits a matrix (idempotent; see Server.Submit).
func (c *Client) Submit(req *SubmitRequest) (*SubmitResponse, error) {
	var resp SubmitResponse
	if err := c.doJSON(http.MethodPost, "/sweeps", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// List lists the server's sweeps.
func (c *Client) List() (*ListResponse, error) {
	var resp ListResponse
	if err := c.doJSON(http.MethodGet, "/sweeps", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Status reports one sweep's state.
func (c *Client) Status(sweepID string) (*StatusResponse, error) {
	var resp StatusResponse
	if err := c.doJSON(http.MethodGet, "/sweeps/"+sweepID, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Results streams the merged results of a finished sweep to w, verbatim
// — the bytes are the server's deterministic rendering, byte-identical
// to a local run. format is json, csv or table ("" = json). A sweep that
// is not yet terminal yields an error (HTTP 409).
func (c *Client) Results(sweepID, format string, w io.Writer) error {
	path := "/sweeps/" + sweepID + "/results"
	if format != "" {
		path += "?format=" + format
	}
	req, err := c.newRequest(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

// StreamEvents follows a sweep's NDJSON status stream, invoking fn per
// event, until the stream ends (the sweep completed, fn returned false,
// or the connection dropped). A dropped connection returns an error; the
// caller may simply reconnect — the stream replays terminal states, so
// nothing is lost. The request carries no timeout (streams outlive any).
func (c *Client) StreamEvents(sweepID string, fn func(Event) bool) error {
	req, err := c.newRequest(http.MethodGet, "/sweeps/"+sweepID+"/events", nil)
	if err != nil {
		return err
	}
	streamClient := &http.Client{Transport: c.http.Transport}
	resp, err := streamClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("sweepd client: bad event: %w", err)
		}
		if !fn(ev) {
			return nil
		}
		if ev.Type == "complete" {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("sweepd client: stream: %w", err)
	}
	return nil
}

// WorkerAPI implementation — the remote half of the shared worker loop.

// Lease implements WorkerAPI over HTTP.
func (c *Client) Lease(worker string) (*Grant, bool, error) {
	var resp LeaseResponse
	if err := c.doJSON(http.MethodPost, "/lease", &LeaseRequest{Worker: worker}, &resp); err != nil {
		return nil, false, err
	}
	return resp.Grant, resp.Drained, nil
}

// Heartbeat implements WorkerAPI over HTTP.
func (c *Client) Heartbeat(leaseID string) error {
	return c.doJSON(http.MethodPost, "/leases/"+leaseID+"/heartbeat", struct{}{}, nil)
}

// Complete implements WorkerAPI over HTTP.
func (c *Client) Complete(leaseID string, res *sim.Result) (bool, error) {
	var resp CompleteResponse
	if err := c.doJSON(http.MethodPost, "/leases/"+leaseID+"/complete", &CompleteRequest{Result: res}, &resp); err != nil {
		return false, err
	}
	return resp.Duplicate, nil
}

// Fail implements WorkerAPI over HTTP.
func (c *Client) Fail(leaseID, errMsg string) error {
	return c.doJSON(http.MethodPost, "/leases/"+leaseID+"/fail", &FailRequest{Error: errMsg}, nil)
}
