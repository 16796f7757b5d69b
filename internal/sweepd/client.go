package sweepd

import (
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
// RunWorker can lease through it.
type Client struct {
	base  string
	token string
	http  *http.Client
}

// NewClient returns a client for the server at base (e.g.
// "http://127.0.0.1:8437"). Requests time out after a minute.
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

// Submit submits a matrix (idempotent; see Server.Submit).
func (c *Client) Submit(req *SubmitRequest) (*SubmitResponse, error) {
	var resp SubmitResponse
	if err := c.doJSON(http.MethodPost, "/sweeps", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Results streams the merged results of a finished sweep to w, verbatim
// — the bytes are the server's deterministic rendering, byte-identical
// to a local run. format must be "json" or "" (the same); the server
// refuses any other with HTTP 400. A sweep that is not yet terminal
// yields an error (HTTP 409).
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

// WorkerAPI implementation.

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
