package sweepd

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"spcoh/internal/sim"
	"spcoh/internal/sweep"
)

// Options configures a Server.
type Options struct {
	// Store is the shared resumable artifact store (required). Completed
	// cells are Put here; on startup, sweeps registered in the store's
	// manifest are re-adopted and their completed cells recalled, so a
	// restarted server recomputes nothing.
	Store *sweep.Store
	// LeaseTTL is the lease lifetime; heartbeats extend it. A lease that
	// lapses fails its job. Default 1m.
	LeaseTTL time.Duration
	// Token, when non-empty, requires every API request to carry
	// "Authorization: Bearer <Token>".
	Token string
	// MaxBodyBytes caps every request body; a larger payload is rejected
	// with 413 before the decoder buffers it. Default 8 MiB — an order of
	// magnitude above the largest legitimate payload (a completed
	// metrics-enabled sim.Result).
	MaxBodyBytes int64

	// now is the queue clock; tests inject a fake. nil means time.Now.
	now func() time.Time
}

// Server is the sweep job service: a lease table (queue) over the shared
// artifact store and an HTTP/JSON API. Create with New, serve Handler,
// call Start for the lease-expiry loop and Close to stop it.
type Server struct {
	opt   Options
	store *sweep.Store
	q     *queue
	mux   *http.ServeMux

	mu     sync.Mutex
	sweeps map[string]*sweepState

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// sweepState is one registered matrix.
type sweepState struct {
	matrix sweep.Matrix
	keys   []string // job keys, sorted (= expansion order)
}

// New builds a Server over the store, re-adopting any sweeps a previous
// life registered in the store's manifest: their completed cells come
// back terminal ("cached") without recomputation, their unfinished cells
// pending.
func New(opt Options) (*Server, error) {
	if opt.Store == nil {
		return nil, errors.New("sweepd: Options.Store is required")
	}
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = time.Minute
	}
	if opt.MaxBodyBytes <= 0 {
		opt.MaxBodyBytes = 8 << 20
	}
	s := &Server{
		opt:    opt,
		store:  opt.Store,
		q:      newQueue(queueConfig{TTL: opt.LeaseTTL, now: opt.now}),
		sweeps: make(map[string]*sweepState),
	}
	s.routes()
	for _, id := range s.store.SweepIDs() {
		if m, ok := s.store.Sweep(id); ok {
			s.adopt(m)
		}
	}
	return s, nil
}

// Start launches the lease-expiry loop.
func (s *Server) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.expiryLoop(ctx)
	}()
}

// Close stops the expiry loop. Leases still out simply die with the
// process; a later life re-adopts their jobs as pending.
func (s *Server) Close() {
	if s.cancel != nil {
		s.cancel()
	}
	s.wg.Wait()
}

// expiryLoop calls expireLeases at a quarter of the lease TTL.
func (s *Server) expiryLoop(ctx context.Context) {
	interval := s.opt.LeaseTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.expireLeases()
		}
	}
}

// expireLeases fails the jobs whose leases lapsed and records them in the
// store's failure ledger.
func (s *Server) expireLeases() {
	for _, j := range s.q.expire() {
		_ = s.store.MarkFailed(j, "lease expired")
	}
}

// Submit registers a matrix (idempotently: the sweep ID is the matrix
// digest) after validating it. Jobs already present in the store come
// back terminal without recomputation; cells shared with other registered
// sweeps share their state and artifact. Scenario-spec matrices are
// refused: workers receive built-in profile cells only.
func (s *Server) Submit(req *SubmitRequest) (*SubmitResponse, error) {
	m := req.Matrix
	if err := sweep.ValidateMatrix(m); err != nil {
		return nil, err
	}
	if len(m.Specs) > 0 {
		return nil, fmt.Errorf("sweepd: the matrix names %d scenario specs; the server runs built-in profiles only (run spec matrices with a local sweep)", len(m.Specs))
	}

	id := m.Digest()
	s.mu.Lock()
	_, known := s.sweeps[id]
	s.mu.Unlock()
	if !known {
		if err := s.store.AddSweep(m); err != nil {
			return nil, err
		}
		s.adopt(m)
	}
	ss, _ := s.sweepByID(id)
	return &SubmitResponse{SweepID: id, Counts: s.q.counts(ss.keys)}, nil
}

// adopt registers a matrix's jobs with the queue, recalling completed
// cells from the store.
func (s *Server) adopt(m sweep.Matrix) {
	jobs := m.Jobs()
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = j.Key()
		_, done := s.store.Lookup(j)
		s.q.add(j, done)
	}
	s.mu.Lock()
	s.sweeps[m.Digest()] = &sweepState{matrix: m, keys: keys}
	s.mu.Unlock()
}

// sweepByID returns a registered sweep.
func (s *Server) sweepByID(id string) (*sweepState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ss, ok := s.sweeps[id]
	return ss, ok
}

// report assembles the deterministic merged report of a fully terminal
// sweep: jobs in key order, results recalled from the content-addressed
// store, failures rendered exactly as the local engine renders them. The
// bytes of its JSON rendering are therefore identical to a local
// sweep.Run of the same matrix, regardless of worker count,
// distribution, duplicate completions or server restarts.
func (s *Server) report(ss *sweepState) (*sweep.Report, error) {
	rep := &sweep.Report{}
	for _, j := range ss.matrix.Jobs() {
		jr := sweep.JobResult{Job: j}
		state, cached, errMsg := s.q.outcome(j.Key())
		switch state {
		case stateDone:
			res, ok := s.store.Lookup(j)
			if !ok {
				return nil, fmt.Errorf("sweepd: %s is done but its artifact is missing from the store", j.Key())
			}
			jr.Result = res
			jr.Cached = cached
		case stateFailed:
			// Match the local engine's terminal error shape
			// (sweep: <key>: <error>).
			jr.Err = fmt.Errorf("sweep: %s: %s", j.Key(), errMsg)
		default:
			return nil, fmt.Errorf("sweepd: %s is %s; the sweep is not terminal", j.Key(), state)
		}
		rep.Jobs = append(rep.Jobs, jr)
		switch {
		case jr.Err != nil:
			rep.Failed++
		case jr.Cached:
			rep.Cached++
		default:
			rep.Executed++
		}
	}
	return rep, nil
}

// Lease implements WorkerAPI.
func (s *Server) Lease(worker string) (*Grant, bool, error) {
	g, drained := s.q.lease(worker)
	if g == nil {
		return nil, drained, nil
	}
	return &Grant{LeaseID: g.leaseID, Job: g.job, TTLMillis: s.opt.LeaseTTL.Milliseconds()}, false, nil
}

// Heartbeat implements WorkerAPI.
func (s *Server) Heartbeat(leaseID string) error { return s.q.heartbeat(leaseID) }

// Complete implements WorkerAPI: the artifact reaches the store before
// the job flips terminal, so a crash between the two at worst recomputes
// an already-stored cell. First write wins; duplicates are no-ops.
func (s *Server) Complete(leaseID string, res *sim.Result) (bool, error) {
	job, done, err := s.q.jobForLease(leaseID)
	if err != nil {
		return false, err
	}
	if done {
		return true, nil
	}
	if res == nil {
		return false, errors.New("sweepd: complete with no result")
	}
	if err := s.store.Put(job, res); err != nil {
		msg := "store: " + err.Error()
		if _, failed, ferr := s.q.fail(leaseID, msg); ferr == nil && failed {
			_ = s.store.MarkFailed(job, msg)
		}
		return false, err
	}
	s.q.markDone(leaseID)
	return false, nil
}

// Fail implements WorkerAPI: the job fails terminally.
func (s *Server) Fail(leaseID, errMsg string) error {
	job, failed, err := s.q.fail(leaseID, errMsg)
	if err != nil {
		return err
	}
	if failed {
		_ = s.store.MarkFailed(job, errMsg)
	}
	return nil
}

// --- HTTP layer -------------------------------------------------------

// Handler returns the server's HTTP API: the route mux behind two guards
// applied to every request — the bearer-token check (when a token is
// configured) and the request-body cap.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.opt.Token != "" {
			if subtle.ConstantTimeCompare([]byte(bearerToken(r)), []byte(s.opt.Token)) != 1 {
				writeError(w, http.StatusUnauthorized,
					errors.New("missing or invalid bearer token (set Authorization: Bearer <token>)"))
				return
			}
		}
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes)
		}
		s.mux.ServeHTTP(w, r)
	})
}

// bearerToken extracts the token of an "Authorization: Bearer ..." header
// ("" when absent or differently shaped).
func bearerToken(r *http.Request) string {
	const prefix = "Bearer "
	auth := r.Header.Get("Authorization")
	if len(auth) > len(prefix) && strings.EqualFold(auth[:len(prefix)], prefix) {
		return auth[len(prefix):]
	}
	return ""
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST "+APIBase+"/sweeps", s.handleSubmit)
	s.mux.HandleFunc("GET "+APIBase+"/sweeps/{id}/results", s.handleResults)
	s.mux.HandleFunc("POST "+APIBase+"/lease", s.handleLease)
	s.mux.HandleFunc("POST "+APIBase+"/leases/{lease}/heartbeat", s.handleHeartbeat)
	s.mux.HandleFunc("POST "+APIBase+"/leases/{lease}/complete", s.handleComplete)
	s.mux.HandleFunc("POST "+APIBase+"/leases/{lease}/fail", s.handleFail)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeDecodeError(w, err)
		return
	}
	resp, err := s.Submit(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleResults renders a terminal sweep's merged report as JSON, the
// only format served.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	if format := r.URL.Query().Get("format"); format != "" && format != "json" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (json only)", format))
		return
	}
	ss, ok := s.sweepByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown sweep"))
		return
	}
	if c := s.q.counts(ss.keys); !c.Terminal() {
		writeError(w, http.StatusConflict, fmt.Errorf(
			"sweep not finished: %d pending, %d leased of %d jobs", c.Pending, c.Leased, c.Jobs))
		return
	}
	rep, err := s.report(ss)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = rep.FormatJSON(w)
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeDecodeError(w, err)
		return
	}
	if req.Worker == "" {
		req.Worker = "remote"
	}
	g, drained, err := s.Lease(req.Worker)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, &LeaseResponse{Grant: g, Drained: drained})
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if err := s.Heartbeat(r.PathValue("lease")); err != nil {
		writeLeaseError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeDecodeError(w, err)
		return
	}
	dup, err := s.Complete(r.PathValue("lease"), req.Result)
	if err != nil {
		writeLeaseError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &CompleteResponse{Duplicate: dup})
}

func (s *Server) handleFail(w http.ResponseWriter, r *http.Request) {
	var req FailRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeDecodeError(w, err)
		return
	}
	if err := s.Fail(r.PathValue("lease"), req.Error); err != nil {
		writeLeaseError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func writeLeaseError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrUnknownLease):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrLeaseGone):
		writeError(w, http.StatusGone, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// writeDecodeError maps a request-body decode failure to a status: an
// over-cap body (http.MaxBytesReader tripped) is 413 with the limit named
// so the caller knows to raise Options.MaxBodyBytes or shrink the payload;
// anything else is a plain 400.
func writeDecodeError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf(
			"request body exceeds the server's %d-byte limit (raise Options.MaxBodyBytes or shrink the payload)", mbe.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
}
