package sweepd

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"spcoh/internal/detutil"
	"spcoh/internal/scenario"
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
	// LeaseTTL is the lease lifetime; heartbeats extend it. Default 1m.
	LeaseTTL time.Duration
	// Retries is the number of additional attempts after a job's first
	// failed one (so MaxAttempts = 1 + Retries). Default 2.
	Retries int
	// Backoff is the base requeue delay after a failed attempt, jittered
	// per retryDelay (queue.go). Default 1s; BackoffSeed seeds the jitter.
	Backoff     time.Duration
	BackoffSeed int64
	// Timeout bounds one attempt's wall time in the local pool (remote
	// workers choose their own). 0 = none.
	Timeout time.Duration
	// LocalWorkers is the in-process worker pool size started by Start.
	// 0 = serve leases to remote workers only.
	LocalWorkers int
	// Poll is the local pool's idle lease cadence. Default 200ms.
	Poll time.Duration
	// Exec executes jobs in the local pool; nil means DefaultExec. Tests
	// inject stubs here.
	Exec ExecFunc
	// Token, when non-empty, requires every API request (except the
	// health probe) to carry "Authorization: Bearer <Token>".
	Token string
	// MaxBodyBytes caps every request body; a larger payload is rejected
	// with 413 before the decoder buffers it. Default 8 MiB — an order of
	// magnitude above the largest legitimate payload (a completed
	// metrics-enabled sim.Result).
	MaxBodyBytes int64
	// Log, when set, receives one line per server event. Display only.
	Log func(format string, args ...any)

	// now is the queue clock; tests inject a fake. nil means time.Now.
	now func() time.Time
}

// Server is the sweep job service: a lease table (queue) over the shared
// artifact store, an HTTP/JSON API, and an optional in-process worker
// pool. Create with New, serve Handler, call Start for the background
// loops and Close to stop them.
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
	if opt.Retries < 0 {
		opt.Retries = 0
	}
	if opt.Backoff == 0 {
		opt.Backoff = time.Second
	}
	if opt.Poll <= 0 {
		opt.Poll = 200 * time.Millisecond
	}
	if opt.Exec == nil {
		opt.Exec = DefaultExec
	}
	if opt.MaxBodyBytes <= 0 {
		opt.MaxBodyBytes = 8 << 20
	}
	if opt.Log == nil {
		opt.Log = func(string, ...any) {}
	}
	s := &Server{
		opt:   opt,
		store: opt.Store,
		q: newQueue(queueConfig{
			TTL:         opt.LeaseTTL,
			MaxAttempts: 1 + opt.Retries,
			Backoff:     opt.Backoff,
			BackoffSeed: opt.BackoffSeed,
			now:         opt.now,
		}),
		sweeps: make(map[string]*sweepState),
	}
	s.routes()
	for _, id := range s.store.SweepIDs() {
		m, ok := s.store.Sweep(id)
		if !ok {
			continue
		}
		s.adopt(m)
		s.opt.Log("adopted sweep %.12s from store", id)
	}
	return s, nil
}

// Start launches the background loops: the lease-expiry ticker and, when
// configured, the in-process worker pool (which runs the same RunWorker
// code path as remote workers, with the server itself as the API).
func (s *Server) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.expiryLoop(ctx)
	}()
	if s.opt.LocalWorkers > 0 {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			RunWorker(ctx, s, WorkerOptions{
				ID:      "local",
				Slots:   s.opt.LocalWorkers,
				Poll:    s.opt.Poll,
				Timeout: s.opt.Timeout,
				Exec:    s.opt.Exec,
				Log:     s.opt.Log,
			})
		}()
	}
}

// Close stops the background loops and waits for in-flight local attempts
// to settle. In-flight simulations are not preemptible; their leases
// simply die with the process and a later life requeues them.
func (s *Server) Close() {
	if s.cancel != nil {
		s.cancel()
	}
	s.wg.Wait()
}

// expiryLoop requeues jobs whose leases lapsed, recording jobs that
// exhausted their attempts in the store's failure ledger.
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
			for _, j := range s.q.expire() {
				s.opt.Log("%s: attempts exhausted after lease expiry", j.Key())
				_ = s.store.MarkFailed(j, "lease expired")
			}
		}
	}
}

// specDir is where uploaded scenario specs live inside the store
// directory, content-addressed by digest.
func (s *Server) specDir() string { return filepath.Join(s.store.Dir(), "specs") }

func (s *Server) specPath(digest string) string {
	return filepath.Join(s.specDir(), digest+".json")
}

// Submit registers a matrix (idempotently: the sweep ID is the matrix
// digest) after validating it and re-homing its scenario specs from the
// uploads. Jobs already present in the store come back terminal without
// recomputation; cells shared with other registered sweeps share their
// state and artifact.
func (s *Server) Submit(req *SubmitRequest) (*SubmitResponse, error) {
	m := req.Matrix
	if err := sweep.ValidateMatrix(m); err != nil {
		return nil, err
	}
	// Re-home specs: every SpecRef must arrive with content hashing to
	// the digest recorded in the ref — the same re-verification a local
	// sweep performs against the file system.
	uploads := make(map[string]json.RawMessage, len(req.Specs))
	for _, u := range req.Specs {
		sp, err := scenario.Parse(u.Content)
		if err != nil {
			return nil, fmt.Errorf("spec %q: %w", u.Name, err)
		}
		if d := sp.Digest(); d != u.Digest {
			return nil, fmt.Errorf("spec %q: content hashes to %.12s, upload claims %.12s", u.Name, d, u.Digest)
		}
		uploads[u.Digest] = u.Content
	}
	for i, ref := range m.Specs {
		content, ok := uploads[ref.Digest]
		if !ok {
			return nil, fmt.Errorf("spec %q (%.12s) referenced by the matrix but not uploaded", ref.Name, ref.Digest)
		}
		path := s.specPath(ref.Digest)
		if err := os.MkdirAll(s.specDir(), 0o755); err != nil {
			return nil, fmt.Errorf("sweepd: spec dir: %w", err)
		}
		if err := atomicWrite(path, content); err != nil {
			return nil, fmt.Errorf("sweepd: store spec %.12s: %w", ref.Digest, err)
		}
		m.Specs[i].Path = path
	}

	id := m.Digest()
	s.mu.Lock()
	_, known := s.sweeps[id]
	s.mu.Unlock()
	if !known {
		if err := s.store.AddSweep(m); err != nil {
			return nil, err
		}
		ss := s.adopt(m)
		s.opt.Log("sweep %.12s submitted: %d jobs", id, len(ss.keys))
	}
	s.mu.Lock()
	ss := s.sweeps[id]
	s.mu.Unlock()
	return &SubmitResponse{SweepID: id, Counts: s.q.counts(ss.keys)}, nil
}

// adopt registers a matrix's jobs with the queue, recalling completed
// cells from the store.
func (s *Server) adopt(m sweep.Matrix) *sweepState {
	jobs := m.Jobs()
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = j.Key()
		specPath := ""
		if j.SpecDigest != "" {
			// Specs are content-addressed inside the store; the path
			// recorded in the matrix is advisory (it is rewritten to the
			// store location at submit time, but a manifest hand-moved
			// from another host still resolves).
			specPath = j.SpecPath
			if _, err := os.Stat(specPath); err != nil {
				specPath = s.specPath(j.SpecDigest)
			}
		}
		_, done := s.store.Lookup(j)
		s.q.add(j, specPath, done)
	}
	ss := &sweepState{matrix: m, keys: keys}
	s.mu.Lock()
	s.sweeps[m.Digest()] = ss
	s.mu.Unlock()
	return ss
}

// sweepByID returns a registered sweep.
func (s *Server) sweepByID(id string) (*sweepState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ss, ok := s.sweeps[id]
	return ss, ok
}

// sweepIDs returns the registered sweep IDs, sorted.
func (s *Server) sweepIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return detutil.SortedKeys(s.sweeps)
}

// report assembles the deterministic merged report of a fully terminal
// sweep: jobs in key order, results recalled from the content-addressed
// store, failures rendered exactly as the local engine renders them. The
// bytes of every sweep.Format* rendering are therefore identical to a
// local sweep.Run of the same matrix, regardless of worker count,
// distribution, duplicate completions or server restarts.
func (s *Server) report(ss *sweepState) (*sweep.Report, error) {
	rep := &sweep.Report{}
	statuses := s.q.status(ss.keys)
	byKey := make(map[string]JobStatus, len(statuses))
	for _, js := range statuses {
		byKey[js.Key] = js
	}
	for _, j := range ss.matrix.Jobs() {
		jr := sweep.JobResult{Job: j}
		js := byKey[j.Key()]
		switch js.State {
		case "done":
			res, ok := s.store.Lookup(j)
			if !ok {
				return nil, fmt.Errorf("sweepd: %s is done but its artifact is missing from the store", j.Key())
			}
			jr.Result = res
			jr.Cached = js.Cached
		case "failed":
			// Match the local engine's terminal error shape
			// (sweep: <key>: <last attempt error>).
			jr.Err = fmt.Errorf("sweep: %s: %s", j.Key(), js.Error)
		default:
			return nil, fmt.Errorf("sweepd: %s is %s; the sweep is not terminal", j.Key(), js.State)
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

// WorkerAPI: the server itself is the in-process pool's job source, so
// local and remote workers share one code path with two transports.

// Lease implements WorkerAPI.
func (s *Server) Lease(worker string) (*Grant, bool, error) {
	g, drained := s.q.lease(worker)
	if g == nil {
		return nil, drained, nil
	}
	grant := &Grant{LeaseID: g.leaseID, Job: g.job, TTLMillis: s.opt.LeaseTTL.Milliseconds()}
	if g.job.SpecDigest != "" {
		b, err := os.ReadFile(g.specPath)
		if err != nil {
			// The cell cannot run anywhere without its spec; report the
			// attempt failed and let the retry budget decide.
			msg := fmt.Sprintf("spec unavailable on server: %v", err)
			if job, terminal, ferr := s.q.fail(g.leaseID, msg); ferr == nil && terminal {
				_ = s.store.MarkFailed(job, msg)
			}
			return nil, false, errors.New(msg)
		}
		grant.Spec = b
	}
	s.opt.Log("lease %s -> %s (%s)", g.leaseID, worker, g.job.Key())
	return grant, false, nil
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
		s.q.markDone(leaseID) // close the attempt record
		return true, nil
	}
	if res == nil {
		return false, errors.New("sweepd: complete with no result")
	}
	if err := s.store.Put(job, res); err != nil {
		if _, terminal, ferr := s.q.fail(leaseID, "store: "+err.Error()); ferr == nil && terminal {
			_ = s.store.MarkFailed(job, "store: "+err.Error())
		}
		return false, err
	}
	s.q.markDone(leaseID)
	s.opt.Log("%s: done", job.Key())
	return false, nil
}

// Fail implements WorkerAPI.
func (s *Server) Fail(leaseID, errMsg string) error {
	job, terminal, err := s.q.fail(leaseID, errMsg)
	if err != nil {
		return err
	}
	if terminal {
		s.opt.Log("%s: attempts exhausted: %s", job.Key(), errMsg)
		_ = s.store.MarkFailed(job, errMsg)
	} else {
		s.opt.Log("%s: attempt failed, requeued: %s", job.Key(), errMsg)
	}
	return nil
}

// --- HTTP layer -------------------------------------------------------

// Handler returns the server's HTTP API: the route mux behind two guards
// applied to every request — the bearer-token check (when a token is
// configured; the health probe stays open so load balancers can ping
// without credentials) and the request-body cap.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.opt.Token != "" && r.URL.Path != APIBase+"/healthz" {
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
	s.mux.HandleFunc("GET "+APIBase+"/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("POST "+APIBase+"/sweeps", s.handleSubmit)
	s.mux.HandleFunc("GET "+APIBase+"/sweeps", s.handleList)
	s.mux.HandleFunc("GET "+APIBase+"/sweeps/{id}", s.handleStatus)
	s.mux.HandleFunc("GET "+APIBase+"/sweeps/{id}/results", s.handleResults)
	s.mux.HandleFunc("GET "+APIBase+"/sweeps/{id}/events", s.handleEvents)
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

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	resp := &ListResponse{Sweeps: []SweepInfo{}}
	for _, id := range s.sweepIDs() {
		ss, ok := s.sweepByID(id)
		if !ok {
			continue
		}
		resp.Sweeps = append(resp.Sweeps, SweepInfo{SweepID: id, Counts: s.q.counts(ss.keys)})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.sweepByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown sweep"))
		return
	}
	writeJSON(w, http.StatusOK, &StatusResponse{
		SweepID: r.PathValue("id"),
		Matrix:  ss.matrix,
		Counts:  s.q.counts(ss.keys),
		Jobs:    s.q.status(ss.keys),
	})
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
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
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		if err := rep.FormatJSON(w); err != nil {
			s.opt.Log("results: %v", err)
		}
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		if err := rep.FormatCSV(w); err != nil {
			s.opt.Log("results: %v", err)
		}
	case "table":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rep.FormatTable(w)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (json|csv|table)", format))
	}
}

// handleEvents streams the sweep's status as NDJSON: terminal states
// replayed in key order for late subscribers, then live transitions, then
// one "complete" event. Display only — results come from the merge
// endpoint.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ss, ok := s.sweepByID(id)
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown sweep"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	seen := make(map[string]bool, len(ss.keys))
	for {
		ch := s.q.watch()
		events, done := s.q.terminalStatuses(ss.keys, seen)
		for i := range events {
			if err := enc.Encode(Event{Type: "job", Job: &events[i]}); err != nil {
				return
			}
		}
		if len(events) > 0 {
			flusher.Flush()
		}
		if done {
			c := s.q.counts(ss.keys)
			_ = enc.Encode(Event{Type: "complete", SweepID: id, Counts: &c})
			flusher.Flush()
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
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
// so the caller knows to raise -max-body or shrink the payload; anything
// else is a plain 400.
func writeDecodeError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf(
			"request body exceeds the server's %d-byte limit (raise -max-body on the daemon or shrink the payload)", mbe.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
}

// atomicWrite writes data via temp file + rename, like the store's.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
