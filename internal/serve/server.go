// Package serve implements the fault-tolerant advice service: an
// HTTP/JSON (and compact binary) front end over the Theorem 3.1 oracle
// with a persistent, crash-safe advice cache.
//
// Request pipeline, in order:
//
//  1. decode and validate the port-labeled graph (400 on malformation);
//  2. L1 — an in-memory memo keyed by the request body's hash: repeated
//     identical requests are served without touching graph or disk;
//  3. canonical hash (internal/canon) — relabel-invariant, so
//     isomorphic graphs share one cache identity;
//  4. L2 — the page-backed persistent store (internal/store), keyed by
//     canonical hash; a corrupt entry is evicted and treated as a miss,
//     never served;
//  5. the oracle, behind: singleflight dedup (one computation per
//     canonical hash at a time), a bounded work queue that sheds load
//     with 429 + Retry-After when full, a circuit breaker that fails
//     fast with 503 after repeated oracle failures, and a per-request
//     compute timeout (504).
//
// Successful computations are written back to the store best-effort: a
// failed cache write degrades the response (Degraded flag, counted in
// /v1/stats) instead of failing it. The service therefore keeps
// answering — more slowly, and stating so — with a broken disk, and
// never answers wrongly.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	election "repro"
	"repro/internal/advice"
	"repro/internal/bits"
	"repro/internal/canon"
	"repro/internal/graph"
	"repro/internal/store"
)

// Config configures a Server. The zero value of every field selects a
// sensible default.
type Config struct {
	// Store is the persistent advice cache; nil runs memory-only (L1
	// still works, nothing survives a restart).
	Store *store.Store
	// ComputeTimeout bounds one oracle computation (default 2m).
	ComputeTimeout time.Duration
	// QueueLimit bounds concurrent oracle computations; requests beyond
	// it are shed with 429 (default 4).
	QueueLimit int
	// RetryAfter is the hint sent with 429 responses (default 1s).
	RetryAfter time.Duration
	// BreakerThreshold is the run of consecutive oracle failures that
	// trips the circuit breaker (default 5); BreakerCooldown is how
	// long it stays open before probing (default 10s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// MemoSize bounds the L1 request memo (default 256 entries).
	MemoSize int
	// MaxBodyBytes bounds request bodies (default 64 MiB — a 100k-node
	// graph is ~1 MiB in the binary format).
	MaxBodyBytes int64
	// Logf, when set, receives one line per degradation event.
	Logf func(format string, args ...any)

	now func() time.Time // test clock for the breaker
}

// entry is one cached advice value, in every form the handlers need.
type entry struct {
	phi    int
	adv    bits.String
	env    []byte // encodeEnvelope(phi, adv), shared by store puts and wire responses
	stored bool   // the envelope is durably in the store (or no store is configured)
}

// Stats is a snapshot of the service counters (GET /v1/stats).
type Stats struct {
	Requests       int64  `json:"requests"`
	BadRequests    int64  `json:"badRequests"`
	Infeasible     int64  `json:"infeasible"`
	MemoHits       int64  `json:"memoHits"`
	StoreHits      int64  `json:"storeHits"`
	Computed       int64  `json:"computed"`
	Deduplicated   int64  `json:"deduplicated"`
	Shed           int64  `json:"shed"`
	BreakerDenied  int64  `json:"breakerDenied"`
	Timeouts       int64  `json:"timeouts"`
	OracleFailures int64  `json:"oracleFailures"`
	StoreGetErrors int64  `json:"storeGetErrors"`
	StorePutErrors int64  `json:"storePutErrors"`
	Degraded       int64  `json:"degraded"`
	Breaker        string `json:"breaker"`
	StoreEntries   int    `json:"storeEntries"`
}

type counters struct {
	requests, badRequests, infeasible          atomic.Int64
	memoHits, storeHits, computed, dedup       atomic.Int64
	shed, breakerDenied, timeouts, oracleFails atomic.Int64
	storeGetErrors, storePutErrors, degraded   atomic.Int64
}

// Server is the advice service. Create with New, expose via Handler,
// stop with Close (after http.Server.Shutdown has drained handlers).
type Server struct {
	cfg     Config
	sem     chan struct{} // bounded work queue
	breaker *breaker
	flights *flightGroup
	memo    *memoCache
	n       counters

	baseCtx context.Context // parent of every compute; canceled by Close
	cancel  context.CancelFunc
	wg      sync.WaitGroup // detached computations in flight
}

// New returns a Server over cfg.
func New(cfg Config) *Server {
	if cfg.ComputeTimeout <= 0 {
		cfg.ComputeTimeout = 2 * time.Minute
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 4
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 10 * time.Second
	}
	if cfg.MemoSize <= 0 {
		cfg.MemoSize = 256
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.QueueLimit),
		breaker: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.now),
		flights: newFlightGroup(),
		memo:    newMemoCache(cfg.MemoSize),
		baseCtx: ctx,
		cancel:  cancel,
	}
}

// Close cancels in-flight computations and waits for them. Call it
// after http.Server.Shutdown so drained handlers are not cut short.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
}

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/advice", func(w http.ResponseWriter, r *http.Request) {
		s.handleAdvice(w, r, false)
	})
	mux.HandleFunc("POST /v1/advice.bin", func(w http.ResponseWriter, r *http.Request) {
		s.handleAdvice(w, r, true)
	})
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

// AdviceRequest is the JSON request body of POST /v1/advice.
type AdviceRequest struct {
	N int `json:"n"`
	// Edges lists each undirected edge once as [u, portAtU, v, portAtV].
	Edges [][4]int `json:"edges"`
	// Transcript asks the service to also run Algorithm Elect with the
	// advice and report the election outcome.
	Transcript bool `json:"transcript,omitempty"`
}

// Transcript is the election outcome attached to a JSON response on
// request.
type Transcript struct {
	Leader   int   `json:"leader"`
	Time     int   `json:"time"`
	Messages int   `json:"messages"`
	Rounds   []int `json:"rounds,omitempty"`
}

// AdviceResponse is the JSON response body of POST /v1/advice.
type AdviceResponse struct {
	Phi           int         `json:"phi"`
	AdviceLen     int         `json:"adviceLen"`
	Advice        string      `json:"advice"`
	CanonicalHash string      `json:"canonicalHash,omitempty"`
	Cache         string      `json:"cache"`
	Degraded      bool        `json:"degraded,omitempty"`
	Transcript    *Transcript `json:"transcript,omitempty"`
}

// httpError is the typed failure every handler path funnels into.
type httpError struct {
	status     int
	code       string
	msg        string
	retryAfter time.Duration
}

func (e *httpError) Error() string { return fmt.Sprintf("%s: %s", e.code, e.msg) }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, code: "bad_request", msg: fmt.Sprintf(format, args...)}
}

var errShutdown = &httpError{status: http.StatusServiceUnavailable, code: "shutting_down", msg: "server is shutting down"}

func (s *Server) writeError(w http.ResponseWriter, err *httpError) {
	if err.retryAfter > 0 {
		secs := int(err.retryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(err.status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.msg, "code": err.code}) //nolint:errcheck
}

func (s *Server) handleAdvice(w http.ResponseWriter, r *http.Request, wire bool) {
	s.n.requests.Add(1)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.n.badRequests.Add(1)
		s.writeError(w, badRequest("reading body: %v", err))
		return
	}

	// The memo key folds in the endpoint so a JSON body and a binary
	// body can never alias. It is probed BEFORE the graph is decoded:
	// a hit means these exact bytes already validated and served, so
	// the hot path skips graph validation entirely.
	h := sha256.New()
	if wire {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	h.Write(body)
	var bodyKey [32]byte
	h.Sum(bodyKey[:0])

	var req AdviceRequest
	if !wire {
		if err := json.Unmarshal(body, &req); err != nil {
			s.n.badRequests.Add(1)
			s.writeError(w, badRequest("%v", err))
			return
		}
	}
	wantTranscript := !wire && req.Transcript

	var g *graph.Graph
	ent, memoHit := s.memo.get(bodyKey)
	if memoHit {
		s.n.memoHits.Add(1)
	} else {
		var err error
		if wire {
			g, err = graph.UnmarshalBinary(body)
		} else {
			g, err = buildGraph(&req)
		}
		if err != nil {
			s.n.badRequests.Add(1)
			s.writeError(w, badRequest("%v", err))
			return
		}
	}
	if wantTranscript && g == nil {
		// Memo hit, but the transcript needs the graph after all.
		var err error
		if g, err = buildGraph(&req); err != nil {
			s.n.badRequests.Add(1)
			s.writeError(w, badRequest("%v", err))
			return
		}
	}

	cache, degraded := CacheHot, false
	if !memoHit {
		var herr *httpError
		ent, cache, degraded, herr = s.lookupOrCompute(r.Context(), bodyKey, g)
		if herr != nil {
			s.writeError(w, herr)
			return
		}
	}
	if degraded {
		s.n.degraded.Add(1)
	}

	if wire {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(wireResponseFromEnvelope(ent.env, cache, degraded)) //nolint:errcheck
		return
	}

	resp := AdviceResponse{
		Phi:       ent.phi,
		AdviceLen: ent.adv.Len(),
		Advice:    ent.adv.String(),
		Cache:     cache,
		Degraded:  degraded,
	}
	if wantTranscript {
		tr, terr := s.runTranscript(r.Context(), g, ent.adv)
		if terr != nil {
			s.writeError(w, terr)
			return
		}
		resp.Transcript = tr
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&resp) //nolint:errcheck
}

// lookupOrCompute is the canonical hash → L2 → oracle pipeline, run
// after the L1 memo missed; it back-fills the memo under bodyKey.
func (s *Server) lookupOrCompute(ctx context.Context, bodyKey [32]byte, g *graph.Graph) (ent *entry, cache string, degraded bool, herr *httpError) {
	sum, err := canon.HashCtx(ctx, g)
	if err != nil {
		return nil, "", false, s.classifyCtxErr(err)
	}
	key := store.Key(sum)

	if s.cfg.Store != nil {
		val, ok, gerr := s.cfg.Store.Get(key)
		if gerr != nil {
			s.n.storeGetErrors.Add(1)
			s.cfg.Logf("serve: store get %x: %v (degrading to recompute)", key[:8], gerr)
			degraded = true
		} else if ok {
			phi, adv, derr := decodeEnvelope(val)
			if derr != nil {
				// The store's page checksums make this near-impossible,
				// but an envelope bug must degrade, not serve garbage.
				s.n.storeGetErrors.Add(1)
				s.cfg.Logf("serve: store envelope %x: %v (degrading to recompute)", key[:8], derr)
				degraded = true
			} else {
				s.n.storeHits.Add(1)
				ent := &entry{phi: phi, adv: adv, env: val}
				s.memo.put(bodyKey, ent)
				return ent, CacheWarm, false, nil
			}
		}
	}

	ent, herr = s.compute(ctx, key, g)
	if herr != nil {
		return nil, "", false, herr
	}
	if !ent.stored {
		degraded = true
	}
	s.memo.put(bodyKey, ent)
	return ent, CacheCold, degraded, nil
}

// compute runs the oracle behind singleflight, the bounded queue, the
// breaker and the compute timeout, and writes the result back to the
// store best-effort.
func (s *Server) compute(ctx context.Context, key store.Key, g *graph.Graph) (*entry, *httpError) {
	ent, err, shared := s.flights.do(ctx, key, func() (*entry, error) {
		// Shed before burning breaker probes or oracle time.
		select {
		case s.sem <- struct{}{}:
		default:
			s.n.shed.Add(1)
			return nil, &httpError{status: http.StatusTooManyRequests, code: "overloaded",
				msg: "work queue is full", retryAfter: s.cfg.RetryAfter}
		}
		defer func() { <-s.sem }()

		if ok, wait := s.breaker.allow(); !ok {
			s.n.breakerDenied.Add(1)
			return nil, &httpError{status: http.StatusServiceUnavailable, code: "breaker_open",
				msg: "oracle circuit breaker is open", retryAfter: wait}
		}

		// The computation runs under the server's lifetime plus the
		// compute timeout — NOT the request context — so a leader whose
		// client disconnects still finishes the work for its followers.
		s.wg.Add(1)
		defer s.wg.Done()
		cctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.ComputeTimeout)
		defer cancel()

		sys := election.NewSystem()
		a, enc, oerr := sys.ComputeAdviceCtx(cctx, g)
		if oerr != nil {
			s.breaker.report(!isOracleHealthFailure(oerr, s.baseCtx))
			return nil, oerr
		}
		s.breaker.report(true)
		s.n.computed.Add(1)

		ent := &entry{phi: a.Phi, adv: enc, env: encodeEnvelope(a.Phi, enc)}
		if s.cfg.Store != nil {
			if perr := s.cfg.Store.Put(key, ent.env); perr != nil {
				s.n.storePutErrors.Add(1)
				s.cfg.Logf("serve: store put %x: %v (serving degraded)", key[:8], perr)
			} else {
				ent.stored = true
			}
		} else {
			ent.stored = true
		}
		return ent, nil
	})
	if shared {
		s.n.dedup.Add(1)
	}
	if err == nil {
		return ent, nil
	}
	var herr *httpError
	if errors.As(err, &herr) {
		return nil, herr
	}
	return nil, s.classifyOracleErr(err)
}

// classifyCtxErr maps context failures during hashing/waiting.
func (s *Server) classifyCtxErr(err error) *httpError {
	switch {
	case s.baseCtx.Err() != nil:
		return errShutdown
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.n.timeouts.Add(1)
		return &httpError{status: http.StatusGatewayTimeout, code: "timeout", msg: "request canceled or timed out"}
	default:
		return &httpError{status: http.StatusInternalServerError, code: "internal", msg: err.Error()}
	}
}

// classifyOracleErr maps oracle failures to HTTP statuses.
func (s *Server) classifyOracleErr(err error) *httpError {
	msg := err.Error()
	switch {
	case errors.Is(err, advice.ErrInfeasible):
		s.n.infeasible.Add(1)
		return &httpError{status: http.StatusUnprocessableEntity, code: "infeasible", msg: msg}
	case s.baseCtx.Err() != nil:
		return errShutdown
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.n.timeouts.Add(1)
		return &httpError{status: http.StatusGatewayTimeout, code: "timeout",
			msg: "oracle computation exceeded the compute timeout"}
	default:
		s.n.oracleFails.Add(1)
		return &httpError{status: http.StatusInternalServerError, code: "oracle_error", msg: msg}
	}
}

// isOracleHealthFailure reports whether err should count against the
// circuit breaker: infeasible inputs are the client's problem, a
// server shutdown is nobody's, but timeouts and internal errors
// suggest the next computation is also doomed.
func isOracleHealthFailure(err error, baseCtx context.Context) bool {
	return !errors.Is(err, advice.ErrInfeasible) && baseCtx.Err() == nil
}

func (s *Server) runTranscript(ctx context.Context, g *graph.Graph, adv bits.String) (*Transcript, *httpError) {
	sys := election.NewSystem()
	res, err := sys.RunElect(g, adv, election.Options{Context: ctx})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.n.timeouts.Add(1)
			return nil, &httpError{status: http.StatusGatewayTimeout, code: "timeout", msg: "transcript run canceled"}
		}
		return nil, &httpError{status: http.StatusInternalServerError, code: "transcript_error", msg: err.Error()}
	}
	return &Transcript{Leader: res.Leader, Time: res.Time, Messages: res.Messages, Rounds: res.Rounds}, nil
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{ //nolint:errcheck
		"status":  "ok",
		"breaker": s.breaker.current().String(),
	})
}

// StatsSnapshot returns the current counters.
func (s *Server) StatsSnapshot() Stats {
	st := Stats{
		Requests:       s.n.requests.Load(),
		BadRequests:    s.n.badRequests.Load(),
		Infeasible:     s.n.infeasible.Load(),
		MemoHits:       s.n.memoHits.Load(),
		StoreHits:      s.n.storeHits.Load(),
		Computed:       s.n.computed.Load(),
		Deduplicated:   s.n.dedup.Load(),
		Shed:           s.n.shed.Load(),
		BreakerDenied:  s.n.breakerDenied.Load(),
		Timeouts:       s.n.timeouts.Load(),
		OracleFailures: s.n.oracleFails.Load(),
		StoreGetErrors: s.n.storeGetErrors.Load(),
		StorePutErrors: s.n.storePutErrors.Load(),
		Degraded:       s.n.degraded.Load(),
		Breaker:        s.breaker.current().String(),
	}
	if s.cfg.Store != nil {
		st.StoreEntries = s.cfg.Store.Len()
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	st := s.StatsSnapshot()
	json.NewEncoder(w).Encode(&st) //nolint:errcheck
}

// buildGraph validates and finalizes the JSON edge list.
func buildGraph(req *AdviceRequest) (*graph.Graph, error) {
	if req.N < 1 || req.N > 1<<24 {
		return nil, fmt.Errorf("n = %d out of range [1, 2^24]", req.N)
	}
	b := graph.NewBuilder(req.N)
	for i, e := range req.Edges {
		for _, x := range e {
			if x < 0 {
				return nil, fmt.Errorf("edge %d has a negative field", i)
			}
		}
		b.AddEdge(e[0], e[1], e[2], e[3])
	}
	return b.Finalize()
}
