package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	election "repro"
	"repro/internal/bits"
	"repro/internal/graph"
	"repro/internal/store"
)

// ---- codec -----------------------------------------------------------

func TestEnvelopeRoundTrip(t *testing.T) {
	for _, s := range []string{"", "1", "0110", strings.Repeat("10011", 100)} {
		adv := bits.New(s)
		env := encodeEnvelope(7, adv)
		phi, got, err := decodeEnvelope(env)
		if err != nil || phi != 7 || !bits.Equal(got, adv) {
			t.Fatalf("envelope round trip of %d bits: phi=%d err=%v", adv.Len(), phi, err)
		}
	}
}

func TestWireResponseRoundTrip(t *testing.T) {
	adv := bits.New("1011001")
	for _, cache := range []string{CacheCold, CacheWarm, CacheHot} {
		for _, degraded := range []bool{false, true} {
			data := encodeWireResponse(3, adv, cache, degraded)
			phi, got, c, d, err := decodeWireResponse(data)
			if err != nil || phi != 3 || !bits.Equal(got, adv) || c != cache || d != degraded {
				t.Fatalf("wire round trip (%s, %v): phi=%d c=%s d=%v err=%v", cache, degraded, phi, c, d, err)
			}
		}
	}
}

func TestWireDecodersReject(t *testing.T) {
	adv := bits.New("10110")
	good := encodeWireResponse(2, adv, CacheCold, false)
	cases := map[string][]byte{
		"empty":            {},
		"bad magic":        append([]byte("XXXX"), good[4:]...),
		"unknown flags":    append(append([]byte{}, good[:4]...), append([]byte{0x80}, good[5:]...)...),
		"truncated":        good[:len(good)-1],
		"nonzero padding":  append(append([]byte{}, good[:len(good)-1]...), good[len(good)-1]|1),
		"bad cache code":   append(append([]byte{}, good[:4]...), append([]byte{3 << respCacheShift}, good[5:]...)...),
		"envelope cut off": good[:6],
	}
	for name, data := range cases {
		if _, _, _, _, err := decodeWireResponse(data); err == nil {
			t.Errorf("%s: decodeWireResponse accepted", name)
		}
	}
}

// ---- breaker ---------------------------------------------------------

func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := newBreaker(3, 10*time.Second, clock)

	report := func(ok bool) {
		allowed, _ := b.allow()
		if !allowed {
			t.Fatal("closed breaker denied")
		}
		b.report(ok)
	}
	report(true)
	report(false)
	report(false)
	report(true) // success resets the run
	report(false)
	report(false)
	if b.current() != breakerClosed {
		t.Fatalf("breaker open after a broken run of 2, threshold 3")
	}
	report(false) // third consecutive failure trips it
	if b.current() != breakerOpen {
		t.Fatal("breaker still closed at threshold")
	}
	if ok, wait := b.allow(); ok || wait <= 0 || wait > 10*time.Second {
		t.Fatalf("open breaker: allow = (%v, %v)", ok, wait)
	}

	// After the cooldown exactly one probe goes through.
	now = now.Add(11 * time.Second)
	if ok, _ := b.allow(); !ok {
		t.Fatal("no probe after cooldown")
	}
	if ok, _ := b.allow(); ok {
		t.Fatal("second concurrent probe allowed")
	}
	b.report(false) // probe fails: reopen
	if b.current() != breakerOpen {
		t.Fatal("failed probe did not reopen")
	}
	now = now.Add(11 * time.Second)
	if ok, _ := b.allow(); !ok {
		t.Fatal("no probe after second cooldown")
	}
	b.report(true) // probe succeeds: close
	if b.current() != breakerClosed {
		t.Fatal("successful probe did not close")
	}
}

// ---- memo ------------------------------------------------------------

func TestMemoCacheLRU(t *testing.T) {
	c := newMemoCache(2)
	k := func(b byte) (key [32]byte) { key[0] = b; return }
	e1, e2, e3 := &entry{phi: 1}, &entry{phi: 2}, &entry{phi: 3}
	c.put(k(1), e1)
	c.put(k(2), e2)
	if got, ok := c.get(k(1)); !ok || got != e1 {
		t.Fatal("miss on resident entry")
	}
	c.put(k(3), e3) // evicts 2, the least recently used
	if _, ok := c.get(k(2)); ok {
		t.Fatal("LRU entry not evicted")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("recently used entry evicted")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

// ---- singleflight ----------------------------------------------------

func TestFlightGroupDedups(t *testing.T) {
	g := newFlightGroup()
	var calls atomic.Int64
	release := make(chan struct{})
	key := store.Key{1}

	const waiters = 8
	var wg sync.WaitGroup
	results := make([]*entry, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ent, err, _ := g.do(context.Background(), key, func() (*entry, error) {
				calls.Add(1)
				<-release
				return &entry{phi: 9}, nil
			})
			if err != nil {
				t.Errorf("do: %v", err)
			}
			results[i] = ent
		}(i)
	}
	// Let the goroutines pile onto the flight, then release it.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", calls.Load())
	}
	for i, ent := range results {
		if ent == nil || ent.phi != 9 {
			t.Fatalf("waiter %d got %+v", i, ent)
		}
	}

	// The flight is gone: a new do runs fn again.
	_, _, _ = g.do(context.Background(), key, func() (*entry, error) {
		calls.Add(1)
		return &entry{}, nil
	})
	if calls.Load() != 2 {
		t.Fatalf("fn ran %d times after the flight retired, want 2", calls.Load())
	}
}

func TestFlightGroupWaiterHonorsContext(t *testing.T) {
	g := newFlightGroup()
	key := store.Key{2}
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go g.do(context.Background(), key, func() (*entry, error) { //nolint:errcheck
		close(started)
		<-release
		return &entry{}, nil
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err, _ := g.do(ctx, key, func() (*entry, error) { return &entry{}, nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter err = %v, want DeadlineExceeded", err)
	}
}

// ---- HTTP handlers ---------------------------------------------------

// feasibleGraph is the test workhorse: small, feasible, fast oracle.
func feasibleGraph() *graph.Graph { return election.BuildHairyRing([]int{2, 0, 3, 1}).G }

func jsonBody(t *testing.T, g *graph.Graph, transcript bool) []byte {
	t.Helper()
	req := AdviceRequest{N: g.N(), Transcript: transcript}
	for u := 0; u < g.N(); u++ {
		for p := 0; p < g.Deg(u); p++ {
			h := g.At(u, p)
			if u < h.To {
				req.Edges = append(req.Edges, [4]int{u, p, h.To, h.RemotePort})
			}
		}
	}
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/advice", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	return resp, buf.Bytes()
}

func TestJSONEndpointWithTranscript(t *testing.T) {
	g := feasibleGraph()
	_, ts := newTestServer(t, Config{})

	resp, body := postJSON(t, ts.URL, jsonBody(t, g, true))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ar AdviceResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}

	// Differential against the oracle called directly.
	a, enc, err := election.NewSystem().ComputeAdvice(g)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Phi != a.Phi || ar.Advice != enc.String() || ar.AdviceLen != enc.Len() {
		t.Errorf("response diverges from direct oracle: phi %d vs %d, %d vs %d bits",
			ar.Phi, a.Phi, ar.AdviceLen, enc.Len())
	}
	if ar.Cache != CacheCold {
		t.Errorf("first request cache = %s, want cold", ar.Cache)
	}
	if ar.Transcript == nil {
		t.Fatal("transcript requested but absent")
	}
	res, err := election.NewSystem().RunElect(g, enc, election.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ar.Transcript.Leader != res.Leader || ar.Transcript.Time != res.Time {
		t.Errorf("transcript (%d, %d) diverges from direct election (%d, %d)",
			ar.Transcript.Leader, ar.Transcript.Time, res.Leader, res.Time)
	}

	// Second identical request is a memo hit.
	resp, body = postJSON(t, ts.URL, jsonBody(t, g, true))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var ar2 AdviceResponse
	if err := json.Unmarshal(body, &ar2); err != nil {
		t.Fatal(err)
	}
	if ar2.Cache != CacheHot || ar2.Advice != ar.Advice {
		t.Errorf("repeat request: cache = %s, advice equal = %v", ar2.Cache, ar2.Advice == ar.Advice)
	}
}

func TestBadRequestsAre400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := map[string][]byte{
		"not json":       []byte("{"),
		"negative field": []byte(`{"n":3,"edges":[[0,0,-1,0]]}`),
		"port clash":     []byte(`{"n":3,"edges":[[0,0,1,0],[0,0,2,0]]}`),
		"disconnected":   []byte(`{"n":4,"edges":[[0,0,1,0]]}`),
		"n out of range": []byte(`{"n":0,"edges":[]}`),
	}
	for name, body := range cases {
		resp, _ := postJSON(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/advice.bin", "application/octet-stream", strings.NewReader("not a graph"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("binary junk: status %d, want 400", resp.StatusCode)
	}
}

// TestEdgelessHugeGraphIs400: a body that claims 2^24 nodes and no
// edges is rejected as disconnected, on both endpoints, without the
// decoder allocating per claimed node.
func TestEdgelessHugeGraphIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, body := postJSON(t, ts.URL, []byte(`{"n":16777216}`)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("JSON: status %d, want 400 (%s)", resp.StatusCode, body)
	}
	header := []byte{'A', 'P', 'G', '1', 0x80, 0x80, 0x80, 0x08, 0} // n = 2^24, m = 0
	resp, err := http.Post(ts.URL+"/v1/advice.bin", "application/octet-stream", bytes.NewReader(header))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("binary: status %d, want 400", resp.StatusCode)
	}
}

func TestInfeasibleGraphIs422(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL, jsonBody(t, graph.Ring(6), false))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("ring: status %d, want 422 (%s)", resp.StatusCode, body)
	}
}

func TestOverloadSheds429WithRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueLimit: 1})
	// Wedge the work queue so every cold computation must shed.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	resp, _ := postJSON(t, ts.URL, jsonBody(t, feasibleGraph(), false))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := s.StatsSnapshot().Shed; got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
}

func TestBreakerOpensAfterRepeatedFailures(t *testing.T) {
	// A compute timeout short enough that every oracle run fails.
	s, ts := newTestServer(t, Config{ComputeTimeout: time.Nanosecond, BreakerThreshold: 2})

	g1, g2 := feasibleGraph(), election.Grid(4, 3)
	for i, g := range []*graph.Graph{g1, g2} {
		resp, _ := postJSON(t, ts.URL, jsonBody(t, g, false))
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("request %d: status %d, want 504", i, resp.StatusCode)
		}
	}
	if st := s.breaker.current(); st != breakerOpen {
		t.Fatalf("breaker %s after %d timeouts, want open", st, 2)
	}
	// While open, fresh graphs are denied up front with 503.
	resp, _ := postJSON(t, ts.URL, jsonBody(t, election.Grid(3, 4), false))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d with open breaker, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

func TestInfeasibleDoesNotTripBreaker(t *testing.T) {
	s, ts := newTestServer(t, Config{BreakerThreshold: 2})
	for i := 0; i < 4; i++ {
		resp, _ := postJSON(t, ts.URL, jsonBody(t, graph.Ring(6), false))
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("status %d, want 422", resp.StatusCode)
		}
	}
	if st := s.breaker.current(); st != breakerClosed {
		t.Fatalf("breaker %s after infeasible inputs, want closed", st)
	}
}

// TestDegenerateGraphIs422 checks that a graph below the model's three
// nodes is refused like an infeasible one: 422, with the breaker closed.
func TestDegenerateGraphIs422(t *testing.T) {
	s, ts := newTestServer(t, Config{BreakerThreshold: 2})
	for i := 0; i < 4; i++ {
		resp, body := postJSON(t, ts.URL, jsonBody(t, graph.Path(2), false))
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("request %d: status %d, want 422 (%s)", i, resp.StatusCode, body)
		}
	}
	if st := s.breaker.current(); st != breakerClosed {
		t.Fatalf("breaker %s after degenerate inputs, want closed", st)
	}
}

func TestDegradedOnFailedCacheWrite(t *testing.T) {
	ffs := store.NewFaultFS(nil)
	st, _, err := store.Open(t.TempDir(), ffs)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Store: st})

	ffs.FailNextWrites(1)
	resp, body := postJSON(t, ts.URL, jsonBody(t, feasibleGraph(), false))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ar AdviceResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.Degraded {
		t.Error("cache write failed but response not marked degraded")
	}
	// The advice itself must still be exact.
	_, enc, err := election.NewSystem().ComputeAdvice(feasibleGraph())
	if err != nil {
		t.Fatal(err)
	}
	if ar.Advice != enc.String() {
		t.Error("degraded response served wrong advice")
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL, jsonBody(t, feasibleGraph(), false))
	postJSON(t, ts.URL, jsonBody(t, feasibleGraph(), false))

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 2 || st.Computed != 1 || st.MemoHits != 1 {
		t.Errorf("stats = %+v", st)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", hresp.StatusCode)
	}
}

func TestClientRetriesThrough429(t *testing.T) {
	// A stub that sheds twice, then serves a fixed wire response.
	adv := bits.New("101101")
	var calls atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"overloaded","code":"overloaded"}`)
			return
		}
		w.Write(encodeWireResponse(4, adv, CacheCold, false)) //nolint:errcheck
	}))
	defer stub.Close()

	c := NewClient(stub.URL, 1)
	c.BaseBackoff = time.Millisecond
	res, err := c.Advice(context.Background(), feasibleGraph())
	if err != nil {
		t.Fatal(err)
	}
	if res.Phi != 4 || !bits.Equal(res.Advice, adv) || calls.Load() != 3 {
		t.Fatalf("result %+v after %d calls", res, calls.Load())
	}
}

func TestClientDoesNotRetryBadRequest(t *testing.T) {
	var calls atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusUnprocessableEntity)
	}))
	defer stub.Close()

	c := NewClient(stub.URL, 1)
	_, err := c.Advice(context.Background(), feasibleGraph())
	var se *StatusError
	if !errors.As(err, &se) || se.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("422 retried %d times", calls.Load())
	}
}

// TestBreakerHalfOpenRetryAfter pins the wait a shed request is told
// while a half-open probe is in flight: the full cooldown, not the
// remaining-open math (there is no openedAt to count from).
func TestBreakerHalfOpenRetryAfter(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(1, 10*time.Second, func() time.Time { return now })
	if ok, _ := b.allow(); !ok {
		t.Fatal("closed breaker denied")
	}
	b.report(false) // threshold 1: trips immediately
	now = now.Add(11 * time.Second)
	if ok, _ := b.allow(); !ok {
		t.Fatal("no probe after cooldown")
	}
	if b.current() != breakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.current())
	}
	if ok, wait := b.allow(); ok || wait != 10*time.Second {
		t.Fatalf("half-open with probe in flight: allow = (%v, %v), want (false, cooldown)", ok, wait)
	}
	// The failed probe reopens; the next shed reports the remaining
	// cooldown again, counted from the reopen.
	b.report(false)
	if ok, wait := b.allow(); ok || wait <= 0 || wait > 10*time.Second {
		t.Fatalf("reopened breaker: allow = (%v, %v)", ok, wait)
	}
}

// TestBreakerHalfOpenSingleProbe races many goroutines at a breaker
// whose cooldown just expired: exactly one must be admitted as the
// probe, and after the probe closes the breaker the rest flow freely.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(0, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	b := newBreaker(1, time.Second, clock)
	b.allow()
	b.report(false)
	mu.Lock()
	now = now.Add(2 * time.Second)
	mu.Unlock()

	var admitted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ok, _ := b.allow(); ok {
				admitted.Add(1)
			}
		}()
	}
	wg.Wait()
	if admitted.Load() != 1 {
		t.Fatalf("half-open admitted %d probes, want 1", admitted.Load())
	}
	b.report(true)
	if b.current() != breakerClosed {
		t.Fatal("successful probe did not close")
	}
	if ok, _ := b.allow(); !ok {
		t.Fatal("closed breaker denied after probe success")
	}
}

// TestClientStructLiteralRetries pins the satellite fix: a Client built
// as a struct literal (no NewClient, nil rng) must not panic on its
// first backoff — the jitter source is seeded lazily from Seed.
func TestClientStructLiteralRetries(t *testing.T) {
	adv := bits.New("1011")
	var calls atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write(encodeWireResponse(2, adv, CacheHot, false)) //nolint:errcheck
	}))
	defer stub.Close()

	c := &Client{BaseURL: stub.URL, BaseBackoff: time.Millisecond}
	res, err := c.Advice(context.Background(), feasibleGraph())
	if err != nil {
		t.Fatal(err)
	}
	if res.Phi != 2 || calls.Load() != 3 {
		t.Fatalf("result %+v after %d calls", res, calls.Load())
	}
}

// TestClientJitterSeedDeterminism: equal seeds draw equal jitter
// sequences (whether seeded via NewClient or the Seed field), distinct
// seeds draw distinct ones — chaos harnesses log the seed to replay a
// schedule exactly.
func TestClientJitterSeedDeterminism(t *testing.T) {
	seq := func(c *Client) []time.Duration {
		var ds []time.Duration
		for i := 0; i < 8; i++ {
			ds = append(ds, c.backoff(i, 0))
		}
		return ds
	}
	a := seq(NewClient("http://x", 7))
	b := seq(&Client{Seed: 7})
	other := seq(&Client{Seed: 8})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 diverges at draw %d: %v != %v", i, a[i], b[i])
		}
	}
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 drew identical jitter sequences")
	}
}
