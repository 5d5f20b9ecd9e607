package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advice"
	"repro/internal/bits"
	"repro/internal/canon"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/view"
)

// The advised workload drives an in-process advice service (serve.New
// over a store.Open'ed directory, on a loopback listener) with an
// open-loop load: requests are scheduled as a Poisson process seeded by
// the run's seed and sent regardless of how earlier ones fare, through
// at most conns keep-alive connections. Each request's latency is
// timed from when it was due, so a stall also charges the requests that
// queued behind it.
//
// The mix is exact, not drawn per request, so that every run has the
// same number of requests in each cache tier: 80% hot (a byte-identical
// repeat of a body the server has answered, served from its memo), 15%
// warm (a node-relabeled copy of such a graph: decode, canonical hash
// and a store read) and 5% cold (a new graph: the oracle and an
// fsync'ed store write).
const (
	warmShare = 0.15
	coldShare = 0.05
	// goodWithin is the latency limit a request must meet to count
	// toward goodput.
	goodWithin = time.Second
)

// Cache tiers as the binary response's flag bits 1-2 encode them.
const (
	tierCold = 0
	tierWarm = 1
	tierHot  = 2
)

// advisedPool is a run's seeded request mix.
type advisedPool struct {
	graphs  []*graph.Graph  // distinct anonymous graphs: hot ones, then cold ones
	prewarm [][]byte        // bodies of graphs[:len(prewarm)], answered once during set-up
	reqs    []advisedReq    // in send order
	at      []time.Duration // when each request is due, from the window start; ascending
}

type advisedReq struct {
	body  []byte
	graph int // index into graphs of the anonymous graph body encodes
	tier  int // the tier the mix intends
}

// buildPool draws the request mix of a window of the given length. All
// draws come first, in a fixed order, so the mix depends on the seed
// alone; the graphs and bodies are then built on every processor.
func buildPool(ctx context.Context, seed int64, sz sizes, window time.Duration, tr *tracer, parent int64) (*advisedPool, error) {
	sp := tr.start("graph.build", parent)
	defer sp.end(nil)
	rng := rand.New(rand.NewSource(seed))
	n := max(1, int(math.Round(sz.rate*window.Seconds())))
	nCold := int(math.Round(coldShare * float64(n)))
	nWarm := int(math.Round(warmShare * float64(n)))
	nHot := n - nCold - nWarm

	p := &advisedPool{graphs: make([]*graph.Graph, sz.hotGraphs+nCold), prewarm: make([][]byte, sz.hotGraphs)}
	graphSeeds := make([]int64, len(p.graphs))
	for i := range graphSeeds {
		graphSeeds[i] = rng.Int63()
	}
	for i := 0; i < nHot; i++ {
		p.reqs = append(p.reqs, advisedReq{graph: rng.Intn(sz.hotGraphs), tier: tierHot})
	}
	perms := make([][]int, nWarm)
	for i := range perms {
		p.reqs = append(p.reqs, advisedReq{graph: rng.Intn(sz.hotGraphs), tier: tierWarm})
		perms[i] = rng.Perm(sz.serveN)
	}
	for i := 0; i < nCold; i++ {
		p.reqs = append(p.reqs, advisedReq{graph: sz.hotGraphs + i, tier: tierCold})
	}

	bodies := make([][]byte, len(p.graphs))
	errs := make([]error, len(p.graphs))
	parallelFor(len(p.graphs), func(i int) {
		p.graphs[i], errs[i] = randomGraph(ctx, sz.serveN, sz.servePhi, graphSeeds[i])
		if errs[i] == nil {
			bodies[i], _ = p.graphs[i].MarshalBinary() // cannot fail
		}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	copy(p.prewarm, bodies)
	warm := p.reqs[nHot : nHot+nWarm]
	parallelFor(nWarm, func(i int) {
		warm[i].body, _ = graph.RelabelNodes(p.graphs[warm[i].graph], perms[i]).MarshalBinary()
	})
	for i := range p.reqs {
		if r := &p.reqs[i]; r.tier != tierWarm {
			r.body = bodies[r.graph]
		}
	}

	rng.Shuffle(len(p.reqs), func(i, j int) { p.reqs[i], p.reqs[j] = p.reqs[j], p.reqs[i] })
	// n arrivals of a Poisson process conditioned on n arrivals in the
	// window are n sorted uniform draws over it.
	p.at = make([]time.Duration, n)
	for i := range p.at {
		p.at[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(p.at, func(i, j int) bool { return p.at[i] < p.at[j] })
	return p, nil
}

// parallelFor calls fn(i) for every i in [0, n) on procs goroutines and
// returns when all calls have.
func parallelFor(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// advisedServer is one service instance with a fresh store.
type advisedServer struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	fs   *tracedFS // nil when untraced
	done chan struct{}
}

// startServer opens a store in dir, serves it on a loopback port and
// answers every prewarm body once, so that hot and warm requests find
// their graph memoized and stored.
func startServer(ctx context.Context, dir string, p *advisedPool, tr *tracer, parent int64) (*advisedServer, error) {
	s := &advisedServer{done: make(chan struct{})}
	var fsys store.FS = store.OSFS{}
	if tr != nil {
		s.fs = &tracedFS{inner: store.OSFS{}, tr: tr}
		s.fs.parent.Store(parent)
		fsys = s.fs
	}
	st, _, err := store.Open(dir, fsys)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = serve.New(serve.Config{Store: st})
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.url = "http://" + ln.Addr().String() + "/v1/advice.bin"
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()

	client := &http.Client{}
	defer client.CloseIdleConnections()
	errs := make([]error, len(p.prewarm))
	parallelFor(len(p.prewarm), func(i int) {
		var buf bytes.Buffer
		if r := post(ctx, client, s.url, p.prewarm[i], &buf); !r.ok {
			errs[i] = fmt.Errorf("prewarm request %d: status %d", i, r.status)
		}
	})
	if err := errors.Join(errs...); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *advisedServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if s.hs.Shutdown(ctx) != nil {
		s.hs.Close() //nolint:errcheck // forced after a failed graceful drain
	}
	<-s.done
	s.srv.Close()
}

// reply is one response as the load generator saw it.
type reply struct {
	late   time.Duration // how late the generator released the request
	done   time.Duration // when its response was read, from the window start
	ok     bool          // status 200 with a well-formed binary response
	status int           // HTTP status; 0 on a transport error
	tier   int           // cache tier the response reports
	sum    [32]byte      // SHA-256 of the response's advice envelope
}

func post(ctx context.Context, c *http.Client, url string, body []byte, buf *bytes.Buffer) reply {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{}
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.Do(req)
	if err != nil {
		return reply{}
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	r := reply{status: resp.StatusCode}
	b := buf.Bytes()
	// Binary response: "ADR1", a flags byte (bit 0 degraded, bits 1-2
	// cache tier), then the advice envelope (internal/serve/codec.go).
	if err != nil || resp.StatusCode != http.StatusOK || len(b) < 5 || string(b[:4]) != "ADR1" || int(b[4]>>1)&3 > tierHot {
		return r
	}
	r.ok, r.tier, r.sum = true, int(b[4]>>1)&3, sha256.Sum256(b[5:])
	return r
}

// envelopeSum is the SHA-256 of the envelope a correct response carries
// for advice (phi, adv): uvarint φ, uvarint bit length, then the bits
// packed most significant first, the final byte zero-padded.
func envelopeSum(phi int, adv bits.String) [32]byte {
	buf := binary.AppendUvarint(nil, uint64(phi))
	buf = binary.AppendUvarint(buf, uint64(adv.Len()))
	packed := make([]byte, (adv.Len()+7)/8)
	for i := 0; i < adv.Len(); i++ {
		if adv.Bit(i) {
			packed[i/8] |= 0x80 >> (i % 8)
		}
	}
	return sha256.Sum256(append(buf, packed...))
}

// window is one load window's replies and what the process spent on it.
type window struct {
	replies []reply
	wall    time.Duration // from the window start to the last response
	cost    unitCost
	stats   serve.Stats // counter deltas over the window
}

// runWindow sends the pool's requests on schedule and waits for every
// response. A traced window records a span per request.
func runWindow(ctx context.Context, s *advisedServer, p *advisedPool, tr *tracer, parent int64) (window, error) {
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}}
	defer client.CloseIdleConnections()
	w := window{replies: make([]reply, len(p.reqs))}
	// The queue holds the whole schedule, so the generator never waits
	// for a connection and is late only when the scheduler makes it so.
	queue := make(chan int, len(p.reqs))
	before := s.srv.StatsSnapshot()
	var start time.Time
	var sendErr error
	cost, _ := measure(func() error {
		start = time.Now()
		var wg sync.WaitGroup
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf bytes.Buffer
				for i := range queue {
					r := post(ctx, client, s.url, p.reqs[i].body, &buf)
					r.late, r.done = w.replies[i].late, time.Since(start)
					w.replies[i] = r
				}
			}()
		}
		timer := time.NewTimer(time.Hour)
		defer timer.Stop()
		for i, at := range p.at {
			if d := time.Until(start.Add(at)); d > 0 {
				timer.Reset(d)
				select {
				case <-timer.C:
				case <-ctx.Done():
					sendErr = ctx.Err()
				}
			}
			if sendErr != nil {
				break
			}
			w.replies[i].late = time.Since(start.Add(at))
			queue <- i
		}
		close(queue)
		wg.Wait()
		w.wall = time.Since(start)
		return nil
	})
	if sendErr != nil {
		return w, fmt.Errorf("load window: %w", sendErr)
	}
	w.cost = cost
	after := s.srv.StatsSnapshot()
	w.stats = serve.Stats{
		Requests:     after.Requests - before.Requests,
		MemoHits:     after.MemoHits - before.MemoHits,
		StoreHits:    after.StoreHits - before.StoreHits,
		Computed:     after.Computed - before.Computed,
		Deduplicated: after.Deduplicated - before.Deduplicated,
		Shed:         after.Shed - before.Shed,
	}
	for i, r := range w.replies {
		if tr != nil {
			tr.record("serve.request", parent, int64(i), start.Add(p.at[i]), start.Add(r.done),
				map[string]int64{"tier": int64(r.tier), "status": int64(r.status), "late_ns": int64(r.late)})
		}
	}
	return w, nil
}

// references computes the oracle's advice once per distinct graph and
// returns the envelope digest each correct response must carry.
func references(ctx context.Context, p *advisedPool, tr *tracer, parent int64) ([][32]byte, error) {
	sums := make([][32]byte, len(p.graphs))
	for i, g := range p.graphs {
		sp := tr.start("advice.oracle", parent)
		a, err := advice.NewOracle(view.NewTable()).ComputeAdviceCtx(ctx, g)
		cold := int64(0)
		if i >= len(p.prewarm) {
			cold = 1
		}
		sp.end(map[string]int64{"cold": cold})
		if err != nil {
			return nil, fmt.Errorf("reference advice for graph %d: %w", i, err)
		}
		sums[i] = envelopeSum(a.Phi, a.Encode())
	}
	return sums, nil
}

// score checks every reply against the references and derives the
// window's end-to-end numbers. A failed or wrong reply counts in failed,
// not in goodput, and has no latency.
func score(w window, p *advisedPool, refs [][32]byte) (ps passStats, failed, wrong int) {
	good := 0
	for i, r := range w.replies {
		switch {
		case !r.ok:
			failed++
			continue
		case r.sum != refs[p.reqs[i].graph]:
			failed++
			wrong++
			continue
		}
		lat := r.done - p.at[i]
		if lat <= goodWithin {
			good++
		}
		ps.lat = append(ps.lat, lat)
	}
	n := float64(len(p.reqs))
	ps.goodput = float64(good) / w.wall.Seconds()
	ps.allocB, ps.mallocs, ps.peakLive = float64(w.cost.allocB)/n, float64(w.cost.mallocs)/n, float64(w.cost.peakLive)
	return ps, failed, wrong
}

func latePercentile(w window, q float64) float64 {
	lates := make([]time.Duration, len(w.replies))
	for i, r := range w.replies {
		lates[i] = r.late
	}
	return ms(percentile(lates, q))
}

// runAdvised measures the service: setupReps set-ups (request pool,
// server start and prewarm), one load window, then the correctness
// check. A traced run adds a second window on a fresh server with spans
// on, and times decoding and canonical hashing of the request bodies
// the server had to decode.
func runAdvised(ctx context.Context, cfg runConfig) (*report, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var pool *advisedPool
	var srv *advisedServer
	defer func() {
		if srv != nil {
			srv.close()
		}
	}()
	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			srv.close()
			srv = nil
		}
		pool = nil
		runtime.GC()
		sp := tr.start("setup", 0)
		t0 := time.Now()
		var err error
		pool, err = buildPool(ctx, cfg.seed, cfg.sz, cfg.seconds, tr, sp.id)
		if err == nil {
			// This server runs the untraced window, so its store is not traced.
			srv, err = startServer(ctx, filepath.Join(cfg.tmpDir, fmt.Sprintf("store-%d", i)), pool, nil, 0)
		}
		setups = append(setups, time.Since(t0))
		sp.end(nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}

	base, err := runWindow(ctx, srv, pool, nil, 0)
	if err != nil {
		return nil, err
	}
	var traced window
	if cfg.trace {
		srv.close()
		sp := tr.start("setup", 0)
		srv, err = startServer(ctx, filepath.Join(cfg.tmpDir, "store-traced"), pool, tr, sp.id)
		sp.end(nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		ws := tr.start("loadgen.window", 0)
		srv.fs.parent.Store(ws.id)
		traced, err = runWindow(ctx, srv, pool, tr, ws.id)
		st := traced.stats
		ws.end(map[string]int64{"requests": st.Requests, "memo_hits": st.MemoHits, "store_hits": st.StoreHits,
			"computed": st.Computed, "deduplicated": st.Deduplicated, "shed": st.Shed})
		if err != nil {
			return nil, err
		}
	}

	chk := tr.start("check", 0)
	refs, err := references(ctx, pool, tr, chk.id)
	chk.end(nil)
	if err != nil {
		return nil, err
	}
	ps, failed, wrong := score(base, pool, refs)
	rep := &report{correct: wrong == 0, attempted: len(pool.reqs), failed: failed}
	if !cfg.trace {
		rep.metrics = endToEndMetrics(setups, ps)
		rep.extra = map[string]float64{"loadgen.late_p99_ms": latePercentile(base, 0.99)}
		return rep, nil
	}
	tps, tfailed, twrong := score(traced, pool, refs)
	rep.attempted += len(pool.reqs)
	rep.failed += tfailed
	rep.correct = rep.correct && twrong == 0

	probes := tr.start("probes", 0)
	err = requestProbes(ctx, pool, tr, probes.id)
	probes.end(nil)
	if err != nil {
		return nil, err
	}
	rep.spans = tr.done()
	rep.metrics = advisedLayers(rep.spans, ps, tps, traced)
	return rep, nil
}

// requestProbes decodes every body the server had to decode (warm and
// cold) and hashes the decoded graph, the two request stages before the
// store that run inside the server where the benchmark cannot time them.
func requestProbes(ctx context.Context, p *advisedPool, tr *tracer, parent int64) error {
	for i, r := range p.reqs {
		if r.tier == tierHot {
			continue
		}
		t0 := time.Now()
		g, err := graph.UnmarshalBinary(r.body)
		tr.record("graph.decode", parent, int64(i), t0, time.Now(), nil)
		if err != nil {
			return fmt.Errorf("decode request %d: %w", i, err)
		}
		t0 = time.Now()
		_, err = canon.HashCtx(ctx, g)
		tr.record("canon.hash", parent, int64(i), t0, time.Now(), nil)
		if err != nil {
			return fmt.Errorf("hash request %d: %w", i, err)
		}
	}
	return nil
}

func meanMS(ss []span) float64 {
	if len(ss) == 0 {
		return 0
	}
	return ms(totalDur(ss)) / float64(len(ss))
}

// advisedLayers derives the per-layer metrics of a traced advised run
// from its spans; base and traced are the two windows' scores, for the
// tracing overhead.
func advisedLayers(spans []span, base, traced passStats, w window) map[string]float64 {
	m := zeroLayers()
	m["heap.peak_live_mb"] = traced.peakLive / 1e6
	m["graph.build_s"] = median(durs(spansUnder(spans, "setup")["graph.build"])).Seconds()

	win := spansUnder(spans, "loadgen.window")
	var byTier [3][]time.Duration
	for _, s := range win["serve.request"] {
		if s.Counts["status"] == http.StatusOK {
			byTier[s.Counts["tier"]] = append(byTier[s.Counts["tier"]], s.dur())
		}
	}
	m["serve.cold_p50_ms"] = ms(median(byTier[tierCold]))
	m["serve.warm_p50_ms"] = ms(median(byTier[tierWarm]))
	m["serve.hot_p50_ms"] = ms(median(byTier[tierHot]))
	for _, s := range spans {
		if s.Name != "loadgen.window" || s.Parent != 0 {
			continue
		}
		c := s.Counts
		m["serve.memo_hits"] = float64(c["memo_hits"])
		m["serve.store_hits"] = float64(c["store_hits"])
		m["serve.computed"] = float64(c["computed"])
		m["serve.deduplicated"] = float64(c["deduplicated"])
		m["serve.shed"] = float64(c["shed"])
		if c["requests"] > 0 {
			m["serve.memo_hit_ratio"] = float64(c["memo_hits"]) / float64(c["requests"])
		}
	}
	m["store.read_ms"], m["store.reads"] = meanMS(win["store.read"]), float64(len(win["store.read"]))
	m["store.write_ms"], m["store.writes"] = meanMS(win["store.write"]), float64(len(win["store.write"]))
	m["store.renames"] = float64(len(win["store.rename"]))

	var cold []span
	for _, s := range spansUnder(spans, "check")["advice.oracle"] {
		if s.Counts["cold"] == 1 {
			cold = append(cold, s)
		}
	}
	m["advice.cold_oracle_ms"] = meanMS(cold)
	probes := spansUnder(spans, "probes")
	m["graph.decode_ms"] = meanMS(probes["graph.decode"])
	m["canon.hash_ms"] = meanMS(probes["canon.hash"])
	m["loadgen.late_p99_ms"] = latePercentile(w, 0.99)
	m["trace.overhead_frac"] = float64(median(traced.lat))/float64(median(base.lat)) - 1
	return m
}
