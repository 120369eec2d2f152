package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hamlet/internal/core"
	"hamlet/internal/obs"
	"hamlet/internal/registry"
	"hamlet/internal/server"
	"hamlet/internal/stats"
	"hamlet/internal/synth"
)

// serve_warm and serve_cold: the advisor service as a client sees it. A
// server.Server runs inside this process on a loopback listener with
// cmd/advisord's default configuration; closed-loop clients send
// single-query POST /v1/decide requests over keep-alive connections.

const (
	// warmScale is the paper's Figure 6 size, preloaded for serve_warm.
	warmScale = 1.0
	// coldScale is advisord's default scale, which serve_cold requests.
	coldScale = 0.1
	// warmSetups is how many times serve_warm repeats its measured set-up.
	warmSetups = 5
	// coldPerDataset is the number of fresh seeds per mimic in one
	// serve_cold round; a round's registry then holds 7 × 12 tuples.
	coldPerDataset = 12
	// probeN is the sample count of each per-layer probe.
	probeN = 2000
	// batchN is the number of calls timed together for sub-microsecond
	// probes, whose single calls are shorter than the clock's resolution.
	batchN = 1000
)

// advisordConfig is server.Config as cmd/advisord builds it from its
// default flags: request log and tracing off, 10 ms slow threshold.
func advisordConfig(scale float64, seed uint64) server.Config {
	return server.Config{
		Scale:            scale,
		Seed:             seed,
		Rule:             core.TRRule,
		Precision:        obs.DefaultPrecision,
		Window:           obs.DefaultWindow,
		Slow:             10 * time.Millisecond,
		SlowLog:          os.Stderr,
		SLOLatencyTarget: 0.99,
	}
}

// clientConns is the number of client connections: two, but never more
// than the machine's CPUs.
func clientConns() int { return min(2, runtime.NumCPU()) }

// served is one server on a loopback listener plus the client that talks
// to it.
type served struct {
	srv       *server.Server
	ln        net.Listener
	url       string
	serveDone chan error
	transport *http.Transport
	client    *http.Client
	dials     atomic.Int64
	stopOnce  sync.Once
	stopErr   error
}

// startServed builds a server, preloads the named mimics, listens on an
// ephemeral loopback port and serves.
func startServed(cfg server.Config, preload []string, conns int) (*served, error) {
	srv := server.New(cfg)
	if err := srv.Preload(preload...); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: srv, ln: ln, url: "http://" + ln.Addr().String(), serveDone: make(chan error, 1)}
	go func() { s.serveDone <- srv.Serve(ln) }()
	var d net.Dialer
	s.transport = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			s.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	s.client = &http.Client{Transport: s.transport, Timeout: time.Minute}
	return s, nil
}

// stop closes the client's connections, shuts the server down under a
// deadline, and confirms the listener is closed. Only the first call does
// the work; later calls return its result.
func (s *served) stop() error {
	s.stopOnce.Do(func() {
		// The client leaves first. When two requests race for a new
		// connection, the transport can dial one that it never uses, and
		// net/http's Shutdown counts such a connection as busy until it is
		// 5 s old, which would outlast the deadline below.
		s.transport.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := s.srv.Shutdown(ctx)
		if serveErr := <-s.serveDone; err == nil {
			err = serveErr
		}
		if err != nil {
			s.stopErr = fmt.Errorf("shutdown: %w", err)
			return
		}
		// Setting a deadline fails only on a closed listener.
		if err := s.ln.(*net.TCPListener).SetDeadline(time.Now()); !errors.Is(err, net.ErrClosed) {
			s.stopErr = fmt.Errorf("listener %s still open after shutdown (%v)", s.ln.Addr(), err)
		}
	})
	return s.stopErr
}

// post sends one decide request and reads the whole answer into buf.
func (s *served) post(ctx context.Context, body []byte, buf *bytes.Buffer) (int, time.Duration, error) {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/v1/decide", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, time.Since(t0), err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(t0), err
}

// decideBody encodes a single-query decide request.
func decideBody(q query) []byte {
	b, err := json.Marshal(struct {
		V        int     `json:"v"`
		Requests []query `json:"requests"`
	}{V: 1, Requests: []query{q}})
	if err != nil {
		panic(err) // a query holds only strings and finite numbers
	}
	return b
}

// verifyAnswer decodes one answer body and checks it against the dataset
// the registry holds for the question.
func verifyAnswer(reg *registry.Registry, q query, body []byte) error {
	var resp struct {
		V       int          `json:"v"`
		Results []wireResult `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: decode answer: %w", q.Dataset, err)
	}
	if len(resp.Results) != 1 {
		return fmt.Errorf("%s: %d results for one query", q.Dataset, len(resp.Results))
	}
	e, err := reg.Get(q.Dataset, q.Scale, q.Seed)
	if err != nil {
		return fmt.Errorf("%s: %w", q.Dataset, err)
	}
	return checkServed(q, resp.Results[0], e.Dataset)
}

// warmQueries is every dataset × {TR, ROR} at the preloaded tuple, in an
// order drawn from the run seed.
func warmQueries(seed uint64) []query {
	var qs []query
	for _, name := range registry.Names() {
		for _, rule := range []string{"TR", "ROR"} {
			qs = append(qs, query{Dataset: name, Scale: warmScale, Seed: seed, Rule: rule})
		}
	}
	perm := stats.NewRNG(seed).Perm(len(qs))
	out := make([]query, len(qs))
	for i, p := range perm {
		out[i] = qs[p]
	}
	return out
}

// dataSeed maps the run seed to a nonzero generation seed that differs from
// the server's default seed (a zero seed in a query means "the default").
func dataSeed(seed uint64) uint64 { return seed%1_000_000*1_000 + 2 }

func runServeWarm(ctx context.Context, opt options, tr *tracer) (out *outcome, err error) {
	out = newOutcome()
	tb := tr.buf()
	root := tb.start(spanRef{}, "bench.run")
	defer root.end()
	conns := clientConns()
	seed := dataSeed(opt.seed)
	queries := warmQueries(seed)
	bodies := make([][]byte, len(queries))
	for i, q := range queries {
		bodies[i] = decideBody(q)
	}

	// Set-up: preload all seven mimics, listen, and warm every connection
	// with one pass over the queries; measured warmSetups times, the last
	// server kept.
	var s *served
	defer func() {
		if s != nil {
			if serr := s.stop(); serr != nil && err == nil {
				err = serr
			}
		}
	}()
	var setups []float64
	var warmBodies [][][]byte
	for i := 0; i < warmSetups; i++ {
		if s != nil {
			err := s.stop()
			s = nil
			if err != nil {
				return nil, err
			}
		}
		sp := tb.start(root, "bench.setup")
		t0 := time.Now()
		s, err = startServed(advisordConfig(warmScale, seed), registry.Names(), conns)
		if err != nil {
			sp.end()
			return nil, err
		}
		warmBodies, err = warmUp(ctx, s, bodies, conns)
		setups = append(setups, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return nil, err
		}
	}
	// Every warm-up answer is checked against the recomputed decisions;
	// the measured phase then compares answers with these checked bytes.
	cs := tb.start(root, "bench.check")
	for c := range warmBodies {
		for i, q := range queries {
			if err := verifyAnswer(s.srv.Registry(), q, warmBodies[c][i]); err != nil {
				cs.end()
				return out, checkErr(err)
			}
			if !bytes.Equal(warmBodies[c][i], warmBodies[0][i]) {
				cs.end()
				return out, checkErr(fmt.Errorf("%s %s: two warm-up answers differ", q.Dataset, q.Rule))
			}
		}
	}
	cs.end()
	verified := warmBodies[0]

	mark := markRuntime()
	meas := tb.start(root, "bench.measure")
	lat, answered, failed, elapsed, err := closedLoop(ctx, tr, meas, s, bodies, verified, conns, opt.seconds, &out.refs)
	meas.end()
	rt := mark.since()
	if err != nil {
		return nil, err
	}
	out.attempted = answered + failed
	out.failed = failed
	out.rounds = 1
	p50 := durQuantile(lat, 0.50)
	out.e2e["setup_s"] = median(setups)
	out.e2e["ops_per_s"] = float64(answered) / elapsed.Seconds()
	out.e2e["op_p50_ms"] = p50 / 1e6
	out.e2e["op_tail_ms"] = durQuantile(lat, 0.99) / 1e6
	// The samples are the benchmark's, not the program's: drop them before
	// reading the live heap.
	lat = nil
	out.e2e["heap_live_mb"] = liveHeapMB()

	if tr != nil {
		out.runtime = rt
		out.layer["http.conns_dialed"] = float64(s.dials.Load())
		// Read the handler's latency before the probes add to it.
		rtt := p50 / 1e3
		handler := float64(s.srv.Histograms()[server.LatencyHist+".decide"].Quantile(0.5)) / 1e3
		probeServer(tb, root, s, queries, bodies, out.layer)
		probeBuilds(tb, root, warmScale, seed+1, 1, out.layer)
		out.layer["http.rtt_us"] = rtt
		out.layer["server.handler_us"] = handler
		out.layer["http.outside_handler_us"] = rtt - handler
	}
	return out, nil
}

// warmUp sends every query once on each of conns concurrent connections
// and returns the answers, per connection.
func warmUp(ctx context.Context, s *served, bodies [][]byte, conns int) ([][][]byte, error) {
	got := make([][][]byte, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for _, b := range bodies {
				status, _, err := s.post(ctx, b, &buf)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("warm-up answered %d: %s", status, buf.Bytes())
				}
				if err != nil {
					errs[c] = err
					return
				}
				got[c] = append(got[c], bytes.Clone(buf.Bytes()))
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return got, nil
}

// segment is how long one set of client goroutines runs. The loop starts
// fresh client goroutines every segment: a pair left running for a whole
// run tends to stay in a fast or a slow state, about 15% apart in
// throughput, so whole runs fell into two groups.
const segment = time.Second

// closedLoop runs conns clients, each sending its next request when the
// previous answer is in, cycling through every query, until the time is
// up. Clients stop only at the end of a whole cycle. Each answer must equal
// the checked warm-up answer to the same query. The reference kernel is
// timed before every segment, while no client runs, into refs.
func closedLoop(ctx context.Context, tr *tracer, parent spanRef, s *served, bodies, verified [][]byte,
	conns int, seconds time.Duration, refs *[]float64) (lat []time.Duration, answered, failed int64, elapsed time.Duration, err error) {
	type clientResult struct {
		lat              []time.Duration
		answered, failed int64
		mismatch         error
	}
	results := make([]clientResult, conns)
	for elapsed < seconds {
		*refs = append(*refs, timeReference())
		var wg sync.WaitGroup
		start := time.Now()
		deadline := start.Add(min(segment, seconds-elapsed))
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				tb := tr.buf()
				r := &results[c]
				var buf bytes.Buffer
				offset := c * len(bodies) / conns
				for ctx.Err() == nil {
					for k := range bodies {
						i := (offset + k) % len(bodies)
						sp := tb.start(parent, "http.request")
						status, rtt, err := s.post(ctx, bodies[i], &buf)
						sp.end()
						if err != nil || status != http.StatusOK {
							r.failed++
							continue
						}
						if !bytes.Equal(buf.Bytes(), verified[i]) && r.mismatch == nil {
							r.mismatch = fmt.Errorf("answer %q differs from the checked answer %q", buf.Bytes(), verified[i])
						}
						r.answered++
						r.lat = append(r.lat, rtt)
					}
					if time.Now().After(deadline) {
						break
					}
				}
			}(c)
		}
		wg.Wait()
		elapsed += time.Since(start)
		if err := ctx.Err(); err != nil {
			return nil, 0, 0, 0, err
		}
	}
	for _, r := range results {
		if r.mismatch != nil {
			return nil, 0, 0, 0, checkErr(r.mismatch)
		}
		lat = append(lat, r.lat...)
		answered += r.answered
		failed += r.failed
	}
	return lat, answered, failed, elapsed, nil
}

func runServeCold(ctx context.Context, opt options, tr *tracer) (out *outcome, err error) {
	out = newOutcome()
	tb := tr.buf()
	root := tb.start(spanRef{}, "bench.run")
	defer root.end()
	base := dataSeed(opt.seed)
	rng := stats.NewRNG(opt.seed)
	names := registry.Names()

	var setups, heaps []float64
	var lat []time.Duration
	var answered int64
	var measured time.Duration
	var handler obs.HistogramSnapshot
	var dials int64
	mark := markRuntime()
	start := time.Now()
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Set-up: a fresh server as advisord starts it (Walmart preloaded
		// at the default tuple), listening, with its connection dialed.
		sp := tb.start(root, "bench.setup")
		t0 := time.Now()
		s, err := startServed(advisordConfig(coldScale, server.DefaultSeed), []string{"Walmart"}, 1)
		if err == nil {
			err = getOK(ctx, s, "/readyz")
		}
		setups = append(setups, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			if s != nil {
				_ = s.stop()
			}
			return nil, err
		}

		var qs []query
		for j := 0; j < coldPerDataset; j++ {
			for _, name := range names {
				qs = append(qs, query{Dataset: name, Scale: coldScale, Seed: base + uint64(round*coldPerDataset+j), Rule: "TR"})
			}
		}
		perm := rng.Perm(len(qs))
		answers := make([][]byte, len(qs))
		var buf bytes.Buffer
		out.refs = append(out.refs, timeReference())
		rs := tb.start(root, "bench.measure")
		t0 = time.Now()
		for _, i := range perm {
			out.attempted++
			rsp := tb.start(rs, "http.request")
			status, rtt, perr := s.post(ctx, decideBody(qs[i]), &buf)
			rsp.end()
			if perr != nil || status != http.StatusOK {
				out.failed++
				continue
			}
			answered++
			lat = append(lat, rtt)
			answers[i] = bytes.Clone(buf.Bytes())
		}
		measured += time.Since(t0)
		rs.end()

		cs := tb.start(root, "bench.check")
		for i, q := range qs {
			if answers[i] == nil {
				continue
			}
			if err := verifyAnswer(s.srv.Registry(), q, answers[i]); err != nil {
				cs.end()
				_ = s.stop()
				return out, checkErr(err)
			}
		}
		cs.end()
		// The round's registry, with every tuple it built, is reachable
		// here.
		heaps = append(heaps, liveHeapMB())
		if h, ok := s.srv.Histograms()[server.LatencyHist+".decide"]; ok {
			if err := handler.Merge(h); err != nil {
				_ = s.stop()
				return nil, err
			}
		}
		dials += s.dials.Load()
		ts := tb.start(root, "bench.teardown")
		err = s.stop()
		ts.end()
		if err != nil {
			return nil, err
		}
		out.rounds++
		if time.Since(start) >= opt.seconds {
			break
		}
	}
	rt := mark.since()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = median(setups)
	out.e2e["ops_per_s"] = float64(answered) / measured.Seconds()
	out.e2e["op_p50_ms"] = durQuantile(lat, 0.50) / 1e6
	out.e2e["op_tail_ms"] = durQuantile(lat, 0.90) / 1e6
	out.e2e["heap_live_mb"] = median(heaps)

	if tr != nil {
		out.runtime = rt
		out.layer["http.conns_dialed"] = float64(dials) / float64(out.rounds)
		// Probes run on a server of their own, on tuples no round used.
		probeSeed := base + uint64(out.rounds*coldPerDataset) + 1
		s, err := startServed(advisordConfig(coldScale, server.DefaultSeed), nil, 1)
		if err != nil {
			return nil, err
		}
		var qs []query
		for _, name := range names {
			qs = append(qs, query{Dataset: name, Scale: coldScale, Seed: probeSeed, Rule: "TR"})
		}
		bodies := make([][]byte, len(qs))
		for i, q := range qs {
			bodies[i] = decideBody(q)
		}
		probeServer(tb, root, s, qs, bodies, out.layer)
		if err := s.stop(); err != nil {
			return nil, err
		}
		probeBuilds(tb, root, coldScale, probeSeed+1, 2, out.layer)
		rtt := durQuantile(lat, 0.5) / 1e3
		h := float64(handler.Quantile(0.5)) / 1e3
		out.layer["http.rtt_us"] = rtt
		out.layer["server.handler_us"] = h
		out.layer["http.outside_handler_us"] = rtt - h
	}
	return out, nil
}

// getOK sends one GET and requires a 200.
func getOK(ctx context.Context, s *served, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+path, nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s answered %d", path, resp.StatusCode)
	}
	return nil
}

// probeServer measures the server's layers without sockets: the handler
// through httptest, the request and response codecs, a warm registry Get
// and DecideFromStats on cached statistics, each cycling through the
// queries. The first pass over the queries resolves every tuple, so the
// timed passes are warm.
func probeServer(tb *spanBuf, root spanRef, s *served, qs []query, bodies [][]byte, layer map[string]float64) {
	h := s.srv.Handler()
	direct := func(i int) (*httptest.ResponseRecorder, time.Duration) {
		req := httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(bodies[i]))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		return rec, time.Since(t0)
	}
	var answer server.DecideResponse
	for i := range qs {
		rec, _ := direct(i)
		if i == 0 {
			_ = json.Unmarshal(rec.Body.Bytes(), &answer)
		}
	}
	var ds []time.Duration
	for n := 0; n < probeN; n++ {
		sp := tb.start(root, "server.direct")
		_, d := direct(n % len(qs))
		sp.end()
		ds = append(ds, d)
	}
	layer["server.direct_us"] = durQuantile(ds, 0.5) / 1e3

	ds = ds[:0]
	for n := 0; n < probeN; n++ {
		var req server.DecideRequest
		sp := tb.start(root, "codec.decode")
		t0 := time.Now()
		_ = json.NewDecoder(bytes.NewReader(bodies[n%len(bodies)])).Decode(&req)
		ds = append(ds, time.Since(t0))
		sp.end()
	}
	layer["codec.decode_us"] = durQuantile(ds, 0.5) / 1e3

	ds = ds[:0]
	for n := 0; n < probeN; n++ {
		sp := tb.start(root, "codec.encode")
		t0 := time.Now()
		_ = json.NewEncoder(io.Discard).Encode(&answer)
		ds = append(ds, time.Since(t0))
		sp.end()
	}
	layer["codec.encode_us"] = durQuantile(ds, 0.5) / 1e3

	reg := s.srv.Registry()
	entries := make([]*registry.Entry, len(qs))
	advisors := make([]*core.Advisor, len(qs))
	for i, q := range qs {
		e, err := reg.Get(q.Dataset, q.Scale, q.Seed)
		if err != nil {
			return
		}
		entries[i] = e
		advisors[i] = &core.Advisor{Rule: core.TRRule}
		if q.Rule == "ROR" {
			advisors[i].Rule = core.RORRule
		}
	}
	var gets, decides []float64
	for n := 0; n < probeN/20; n++ {
		sp := tb.start(root, "registry.get_batch")
		t0 := time.Now()
		for k := 0; k < batchN; k++ {
			q := qs[k%len(qs)]
			_, _ = reg.Get(q.Dataset, q.Scale, q.Seed)
		}
		gets = append(gets, float64(time.Since(t0))/batchN)
		sp.end()
		sp = tb.start(root, "core.decide_batch")
		t0 = time.Now()
		for k := 0; k < batchN; k++ {
			i := k % len(qs)
			_, _ = advisors[i].DecideFromStats(entries[i].Stats)
		}
		decides = append(decides, float64(time.Since(t0))/batchN)
		sp.end()
	}
	layer["registry.get_ns"] = median(gets)
	layer["core.decide_ns"] = median(decides)
}

// probeBuilds measures the registry's write path on tuples nobody has
// built: cold registry Gets, and separately the two steps a build makes,
// synth generation and the CollectStatsChunked scan. perDataset tuples of
// each mimic are built; the live-heap growth per cached tuple is reported
// as registry.entry_kb.
func probeBuilds(tb *spanBuf, root spanRef, scale float64, seed uint64, perDataset int, layer map[string]float64) {
	names := registry.Names()
	reg := registry.New()
	before := liveHeapMB()
	var builds, gens, scans []time.Duration
	tuples := 0
	for j := 0; j < perDataset; j++ {
		for _, name := range names {
			sp := tb.start(root, "registry.build")
			t0 := time.Now()
			_, err := reg.Get(name, scale, seed+uint64(j))
			builds = append(builds, time.Since(t0))
			sp.end()
			if err == nil {
				tuples++
			}
		}
	}
	after := liveHeapMB()
	runtime.KeepAlive(reg)
	if tuples > 0 {
		layer["registry.entry_kb"] = (after - before) * 1e3 / float64(tuples)
	}
	layer["registry.build_ms"] = durQuantile(builds, 0.5) / 1e6
	reg = nil

	for j := 0; j < perDataset; j++ {
		for _, name := range names {
			spec, err := synth.MimicByName(name)
			if err != nil {
				continue
			}
			sp := tb.start(root, "synth.generate")
			t0 := time.Now()
			d, err := spec.Generate(scale, seed+uint64(perDataset+j))
			gens = append(gens, time.Since(t0))
			sp.end()
			if err != nil {
				continue
			}
			sp = tb.start(root, "core.collect_stats")
			t0 = time.Now()
			_, _ = core.CollectStatsChunked(d, 0)
			scans = append(scans, time.Since(t0))
			sp.end()
		}
	}
	layer["synth.generate_ms"] = durQuantile(gens, 0.5) / 1e6
	layer["core.collect_stats_ms"] = durQuantile(scans, 0.5) / 1e6
}
