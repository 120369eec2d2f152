package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hamlet/internal/core"
	"hamlet/internal/dataset"
	"hamlet/internal/fs"
	"hamlet/internal/ml/nb"
	"hamlet/internal/server"
	"hamlet/internal/stats"
	"hamlet/internal/synth"
)

// splitMimic generates a mimic at the paper workload's scale and returns
// its JoinAll design split for selection.
func splitMimic(t *testing.T, name string) (*dataset.Dataset, *dataset.Design, *dataset.Design) {
	t.Helper()
	spec, err := synth.MimicByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := spec.Generate(paperScale, 11)
	if err != nil {
		t.Fatal(err)
	}
	design, err := ds.Materialize(ds.JoinAllPlan())
	if err != nil {
		t.Fatal(err)
	}
	split, err := dataset.DefaultSplit(ds.NumRows(), stats.NewRNG(12))
	if err != nil {
		t.Fatal(err)
	}
	train, val, _ := split.Apply(design)
	return ds, train, val
}

func TestNBCheckCatchesCorruptedSelection(t *testing.T) {
	_, train, val := splitMimic(t, "Walmart")
	d := train.NumFeatures()

	fwd, err := fs.Forward{}.Select(nb.New(), train, val)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkNBSelection("forward", train, val, fwd.Features, fwd.ValError, fwd.Evaluations); err != nil {
		t.Fatalf("correct forward selection rejected: %v", err)
	}
	if len(fwd.Features) == 0 {
		t.Fatal("forward selected nothing; the corruption below needs a feature to drop")
	}
	if err := checkNBSelection("forward", train, val, fwd.Features, fwd.ValError+0.01, fwd.Evaluations); err == nil {
		t.Error("a shifted validation error passed")
	}
	if err := checkNBSelection("forward", train, val, fwd.Features, fwd.ValError, fwd.Evaluations+1); err == nil {
		t.Error("a wrong evaluation count passed")
	}
	// Drop the last chosen feature and report the truncated subset
	// consistently: only the stopping property can catch it, since adding
	// the dropped feature back lowers the error.
	short := fwd.Features[:len(fwd.Features)-1]
	shortErr := nbErrRange(train, val, short).lo
	shortEvals, _ := greedyEvaluations("forward", d, len(short))
	err = checkNBSelection("forward", train, val, short, shortErr, shortEvals)
	if err == nil || !strings.Contains(err.Error(), "adding feature") {
		t.Errorf("a forward search stopped one step early passed (err %v)", err)
	}

	bwd, err := fs.Backward{}.Select(nb.New(), train, val)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkNBSelection("backward", train, val, bwd.Features, bwd.ValError, bwd.Evaluations); err != nil {
		t.Fatalf("correct backward selection rejected: %v", err)
	}
	if len(bwd.Features) == d {
		t.Fatal("backward removed nothing; the corruption below needs a removal")
	}
	// Report the full set as if backward had stopped at once: removing the
	// feature the search removed first lowers the error.
	full := allFeatures(train)
	fullEvals, _ := greedyEvaluations("backward", d, d)
	err = checkNBSelection("backward", train, val, full, nbErrRange(train, val, full).lo, fullEvals)
	if err == nil || !strings.Contains(err.Error(), "removing feature") {
		t.Errorf("a backward search that never eliminated passed (err %v)", err)
	}

	flt, err := fs.MIFilter().Select(nb.New(), train, val)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkNBSelection("filter-MI", train, val, flt.Features, flt.ValError, flt.Evaluations); err != nil {
		t.Fatalf("correct filter selection rejected: %v", err)
	}
	if err := checkNBSelection("filter-MI", train, val, append(flt.Features, flt.Features[0]), flt.ValError, flt.Evaluations); err == nil {
		t.Error("a repeated feature passed")
	}
}

func TestLogregCheckCatchesWrongAnswers(t *testing.T) {
	train := &dataset.Design{Y: []int32{0, 0, 0, 1}, NumClasses: 2}
	val := &dataset.Design{Y: []int32{0, 0, 1}, NumClasses: 2}
	if err := checkLogreg("ok", train, val, []int32{0, 0, 1}, 0); err != nil {
		t.Fatalf("correct predictions rejected: %v", err)
	}
	if err := checkLogreg("label", train, val, []int32{0, 2, 1}, 1.0/3); err == nil {
		t.Error("a prediction outside the classes passed")
	}
	if err := checkLogreg("error", train, val, []int32{0, 0, 1}, 0.5); err == nil {
		t.Error("a misreported validation error passed")
	}
	if err := checkLogreg("majority", train, val, []int32{1, 1, 1}, 2.0/3); err == nil {
		t.Error("an error worse than the majority-class predictor's passed")
	}
}

func TestJoinOptCheckCatchesWrongPlan(t *testing.T) {
	ds, _, _ := splitMimic(t, "Walmart")
	plan, decisions, err := core.NewAdvisor().JoinOptPlan(ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkJoinOptPlan(ds, plan.JoinFKs); err != nil {
		t.Fatalf("correct plan rejected: %v", err)
	}
	var avoided string
	for _, d := range decisions {
		if d.Considered && d.Avoid {
			avoided = d.FK
		}
	}
	if avoided == "" {
		t.Fatal("Walmart's plan avoids no join; the corruption below needs one")
	}
	if err := checkJoinOptPlan(ds, append(plan.JoinFKs, avoided)); err == nil {
		t.Error("a plan joining an avoidable table passed")
	}
}

// decideOnce asks an httptest-served server one question and returns the
// raw answer.
func decideOnce(t *testing.T, srv *server.Server, q query) []byte {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(decideBody(q)))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("decide answered %d: %s", rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

func TestServedCheckCatchesFlippedVerdict(t *testing.T) {
	srv := server.New(advisordConfig(0.01, server.DefaultSeed))
	for _, rule := range []string{"TR", "ROR"} {
		q := query{Dataset: "Walmart", Scale: 0.01, Seed: 5, Rule: rule}
		body := decideOnce(t, srv, q)
		if err := verifyAnswer(srv.Registry(), q, body); err != nil {
			t.Fatalf("%s: correct answer rejected: %v", rule, err)
		}
		if !bytes.Contains(body, []byte(`"avoid":true`)) {
			t.Fatalf("%s: no avoided join in %s; the corruption below needs one", rule, body)
		}
		flipped := bytes.Replace(body, []byte(`"avoid":true`), []byte(`"avoid":false`), 1)
		if err := verifyAnswer(srv.Registry(), q, flipped); err == nil {
			t.Errorf("%s: a flipped verdict passed", rule)
		}
		wrongSeed := q
		wrongSeed.Seed = 6
		if _, err := srv.Registry().Get(q.Dataset, q.Scale, wrongSeed.Seed); err != nil {
			t.Fatal(err)
		}
		if err := verifyAnswer(srv.Registry(), wrongSeed, body); err == nil {
			t.Errorf("%s: an answer echoing another seed passed", rule)
		}
	}

	// A TR off by 0.1% is caught even where the verdict does not change.
	q := query{Dataset: "Walmart", Scale: 0.01, Seed: 5, Rule: "TR"}
	var resp struct {
		V       int          `json:"v"`
		Results []wireResult `json:"results"`
	}
	if err := json.Unmarshal(decideOnce(t, srv, q), &resp); err != nil {
		t.Fatal(err)
	}
	resp.Results[0].Decisions[0].TR *= 1.001
	e, err := srv.Registry().Get(q.Dataset, q.Scale, q.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkServed(q, resp.Results[0], e.Dataset); err == nil {
		t.Error("a wrong TR passed")
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no run function", w.Name)
		}
	}
}

func TestQuantile(t *testing.T) {
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := quantile([]float64{5}, 0.99); got != 5 {
		t.Errorf("p99 of one sample = %v, want 5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

// signalWriter reports its first write, which run makes only after it has
// installed its signal handler.
type signalWriter struct {
	once  sync.Once
	ready chan struct{}
	mu    sync.Mutex
	buf   bytes.Buffer
}

func (w *signalWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.ready) })
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func TestSigtermTearsDownServedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a served workload")
	}
	stdout := &signalWriter{ready: make(chan struct{})}
	code := make(chan int, 1)
	go func() {
		code <- run([]string{"--workload", "serve_cold", "--seed", "3", "--seconds", "60"}, stdout, io.Discard)
	}()
	<-stdout.ready
	time.Sleep(time.Second)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-code:
		if c != 130 {
			t.Errorf("interrupted run exited %d, want 130", c)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
	stdout.mu.Lock()
	defer stdout.mu.Unlock()
	if strings.Contains(stdout.buf.String(), `"correct"`) {
		t.Errorf("interrupted run printed a result: %s", stdout.buf.String())
	}
}
