package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"hamlet/internal/core"
	"hamlet/internal/dataset"
	"hamlet/internal/fs"
	"hamlet/internal/ml"
	"hamlet/internal/ml/logreg"
	"hamlet/internal/ml/nb"
	"hamlet/internal/stats"
	"hamlet/internal/synth"
)

// paper_select: the paper's runtime experiment (Figure 7 with Naive Bayes,
// Figure 9 with L1/L2 logistic regression). Each of the seven mimics is
// generated at a small fixed scale; its JoinAll and JoinOpt designs are each
// run through forward selection, backward selection, the MI and IGR filters
// and the two embedded logistic regressions. One round is that job list,
// 7 × 2 × 6 = 84 selection runs; a run repeats whole rounds.

const (
	// paperScale is the mimic scale. Every mimic's entity table is then at
	// or near synth.MinEntityRows, the floor below which scale has no
	// effect.
	paperScale = 0.005
	// paperDataSeed fixes the generated datasets. The greedy searches'
	// evaluation counts swing by ±40% from one generated dataset to the
	// next, which no affordable number of replicates averages out, so the
	// run seed orders the jobs rather than regenerating the data.
	paperDataSeed = 7000
	// paperSetups is how many times a run repeats the set-up it measures.
	paperSetups = 9
	// refEvery is the number of selection runs between two timings of the
	// reference kernel.
	refEvery = 7
)

// paperMethods are the Figure 7 Naive Bayes methods in the paper's order.
func paperMethods() []fs.Method {
	return []fs.Method{fs.Forward{}, fs.Backward{}, fs.MIFilter(), fs.IGRFilter()}
}

var planNames = [2]string{"JoinAll", "JoinOpt"}

// paperDesign is one (mimic, plan) design split for selection.
type paperDesign struct {
	mimic      string
	plan       string
	data       *dataset.Dataset
	joined     []string
	train, val *dataset.Design
}

// paperJob is one selection run: a design and a method (an NB method, or
// an embedded penalty when nb is nil).
type paperJob struct {
	design  *paperDesign
	nb      fs.Method
	penalty logreg.Penalty
}

func (j paperJob) name() string {
	if j.nb != nil {
		return j.nb.Name()
	}
	return fs.Embedded{Penalty: j.penalty}.Name()
}

// paperSetup generates the mimics, plans JoinOpt, materializes both plans
// and splits them 50/25/25.
func paperSetup(ctx context.Context, tb *spanBuf, root spanRef) ([]*paperDesign, error) {
	var out []*paperDesign
	for si, spec := range synth.Mimics() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		seed := uint64(paperDataSeed + si)
		sp := tb.start(root, "synth.generate")
		ds, err := spec.Generate(paperScale, seed)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", spec.Name, err)
		}
		split, err := dataset.DefaultSplit(ds.NumRows(), stats.NewRNG(seed+1))
		if err != nil {
			return nil, fmt.Errorf("split %s: %w", spec.Name, err)
		}
		sp = tb.start(root, "core.joinopt")
		opt, _, err := core.NewAdvisor().JoinOptPlan(ds)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("JoinOpt %s: %w", spec.Name, err)
		}
		for pi, plan := range []dataset.Plan{ds.JoinAllPlan(), opt} {
			sp = tb.start(root, "dataset.materialize")
			design, err := ds.Materialize(plan)
			sp.end()
			if err != nil {
				return nil, fmt.Errorf("materialize %s %s: %w", spec.Name, planNames[pi], err)
			}
			sp = tb.start(root, "dataset.split")
			train, val, _ := split.Apply(design)
			sp.end()
			out = append(out, &paperDesign{
				mimic: spec.Name, plan: planNames[pi], data: ds,
				joined: plan.JoinFKs, train: train, val: val,
			})
		}
	}
	return out, nil
}

func runPaper(ctx context.Context, opt options, tr *tracer) (*outcome, error) {
	out := newOutcome()
	tb := tr.buf()
	root := tb.start(spanRef{}, "bench.run")
	defer root.end()

	// Set-up, measured paperSetups times; the last set is the one used.
	var designs []*paperDesign
	var setups []float64
	for i := 0; i < paperSetups; i++ {
		designs = nil // let the previous set go before building the next
		sp := tb.start(root, "bench.setup")
		t0 := time.Now()
		var err error
		designs, err = paperSetup(ctx, tb, sp)
		setups = append(setups, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return nil, err
		}
	}
	for _, d := range designs {
		if d.plan == "JoinOpt" {
			if err := checkJoinOptPlan(d.data, d.joined); err != nil {
				return out, checkErr(err)
			}
		}
	}

	var jobs []paperJob
	for _, d := range designs {
		for _, m := range paperMethods() {
			jobs = append(jobs, paperJob{design: d, nb: m})
		}
		for _, p := range []logreg.Penalty{logreg.L1, logreg.L2} {
			jobs = append(jobs, paperJob{design: d, penalty: p})
		}
	}
	order := stats.NewRNG(opt.seed).Perm(len(jobs))

	var cells float64
	if tr != nil {
		cells = probeNB(tb, root, designs)
	}

	// first holds every job's first-round result, for the checks and for
	// comparison with later rounds.
	first := make([]fs.Result, len(jobs))
	// runs holds every job's run times, ms.
	runs := make([][]float64, len(jobs))
	var nbTotal time.Duration
	var nbEvals int
	var lrTotal time.Duration
	var lrFits int
	mark := markRuntime()
	start := time.Now()
	for round := 0; ; round++ {
		rs := tb.start(root, "bench.round")
		for k, ji := range order {
			if k%refEvery == 0 {
				out.refs = append(out.refs, timeReference())
			}
			if err := ctx.Err(); err != nil {
				rs.end()
				return nil, err
			}
			j := jobs[ji]
			d := j.design
			out.attempted++
			var res fs.Result
			var err error
			var sp spanRef
			t0 := time.Now()
			if j.nb != nil {
				sp = tb.start(rs, "fs.select."+j.nb.Name())
				res, err = j.nb.Select(nb.New(), d.train, d.val)
			} else {
				sp = tb.start(rs, "fs.embedded."+j.penalty.String())
				res, err = fs.Embedded{Penalty: j.penalty}.Select(nil, d.train, d.val)
			}
			el := time.Since(t0)
			sp.end()
			if err != nil {
				out.failed++
				fmt.Fprintf(opt.stderr, "paper_select: %s %s %s: %v\n", d.mimic, d.plan, j.name(), err)
				continue
			}
			runs[ji] = append(runs[ji], ms(el))
			if j.nb != nil {
				nbTotal += el
				nbEvals += res.Evaluations
			} else {
				lrTotal += el
				lrFits += res.Evaluations
			}
			if round == 0 {
				first[ji] = res
			} else if !slices.Equal(res.Features, first[ji].Features) || res.ValError != first[ji].ValError {
				return out, checkErr(fmt.Errorf("%s %s %s: round %d selected %v (error %v), round 0 selected %v (error %v)",
					d.mimic, d.plan, j.name(), round, res.Features, res.ValError, first[ji].Features, first[ji].ValError))
			}
		}
		rs.end()
		out.rounds++
		if round == 0 {
			cs := tb.start(root, "bench.check")
			err := checkPaperRound(jobs, first)
			cs.end()
			if err != nil {
				return out, checkErr(err)
			}
		}
		if time.Since(start) >= opt.seconds {
			break
		}
	}
	heap := liveHeapMB()
	runtime.KeepAlive(designs)
	rt := mark.since()

	// Each job's time is the median of its run times.
	var jobMs []float64
	totalMs := 0.0
	for _, ts := range runs {
		if len(ts) > 0 {
			m := median(ts)
			jobMs = append(jobMs, m)
			totalMs += m
		}
	}
	out.e2e["setup_s"] = median(setups)
	out.e2e["ops_per_s"] = float64(len(jobMs)) / (totalMs / 1e3)
	out.e2e["op_p50_ms"] = quantile(jobMs, 0.50)
	// p85 is the highest percentile of the 84 jobs with ten beyond it.
	out.e2e["op_tail_ms"] = quantile(jobMs, 0.85)
	out.e2e["heap_live_mb"] = heap

	if tr != nil {
		tt := totals(tr.all())
		layerMs := func(name string) float64 {
			if lt := tt[name]; lt != nil {
				return ms(time.Duration(durQuantile(lt.Durations, 0.5)))
			}
			return 0
		}
		filterTotal := time.Duration(0)
		for _, name := range []string{"fs.select.filter-MI", "fs.select.filter-IGR"} {
			if lt := tt[name]; lt != nil {
				filterTotal += lt.Total
			}
		}
		out.layer["synth.generate_ms"] = layerMs("synth.generate")
		out.layer["core.joinopt_ms"] = layerMs("core.joinopt")
		out.layer["dataset.materialize_ms"] = layerMs("dataset.materialize")
		out.layer["nb.stats_ms"] = layerMs("nb.stats")
		if lt := tt["nb.score"]; lt != nil && cells > 0 {
			out.layer["nb.score_ns_per_cell"] = float64(lt.Total) / cells
		}
		out.layer["fs.nb_evals"] = float64(nbEvals) / float64(out.rounds)
		if nbEvals > 0 {
			out.layer["fs.nb_eval_us"] = float64(nbTotal.Microseconds()) / float64(nbEvals)
		}
		out.layer["fs.filter_ms"] = ms(filterTotal) / float64(out.rounds)
		out.layer["logreg.fits"] = float64(lrFits) / float64(out.rounds)
		if lrFits > 0 {
			out.layer["logreg.fit_ms"] = ms(lrTotal) / float64(lrFits)
		}
		dims := 0
		for _, d := range designs {
			dims += dataset.VCDimensionLinear(d.train, allFeatures(d.train))
		}
		out.layer["logreg.onehot_dims"] = float64(dims)
		out.layer["fs.nb_select_s"] = nbTotal.Seconds() / float64(out.rounds)
		out.layer["fs.logreg_select_s"] = lrTotal.Seconds() / float64(out.rounds)
		out.runtime = rt
	}
	return out, nil
}

func allFeatures(m *dataset.Design) []int {
	all := make([]int, m.NumFeatures())
	for i := range all {
		all[i] = i
	}
	return all
}

// checkPaperRound checks every first-round selection against the
// benchmark's own recomputation.
func checkPaperRound(jobs []paperJob, first []fs.Result) error {
	for ji, j := range jobs {
		d := j.design
		r := first[ji]
		if r.Evaluations == 0 {
			continue // the run failed and is counted as failed
		}
		where := fmt.Sprintf("%s %s", d.mimic, d.plan)
		if j.nb != nil {
			if err := checkNBSelection(j.nb.Name(), d.train, d.val, r.Features, r.ValError, r.Evaluations); err != nil {
				return fmt.Errorf("%s: %w", where, err)
			}
			continue
		}
		emb := fs.Embedded{Penalty: j.penalty}
		mod, err := emb.FitBest(d.train, d.val)
		if err != nil {
			return fmt.Errorf("%s %s: refit: %w", where, emb.Name(), err)
		}
		if err := checkLogreg(where+" "+emb.Name(), d.train, d.val, ml.PredictAll(mod, d.val), r.ValError); err != nil {
			return err
		}
		for _, f := range r.Features {
			if f < 0 || f >= d.train.NumFeatures() {
				return fmt.Errorf("%s %s: active feature %d out of range", where, emb.Name(), f)
			}
		}
	}
	return nil
}

// probeNB times, for every design, nb.NewStats on the training split and
// full-width scoring passes (ModelFromStats plus ml.PredictAll over the
// validation rows), the two kernels under Naive Bayes wrapper search. It
// returns the (row, feature, class) cells the scoring passes covered.
func probeNB(tb *spanBuf, root spanRef, designs []*paperDesign) float64 {
	const passes = 5
	cells := 0.0
	for _, d := range designs {
		sp := tb.start(root, "nb.stats")
		st := nb.NewStats(d.train)
		sp.end()
		feats := allFeatures(d.train)
		for i := 0; i < passes; i++ {
			sp = tb.start(root, "nb.score")
			if mod, err := nb.ModelFromStats(st, feats, 1); err == nil {
				_ = ml.PredictAll(mod, d.val)
			}
			sp.end()
		}
		cells += passes * float64(d.val.NumRows()*len(feats)*d.train.NumClasses)
	}
	return cells
}
