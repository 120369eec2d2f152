package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"hamlet/internal/dataset"
)

// The checks in this file recompute the program's answers without calling
// the code that produced them: their own Naive Bayes, their own error
// metrics, their own entropy and their own TR/ROR arithmetic, written from
// the paper (§2.1, §2.2, §4.2, Appendix D). They read only the generated
// inputs (tables, design matrices) and the program's outputs.

const (
	// tieEps is the score gap under which two classes of one row count as
	// tied: a row whose best two Naive Bayes log scores are closer than
	// this may be predicted either way by an implementation that sums the
	// same terms in another order.
	tieEps = 1e-9
	// errEps absorbs float rounding when comparing two error values.
	errEps = 1e-12
	// Paper constants the served and planned decisions must follow.
	paperTau   = 20.0
	paperRho   = 2.5
	paperDelta = 0.1
	guardBits  = 0.5
)

// errRange is the validation error of a feature subset as the benchmark's
// own Naive Bayes scores it: [lo, hi] covers every way the near-tied rows
// could be predicted.
type errRange struct{ lo, hi float64 }

func (r errRange) contains(v float64) bool { return v >= r.lo-errEps && v <= r.hi+errEps }

// nbErrRange fits a Laplace-smoothed (add-one) Naive Bayes model on train
// over feats and scores it on val: zero-one error for a binary target, RMSE
// of the class index otherwise.
func nbErrRange(train, val *dataset.Design, feats []int) errRange {
	const alpha = 1.0
	C := train.NumClasses
	classN := make([]float64, C)
	for _, y := range train.Y {
		classN[y]++
	}
	// logp[j][c*card+v] = log P(x_j = v | c), smoothed.
	logp := make([][]float64, len(feats))
	for j, f := range feats {
		col := train.Features[f]
		tab := make([]float64, C*col.Card)
		for i, y := range train.Y {
			tab[int(y)*col.Card+int(col.Data[i])]++
		}
		for c := 0; c < C; c++ {
			for v := 0; v < col.Card; v++ {
				k := c*col.Card + v
				tab[k] = math.Log((tab[k] + alpha) / (classN[c] + alpha*float64(col.Card)))
			}
		}
		logp[j] = tab
	}
	prior := make([]float64, C)
	for c := range prior {
		prior[c] = math.Log((classN[c] + alpha) / (float64(len(train.Y)) + alpha*float64(C)))
	}
	scores := make([]float64, C)
	var loSum, hiSum float64
	for i, y := range val.Y {
		best := math.Inf(-1)
		for c := 0; c < C; c++ {
			s := prior[c]
			for j, f := range feats {
				col := val.Features[f]
				s += logp[j][c*col.Card+int(col.Data[i])]
			}
			scores[c] = s
			best = max(best, s)
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for c := 0; c < C; c++ {
			if best-scores[c] > tieEps*max(1, math.Abs(best)) {
				continue
			}
			l := rowLoss(C, int32(c), y)
			lo, hi = min(lo, l), max(hi, l)
		}
		loSum += lo
		hiSum += hi
	}
	return errRange{lo: finishLoss(C, loSum, len(val.Y)), hi: finishLoss(C, hiSum, len(val.Y))}
}

// rowLoss is one row's contribution to the error metric: a miss for a
// binary target, the squared class-index distance otherwise.
func rowLoss(classes int, pred, truth int32) float64 {
	if classes <= 2 {
		if pred != truth {
			return 1
		}
		return 0
	}
	d := float64(pred - truth)
	return d * d
}

func finishLoss(classes int, sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	if classes <= 2 {
		return sum / float64(n)
	}
	return math.Sqrt(sum / float64(n))
}

// lossOf scores predictions with the paper's metric.
func lossOf(classes int, pred, truth []int32) float64 {
	sum := 0.0
	for i := range truth {
		sum += rowLoss(classes, pred[i], truth[i])
	}
	return finishLoss(classes, sum, len(truth))
}

// greedyEvaluations is the number of subset evaluations §2.2's greedy
// search performs on d candidates when it stops with s features: the
// starting subset, then every single-feature move of each step, the last
// step being the one that found no improvement.
func greedyEvaluations(method string, d, s int) (int, bool) {
	n := 1
	switch method {
	case "forward":
		for k := 0; k <= s; k++ {
			n += d - k
		}
	case "backward":
		for m := max(s, 1); m <= d; m++ {
			n += m
		}
	case "filter-MI", "filter-IGR":
		n = d + 1
	default:
		return 0, false
	}
	return n, true
}

// checkNBSelection verifies one Naive Bayes selection run: the reported
// validation error is what the selected subset scores, the evaluation count
// is the greedy search's, and a wrapper stopped where §2.2 says it must —
// no single added (forward) or removed (backward) feature lowers the
// validation error.
func checkNBSelection(method string, train, val *dataset.Design, feats []int, valErr float64, evals int) error {
	d := train.NumFeatures()
	seen := make(map[int]bool, len(feats))
	for _, f := range feats {
		if f < 0 || f >= d || seen[f] {
			return fmt.Errorf("%s: selected feature index %d invalid or repeated (d=%d)", method, f, d)
		}
		seen[f] = true
	}
	if want, ok := greedyEvaluations(method, d, len(feats)); !ok || evals != want {
		return fmt.Errorf("%s: %d evaluations for d=%d, %d selected; the search performs %d", method, evals, d, len(feats), want)
	}
	got := nbErrRange(train, val, feats)
	if !got.contains(valErr) {
		return fmt.Errorf("%s: reported validation error %.9g, the selected %d features score [%.9g, %.9g]",
			method, valErr, len(feats), got.lo, got.hi)
	}
	switch method {
	case "forward":
		for f := 0; f < d; f++ {
			if seen[f] {
				continue
			}
			cand := append(append([]int(nil), feats...), f)
			if r := nbErrRange(train, val, cand); r.hi < valErr-errEps {
				return fmt.Errorf("forward stopped at error %.9g but adding feature %d scores %.9g", valErr, f, r.hi)
			}
		}
	case "backward":
		for pos := range feats {
			cand := append(append([]int(nil), feats[:pos]...), feats[pos+1:]...)
			if r := nbErrRange(train, val, cand); r.hi < valErr-errEps {
				return fmt.Errorf("backward stopped at error %.9g but removing feature %d scores %.9g", valErr, feats[pos], r.hi)
			}
		}
	}
	return nil
}

// checkLogreg verifies properties an embedded logistic-regression selection
// must have: every prediction is a class label, the reported validation
// error is the one the predictions score, and it is no worse than always
// predicting the training split's majority class.
func checkLogreg(name string, train, val *dataset.Design, pred []int32, valErr float64) error {
	C := train.NumClasses
	if len(pred) != len(val.Y) {
		return fmt.Errorf("%s: %d predictions for %d validation rows", name, len(pred), len(val.Y))
	}
	for i, p := range pred {
		if p < 0 || int(p) >= C {
			return fmt.Errorf("%s: row %d predicted %d, not a class in [0,%d)", name, i, p, C)
		}
	}
	if got := lossOf(C, pred, val.Y); math.Abs(got-valErr) > errEps {
		return fmt.Errorf("%s: reported validation error %.9g, the predictions score %.9g", name, valErr, got)
	}
	counts := make([]int, C)
	for _, y := range train.Y {
		counts[y]++
	}
	major := 0
	for c := range counts {
		if counts[c] > counts[major] {
			major = c
		}
	}
	constant := make([]int32, len(val.Y))
	for i := range constant {
		constant[i] = int32(major)
	}
	if base := lossOf(C, constant, val.Y); valErr > base+errEps {
		return fmt.Errorf("%s: validation error %.9g is worse than the majority-class predictor's %.9g", name, valErr, base)
	}
	return nil
}

// entropyBits is H(Y) in bits of a label column.
func entropyBits(y []int32, card int) float64 {
	counts := make([]float64, card)
	for _, v := range y {
		counts[v]++
	}
	h := 0.0
	for _, c := range counts {
		if c > 0 {
			p := c / float64(len(y))
			h -= p * math.Log2(p)
		}
	}
	return h
}

// vc is √(v·ln(2en/v)), zero where the logarithm is not positive.
func vc(v, n float64) float64 {
	arg := 2 * math.E * n / v
	if v <= 0 || arg <= 1 {
		return 0
	}
	return math.Sqrt(v * math.Log(arg))
}

// expected is the benchmark's own verdict for one attribute table.
type expected struct {
	FK, Attr   string
	Closed     bool
	Considered bool
	// guardTie marks H(Y) within rounding of the guard, where either
	// reading is accepted.
	guardTie bool
	TR, ROR  float64
	QRStar   int
	NR       int
}

// expectedDecisions recomputes the TR and ROR of every attribute table
// from row counts and domain sizes: n_train = ⌊0.5·n_S⌋, TR = n_train/n_R,
// the worst-case ROR of §4.2 with δ = 0.1 and q* = min_F |D_F|, and the
// Appendix D guard that considers no join when H(Y) < 0.5 bits.
func expectedDecisions(d *dataset.Dataset) ([]expected, error) {
	y := d.Entity.Column(d.Target)
	if y == nil {
		return nil, fmt.Errorf("%s: no target column %q", d.Name, d.Target)
	}
	nS := d.Entity.NumRows()
	nTrain := nS / 2
	h := entropyBits(y.Data, y.Card)
	out := make([]expected, 0, len(d.Attrs))
	for _, at := range d.Attrs {
		nR := at.Table.NumRows()
		q := 1
		if cols := at.Table.Columns(); len(cols) > 0 {
			q = math.MaxInt
			for _, c := range cols {
				q = min(q, c.Card)
			}
		}
		n := float64(nTrain)
		ror := (vc(float64(nR), n) - vc(float64(min(q, nR)), n)) / (paperDelta * math.Sqrt(2*n))
		out = append(out, expected{
			FK: at.FK, Attr: at.Table.Name, Closed: at.ClosedDomain,
			Considered: at.ClosedDomain && h >= guardBits,
			guardTie:   math.Abs(h-guardBits) < 1e-9,
			TR:         float64(nTrain) / float64(nR),
			ROR:        max(ror, 0),
			QRStar:     q,
			NR:         nR,
		})
	}
	return out, nil
}

// avoid is the verdict the rule must give for e; tie reports a value
// within rounding of the threshold, where either verdict is accepted.
func (e expected) avoid(rule string) (avoid, tie bool) {
	if rule == "ROR" {
		return e.ROR <= paperRho, math.Abs(e.ROR-paperRho) < 1e-9*paperRho
	}
	return e.TR >= paperTau, math.Abs(e.TR-paperTau) < 1e-9*paperTau
}

// checkJoinOptPlan verifies that a JoinOpt plan joins exactly the attribute
// tables the TR rule does not clear.
func checkJoinOptPlan(d *dataset.Dataset, joined []string) error {
	exp, err := expectedDecisions(d)
	if err != nil {
		return err
	}
	var want []string
	for _, e := range exp {
		if a, _ := e.avoid("TR"); !(e.Considered && a) {
			want = append(want, e.FK)
		}
	}
	got := append([]string(nil), joined...)
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		return fmt.Errorf("%s: JoinOpt joins {%s}; the TR rule keeps {%s}", d.Name, strings.Join(got, ","), strings.Join(want, ","))
	}
	return nil
}

// wireDecision is the part of a served decision the checks read.
type wireDecision struct {
	FK         string  `json:"fk"`
	Attr       string  `json:"attr"`
	Considered bool    `json:"considered"`
	Avoid      bool    `json:"avoid"`
	TR         float64 `json:"tr"`
	ROR        float64 `json:"ror"`
	QRStar     int     `json:"qr_star"`
	DFK        int     `json:"d_fk"`
}

// wireResult is one served answer as the checks decode it, independently
// of the server's own response types.
type wireResult struct {
	Dataset   string         `json:"dataset"`
	Scale     float64        `json:"scale"`
	Seed      uint64         `json:"seed"`
	Rule      string         `json:"rule"`
	Decisions []wireDecision `json:"decisions"`
}

// query is one (dataset, scale, seed, rule) question sent to the server.
type query struct {
	Dataset string  `json:"dataset"`
	Scale   float64 `json:"scale"`
	Seed    uint64  `json:"seed"`
	Rule    string  `json:"rule"`
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*max(1, math.Abs(a), math.Abs(b))
}

// checkServed verifies one served answer against the question and the
// dataset it names: the tuple is echoed, every TR and ROR matches the
// recomputed value, and each verdict follows τ = 20 (TR) or ρ = 2.5 (ROR).
func checkServed(q query, got wireResult, d *dataset.Dataset) error {
	if got.Dataset != q.Dataset || got.Scale != q.Scale || got.Seed != q.Seed || got.Rule != q.Rule {
		return fmt.Errorf("asked (%s, %g, %d, %s), answer echoes (%s, %g, %d, %s)",
			q.Dataset, q.Scale, q.Seed, q.Rule, got.Dataset, got.Scale, got.Seed, got.Rule)
	}
	exp, err := expectedDecisions(d)
	if err != nil {
		return err
	}
	if len(got.Decisions) != len(exp) {
		return fmt.Errorf("%s: %d decisions for %d attribute tables", q.Dataset, len(got.Decisions), len(exp))
	}
	for i, e := range exp {
		g := got.Decisions[i]
		where := fmt.Sprintf("%s/%s %s", q.Dataset, e.Attr, q.Rule)
		if g.FK != e.FK || g.Attr != e.Attr || g.DFK != e.NR || g.QRStar != e.QRStar {
			return fmt.Errorf("%s: answer names (%s, %s, d_fk %d, q* %d), tables give (%s, %s, %d, %d)",
				where, g.FK, g.Attr, g.DFK, g.QRStar, e.FK, e.Attr, e.NR, e.QRStar)
		}
		if !relClose(g.TR, e.TR, 1e-12) {
			return fmt.Errorf("%s: TR %.12g, recomputed %.12g", where, g.TR, e.TR)
		}
		if !relClose(g.ROR, e.ROR, 1e-9) {
			return fmt.Errorf("%s: ROR %.12g, recomputed %.12g", where, g.ROR, e.ROR)
		}
		if g.Considered != e.Considered && !e.guardTie {
			return fmt.Errorf("%s: considered=%v, want %v (closed domain %v)", where, g.Considered, e.Considered, e.Closed)
		}
		want, tie := e.avoid(q.Rule)
		want = want && g.Considered
		if g.Avoid != want && !tie {
			return fmt.Errorf("%s: avoid=%v, want %v (TR %.6g, ROR %.6g)", where, g.Avoid, want, e.TR, e.ROR)
		}
	}
	return nil
}
