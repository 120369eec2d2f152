package nb

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hamlet/internal/dataset"
	"hamlet/internal/relational"
	"hamlet/internal/stats"
)

// randomDataset builds a random normalized dataset with two attribute
// tables (one open-domain) and a couple of home features.
func randomDataset(seed uint64) *dataset.Dataset {
	r := stats.NewRNG(seed)
	nS := 50 + r.IntN(300)
	nR1 := 2 + r.IntN(20)
	nR2 := 2 + r.IntN(12)
	mkAttr := func(name string, rows, feats int) *relational.Table {
		t := relational.NewTable(name)
		for f := 0; f < feats; f++ {
			card := 2 + r.IntN(4)
			data := make([]int32, rows)
			for i := range data {
				data[i] = int32(r.IntN(card))
			}
			t.MustAddColumn(&relational.Column{Name: name + string(rune('a'+f)), Card: card, Data: data})
		}
		return t
	}
	r1 := mkAttr("R1", nR1, 1+r.IntN(3))
	r2 := mkAttr("R2", nR2, 1+r.IntN(3))
	s := relational.NewTable("S")
	y := make([]int32, nS)
	xs := make([]int32, nS)
	fk1 := make([]int32, nS)
	fk2 := make([]int32, nS)
	classes := 2 + r.IntN(3)
	for i := 0; i < nS; i++ {
		y[i] = int32(r.IntN(classes))
		xs[i] = int32(r.IntN(3))
		fk1[i] = int32(r.IntN(nR1))
		fk2[i] = int32(r.IntN(nR2))
	}
	s.MustAddColumn(&relational.Column{Name: "Y", Card: classes, Data: y})
	s.MustAddColumn(&relational.Column{Name: "XS", Card: 3, Data: xs})
	s.MustAddColumn(&relational.Column{Name: "FK1", Card: nR1, Data: fk1})
	s.MustAddColumn(&relational.Column{Name: "FK2", Card: nR2, Data: fk2})
	return &dataset.Dataset{
		Name:         "Rand",
		Entity:       s,
		Target:       "Y",
		HomeFeatures: []string{"XS"},
		Attrs: []dataset.AttributeTable{
			{Table: r1, FK: "FK1", ClosedDomain: true},
			{Table: r2, FK: "FK2", ClosedDomain: r.Bernoulli(0.5)},
		},
	}
}

// TestFactorizedStatsMatchMaterialized is the core correctness property:
// statistics computed without the join must be bit-identical to statistics
// tabulated over the materialized JoinAll design.
func TestFactorizedStatsMatchMaterialized(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		d := randomDataset(seed)
		factorized, err := StatsFromDataset(d)
		if err != nil {
			return false
		}
		design, err := d.Materialize(d.JoinAllPlan())
		if err != nil {
			return false
		}
		materialized := NewStats(design)
		if factorized.N != materialized.N || factorized.NumClasses != materialized.NumClasses {
			return false
		}
		if len(factorized.Counts) != len(materialized.Counts) {
			return false
		}
		for c := range factorized.ClassCounts {
			if factorized.ClassCounts[c] != materialized.ClassCounts[c] {
				return false
			}
		}
		for f := range factorized.Counts {
			if factorized.Cards[f] != materialized.Cards[f] {
				return false
			}
			for k := range factorized.Counts[f] {
				if factorized.Counts[f][k] != materialized.Counts[f][k] {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatalf("factorized statistics diverge from materialized: %v", err)
	}
}

func TestFitFactorizedPredictsIdentically(t *testing.T) {
	d := randomDataset(42)
	design, err := d.Materialize(d.JoinAllPlan())
	if err != nil {
		t.Fatal(err)
	}
	factorized, err := New().FitFactorized(d)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, design.NumFeatures())
	for i := range all {
		all[i] = i
	}
	direct, err := New().Fit(design, all)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < design.NumRows(); i++ {
		if factorized.Predict(design, i) != direct.Predict(design, i) {
			t.Fatalf("factorized and materialized models disagree at row %d", i)
		}
	}
}

func TestStatsFromDatasetValidates(t *testing.T) {
	d := randomDataset(7)
	d.Target = "Nope"
	if _, err := StatsFromDataset(d); err == nil {
		t.Fatal("invalid dataset accepted")
	}
}

// randDataset mirrors the generator in internal/dataset's tests: a random
// normalized dataset with a target, home features, and 0–2 attribute tables
// behind (possibly open-domain) FKs.
func randDataset(rng *rand.Rand) *dataset.Dataset {
	nS := 1 + rng.Intn(120)
	entity := relational.NewTable("S")
	yCard := 2 + rng.Intn(3)
	yData := make([]int32, nS)
	for i := range yData {
		yData[i] = int32(rng.Intn(yCard))
	}
	entity.MustAddColumn(&relational.Column{Name: "Y", Card: yCard, Data: yData})
	var home []string
	for h := 0; h < 1+rng.Intn(3); h++ {
		card := 1 + rng.Intn(6)
		data := make([]int32, nS)
		for i := range data {
			data[i] = int32(rng.Intn(card))
		}
		name := "H" + string(rune('a'+h))
		entity.MustAddColumn(&relational.Column{Name: name, Card: card, Data: data})
		home = append(home, name)
	}
	d := &dataset.Dataset{Name: "Rand", Entity: entity, Target: "Y", HomeFeatures: home}
	for a := 0; a < rng.Intn(3); a++ {
		nR := 1 + rng.Intn(25)
		attr := relational.NewTable("R" + string(rune('0'+a)))
		for j := 0; j < 1+rng.Intn(3); j++ {
			card := 1 + rng.Intn(8)
			data := make([]int32, nR)
			for i := range data {
				data[i] = int32(rng.Intn(card))
			}
			attr.MustAddColumn(&relational.Column{Name: "F" + string(rune('0'+a)) + string(rune('a'+j)), Card: card, Data: data})
		}
		fk := make([]int32, nS)
		for i := range fk {
			fk[i] = int32(rng.Intn(nR))
		}
		fkName := "FK" + string(rune('0'+a))
		entity.MustAddColumn(&relational.Column{Name: fkName, Card: nR, Data: fk})
		d.Attrs = append(d.Attrs, dataset.AttributeTable{Table: attr, FK: fkName, ClosedDomain: rng.Intn(3) > 0})
	}
	return d
}

// randPlan picks a random valid plan over d's FKs.
func randPlan(rng *rand.Rand, d *dataset.Dataset) dataset.Plan {
	var p dataset.Plan
	for _, at := range d.Attrs {
		if !at.ClosedDomain || rng.Intn(2) == 0 {
			p.JoinFKs = append(p.JoinFKs, at.FK)
		}
		if at.ClosedDomain && rng.Intn(3) == 0 {
			p.DropFKs = append(p.DropFKs, at.FK)
		}
	}
	return p
}

// TestNewStatsMatchesFactorizedOnRandomPlans pins the statistics of every
// plan, not only JoinAll: a feature's class-conditional counts depend on
// that feature and Y alone, so NewStats over any plan's design must equal
// the factorized JoinAll table of the same feature, looked up by name.
func TestNewStatsMatchesFactorizedOnRandomPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		d := randDataset(rng)
		p := randPlan(rng, d)
		all, err := StatsFromDataset(d)
		if err != nil {
			t.Fatal(err)
		}
		// StatsFromDataset's feature order: home, closed-domain FKs, then
		// each attribute table's columns.
		index := make(map[string]int)
		names := append([]string(nil), d.HomeFeatures...)
		for _, at := range d.Attrs {
			if at.ClosedDomain {
				names = append(names, at.FK)
			}
		}
		for _, at := range d.Attrs {
			names = append(names, at.Table.ColumnNames()...)
		}
		for i, name := range names {
			index[name] = i
		}
		m, err := d.Materialize(p)
		if err != nil {
			t.Fatal(err)
		}
		got := NewStats(m)
		if got.N != all.N || got.NumClasses != all.NumClasses || !reflect.DeepEqual(got.ClassCounts, all.ClassCounts) {
			t.Fatalf("trial %d: header (%d, %d, %v), want (%d, %d, %v)", trial,
				got.N, got.NumClasses, got.ClassCounts, all.N, all.NumClasses, all.ClassCounts)
		}
		for f, feat := range m.Features {
			i, ok := index[feat.Name]
			if !ok {
				t.Fatalf("trial %d: design feature %q is not a JoinAll feature", trial, feat.Name)
			}
			if got.Cards[f] != all.Cards[i] || !reflect.DeepEqual(got.Counts[f], all.Counts[i]) {
				t.Fatalf("trial %d: feature %q counts %v (card %d), factorized %v (card %d)", trial,
					feat.Name, got.Counts[f], got.Cards[f], all.Counts[i], all.Cards[i])
			}
		}
	}
}
