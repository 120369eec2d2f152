package relational

import (
	"math/rand"
	"testing"
)

// randTable builds a random table with the given prefix for column names.
func randTable(rng *rand.Rand, name, prefix string, rows, cols int) *Table {
	t := NewTable(name)
	for j := 0; j < cols; j++ {
		card := 1 + rng.Intn(12)
		data := make([]int32, rows)
		for i := range data {
			data[i] = int32(rng.Intn(card))
		}
		t.MustAddColumn(&Column{Name: prefix + string(rune('A'+j)), Card: card, Data: data})
	}
	return t
}

// randFK adds a valid FK column named name into an nR-row table to s.
func randFK(rng *rand.Rand, s *Table, name string, nR int) {
	fk := make([]int32, s.NumRows())
	for i := range fk {
		fk[i] = int32(rng.Intn(nR))
	}
	s.MustAddColumn(&Column{Name: name, Card: nR, Data: fk})
}

// checkGathered is the row-at-a-time oracle for Join and JoinAll: got must
// hold s's columns unchanged, followed by each joined table's columns in fks
// order, where row i of a gathered column is r[fk[i]]. It also checks that
// the join materialized FK → X_R for every hop (Proposition 3.1).
func checkGathered(t *testing.T, s *Table, fks []ForeignKey, attrs map[string]*Table, got *Table) {
	t.Helper()
	wantCols := s.NumCols()
	for _, fk := range fks {
		wantCols += attrs[fk.Refs].NumCols()
	}
	if got.NumRows() != s.NumRows() || got.NumCols() != wantCols {
		t.Fatalf("shape: got %s, want %d rows × %d cols", got, s.NumRows(), wantCols)
	}
	for ci, sc := range s.Columns() {
		gc := got.Columns()[ci]
		if gc.Name != sc.Name || gc.Card != sc.Card {
			t.Fatalf("column %d: got %s:%d, want %s:%d", ci, gc.Name, gc.Card, sc.Name, sc.Card)
		}
		for i := range sc.Data {
			if gc.Data[i] != sc.Data[i] {
				t.Fatalf("entity column %q row %d: got %d, want %d", sc.Name, i, gc.Data[i], sc.Data[i])
			}
		}
	}
	ci := s.NumCols()
	for _, fk := range fks {
		rids := s.Column(fk.Column).Data
		r := attrs[fk.Refs]
		for _, rc := range r.Columns() {
			gc := got.Columns()[ci]
			ci++
			if gc.Name != rc.Name || gc.Card != rc.Card {
				t.Fatalf("gathered column: got %s:%d, want %s:%d", gc.Name, gc.Card, rc.Name, rc.Card)
			}
			for i, rid := range rids {
				if gc.Data[i] != rc.Data[rid] {
					t.Fatalf("cell (%d,%q): got %d, want r[%d] = %d", i, rc.Name, gc.Data[i], rid, rc.Data[rid])
				}
			}
		}
		ok, err := HoldsFDSet(got, []FD{{Det: []string{fk.Column}, Dep: r.ColumnNames()}})
		if err != nil || !ok {
			t.Fatalf("FD %s → X_%s does not hold after the join (err=%v)", fk.Column, fk.Refs, err)
		}
	}
}

// TestJoinMatchesRowGather pins Join against the row-at-a-time oracle over
// random schemas, including empty entity tables.
func TestJoinMatchesRowGather(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		nR := 1 + rng.Intn(40)
		r := randTable(rng, "R", "r", nR, 1+rng.Intn(4))
		s := randTable(rng, "S", "s", rng.Intn(150), 1+rng.Intn(3))
		randFK(rng, s, "FK", nR)
		got, err := Join(s, "FK", r)
		if err != nil {
			t.Fatal(err)
		}
		checkGathered(t, s, []ForeignKey{{Column: "FK", Refs: "R"}}, map[string]*Table{"R": r}, got)
	}
}

// TestJoinAllMatchesRowGather pins the multi-hop composition: JoinAll over
// two attribute tables gathers both through their own FKs, in fks order.
func TestJoinAllMatchesRowGather(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		nR1, nR2 := 1+rng.Intn(20), 1+rng.Intn(20)
		attrs := map[string]*Table{
			"R1": randTable(rng, "R1", "p", nR1, 1+rng.Intn(3)),
			"R2": randTable(rng, "R2", "q", nR2, 1+rng.Intn(3)),
		}
		s := randTable(rng, "S", "s", rng.Intn(100), 1)
		randFK(rng, s, "FK1", nR1)
		randFK(rng, s, "FK2", nR2)
		fks := []ForeignKey{
			{Column: "FK1", Refs: "R1", ClosedDomain: true},
			{Column: "FK2", Refs: "R2", ClosedDomain: true},
		}
		got, err := JoinAll(s, fks, attrs)
		if err != nil {
			t.Fatal(err)
		}
		checkGathered(t, s, fks, attrs, got)
	}
}
