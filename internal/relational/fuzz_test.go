package relational

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzJoin builds an arbitrary (entity, attribute) pair from fuzz bytes and
// checks Join against the row-at-a-time oracle: the output keeps the entity
// columns, every gathered cell equals r[fk[i]], and FK → X_R holds. The same
// entity with one FK code pushed out of [0, n_R) by the dangle input must be
// rejected as a dangling RID. It must never panic. Run
// `go test -fuzz=FuzzJoin ./internal/relational` to explore beyond the
// seeds; CI runs a short leg on every push.
func FuzzJoin(f *testing.F) {
	f.Add([]byte{0, 1, 2}, []byte{3, 1, 4, 1, 5}, 1)
	f.Add([]byte{}, []byte{0}, 3)
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9}, []byte{1, 2}, 1000)
	f.Add([]byte{255, 0, 127}, []byte{255, 255, 0}, 0)
	f.Fuzz(func(t *testing.T, fkBytes, rBytes []byte, dangle int) {
		if len(rBytes) == 0 || len(rBytes) > 1<<10 || len(fkBytes) > 1<<12 {
			return
		}
		nR := len(rBytes)
		r := NewTable("R")
		rf := make([]int32, nR)
		for i, b := range rBytes {
			rf[i] = int32(b) % 8
		}
		r.MustAddColumn(&Column{Name: "rF", Card: 8, Data: rf})
		s := NewTable("S")
		home := make([]int32, len(fkBytes))
		fk := make([]int32, len(fkBytes))
		for i, b := range fkBytes {
			home[i] = int32(b) % 4
			fk[i] = int32(b) % int32(nR)
		}
		s.MustAddColumn(&Column{Name: "sH", Card: 4, Data: home})
		s.MustAddColumn(&Column{Name: "FK", Card: nR, Data: fk})

		got, err := Join(s, "FK", r)
		if err != nil {
			t.Fatalf("join rejected a valid input: %v", err)
		}
		checkGathered(t, s, []ForeignKey{{Column: "FK", Refs: "R"}}, map[string]*Table{"R": r}, got)

		if len(fk) == 0 {
			return
		}
		bad := s.Clone()
		row := uint(dangle) % uint(len(fk))
		rid := int32(nR) + int32(uint(dangle)%5)
		if dangle < 0 {
			rid = -1 - int32(uint(dangle)%5)
		}
		bad.Column("FK").Data[row] = rid
		if _, err := Join(bad, "FK", r); err == nil || !strings.Contains(err.Error(), "RID") {
			t.Fatalf("dangling RID %d at row %d not rejected: err=%v", rid, row, err)
		}
	})
}

// FuzzReadCSV exercises the CSV ingestion path with arbitrary input: it
// must either fail cleanly or produce a table that validates and
// round-trips; it must never panic. Run `go test -fuzz=FuzzReadCSV
// ./internal/relational` to explore beyond the seed corpus.
func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("a,b\n1,x\n2,y\n"), 0)
	f.Add([]byte("a\n\n"), 4)
	f.Add([]byte("col,col\nv,w\n"), 0)
	f.Add([]byte("h1,h2,h3\n1.5,2.5,xx\n3.5,4.5,yy\n"), 3)
	f.Add([]byte(`q
"quoted,comma"
plain
`), 0)
	f.Add([]byte("\xff\xfe,b\n1,2\n"), 2)
	f.Fuzz(func(t *testing.T, data []byte, bins int) {
		tab, dicts, err := ReadCSV("F", bytes.NewReader(data), ReadCSVOptions{NumericBins: bins % 16, MaxCardinality: 64})
		if err != nil {
			return // clean rejection is fine
		}
		if err := tab.Validate(); err != nil {
			t.Fatalf("accepted table fails validation: %v", err)
		}
		var out strings.Builder
		if err := WriteCSV(tab, &out, dicts); err != nil {
			t.Fatalf("accepted table fails to serialize: %v", err)
		}
		// Re-reading our own output (without numeric binning, which is
		// lossy by design) must succeed.
		if _, _, err := ReadCSV("F2", strings.NewReader(out.String()), ReadCSVOptions{}); err != nil {
			t.Fatalf("round-trip re-read failed: %v\noutput: %q", err, out.String())
		}
	})
}
