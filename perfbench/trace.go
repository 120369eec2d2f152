package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's own span recorder. Spans wrap the benchmark's calls into
// each layer of the program (synth, dataset, core, nb, fs, logreg, registry,
// server, net/http); the program itself is never instrumented from here.
// Spans are kept in memory, one buffer per goroutine so recording takes no
// lock, and written once when the run ends.

// span is one recorded interval. Start and End are offsets from the
// tracer's origin.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer owns every span buffer of a run. A nil *tracer records nothing, so
// untraced runs pay one nil check per call site.
type tracer struct {
	origin time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	bufs   []*spanBuf
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// buf returns a new buffer for one goroutine's spans (nil when t is nil).
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// spanBuf holds the spans of one goroutine. It is not safe for concurrent
// use; the tracer reads it only after the goroutine has finished.
type spanBuf struct {
	t     *tracer
	spans []span
}

// spanRef is a handle on an open span; the zero value is a no-op.
type spanRef struct {
	b *spanBuf
	i int
}

// start opens a span under parent (the zero spanRef for a root). The
// parent may belong to another goroutine's buffer if that goroutine does
// not record concurrently, as when it waits for the caller.
func (b *spanBuf) start(parent spanRef, name string) spanRef {
	if b == nil {
		return spanRef{}
	}
	s := span{ID: b.t.ids.Add(1), Parent: parent.id(), Name: name, Start: time.Since(b.t.origin)}
	b.spans = append(b.spans, s)
	return spanRef{b: b, i: len(b.spans) - 1}
}

// id is the span's identifier (0 for the no-op span).
func (r spanRef) id() int64 {
	if r.b == nil {
		return 0
	}
	return r.b.spans[r.i].ID
}

// end closes the span.
func (r spanRef) end() {
	if r.b != nil {
		r.b.spans[r.i].End = time.Since(r.b.t.origin)
	}
}

// all returns every recorded span, ordered by start.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// layerTotals is one row of the self-time table: every span of one name.
type layerTotals struct {
	Name      string
	Count     int
	Total     time.Duration
	Self      time.Duration
	Durations []time.Duration
}

// totals groups spans by name. A span's self time is its duration minus
// the durations of its direct children (clamped at zero).
func totals(spans []span) map[string]*layerTotals {
	child := make(map[int64]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := make(map[string]*layerTotals)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotals{Name: s.Name}
			out[s.Name] = lt
		}
		d := s.dur()
		lt.Count++
		lt.Total += d
		lt.Self += max(d-child[s.ID], 0)
		lt.Durations = append(lt.Durations, d)
	}
	return out
}

// writeSelfTimeTable prints the per-layer self-time table, largest self
// time first.
func writeSelfTimeTable(w io.Writer, tt map[string]*layerTotals) {
	rows := make([]*layerTotals, 0, len(tt))
	var all time.Duration
	for _, lt := range tt {
		rows = append(rows, lt)
		all += lt.Self
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Self != rows[j].Self {
			return rows[i].Self > rows[j].Self
		}
		return rows[i].Name < rows[j].Name
	})
	fmt.Fprintf(w, "%-28s %9s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self%")
	for _, lt := range rows {
		share := 0.0
		if all > 0 {
			share = 100 * float64(lt.Self) / float64(all)
		}
		fmt.Fprintf(w, "%-28s %9d %12.3f %12.3f %6.1f%%\n", lt.Name, lt.Count,
			ms(lt.Total), ms(lt.Self), share)
	}
}

// writeSpans writes every span as one JSON line to path, through a
// temporary file in a directory of the run's own that is removed before
// returning, so no partial file or directory outlives the call.
func writeSpans(path string, spans []span) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	tmpDir, err := os.MkdirTemp(filepath.Dir(path), "tmp-spans-")
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	defer func() {
		if rmErr := os.RemoveAll(tmpDir); rmErr != nil && err == nil {
			err = fmt.Errorf("spans: remove temporary directory: %w", rmErr)
		}
		if _, statErr := os.Stat(tmpDir); err == nil && !os.IsNotExist(statErr) {
			err = fmt.Errorf("spans: temporary directory %s survived", tmpDir)
		}
	}()
	tmp := filepath.Join(tmpDir, filepath.Base(path))
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
