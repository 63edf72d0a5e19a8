package main

import (
	"sort"
	"sync"
	"time"
)

// A span is one timed interval of the benchmark: a root per workload,
// with children for set-up, each run and each probe batch. Times are
// seconds since the recorder started.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for the root
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"` // duration minus the part children cover
}

// recorder keeps spans in memory; they are written out only when the
// benchmark ends. Safe for concurrent use: sweep jobs record their own
// spans from pool workers.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() float64 { return time.Since(r.origin).Seconds() }

// begin opens a span and returns its id; end closes it.
func (r *recorder) begin(name string, parent int) int {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: t, End: t})
	return id
}

func (r *recorder) end(id int) {
	t := r.now()
	r.mu.Lock()
	r.spans[id].End = t
	r.mu.Unlock()
}

// finish returns every span with its self time filled in.
func (r *recorder) finish() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	children := make(map[int][][2]float64)
	for _, s := range out {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for i := range out {
		out[i].Self = (out[i].End - out[i].Start) - covered(children[out[i].ID], out[i].Start, out[i].End)
	}
	return out
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi]. Sweep jobs overlap each other, so their union, not their
// sum, is what the parent did not spend itself.
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi float64
	open := false
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}
