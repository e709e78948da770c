package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// A span is one call across a layer boundary, recorded by the benchmark
// around its own call into a module's public function. Its layer is the
// name's prefix up to the first dot. Spans of one trial share the trial
// index as their id; spans that serve no single trial carry -1.
type span struct {
	name       string
	parent     int32
	id         int64
	start, end int64 // ns since the tracer's epoch
}

// tracer holds spans in memory; they are written out once, at exit, so
// that recording a span costs two clock reads and an append. A tracer is
// used from one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its handle.
func (t *tracer) begin(name string, parent int32, id int64) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, id: id, start: t.now(), end: -1})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].end = t.now() }

// add records a span whose bounds were observed elsewhere, such as a
// handshake that ends when a worker's first line arrives.
func (t *tracer) add(name string, parent int32, id int64, start, end int64) {
	t.spans = append(t.spans, span{name: name, parent: parent, id: id, start: start, end: end})
}

// at converts a wall-clock instant to tracer time.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// accounting is the layer breakdown of one root span's wall time: every
// nanosecond of the root goes to exactly one layer — the layer of the
// deepest open span, the latest-started one among equals — or, when only
// the root is open, to the residual. The self times and the residual
// therefore sum to the wall time exactly, and overlapping spans (two
// workers' handshakes) are never counted twice.
type accounting struct {
	WallNs     int64            `json:"wall_ns"`
	SelfNs     map[string]int64 `json:"self_ns"`
	ResidualNs int64            `json:"residual_ns"`
}

// account breaks down the root span's interval over the spans below it.
func (t *tracer) account(root int32) (accounting, error) {
	depth := make([]int, len(t.spans))
	type edge struct {
		at    int64
		span  int32
		start bool
	}
	var edges []edge
	r := t.spans[root]
	for i := range t.spans {
		s := t.spans[i]
		if s.end < s.start {
			return accounting{}, fmt.Errorf("trace: span %s (%d) never ended", s.name, i)
		}
		d, p := 0, int32(i)
		for p != root && p >= 0 {
			p = t.spans[p].parent
			d++
		}
		if p != root {
			continue // not under this root
		}
		depth[i] = d
		if int32(i) == root {
			continue
		}
		st, en := max(s.start, r.start), min(s.end, r.end)
		if st < en {
			edges = append(edges, edge{st, int32(i), true}, edge{en, int32(i), false})
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].at != edges[b].at {
			return edges[a].at < edges[b].at
		}
		return !edges[a].start && edges[b].start // close before open
	})
	acc := accounting{WallNs: r.end - r.start, SelfNs: map[string]int64{}}
	var open []int32
	cursor := r.start
	credit := func(upTo int64) {
		if upTo <= cursor {
			return
		}
		best := int32(-1)
		for _, i := range open {
			if best < 0 || depth[i] > depth[best] ||
				(depth[i] == depth[best] && t.spans[i].start >= t.spans[best].start) {
				best = i
			}
		}
		if best < 0 {
			acc.ResidualNs += upTo - cursor
		} else {
			acc.SelfNs[layerOf(t.spans[best].name)] += upTo - cursor
		}
		cursor = upTo
	}
	for _, e := range edges {
		credit(e.at)
		if e.start {
			open = append(open, e.span)
			continue
		}
		for k, i := range open {
			if i == e.span {
				open = append(open[:k], open[k+1:]...)
				break
			}
		}
	}
	credit(r.end)
	sum := acc.ResidualNs
	for _, v := range acc.SelfNs {
		sum += v
	}
	if sum != acc.WallNs {
		return acc, fmt.Errorf("trace: layer self times plus residual = %d ns, wall = %d ns", sum, acc.WallNs)
	}
	return acc, nil
}

// total sums the durations of the spans with the given name.
func (t *tracer) total(name string) (ns int64) {
	for _, s := range t.spans {
		if s.name == name {
			ns += s.end - s.start
		}
	}
	return ns
}

// write saves every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if err := enc.Encode(struct {
			Span   int    `json:"span"`
			Name   string `json:"name"`
			Parent int32  `json:"parent"`
			ID     int64  `json:"id"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{i, s.name, s.parent, s.id, s.start, s.end}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
