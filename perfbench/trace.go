package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// request or sweep share trace; parent is the enclosing span's ID
// (0 for a root).
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Trace  int       `json:"trace"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	nextID int
}

// begin opens a span; the returned func closes it and returns its ID.
func (t *tracer) begin(name string, trace, parent int) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	t.nextID++
	id = t.nextID
	t.mu.Unlock()
	start := time.Now()
	return id, func() { t.add(span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: time.Now()}) }
}

// record adds a span whose interval the caller measured itself (from
// event-stream timestamps, say).
func (t *tracer) record(name string, trace, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	t.add(span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes returns, per span name, the number of spans and the mean
// self time in milliseconds: a span's duration minus the part of it
// its children cover.
func (t *tracer) selfTimes() map[string]selfTime {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]selfTime{}
	for _, s := range spans {
		self := s.End.Sub(s.Start) - covered(s, children[s.ID])
		st := out[s.Name]
		st.count++
		st.totalMS += float64(self) / float64(time.Millisecond)
		out[s.Name] = st
	}
	return out
}

type selfTime struct {
	count   int
	totalMS float64
}

func (s selfTime) meanMS() float64 {
	if s.count == 0 {
		return 0
	}
	return s.totalMS / float64(s.count)
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, x := range ivs {
		switch {
		case i == 0:
			cur = x
		case !x.a.After(cur.b):
			if x.b.After(cur.b) {
				cur.b = x.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = x
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}
