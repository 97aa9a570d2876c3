package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// tracer keeps wall-clock spans in memory for the traced run. Spans
// nest strictly: end closes the innermost open span. A nil tracer
// records nothing, so the untraced run shares the same code.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
	err    error
}

type span struct {
	name       string
	parent     int // index into spans; -1 for a root
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.origin), end: -1})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	n := len(t.open)
	if n == 0 || t.open[n-1] != id {
		if t.err == nil {
			t.err = fmt.Errorf("span %q ended out of order", t.spans[id].name)
		}
		return
	}
	t.spans[id].end = time.Since(t.origin)
	t.open = t.open[:n-1]
}

func (s span) dur() time.Duration { return s.end - s.start }

// total sums the durations of the spans named name, or, when name ends
// in ".", of the spans whose names start with it.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name || (strings.HasSuffix(name, ".") && strings.HasPrefix(s.name, name)) {
			d += s.dur()
		}
	}
	return d
}

// selfTimes returns each span's self time: its duration minus the part
// of it that its children cover. It fails unless, for every span, self
// time plus the children's durations equals the span's wall time
// exactly, which holds only when the children lie inside their parent
// and do not overlap one another.
func (t *tracer) selfTimes() ([]time.Duration, error) {
	if t.err != nil {
		return nil, t.err
	}
	if len(t.open) > 0 {
		return nil, fmt.Errorf("span %q never ended", t.spans[t.open[0]].name)
	}
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.dur() - coverage(s, t.spans, children[i])
		var sum time.Duration
		for _, c := range children[i] {
			sum += t.spans[c].dur()
		}
		if self[i]+sum != s.dur() {
			return nil, fmt.Errorf("span %q: self %v + children %v != wall %v", s.name, self[i], sum, s.dur())
		}
	}
	return self, nil
}

// coverage is the length of the union of the children's intervals,
// clipped to the parent's.
func coverage(parent span, all []span, kids []int) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(all[k].start, parent.start), min(all[k].end, parent.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var covered, reach time.Duration
	for _, x := range iv {
		if x[0] > reach {
			reach = x[0]
		}
		if x[1] > reach {
			covered += x[1] - reach
			reach = x[1]
		}
	}
	return covered
}
