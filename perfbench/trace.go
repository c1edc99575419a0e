package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one search or job
// share a trace id; parent links a span to the span that caused it.
type span struct {
	name   string
	trace  int
	id     int
	parent int // 0 for a root span
	start  time.Duration
	end    time.Duration
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0        time.Time
	mu        sync.Mutex
	spans     []span
	nextTrace int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newTrace allocates a trace id for one search or job.
func (t *tracer) newTrace() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextTrace++
	return t.nextTrace
}

// begin opens a span now and returns its id.
func (t *tracer) begin(name string, trace, parent int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, trace: trace, id: len(t.spans) + 1, parent: parent, start: now, end: -1})
	return len(t.spans)
}

// end closes span id now.
func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// rename renames span id.
func (t *tracer) rename(id int, name string) {
	t.mu.Lock()
	t.spans[id-1].name = name
	t.mu.Unlock()
}

// add records a span whose bounds were observed elsewhere.
func (t *tracer) add(name string, trace, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, trace: trace, id: len(t.spans) + 1, parent: parent,
		start: start.Sub(t.t0), end: end.Sub(t.t0)})
	return len(t.spans)
}

// selfTimes returns, per span name, the summed self time — each
// span's duration minus the part of it that its child spans cover —
// and the number of spans.
func (t *tracer) selfTimes() (self map[string]time.Duration, count map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self = map[string]time.Duration{}
	count = map[string]int{}
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		self[s.name] += s.end - s.start - covered(s, children[s.id])
		count[s.name]++
	}
	return self, count
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.start, k.end
		if b < 0 {
			continue
		}
		if a < parent.start {
			a = parent.start
		}
		if b > parent.end {
			b = parent.end
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			if v.b > cur.b {
				cur.b = v.b
			}
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// writeChrome writes the spans as Chrome trace-event JSON ("X"
// complete events, one thread row per trace id), loadable in
// chrome://tracing or Perfetto.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.trace,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.id, "parent": s.parent},
		})
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]interface{}{"traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
