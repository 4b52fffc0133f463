package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer: name, start,
// end, the span that caused it (0 for a root) and the request (or unit)
// it served.
type span struct {
	name   string
	id     int
	parent int
	req    int
	start  time.Time
	end    time.Time
}

// spanLog keeps spans in memory until the run ends. It records at most
// limit spans; later adds are counted but dropped, so a long replay
// cannot grow the span file without bound.
type spanLog struct {
	spans   []span
	limit   int
	dropped int
	nextID  int
}

func newSpanLog(limit int) *spanLog { return &spanLog{limit: limit} }

// add records a span and returns its id (0 when dropped).
func (l *spanLog) add(name string, parent, req int, start, end time.Time) int {
	if len(l.spans) >= l.limit {
		l.dropped++
		return 0
	}
	l.nextID++
	l.spans = append(l.spans, span{name: name, id: l.nextID, parent: parent, req: req, start: start, end: end})
	return l.nextID
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children count
// once, and child time outside the parent's interval does not count.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.id] = s.end.Sub(s.start) - covered(s, children[s.id])
	}
	return out
}

// covered measures the union of the children's intervals clipped to
// the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.start, k.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// selfByName sums self time per span name and counts the spans.
func selfByName(spans []span) (map[string]time.Duration, map[string]int) {
	self := selfTimes(spans)
	sum := map[string]time.Duration{}
	count := map[string]int{}
	for _, s := range spans {
		sum[s.name] += self[s.id]
		count[s.name]++
	}
	return sum, count
}

// writeChrome writes the spans as a Chrome trace-event document (the
// format the servers' /v1/trace emits, loadable in Perfetto): one
// thread row per request, times in microseconds from the first span.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var epoch time.Time
	for _, s := range l.spans {
		if epoch.IsZero() || s.start.Before(epoch) {
			epoch = s.start
		}
	}
	self := selfTimes(l.spans)
	events := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.req,
			Ts:  float64(s.start.Sub(epoch)) / 1e3,
			Dur: float64(s.end.Sub(s.start)) / 1e3,
			Args: map[string]any{
				"id": s.id, "parent": s.parent, "req": s.req,
				"self_us": float64(self[s.id]) / 1e3,
			},
		})
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"dropped_spans": l.dropped},
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
