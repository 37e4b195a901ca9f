package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's exported function. Spans of one op share its id; Parent
// indexes the enclosing span in the same tracer (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps one goroutine's spans in memory. A nil *tracer records
// nothing, so untraced runs pay only the nil checks.
type tracer struct {
	base  time.Time
	spans []span
	stack []int32
}

func newTracer(base time.Time) *tracer { return &tracer{base: base} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string, op int64) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.base))})
	i := int32(len(t.spans) - 1)
	t.stack = append(t.stack, i)
	return i
}

// end closes span i, which must be the innermost open one.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.base))
	t.stack = t.stack[:len(t.stack)-1]
}

// layerTime is the total and self time of every span of one name.
type layerTime struct {
	count      int64
	total, own int64 // ns; own = total minus the time child spans cover
}

func (l layerTime) meanTotal() float64 { return ratio(float64(l.total), float64(l.count)) }
func (l layerTime) meanSelf() float64  { return ratio(float64(l.own), float64(l.count)) }

// selfTimes aggregates spans by name. Children nest strictly inside
// their parent on one goroutine, so a parent's self time is its duration
// minus the sum of its direct children's durations.
func selfTimes(ts ...*tracer) map[string]layerTime {
	out := make(map[string]layerTime)
	for _, t := range ts {
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range t.spans {
			l := out[s.Name]
			l.count++
			l.total += s.End - s.Start
			l.own += s.End - s.Start - child[i]
			out[s.Name] = l
		}
	}
	return out
}

// durations returns the durations (ns) of the spans named name whose op
// passes keep.
func durations(t *tracer, name string, keep func(op int64) bool) []float64 {
	var d []float64
	for _, s := range t.spans {
		if s.Name == name && keep(s.Op) {
			d = append(d, float64(s.End-s.Start))
		}
	}
	return d
}

// writeSpans dumps every tracer's spans as JSON lines, one file per
// run. Tracers are numbered so parents stay resolvable.
func writeSpans(dir, name string, ts ...*tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for g, t := range ts {
		for _, s := range t.spans {
			if err := enc.Encode(struct {
				Tracer int `json:"tracer"`
				span
			}{g, s}); err != nil {
				f.Close()
				return fmt.Errorf("write spans: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
