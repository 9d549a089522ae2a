package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// rootSpan names the span around one operation of the generator (a
// round of commitments, or one claim audit). Its self-time is the
// benchmark's own work; every other span brackets a call into one layer.
const rootSpan = "bench.op"

// spanRec is one recorded span. Times are nanoseconds since the
// tracer's origin; Parent is the index of the enclosing span or -1.
type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
}

// tracer keeps the generator goroutine's spans in memory. It is used
// from that goroutine only; spans open while on is false are not
// recorded.
type tracer struct {
	on    bool
	t0    time.Time
	spans []spanRec
	stack []int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.t0)) }

func (t *tracer) top() int32 {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, spanRec{Name: name, Start: t.ns(time.Now()), End: -1, Parent: t.top()})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].End = t.ns(time.Now())
	t.stack = t.stack[:len(t.stack)-1]
}

// add records a finished span as a child of the innermost open span.
func (t *tracer) add(name string, start, end time.Time) {
	if !t.on {
		return
	}
	t.spans = append(t.spans, spanRec{Name: name, Start: t.ns(start), End: t.ns(end), Parent: t.top()})
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	count int
	total time.Duration
	self  time.Duration
	durs  []time.Duration
}

// aggregate sums duration and self-time (duration minus the part its
// children cover) per span name.
func (t *tracer) aggregate() map[string]*layerStat {
	childSum := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			childSum[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*layerStat)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.count++
		st.total += d
		st.self += d - time.Duration(childSum[i])
		st.durs = append(st.durs, d)
	}
	return out
}

// coverage is the share of the traced operations' wall time that layer
// spans account for.
func coverage(agg map[string]*layerStat) float64 {
	root := agg[rootSpan]
	if root == nil || root.total <= 0 {
		return 0
	}
	return 1 - root.self.Seconds()/root.total.Seconds()
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
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

// busy returns the summed self-time of a span name, in seconds.
func busy(agg map[string]*layerStat, name string) float64 {
	if st := agg[name]; st != nil {
		return st.self.Seconds()
	}
	return 0
}

// spanCount returns how many spans of a name were recorded.
func spanCount(agg map[string]*layerStat, name string) float64 {
	if st := agg[name]; st != nil {
		return float64(st.count)
	}
	return 0
}

// percentile returns the q-quantile (0..1) of ds by nearest rank.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
