package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// that call. Spans of one op share Op; Parent is the span that caused this
// one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log began
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, which is how untraced runs and untraced ops skip it.
type spanLog struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// id reserves a span id, so children can name a parent that has not ended.
func (l *spanLog) id() int64 {
	if l == nil {
		return 0
	}
	return l.next.Add(1)
}

func (l *spanLog) record(id, parent, op int64, name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0)),
	})
	l.mu.Unlock()
}

// add records a span with a fresh id and returns the id.
func (l *spanLog) add(parent, op int64, name string, start, end time.Time) int64 {
	id := l.id()
	l.record(id, parent, op, name, start, end)
	return id
}

func (l *spanLog) all() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}
