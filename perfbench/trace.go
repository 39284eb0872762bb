package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"shredder/internal/obs"
)

// span is one interval recorded at a layer boundary in the benchmark's
// own code. Spans of one request share Req; Parent is the enclosing
// span's ID (0 for a root). Times are nanoseconds since the tracer began.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
	rpcs  map[obs.TraceID]rpcRef // wire trace ID -> the rpc span that sent it
}

func newTracer() *tracer { return &tracer{t0: time.Now(), rpcs: map[obs.TraceID]rpcRef{}} }

// noteRPC remembers which rpc span sent the wire request with this trace.
func (t *tracer) noteRPC(trace obs.TraceID, ref rpcRef) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rpcs[trace] = ref
}

// add records a finished interval and returns its ID (0 on a nil tracer).
func (t *tracer) add(name string, parent, req uint64, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{
		ID: t.next, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return t.next
}

// reserve hands out a span ID before the span's end is known, so children
// can name their parent while it is still open; finish records it.
func (t *tracer) reserve() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) finish(id uint64, name string, parent, req uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
}

// attachClientStages hangs the client's per-stage spans (quantize,
// serialize, send, wait, decode) under the rpc span of the same request,
// matched by trace ID, laid end to end from the client span's start.
func (t *tracer) attachClientStages(ring []obs.Span) {
	if t == nil {
		return
	}
	for _, s := range ring {
		t.mu.Lock()
		ref, ok := t.rpcs[s.Trace]
		t.mu.Unlock()
		if !ok {
			continue
		}
		at := s.Start
		for _, st := range s.Stages {
			t.add("client."+st.Name, ref.span, ref.req, at, at.Add(st.Dur))
			at = at.Add(st.Dur)
		}
	}
}

// rpcRef locates the benchmark's rpc span for one wire request.
type rpcRef struct{ span, req uint64 }

// write stores every span as JSON at path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
