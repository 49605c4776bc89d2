package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Request is shared by
// every span of one request, run or replay; Parent is 0 for a root span.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Request uint64 `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one pointer test per call.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	next  uint64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newRequest allocates an identifier shared by the spans of one request.
func (r *recorder) newRequest() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// start opens a span; call the returned function to close it. The span's
// id is returned so nested calls can name it as their parent.
func (r *recorder) start(name string, request, parent uint64) (id uint64, end func()) {
	if r == nil {
		return 0, func() {}
	}
	r.mu.Lock()
	r.next++
	id = r.next
	r.mu.Unlock()
	begin := time.Since(r.epoch).Nanoseconds()
	return id, func() {
		done := time.Since(r.epoch).Nanoseconds()
		r.mu.Lock()
		r.spans = append(r.spans, span{ID: id, Parent: parent, Request: request, Name: name, StartNS: begin, EndNS: done})
		r.mu.Unlock()
	}
}

// add records a span measured elsewhere (a child process), shifted onto
// this recorder's clock and request.
func (r *recorder) add(s span, request, parent uint64, offsetNS int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	s.ID, s.Request, s.Parent = r.next, request, parent
	s.StartNS += offsetNS
	s.EndNS += offsetNS
	r.spans = append(r.spans, s)
}

// writeJSONL writes every span as one JSON line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
