package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (spans inside the program are a later change).
type span struct {
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Workload string `json:"workload"`
}

// recorder keeps spans in memory until the run ends. Only the traced
// run has one; the timed ops never touch it.
type recorder struct {
	mu       sync.Mutex
	workload string
	epoch    time.Time
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

// begin opens a span and returns its id for end and for children.
func (r *recorder) begin(name, layer string, parent int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		Name: name, Layer: layer, StartNs: time.Since(r.epoch).Nanoseconds(),
		ID: id, Parent: parent, Workload: r.workload,
	})
	return id
}

// end closes a span.
func (r *recorder) end(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].EndNs = time.Since(r.epoch).Nanoseconds()
}

// timed runs fn inside a span and returns the span's duration.
func (r *recorder) timed(name, layer string, parent int, fn func(id int) error) (time.Duration, error) {
	id := r.begin(name, layer, parent)
	start := time.Now()
	err := fn(id)
	d := time.Since(start)
	r.end(id)
	return d, err
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format; layers map to thread lanes so a viewer stacks them.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans as Chrome trace-event JSON at path.
func (r *recorder) write(path string, valid bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	lanes := map[string]int{}
	events := make([]chromeEvent, 0, len(r.spans))
	for _, s := range r.spans {
		lane, ok := lanes[s.Layer]
		if !ok {
			lane = len(lanes) + 1
			lanes[s.Layer] = lane
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.StartNs) / 1e3, Dur: float64(s.EndNs-s.StartNs) / 1e3,
			Pid: 1, Tid: lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "workload": s.Workload, "layer": s.Layer},
		})
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"workload": r.workload, "replay_valid": valid},
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
