package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (never inside the program). Times are nanoseconds since the run began.
//
// Two kinds of children exist. A nested child ran inside its parent's
// interval (a parameter-server pull inside a round, the HTTP handler inside a
// client's round trip). A replay child is the same op entered one layer lower
// on the bypass ladder: it ran on its own, right after the rung above, so its
// clock times lie outside the parent's; for coverage it counts as if it began
// when the parent did.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`     // spans of one op share this
	Replay bool   `json:"replay,omitempty"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its ID (IDs start at 1).
func (r *recorder) add(name string, start, end time.Time, parent, op int, replay bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Name: name, Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
		Parent: parent, Op: op, Replay: replay,
	})
	return id
}

// write stores the spans as one JSON document.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(struct {
		Schema string `json:"schema"`
		Spans  []span `json:"spans"`
	}{"id,name,start_ns,end_ns,parent,op,replay", r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// selfTimes returns each span's self time in nanoseconds: its duration minus
// the part of its interval that its children cover. Overlapping children
// (parallel pushes, say) are subtracted once, and a child is clipped to its
// parent's interval.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, p := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[p.ID] {
			a, b := c.Start, c.End
			if c.Replay {
				a, b = p.Start, p.Start+(c.End-c.Start)
			}
			if a < p.Start {
				a = p.Start
			}
			if b > p.End {
				b = p.End
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		covered, edge := int64(0), p.Start
		for _, v := range ivs {
			if v.a > edge {
				edge = v.a
			}
			if v.b > edge {
				covered += v.b - edge
				edge = v.b
			}
		}
		self[p.ID] = (p.End - p.Start) - covered
	}
	return self
}
