package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/serve"
)

// span is one timed interval of the traced run. Start and End are
// nanoseconds since the recorder was created; Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the traced run's spans in memory. A nil *recorder is the
// untraced run: every method is a no-op, so the measured code paths are
// identical with tracing on and off apart from these calls.
//
// Spans are stored without pointers, their names and request ids interned:
// a pointer-free slice is never scanned by the garbage collector, which
// otherwise would walk every span on each of the thousands of collections
// an allocation-heavy run triggers.
type recorder struct {
	mu   sync.Mutex
	t0   time.Time
	raw  []rawSpan
	strs []string
	ids  map[string]int32
}

type rawSpan struct {
	parent     int
	name, req  int32
	start, end int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), ids: map[string]int32{}} }

// intern returns s's index in r.strs. Callers hold r.mu.
func (r *recorder) intern(s string) int32 {
	id, ok := r.ids[s]
	if !ok {
		id = int32(len(r.strs))
		r.strs = append(r.strs, s)
		r.ids[s] = id
	}
	return id
}

// spans returns the recorded spans.
func (r *recorder) spans() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, len(r.raw))
	for i, s := range r.raw {
		out[i] = span{ID: i + 1, Parent: s.parent, Name: r.strs[s.name], Req: r.strs[s.req], Start: s.start, End: s.end}
	}
	return out
}

// begin opens a span now and returns its id (0 on a nil recorder).
func (r *recorder) begin(name, req string, parent int) int {
	return r.beginAt(name, req, parent, time.Now())
}

func (r *recorder) beginAt(name, req string, parent int, t time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.raw = append(r.raw, rawSpan{parent: parent, name: r.intern(name), req: r.intern(req),
		start: int64(t.Sub(r.t0)), end: -1})
	return len(r.raw)
}

// end closes span id now.
func (r *recorder) end(id int) { r.endAt(id, time.Now()) }

func (r *recorder) endAt(id int, t time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.raw[id-1].end = int64(t.Sub(r.t0))
	r.mu.Unlock()
}

// add records an already finished span.
func (r *recorder) add(name, req string, parent int, start, end time.Time) {
	r.endAt(r.beginAt(name, req, parent, start), end)
}

// spanTimes sums, per span name, the spans' durations and their self
// times in seconds. A span's self time is its duration minus the part of
// it its children cover.
func spanTimes(spans []span) (total, self map[string]float64) {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total, self = map[string]float64{}, map[string]float64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		total[s.Name] += float64(s.End-s.Start) / 1e9
		self[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return total, self
}

// checkNesting reports the first span that is unclosed, ends before it
// starts, or is not contained in its parent.
func checkNesting(spans []span) error {
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 1 || s.Parent > len(spans) || s.Parent >= s.ID {
			return fmt.Errorf("span %d (%s) has bad parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] escapes parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// writeSpans writes spans as JSONL.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// solverSink turns the events of one serial gap search into spans and
// counts. Core phases arrive as PhaseStart/PhaseEnd pairs. milp emits a
// node's LPSolveStart/LPSolveEnd pair after the node's relaxation (and the
// speculative polish that runs with it) has finished, so the node span runs
// from the search's previous event to LPSolveStart.
type solverSink struct {
	rec    *recorder
	search int // parent span of the phases
	req    string
	phase  int
	last   time.Time
	counts *layerCounts
}

func (s *solverSink) Emit(e obs.Event) {
	now := time.Now()
	c := s.counts
	switch e.Kind {
	case obs.KindPhaseStart:
		s.phase = s.rec.beginAt("core."+e.Phase, s.req, s.search, now)
	case obs.KindPhaseEnd:
		s.rec.endAt(s.phase, now)
		s.phase = 0
	case obs.KindLPSolveStart:
		s.rec.add("lp.node", s.req, s.phase, s.last, now)
	case obs.KindLPSolveEnd:
		c.nodeSolves++
	case obs.KindNodeExplored:
		c.nodes++
	case obs.KindNodePruned:
		c.pruned++
	case obs.KindIncumbent:
		if e.Source != "hill" { // a hill-climb improvement is not a B&B incumbent
			c.incumbents++
		}
	case obs.KindPolishAccept:
		c.polishAccepts++
	case obs.KindPolishReject:
		c.polishRejects++
	case obs.KindRestart:
		c.restarts++
	case obs.KindMoveAccept:
		c.moveAccepts++
	case obs.KindMoveReject:
		c.moveRejects++
	}
	s.last = now
}

// exchange is one HTTP request seen by the bench transport.
type exchange struct {
	method, path string
	code         int
	start, end   time.Time
	jobID        string // job id named in the response (POST) or path (GET)
	cell         string // cell name, from the POST body
	state        string // job state in the response
}

// transport is the http.RoundTripper the sweep client runs on. It reads
// each response body fully, so a request's duration covers the whole
// exchange, and records what the latency metrics need.
type transport struct {
	base http.RoundTripper
	mu   sync.Mutex
	log  []exchange
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	ex := exchange{method: req.Method, path: req.URL.Path, start: time.Now()}
	if req.Method == http.MethodPost && req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			var spec serve.Spec
			if json.NewDecoder(body).Decode(&spec) == nil {
				ex.cell = cellName(spec.Threshold, spec.Seed)
			}
			body.Close()
		}
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	ex.end = time.Now()
	ex.code = resp.StatusCode
	var view serve.JobView
	if json.Unmarshal(data, &view) == nil {
		ex.jobID, ex.state = view.ID, view.State
	}
	if ex.jobID == "" && strings.HasPrefix(ex.path, "/v1/jobs/") {
		ex.jobID = strings.TrimPrefix(ex.path, "/v1/jobs/")
	}
	t.mu.Lock()
	t.log = append(t.log, ex)
	t.mu.Unlock()
	return resp, nil
}

// take returns and clears the exchanges recorded so far.
func (t *transport) take() []exchange {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.log
	t.log = nil
	return out
}

// timingFS is the checkpoint.FS handed to sweep.OpenLedger: it times every
// ledger write and counts the bytes written.
type timingFS struct {
	base  checkpoint.FS
	mu    sync.Mutex
	puts  int
	bytes int64
	secs  float64
}

func (f *timingFS) WriteTemp(dir, pattern string, data []byte) (string, error) {
	t0 := time.Now()
	name, err := f.base.WriteTemp(dir, pattern, data)
	f.mu.Lock()
	f.secs += time.Since(t0).Seconds()
	f.bytes += int64(len(data))
	f.mu.Unlock()
	return name, err
}

func (f *timingFS) Rename(oldpath, newpath string) error {
	t0 := time.Now()
	err := f.base.Rename(oldpath, newpath)
	f.mu.Lock()
	f.secs += time.Since(t0).Seconds()
	f.puts++
	f.mu.Unlock()
	return err
}

func (f *timingFS) Remove(path string) error { return f.base.Remove(path) }
