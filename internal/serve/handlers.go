package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// JobView is the wire form of a job's state — what POST /v1/jobs and
// GET /v1/jobs/{id} return. Exported so HTTP clients (internal/sweep) decode
// the same shape the daemon encodes instead of shadowing it.
type JobView struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Key      string          `json:"key"`
	Spec     json.RawMessage `json:"spec"`
	Enqueued string          `json:"enqueued"`
	Error    string          `json:"error,omitempty"`
	Result   *StoredResult   `json:"result,omitempty"`
}

func (s *Server) viewOf(j *job) JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobView{
		ID:       j.id,
		State:    j.state,
		Key:      hexKey(j.key),
		Spec:     j.specJSON,
		Enqueued: j.enqueued.UTC().Format(time.RFC3339Nano),
		Error:    j.errMsg,
		Result:   j.result,
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func (s *Server) initMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/results/{key}", s.handleGetResult)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	// /healthz is liveness — "this process is up" — and stays unconditional:
	// a draining daemon is alive and must not be restarted by its supervisor
	// mid-drain. /readyz is readiness — "this process will accept a job" —
	// and goes 503 before the restored backlog is re-admitted and again the
	// moment a drain begins, so clients and balancers route elsewhere.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.cfg.Registry.WriteProm(w)
	})
	s.mux = mux
}

// ServeHTTP makes the Server an http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.met.jobsRejected.Inc()
		writeError(w, http.StatusBadRequest, fmt.Sprintf("serve: bad job spec: %v", err))
		return
	}
	j, err := s.submit(&spec)
	if err != nil {
		var se *submitError
		if errors.As(err, &se) {
			if se.retryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(int(se.retryAfter.Round(time.Second)/time.Second)))
			}
			writeError(w, se.code, se.msg)
		} else {
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	code := http.StatusAccepted
	if j.getState() == stateDone {
		code = http.StatusOK // answered from the results store
	}
	writeJSON(w, code, s.viewOf(j))
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := append([]*job(nil), s.order...)
	s.mu.Unlock()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = s.viewOf(j)
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) jobByID(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "serve: no such job")
		return
	}
	writeJSON(w, http.StatusOK, s.viewOf(j))
}

// handleJobEvents streams the job's solver events as NDJSON (the obs JSONL
// record form), following the job until it reaches a terminal state or the
// client goes away.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "serve: no such job")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	idx := 0
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	for {
		recs, total := j.events.snapshot(idx)
		for _, rec := range recs {
			if err := enc.Encode(rec); err != nil {
				return
			}
		}
		idx = total
		if len(recs) > 0 && flusher != nil {
			flusher.Flush()
		}
		select {
		case <-j.done:
			// Drain anything emitted between the snapshot and the close.
			recs, _ := j.events.snapshot(idx)
			for _, rec := range recs {
				enc.Encode(rec)
			}
			// Overflow trailer: without it a stream truncated by the event
			// buffer cap would be indistinguishable from a complete one.
			if n := j.events.droppedCount(); n > 0 {
				enc.Encode(struct {
					Kind    string `json:"kind"`
					Dropped int    `json:"dropped"`
				}{"events_dropped", n})
			}
			return
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			return
		case <-ticker.C:
		}
	}
}

func (s *Server) handleGetResult(w http.ResponseWriter, r *http.Request) {
	key, err := strconv.ParseUint(r.PathValue("key"), 16, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "serve: bad result key (want 16 hex digits)")
		return
	}
	sr := s.result(key)
	if sr == nil {
		writeError(w, http.StatusNotFound, "serve: no result for key")
		return
	}
	writeJSON(w, http.StatusOK, sr)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.stats())
}

// handleReadyz answers readiness: 503 with a Retry-After hint while the
// daemon is not accepting jobs (drain in progress, or the persisted backlog
// not yet re-admitted), plain "ok" otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		msg := "not ready\n"
		if draining {
			msg = "draining\n"
		}
		http.Error(w, strings.TrimSuffix(msg, "\n"), http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}
