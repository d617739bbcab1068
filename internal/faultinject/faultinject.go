// Package faultinject provides a seeded, deterministic fault plan for the
// solver stack's resilience tests: the nth LP solve fails, a node step
// panics at step k, a checkpoint write returns an I/O error, or the search
// deadline expires before step k. Faults are injected behind interfaces the
// solvers already use, so production code paths are exercised unchanged; a
// nil *Plan injects nothing and costs one nil check.
//
// A plan is parsed from a compact spec such as
//
//	lp-solve:7,worker-panic:3,ckpt-write:1,deadline:4
//
// where the number is the 1-based occurrence (lp-solve, ckpt-write, the
// http-* ops) or the node-step index (worker-panic, deadline) at which the fault
// fires. A trigger of the form "op:~max" draws the firing point uniformly
// from [1, max] using the plan's seed — deterministic for a fixed
// (spec, seed) pair, which is what lets a CI matrix sweep kill points
// without hand-enumerating them. A trigger of the form "op:%k" fires on
// EVERY kth occurrence instead of exactly once — the sustained-pressure
// form the chaos soak uses to keep faults flowing through a long sweep.
//
// The http-* ops drive the Proxy in http.go: a fault-injecting HTTP reverse
// proxy that sits between a client under test (cmd/gapsweep) and the
// gapserved daemon.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Fault operations understood by the solvers.
const (
	// OpLPSolve fails the nth node-relaxation LP (counted in the branch and
	// bound's apply order).
	OpLPSolve = "lp-solve"
	// OpWorkerPanic panics inside the branch and bound's node step at the
	// given step index, exercising its panic recovery.
	OpWorkerPanic = "worker-panic"
	// OpCheckpointWrite fails the nth checkpoint write with an I/O error.
	OpCheckpointWrite = "ckpt-write"
	// OpDeadline forces deadline expiry at the start of the given node step.
	OpDeadline = "deadline"
	// OpHTTPDrop closes the client connection of the triggered proxied
	// request without answering — the client sees an abrupt EOF mid-request.
	OpHTTPDrop = "http-drop"
	// OpHTTPLatency delays the triggered proxied request by the proxy's
	// configured latency before forwarding it.
	OpHTTPLatency = "http-latency"
	// OpHTTP503 answers the triggered proxied request with 503 directly from
	// the proxy, deliberately WITHOUT a Retry-After header — it exercises the
	// client's fallback backoff, whereas the daemon's own 429/503 rejections
	// carry the header and exercise the Retry-After path.
	OpHTTP503 = "http-503"
	// OpHTTPReset resets (RST, not FIN) the client connection of the
	// triggered proxied request, the TCP-level failure a crashed or
	// firewalled daemon produces.
	OpHTTPReset = "http-reset"
)

var knownOps = map[string]bool{
	OpLPSolve:         true,
	OpWorkerPanic:     true,
	OpCheckpointWrite: true,
	OpDeadline:        true,
	OpHTTPDrop:        true,
	OpHTTPLatency:     true,
	OpHTTP503:         true,
	OpHTTPReset:       true,
}

// ErrInjected is the sentinel every injected fault unwraps to, so callers
// and tests can errors.Is their way past wrapping layers.
var ErrInjected = errors.New("faultinject: injected fault")

// ErrBadPlan is the sentinel every Parse failure unwraps to. The concrete
// failure is one of the typed errors below, so a caller can distinguish a
// typo'd op name from malformed trigger syntax with errors.As.
var ErrBadPlan = errors.New("faultinject: bad plan")

// UnknownOpError reports an op name Parse does not recognize.
type UnknownOpError struct {
	Op string
}

func (e *UnknownOpError) Error() string { return fmt.Sprintf("faultinject: unknown op %q", e.Op) }
func (e *UnknownOpError) Unwrap() error { return ErrBadPlan }

// ParseError reports a malformed plan entry: missing or non-positive
// trigger, bad seeded/periodic bound, or a duplicated op.
type ParseError struct {
	Entry  string // the offending spec entry, as written
	Reason string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("faultinject: entry %q: %s", e.Entry, e.Reason)
}
func (e *ParseError) Unwrap() error { return ErrBadPlan }

// Error is one fired fault: the operation and the occurrence or step index
// it fired at.
type Error struct {
	Op string
	N  int
}

func (e *Error) Error() string { return fmt.Sprintf("faultinject: %s fault at %d", e.Op, e.N) }
func (e *Error) Unwrap() error { return ErrInjected }

// Plan is a parsed fault plan. Methods are safe for concurrent use (the
// fault proxy consults it from concurrent requests). The zero of *Plan — nil — is a valid
// plan that never fires.
type Plan struct {
	mu       sync.Mutex
	trigger  map[string]int  // op -> occurrence / step index / period (1-based)
	periodic map[string]bool // op -> trigger is a %k period, firing repeatedly
	count    map[string]int  // op -> occurrences observed so far
}

// Parse builds a plan from spec (see the package comment for the grammar).
// Seeded "op:~max" triggers are resolved with seed. An empty spec yields a
// nil plan.
func Parse(spec string, seed int64) (*Plan, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	p := &Plan{trigger: make(map[string]int), periodic: make(map[string]bool), count: make(map[string]int)}
	entries := strings.Split(spec, ",")
	// Seeded draws are resolved in sorted op order, not spec order, so two
	// spellings of the same plan fire identically.
	type seededEntry struct {
		op  string
		max int
	}
	var seeded []seededEntry
	for _, ent := range entries {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		op, val, ok := strings.Cut(ent, ":")
		if !ok {
			return nil, &ParseError{Entry: ent, Reason: "want op:n, op:~max, or op:%k"}
		}
		op = strings.TrimSpace(op)
		if !knownOps[op] {
			return nil, &UnknownOpError{Op: op}
		}
		if _, dup := p.trigger[op]; dup {
			return nil, &ParseError{Entry: ent, Reason: fmt.Sprintf("duplicate op %q", op)}
		}
		val = strings.TrimSpace(val)
		if rest, rnd := strings.CutPrefix(val, "~"); rnd {
			max, err := strconv.Atoi(rest)
			if err != nil || max < 1 {
				return nil, &ParseError{Entry: ent, Reason: "bad seeded bound"}
			}
			p.trigger[op] = 0 // reserved; resolved below
			seeded = append(seeded, seededEntry{op: op, max: max})
			continue
		}
		if rest, per := strings.CutPrefix(val, "%"); per {
			k, err := strconv.Atoi(rest)
			if err != nil || k < 1 {
				return nil, &ParseError{Entry: ent, Reason: "bad period"}
			}
			p.trigger[op] = k
			p.periodic[op] = true
			continue
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 {
			return nil, &ParseError{Entry: ent, Reason: "trigger must be a positive integer"}
		}
		p.trigger[op] = n
	}
	if len(seeded) > 0 {
		sort.Slice(seeded, func(i, j int) bool { return seeded[i].op < seeded[j].op })
		rng := rand.New(rand.NewSource(seed))
		for _, se := range seeded {
			p.trigger[se.op] = 1 + rng.Intn(se.max)
		}
	}
	if len(p.trigger) == 0 {
		return nil, nil
	}
	return p, nil
}

// Hit counts one occurrence of op and reports whether the plan fires on it
// (occurrence-triggered ops: lp-solve, ckpt-write, the http-* ops). A fixed
// or seeded trigger fires exactly once; a periodic %k trigger fires on every
// kth occurrence.
func (p *Plan) Hit(op string) (int, bool) {
	if p == nil {
		return 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n, ok := p.trigger[op]
	if !ok {
		return 0, false
	}
	p.count[op]++
	if p.periodic[op] {
		return p.count[op], p.count[op]%n == 0
	}
	return p.count[op], p.count[op] == n
}

// At reports whether the plan fires op at index k (index-triggered ops:
// worker-panic, deadline). Unlike Hit it does not count, so it may be
// consulted any number of times per step.
func (p *Plan) At(op string, k int) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n, ok := p.trigger[op]
	return ok && n == k
}

// Trigger exposes the resolved firing point of op (0 when the plan has
// none) — for tests and log lines.
func (p *Plan) Trigger(op string) int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.trigger[op]
}
