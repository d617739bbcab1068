// Package benchstore is the durable benchmark ledger: a versioned,
// deterministic JSON codec for BENCH_<date>.json files recording per-fixture
// effort counters, wall-clock metrics, and full obs histogram snapshots, plus
// the comparison engine that turns two ledgers into per-metric verdicts.
//
// The design splits every fixture's metrics into two classes with different
// gating rules:
//
//   - Hard metrics are deterministic effort counters — nodes, LP solves,
//     simplex pivots, warm fallbacks, histogram observation counts. Under the
//     solver's determinism contract they are a pure function of the fixture
//     and seed, so any increase versus the baseline is a real regression and
//     is gated exactly (tolerance zero).
//
//   - Soft metrics are wall-clock and allocation figures — ns/op, phase
//     second sums, bytes/op. They vary with the machine and scheduler, so
//     they gate through a relative tolerance and exist mainly to explain
//     where time went, not to fail CI on their own.
//
// Fixtures are keyed by the solver's search fingerprint (milp.Result's
// Fingerprint, the same value the checkpoint layer pins snapshots to): two
// ledgers may only have their hard counters diffed when the fingerprints
// match, because a fingerprint change means the explored tree itself changed
// shape and the counters are not comparable.
//
// Encoding is canonical: fixtures and metrics are sorted by name, floats
// use Go's shortest round-trip formatting, and non-finite values marshal as
// the JSON strings "+Inf"/"-Inf"/"NaN" (JSON has no encoding for
// infinities; the checkpoint codec solves this with raw IEEE bits, a text
// ledger solves it with sentinels). Encoding the same state twice yields
// byte-identical files, so a BENCH file diffs cleanly under git.
package benchstore

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
)

// SchemaVersion is the current BENCH file schema. Decode rejects files
// written under any other version rather than guessing at field semantics.
const SchemaVersion = 1

// Float is a float64 whose JSON form is ±Inf/NaN-safe: non-finite values
// marshal as the strings "+Inf", "-Inf", and "NaN" instead of failing.
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler, accepting both plain numbers
// and the non-finite sentinels written by MarshalJSON.
func (f *Float) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "NaN":
			*f = Float(math.NaN())
		case "+Inf", "Inf":
			*f = Float(math.Inf(1))
		case "-Inf":
			*f = Float(math.Inf(-1))
		default:
			return fmt.Errorf("benchstore: unknown float sentinel %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// File is one benchmark ledger: everything `gapbench` measured in one run.
type File struct {
	Schema int    `json:"schema"`
	Date   string `json:"date"` // YYYY-MM-DD, also embedded in the filename
	Seed   int64  `json:"seed"` // harness seed the fixtures ran under
	Note   string `json:"note,omitempty"`
	// Host is the machine the ledger was measured on. Ledgers written
	// before it was recorded have none, and re-encode without one.
	Host *Host `json:"host,omitempty"`
	// HistBounds are the obs histogram bucket upper bounds (seconds) the
	// Histogram bucket vectors below are defined over; the final implicit
	// bucket is +Inf.
	HistBounds []Float   `json:"hist_bounds,omitempty"`
	Fixtures   []Fixture `json:"fixtures"`
}

// Host describes the machine behind a ledger's wall-clock and allocation
// figures: two ledgers' soft metrics only compare like for like when their
// hosts match.
type Host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// CurrentHost describes the running process's host.
func CurrentHost() *Host {
	return &Host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// String renders h on one line; a nil host reads "unrecorded".
func (h *Host) String() string {
	if h == nil {
		return "unrecorded"
	}
	return fmt.Sprintf("num_cpu=%d gomaxprocs=%d go=%s", h.NumCPU, h.GOMAXPROCS, h.GoVersion)
}

// SameHost reports whether two ledgers were measured on like hosts. A
// ledger without a host matches nothing.
func SameHost(a, b *File) bool {
	return a.Host != nil && b.Host != nil && *a.Host == *b.Host
}

// Fixture is one benchmark scenario's measured outcome.
type Fixture struct {
	Name string `json:"name"`
	// Fingerprint is the solver's search fingerprint in 0x-prefixed hex
	// (empty for fixtures that never enter branch-and-bound). Hard counters
	// are only diffed between equal fingerprints.
	Fingerprint string `json:"fingerprint,omitempty"`
	Reps        int    `json:"reps"` // measurement repetitions backing the soft metrics
	// Hard are the deterministic effort counters, gated exactly.
	Hard []Counter `json:"hard,omitempty"`
	// Soft are wall-clock/allocation metrics, gated through a tolerance.
	Soft []Value `json:"soft,omitempty"`
	// Histograms are per-phase obs timing distributions captured during the
	// fixture's first rep. Counts are deterministic (hard); sums and bucket
	// placements depend on wall clock (soft / informational).
	Histograms []Histogram `json:"histograms,omitempty"`
}

// Counter is one named deterministic counter value.
type Counter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Value is one named soft (wall-clock-ish) metric value.
type Value struct {
	Name  string `json:"name"`
	Value Float  `json:"value"`
}

// Histogram is one obs histogram snapshot: cumulative bucket counts over
// File.HistBounds (last entry is the +Inf bucket), total observation count,
// and sum of observations in seconds.
type Histogram struct {
	Name    string   `json:"name"`
	Count   uint64   `json:"count"`
	Sum     Float    `json:"sum"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// FindFixture returns the named fixture, or nil.
func (f *File) FindFixture(name string) *Fixture {
	for i := range f.Fixtures {
		if f.Fixtures[i].Name == name {
			return &f.Fixtures[i]
		}
	}
	return nil
}

// Fingerprint formats a solver search fingerprint in the ledger's canonical
// 0x-prefixed, zero-padded hex form.
func Fingerprint(fp uint64) string {
	if fp == 0 {
		return ""
	}
	return fmt.Sprintf("0x%016x", fp)
}
