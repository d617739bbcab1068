package serve

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/core"
)

// StoredResult is one completed gap search in the results store, keyed by
// the cache key (fingerprint + solve options). Float fields are formatted
// strings rather than JSON numbers because ±Inf is legitimate solver state
// (an infeasible job's bound) and JSON has no encoding for it; Float64
// round-trips every value exactly at 'g'/-1 precision.
type StoredResult struct {
	Key         string          `json:"key"`         // %016x cache key
	Fingerprint string          `json:"fingerprint"` // %016x milp search fingerprint
	Status      string          `json:"status"`
	Gap         string          `json:"gap"`
	Normalized  string          `json:"normalized_gap"`
	OptValue    string          `json:"opt_value"`
	HeurValue   string          `json:"heur_value"`
	Bound       string          `json:"bound"`
	Nodes       int64           `json:"nodes"`
	LPSolves    int64           `json:"lp_solves"`
	LPIters     int64           `json:"lp_iters"`
	WarmSolves  int64           `json:"warm_solves"`
	WarmFallbks int64           `json:"warm_fallbacks"`
	WallSec     string          `json:"wall_sec"`
	Demands     []string        `json:"demands,omitempty"`
	Spec        json.RawMessage `json:"spec"`
}

func ff(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// newStoredResult projects a verified core result onto its wire form.
// WallSec is the solver's own elapsed time (deterministic inputs produce
// nondeterministic wall times; everything else in the record is a pure
// function of the cache key).
func newStoredResult(key, fp uint64, spec json.RawMessage, res *core.Result) *StoredResult {
	sr := &StoredResult{
		Key:         hexKey(key),
		Fingerprint: hexKey(fp),
		Status:      res.Solver.Status.String(),
		Gap:         ff(res.Gap),
		Normalized:  ff(res.NormalizedGap),
		OptValue:    ff(res.OptValue),
		HeurValue:   ff(res.HeurValue),
		Bound:       ff(res.Solver.Bound),
		Nodes:       int64(res.Solver.Nodes),
		LPSolves:    int64(res.Solver.LPSolves),
		LPIters:     int64(res.Solver.LPIters),
		WarmSolves:  int64(res.Solver.WarmLPSolves),
		WarmFallbks: int64(res.Solver.WarmLPFallbacks),
		WallSec:     ff(res.Solver.Elapsed.Seconds()),
		Spec:        spec,
	}
	if res.Demands != nil {
		sr.Demands = make([]string, len(res.Demands))
		for i, d := range res.Demands {
			sr.Demands[i] = ff(d)
		}
	}
	return sr
}

// resultsMagic tags the results store's record file (<state>/results.json,
// a checkpoint.Table): the stored results, filed under their cache keys.
const resultsMagic = "GAPRESULTS1"

// RecordKey files the result in the results store under its cache key.
func (sr *StoredResult) RecordKey() string {
	if sr == nil {
		return ""
	}
	return sr.Key
}

// hexKey is a cache key as the results store and the queue ledger file it.
func hexKey(key uint64) string { return fmt.Sprintf("%016x", key) }
