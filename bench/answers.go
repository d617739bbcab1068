package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
)

// answer is the deterministic outcome of one op: what the answers file
// pins and what repeated runs of the same op must reproduce exactly.
type answer struct {
	Status   string `json:"status,omitempty"`
	Nodes    int    `json:"nodes,omitempty"`
	Evals    int    `json:"evals,omitempty"`
	GapMilli int64  `json:"gap_milli"`
}

// gapMilli turns a verified gap into an exact integer.
func gapMilli(gap float64) int64 { return int64(math.Round(gap * 1000)) }

// answersSeed1 pins the answers of the default seed, per workload and op.
//
//go:embed testdata/answers_seed1.json
var answersSeed1 []byte

// answerBook checks every op's answer against the pinned answers and
// against any earlier op with the same id in this process: the warm-up,
// the untraced and traced runs, and a cache hit and the miss that stored
// it all repeat ids.
type answerBook struct {
	pinned map[string]answer
	seen   map[string]answer
}

func newAnswerBook(workload string, pin bool) (*answerBook, error) {
	b := &answerBook{seen: map[string]answer{}}
	if !pin {
		return b, nil
	}
	var all map[string]map[string]answer
	if err := json.Unmarshal(answersSeed1, &all); err != nil {
		return nil, fmt.Errorf("answers file: %w", err)
	}
	b.pinned = all[workload]
	return b, nil
}

// check records a's answer to op id and reports any disagreement.
func (b *answerBook) check(id string, a answer) error {
	if want, ok := b.pinned[id]; ok && want != a {
		return fmt.Errorf("answer %+v, pinned %+v", a, want)
	}
	if prev, ok := b.seen[id]; ok && prev != a {
		return fmt.Errorf("answer %+v, earlier in this run %+v", a, prev)
	}
	b.seen[id] = a
	return nil
}
