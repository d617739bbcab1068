package sweep

import (
	"encoding/json"

	"repro/internal/checkpoint"
	"repro/internal/serve"
)

// ledgerMagic tags the sweep ledger's record file (checkpoint.Table): a
// GAPSWEEP1 header line with the payload's FNV-64a checksum, then the cells
// as indented JSON sorted by key. Writes go through checkpoint.FS (temp +
// fsync + rename), so a crash mid-write leaves either the old complete
// ledger or the new one, never a prefix.
const ledgerMagic = "GAPSWEEP1"

// Cell statuses recorded in the ledger. done and truncated are terminal and
// skipped on resume; retrying and exhausted are re-attempted by the next
// run (a fresh invocation gets a fresh retry budget); failed is terminal
// because its cause is deterministic.
const (
	StatusRetrying  = "retrying"
	StatusDone      = "done"
	StatusTruncated = "truncated"
	StatusExhausted = "exhausted"
	StatusFailed    = "failed"
)

// CellRecord is one grid cell's durable state.
type CellRecord struct {
	Key      string              `json:"key"`  // cellKey — the ledger's primary key
	Name     string              `json:"name"` // human-readable axis tuple
	Index    int                 `json:"index"`
	Spec     json.RawMessage     `json:"spec"`
	Status   string              `json:"status"`
	Attempts int                 `json:"attempts,omitempty"`
	Endpoint string              `json:"endpoint,omitempty"` // endpoint that answered
	Error    string              `json:"error,omitempty"`
	Result   *serve.StoredResult `json:"result,omitempty"`
}

// RecordKey files the cell in the ledger under its cell key.
func (r *CellRecord) RecordKey() string {
	if r == nil {
		return ""
	}
	return r.Key
}

// Ledger is the durable sweep state: the cells held in memory and mirrored
// to one checksummed file on every Put, which rolls back when the write
// fails.
type Ledger = checkpoint.Table[*CellRecord]

// OpenLedger loads the ledger at path, or starts empty if the file does not
// exist. A corrupt ledger is an error, not an empty ledger: silently
// restarting would resubmit the whole grid, exactly the failure mode the
// ledger exists to prevent. fs may be nil (the real filesystem).
func OpenLedger(path string, fs checkpoint.FS) (*Ledger, error) {
	return checkpoint.OpenTable[*CellRecord](path, ledgerMagic, fs)
}
