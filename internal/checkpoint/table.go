package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
)

// Record file format, shared by every keyed-record table (the daemon's
// results store and job queue, the sweep ledger), each with its own magic:
// a sealed file (seal) whose payload is a JSON array of the records,
// indented and sorted by key. The payload stays readable JSON; records
// that carry floats store them as strings where ±Inf is legitimate state.

// Record is a value a Table files under its own key. A nil pointer record
// must report the empty key, which the decoder rejects.
type Record interface{ RecordKey() string }

func compareKey[R Record](a, b R) int { return strings.Compare(a.RecordKey(), b.RecordKey()) }

// EncodeRecords serializes recs in canonical form: sorted by key, one
// checksummed header line, then the indented JSON payload.
func EncodeRecords[R Record](magic string, recs []R) ([]byte, error) {
	sorted := slices.Clone(recs)
	slices.SortStableFunc(sorted, compareKey[R])
	return encodeSorted(magic, sorted, make([][]byte, len(sorted)))
}

// encodeSorted builds the file for recs, which are sorted by key. enc[i] is
// recs[i] as it sits in the payload; a nil entry is encoded here and kept,
// so a table re-encodes only the records a Put changed. The payload is the
// bytes json.MarshalIndent(recs, "", "  ") gives, assembled per record.
func encodeSorted[R Record](magic string, recs []R, enc [][]byte) ([]byte, error) {
	size := 0
	for i, r := range recs {
		if enc[i] == nil {
			b, err := json.MarshalIndent(r, "  ", "  ")
			if err != nil {
				return nil, fmt.Errorf("checkpoint: encode %s record %q: %w", magic, r.RecordKey(), err)
			}
			enc[i] = b
		}
		size += len(enc[i]) + len(",\n  ")
	}
	out := sealBuf(magic, size+len("[\n]"))
	if len(recs) == 0 {
		out = append(out, "[]"...)
	} else {
		out = append(out, '[')
		for i, b := range enc {
			if i > 0 {
				out = append(out, ',')
			}
			out = append(out, "\n  "...)
			out = append(out, b...)
		}
		out = append(out, "\n]"...)
	}
	return seal(magic, out), nil
}

// DecodeRecords parses and verifies a record file's bytes. It accepts only
// the canonical order: keys non-empty and strictly increasing.
func DecodeRecords[R Record](magic string, data []byte) ([]R, error) {
	payload, err := unseal(magic, data)
	if err != nil {
		return nil, err
	}
	var recs []R
	if err := json.Unmarshal(payload, &recs); err != nil {
		return nil, corrupt("%v", err)
	}
	if recs == nil {
		return nil, corrupt("payload is not an array")
	}
	for i, r := range recs {
		if r.RecordKey() == "" {
			return nil, corrupt("record %d has no key", i)
		}
		if i > 0 && compareKey(recs[i-1], r) >= 0 {
			return nil, corrupt("record %q out of key order", r.RecordKey())
		}
	}
	return recs, nil
}

// Table is a durable keyed-record file: the records held in memory sorted by
// key and the whole file rewritten atomically on every Put. A rewrite costs
// one temp write, fsync and rename, and at the sizes these tables reach the
// fsync dominates the bytes.
type Table[R Record] struct {
	mu    sync.Mutex
	path  string
	magic string
	fs    FS       // nil selects the OS
	recs  []R      // sorted by key
	enc   [][]byte // enc[i] encodes recs[i]; nil until the next Put needs it
}

// OpenTable loads the table at path, or starts empty if the file does not
// exist. A corrupt or foreign file is an error naming path, never an empty
// table: starting empty would silently drop the state the file exists to
// keep. fs may be nil (the real filesystem).
func OpenTable[R Record](path, magic string, fs FS) (*Table[R], error) {
	t := &Table[R]{path: path, magic: magic, fs: fs}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return t, nil
	}
	if err != nil {
		return nil, err
	}
	if t.recs, err = DecodeRecords[R](magic, data); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	t.enc = make([][]byte, len(t.recs))
	return t, nil
}

func (t *Table[R]) find(key string) (int, bool) {
	return slices.BinarySearchFunc(t.recs, key, func(r R, k string) int { return strings.Compare(r.RecordKey(), k) })
}

// Get returns the record filed under key, or the zero R.
func (t *Table[R]) Get(key string) R {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.find(key); ok {
		return t.recs[i]
	}
	var zero R
	return zero
}

// Records returns every record, sorted by key.
func (t *Table[R]) Records() []R {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.recs)
}

// Len reports the number of records.
func (t *Table[R]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.recs)
}

// Put upserts recs and rewrites the file atomically. A failed write rolls
// the in-memory table back, so memory never claims durability the disk does
// not have.
func (t *Table[R]) Put(recs ...R) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	prevRecs, prevEnc := slices.Clone(t.recs), slices.Clone(t.enc)
	for _, r := range recs {
		key := r.RecordKey()
		if key == "" {
			t.recs, t.enc = prevRecs, prevEnc
			return fmt.Errorf("checkpoint: %s record has no key", t.magic)
		}
		if i, ok := t.find(key); ok {
			t.recs[i], t.enc[i] = r, nil
		} else {
			t.recs, t.enc = slices.Insert(t.recs, i, r), slices.Insert(t.enc, i, nil)
		}
	}
	data, err := encodeSorted(t.magic, t.recs, t.enc)
	if err == nil {
		err = writeAtomic(t.fs, t.path, data)
	}
	if err != nil {
		t.recs, t.enc = prevRecs, prevEnc
	}
	return err
}
