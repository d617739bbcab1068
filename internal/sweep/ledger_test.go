package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/serve"
)

func encodeLedger(recs []*CellRecord) ([]byte, error) {
	return checkpoint.EncodeRecords(ledgerMagic, recs)
}

func decodeLedger(data []byte) ([]*CellRecord, error) {
	return checkpoint.DecodeRecords[*CellRecord](ledgerMagic, data)
}

func sampleRecords() []*CellRecord {
	return []*CellRecord{
		{
			Key: "00000000000000aa", Name: "thr=5/parts=2/seed=1", Index: 0,
			Spec: json.RawMessage(`{"topology":"figure1","heuristic":"dp"}`), Status: StatusDone, Attempts: 1,
			Endpoint: "http://127.0.0.1:1", Result: &serve.StoredResult{Key: "deadbeef", Status: "optimal", Gap: "10"},
		},
		{
			Key: "00000000000000bb", Name: "thr=8/parts=2/seed=1", Index: 1,
			Spec: json.RawMessage(`{"topology":"figure1","heuristic":"dp","threshold":8}`), Status: StatusExhausted,
			Attempts: 8, Error: "sweep: cell thr=8 exhausted",
		},
	}
}

func TestLedgerEncodeDecodeRoundTrip(t *testing.T) {
	recs := sampleRecords()
	data, err := encodeLedger(recs)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := decodeLedger(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	a, _ := json.Marshal(recs)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Fatalf("round trip changed records:\n%s\nvs\n%s", a, b)
	}
	// Canonical: re-encoding the decoded records reproduces the bytes.
	again, err := encodeLedger(got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if string(again) != string(data) {
		t.Fatal("encode is not canonical over its own round trip")
	}
}

func TestLedgerDecodeRejectsCorruption(t *testing.T) {
	good, err := encodeLedger(sampleRecords())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	h := fnv.New64a()
	h.Write([]byte("not json"))
	cases := map[string][]byte{
		"empty":            {},
		"no header":        []byte("[]"),
		"bad magic":        append([]byte("GAPNOPE1 0000000000000000\n"), good[27:]...),
		"short checksum":   []byte("GAPSWEEP1 00aa\n[]"),
		"truncated":        good[:len(good)-7],
		"bit flip":         append(append([]byte{}, good[:len(good)-3]...), good[len(good)-3]^1, good[len(good)-2], good[len(good)-1]),
		"payload not json": []byte(fmt.Sprintf("GAPSWEEP1 %016x\nnot json", h.Sum64())),
	}
	for name, data := range cases {
		if _, err := decodeLedger(data); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	// A record with no key is structurally corrupt even if the checksum holds.
	noKey, _ := encodeLedger([]*CellRecord{{Name: "x", Status: StatusDone}})
	if _, err := decodeLedger(noKey); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Errorf("keyless record: err = %v, want ErrCorrupt", err)
	}
}

func TestLedgerOpenPutReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ledger")
	l, err := OpenLedger(path, nil)
	if err != nil {
		t.Fatalf("open fresh: %v", err)
	}
	if l.Len() != 0 {
		t.Fatalf("fresh ledger has %d cells", l.Len())
	}
	for _, rec := range sampleRecords() {
		if err := l.Put(rec); err != nil {
			t.Fatalf("put %s: %v", rec.Key, err)
		}
	}
	// Status upgrade overwrites in place.
	if err := l.Put(&CellRecord{Key: "00000000000000bb", Name: "thr=8/parts=2/seed=1", Status: StatusDone, Attempts: 9}); err != nil {
		t.Fatalf("upsert: %v", err)
	}
	l2, err := OpenLedger(path, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if l2.Len() != 2 {
		t.Fatalf("reloaded %d cells, want 2", l2.Len())
	}
	if got := l2.Get("00000000000000bb"); got == nil || got.Status != StatusDone || got.Attempts != 9 {
		t.Fatalf("upsert did not survive reload: %+v", got)
	}
	if l2.Get("00000000000000aa").Result.Gap != "10" {
		t.Fatal("result payload lost across reload")
	}
}

func TestLedgerOpenRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ledger")
	if err := os.WriteFile(path, []byte("GAPSWEEP1 0123456789abcdef\n[]"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLedger(path, nil); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("open corrupt ledger: err = %v, want ErrCorrupt", err)
	}
}

// TestLedgerPutRollsBackOnWriteFailure injects a write fault through the
// same checkpoint.FS seam the daemon's stores use: a failed flush must not
// leave the in-memory map claiming durability the file does not have.
func TestLedgerPutRollsBackOnWriteFailure(t *testing.T) {
	plan, err := faultinject.Parse("ckpt-write:2", 0)
	if err != nil {
		t.Fatalf("parse plan: %v", err)
	}
	path := filepath.Join(t.TempDir(), "sweep.ledger")
	l, err := OpenLedger(path, faultinject.WrapFS(nil, plan))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	recs := sampleRecords()
	if err := l.Put(recs[0]); err != nil {
		t.Fatalf("first put: %v", err)
	}
	if err := l.Put(recs[1]); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("second put survived the injected fault: %v", err)
	}
	if l.Get(recs[1].Key) != nil {
		t.Fatal("failed put left its record in memory")
	}
	l2, err := OpenLedger(path, nil)
	if err != nil {
		t.Fatalf("reopen after fault: %v", err)
	}
	if l2.Len() != 1 || l2.Get(recs[0].Key) == nil {
		t.Fatalf("on-disk ledger inconsistent after fault: %d cells", l2.Len())
	}
}

// TestLedgerOpensParentFile: a GAPSWEEP1 ledger written by gapsweep before
// the ledger moved onto checkpoint.Table (a figure1 grid plus one
// budget-truncated B4 cell) opens, and re-encodes to the same bytes.
func TestLedgerOpensParentFile(t *testing.T) {
	path := filepath.Join("testdata", "gapsweep1.ledger")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	l, err := OpenLedger(path, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if l.Len() != 7 {
		t.Fatalf("opened %d cells, want 7", l.Len())
	}
	got, err := encodeLedger(l.Records())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-encoded ledger differs from the file: %d vs %d bytes", len(got), len(want))
	}
}
