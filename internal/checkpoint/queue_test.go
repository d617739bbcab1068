package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
)

// queueRecord has the shape of the daemon's job-queue records, which live
// in internal/serve: one admitted job filed under its ID.
type queueRecord struct {
	ID       string          `json:"id"`
	Seq      uint64          `json:"seq"`
	State    string          `json:"state"`
	Key      string          `json:"key"`
	Spec     json.RawMessage `json:"spec"`
	Enqueued int64           `json:"enqueued_unix_nano"`
}

func (r *queueRecord) RecordKey() string {
	if r == nil {
		return ""
	}
	return r.ID
}

const queueMagic = "GAPQUEUE1"

func sampleQueue() []*queueRecord {
	return []*queueRecord{
		{ID: "j000001", Seq: 1, State: "done", Key: "00000000feedface", Spec: json.RawMessage(`{"topology":"b4","heuristic":"dp"}`), Enqueued: 1700000000000000001},
		{ID: "j000002", Seq: 2, State: "queued", Key: "0000000000001234", Spec: json.RawMessage(`{"topology":"swan","heuristic":"pop"}`), Enqueued: 1700000000000000002},
		{ID: "j999999", Seq: 999999, State: "failed", Key: "0000000000000000", Spec: json.RawMessage(`{}`), Enqueued: -1},
		// Past j999999 the IDs stop sorting in admission order: the file
		// is keyed by ID, and the daemon restores by Seq.
		{ID: "j1000000", Seq: 1000000, State: "queued", Key: "ffffffffffffffff", Spec: json.RawMessage(`{}`)},
	}
}

func TestRoundTripQueue(t *testing.T) {
	data, err := EncodeRecords(queueMagic, sampleQueue())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := DecodeRecords[*queueRecord](queueMagic, data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	data2, err := EncodeRecords(queueMagic, back)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("round trip diverged: %d vs %d bytes", len(data), len(data2))
	}
	want := map[string]*queueRecord{}
	for _, r := range sampleQueue() {
		want[r.ID] = r
	}
	if len(back) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(back), len(want))
	}
	if back[2].ID != "j1000000" || back[3].ID != "j999999" {
		t.Fatalf("records not in key order: %s, %s", back[2].ID, back[3].ID)
	}
	for _, r := range back {
		a, _ := json.Marshal(r)
		b, _ := json.Marshal(want[r.ID])
		if !bytes.Equal(a, b) {
			t.Fatalf("job %s: got %s, want %s", r.ID, a, b)
		}
	}
}

// A queue table must be writable and reloadable through the same atomic
// temp+rename path the solver snapshots use, and a later Put must win.
func TestQueueWriterRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.ckpt")
	q, err := OpenTable[*queueRecord](path, queueMagic, nil)
	if err != nil {
		t.Fatalf("open fresh: %v", err)
	}
	if err := q.Put(sampleQueue()...); err != nil {
		t.Fatalf("put: %v", err)
	}
	back, err := OpenTable[*queueRecord](path, queueMagic, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if back.Len() != 4 || back.Get("j000002").State != "queued" {
		t.Fatalf("queue lost through the table: %d records", back.Len())
	}
	// Overwrite one job's state: the atomic replace must win.
	mut := *sampleQueue()[1]
	mut.State = "done"
	if err := q.Put(&mut); err != nil {
		t.Fatalf("second put: %v", err)
	}
	back, err = OpenTable[*queueRecord](path, queueMagic, nil)
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	if back.Len() != 4 || back.Get("j000002").State != "done" {
		t.Fatalf("second put not visible: %+v", back.Get("j000002"))
	}
	// The second put re-encoded only its own record; the file must still
	// be the canonical encoding of the whole table.
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := EncodeRecords(queueMagic, back.Records()); !bytes.Equal(file, want) {
		t.Fatalf("file after an incremental put is not canonical:\n%s\nwant\n%s", file, want)
	}
	if back.Get("j000003") != nil {
		t.Fatal("Get of a missing key returned a record")
	}
	if err := q.Put(&queueRecord{State: "queued"}); err == nil || q.Len() != 4 {
		t.Fatalf("keyless put: err %v, %d records", err, q.Len())
	}
	if leftovers, _ := filepath.Glob(filepath.Join(filepath.Dir(path), ".queue.ckpt-*")); len(leftovers) != 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
}

// The two formats of this package never pass for each other, and a record
// file decodes only under its own magic and in canonical key order.
func TestEncodeRejectsMixedQueueShapes(t *testing.T) {
	queue, err := EncodeRecords(queueMagic, sampleQueue())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if _, err := Decode(queue); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("queue file decoded as a snapshot: %v", err)
	}
	snap, err := Encode(sampleBnB())
	if err != nil {
		t.Fatalf("encode snapshot: %v", err)
	}
	if _, err := DecodeRecords[*queueRecord](queueMagic, snap); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("snapshot decoded as a queue file: %v", err)
	}
	if _, err := DecodeRecords[*queueRecord]("GAPSWEEP1", queue); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("queue file decoded under another table's magic: %v", err)
	}
	withSum := func(payload string) []byte {
		h := fnv.New64a()
		h.Write([]byte(payload))
		return []byte(fmt.Sprintf("%s %016x\n%s", queueMagic, h.Sum64(), payload))
	}
	for name, payload := range map[string]string{
		"unsorted":  `[{"id":"j000002"},{"id":"j000001"}]`,
		"duplicate": `[{"id":"j000001"},{"id":"j000001"}]`,
		"null":      `[null]`,
	} {
		if _, err := DecodeRecords[*queueRecord](queueMagic, withSum(payload)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s payload: err = %v, want ErrCorrupt", name, err)
		}
	}
	path := filepath.Join(t.TempDir(), "queue.ckpt")
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTable[*queueRecord](path, queueMagic, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("table opened over a snapshot: %v", err)
	}
}
