package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func sampleBnB() *Snapshot {
	return &Snapshot{BnB: &BnBState{
		Fingerprint:      0xdeadbeefcafe,
		NextID:           41,
		Nodes:            120,
		LPSolves:         130,
		LPIters:          4096,
		WarmLPSolves:     100,
		WarmLPFallbacks:  3,
		Dives:            17,
		HasIncumbent:     true,
		Incumbent:        42.5,
		IncumbentX:       []float64{0, 1, 0.25, math.SmallestNonzeroFloat64},
		BestBound:        math.Inf(1), // legitimate solver state: root bound
		InfeasibleProven: false,
		ElapsedNanos:     987654321,
		Frontier: []FrontierNode{
			{ID: 3, Bound: 50.25, Depth: 2,
				Overrides: []Override{{Var: 1, Lo: 0, Hi: 0}, {Var: 4, Lo: 1, Hi: 1}},
				Basis:     &Basis{Shape: 0x9e3779b97f4a7c15, Cols: []int32{0, 2, 3, 130, math.MaxInt32}}},
			{ID: 9, Bound: math.Inf(1), Depth: 1}, // unbounded parent, no basis
		},
		Trace: []TracePoint{
			{ElapsedNanos: 5, Objective: 1, Bound: math.Inf(1), Nodes: 1, Source: "seed"},
			{ElapsedNanos: 50, Objective: 42.5, Bound: 44, Nodes: 7, Source: "leaf"},
		},
	}}
}

func sampleBlackbox() *Snapshot {
	return &Snapshot{Blackbox: &BlackboxState{
		Fingerprint:  7,
		Method:       "hill",
		Seeds:        []int64{11, -22, 33},
		ElapsedNanos: 1234,
		Completed: []RestartState{
			{Index: 0, Gap: 3.5, Evals: 200, HasBest: true, Best: []float64{1, 2},
				Trace: []TracePoint{{ElapsedNanos: 9, Objective: 3.5, Nodes: 12}}},
			{Index: 2, Gap: math.Inf(-1), Evals: 5}, // restart that never found a feasible point
		},
	}}
}

func TestRoundTripBnB(t *testing.T) {
	data, err := Encode(sampleBnB())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	data2, err := Encode(back)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("round trip diverged: %d vs %d bytes", len(data), len(data2))
	}
	st := back.BnB
	if st == nil || back.Blackbox != nil {
		t.Fatalf("wrong snapshot kind: %+v", back)
	}
	if st.Dives != 17 || st.NextID != 41 || !st.HasIncumbent || st.Incumbent != 42.5 {
		t.Fatalf("fields lost: %+v", st)
	}
	if !math.IsInf(st.BestBound, 1) {
		t.Fatalf("+Inf bound did not survive: %v", st.BestBound)
	}
	want := sampleBnB().BnB.Frontier[0].Basis
	if len(st.Frontier) != 2 || len(st.Frontier[0].Overrides) != 2 || st.Frontier[1].Basis != nil ||
		st.Frontier[0].Basis.Shape != want.Shape || !slices.Equal(st.Frontier[0].Basis.Cols, want.Cols) {
		t.Fatalf("frontier lost: %+v", st.Frontier)
	}
	if len(st.Trace) != 2 || st.Trace[1].Source != "leaf" {
		t.Fatalf("trace lost: %+v", st.Trace)
	}
}

func TestRoundTripBlackbox(t *testing.T) {
	data, err := Encode(sampleBlackbox())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	st := back.Blackbox
	if st == nil || back.BnB != nil {
		t.Fatalf("wrong snapshot kind: %+v", back)
	}
	if st.Method != "hill" || len(st.Seeds) != 3 || st.Seeds[1] != -22 {
		t.Fatalf("fields lost: %+v", st)
	}
	if len(st.Completed) != 2 || !math.IsInf(st.Completed[1].Gap, -1) {
		t.Fatalf("-Inf gap did not survive: %+v", st.Completed)
	}
}

func TestEncodeRejectsBadShapes(t *testing.T) {
	if _, err := Encode(&Snapshot{}); err == nil {
		t.Fatal("empty snapshot encoded")
	}
	if _, err := Encode(&Snapshot{BnB: &BnBState{}, Blackbox: &BlackboxState{}}); err == nil {
		t.Fatal("double-kind snapshot encoded")
	}
	if _, err := Encode(nil); err == nil {
		t.Fatal("nil snapshot encoded")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data, err := Encode(sampleBnB())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// Truncation at every prefix length must error, never panic.
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("truncated snapshot (%d bytes) decoded", n)
		}
	}
	// A flipped byte anywhere must fail the checksum (or a structural check).
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := Decode(mut); err == nil {
			t.Fatalf("corrupt snapshot (byte %d flipped) decoded", i)
		}
	}
}

// TestDecodeRefusesBadBasisSteps: a frontier basis is written as the
// steps between its ascending columns, each at least 1. A zero step (a
// repeated column) or one that carries a column past the int32 range is
// refused as corrupt, even under a valid checksum.
func TestDecodeRefusesBadBasisSteps(t *testing.T) {
	for _, cols := range [][]int32{{0, 2, 2}, {5, 3}, {-2}} {
		snap := sampleBnB()
		snap.BnB.Frontier[0].Basis.Cols = cols
		data, err := Encode(snap)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if _, err := Decode(data); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "basis column") {
			t.Fatalf("columns %v decoded with err=%v, want a corrupt basis column", cols, err)
		}
		if err := (&Writer{Path: filepath.Join(t.TempDir(), "s.ckpt")}).Save(snap); err == nil {
			t.Fatalf("columns %v saved", cols)
		}
	}
	// The last column steps past math.MaxInt32.
	snap := sampleBnB()
	snap.BnB.Frontier[0].Basis.Cols = []int32{math.MaxInt32}
	data, err := Encode(snap)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	step := []byte{0x80, 0x80, 0x80, 0x80, 0x08} // uvarint 1<<31, the step from -1 to math.MaxInt32
	if bytes.Count(data, step) != 1 {
		t.Fatal("the encoding does not hold the 1<<31 step exactly once")
	}
	data = bytes.Replace(data, step, []byte{0x81, 0x80, 0x80, 0x80, 0x08}, 1)
	if _, err := Decode(seal(magic, data)); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "basis column") {
		t.Fatalf("an out-of-range column decoded with err=%v, want a corrupt basis column", err)
	}
}

// TestDecodeRefusesVersion1: a snapshot written in the retired version-1
// format (magic GAPCKP, a version byte, frontier bases as lp's LPBS blobs)
// is refused with an error that names the format, not read as corrupt
// and not resumed.
func TestDecodeRefusesVersion1(t *testing.T) {
	path := filepath.Join("testdata", "v1-bnb.ckpt")
	_, err := Load(path)
	if err == nil {
		t.Fatal("a version-1 snapshot decoded")
	}
	if errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "version-1 GAPCKP") || !strings.Contains(err.Error(), path) {
		t.Fatalf("version-1 snapshot refused with %v, want an error naming the format and the file", err)
	}
}

func TestWriterAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	w := &Writer{Path: path}
	if err := w.Save(sampleBnB()); err != nil {
		t.Fatalf("save: %v", err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	second := sampleBlackbox()
	if err := w.Save(second); err != nil {
		t.Fatalf("save 2: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Blackbox == nil {
		t.Fatalf("second save not visible")
	}
	if cur, _ := os.ReadFile(path); bytes.Equal(cur, first) {
		t.Fatal("file not replaced")
	}
	// No stray temp files may survive a successful save.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("stray files left behind: %v", entries)
	}
}

type failFS struct {
	inner FS
	mode  string // "write" or "rename"
}

func (f failFS) WriteTemp(dir, pattern string, data []byte) (string, error) {
	if f.mode == "write" {
		return "", errors.New("disk full")
	}
	return f.inner.WriteTemp(dir, pattern, data)
}
func (f failFS) Rename(o, n string) error {
	if f.mode == "rename" {
		return errors.New("rename denied")
	}
	return f.inner.Rename(o, n)
}
func (f failFS) Remove(p string) error { return f.inner.Remove(p) }

func TestWriterFailedSaveKeepsPreviousSnapshot(t *testing.T) {
	for _, mode := range []string{"write", "rename"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "state.ckpt")
			good := &Writer{Path: path}
			if err := good.Save(sampleBnB()); err != nil {
				t.Fatalf("seed save: %v", err)
			}
			bad := &Writer{Path: path, FS: failFS{inner: OSFS(), mode: mode}}
			if err := bad.Save(sampleBlackbox()); err == nil {
				t.Fatal("failed save reported success")
			}
			got, err := Load(path)
			if err != nil || got.BnB == nil {
				t.Fatalf("previous snapshot damaged: %v %+v", err, got)
			}
			entries, _ := os.ReadDir(dir)
			if len(entries) != 1 {
				t.Fatalf("stray files left behind after failed save: %v", entries)
			}
		})
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.ckpt")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

func TestMismatchErrorMessage(t *testing.T) {
	err := &MismatchError{What: "search fingerprint", Want: 1, Got: 2}
	if err.Error() == "" {
		t.Fatal("empty message")
	}
}
