// Package checkpoint persists in-flight search state so a killed solver can
// resume and finish with the bit-identical answer it would have produced
// uninterrupted. It knows nothing about LPs or branching: it stores the two
// state shapes the solvers export — a branch-and-bound snapshot and a
// black-box restart ledger — in a compact binary payload. Beside them it
// holds the one keyed-record format (Table) that the daemon's results store
// and job queue and the sweep ledger share.
//
// Every state file is sealed alike (seal, unseal): a header line of its
// format's magic and the FNV-64a checksum of the payload behind it, so a
// torn, bit-flipped or foreign file fails loudly (ErrCorrupt) instead of
// silently resuming from a wrong state. Files are written atomically via
// temp-file + rename (writeAtomic), so a crash mid-write can never tear
// the previous good file. The filesystem is injected through the FS
// interface, which is also the seam the deterministic fault injector
// (internal/faultinject) wraps to exercise write failures.
package checkpoint

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
)

// Snapshot is one persisted search state: exactly one of the fields is
// non-nil, matching the solver that wrote it.
type Snapshot struct {
	BnB      *BnBState
	Blackbox *BlackboxState
}

// Override is one branch-and-bound bound fixing, keyed by the LP variable
// index. Overrides are stored sorted by Var so encoding is deterministic.
type Override struct {
	Var    int32
	Lo, Hi float64
}

// FrontierNode is one open node of the branch-and-bound heap. Basis is the
// warm-start basis the node inherited, or nil when it carries none.
type FrontierNode struct {
	ID        uint64
	Bound     float64
	Depth     int32
	Overrides []Override
	Basis     *Basis
}

// Basis is a warm-start basis as lp.NewBasis takes it: the layout hash of
// the standard form it was captured on and its basic columns, non-negative
// and strictly ascending (Save's self-check refuses any other order).
type Basis struct {
	Shape uint64
	Cols  []int32
}

// TracePoint mirrors the solvers' incumbent-trace entries (milp.TracePoint
// and blackbox.TracePoint project onto it) so a resumed run re-emits a
// seamless trace.
type TracePoint struct {
	ElapsedNanos int64
	Objective    float64
	Bound        float64
	Nodes        int64
	Source       string
}

// BnBState is everything the branch and bound needs to continue exactly
// where it stopped: the incumbent, the open-node frontier with warm-start
// bases, and the effort counters. Nodes, the count of node steps taken, is
// also the step cursor. Incumbent and BestBound are in the solver's
// internal score space (dir * objective).
//
// Portability contract: the search is serial, so the state depends on the
// model and the options alone, never on the host that wrote it. It pins
// only what determines the explored tree — the model shape and the node
// order (via Fingerprint). It deliberately does NOT pin the warm-start
// flag, which changes how node relaxations are computed, never their
// answers: a snapshot written warm resumes cold and still replays to the
// bit-identical incumbent, bound, and node count of the uninterrupted run.
type BnBState struct {
	// Fingerprint hashes the model shape and the node order; Resume refuses
	// a state whose fingerprint does not match the model it is handed.
	Fingerprint      uint64
	NextID           uint64
	Nodes            int64
	LPSolves         int64
	LPIters          int64
	WarmLPSolves     int64
	WarmLPFallbacks  int64
	Dives            int64
	HasIncumbent     bool
	Incumbent        float64
	IncumbentX       []float64
	BestBound        float64
	InfeasibleProven bool
	ElapsedNanos     int64
	Frontier         []FrontierNode
	Trace            []TracePoint
}

// RestartState is one completed black-box restart: its index in the
// pre-drawn seed sequence, the best point it found, and its trace.
type RestartState struct {
	Index   int64
	Gap     float64
	Evals   int64
	HasBest bool
	Best    []float64
	Trace   []TracePoint
}

// BlackboxState is the restart ledger of a black-box search: the full
// pre-drawn per-restart seed sequence plus every completed restart. Resume
// re-runs only the missing indices and merges exactly as the uninterrupted
// engine would.
type BlackboxState struct {
	Fingerprint  uint64
	Method       string
	Seeds        []int64
	ElapsedNanos int64
	Completed    []RestartState
}

// MismatchError reports a checkpoint that structurally cannot resume the
// search it was handed to (different model, node order, or black-box
// method and seeds).
type MismatchError struct {
	What string
	Want uint64
	Got  uint64
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("checkpoint: %s mismatch: snapshot %#x, search %#x", e.What, e.Want, e.Got)
}

// FS abstracts the filesystem operations the atomic writes need. The
// default implementation is the OS; internal/faultinject wraps it to inject
// deterministic write failures.
type FS interface {
	// WriteTemp creates a uniquely named file in dir, writes data, syncs and
	// closes it, returning the file's path.
	WriteTemp(dir, pattern string, data []byte) (string, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a stray temp file after a failed rename (best effort).
	Remove(path string) error
}

type osFS struct{}

func (osFS) WriteTemp(dir, pattern string, data []byte) (string, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return "", err
	}
	name := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		return name, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return name, err
	}
	return name, f.Close()
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error             { return os.Remove(path) }

// OSFS returns the real-filesystem implementation of FS.
func OSFS() FS { return osFS{} }

// Writer saves snapshots to a fixed path, atomically: encode, self-check the
// round trip, write a temp file next to the target, then rename over it. A
// crash or injected failure at any point leaves either the previous good
// snapshot or the new one — never a torn file.
type Writer struct {
	Path string
	FS   FS // nil selects the OS
}

// Save atomically persists s to w.Path.
func (w *Writer) Save(s *Snapshot) error {
	data, err := Encode(s)
	if err != nil {
		return err
	}
	// Round-trip self-check: the snapshot must decode and re-encode to the
	// same bytes before it is allowed to replace the previous good file.
	back, err := Decode(data)
	if err != nil {
		return fmt.Errorf("checkpoint: self-check decode: %w", err)
	}
	data2, err := Encode(back)
	if err != nil {
		return fmt.Errorf("checkpoint: self-check re-encode: %w", err)
	}
	if !bytes.Equal(data, data2) {
		return fmt.Errorf("checkpoint: self-check round trip diverged (%d vs %d bytes)", len(data), len(data2))
	}
	return writeAtomic(w.FS, w.Path, data)
}

// writeAtomic replaces path with data: a temp file beside it, written and
// synced through fs (nil selects the OS), then renamed over it. A failure at
// any point leaves the previous file whole and removes the temp file.
func writeAtomic(fs FS, path string, data []byte) error {
	if fs == nil {
		fs = osFS{}
	}
	tmp, err := fs.WriteTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*", data)
	if err != nil {
		if tmp != "" {
			fs.Remove(tmp)
		}
		return fmt.Errorf("checkpoint: write %s: %w", path, err)
	}
	if err := fs.Rename(tmp, path); err != nil {
		fs.Remove(tmp)
		return fmt.Errorf("checkpoint: rename %s: %w", path, err)
	}
	return nil
}

// sumLen is the length of a header line after its magic: a space, the 16
// hex digits of the checksum and the newline.
const sumLen = 18

// sealBuf returns a buffer for a sealed file of the given magic with room
// for size payload bytes behind the header that seal fills in.
func sealBuf(magic string, size int) []byte {
	return make([]byte, len(magic)+sumLen, len(magic)+sumLen+size)
}

// seal fills in the header line of file, a buffer from sealBuf with the
// payload appended: magic and the payload's FNV-64a checksum in hex.
func seal(magic string, file []byte) []byte {
	copy(file, fmt.Sprintf("%s %016x\n", magic, checksum(file[len(magic)+sumLen:])))
	return file
}

// unseal checks a sealed file's header line against magic and the
// checksum of the payload behind it, and returns the payload.
func unseal(magic string, data []byte) ([]byte, error) {
	n := len(magic) + sumLen
	if len(data) < n || string(data[:len(magic)+1]) != magic+" " || data[n-1] != '\n' {
		return nil, corrupt("bad header, want %s", magic)
	}
	if sum, want := string(data[len(magic)+1:n-1]), fmt.Sprintf("%016x", checksum(data[n:])); sum != want {
		return nil, corrupt("checksum %s, want %s", sum, want)
	}
	return data[n:], nil
}

func checksum(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}

// Load reads and decodes a snapshot written by Writer.Save. A file that
// does not decode is an error naming path.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
