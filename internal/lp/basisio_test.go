package lp

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"
)

// basisFixture solves a small LP with basis capture on and returns the
// terminal basis.
func basisFixture(t *testing.T) *Basis {
	t.Helper()
	p := NewProblem("basis-io", Maximize)
	x := p.AddVar("x", 0, 4)
	y := p.AddVar("y", 0, 4)
	p.SetObj(x, 3)
	p.SetObj(y, 2)
	p.AddConstraint("c", NewExpr().Add(x, 1).Add(y, 1), LE, 6)
	sol, err := p.SolveWith(SolveOptions{CaptureBasis: true})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("solve: %v %v", err, sol)
	}
	if sol.Basis == nil {
		t.Fatal("no basis captured")
	}
	return sol.Basis
}

func TestBasisMarshalRoundTrip(t *testing.T) {
	b := basisFixture(t)
	data, err := b.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	back, err := UnmarshalBasis(data)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.sig != b.sig || len(back.cols) != len(b.cols) {
		t.Fatalf("basis lost: %+v vs %+v", back, b)
	}
	for i := range b.cols {
		if back.cols[i] != b.cols[i] {
			t.Fatalf("cols[%d] = %d, want %d", i, back.cols[i], b.cols[i])
		}
	}
	again, err := back.MarshalBinary()
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("round trip is not canonical")
	}
}

func TestUnmarshalBasisRejectsCorruption(t *testing.T) {
	b := basisFixture(t)
	data, err := b.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for n := 0; n < len(data); n++ {
		if _, err := UnmarshalBasis(data[:n]); err == nil {
			t.Fatalf("truncated basis (%d bytes) unmarshalled", n)
		}
	}
	if _, err := UnmarshalBasis(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// encodeOldBasis hand-builds b in one of the retired wire layouts: version 2
// (magic, version, an engine byte, then the payload) or, for version 0, the
// original headerless layout (the payload alone).
func encodeOldBasis(b *Basis, version byte) []byte {
	var buf []byte
	if version != 0 {
		buf = append(buf, basisMagic[:]...)
		buf = append(buf, version, 1)
	}
	buf = binary.LittleEndian.AppendUint64(buf, b.sig)
	buf = binary.AppendUvarint(buf, uint64(len(b.cols)))
	prev := int32(0)
	for _, c := range b.cols {
		buf = binary.AppendUvarint(buf, uint64(c-prev))
		prev = c
	}
	return buf
}

// TestUnmarshalBasisLegacyFormat checks that blobs in the retired layouts —
// the headerless original and version 2 with its engine byte — are
// rejected with the typed version error, which checkpoint resume degrades to
// a cold solve, rather than misread as column data.
func TestUnmarshalBasisLegacyFormat(t *testing.T) {
	b := basisFixture(t)
	for _, version := range []byte{0, 2} {
		_, err := UnmarshalBasis(encodeOldBasis(b, version))
		var verr *BasisVersionError
		if !errors.As(err, &verr) {
			t.Fatalf("version %d blob decoded with err=%v, want *BasisVersionError", version, err)
		}
		if verr.Version != version {
			t.Fatalf("version in error = %d, want %d", verr.Version, version)
		}
	}
}

// TestUnmarshalBasisRejectsBadEngineTag: a version-2 blob carries an engine
// byte ahead of its payload. Whatever that byte holds — a tag the old
// codec wrote or a corrupt one — the blob must fail with the typed version
// error rather than have the byte misread as the signature's first byte.
func TestUnmarshalBasisRejectsBadEngineTag(t *testing.T) {
	data := encodeOldBasis(basisFixture(t), 2)
	for _, tag := range []byte{0, 1, 2, 0xEE} {
		data[5] = tag
		_, err := UnmarshalBasis(data)
		var verr *BasisVersionError
		if !errors.As(err, &verr) || verr.Version != 2 {
			t.Fatalf("version-2 blob with engine tag %#x decoded with err=%v, want *BasisVersionError for version 2", tag, err)
		}
	}
}

// TestUnmarshalBasisVersionError checks that a blob from a future codec
// version fails loudly with the typed error rather than being misparsed.
func TestUnmarshalBasisVersionError(t *testing.T) {
	data, err := basisFixture(t).MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	data[4] = basisVersion + 1
	_, err = UnmarshalBasis(data)
	var verr *BasisVersionError
	if !errors.As(err, &verr) {
		t.Fatalf("future version decoded with err=%v, want *BasisVersionError", err)
	}
	if verr.Version != basisVersion+1 {
		t.Fatalf("version in error = %d, want %d", verr.Version, basisVersion+1)
	}
	if verr.Error() == "" {
		t.Fatal("empty error message")
	}
}

// TestBasisWireRoundTripWarmStarts pushes a captured basis through the wire
// codec and reinstalls it as a warm start: the decoded snapshot must take
// (Warm=true, no fallback) and reproduce the optimal objective.
func TestBasisWireRoundTripWarmStarts(t *testing.T) {
	p := NewProblem("wire-warm", Maximize)
	x := p.AddVar("x", 0, 9)
	y := p.AddVar("y", 0, 9)
	z := p.AddVar("z", 0, 9)
	p.SetObj(x, 3)
	p.SetObj(y, 5)
	p.SetObj(z, 4)
	p.AddConstraint("c1", NewExpr().Add(x, 2).Add(y, 3), LE, 12)
	p.AddConstraint("c2", NewExpr().Add(y, 2).Add(z, 5), LE, 10)
	p.AddConstraint("c3", NewExpr().Add(x, 3).Add(y, 2).Add(z, 4), LE, 15)
	capt, err := p.SolveWith(SolveOptions{CaptureBasis: true})
	if err != nil || capt.Status != StatusOptimal || capt.Basis == nil {
		t.Fatalf("capture: %v %v", err, capt)
	}
	blob, err := capt.Basis.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	wire, err := UnmarshalBasis(blob)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	warm, err := p.SolveWith(SolveOptions{WarmStart: wire})
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	if warm.Status != StatusOptimal || !warm.Warm || warm.WarmFallback {
		t.Fatalf("warm solve: status=%v warm=%v fallback=%v", warm.Status, warm.Warm, warm.WarmFallback)
	}
	if diff := warm.Objective - capt.Objective; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("warm objective %v, want %v", warm.Objective, capt.Objective)
	}
}

func TestSolveWithCancelledContext(t *testing.T) {
	p := NewProblem("ctx", Maximize)
	x := p.AddVar("x", 0, 10)
	p.SetObj(x, 1)
	p.AddConstraint("c", NewExpr().Add(x, 1), LE, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := p.SolveWith(SolveOptions{Ctx: ctx})
	if err != nil {
		t.Fatalf("cancelled solve errored: %v", err)
	}
	if sol.Status != StatusInterrupted {
		t.Fatalf("status = %v, want interrupted", sol.Status)
	}
	if sol.Status.String() != "interrupted" {
		t.Fatalf("status string = %q", sol.Status.String())
	}
	// A live context leaves the solve untouched.
	sol, err = p.SolveWith(SolveOptions{Ctx: context.Background()})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("background-ctx solve: %v %v", err, sol.Status)
	}
}
