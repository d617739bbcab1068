package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Snapshot file format: a sealed file (seal) of magic GAPCKP2 whose
// payload is a kind byte, then the state, little endian: floats as raw
// IEEE-754 bits, so ±Inf sentinels and any NaN round-trip exactly;
// integers as varints; slices and strings length-prefixed; a basis as its
// shape hash and the varint steps between its ascending columns (the first
// from -1), each at least 1. The payload is binary because a JSON record's
// self-checked save allocates about three times as much (DESIGN.md, "Crash
// safety and fault injection").
const (
	magic = "GAPCKP2"
	// magicV1 starts a version-1 snapshot: the magic, then version byte 1.
	magicV1 = "GAPCKP\x01"

	kindBnB      = 1
	kindBlackbox = 2

	// maxLen bounds every decoded length prefix, so a corrupted count cannot
	// drive a huge allocation.
	maxLen = 1 << 28
)

// ErrCorrupt is wrapped by every snapshot or record-file decode failure
// caused by malformed bytes (as opposed to an unsupported version).
var ErrCorrupt = errors.New("checkpoint: corrupt file")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

type encoder struct{ buf []byte }

func (e *encoder) u8(v byte)   { e.buf = append(e.buf, v) }
func (e *encoder) uv(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) iv(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}
func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) boolean(b bool) {
	if b {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *encoder) str(s string) {
	e.uv(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) f64s(v []float64) {
	e.uv(uint64(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = corrupt(format, args...)
	}
}

func (d *decoder) u8() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 1 {
		d.fail("truncated byte")
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) iv() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.fail("truncated u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) boolean() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad bool byte")
		return false
	}
}

// length reads a slice-length prefix, bounding it both by the sanity cap and
// by the bytes actually remaining (each element takes >= min bytes). It is
// 0 once decoding has failed.
func (d *decoder) length(min int) int {
	n := d.uv()
	if d.err != nil {
		return 0
	}
	if n > maxLen || (min > 0 && n > uint64(len(d.buf)/min)) {
		d.fail("implausible length %d", n)
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.length(1)
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) f64s() []float64 {
	n := d.length(8)
	if n == 0 {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = d.f64()
	}
	return v
}

func encodeTrace(e *encoder, tr []TracePoint) {
	e.uv(uint64(len(tr)))
	for _, p := range tr {
		e.iv(p.ElapsedNanos)
		e.f64(p.Objective)
		e.f64(p.Bound)
		e.iv(p.Nodes)
		e.str(p.Source)
	}
}

func decodeTrace(d *decoder) []TracePoint {
	n := d.length(4)
	if n == 0 {
		return nil
	}
	tr := make([]TracePoint, n)
	for i := range tr {
		tr[i] = TracePoint{
			ElapsedNanos: d.iv(),
			Objective:    d.f64(),
			Bound:        d.f64(),
			Nodes:        d.iv(),
			Source:       d.str(),
		}
	}
	return tr
}

// Encode serializes s. Exactly one of s.BnB / s.Blackbox must be set.
func Encode(s *Snapshot) ([]byte, error) {
	if s == nil {
		return nil, errors.New("checkpoint: nil snapshot")
	}
	e := &encoder{buf: sealBuf(magic, 1024)}
	switch {
	case s.BnB != nil && s.Blackbox == nil:
		e.u8(kindBnB)
		encodeBnB(e, s.BnB)
	case s.Blackbox != nil && s.BnB == nil:
		e.u8(kindBlackbox)
		encodeBlackbox(e, s.Blackbox)
	default:
		return nil, errors.New("checkpoint: snapshot must hold exactly one of BnB / Blackbox")
	}
	return seal(magic, e.buf), nil
}

func encodeBnB(e *encoder, st *BnBState) {
	e.u64(st.Fingerprint)
	e.uv(st.NextID)
	e.iv(st.Nodes)
	e.iv(st.LPSolves)
	e.iv(st.LPIters)
	e.iv(st.WarmLPSolves)
	e.iv(st.WarmLPFallbacks)
	e.iv(st.Dives)
	e.boolean(st.HasIncumbent)
	e.f64(st.Incumbent)
	e.f64s(st.IncumbentX)
	e.f64(st.BestBound)
	e.boolean(st.InfeasibleProven)
	e.iv(st.ElapsedNanos)
	e.uv(uint64(len(st.Frontier)))
	for _, nd := range st.Frontier {
		e.uv(nd.ID)
		e.f64(nd.Bound)
		e.iv(int64(nd.Depth))
		e.uv(uint64(len(nd.Overrides)))
		for _, ov := range nd.Overrides {
			e.iv(int64(ov.Var))
			e.f64(ov.Lo)
			e.f64(ov.Hi)
		}
		encodeBasis(e, nd.Basis)
	}
	encodeTrace(e, st.Trace)
}

func encodeBasis(e *encoder, b *Basis) {
	e.boolean(b != nil)
	if b == nil {
		return
	}
	e.u64(b.Shape)
	e.uv(uint64(len(b.Cols)))
	prev := int64(-1)
	for _, c := range b.Cols {
		e.uv(uint64(int64(c) - prev))
		prev = int64(c)
	}
}

func decodeBasis(d *decoder) *Basis {
	if !d.boolean() {
		return nil
	}
	b := &Basis{Shape: d.u64()}
	if n := d.length(1); n > 0 {
		b.Cols = make([]int32, n)
	}
	prev := int64(-1)
	for i := range b.Cols {
		step := d.uv() // 0 once decoding has failed
		if step == 0 || step > uint64(math.MaxInt32-prev) {
			d.fail("basis column %d steps %d from %d", i, step, prev)
			return b
		}
		prev += int64(step)
		b.Cols[i] = int32(prev)
	}
	return b
}

func decodeBnB(d *decoder) *BnBState {
	st := &BnBState{
		Fingerprint:     d.u64(),
		NextID:          d.uv(),
		Nodes:           d.iv(),
		LPSolves:        d.iv(),
		LPIters:         d.iv(),
		WarmLPSolves:    d.iv(),
		WarmLPFallbacks: d.iv(),
		Dives:           d.iv(),
		HasIncumbent:    d.boolean(),
		Incumbent:       d.f64(),
	}
	st.IncumbentX = d.f64s()
	st.BestBound = d.f64()
	st.InfeasibleProven = d.boolean()
	st.ElapsedNanos = d.iv()
	if n := d.length(4); n > 0 {
		st.Frontier = make([]FrontierNode, n)
		for i := range st.Frontier {
			nd := FrontierNode{ID: d.uv(), Bound: d.f64(), Depth: int32(d.iv())}
			if no := d.length(4); no > 0 {
				nd.Overrides = make([]Override, no)
				for j := range nd.Overrides {
					nd.Overrides[j] = Override{Var: int32(d.iv()), Lo: d.f64(), Hi: d.f64()}
				}
			}
			nd.Basis = decodeBasis(d)
			st.Frontier[i] = nd
			if d.err != nil {
				return st
			}
		}
	}
	st.Trace = decodeTrace(d)
	return st
}

func encodeBlackbox(e *encoder, st *BlackboxState) {
	e.u64(st.Fingerprint)
	e.str(st.Method)
	e.uv(uint64(len(st.Seeds)))
	for _, s := range st.Seeds {
		e.iv(s)
	}
	e.iv(st.ElapsedNanos)
	e.uv(uint64(len(st.Completed)))
	for _, r := range st.Completed {
		e.iv(r.Index)
		e.f64(r.Gap)
		e.iv(r.Evals)
		e.boolean(r.HasBest)
		e.f64s(r.Best)
		encodeTrace(e, r.Trace)
	}
}

func decodeBlackbox(d *decoder) *BlackboxState {
	st := &BlackboxState{Fingerprint: d.u64(), Method: d.str()}
	if ns := d.length(1); ns > 0 {
		st.Seeds = make([]int64, ns)
		for i := range st.Seeds {
			st.Seeds[i] = d.iv()
		}
	}
	st.ElapsedNanos = d.iv()
	if nc := d.length(4); nc > 0 {
		st.Completed = make([]RestartState, nc)
		for i := range st.Completed {
			st.Completed[i] = RestartState{
				Index:   d.iv(),
				Gap:     d.f64(),
				Evals:   d.iv(),
				HasBest: d.boolean(),
				Best:    d.f64s(),
				Trace:   decodeTrace(d),
			}
			if d.err != nil {
				return st
			}
		}
	}
	return st
}

// Decode parses bytes produced by Encode, verifying the header line and its
// checksum before trusting any payload field. A version-1 snapshot is
// refused with an error that names its format.
func Decode(data []byte) (*Snapshot, error) {
	if bytes.HasPrefix(data, []byte(magicV1)) {
		return nil, errors.New("checkpoint: a version-1 GAPCKP snapshot; this build reads only " + magic)
	}
	payload, err := unseal(magic, data)
	if err != nil {
		return nil, err
	}
	d := &decoder{buf: payload}
	kind := d.u8()
	s := &Snapshot{}
	switch kind {
	case kindBnB:
		s.BnB = decodeBnB(d)
	case kindBlackbox:
		s.Blackbox = decodeBlackbox(d)
	default:
		return nil, corrupt("unknown kind %d", kind)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, corrupt("%d trailing bytes", len(d.buf))
	}
	return s, nil
}
