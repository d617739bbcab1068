package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
)

// Wire format (little endian throughout):
//
//	magic "GAPCKP" | version byte | kind byte | payload | fnv64a checksum
//
// Floats are stored as raw IEEE-754 bits so the solver's ±Inf sentinels and
// any NaN survive the round trip exactly. Integers use varints; slices and
// strings are length-prefixed. The checksum covers every preceding byte, so
// a torn or bit-flipped file fails loudly instead of resuming a wrong
// search.
const (
	magic   = "GAPCKP"
	version = 1

	kindBnB      = 1
	kindBlackbox = 2

	// maxLen bounds every decoded length prefix, so a corrupted count cannot
	// drive a huge allocation before the checksum is even reachable.
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

func (e *encoder) blob(b []byte) {
	e.uv(uint64(len(b)))
	e.buf = append(e.buf, b...)
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
// by the bytes actually remaining (each element takes >= min bytes).
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
	if d.err != nil {
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) blob() []byte {
	n := d.length(1)
	if d.err != nil || n == 0 {
		return nil
	}
	b := append([]byte(nil), d.buf[:n]...)
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) f64s() []float64 {
	n := d.length(8)
	if d.err != nil || n == 0 {
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
	if d.err != nil || n == 0 {
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
	e := &encoder{buf: make([]byte, 0, 1024)}
	e.buf = append(e.buf, magic...)
	e.u8(version)
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
	h := fnv.New64a()
	h.Write(e.buf)
	e.u64(h.Sum64())
	return e.buf, nil
}

func encodeBnB(e *encoder, st *BnBState) {
	e.u64(st.Fingerprint)
	e.uv(st.Waves)
	e.uv(st.NextID)
	e.iv(st.Nodes)
	e.iv(st.LPSolves)
	e.iv(st.LPIters)
	e.iv(st.WarmLPSolves)
	e.iv(st.WarmLPFallbacks)
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
		e.blob(nd.Basis)
	}
	encodeTrace(e, st.Trace)
}

func decodeBnB(d *decoder) *BnBState {
	st := &BnBState{
		Fingerprint:     d.u64(),
		Waves:           d.uv(),
		NextID:          d.uv(),
		Nodes:           d.iv(),
		LPSolves:        d.iv(),
		LPIters:         d.iv(),
		WarmLPSolves:    d.iv(),
		WarmLPFallbacks: d.iv(),
		HasIncumbent:    d.boolean(),
		Incumbent:       d.f64(),
	}
	st.IncumbentX = d.f64s()
	st.BestBound = d.f64()
	st.InfeasibleProven = d.boolean()
	st.ElapsedNanos = d.iv()
	n := d.length(4)
	if n > 0 && d.err == nil {
		st.Frontier = make([]FrontierNode, n)
		for i := range st.Frontier {
			nd := FrontierNode{ID: d.uv(), Bound: d.f64(), Depth: int32(d.iv())}
			no := d.length(4)
			if no > 0 && d.err == nil {
				nd.Overrides = make([]Override, no)
				for j := range nd.Overrides {
					nd.Overrides[j] = Override{Var: int32(d.iv()), Lo: d.f64(), Hi: d.f64()}
				}
			}
			nd.Basis = d.blob()
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
	ns := d.length(1)
	if ns > 0 && d.err == nil {
		st.Seeds = make([]int64, ns)
		for i := range st.Seeds {
			st.Seeds[i] = d.iv()
		}
	}
	st.ElapsedNanos = d.iv()
	nc := d.length(4)
	if nc > 0 && d.err == nil {
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

// Decode parses bytes produced by Encode, verifying magic, version, and the
// trailing checksum before trusting any payload field.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(magic)+2+8 {
		return nil, corrupt("short file (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, corrupt("bad magic")
	}
	body, sum := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != sum {
		return nil, corrupt("checksum mismatch")
	}
	d := &decoder{buf: body[len(magic):]}
	ver := d.u8()
	if ver != version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d (want %d)", ver, version)
	}
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
