package lp

import (
	"encoding/binary"
	"fmt"
)

// Basis wire codec.
//
// A blob is a magic header, a version byte, the 8-byte LE structure
// signature, a uvarint column count and the delta-encoded sorted columns.
// The signature and column set describe the tableau's standard-form layout.
// Version 3 is the only readable version. Version 2 carried an extra byte
// naming the simplex engine that captured the basis, and the original
// versionless layout had no header at all; both decode to a
// *BasisVersionError, which checkpoint resume treats like any other
// undecodable basis: the node solves cold and the explored tree is unchanged.

// basisMagic introduces a basis blob.
var basisMagic = [4]byte{'L', 'P', 'B', 'S'}

// basisVersion is the current wire version.
const basisVersion = 3

// BasisVersionError reports a basis blob whose version this build does not
// understand. Callers (checkpoint resume, tooling) can detect it with
// errors.As and degrade to a cold solve instead of failing the whole load.
// Version is 0 for a blob without the magic header (the versionless layout).
type BasisVersionError struct {
	Version byte
}

func (e *BasisVersionError) Error() string {
	return fmt.Sprintf("lp: basis blob version %d not supported (want %d)", e.Version, basisVersion)
}

// MarshalBinary serializes the basis snapshot for checkpointing: magic,
// version, the structure signature, and the sorted basic-column set, varint
// delta-encoded. Integrity (checksums) remains the surrounding checkpoint
// format's job.
func (b *Basis) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 4+1+8+binary.MaxVarintLen64*(len(b.cols)+1))
	buf = append(buf, basisMagic[:]...)
	buf = append(buf, basisVersion)
	buf = binary.LittleEndian.AppendUint64(buf, b.sig)
	buf = binary.AppendUvarint(buf, uint64(len(b.cols)))
	prev := int32(0)
	for _, c := range b.cols {
		buf = binary.AppendUvarint(buf, uint64(c-prev))
		prev = c
	}
	return buf, nil
}

// UnmarshalBasis reconstructs a Basis written by MarshalBinary, validating
// shape (sorted, non-negative columns) so a corrupted checkpoint cannot
// smuggle an unusable snapshot into the warm-start path. A blob of another
// version, or without the magic header, is a *BasisVersionError.
func UnmarshalBasis(data []byte) (*Basis, error) {
	if len(data) < 5 || [4]byte(data[:4]) != basisMagic {
		return nil, &BasisVersionError{}
	}
	if data[4] != basisVersion {
		return nil, &BasisVersionError{Version: data[4]}
	}
	data = data[5:]
	if len(data) < 8 {
		return nil, fmt.Errorf("lp: basis blob truncated (%d bytes)", len(data))
	}
	sig := binary.LittleEndian.Uint64(data[:8])
	rest := data[8:]
	n, k := binary.Uvarint(rest)
	if k <= 0 || n > uint64(1<<30) {
		return nil, fmt.Errorf("lp: basis blob has bad column count")
	}
	rest = rest[k:]
	cols := make([]int32, n)
	prev := int64(0)
	for i := range cols {
		d, k := binary.Uvarint(rest)
		if k <= 0 {
			return nil, fmt.Errorf("lp: basis blob truncated at column %d", i)
		}
		rest = rest[k:]
		prev += int64(d)
		if prev > int64(1<<31-1) {
			return nil, fmt.Errorf("lp: basis column %d overflows", i)
		}
		cols[i] = int32(prev)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("lp: basis blob has %d trailing bytes", len(rest))
	}
	return &Basis{cols: cols, sig: sig}, nil
}
