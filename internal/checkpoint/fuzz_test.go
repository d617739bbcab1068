package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecode asserts two properties over arbitrary input bytes: Decode never
// panics, and anything it accepts re-encodes to the identical byte string
// (the canonical-form invariant Writer.Save's self-check relies on). The
// seeds hold a snapshot whose frontier carries a basis, a black-box
// snapshot and a version-1 file.
func FuzzDecode(f *testing.F) {
	if data, err := Encode(sampleBnB()); err == nil {
		f.Add(data)
	}
	if data, err := Encode(sampleBlackbox()); err == nil {
		f.Add(data)
	}
	f.Add([]byte("GAPCKP"))
	f.Add([]byte{})
	if data, err := os.ReadFile(filepath.Join("testdata", "v1-bnb.ckpt")); err == nil {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		out, err := Encode(s)
		if err != nil {
			t.Fatalf("accepted snapshot failed to re-encode: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted snapshot is not canonical: %d in, %d out", len(data), len(out))
		}
	})
}
