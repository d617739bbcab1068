package sweep

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecodeLedger holds the record-file decoder (checkpoint.DecodeRecords,
// which every keyed-record table shares) to the same contract as the GAPCKP
// fuzzer: arbitrary bytes never panic, and anything that decodes must
// re-encode canonically — encode(decode(x)) decodes to the same records.
func FuzzDecodeLedger(f *testing.F) {
	seed, err := encodeLedger(sampleRecords())
	if err != nil {
		f.Fatalf("encode seed: %v", err)
	}
	f.Add(seed)
	f.Add([]byte(""))
	f.Add([]byte("GAPSWEEP1 0000000000000000\n[]"))
	f.Add([]byte("GAPSWEEP1 deadbeefdeadbeef\nnull"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := decodeLedger(data)
		if err != nil {
			return
		}
		out, err := encodeLedger(recs)
		if err != nil {
			t.Fatalf("re-encode of valid ledger failed: %v", err)
		}
		again, err := decodeLedger(out)
		if err != nil {
			t.Fatalf("canonical re-encode does not decode: %v", err)
		}
		// Decode accepts only canonical key order, so the records compare
		// in place, and a second encode reproduces the first byte for byte.
		if out2, err := encodeLedger(again); err != nil || !bytes.Equal(out, out2) {
			t.Fatalf("canonical encoding is not a fixed point: %v", err)
		}
		a, _ := json.Marshal(recs)
		b, _ := json.Marshal(again)
		if !bytes.Equal(a, b) {
			t.Fatalf("records changed across canonical round trip:\n%s\nvs\n%s", a, b)
		}
	})
}
