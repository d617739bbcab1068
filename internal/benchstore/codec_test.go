package benchstore

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleFile() *File {
	return &File{
		Schema:     SchemaVersion,
		Date:       "2026-08-08",
		Seed:       5,
		Note:       "unit fixture",
		HistBounds: []Float{1e-5, 1e-3, 0.1, 10},
		Fixtures: []Fixture{
			{
				Name:        "zeta", // deliberately unsorted vs "alpha" below
				Fingerprint: Fingerprint(0xdeadbeef),
				Reps:        3,
				Hard:        []Counter{{Name: "nodes", Value: 2023}, {Name: "lp_iters", Value: 37123}},
				Soft:        []Value{{Name: "ns_per_op", Value: 1.5e9}, {Name: "allocs", Value: 12000}},
				Histograms: []Histogram{
					{Name: "lp_phase2_seconds", Count: 7, Sum: 0.5, Buckets: []uint64{0, 3, 7, 7, 7}},
				},
			},
			{
				Name: "alpha",
				Reps: 1,
				Hard: []Counter{{Name: "nodes", Value: 1}},
				Soft: []Value{
					{Name: "weird_inf", Value: Float(math.Inf(1))},
					{Name: "weird_neg_inf", Value: Float(math.Inf(-1))},
					{Name: "weird_nan", Value: Float(math.NaN())},
				},
			},
		},
	}
}

func TestEncodeIsCanonicalAndSorted(t *testing.T) {
	f := sampleFile()
	b1, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Encode(sampleFile())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("encoding equal states produced different bytes")
	}
	if f.Fixtures[0].Name != "alpha" || f.Fixtures[1].Name != "zeta" {
		t.Fatalf("fixtures not sorted after Encode: %s, %s", f.Fixtures[0].Name, f.Fixtures[1].Name)
	}
	if f.Fixtures[1].Hard[0].Name != "lp_iters" {
		t.Fatalf("hard metrics not sorted: %+v", f.Fixtures[1].Hard)
	}
	s := string(b1)
	for _, want := range []string{`"+Inf"`, `"-Inf"`, `"NaN"`, `"0x00000000deadbeef"`, `"schema": 1`} {
		if !strings.Contains(s, want) {
			t.Fatalf("encoded file missing %s:\n%s", want, s)
		}
	}
	if !strings.HasSuffix(s, "\n") {
		t.Fatal("encoded file lacks trailing newline")
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	b1, err := Encode(sampleFile())
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Decode(b1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Encode(f2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("round trip not byte-identical:\n--- first\n%s\n--- second\n%s", b1, b2)
	}
	// The non-finite sentinels must decode back to real non-finite floats.
	alpha := f2.FindFixture("alpha")
	if alpha == nil {
		t.Fatal("alpha fixture lost in round trip")
	}
	got := map[string]float64{}
	for _, v := range alpha.Soft {
		got[v.Name] = float64(v.Value)
	}
	if !math.IsInf(got["weird_inf"], 1) || !math.IsInf(got["weird_neg_inf"], -1) || !math.IsNaN(got["weird_nan"]) {
		t.Fatalf("non-finite values lost: %+v", got)
	}
}

// TestHostRoundTrip pins the optional host record: a ledger written before
// it existed decodes and re-encodes byte for byte with no host key, and a
// ledger with one keeps it through a round trip.
func TestHostRoundTrip(t *testing.T) {
	old, err := Encode(sampleFile())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(old, []byte(`"host"`)) {
		t.Fatalf("a ledger without a host encodes a host key:\n%s", old)
	}
	f, err := Decode(old)
	if err != nil {
		t.Fatal(err)
	}
	if f.Host != nil {
		t.Fatalf("old-format ledger decoded with host %v", f.Host)
	}
	if again, err := Encode(f); err != nil || !bytes.Equal(again, old) {
		t.Fatalf("old-format ledger did not re-encode byte-identically (err %v):\n%s", err, again)
	}

	withHost := sampleFile()
	withHost.Host = &Host{NumCPU: 8, GOMAXPROCS: 4, GoVersion: "go1.24.0"}
	b1, err := Encode(withHost)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b1, []byte(`"host": {
    "num_cpu": 8,
    "gomaxprocs": 4,
    "go_version": "go1.24.0"
  }`)) {
		t.Fatalf("host not encoded as expected:\n%s", b1)
	}
	f2, err := Decode(b1)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Host == nil || *f2.Host != *withHost.Host {
		t.Fatalf("host %v after round trip, want %v", f2.Host, withHost.Host)
	}
	if b2, err := Encode(f2); err != nil || !bytes.Equal(b1, b2) {
		t.Fatalf("ledger with a host did not re-encode byte-identically (err %v)", err)
	}
	if SameHost(f2, withHost) != true || SameHost(f, withHost) || SameHost(f, f) {
		t.Fatal("SameHost: want equal recorded hosts to match and an unrecorded host to match nothing")
	}
}

// TestCommittedLedgersReencode decodes every ledger committed at the
// repository root and requires Encode to reproduce it byte for byte, so
// adding fields to File never rewrites history.
func TestCommittedLedgersReencode(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Skip("no committed ledgers")
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := Decode(raw)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if again, err := Encode(f); err != nil || !bytes.Equal(again, raw) {
			t.Fatalf("%s does not re-encode byte-identically (err %v)", path, err)
		}
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"wrong-schema":      `{"schema": 99, "date": "2026-08-08", "fixtures": []}`,
		"not-json":          `{"schema": 1,`,
		"bad-sentinel":      `{"schema":1,"date":"d","fixtures":[{"name":"a","reps":1,"soft":[{"name":"x","value":"+Infinity"}]}]}`,
		"duplicate-fixture": `{"schema":1,"date":"d","fixtures":[{"name":"a","reps":1},{"name":"a","reps":1}]}`,
		"duplicate-metric":  `{"schema":1,"date":"d","fixtures":[{"name":"a","reps":1,"hard":[{"name":"n","value":1},{"name":"n","value":2}]}]}`,
		"unnamed-fixture":   `{"schema":1,"date":"d","fixtures":[{"reps":1}]}`,
	}
	for name, in := range cases {
		if _, err := Decode([]byte(in)); err == nil {
			t.Errorf("%s: Decode accepted invalid input", name)
		}
	}
}

// FuzzCodecRoundTrip feeds arbitrary bytes to Decode; whatever it accepts
// must re-encode canonically — Encode(Decode(b)) byte-identical to
// Encode(Decode(Encode(Decode(b)))) — and survive a second decode. This is
// the same self-check discipline as the GAPCKP binary codec, with JSON
// string sentinels standing in for raw IEEE bits on the non-finite floats.
func FuzzCodecRoundTrip(f *testing.F) {
	seed, err := Encode(sampleFile())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"schema":1,"date":"d","fixtures":[]}`))
	f.Add([]byte(`{"schema":1,"date":"d","fixtures":[{"name":"x","reps":1,"soft":[{"name":"v","value":"NaN"}]}]}`))
	f.Add([]byte(`{"schema":2}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, data []byte) {
		f1, err := Decode(data)
		if err != nil {
			return // invalid input is allowed to fail, never to crash
		}
		b1, err := Encode(f1)
		if err != nil {
			t.Fatalf("decoded file failed to encode: %v", err)
		}
		f2, err := Decode(b1)
		if err != nil {
			t.Fatalf("canonical encoding failed to decode: %v\n%s", err, b1)
		}
		b2, err := Encode(f2)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("canonical form unstable:\n--- first\n%s\n--- second\n%s", b1, b2)
		}
	})
}

func TestFingerprintFormat(t *testing.T) {
	if got := Fingerprint(0); got != "" {
		t.Fatalf("Fingerprint(0) = %q, want empty", got)
	}
	if got := Fingerprint(0xabc); got != "0x0000000000000abc" {
		t.Fatalf("Fingerprint(0xabc) = %q", got)
	}
}
