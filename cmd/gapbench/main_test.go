package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLedgerPath checks that a run without -out never replaces a ledger:
// it takes BENCH_<date>.json, then the first free BENCH_<date>rN.json; that
// -out wins when given; and that an -out naming the -against baseline is
// refused, however the two paths are spelled.
func TestLedgerPath(t *testing.T) {
	dir := t.TempDir()
	const date = "2026-10-19"
	next := func(want string) {
		t.Helper()
		got, err := ledgerPath(dir, date, "", "")
		if err != nil || got != filepath.Join(dir, want) {
			t.Fatalf("default ledger = %q, %v; want %s", got, err, want)
		}
		if err := os.WriteFile(got, []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	next("BENCH_2026-10-19.json")
	next("BENCH_2026-10-19r2.json")
	next("BENCH_2026-10-19r3.json")

	base := filepath.Join(dir, "BENCH_2026-10-19.json")
	if got, err := ledgerPath(dir, date, "other/x.json", base); err != nil || got != "other/x.json" {
		t.Fatalf("-out x.json = %q, %v; want it as given", got, err)
	}
	if got, err := ledgerPath(dir, date, "", base); err != nil || got != filepath.Join(dir, "BENCH_2026-10-19r4.json") {
		t.Fatalf("default ledger against a baseline = %q, %v; want the r4 ledger", got, err)
	}
	for _, out := range []string{base, filepath.Join(dir, ".", "BENCH_2026-10-19.json")} {
		if _, err := ledgerPath(dir, date, out, base); err == nil {
			t.Fatalf("-out %s equal to -against %s was accepted", out, base)
		}
	}
	link := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.Symlink(base, link); err != nil {
		t.Skip("no symlinks:", err)
	}
	if _, err := ledgerPath(dir, date, link, base); err == nil {
		t.Fatalf("-out %s, a link to the -against baseline, was accepted", link)
	}
}
