package milp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
)

// TestCheckpointStatePinned pins the exact bytes of a snapshot taken
// between node steps: a fixed model is stopped by an injected deadline at a
// known step, and the checkpoint it left behind — with every wall-clock field
// zeroed — must hash to the recorded constant. Any change to the order of
// the frontier, the counters or the trace shows up here, even one that a
// resumed run would happen to paper over.
func TestCheckpointStatePinned(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		wave int
		want string
	}{
		{"serial-warm", Options{WarmStart: true}, 41,
			"7f8a1c95e32e88b89e7cb41e07aeff13fa912595745e295a705b77a1b5c33a18"},
		// A cold search's frontier carries no bases.
		{"serial-cold", Options{}, 41,
			"7ab6a5f0e8b78fd311026a96430607197e42e71414dce4191f8d7c5c03b31401"},
	}
	m := resumeModel(10, 7)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := faultinject.Parse(fmt.Sprintf("deadline:%d", tc.wave), 0)
			if err != nil {
				t.Fatalf("plan: %v", err)
			}
			opts := tc.opts
			opts.Checkpoint = filepath.Join(t.TempDir(), "bnb.ckpt")
			opts.CheckpointEvery = 1
			opts.Faults = plan
			res, err := Solve(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status == StatusOptimal {
				t.Fatalf("search finished before wave %d; the fault never fired", tc.wave)
			}
			snap, err := checkpoint.Load(opts.Checkpoint)
			if err != nil {
				t.Fatal(err)
			}
			st := snap.BnB
			if st == nil || st.Nodes != int64(tc.wave-1) || len(st.Frontier) == 0 || !st.HasIncumbent {
				t.Fatalf("snapshot is not the mid-search wave boundary %d: %+v", tc.wave-1, st)
			}
			bases := 0
			for _, fn := range st.Frontier {
				if fn.Basis != nil {
					bases++
				}
			}
			if warm := tc.opts.WarmStart; warm != (bases > 0) {
				t.Fatalf("warm=%v snapshot carries %d frontier bases", warm, bases)
			}
			st.ElapsedNanos = 0
			for i := range st.Trace {
				st.Trace[i].ElapsedNanos = 0
			}
			blob, err := checkpoint.Encode(snap)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("snapshot hash = %s, want %s", got, tc.want)
			}
		})
	}
}
