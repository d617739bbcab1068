package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// declared is the part of BENCHMARK.json the code must agree with.
type declared struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclaredMetrics holds the metric and workload lists in the code equal
// to BENCHMARK.json's, names, units and order.
func TestDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	same := func(kind string, defs []metricDef, decl []struct{ Name, Unit string }) {
		if len(defs) != len(decl) {
			t.Fatalf("%s: code has %d metrics, BENCHMARK.json %d", kind, len(defs), len(decl))
		}
		for i, m := range defs {
			if m.name != decl[i].Name || m.unit != decl[i].Unit {
				t.Errorf("%s[%d]: code %s (%s), BENCHMARK.json %s (%s)", kind, i, m.name, m.unit, decl[i].Name, decl[i].Unit)
			}
			if !metricName.MatchString(m.name) {
				t.Errorf("%s: bad metric name %q", kind, m.name)
			}
		}
	}
	same("end_to_end", endToEnd, d.EndToEnd)
	same("per_layer", perLayer, d.PerLayer)
	ws := workloads()
	if len(ws) != len(d.Workloads) {
		t.Fatalf("code has %d workloads, BENCHMARK.json %d", len(ws), len(d.Workloads))
	}
	for i, w := range ws {
		if w.name != d.Workloads[i].Name {
			t.Errorf("workload %d: code %s, BENCHMARK.json %s", i, w.name, d.Workloads[i].Name)
		}
	}
}

// TestToyRuns runs every workload at toy size, untraced and traced, and
// checks the emitted metrics, the answers and the spans.
func TestToyRuns(t *testing.T) {
	d := readDeclared(t)
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			name := w.name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				out := t.TempDir()
				var stdout, stderr bytes.Buffer
				cfg := config{workload: w.name, seed: 1, trace: trace, out: out, toy: true}
				if _, err := measure(cfg, &stdout, &stderr); err != nil {
					t.Fatalf("measure: %v\n%s", err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := d.EndToEnd
				if trace {
					want = d.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: emitted %+v (present %v), declared unit %s", m.Name, got, ok, m.Unit)
					}
				}
				if !trace {
					for name, v := range res.Metrics {
						if v.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, v.Value)
						}
					}
					return
				}
				recs := readSpans(t, spanPath(out, w.name, cfg.seed))
				if len(recs) < 2 || recs[0].Name != "workload" {
					t.Fatalf("spans: %d recorded, first %+v", len(recs), recs[0])
				}
				if err := checkNesting(recs); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

func readSpans(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestNestingCheck makes sure the span check rejects what it should.
func TestNestingCheck(t *testing.T) {
	good := []span{{ID: 1, Name: "a", Start: 0, End: 10}, {ID: 2, Parent: 1, Name: "b", Start: 2, End: 5}}
	if err := checkNesting(good); err != nil {
		t.Fatal(err)
	}
	if total, self := spanTimes(good); total["a"] != 10e-9 || self["a"] != 7e-9 || self["b"] != 3e-9 {
		t.Errorf("totals %v, self times %v; want a=10ns/7ns b=3ns", total, self)
	}
	for _, bad := range [][]span{
		{{ID: 1, Name: "a", Start: 0, End: -1}},
		{{ID: 1, Name: "a", Start: 0, End: 10}, {ID: 2, Parent: 1, Name: "b", Start: 5, End: 11}},
		{{ID: 1, Name: "a", Start: 0, End: 10}, {ID: 2, Parent: 3, Name: "b", Start: 1, End: 2}},
	} {
		if checkNesting(bad) == nil {
			t.Errorf("accepted %+v", bad)
		}
	}
}

// TestSourceAvoidsRetiringKnobs keeps the benchmark off the solver knobs
// and tooling that are slated for deletion, so that deleting them never
// requires changing the benchmark: the LP engine and pricing selectors,
// node-level workers and batches, the engine environment variable, the
// benchstore ledger and cmd/gapbench. Pool sizes of the daemon and of the
// sweep client are coarse parallelism and stay allowed.
func TestSourceAvoidsRetiringKnobs(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	banned := map[string]bool{"Engine": true, "Pricing": true, "Workers": true, "Batch": true}
	envVar := "REPRO_LP_" + "ENGINE"
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if p := imp.Path.Value; strings.Contains(p, "benchstore") || strings.Contains(p, "cmd/gapbench") {
				t.Errorf("%s imports %s", name, p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if banned[n.Sel.Name] || strings.HasPrefix(n.Sel.Name, "Engine") || strings.HasPrefix(n.Sel.Name, "Pricing") {
					t.Errorf("%s: selector .%s", fset.Position(n.Pos()), n.Sel.Name)
				}
			case *ast.CompositeLit:
				milpOpts := false
				if sel, ok := n.Type.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "milp" && sel.Sel.Name == "Options" {
						milpOpts = true
					}
				}
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if k, ok := kv.Key.(*ast.Ident); ok && banned[k.Name] && (k.Name != "Workers" || milpOpts) {
						t.Errorf("%s: field %s set", fset.Position(kv.Pos()), k.Name)
					}
				}
			case *ast.BasicLit:
				if n.Kind == token.STRING && strings.Contains(n.Value, envVar) {
					t.Errorf("%s: mentions %s", fset.Position(n.Pos()), envVar)
				}
			}
			return true
		})
	}
}
