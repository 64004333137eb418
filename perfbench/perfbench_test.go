package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// bootPhase boots a workload in a temporary directory and runs a short
// timed phase, so its shadow model holds real writes.
func bootPhase(t *testing.T, name string) (*env, topology) {
	t.Helper()
	setup := lookup(name)
	if setup == nil {
		t.Fatalf("no workload %q", name)
	}
	e, topo, err := boot(setup, false, filepath.Join(t.TempDir(), "topo"), 7)
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	t.Cleanup(e.close)
	ph := measure(e, topo, 300*time.Millisecond)
	if ph.stats.failed != 0 || ph.stats.ops == 0 {
		t.Fatalf("%s: %d ops, %d failed (first: %v)", name, ph.stats.ops, ph.stats.failed, ph.firstErr)
	}
	return e, topo
}

// TestCheckCatchesCorruptShadow proves each output check can fail: the
// check passes against the true shadow model and fails once one byte
// of the model is corrupted.
func TestCheckCatchesCorruptShadow(t *testing.T) {
	cases := []struct {
		workload string
		check    func(topology, bool) error
	}{
		{"hetero-bulk", func(tp topology, corrupt bool) error {
			w := tp.(*hetero)
			tags := w.shadow()
			if corrupt {
				tags[len(tags)/2] ^= 0x100
			}
			return w.checkAgainst(tags)
		}},
		{"hot-replicated", func(tp topology, corrupt bool) error {
			w := tp.(*hotReplicated)
			img, vers := w.shadow()
			if corrupt {
				img[0][3] ^= 0x01
			}
			return w.checkAgainst(img, vers)
		}},
		{"proxy-read", func(tp topology, corrupt bool) error {
			w := tp.(*proxyRead)
			tags := w.shadow()
			if corrupt {
				tags[5][17] ^= 0x01
			}
			return w.checkAgainst(tags)
		}},
		{"cold-sweep", func(tp topology, corrupt bool) error {
			w := tp.(*coldSweep)
			img, vers := w.shadow()
			if corrupt {
				img[200][4095] ^= 0x80
			}
			return w.checkAgainst(img, vers)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.workload, func(t *testing.T) {
			_, topo := bootPhase(t, tc.workload)
			if err := tc.check(topo, false); err != nil {
				t.Fatalf("check against the true shadow failed: %v", err)
			}
			if err := tc.check(topo, true); err == nil {
				t.Fatal("check passed against a corrupted shadow")
			}
		})
	}
}

// benchmarkSpec is the metric list BENCHMARK.json declares.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Work     []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload briefly — the ones BENCHMARK.json
// gates and cold-sweep, which it does not — untraced and traced, and
// checks that each prints exactly the declared metrics with their
// units and passes its output check.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Work {
		if lookup(w.Name) == nil {
			t.Fatalf("BENCHMARK.json lists unknown workload %q", w.Name)
		}
	}
	for _, w := range workloads {
		for _, mode := range []struct {
			trace bool
			want  []struct{ Name, Unit string }
		}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
			res, err := run(config{workload: w.name, seed: 3, seconds: 0.4, trace: mode.trace,
				dir: t.TempDir(), setups: 2}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, mode.trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, mode.trace, res.Correct, res.Attempted, res.Failed)
			}
			var want []string
			for _, m := range mode.want {
				want = append(want, m.Name)
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, mode.trace, m.Name)
				case got.Unit != m.Unit || got.Unit == "":
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w.name, mode.trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.name, mode.trace, m.Name, got.Value)
				}
			}
			sort.Strings(want)
			if got := metricNames(res.Metrics); len(got) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, declared %d", w.name, mode.trace, len(got), len(want))
			}
		}
	}
}

// metricNames lists a result's metric names, sorted.
func metricNames(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestFrameScannerAcrossChunks(t *testing.T) {
	var stream []byte
	frame := func(id uint32, payload int) {
		n := uint32(payload)
		stream = append(stream, byte(n>>24), byte(n>>16), byte(n>>8), byte(n),
			byte(id>>24), byte(id>>16), byte(id>>8), byte(id), 4)
		stream = append(stream, make([]byte, payload)...)
	}
	frame(1, 0)
	frame(0, 13)
	frame(70000, 1<<16)
	frame(2, 1)
	for _, chunk := range []int{1, 3, 9, 10, 4096, len(stream)} {
		var s frameScanner
		var ids []uint32
		for off := 0; off < len(stream); off += chunk {
			end := min(off+chunk, len(stream))
			s.feed(stream[off:end], func(id uint32) { ids = append(ids, id) })
		}
		if len(ids) != 4 || ids[0] != 1 || ids[1] != 0 || ids[2] != 70000 || ids[3] != 2 {
			t.Errorf("chunk %d: frames %v", chunk, ids)
		}
	}
}

func TestLatHistQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := newLatHist()
	var vs []float64
	for i := 0; i < 20000; i++ {
		d := time.Duration(rng.ExpFloat64() * float64(50*time.Microsecond))
		h.add(d)
		vs = append(vs, float64(d)/1e6)
	}
	sort.Float64s(vs)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := vs[int(math.Ceil(q*float64(len(vs))))-1]
		if got := h.quantile(q); math.Abs(got-exact) > 0.01*exact {
			t.Errorf("q%.2f = %v, exact %v", q, got, exact)
		}
	}
	h.fail()
	if h.total() != 20001 || !math.IsInf(h.quantile(1), 1) {
		t.Errorf("a failed op must count as +Inf")
	}
}
