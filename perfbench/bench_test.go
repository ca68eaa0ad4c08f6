package main

import (
	"encoding/json"
	"net"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"lcn3d/internal/network"
)

// serveInputs is everything the serve-mix generator hands the fleet.
func serveInputs(t *testing.T, seed int64) [][]any {
	t.Helper()
	cases, err := loadCases()
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(seed, cases)
	open, err := g.openSchedule(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := g.batch(100)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]any
	for _, r := range append(open, closed...) {
		out = append(out, []any{r.ID, r.Class, r.Path, string(r.Body), r.Node, r.Due})
	}
	return out
}

func TestServeRequestsFollowSeed(t *testing.T) {
	a, b, c := serveInputs(t, 7), serveInputs(t, 7), serveInputs(t, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different request sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same request sequence")
	}
	// Every aligned block of 20 draws holds exactly 12 hot, 5 warm and
	// 3 cold requests, whatever the seed.
	for start := 0; start+20 <= len(a); start += 20 {
		classes := map[any]int{}
		for _, r := range a[start : start+20] {
			classes[r[1]]++
		}
		if classes["hot"] != 12 || classes["warm"] != 5 || classes["cold"] != 3 {
			t.Fatalf("draws %d..%d: class mix %v, want 12/5/3", start, start+19, classes)
		}
	}
}

func TestColdNetworksAreFresh(t *testing.T) {
	cases, err := loadCases()
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(3, cases)
	seen := map[string]bool{}
	for i := 0; i < 60; i++ {
		caseID, problem := 1+i%5, 1+i%2
		ns, err := g.coldNetwork(caseID, problem)
		if err != nil {
			t.Fatal(err)
		}
		n, err := resolveNetwork(cases[caseID], ns)
		if err != nil {
			t.Fatalf("generated network does not resolve: %v", err)
		}
		key := string(rune('0'+caseID)) + string(rune('0'+problem)) + n.CanonicalHash()
		if seen[key] {
			t.Fatalf("cold network %d repeats an earlier one", i)
		}
		seen[key] = true
	}
}

func TestCandidatesAndSchedulesFollowSeed(t *testing.T) {
	inst, err := loadCase(1)
	if err != nil {
		t.Fatal(err)
	}
	spec := network.UniformTreeSpec(inst.Stk.Dims, 4, network.Branch4, 0.35, 0.65)
	a := candidateSpecs(5, spec, 8, inst)
	if b := candidateSpecs(5, spec, 8, inst); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different candidate sets")
	}
	if c := candidateSpecs(6, spec, 8, inst); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same candidate set")
	}
	if !reflect.DeepEqual(transientSpec(5, 2), transientSpec(5, 2)) {
		t.Fatal("the same seed gave different transient schedules")
	}
	if reflect.DeepEqual(transientSpec(5, 2), transientSpec(6, 2)) {
		t.Fatal("different seeds gave the same transient schedule")
	}
	for i := 0; i < 20; i++ {
		if err := transientSpec(int64(i), i).Validate(); err != nil {
			t.Fatalf("schedule %d invalid: %v", i, err)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[n-1-i] = float64(i + 1) // descending: summarize must sort
		}
		return s
	}
	for _, tc := range []struct {
		n          int
		tail, pc   float64
		p50        float64
		wantBeyond int
	}{
		{n: 1, tail: 1, pc: 100, p50: 1},
		{n: 10, tail: 10, pc: 100, p50: 5.5},
		{n: 11, tail: 1, pc: 100.0 / 11, p50: 6, wantBeyond: 10},
		{n: 20, tail: 10, pc: 50, p50: 10.5, wantBeyond: 10},
		{n: 100, tail: 90, pc: 90, p50: 50.5, wantBeyond: 10},
		{n: 1000, tail: 990, pc: 99, p50: 500.5, wantBeyond: 10},
	} {
		d := summarize(seq(tc.n))
		if d.N != tc.n || d.Tail != tc.tail || d.TailPc != tc.pc || d.P50 != tc.p50 {
			t.Errorf("n=%d: got %+v, want tail %g at p%g, p50 %g", tc.n, d, tc.tail, tc.pc, tc.p50)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > d.Tail {
				beyond++
			}
		}
		if beyond != tc.wantBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, tc.wantBeyond)
		}
	}
	if d := summarize(nil); d != (dist{}) {
		t.Errorf("empty sample set: %+v", d)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50}, // overlaps the first child
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: 12, End: 18},
		{ID: 6, Name: "other", Start: 200, End: 260},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"root":       100 - 40 - 10, // children cover [10,50] and [90,100]
		"child":      (20 - 6) + 30, // the grandchild covers 6 of the first
		"late":       30,
		"grandchild": 6,
		"other":      60,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	if c := coverage(spans, 0, 300); c != 160.0/300 {
		t.Fatalf("coverage %v, want %v", c, 160.0/300)
	}
	tr := newTracer()
	id := tr.begin("a", 0, 1)
	tr.end(tr.begin("b", id, 1))
	tr.end(id)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].End < s[1].End {
		t.Fatalf("tracer spans %+v", s)
	}
	var off *tracer // the untraced run
	if off.begin("x", 0, 0) != 0 {
		t.Fatal("a nil tracer recorded a span")
	}
	off.end(1)
}

// TestTakenNodeAddressFailsTheRun: the fleet binds only its fixed
// addresses, since other ports would change key ownership.
func TestTakenNodeAddressFailsTheRun(t *testing.T) {
	l, err := net.Listen("tcp", nodeAddrs[1])
	if err != nil {
		t.Skipf("cannot hold %s for the test: %v", nodeAddrs[1], err)
	}
	defer l.Close()
	if ls, err := listen(); err == nil {
		for _, o := range ls {
			o.Close()
		}
		t.Fatal("listen succeeded with a node address taken")
	}
	// The first address was released again.
	l0, err := net.Listen("tcp", nodeAddrs[0])
	if err != nil {
		t.Fatalf("first node address still held: %v", err)
	}
	l0.Close()
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and the metric
// and workload tables of this program in step.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for w := range workloads {
		have = append(have, w)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !reflect.DeepEqual(names, have) {
		t.Errorf("workloads %v in BENCHMARK.json, %v in the program", names, have)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in the program", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in the program", i, m, d)
		}
	}
}
